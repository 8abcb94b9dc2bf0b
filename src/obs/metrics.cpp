#include "obs/metrics.h"

#include "common/error.h"

namespace pc::obs {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry;  // leaked: exit-safe
  return *r;
}

MetricsRegistry::Family& MetricsRegistry::family_locked(
    const std::string& name, MetricType type, const std::string& help) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.type = type;
    it->second.help = help;
  } else {
    PC_CHECK_MSG(it->second.type == type,
                 "metric '" << name
                            << "' re-registered with a different type");
    if (it->second.help.empty()) it->second.help = help;
  }
  return it->second;
}

Counter MetricsRegistry::counter(const std::string& name,
                                 const std::string& help) {
  auto cell = std::make_shared<std::atomic<uint64_t>>(0);
  std::lock_guard lock(mutex_);
  family_locked(name, MetricType::kCounter, help).counters.push_back(cell);
  return Counter(std::move(cell));
}

Gauge MetricsRegistry::gauge(const std::string& name,
                             const std::string& help) {
  auto cell = std::make_shared<std::atomic<int64_t>>(0);
  std::lock_guard lock(mutex_);
  family_locked(name, MetricType::kGauge, help).gauges.push_back(cell);
  return Gauge(std::move(cell));
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     const std::string& help) {
  auto cell = std::make_shared<Histogram::Cell>();
  std::lock_guard lock(mutex_);
  family_locked(name, MetricType::kHistogram, help).histograms.push_back(cell);
  return Histogram(std::move(cell));
}

std::vector<MetricsRegistry::FamilySample> MetricsRegistry::collect() const {
  std::lock_guard lock(mutex_);
  std::vector<FamilySample> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilySample s;
    s.name = name;
    s.type = family.type;
    s.help = family.help;
    switch (family.type) {
      case MetricType::kCounter:
        for (const auto& c : family.counters) {
          s.counter_value += c->load(std::memory_order_relaxed);
        }
        break;
      case MetricType::kGauge: {
        bool any_live = false;
        for (const auto& w : family.gauges) {
          if (auto g = w.lock()) {
            any_live = true;
            s.gauge_value += g->load(std::memory_order_relaxed);
          }
        }
        if (!any_live) continue;  // owner(s) gone: drop from the scrape
        break;
      }
      case MetricType::kHistogram:
        for (const auto& h : family.histograms) {
          std::lock_guard cell_lock(h->mutex);
          s.histogram_value.merge(h->hist);
        }
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace pc::obs
