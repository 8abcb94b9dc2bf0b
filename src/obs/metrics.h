// Unified metrics registry: named counters, gauges, and latency histograms
// with atomic fast paths, scrape-able in one place (Prometheus text format
// via obs/export.h).
//
// Naming convention: pc_<subsystem>_<name>, counters suffixed _total,
// sized gauges suffixed _bytes, histograms suffixed _seconds. Examples:
// pc_engine_serves_total, pc_store_resident_bytes, pc_server_ttft_seconds.
//
// Instrument model — families of cells:
//
//   registry.counter("pc_engine_serves_total") returns a NEW cell appended
//   to the named family. Each engine/store/server owns its own cells, so
//   per-instance accounting stays unsynchronized-fast (one relaxed atomic
//   per event, no sharing between workers) and the old stats structs
//   (EngineStats, ModuleStoreStats, ServerStats) remain cheap views over
//   their instance's cells. A scrape aggregates the family: counters and
//   gauges sum their cells, histograms merge them. Counter and histogram
//   cells are retained after their owner dies (totals never go backward);
//   gauge cells are weakly held and vanish with their owner (a destroyed
//   store stops contributing resident bytes).
//
// All instruments are usable from any thread. Handles are cheap to copy
// (shared_ptr); a default-constructed handle is a detached cell — fully
// functional, just never scraped — so members need no special init order.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace pc::obs {

enum class MetricType { kCounter, kGauge, kHistogram };

class MetricsRegistry;

// Monotonically increasing count. Relaxed-atomic increments.
class Counter {
 public:
  Counter() : cell_(std::make_shared<std::atomic<uint64_t>>(0)) {}

  void inc(uint64_t n = 1) { cell_->fetch_add(n, std::memory_order_relaxed); }
  Counter& operator++() {
    inc();
    return *this;
  }
  uint64_t value() const { return cell_->load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::shared_ptr<std::atomic<uint64_t>> cell)
      : cell_(std::move(cell)) {}
  std::shared_ptr<std::atomic<uint64_t>> cell_;
};

// A settable level (queue depth, resident bytes, pinned entries). A scrape
// sums a family's live cells, so a gauge must hold an additive amount
// (bytes, entries, requests) whose sum over instances means something,
// never a per-instance ratio or level: three instances each at 100%
// would export 300%. Export the ratio's numerator and denominator as
// counters instead.
class Gauge {
 public:
  Gauge() : cell_(std::make_shared<std::atomic<int64_t>>(0)) {}

  void set(int64_t v) { cell_->store(v, std::memory_order_relaxed); }
  void add(int64_t n) { cell_->fetch_add(n, std::memory_order_relaxed); }
  void sub(int64_t n) { cell_->fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return cell_->load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::shared_ptr<std::atomic<int64_t>> cell)
      : cell_(std::move(cell)) {}
  std::shared_ptr<std::atomic<int64_t>> cell_;
};

// A latency distribution cell wrapping LatencyHistogram. Recording takes a
// per-cell mutex — cells are per-instance (typically per-thread), so the
// lock is uncontended and costs tens of nanoseconds per request-scale
// event; scrapes lock briefly for a consistent snapshot.
class Histogram {
 public:
  Histogram() : cell_(std::make_shared<Cell>()) {}

  void record_seconds(double s) {
    std::lock_guard lock(cell_->mutex);
    cell_->hist.record_seconds(s);
  }
  void record_ms(double ms) { record_seconds(ms / 1e3); }

  LatencyHistogram snapshot() const {
    std::lock_guard lock(cell_->mutex);
    return cell_->hist;
  }

 private:
  friend class MetricsRegistry;
  struct Cell {
    mutable std::mutex mutex;
    LatencyHistogram hist;
  };
  explicit Histogram(std::shared_ptr<Cell> cell) : cell_(std::move(cell)) {}
  std::shared_ptr<Cell> cell_;
};

class MetricsRegistry {
 public:
  // The process-wide registry every subsystem registers into.
  static MetricsRegistry& global();

  // Each call appends a fresh cell to the named family and returns its
  // handle. Throws pc::Error if the name is already registered with a
  // different type.
  Counter counter(const std::string& name, const std::string& help = "");
  Gauge gauge(const std::string& name, const std::string& help = "");
  Histogram histogram(const std::string& name, const std::string& help = "");

  // Aggregated view of one family at scrape time.
  struct FamilySample {
    std::string name;
    MetricType type = MetricType::kCounter;
    std::string help;
    uint64_t counter_value = 0;        // kCounter: sum of cells
    int64_t gauge_value = 0;           // kGauge: sum of live cells
    LatencyHistogram histogram_value;  // kHistogram: merge of cells
  };
  // Families in name order. Skips gauge families whose cells all expired.
  std::vector<FamilySample> collect() const;

 private:
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::vector<std::shared_ptr<std::atomic<uint64_t>>> counters;
    std::vector<std::weak_ptr<std::atomic<int64_t>>> gauges;
    std::vector<std::shared_ptr<Histogram::Cell>> histograms;
  };

  Family& family_locked(const std::string& name, MetricType type,
                        const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

}  // namespace pc::obs
