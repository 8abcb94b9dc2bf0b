#include "sys/fault.h"

#include <cmath>
#include <cstdlib>
#include <mutex>

#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pc {

const char* fault_point_name(FaultPoint p) {
  switch (p) {
    case FaultPoint::kEncode:
      return "encode";
    case FaultPoint::kLink:
      return "link";
    case FaultPoint::kCorrupt:
      return "corrupt";
    case FaultPoint::kEvict:
      return "evict";
    case FaultPoint::kStall:
      return "stall";
    case FaultPoint::kShardKill:
      return "shardkill";
    case FaultPoint::kDiskRead:
      return "diskread";
    case FaultPoint::kDiskWrite:
      return "diskwrite";
  }
  return "unknown";
}

namespace {

// Guards configure()/disable()/spec() against each other; the poll path
// never takes it.
std::mutex& config_mutex() {
  static std::mutex* m = new std::mutex;  // leaked: usable during exit
  return *m;
}

obs::Counter& injected_counter() {
  static obs::Counter* c = new obs::Counter(obs::MetricsRegistry::global().counter(
      "pc_faults_injected_total", "faults injected across all points"));
  return *c;
}

// The N-th draw of a point under a seed, as a uniform double in [0,1).
double draw_uniform(uint64_t seed, FaultPoint p, uint64_t n) {
  const uint64_t h = splitmix64(
      seed ^ (static_cast<uint64_t>(p) * 0xd1b54a32d192ed03ULL) ^
      splitmix64(n));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

int point_from_name(const std::string& name) {
  for (int i = 0; i < kNumFaultPoints; ++i) {
    if (name == fault_point_name(static_cast<FaultPoint>(i))) return i;
  }
  return -1;
}

// Static literals for the trace markers (TraceEvent stores the pointer).
// [[maybe_unused]]: PC_INSTANT compiles out under -DPC_OBS=OFF.
[[maybe_unused]] const char* inject_marker_name(FaultPoint p) {
  switch (p) {
    case FaultPoint::kEncode:
      return "fault_inject_encode";
    case FaultPoint::kLink:
      return "fault_inject_link";
    case FaultPoint::kCorrupt:
      return "fault_inject_corrupt";
    case FaultPoint::kEvict:
      return "fault_inject_evict";
    case FaultPoint::kStall:
      return "fault_inject_stall";
    case FaultPoint::kShardKill:
      return "fault_inject_shardkill";
    case FaultPoint::kDiskRead:
      return "fault_inject_diskread";
    case FaultPoint::kDiskWrite:
      return "fault_inject_diskwrite";
  }
  return "fault_inject";
}

// Strict numeric parsers for spec fields: the whole field must be one
// number — std::stod/stoull alone would accept "0.2abc" and negative
// values via wraparound, silently arming a different schedule than the
// operator wrote.
double parse_double_field(const std::string& value, const std::string& entry,
                          const char* what) {
  size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(value, &pos);
  } catch (const std::exception&) {
    throw ConfigError("PC_FAULTS: bad " + std::string(what) + " '" + value +
                      "' in '" + entry + "'");
  }
  if (pos != value.size() || !std::isfinite(v)) {
    throw ConfigError("PC_FAULTS: bad " + std::string(what) + " '" + value +
                      "' in '" + entry + "' (not a plain finite number)");
  }
  return v;
}

uint64_t parse_uint_field(const std::string& value, const std::string& entry,
                          const char* what) {
  if (value.empty() || value[0] == '-' || value[0] == '+') {
    throw ConfigError("PC_FAULTS: bad " + std::string(what) + " '" + value +
                      "' in '" + entry + "' (expected an unsigned integer)");
  }
  size_t pos = 0;
  uint64_t v = 0;
  try {
    v = std::stoull(value, &pos);
  } catch (const std::exception&) {
    throw ConfigError("PC_FAULTS: bad " + std::string(what) + " '" + value +
                      "' in '" + entry + "'");
  }
  if (pos != value.size()) {
    throw ConfigError("PC_FAULTS: bad " + std::string(what) + " '" + value +
                      "' in '" + entry + "' (trailing characters)");
  }
  return v;
}

}  // namespace

FaultInjector::FaultInjector() {
  const char* env = std::getenv("PC_FAULTS");
  if (env != nullptr && *env != '\0') configure(env);
}

FaultInjector& FaultInjector::global() {
  static FaultInjector* instance = new FaultInjector;  // leaked on purpose
  return *instance;
}

void FaultInjector::configure(const std::string& spec) {
  std::lock_guard lock(config_mutex());
  armed_.store(false, std::memory_order_release);

  std::array<Rule, kNumFaultPoints> rules{};
  uint64_t seed = 1;
  bool any = false;
  for (const std::string& raw : split(spec, ',')) {
    const std::string entry{trim(raw)};
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      throw ConfigError("PC_FAULTS: malformed entry '" + entry +
                        "' (expected name=value)");
    }
    const std::string name{trim(entry.substr(0, eq))};
    std::string value{trim(entry.substr(eq + 1))};
    if (name == "seed") {
      seed = parse_uint_field(value, entry, "seed");
      continue;
    }
    const int pi = point_from_name(name);
    if (pi < 0) {
      throw ConfigError("PC_FAULTS: unknown fault point '" + name + "'");
    }
    Rule& rule = rules[static_cast<size_t>(pi)];
    // value = rate ["x" count] [":" ms]
    const size_t colon = value.find(':');
    if (colon != std::string::npos) {
      rule.stall_ms =
          parse_double_field(value.substr(colon + 1), entry, "stall duration");
      if (rule.stall_ms < 0) {
        throw ConfigError("PC_FAULTS: negative stall duration in '" + entry +
                          "'");
      }
      value = value.substr(0, colon);
    }
    const size_t x = value.find('x');
    if (x != std::string::npos) {
      rule.max_count = parse_uint_field(value.substr(x + 1), entry,
                                        "injection cap");
      value = value.substr(0, x);
    }
    rule.rate = parse_double_field(value, entry, "rate");
    // Written as !(in range): NaN fails every comparison, so the
    // `< 0 || > 1` form would accept it even if one got past the finite
    // check above.
    if (!(rule.rate >= 0.0 && rule.rate <= 1.0)) {
      throw ConfigError("PC_FAULTS: rate out of [0,1] in '" + entry + "'");
    }
    if (rule.rate > 0) any = true;
  }

  rules_ = rules;
  seed_ = seed;
  for (int i = 0; i < kNumFaultPoints; ++i) {
    draws_[static_cast<size_t>(i)].store(0, std::memory_order_relaxed);
    injected_[static_cast<size_t>(i)].store(0, std::memory_order_relaxed);
  }
  spec_ = any ? spec : std::string();
  armed_.store(any, std::memory_order_release);
}

void FaultInjector::disable() {
  std::lock_guard lock(config_mutex());
  armed_.store(false, std::memory_order_release);
  spec_.clear();
}

std::string FaultInjector::spec() const {
  std::lock_guard lock(config_mutex());
  return armed_.load(std::memory_order_relaxed) ? spec_ : std::string();
}

bool FaultInjector::roll(FaultPoint p) {
  // Re-load with acquire: configure() published rules_/seed_ before the
  // release store that armed the injector.
  if (!armed_.load(std::memory_order_acquire)) return false;
  const size_t i = static_cast<size_t>(p);
  const Rule& rule = rules_[i];
  if (rule.rate <= 0) return false;
  if (rule.max_count != 0 &&
      injected_[i].load(std::memory_order_relaxed) >= rule.max_count) {
    return false;
  }
  const uint64_t n = draws_[i].fetch_add(1, std::memory_order_relaxed);
  if (draw_uniform(seed_, p, n) >= rule.rate) return false;
  injected_[i].fetch_add(1, std::memory_order_relaxed);
  injected_counter().inc();
  // Chaos runs become readable on the timeline: the injection lands as an
  // instant marker on the thread that drew it, inside whatever span was
  // open there (batch_admit, encode_module, ...).
  PC_INSTANT(inject_marker_name(p),
             {"draw", static_cast<int64_t>(n)});
  return true;
}

double FaultInjector::stall_ms(FaultPoint p) const {
  return rules_[static_cast<size_t>(p)].stall_ms;
}

uint64_t FaultInjector::injected(FaultPoint p) const {
  return injected_[static_cast<size_t>(p)].load(std::memory_order_relaxed);
}

uint64_t FaultInjector::injected_total() const {
  uint64_t total = 0;
  for (const auto& c : injected_) total += c.load(std::memory_order_relaxed);
  return total;
}

}  // namespace pc
