#include "obs/request_timeline.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>

#include "obs/export.h"

namespace pc::obs {

const char* outcome_name(RequestOutcome o) {
  switch (o) {
    case RequestOutcome::kOk:
      return "ok";
    case RequestOutcome::kDegraded:
      return "degraded";
    case RequestOutcome::kTimeout:
      return "timeout";
    case RequestOutcome::kShed:
      return "shed";
    case RequestOutcome::kFailed:
      return "failed";
    case RequestOutcome::kPending:
      return "pending";
  }
  return "unknown";
}

namespace {

void json_ms(std::ostream& os, const char* key, double ms) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4f", ms);
  os << ",\"" << key << "\":" << buf;
}

}  // namespace

std::string timeline_json(const RequestTimeline& t) {
  std::ostringstream os;
  os << "{\"id\":" << t.id << ",\"server\":" << t.server
     << ",\"lane\":" << t.lane
     << ",\"outcome\":\"" << outcome_name(t.outcome) << "\""
     << ",\"submit_ns\":" << t.submit_ns << ",\"admit_ns\":" << t.admit_ns
     << ",\"first_token_ns\":" << t.first_token_ns
     << ",\"done_ns\":" << t.done_ns;
  json_ms(os, "queue_ms", t.queue_ms);
  json_ms(os, "encode_ms", t.encode_ms);
  json_ms(os, "retrieve_ms", t.retrieve_ms);
  json_ms(os, "transfer_ms", t.transfer_ms);
  json_ms(os, "prefill_ms", t.prefill_ms);
  json_ms(os, "decode_ms", t.decode_ms);
  json_ms(os, "ttft_ms", t.ttft_ms);
  json_ms(os, "service_ms", t.service_ms);
  os << ",\"cached_tokens\":" << t.cached_tokens
     << ",\"uncached_tokens\":" << t.uncached_tokens
     << ",\"modules\":" << t.modules
     << ",\"module_misses\":" << t.module_misses
     << ",\"prefill_chunks\":" << t.prefill_chunks
     << ",\"bytes_from_host\":" << t.bytes_from_host
     << ",\"bytes_from_device\":" << t.bytes_from_device
     << ",\"bytes_zero_copy\":" << t.bytes_zero_copy << ",\"kv_format\":\"";
  write_json_escaped(os, t.kv_format);
  os << "\",\"retries\":" << t.retries
     << ",\"deadline_met\":" << (t.deadline_met ? "true" : "false")
     << ",\"detail\":\"";
  write_json_escaped(os, t.detail);
  os << "\",\"annotations\":[";
  for (size_t i = 0; i < t.annotations.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"";
    write_json_escaped(os, t.annotations[i]);
    os << "\"";
  }
  os << "]}";
  return os.str();
}

#if PC_OBS_ENABLED

namespace {

int telemetry_from_env() {
  const char* v = std::getenv("PC_REQTL");
  if (v != nullptr && v[0] == '0' && v[1] == '\0') return 0;
  return 1;
}

std::atomic<int> g_telemetry{telemetry_from_env()};

// PC_REQLOG streaming sink. Lazily opened on first record; the explicit
// setter overrides (and "" closes). Leaked so it stays usable during exit.
struct ReqLog {
  std::mutex mutex;
  std::ofstream out;
  bool consulted_env = false;

  static ReqLog& get() {
    static ReqLog* s = new ReqLog;
    return *s;
  }

  // Called with the mutex held.
  void ensure_open_locked() {
    if (consulted_env) return;
    consulted_env = true;
    const char* path = std::getenv("PC_REQLOG");
    if (path != nullptr && *path != '\0') {
      out.open(path, std::ios::trunc);
    }
  }

  void append(const RequestTimeline& t) {
    std::lock_guard lock(mutex);
    ensure_open_locked();
    if (out.is_open()) out << timeline_json(t) << "\n";
  }
};

}  // namespace

bool request_telemetry_enabled() {
  return g_telemetry.load(std::memory_order_relaxed) != 0;
}

void set_request_telemetry(bool enabled) {
  g_telemetry.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void set_request_log_path(const std::string& path) {
  ReqLog& log = ReqLog::get();
  std::lock_guard lock(log.mutex);
  log.consulted_env = true;  // explicit choice overrides the env default
  if (log.out.is_open()) log.out.close();
  if (!path.empty()) log.out.open(path, std::ios::trunc);
}

struct RequestTracker::Impl {
  mutable std::mutex mutex;
  size_t capacity = 8192;
  std::deque<RequestTimeline> ring;
  uint64_t recorded = 0;
  uint64_t dropped = 0;
};

RequestTracker::RequestTracker(size_t capacity)
    : impl_(std::make_shared<Impl>()) {
  impl_->capacity = capacity == 0 ? 1 : capacity;
}

void RequestTracker::record(RequestTimeline&& t) {
  ReqLog::get().append(t);
  std::lock_guard lock(impl_->mutex);
  ++impl_->recorded;
  if (impl_->ring.size() >= impl_->capacity) {
    impl_->ring.pop_front();
    ++impl_->dropped;
  }
  impl_->ring.push_back(std::move(t));
}

std::vector<RequestTimeline> RequestTracker::snapshot() const {
  std::lock_guard lock(impl_->mutex);
  return {impl_->ring.begin(), impl_->ring.end()};
}

uint64_t RequestTracker::recorded() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->recorded;
}

uint64_t RequestTracker::dropped() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->dropped;
}

void RequestTracker::clear() {
  std::lock_guard lock(impl_->mutex);
  impl_->ring.clear();
  impl_->recorded = 0;
  impl_->dropped = 0;
}

bool RequestTracker::write_jsonl(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  for (const RequestTimeline& t : snapshot()) os << timeline_json(t) << "\n";
  os.flush();
  return static_cast<bool>(os);
}

#endif  // PC_OBS_ENABLED

}  // namespace pc::obs
