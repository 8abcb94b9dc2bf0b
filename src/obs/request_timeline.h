// Request-centric telemetry: one RequestTimeline record per served request,
// assembled by the serving frontend (sys/server.h) for every request its
// lanes record and retained in a bounded per-server ring
// (RequestTracker). This is the per-request counterpart to the aggregate
// pc_* metric families: where pc_server_ttft_seconds says "p99 was 40 ms",
// a timeline says "request 4711 spent 31 ms queued, hit 2 of 3 modules,
// moved 1.2 MB over the host link, and missed its deadline".
//
// The paper's headline claim is per-request (Prompt Cache cuts TTFT up to
// 8x GPU / 60x CPU), so the record splits TTFT into the same components the
// analytic model (sys/device_model.h) predicts: retrieve (module memcpy),
// transfer (host-link stall), and uncached prefill — plus the queueing and
// encode time the end-to-end number includes on top.
//
// Layering: this header sits in the obs layer (below pc_common), so it
// cannot see ServeStatus. RequestOutcome mirrors that taxonomy value for
// value; the server translates at record time.
//
// Cost model follows obs/trace.h: a process-wide runtime toggle
// (request_telemetry_enabled(), default ON) gates assembly; building with
// -DPC_OBS=OFF compiles the tracker to a stub that records nothing.
//
// PC_REQLOG: setting the environment variable (or set_request_log_path())
// to a file path streams every recorded timeline as one JSON object per
// line (JSONL) — the format tools/trace_report --requests reads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#ifndef PC_OBS_ENABLED
#define PC_OBS_ENABLED 1
#endif

namespace pc::obs {

// True when the obs layer is compiled in; lets call sites guard timeline
// assembly with `if constexpr` instead of #ifdef soup.
inline constexpr bool kEnabled = PC_OBS_ENABLED != 0;

// Terminal state of a request. Mirrors pc::ServeStatus (sys/serve_types.h)
// value for value; kPending exists only so a default-constructed timeline
// is visibly incomplete (a recorded one never is).
enum class RequestOutcome : int {
  kOk = 0,
  kDegraded,
  kTimeout,
  kShed,
  kFailed,
  kPending,
};

const char* outcome_name(RequestOutcome o);

// One request's lifecycle, timestamps on the obs epoch clock (obs/clock.h)
// and durations in milliseconds. Phase durations are disjoint components
// of the end-to-end TTFT: for a served request,
//   ttft_ms == queue_ms + transfer_ms + retrieve_ms + prefill_ms
// (encode_ms is offline module encoding triggered by this request and is
// charged separately, matching the paper's accounting).
struct RequestTimeline {
  uint64_t id = 0;
  // Process-unique server instance number: request ids restart at 0 per
  // Server, but PC_REQLOG is process-wide, so (server, id) — not id alone —
  // identifies a request in a log that spans several servers (bench_server
  // runs a sweep of them). trace_report --requests keys on the pair.
  uint64_t server = 0;
  int lane = -1;  // serving lane index; -1 = shed at submit

  // Lifecycle timestamps (ns since the obs epoch; 0 = never reached).
  uint64_t submit_ns = 0;
  uint64_t admit_ns = 0;        // dequeued into a lane
  uint64_t first_token_ns = 0;  // submit_ns + ttft (served requests only)
  uint64_t done_ns = 0;         // terminal status recorded

  // Phase durations (ms).
  double queue_ms = 0;     // submit -> dequeue
  double encode_ms = 0;    // offline module encoding triggered by this request
  double retrieve_ms = 0;  // module rows into the cache (copy or borrow)
  double transfer_ms = 0;  // simulated host-link stall (LinkModel)
  double prefill_ms = 0;   // forward over uncached tokens + first sample
  double decode_ms = 0;    // autoregressive steps after the first token
  double ttft_ms = 0;      // end-to-end: queue + transfer + engine TTFT
  double service_ms = 0;   // dequeue -> done

  // Cache-efficacy attribution.
  int cached_tokens = 0;
  int uncached_tokens = 0;
  int modules = 0;         // modules whose states were reused (emitted)
  int module_misses = 0;   // modules/scaffolds this request had to encode
  int prefill_chunks = 0;  // chunked-prefill iterations
  uint64_t bytes_from_host = 0;
  uint64_t bytes_from_device = 0;
  uint64_t bytes_zero_copy = 0;
  std::string kv_format;  // "fp32" | "q8" | "q4"

  RequestOutcome outcome = RequestOutcome::kPending;
  int retries = 0;
  bool deadline_met = true;
  std::string detail;  // human-readable cause for non-kOk outcomes
  // Free-form lifecycle annotations in occurrence order ("fault_stall
  // 20ms", "retry 1: injected fault ...", "degraded: ...").
  std::vector<std::string> annotations;

  int module_hits() const { return modules - module_misses; }
};

// One timeline as a single-line JSON object (no trailing newline) — the
// PC_REQLOG / write_jsonl line format.
std::string timeline_json(const RequestTimeline& t);

#if PC_OBS_ENABLED

// Process-wide runtime gate over timeline assembly (one relaxed atomic
// load). Defaults to ON; PC_REQTL=0 in the environment starts it OFF.
bool request_telemetry_enabled();
void set_request_telemetry(bool enabled);

// Streaming JSONL sink. `path` == "" closes the sink (flushing it). The
// first recorded timeline consults the PC_REQLOG environment variable if
// no path was set explicitly. Thread-safe.
void set_request_log_path(const std::string& path);

// Bounded ring of completed request timelines. One per Server; record()
// is called under the server's completion lock, so the tracker's own mutex
// is uncontended. When the ring is full the oldest timeline is dropped
// (counted, never a stall). Every record() also feeds the PC_REQLOG sink.
class RequestTracker {
 public:
  explicit RequestTracker(size_t capacity = 8192);

  void record(RequestTimeline&& t);

  // Retained timelines, oldest first.
  std::vector<RequestTimeline> snapshot() const;

  uint64_t recorded() const;  // total ever recorded
  uint64_t dropped() const;   // evicted by ring wrap
  void clear();

  // Writes the retained timelines as JSONL. Returns false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

#else  // !PC_OBS_ENABLED — request telemetry compiles to nothing.

inline bool request_telemetry_enabled() { return false; }
inline void set_request_telemetry(bool) {}
inline void set_request_log_path(const std::string&) {}

class RequestTracker {
 public:
  explicit RequestTracker(size_t = 0) {}
  void record(RequestTimeline&&) {}
  std::vector<RequestTimeline> snapshot() const { return {}; }
  uint64_t recorded() const { return 0; }
  uint64_t dropped() const { return 0; }
  void clear() {}
  bool write_jsonl(const std::string&) const { return false; }
};

#endif  // PC_OBS_ENABLED

}  // namespace pc::obs
