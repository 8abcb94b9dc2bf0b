// Concurrent serving frontend: a bounded request queue feeding
// ServerConfig::n_workers serving lanes over one shared (const) Model. Each
// lane is a BatchScheduler (sys/batch.h) with its own PromptCacheEngine and
// its own thread, serving up to batch.max_batch requests per forward step;
// with the default max_batch of 1 a lane serves one request at a time. Two
// store configurations (see src/core/engine.h):
//
//   * shared:  all lanes route through one SharedModuleStore — each module
//     is encoded once fleet-wide (single-flight) and held once.
//   * private: each lane's engine owns a one-shard store sized by
//     ServerConfig::engine — the scale-out baseline the shared store is
//     measured against.
//
// Request lifecycle: submit() enqueues (blocking while the queue is at
// capacity — admission control instead of unbounded memory). Lanes admit
// least-loaded first: a lane takes a request only while it holds fewer
// than max_batch and no other lane holds fewer, so requests spread across
// lanes before any lane batches. A lane binds the request, copies or
// borrows its modules' rows as EngineConfig::zero_copy says, serves it
// through its iteration loop, and records a ServerResponse. drain() blocks
// until every submitted request completed and returns the responses in
// submission order. stats() aggregates per-lane engine counters and
// histograms (LatencyHistogram::merge) with the store's — call it only
// while the server is idle (after drain()).
//
// Host-link model. This repo substitutes analytic models for hardware it
// doesn't have (see device_model.h): kernels run fp32 on CPU and device
// behavior is modeled, not executed. LinkModel extends that substitution to
// serving concurrency: each request waits for the time a real host->device
// link would spend moving that request's host-resident module bytes
// (latency + bytes/bandwidth) before its prefill. The wait releases the
// core, so stalls overlap with other requests' compute exactly as DMA
// transfers overlap with kernels — which is what makes lanes scale even
// when the compute itself is serialized on few cores. With LinkModel{}
// (all zeros) no stall is applied.
//
// Fault tolerance (docs/INTERNALS.md §9). Every response carries a typed
// ServeStatus instead of a stringly error:
//
//   kOk        served from the cache path.
//   kDegraded  the cache layer misbehaved (encode fault, corrupt record,
//              thrash, dead link) and retries were exhausted; the request
//              was re-served by a full blocked prefill
//              (PromptCacheEngine::serve_full_prefill) — bitwise-identical
//              tokens, degraded TTFT. Cached attention states are a latency
//              optimization, never a correctness requirement.
//   kTimeout   the request's deadline expired mid-service; its cancellation
//              token aborted encode/decode and the partial work was
//              discarded.
//   kShed      the request never reached an engine: its deadline expired
//              while queued, or submit() predicted (from the service-time
//              EWMA) that the backlog made the deadline unmeetable.
//   kFailed    serve threw a non-transient, non-degradable error (for
//              one, a prompt whose positions reach max_pos).
//
// Transient faults (pc::TransientError) are retried with exponential
// backoff + deterministic jitter, never waiting past the deadline, up to
// RetryPolicy::max_retries before degrading. Accounting is exact: every submitted id is eventually recorded
// with exactly one status, and
//   completed (ok+degraded) + shed + timeouts + failed == submitted.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/histogram.h"
#include "core/engine.h"
#include "core/shared_module_store.h"
#include "model/model.h"
#include "obs/metrics.h"
#include "obs/request_timeline.h"
#include "obs/sampler.h"
#include "sys/batch.h"
#include "sys/device_model.h"
#include "sys/prefetch.h"
#include "sys/serve_types.h"

namespace pc {

struct ServerConfig {
  int n_workers = 4;             // serving lanes, each a BatchScheduler
  size_t queue_capacity = 64;    // submit() blocks when full
  EngineConfig engine;           // per-lane engine config
  std::vector<std::string> schemas;  // PML loaded by every lane at startup
  double default_deadline_ms = 0;    // 0 = no deadline enforcement
  LinkModel link;
  RetryPolicy retry;
  BatchConfig batch;  // per lane: requests in flight, prefill chunk size
  // Request-centric telemetry (obs/request_timeline.h). request_ring bounds
  // the in-memory timeline buffer (oldest evicted first). When ttft_profile
  // is set, every cached kOk serve is compared against device_model's
  // estimate_cached_ttft(*ttft_profile, ttft_spec, ...) and the
  // measured/predicted ratio lands in the pc_ttft_model_drift histogram —
  // drift near 1.0 means the analytic model still tracks reality. slo
  // configures the rolling availability/deadline window (obs/sampler.h).
  size_t request_ring = 8192;
  const HardwareProfile* ttft_profile = nullptr;  // null = no drift tracking
  ModelSpec ttft_spec;
  obs::SloConfig slo;
  // Async disk-tier prefetch (sys/prefetch.h): a background binder thread
  // maps each submitted prompt to its module keys and faults spilled
  // payloads back into RAM ahead of admission, overlapping disk reads with
  // in-flight decode. Only meaningful with a shared store whose disk tier
  // is enabled; otherwise the pipeline idles (prefetch() of resident keys
  // is a recency bump). prefetch_depth is the double-buffer window.
  bool prefetch = false;
  size_t prefetch_depth = 2;
  // Completion hook, invoked under the server's lock for every recorded
  // response (any status) right before it is buffered — the shard router
  // uses it to observe completions without polling drain(). The callback
  // must be fast and must NOT call back into this Server (submit/drain/
  // stats deadlock on the held lock); enqueue and return.
  std::function<void(const ServerResponse&)> on_record;
  // When false, responses are handed to on_record only and never buffered
  // for drain() — the mode for a fronting router that owns the response
  // lifecycle. drain() then returns empty once all requests completed.
  bool retain_responses = true;
};

struct ServerStats {
  int n_workers = 0;  // lanes
  bool shared_store = false;
  uint64_t submitted = 0;
  uint64_t completed = 0;  // served requests: ok + degraded
  uint64_t degraded = 0;   // full-prefill fallbacks (subset of completed)
  uint64_t shed = 0;
  uint64_t timeouts = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;    // transient-fault retries across all requests
  uint64_t deadline_misses = 0;

  double wall_ms = 0;        // first submit -> last completion
  double throughput_rps = 0;  // completed / wall

  LatencyHistogram ttft;          // end-to-end, kOk serves
  LatencyHistogram degraded_ttft; // end-to-end, kDegraded serves
  LatencyHistogram engine_ttft;   // merged per-engine cached-serve TTFT

  // Summed per-lane engine counters.
  uint64_t modules_encoded = 0;
  uint64_t scaffolds_encoded = 0;
  uint64_t thrash_reencodes = 0;

  // Iteration-loop and KV telemetry, summed over lanes. kv_live_bytes
  // counts what the requests in flight own (own rows and copied module
  // rows; borrowed module rows are counted by the store), so it reads 0
  // once drained; kv_peak_bytes sums the lanes' high-water marks.
  uint64_t batch_iterations = 0;
  uint64_t batch_tokens = 0;
  size_t kv_live_bytes = 0;
  size_t kv_peak_bytes = 0;

  // Store-level: the shared store's snapshot, or the sum over private
  // stores. hit_rate = hits / (hits + misses).
  ModuleStoreStats store;
  double store_hit_rate = 0;
  size_t resident_module_bytes = 0;
  // Bytes N private lanes would hold that the shared store holds once:
  // resident_bytes * (n_workers - 1). Zero in private mode (nothing is
  // deduplicated — the duplication is real and shows up in
  // resident_module_bytes instead).
  size_t bytes_deduplicated = 0;
  uint64_t single_flight_waits = 0;  // encodes avoided by single-flight
};

class Server {
 public:
  // Shared-store serving: all lanes encode into / serve from
  // `shared_store`, which must outlive the server.
  Server(const Model& model, const TextTokenizer& tokenizer,
         SharedModuleStore& shared_store, ServerConfig config);

  // Private-store serving: each lane's engine owns a one-shard store sized
  // by config.engine (the N-times-everything baseline).
  Server(const Model& model, const TextTokenizer& tokenizer,
         ServerConfig config);

  // Joins the lanes (requests still queued are served first, as stop()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Enqueues a request; blocks while the queue is at capacity. Returns the
  // request id (== submission index). deadline_ms 0 uses the config default.
  // Throws pc::Error if the server is (or becomes, while blocked) stopped.
  // With a deadline, the request may be shed immediately (recorded as
  // kShed, id still returned) when the backlog makes it unmeetable.
  uint64_t submit(std::string prompt, const GenerateOptions& options = {},
                  double deadline_ms = 0);

  // Extended submit (sys/serve_types.h): per-request extra link stall,
  // forced full-prefill degradation, and a timeline annotation, on top of
  // the deadline. The plain overload forwards here with defaults.
  uint64_t submit(std::string prompt, const GenerateOptions& options,
                  const SubmitOptions& submit_options);

  // Blocks until every submitted request has been recorded (served, shed,
  // timed out, or failed), then returns the responses sorted by id (and
  // clears the internal buffer).
  std::vector<ServerResponse> drain();

  // Stops accepting work and joins the lanes after the queue empties.
  // Idempotent; the destructor calls it.
  void stop();

  // Aggregate view. Only valid while idle (between drain() and the next
  // submit) — per-engine counters are unsynchronized during serving.
  ServerStats stats() const;

  // Observability exports (obs/export.h): the process-wide Prometheus text
  // dump (engine + store + server families under the pc_* naming scheme),
  // and the collected span trace as Perfetto JSON. Call while idle (after
  // drain()) for exact traces.
  std::string metrics_prometheus() const;
  bool write_trace_json(const std::string& path) const;

  // Request-centric telemetry. requests() exposes the bounded ring of
  // per-request timelines (one entry per recorded response, any status);
  // write_request_log() dumps it as JSONL — one timeline_json() object per
  // line, the same shape the PC_REQLOG live sink writes. slo_snapshot()
  // reads the rolling availability/deadline window fed by every recorded
  // response. All are exact only while idle (after drain()); under
  // -DPC_OBS=OFF they are inert stubs.
  const obs::RequestTracker& requests() const { return requests_; }
  bool write_request_log(const std::string& path) const {
    return requests_.write_jsonl(path);
  }
  obs::SloTracker::Snapshot slo_snapshot() const { return slo_.snapshot(); }
  bool write_slo_json(const std::string& path) const {
    return slo_.write_json(path);
  }

  int n_workers() const { return config_.n_workers; }

  // The async prefetch pipeline, or null (ServerConfig::prefetch off, or
  // private stores — there is no disk tier to fault from).
  const StorePrefetcher* prefetcher() const { return prefetcher_.get(); }

 private:
  struct Lane {
    std::thread thread;
    std::unique_ptr<BatchScheduler> scheduler;  // built on `thread`
    int held = 0;  // requests dequeued, not yet recorded (under mutex_)
  };

  void start();
  // The engine a lane serves with: over the shared store, or owning its
  // own.
  std::unique_ptr<PromptCacheEngine> make_engine() const;
  // Least-loaded admission: lane `index` may take a request while it holds
  // fewer than batch.max_batch and no other lane holds fewer.
  bool may_admit_locked(int index) const;
  void lane_loop(int index);
  // Books a finished response (any status) under mutex_; the caller
  // notifies cv_done_ after releasing the lock.
  void record_locked(ServerResponse&& resp,
                     std::chrono::steady_clock::time_point when);
  // Assembles the RequestTimeline for a finished response and records it
  // (plus the TTFT-drift sample when ttft_profile is set). Runs under
  // mutex_ so timelines reconcile exactly with the pc_server_* counters.
  void record_timeline_locked(const ServerResponse& resp);
  // Perfetto flow id for a request: instance-qualified so two servers'
  // flow arcs never share an id within one process-wide trace.
  uint64_t flow_id(uint64_t id) const {
    return (instance_ << 32) | (id & 0xffffffffu);
  }

  const Model& model_;
  const TextTokenizer& tokenizer_;
  SharedModuleStore* shared_ = nullptr;  // null => private stores
  ServerConfig config_;

  // Schedulers are read from stats() only while idle.
  std::vector<std::unique_ptr<Lane>> lanes_;
  // Async prefetch pipeline (ServerConfig::prefetch); shared store only.
  std::unique_ptr<StorePrefetcher> prefetcher_;

  mutable std::mutex mutex_;
  std::condition_variable cv_not_empty_;
  std::condition_variable cv_not_full_;
  std::condition_variable cv_done_;
  std::condition_variable cv_ready_;
  std::deque<BatchScheduler::Request> queue_;
  std::vector<ServerResponse> responses_;
  // Registry cells (pc_server_*). The cells are atomic, but every mutation
  // happens under mutex_, so reads under the lock (drain's completed ==
  // submitted predicate) are exact.
  obs::Counter submitted_;         // pc_server_submitted_total
  obs::Counter completed_;         // pc_server_completed_total (ok+degraded)
  obs::Counter degraded_;          // pc_server_degraded_total
  obs::Counter shed_;              // pc_server_shed_total
  obs::Counter timeouts_;          // pc_server_timeouts_total
  obs::Counter failed_;            // pc_server_failed_total
  obs::Counter retries_;           // pc_server_retries_total
  obs::Counter deadline_misses_;   // pc_server_deadline_misses_total
  obs::Gauge queue_depth_;         // pc_server_queue_depth
  obs::Histogram e2e_ttft_;        // pc_server_ttft_seconds; survives drain()
  obs::Histogram degraded_ttft_;   // pc_server_ttft_degraded_seconds
  obs::Histogram ttft_drift_;      // pc_ttft_model_drift (measured/predicted)
  // Request-centric telemetry: the timeline ring, the rolling SLO window,
  // and the submit timestamps of in-flight ids (consumed at record time).
  // All mutated under mutex_ (RequestTracker/SloTracker also lock
  // internally; the outer lock just keeps them in step with the counters).
  obs::RequestTracker requests_;
  obs::SloTracker slo_;
  std::map<uint64_t, uint64_t> submit_ns_;
  // Process-unique instance number: stamps timelines (request ids restart
  // at 0 per server but PC_REQLOG spans the process) and the high bits of
  // Perfetto flow ids so arcs from different servers never chain.
  const uint64_t instance_;
  uint64_t done_ = 0;        // responses recorded, any status (drain gate)
  double service_ewma_ms_ = 0;  // served-request EWMA; drives shedding
  int lanes_ready_ = 0;
  std::exception_ptr lane_error_;  // the first lane startup failure
  bool stop_ = false;
  bool clock_started_ = false;
  std::chrono::steady_clock::time_point first_submit_;
  std::chrono::steady_clock::time_point last_complete_;
};

}  // namespace pc
