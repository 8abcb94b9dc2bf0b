// Concurrent serving frontend: a bounded request queue feeding
// ServerConfig::n_workers serving lanes over one shared (const) Model. Each
// lane is a BatchScheduler (sys/batch.h) on its own thread, serving up to
// batch.max_batch requests per forward step; with the default max_batch of
// 1 a lane serves one request at a time. Every lane, and the prefetcher,
// serves through the Server's one PromptCacheEngine, which loads
// ServerConfig::schemas on the constructing thread before any lane starts.
// The engine serves from one SharedModuleStore (see src/core/engine.h), so
// each module is encoded once and held once: the caller's store, or, for
// a Server given none, the one its engine owns as a standalone engine
// (sized by ServerConfig::engine, no disk tier).
//
// Request lifecycle: submit() enqueues (blocking while the queue is at
// capacity — admission control instead of unbounded memory). Lanes admit
// least-loaded first: a lane takes a request only while it holds fewer
// than max_batch and no other lane holds fewer, so requests spread across
// lanes before any lane batches. A lane binds the request, borrows (or,
// with EngineConfig::zero_copy off, copies) its modules' rows, serves it
// through its iteration loop, and records a ServerResponse. drain() blocks
// until every submitted request completed and returns the responses in
// submission order. stats() reads the engine's counters and TTFT
// histogram, sums the lanes' iteration and KV counters, and snapshots the
// store's — exact only while the server is idle (after drain()).
//
// Host-link model. This repo substitutes analytic models for hardware it
// doesn't have (see device_model.h): kernels run fp32 on CPU and device
// behavior is modeled, not executed. LinkModel extends that substitution to
// serving concurrency: each request waits for the time a real host->device
// link would spend moving that request's host-resident module bytes
// (latency + bytes/bandwidth; borrowed rows move none, so a borrowing lane
// pays the latency alone) before its prefill. The wait releases the
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
// Those counters (pc_server_*_total, read back by stats()) are the one
// ledger of outcomes: availability is completed / submitted, and a
// Prometheus consumer derives windows, rates and burn from them.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
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
#include "sys/batch.h"
#include "sys/prefetch.h"
#include "sys/serve_types.h"

namespace pc {

struct ServerConfig {
  int n_workers = 4;             // serving lanes, each a BatchScheduler
  size_t queue_capacity = 64;    // submit() blocks when full
  // The engine's config. Its capacity fields size the store the engine
  // of a Server built without one owns; a caller's store was sized at
  // construction.
  EngineConfig engine;
  std::vector<std::string> schemas;  // PML loaded into the engine at startup
  double default_deadline_ms = 0;    // 0 = no deadline enforcement
  LinkModel link;
  RetryPolicy retry;
  BatchConfig batch;  // per lane: requests in flight, prefill chunk size
  // Async disk-tier prefetch (sys/prefetch.h): a background thread binds
  // each submitted prompt to its module keys and faults spilled
  // payloads back into RAM ahead of admission, overlapping disk reads with
  // in-flight decode. Only meaningful with a store whose disk tier is
  // enabled; otherwise the pipeline idles (prefetch() of resident keys is
  // a recency bump). prefetch_depth is the double-buffer window.
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
  LatencyHistogram engine_ttft;   // the engine's cached-serve TTFT

  // The engine's encode counters.
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

  // The store's snapshot. hit_rate = hits / (hits + misses).
  ModuleStoreStats store;
  double store_hit_rate = 0;
  size_t resident_module_bytes = 0;
  uint64_t single_flight_waits = 0;  // encodes avoided by single-flight
};

class Server {
 public:
  // The engine encodes into and serves from `store`, which must outlive
  // the server. Throws if a schema does not parse or does not fit the
  // model's max_pos; an injected encode fault during the eager encode is
  // tolerated (the modules encode lazily).
  Server(const Model& model, const TextTokenizer& tokenizer,
         SharedModuleStore& store, ServerConfig config);

  // The engine is a standalone one: it owns its store, sized by
  // config.engine's capacity fields, with no disk tier (PC_DISK_DIR is not
  // consulted), so a one-lane Server serves exactly as one engine does.
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

  // Aggregate view. Exact only while idle (between drain() and the next
  // submit): the counters it reads move while requests are in flight.
  ServerStats stats() const;

  // Request-centric telemetry. requests() exposes the bounded ring of
  // per-request timelines (one entry per recorded response, any status);
  // write_request_log() dumps it as JSONL — one timeline_json() object per
  // line, the same shape the PC_REQLOG live sink writes. Both are exact
  // only while idle (after drain()); under -DPC_OBS=OFF they are inert
  // stubs. The span trace and the pc_* counters are process-wide: export
  // them with obs/export.h.
  const obs::RequestTracker& requests() const { return requests_; }
  bool write_request_log(const std::string& path) const {
    return requests_.write_jsonl(path);
  }

  int n_workers() const { return config_.n_workers; }

  // The engine every lane serves through, schemas loaded. Its serving
  // calls may run on any thread (core/engine.h): the shard router pins
  // owned modules through it.
  PromptCacheEngine& engine() { return engine_; }

  // The async prefetch pipeline, or null when ServerConfig::prefetch is
  // off.
  const StorePrefetcher* prefetcher() const { return prefetcher_.get(); }

 private:
  struct Lane {
    std::thread thread;
    std::unique_ptr<BatchScheduler> scheduler;
    int held = 0;  // requests dequeued, not yet recorded (under mutex_)
  };

  void start();
  // Least-loaded admission: lane `index` may take a request while it holds
  // fewer than batch.max_batch and no other lane holds fewer.
  bool may_admit_locked(int index) const;
  void lane_loop(int index);
  // Books a finished response (any status) under mutex_; the caller
  // notifies cv_done_ after releasing the lock.
  void record_locked(ServerResponse&& resp,
                     std::chrono::steady_clock::time_point when);
  // Assembles the RequestTimeline for a finished response and records it.
  // Runs under mutex_ so timelines reconcile exactly with the pc_server_*
  // counters.
  void record_timeline_locked(const ServerResponse& resp);
  // Perfetto flow id for a request: instance-qualified so two servers'
  // flow arcs never share an id within one process-wide trace.
  uint64_t flow_id(uint64_t id) const {
    return (instance_ << 32) | (id & 0xffffffffu);
  }

  // The engine (and the store it owns, for the storeless constructor) is
  // declared before the lanes and the prefetcher, which serve through it,
  // so it outlives both.
  ServerConfig config_;
  PromptCacheEngine engine_;

  // Schedulers are read from stats() only while idle.
  std::vector<std::unique_ptr<Lane>> lanes_;
  // Async prefetch pipeline (ServerConfig::prefetch).
  std::unique_ptr<StorePrefetcher> prefetcher_;

  mutable std::mutex mutex_;
  std::condition_variable cv_not_empty_;
  std::condition_variable cv_not_full_;
  std::condition_variable cv_done_;
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
  // Request-centric telemetry: the timeline ring and the submit timestamps
  // of in-flight ids (consumed at record time). Both mutated under mutex_
  // (RequestTracker also locks internally; the outer lock just keeps it in
  // step with the counters).
  obs::RequestTracker requests_;
  std::map<uint64_t, uint64_t> submit_ns_;
  // Process-unique instance number: stamps timelines (request ids restart
  // at 0 per server but PC_REQLOG spans the process) and the high bits of
  // Perfetto flow ids so arcs from different servers never chain.
  const uint64_t instance_;
  uint64_t done_ = 0;        // responses recorded, any status (drain gate)
  double service_ewma_ms_ = 0;  // served-request EWMA; drives shedding
  bool stop_ = false;
  bool clock_started_ = false;
  std::chrono::steady_clock::time_point first_submit_;
  std::chrono::steady_clock::time_point last_complete_;
};

}  // namespace pc
