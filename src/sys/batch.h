// Continuous-batching scheduler: one serving lane, an iteration loop
// serving many in-flight requests that share module KV (paper §3.4). The
// Server (sys/server.h) runs n_workers of them, each on its own thread,
// all serving through the Server's one engine.
//
// The loop repeatedly builds one batched forward step
// (Model::forward_batch) out of whatever every active request needs next —
// a prefill chunk for requests still reading their prompt, one decode token
// for requests already generating — and requests join and leave the batch
// at token granularity (continuous batching, Yu et al. OSDI'22). New
// requests are admitted the iteration after they arrive; finished requests
// free their slot immediately. With BatchConfig::max_batch 1 the lane
// serves one request at a time.
//
// Each request's cache is the sequence cache serve() uses, assembled the
// way serve() assembles it (PromptCacheEngine::assemble, kv/kv_cache.h):
// module rows are borrowed from the store where they live — fp32, q8 or
// q4, never dequantized — or, with EngineConfig::zero_copy off, copied as
// stored. Borrowing is where §3.4's batch-inference memory optimization
// lands:
//
//   * Eight requests importing the same 3 modules hold eight row tables
//     over ONE copy of those modules: the store's.
//   * Uncached prompt tokens and decode tokens land in the request's own
//     fp32 rows, reserved at admission and freed when it completes.
//   * The request's cache holds the payloads it borrows for exactly its
//     lifetime, and pins nothing: the store's LRU evicts as it would under
//     copying lanes, and an evicted payload a request still reads is freed
//     with that request's cache. A failed admission attempt drops its
//     cache before retrying, and a finished request drops it before its
//     completion callback fires.
//
// Determinism contract: batched serving emits bitwise-identical tokens to
// sequential serving (PromptCacheEngine::serve), copy or zero-copy, at
// every KV format: copied and borrowed module rows are the same bytes read
// by the same kernels. Model::forward_batch and forward() are one code
// path, not two kept equal: forward() is a one-sequence step, and a row's
// kernel inputs never depend on the other sequences in its step. Chunked
// prefill only splits rows across iterations (row i's values depend only
// on rows <= i; a mid-prompt chunk asks for no logits, so its rows stop at
// K/V in the final layer), and each request decodes through the same
// Decoder as Model::generate (model/model.h), fed its row of the step's
// logits. Admission collects the uncached stream with serve()'s rule
// (collect_uncached), so the kickoff and the first generated position
// match too.
// tests/test_batch_serve.cpp asserts this for batch sizes 1/2/4/8 with and
// without shared modules, and on random weights at fp32, q8 and q4.
//
// Fault/deadline semantics (docs/INTERNALS.md §9-10): the ServeStatus
// taxonomy, a retry ladder whose backoff never sleeps past the deadline,
// degradation to serve_full_prefill (run synchronously — rare by
// construction, so stalling the loop briefly beats a second prefill path),
// and the deadline-at-completion check. Simulated host-link transfers
// (LinkModel) become a per-request kTransfer phase with a ready-timestamp
// instead of a blocking sleep, so one request's transfer overlaps other
// requests' compute exactly as DMA overlaps kernels. The LinkModel charges
// copied host bytes; borrowed rows count as bytes_zero_copy and move none,
// so a borrowing lane pays only its per-request latency.
//
// Threading: the scheduler is single-threaded — one thread calls admit()
// and step(); completions are handed to the constructor's callback on that
// thread. The engine it serves through is shared with the Server's other
// lanes and its prefetcher (core/engine.h's threading contract).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "core/engine.h"
#include "model/model.h"
#include "obs/metrics.h"
#include "sys/serve_types.h"

namespace pc {

struct BatchConfig {
  int max_batch = 1;      // max concurrently active requests per lane
  int chunk_tokens = 32;  // prefill tokens contributed per iteration
};

// KV footprint of a lane: the bytes its requests in flight own (reserved
// own rows plus copied module rows, KVCache::owned_bytes). Borrowed module
// rows belong to the store and are counted there, never here.
struct BatchKVStats {
  size_t live_bytes = 0;       // owned by the requests in flight now
  size_t peak_live_bytes = 0;  // high-water mark across the run
};

class BatchScheduler {
 public:
  struct Options {
    BatchConfig batch;
    LinkModel link;
    RetryPolicy retry;
    // High bits for Perfetto flow ids (the owning server's instance tag);
    // the low 32 bits are the request id. Matches Server::flow_id.
    uint64_t flow_seed = 0;
  };

  // A request handed over by the frontend (the Server's queue entry).
  struct Request {
    uint64_t id = 0;
    std::string prompt;
    GenerateOptions options;
    double deadline_ms = 0;
    std::chrono::steady_clock::time_point enqueued;
    CancellationToken token;  // armed iff deadline_ms > 0
    // SubmitOptions pass-through (sys/serve_types.h): extra stall folds
    // into the request's kTransfer phase, forced degradation runs the
    // full-prefill fallback at admission, the annotation lands first in
    // the timeline.
    double extra_stall_ms = 0;
    bool force_full_prefill = false;
    std::string annotation;
  };

  // Called once per admitted request, on the scheduler's thread, when its
  // response is final (any status).
  using CompletionFn = std::function<void(ServerResponse&&)>;

  // Serves through `engine`, whose schemas are already loaded, borrowing
  // or copying module rows as its EngineConfig::zero_copy says. The engine
  // must outlive the scheduler.
  BatchScheduler(PromptCacheEngine& engine, Options options,
                 CompletionFn on_complete);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  bool idle() const { return active_.empty(); }

  // Binds, encodes, and assembles the request's cache, then places it in
  // the iteration loop (or completes it immediately: shed past deadline,
  // degraded, failed — a prompt whose positions reach max_pos fails here,
  // before any encode, as in serve()). Transient encode faults retry after
  // retry_backoff_ms, capped at the time left before the deadline.
  void admit(Request request);

  // Runs one batched iteration: gathers every active request's next work
  // item, executes one forward_batch, samples, and completes finished
  // requests (a forward_batch that throws fails that iteration's requests).
  // Returns true while any request remains active. Sleeps briefly
  // (bounded by the earliest transfer-ready time, max 1 ms) when every
  // active request is mid-transfer.
  bool step();

  // Telemetry (single-threaded with admit/step).
  BatchKVStats kv_stats() const;
  uint64_t iterations() const { return iterations_.value(); }
  uint64_t batched_tokens() const { return batch_tokens_.value(); }

 private:
  enum class Phase { kTransfer, kPrefill, kDecode };

  struct Seq {
    Request req;
    ServerResponse resp;
    ServeResult result;
    Phase phase = Phase::kPrefill;
    std::chrono::steady_clock::time_point dequeued;

    // kTransfer: the simulated host-link transfer completes at `ready`.
    std::chrono::steady_clock::time_point transfer_ready;
    double transfer_ms = 0;  // one transfer's duration (re-paid on retry)
    int link_attempts = 0;

    pml::PromptBinding binding;    // for the engine's complete_serve
    std::optional<KVCache> kv;     // set once an admission attempt succeeds
    UncachedStream stream;         // prefilled in chunk_tokens slices
    size_t prefill_done = 0;
    bool prefill_started = false;
    std::chrono::steady_clock::time_point prefill_start;

    // kDecode: serve()'s decode loop over req.options, from
    // stream.gen_start; set when the prefill completes.
    std::optional<Decoder> decoder;
    std::chrono::steady_clock::time_point decode_start;

    bool done = false;  // completion decided; swept after the iteration
    ServeStatus done_status = ServeStatus::kOk;

    explicit Seq(Request r) : req(std::move(r)) {}
  };

  // Synchronous full-prefill fallback: marks the sequence done with
  // kDegraded (or kTimeout/kFailed if the fallback itself fails).
  void degrade(Seq& seq, const std::string& why);

  // Books the final response (from seq->done_status) and invokes
  // on_complete.
  void finish_serve(std::unique_ptr<Seq> seq);

  // retry_backoff_ms for `req`'s attempt, capped at the time left before
  // its deadline: a retry the caller can no longer use is wasted latency.
  double backoff_ms_for(const Request& req, int attempt) const;
  size_t live_bytes() const;
  void refresh_kv_gauges();

  const Model& model_;
  const TextTokenizer& tokenizer_;
  PromptCacheEngine& engine_;
  Options options_;
  CompletionFn on_complete_;

  std::vector<std::unique_ptr<Seq>> active_;

  obs::Counter iterations_;    // pc_batch_iterations_total
  obs::Counter batch_tokens_;  // pc_batch_tokens_total
  obs::Counter admitted_;      // pc_batch_admitted_total
  obs::Gauge active_gauge_;    // pc_batch_active
  obs::Gauge kv_live_;         // pc_batch_kv_live_bytes
  obs::Gauge kv_peak_;         // pc_batch_kv_peak_bytes
  size_t peak_live_bytes_ = 0;
};

}  // namespace pc
