// Continuous-batching scheduler: one serving lane, an iteration loop
// serving many in-flight requests that share module KV (paper §3.4). The
// Server (sys/server.h) runs n_workers of them, each on its own thread with
// its own engine.
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
// module rows are copied as stored, or under EngineConfig::zero_copy
// borrowed from the store where they live — fp32, q8 or q4, never
// dequantized. Borrowing is where §3.4's batch-inference memory
// optimization lands:
//
//   * Eight requests importing the same 3 modules hold eight row tables
//     over ONE copy of those modules: the store's.
//   * Uncached prompt tokens and decode tokens land in the request's own
//     fp32 rows, reserved at admission and freed when it completes.
//   * The borrowed modules stay pinned in the store for exactly the
//     request's lifetime (SequenceKV's ModuleBorrows); a failed admission
//     attempt returns its pins before retrying, and a finished request
//     returns them before its completion callback fires.
//
// Determinism contract: batched serving emits bitwise-identical tokens to
// sequential serving (PromptCacheEngine::serve), copy or zero-copy, at
// every KV format: copied and borrowed module rows are the same bytes read
// by the same kernels. Model::forward_batch keeps every per-row computation
// bitwise equal to forward(), chunked prefill only splits rows across
// iterations (row i's values depend only on rows <= i; a mid-prompt chunk
// asks for no logits, so its rows stop at K/V in the final layer), and the
// decode loop below replays Model::generate's exact sampling order with a
// per-request Rng(options.seed).
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
// thread.
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
    std::vector<std::string> schemas;  // PML loaded at construction
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

  // Serves with `engine`, copying or borrowing module rows as its
  // EngineConfig::zero_copy says. Loads options.schemas into the engine; an
  // injected encode fault during eager encoding is tolerated (modules
  // re-encode lazily).
  BatchScheduler(std::unique_ptr<PromptCacheEngine> engine, Options options,
                 CompletionFn on_complete);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  bool idle() const { return active_.empty(); }

  // Binds, encodes, and assembles the request's cache, then places it in
  // the iteration loop (or completes it immediately: shed past deadline,
  // degraded, failed — a prompt whose positions reach max_pos fails here,
  // before any encode). Transient encode faults retry after
  // retry_backoff_ms, capped at the time left before the deadline.
  void admit(Request request);

  // Runs one batched iteration: gathers every active request's next work
  // item, executes one forward_batch, samples, and completes finished
  // requests (a forward_batch that throws fails that iteration's requests).
  // Returns true while any request remains active. Sleeps briefly
  // (bounded by the earliest transfer-ready time, max 1 ms) when every
  // active request is mid-transfer.
  bool step();

  // Telemetry (single-threaded with admit/step, like the engine's stats).
  PromptCacheEngine& engine() const { return *engine_; }
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
    std::optional<SequenceKV> kv;  // set once an admission attempt succeeds
    UncachedStream stream;  // uncached prompt tokens (incl. kickoff)
    size_t prefill_done = 0;
    bool prefill_started = false;
    std::chrono::steady_clock::time_point prefill_start;

    int gen_start = 0;  // first generated token's position id
    Rng rng;            // replays Model::generate's sampling stream
    TokenId next = 0;   // candidate token awaiting emission checks
    int step_idx = 0;   // Model::generate's `step`
    std::vector<TokenId> gen_tokens;
    FinishReason finish = FinishReason::kLength;
    std::chrono::steady_clock::time_point decode_start;
    // Stable storage for the one-token decode span handed to forward_batch.
    TokenId decode_tok = 0;
    int decode_pos = 0;

    bool done = false;  // completion decided; swept after the iteration
    ServeStatus done_status = ServeStatus::kOk;

    explicit Seq(Request r) : req(std::move(r)), rng(req.options.seed) {}
  };

  // Model::generate's loop head for the candidate in seq.next: emission
  // checks and finish bookkeeping. Returns true when the sequence is done
  // (seq.finish set); false when it needs one forward of seq.next.
  bool advance_decode(Seq& seq);

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
  Options options_;
  CompletionFn on_complete_;

  // Declared before active_: a sequence's borrows return their pins to
  // the engine's store, so the engine must outlive them.
  std::unique_ptr<PromptCacheEngine> engine_;
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
