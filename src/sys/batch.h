// Continuous-batching scheduler: one iteration loop serving many in-flight
// requests that share module KV by borrowing it in place (paper §3.4).
//
// Instead of a worker pool running one request per thread (sys/server.h's
// default mode), a single loop repeatedly builds one batched forward step
// (Model::forward_batch) out of whatever every active request needs next —
// a prefill chunk for requests still reading their prompt, one decode token
// for requests already generating — and requests join and leave the batch
// at token granularity (continuous batching, Yu et al. OSDI'22). New
// requests are admitted the iteration after they arrive; finished requests
// free their slot immediately.
//
// The KV layer is where §3.4's batch-inference memory optimization lands.
// Each request's cache is the zero-copy view serve() uses
// (PromptCacheEngine::assemble_borrowed, kv/kv_view.h):
//
//   * Module rows are borrowed from the store where they live — fp32, q8 or
//     q4, never copied or dequantized. Eight requests importing the same 3
//     modules hold eight pointer tables over ONE copy of those modules:
//     the store's.
//   * Uncached prompt tokens and decode tokens land in the request's owned
//     fp32 tail, sized at admission and freed when it completes.
//   * The borrowed modules stay pinned in the store for exactly the
//     request's lifetime (BorrowedKV's ModuleBorrows); a failed admission
//     attempt returns its pins before retrying, and a finished request
//     returns them before its completion callback fires.
//
// Determinism contract: batched serving emits bitwise-identical tokens to
// sequential zero-copy serving (EngineConfig::zero_copy) at every KV
// format, and to the copy path at fp32 (at q8/q4 the copy path dequantizes
// rows instead, which can flip near-tied tokens). Model::forward_batch
// keeps every per-row computation bitwise equal to forward(), chunked
// prefill only splits rows across iterations (row i's values depend only
// on rows <= i; a mid-prompt chunk asks for no logits, so its rows stop at
// K/V in the final layer), and the decode loop below replays
// Model::generate_impl's exact sampling order with a per-request
// Rng(options.seed).
// tests/test_batch_serve.cpp asserts this for batch sizes 1/2/4/8 with and
// without shared modules, and on random weights at fp32, q8 and q4.
//
// Fault/deadline semantics mirror the worker pool (docs/INTERNALS.md §9-10):
// same ServeStatus taxonomy, same retry/degrade ladder (degradation runs
// serve_full_prefill synchronously — rare by construction, so stalling the
// loop briefly beats duplicating the blocked-prefill path), same
// deadline-at-completion check. Simulated host-link transfers (LinkModel)
// become a per-request kTransfer phase with a ready-timestamp instead of a
// blocking sleep, so one request's transfer overlaps other requests'
// compute exactly as DMA overlaps kernels.
//
// Host-link accounting: borrowed rows count as bytes_zero_copy, as in
// zero-copy serving, so the LinkModel's bandwidth term charges no module
// bytes here; its per-request latency still applies.
//
// Threading: the scheduler is single-threaded — one thread calls admit()
// and step(); completions are handed to the constructor's callback on that
// thread. sys/server.h wraps it in a queue + dedicated batch thread.
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
#include "common/histogram.h"
#include "core/engine.h"
#include "model/model.h"
#include "obs/metrics.h"
#include "sys/serve_types.h"

namespace pc {

struct BatchConfig {
  int max_batch = 8;      // max concurrently active requests
  int chunk_tokens = 32;  // prefill tokens contributed per iteration
};

// KV footprint of the batch path: the owned tails (reserved bytes) of the
// requests in flight. Module rows are borrowed from the store and counted
// there, never here.
struct BatchKVStats {
  size_t live_bytes = 0;       // tails of the requests in flight right now
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

  // A request handed over by the frontend (mirrors Server's queue item).
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

  // Serves with `engine`, whose precision must be kFp32, kQ8, or kQ4: fp32
  // module rows are read in place by the gathered attention kernel;
  // quantized module rows stay quantized and are scored in the integer
  // domain (attn_fused_q8_gather / attn_fused_q4_gather). fp16 has no
  // in-place kernel. Loads options.schemas into the engine; an injected
  // encode fault during eager encoding is tolerated (modules re-encode
  // lazily).
  BatchScheduler(std::unique_ptr<PromptCacheEngine> engine, Options options,
                 CompletionFn on_complete);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  bool has_capacity() const {
    return static_cast<int>(active_.size()) < options_.batch.max_batch;
  }
  bool idle() const { return active_.empty(); }
  int active_requests() const { return static_cast<int>(active_.size()); }

  // Binds, encodes, and assembles the request's borrowed view, then places it
  // in the iteration loop (or completes it immediately: shed past deadline,
  // degraded, failed). Transient encode faults retry with the same backoff
  // ladder as the worker pool.
  void admit(Request request);

  // Runs one batched iteration: gathers every active request's next work
  // item, executes one forward_batch, samples, and completes finished
  // requests. Returns true while any request remains active. Sleeps briefly
  // (bounded by the earliest transfer-ready time, max 1 ms) when every
  // active request is mid-transfer.
  bool step();

  // Telemetry (single-threaded with admit/step, like the engine's stats).
  PromptCacheEngine& engine() const { return *engine_; }
  BatchKVStats kv_stats() const;
  uint64_t iterations() const { return iterations_.value(); }
  uint64_t batched_tokens() const { return batch_tokens_.value(); }
  // Engine-side TTFT (retrieve + prefill-to-first-token) of batch-served
  // requests; merge into fleet percentiles like engine histograms.
  LatencyHistogram ttft_histogram() const { return ttft_.snapshot(); }

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

    std::optional<BorrowedKV> kv;  // set once an admission attempt succeeds
    UncachedStream stream;  // uncached prompt tokens (incl. kickoff)
    size_t prefill_done = 0;
    bool prefill_started = false;
    std::chrono::steady_clock::time_point prefill_start;

    int gen_start = 0;  // first generated token's position id
    Rng rng;            // replays generate_impl's sampling stream
    TokenId next = 0;   // candidate token awaiting emission checks
    int step_idx = 0;   // generate_impl's `step`
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

  // generate_impl's loop head for the candidate in seq.next: emission
  // checks and finish bookkeeping. Returns true when the sequence is done
  // (seq.finish set); false when it needs one forward of seq.next.
  bool advance_decode(Seq& seq);

  // Synchronous full-prefill fallback (mirrors the worker's degrade()):
  // marks the sequence done with kDegraded (or kTimeout/kFailed if the
  // fallback itself fails).
  void degrade(Seq& seq, const std::string& why);

  // Books the final response (from seq->done_status) and invokes
  // on_complete.
  void finish_serve(std::unique_ptr<Seq> seq);

  double backoff_ms_for(uint64_t id, int attempt) const;
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
  obs::Histogram ttft_;        // pc_batch_ttft_engine_seconds
  size_t peak_live_bytes_ = 0;
};

}  // namespace pc
