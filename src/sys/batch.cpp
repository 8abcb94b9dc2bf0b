#include "sys/batch.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/request_timeline.h"
#include "obs/trace.h"
#include "sys/fault.h"

namespace pc {

namespace {

std::chrono::steady_clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

BatchScheduler::BatchScheduler(PromptCacheEngine& engine, Options options,
                               CompletionFn on_complete)
    : model_(engine.model()),
      tokenizer_(engine.tokenizer()),
      engine_(engine),
      options_(std::move(options)),
      on_complete_(std::move(on_complete)) {
  PC_CHECK_MSG(options_.batch.max_batch > 0, "BatchConfig::max_batch must be > 0");
  PC_CHECK_MSG(options_.batch.chunk_tokens > 0,
               "BatchConfig::chunk_tokens must be > 0");
  PC_CHECK_MSG(on_complete_ != nullptr,
               "BatchScheduler needs a completion callback");
  auto& reg = obs::MetricsRegistry::global();
  iterations_ = reg.counter("pc_batch_iterations_total",
                            "batched forward iterations executed");
  batch_tokens_ = reg.counter("pc_batch_tokens_total",
                              "tokens processed by batched iterations");
  admitted_ = reg.counter("pc_batch_admitted_total",
                          "requests admitted into the batch loop");
  active_gauge_ = reg.gauge("pc_batch_active", "requests in the batch loop");
  kv_live_ = reg.gauge("pc_batch_kv_live_bytes",
                       "owned KV bytes of the requests in flight");
  kv_peak_ = reg.gauge("pc_batch_kv_peak_bytes",
                       "owned KV bytes high-water mark");
}

BatchScheduler::~BatchScheduler() = default;

double BatchScheduler::backoff_ms_for(const Request& req, int attempt) const {
  const double ms = retry_backoff_ms(options_.retry, req.id, attempt);
  if (req.deadline_ms <= 0) return ms;
  const double left_ms =
      req.deadline_ms -
      ms_between(req.enqueued, std::chrono::steady_clock::now());
  return std::min(ms, std::max(0.0, left_ms));
}

void BatchScheduler::degrade(Seq& seq, const std::string& why) {
  seq.kv.reset();  // full prefill reads no module: drop the cache now
  if (obs::request_telemetry_enabled()) {
    seq.resp.annotations.push_back("degraded: " + why);
  }
  try {
    PC_SPAN("serve_degraded", {"request", static_cast<int64_t>(seq.req.id)});
    seq.result = engine_.serve_full_prefill(seq.req.prompt, seq.req.options);
    seq.done_status = ServeStatus::kDegraded;
    seq.resp.detail = why;
  } catch (const CancelledError& e) {
    seq.done_status = ServeStatus::kTimeout;
    seq.resp.detail = e.what();
  } catch (const std::exception& e) {
    seq.done_status = ServeStatus::kFailed;
    seq.resp.detail = e.what();
  }
  seq.done = true;
}

void BatchScheduler::finish_serve(std::unique_ptr<Seq> seq) {
  const auto done = std::chrono::steady_clock::now();
  ServeStatus status = seq->done_status;
  // The cache path's serve finished: the engine books it as serve() would.
  if (status == ServeStatus::kOk) {
    engine_.complete_serve(seq->binding, seq->result.ttft);
  }
  ServerResponse resp = std::move(seq->resp);
  resp.service_ms = ms_between(seq->dequeued, done);
  // Deadline enforcement at completion: a serve that finished past its
  // deadline is a timeout even if no cancellation point fired — the caller
  // is gone. This keeps deadline_met consistent with the status:
  // is_served(status) implies deadline_met.
  if (is_served(status) && seq->req.token.expired()) {
    status = ServeStatus::kTimeout;
    resp.detail = "deadline expired during service";
  }
  resp.deadline_met = seq->req.deadline_ms <= 0 || !seq->req.token.expired();
  if (is_served(status)) {
    resp.result = std::move(seq->result);
    resp.ttft_ms = resp.queue_ms + resp.stall_ms + resp.result.ttft.total_ms();
  } else {
    resp.result = ServeResult{};
  }
  resp.status = status;
  // Release the sequence's cache (its own rows and the payloads it
  // borrows) and settle the KV gauges BEFORE the completion callback fires.
  // The callback is what lets drain() return, so any gauge write after it
  // races a caller that reads stats() the moment drain() wakes.
  seq.reset();
  refresh_kv_gauges();
  on_complete_(std::move(resp));
}

void BatchScheduler::admit(Request request) {
  const auto dequeued = std::chrono::steady_clock::now();
  admitted_.inc();
  auto seq = std::make_unique<Seq>(std::move(request));
  seq->dequeued = dequeued;
  seq->resp.id = seq->req.id;
  seq->resp.queue_ms = ms_between(seq->req.enqueued, dequeued);

  // Deadline blown while queued: shed before any service work.
  if (seq->req.token.expired()) {
    ServerResponse resp = std::move(seq->resp);
    resp.status = ServeStatus::kShed;
    resp.detail = "shed at dequeue: deadline expired while queued";
    resp.deadline_met = false;
    resp.service_ms = 0;
    on_complete_(std::move(resp));
    return;
  }

  PC_SPAN_NAMED(admit_span, "batch_admit",
                {"request", static_cast<int64_t>(seq->req.id)},
                {"queue_us", static_cast<int64_t>(seq->resp.queue_ms * 1e3)});
  PC_FLOW_END("request", options_.flow_seed | (seq->req.id & 0xffffffffu));

  const bool reqtl = obs::request_telemetry_enabled();
  // Routing / failover provenance from the submitter lands first in the
  // annotation stream, before any fault notes.
  if (reqtl && !seq->req.annotation.empty()) {
    seq->resp.annotations.push_back(seq->req.annotation);
  }
  FaultInjector& faults = FaultInjector::global();
  // Injected straggler: the lane freezes before admission.
  if (faults.should_fail(FaultPoint::kStall)) {
    const double stall = faults.stall_ms(FaultPoint::kStall);
    PC_SPAN("fault_stall", {"ms", static_cast<int64_t>(stall)});
    if (reqtl) {
      seq->resp.annotations.push_back("fault_stall " + std::to_string(stall) +
                                      "ms");
    }
    std::this_thread::sleep_for(from_ms(stall));
  }

  seq->req.options.cancel = seq->req.token;

  if (seq->req.force_full_prefill) {
    // The submitter decided the cache path cannot serve this request
    // (shard router: every replica holding its modules is down) — go
    // straight to the bitwise-identical full-prefill fallback.
    degrade(*seq, seq->req.annotation.empty() ? "forced full prefill"
                                              : seq->req.annotation);
    finish_serve(std::move(seq));
    return;
  }

  for (int attempt = 0;; ++attempt) {
    try {
      // Reset per-attempt state: a failed attempt drops its cache before
      // the retry assembles a new one.
      seq->kv.reset();
      seq->result = ServeResult{};
      pml::PromptBinding binding = [&] {
        PC_SPAN("tokenize_bind");
        return engine_.bind(seq->req.prompt);
      }();
      // A prompt that runs past the position space fails here, as in
      // serve(), rather than inside a step other requests share.
      seq->stream = collect_uncached(binding, model_.config().max_pos);
      // The request's module misses are the encodes its own calls run,
      // summed over its attempts.
      seq->result.encode_ms = engine_.ensure_encoded(
          binding, seq->req.options.cancel, &seq->resp.module_misses);
      seq->kv = engine_.assemble(binding, seq->req.options.max_new_tokens,
                                 &seq->result.ttft, &seq->resp.module_misses);
      seq->binding = std::move(binding);
      break;
    } catch (const CancelledError& e) {
      seq->done_status = ServeStatus::kTimeout;
      seq->resp.detail = e.what();
      seq->done = true;
      finish_serve(std::move(seq));
      return;
    } catch (const TransientError& e) {
      // Retries stop the moment the deadline expires: another attempt can
      // only finish later than a caller who is already gone.
      if (seq->req.token.expired()) {
        seq->done_status = ServeStatus::kTimeout;
        seq->resp.detail = "deadline expired before retry";
        seq->done = true;
        finish_serve(std::move(seq));
        return;
      }
      if (attempt < options_.retry.max_retries) {
        ++seq->resp.retries;
        PC_SPAN("serve_retry", {"attempt", attempt + 1});
        if (reqtl) {
          seq->resp.annotations.push_back(
              "retry " + std::to_string(attempt + 1) + ": " + e.what());
        }
        std::this_thread::sleep_for(from_ms(backoff_ms_for(seq->req, attempt)));
        continue;
      }
      degrade(*seq, e.what());
      finish_serve(std::move(seq));
      return;
    } catch (const CacheError& e) {
      // Structural (the module fits in neither tier): degrade directly.
      degrade(*seq, e.what());
      finish_serve(std::move(seq));
      return;
    } catch (const std::exception& e) {
      seq->done_status = ServeStatus::kFailed;
      seq->resp.detail = e.what();
      seq->done = true;
      finish_serve(std::move(seq));
      return;
    }
  }

  // Simulated host-link transfer of the copied host bytes (borrowed rows
  // move none, leaving the LinkModel's per-request latency). Modeled as a
  // phase with a ready-timestamp rather than a sleep, so the transfer
  // overlaps other requests' compute like real DMA.
  // The submitter's extra stall (shard router: cross-shard module fetches)
  // folds into the same transfer phase, so it overlaps other requests'
  // compute too.
  const double stall_s =
      options_.link.stall_s(seq->result.ttft.bytes_from_host) +
      seq->req.extra_stall_ms / 1e3;
  if (stall_s > 0) {
    seq->phase = Phase::kTransfer;
    seq->transfer_ms = stall_s * 1e3;
    seq->transfer_ready =
        std::chrono::steady_clock::now() + from_ms(seq->transfer_ms);
  } else {
    seq->phase = Phase::kPrefill;
  }
  active_.push_back(std::move(seq));
  active_gauge_.add(1);
  refresh_kv_gauges();
}

bool BatchScheduler::step() {
  if (active_.empty()) return false;
  FaultInjector& faults = FaultInjector::global();
  const auto now = std::chrono::steady_clock::now();

  // Transfers that completed: pay the stall, poll the link fault, move to
  // prefill (or back off and re-send, then degrade once retries run out).
  for (auto& sp : active_) {
    Seq& s = *sp;
    if (s.done || s.phase != Phase::kTransfer) continue;
    if (now < s.transfer_ready) continue;
    s.resp.stall_ms += s.transfer_ms;
    if (faults.should_fail(FaultPoint::kLink)) {
      if (s.req.token.expired()) {
        // Retries stop the moment the deadline expires.
        s.done = true;
        s.done_status = ServeStatus::kTimeout;
        s.resp.detail = "deadline expired before retry";
      } else if (s.link_attempts < options_.retry.max_retries) {
        ++s.resp.retries;
        PC_SPAN("serve_retry", {"attempt", s.link_attempts + 1});
        if (obs::request_telemetry_enabled()) {
          s.resp.annotations.push_back("retry " +
                                       std::to_string(s.link_attempts + 1) +
                                       ": host-link transfer lost");
        }
        const double backoff = backoff_ms_for(s.req, s.link_attempts);
        ++s.link_attempts;
        // Back off, then re-send the whole transfer.
        s.transfer_ready =
            std::chrono::steady_clock::now() + from_ms(backoff + s.transfer_ms);
      } else {
        degrade(s, "injected fault: host-link transfer lost");
      }
    } else {
      s.phase = Phase::kPrefill;
    }
  }

  // Gather this iteration's work: a prefill chunk or one decode token per
  // active sequence.
  struct WorkRef {
    Seq* seq;
    int chunk;           // > 0 for prefill contributions
    int64_t logits_row;  // its row of the step's logits; -1 mid-prompt
  };
  std::vector<Model::BatchSeq> batch;
  std::vector<WorkRef> refs;
  int64_t logits_rows = 0;
  bool any_transfer = false;
  auto earliest_ready = std::chrono::steady_clock::time_point::max();
  for (auto& sp : active_) {
    Seq& s = *sp;
    if (s.done) continue;
    if (s.phase == Phase::kTransfer) {
      any_transfer = true;
      earliest_ready = std::min(earliest_ready, s.transfer_ready);
      continue;
    }
    if (s.phase == Phase::kPrefill) {
      if (!s.prefill_started) {
        s.prefill_started = true;
        s.prefill_start = std::chrono::steady_clock::now();
      }
      if (s.req.token.expired()) {
        s.done = true;
        s.done_status = ServeStatus::kTimeout;
        s.resp.detail = "deadline expired mid-prefill";
        continue;
      }
      const int remaining =
          static_cast<int>(s.stream.tokens.size() - s.prefill_done);
      const int chunk = std::min(options_.batch.chunk_tokens, remaining);
      // Only the final chunk's logits are read (they give the first token).
      const bool final_chunk = chunk == remaining;
      batch.push_back(Model::BatchSeq{
          std::span<const TokenId>(s.stream.tokens.data() + s.prefill_done,
                                   static_cast<size_t>(chunk)),
          std::span<const int>(s.stream.pos_ids.data() + s.prefill_done,
                               static_cast<size_t>(chunk)),
          &*s.kv,
          final_chunk ? Model::LogitRows::kLast : Model::LogitRows::kNone});
      refs.push_back({&s, chunk, final_chunk ? logits_rows++ : -1});
    } else {  // kDecode: the decoder's next forward
      batch.push_back(Model::BatchSeq{{&s.decoder->token(), 1},
                                      {&s.decoder->pos(), 1},
                                      &*s.kv});
      refs.push_back({&s, 0, logits_rows++});
    }
  }

  if (!batch.empty()) {
    iterations_.inc();
    size_t iteration_tokens = 0;
    for (const auto& b : batch) iteration_tokens += b.tokens.size();
    batch_tokens_.inc(static_cast<uint64_t>(iteration_tokens));
    PC_SPAN("batch_step", {"seqs", static_cast<int64_t>(batch.size())},
            {"tokens", static_cast<int64_t>(iteration_tokens)});
    Tensor logits;
    try {
      logits = model_.forward_batch(batch);
    } catch (const std::exception& e) {
      // Admission screens what forward_batch checks, so this is unexpected;
      // it fails the sequences of this step, not the lane.
      PC_LOG_ERROR << "batch step failed: " << e.what();
      for (const WorkRef& ref : refs) {
        ref.seq->done = true;
        ref.seq->done_status = ServeStatus::kFailed;
        ref.seq->resp.detail = e.what();
      }
      refs.clear();
    }
    const auto after = std::chrono::steady_clock::now();
    for (size_t i = 0; i < refs.size(); ++i) {
      Seq& s = *refs[i].seq;
      if (refs[i].chunk > 0) {
        ++s.resp.prefill_chunks;
        s.prefill_done += static_cast<size_t>(refs[i].chunk);
        if (s.prefill_done < s.stream.tokens.size()) continue;
        // Prefill complete: the first token comes off this iteration's
        // logits.
        s.result.ttft.uncached_ms = ms_between(s.prefill_start, after);
        s.result.ttft.uncached_tokens =
            static_cast<int>(s.stream.tokens.size());
        s.phase = Phase::kDecode;
        s.decode_start = after;
        s.decoder.emplace(s.req.options, s.stream.gen_start,
                          model_.config().max_pos);
      }
      if (!s.decoder->accept(logits, refs[i].logits_row)) continue;
      if (s.decoder->finish_reason() == FinishReason::kCancelled) {
        s.done_status = ServeStatus::kTimeout;
        s.resp.detail = "serve: deadline expired mid-decode";
      } else {
        s.result.finish_reason = s.decoder->finish_reason();
        s.result.tokens = std::move(s.decoder->tokens());
        s.result.text = tokenizer_.decode(s.result.tokens);
        s.result.prompt_tokens =
            s.result.ttft.cached_tokens + s.result.ttft.uncached_tokens;
        s.result.decode_ms =
            ms_between(s.decode_start, std::chrono::steady_clock::now());
        s.done_status = ServeStatus::kOk;
      }
      s.done = true;
    }
  } else if (any_transfer) {
    // Every live sequence is mid-transfer: sleep until the earliest one is
    // ready (bounded, so admissions stay responsive).
    const auto wake = std::min(earliest_ready,
                               std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(1));
    std::this_thread::sleep_until(wake);
  }

  // Record the KV high-water mark while completed sequences still hold
  // their tails, then sweep them out of the batch (join/leave at token
  // granularity: their slots are free for the next admission).
  // finish_serve refreshes the gauges again after each release, so the
  // live-bytes gauge settles before the final completion is observable.
  refresh_kv_gauges();
  for (size_t i = 0; i < active_.size();) {
    if (active_[i]->done) {
      std::unique_ptr<Seq> sp = std::move(active_[i]);
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
      active_gauge_.sub(1);
      finish_serve(std::move(sp));
    } else {
      ++i;
    }
  }
  return !active_.empty();
}

size_t BatchScheduler::live_bytes() const {
  size_t bytes = 0;
  for (const auto& seq : active_) {
    if (seq->kv) bytes += seq->kv->owned_bytes();
  }
  return bytes;
}

void BatchScheduler::refresh_kv_gauges() {
  const size_t live = live_bytes();
  peak_live_bytes_ = std::max(peak_live_bytes_, live);
  kv_live_.set(static_cast<int64_t>(live));
  kv_peak_.set(static_cast<int64_t>(peak_live_bytes_));
}

BatchKVStats BatchScheduler::kv_stats() const {
  BatchKVStats out;
  out.live_bytes = live_bytes();
  out.peak_live_bytes = peak_live_bytes_;
  return out;
}

}  // namespace pc
