#include "sys/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>

#include "common/logging.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sys/fault.h"

namespace pc {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// Timeline vocabulary for the store's KV format.
[[maybe_unused]] const char* precision_name(StorePrecision p) {
  switch (p) {
    case StorePrecision::kFp32:
      return "fp32";
    case StorePrecision::kFp16:
      return "fp16";
    case StorePrecision::kQ8:
      return "q8";
    case StorePrecision::kQ4:
      return "q4";
  }
  return "unknown";
}

[[maybe_unused]] uint64_t ms_to_ns(double ms) {
  return ms > 0 ? static_cast<uint64_t>(ms * 1e6) : 0;
}

}  // namespace

double retry_backoff_ms(const RetryPolicy& retry, uint64_t id, int attempt) {
  double ms = retry.backoff_base_ms *
              static_cast<double>(1ULL << std::min(attempt, 20));
  ms = std::min(ms, retry.backoff_max_ms);
  // Deterministic jitter in [0.5, 1.5) from (request id, attempt) —
  // workers retrying the same key desynchronize without a shared RNG.
  uint64_t x = id * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(attempt) +
               0xd1b54a32d192ed03ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return ms * (0.5 + static_cast<double>(x >> 11) * 0x1.0p-53);
}

const char* to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kDegraded:
      return "degraded";
    case ServeStatus::kTimeout:
      return "timeout";
    case ServeStatus::kShed:
      return "shed";
    case ServeStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

// Request ids restart at 0 in every Server; the instance number keeps
// timelines and flow ids distinguishable across servers in one process.
static uint64_t next_server_instance() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Server::Server(const Model& model, const TextTokenizer& tokenizer,
               SharedModuleStore& shared_store, ServerConfig config)
    : model_(model),
      tokenizer_(tokenizer),
      shared_(&shared_store),
      config_(std::move(config)),
      requests_(config_.request_ring),
      slo_(config_.slo),
      instance_(next_server_instance()) {
  start();
}

Server::Server(const Model& model, const TextTokenizer& tokenizer,
               ServerConfig config)
    : model_(model),
      tokenizer_(tokenizer),
      config_(std::move(config)),
      requests_(config_.request_ring),
      slo_(config_.slo),
      instance_(next_server_instance()) {
  start();
}

Server::~Server() { stop(); }

void Server::start() {
  PC_CHECK_MSG(config_.batching || config_.n_workers > 0,
               "Server needs at least one worker");
  PC_CHECK_MSG(config_.queue_capacity > 0, "Server queue capacity must be > 0");
  PC_CHECK_MSG(config_.retry.max_retries >= 0,
               "RetryPolicy::max_retries must be >= 0");
  PC_CHECK_MSG(!config_.batching || config_.batch.max_batch > 0,
               "BatchConfig::max_batch must be > 0");
  auto& reg = obs::MetricsRegistry::global();
  submitted_ = reg.counter("pc_server_submitted_total", "requests submitted");
  completed_ = reg.counter("pc_server_completed_total",
                           "requests served (ok + degraded)");
  degraded_ = reg.counter("pc_server_degraded_total",
                          "requests served by full-prefill fallback");
  shed_ = reg.counter("pc_server_shed_total",
                      "requests rejected before service");
  timeouts_ = reg.counter("pc_server_timeouts_total",
                          "requests cancelled past their deadline");
  failed_ = reg.counter("pc_server_failed_total",
                        "requests whose serve threw non-transiently");
  retries_ = reg.counter("pc_server_retries_total",
                         "transient-fault serve retries");
  deadline_misses_ =
      reg.counter("pc_server_deadline_misses_total", "deadline overruns");
  queue_depth_ = reg.gauge("pc_server_queue_depth", "requests waiting");
  e2e_ttft_ = reg.histogram("pc_server_ttft_seconds",
                            "end-to-end TTFT: queue + stall + engine");
  degraded_ttft_ = reg.histogram("pc_server_ttft_degraded_seconds",
                                 "end-to-end TTFT of degraded serves");
  ttft_drift_ = reg.histogram(
      "pc_ttft_model_drift",
      "measured/predicted cached-TTFT ratio vs device_model");
  if (config_.prefetch && shared_ != nullptr) {
    // The pipeline needs somewhere to fault keys in from; without a shared
    // store there is no disk tier and the prefetcher would only burn a
    // thread binding prompts nobody looks up.
    PrefetcherConfig pf;
    pf.depth = config_.prefetch_depth;
    pf.schemas = config_.schemas;
    prefetcher_ = std::make_unique<StorePrefetcher>(model_, tokenizer_,
                                                    *shared_, std::move(pf));
  }
  if (config_.batching) {
    // One batch lane instead of a worker pool: a single thread owns the
    // scheduler and serves up to batch.max_batch requests per iteration.
    batch_thread_ = std::thread([this] { batch_loop(); });
    std::unique_lock lock(mutex_);
    cv_ready_.wait(lock, [&] { return workers_ready_ == 1; });
    lock.unlock();
    PC_LOG_INFO << "server batch loop ready: max_batch "
                << config_.batch.max_batch << ", "
                << (shared_ != nullptr ? "shared" : "private") << " store";
    return;
  }
  workers_.reserve(static_cast<size_t>(config_.n_workers));
  for (int i = 0; i < config_.n_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int i = 0; i < config_.n_workers; ++i) {
    workers_[static_cast<size_t>(i)]->thread =
        std::thread([this, i] { worker_loop(i); });
  }
  // Wait until every worker has built its engine and loaded the schemas:
  // serving wall time then measures serving, not startup. (Schema loads
  // race on purpose — with a shared store they exercise single-flight.)
  std::unique_lock lock(mutex_);
  cv_ready_.wait(lock, [&] { return workers_ready_ == config_.n_workers; });
  lock.unlock();
  PC_LOG_INFO << "server worker pool ready: " << config_.n_workers
              << " workers, "
              << (shared_ != nullptr ? "shared" : "private") << " store";
}

uint64_t Server::submit(std::string prompt, const GenerateOptions& options,
                        double deadline_ms) {
  SubmitOptions sopts;
  sopts.deadline_ms = deadline_ms;
  return submit(std::move(prompt), options, sopts);
}

uint64_t Server::submit(std::string prompt, const GenerateOptions& options,
                        const SubmitOptions& submit_options) {
  std::unique_lock lock(mutex_);
  PC_CHECK_MSG(!stop_, "submit() on a stopped Server");
  cv_not_full_.wait(lock, [&] {
    return stop_ || queue_.size() < config_.queue_capacity;
  });
  // stop() may have run while we were blocked on a full queue: no worker
  // will ever pop for us again, so unblock the caller with an error
  // instead of deadlocking (or silently dropping the request).
  if (stop_) {
    throw Error("submit() aborted: Server stopped while the queue was full");
  }
  const uint64_t id = submitted_.value();
  submitted_.inc();
  const auto enqueued = std::chrono::steady_clock::now();
  if (!clock_started_) {
    clock_started_ = true;
    first_submit_ = enqueued;
  }
  const double deadline = submit_options.deadline_ms > 0
                              ? submit_options.deadline_ms
                              : config_.default_deadline_ms;
  // Timeline anchor: the submit timestamp on the obs epoch clock, consumed
  // by record_timeline_locked when the terminal status lands.
  if constexpr (obs::kEnabled) {
    if (obs::request_telemetry_enabled()) submit_ns_[id] = obs::now_ns();
  }

  // Load shedding: when the backlog alone makes the deadline unmeetable
  // (estimated queue wait from the served-request EWMA), reject at submit —
  // an immediate kShed response — rather than let the request queue up and
  // time out after burning a worker. The backlog counts requests already in
  // service, not just the queue: with the queue momentarily empty but every
  // lane busy, a new request still waits a full service time.
  const uint64_t backlog = queue_.size() + in_service_;
  const double parallelism = static_cast<double>(
      config_.batching ? config_.batch.max_batch : config_.n_workers);
  if (deadline > 0 && service_ewma_ms_ > 0 && backlog > 0) {
    const double est_wait_ms =
        service_ewma_ms_ * (static_cast<double>(backlog) / parallelism);
    if (est_wait_ms > deadline) {
      ServerResponse resp;
      resp.id = id;
      resp.status = ServeStatus::kShed;
      resp.deadline_met = false;
      std::ostringstream os;
      os << "shed at submit: estimated queue wait " << est_wait_ms
         << " ms exceeds the " << deadline << " ms deadline";
      resp.detail = os.str();
      record_locked(std::move(resp), enqueued);
      lock.unlock();
      cv_done_.notify_all();
      return id;
    }
  }

  Item item;
  item.id = id;
  item.prompt = std::move(prompt);
  item.options = options;
  item.deadline_ms = deadline;
  item.enqueued = enqueued;
  item.extra_stall_ms = submit_options.extra_stall_ms;
  item.force_full_prefill = submit_options.force_full_prefill;
  item.annotation = submit_options.annotation;
  if (deadline > 0) {
    item.token = CancellationToken::with_deadline(
        enqueued + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double, std::milli>(deadline)));
  }
  // Kick the prefetch pipeline before the workers can race ahead: by the
  // time a worker (or the batch loop) picks this request up, its spilled
  // modules are faulting in — or already resident. enqueue() only touches
  // the prefetcher's leaf mutex, so calling it under mutex_ cannot
  // deadlock (the prefetcher never calls back into the server).
  if (prefetcher_ != nullptr) prefetcher_->enqueue(item.prompt);
  queue_.push_back(std::move(item));
  queue_depth_.add(1);
  lock.unlock();
  cv_not_empty_.notify_one();
  // Flow arc: ties this submit to the serve_request / batch_admit span on
  // whichever thread picks the request up (Perfetto draws the arrow).
  PC_FLOW_START("request", flow_id(id));
  return id;
}

std::vector<ServerResponse> Server::drain() {
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [&] { return done_ == submitted_.value(); });
  std::vector<ServerResponse> out = std::move(responses_);
  responses_.clear();
  lock.unlock();
  std::sort(out.begin(), out.end(),
            [](const ServerResponse& a, const ServerResponse& b) {
              return a.id < b.id;
            });
  return out;
}

void Server::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_not_empty_.notify_all();
  // Submitters blocked on a full queue must wake and observe stop_ (they
  // throw) — without this they would sleep forever once the workers exit.
  cv_not_full_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  if (batch_thread_.joinable()) batch_thread_.join();
  // After the serving threads: a prefetch racing shutdown is harmless, and
  // stopping last lets queued requests still benefit from the pipeline.
  if (prefetcher_ != nullptr) prefetcher_->stop();
}

void Server::record_locked(ServerResponse&& resp,
                           std::chrono::steady_clock::time_point when) {
  // Anything that was dequeued (worker >= 0) counted as in service;
  // submit-time sheds (worker == -1) never did.
  if (resp.worker >= 0) {
    PC_CHECK_MSG(in_service_ > 0, "in-service accounting underflow");
    --in_service_;
  }
  switch (resp.status) {
    case ServeStatus::kOk:
      completed_.inc();
      e2e_ttft_.record_ms(resp.ttft_ms);
      break;
    case ServeStatus::kDegraded:
      completed_.inc();
      degraded_.inc();
      degraded_ttft_.record_ms(resp.ttft_ms);
      break;
    case ServeStatus::kTimeout:
      timeouts_.inc();
      break;
    case ServeStatus::kShed:
      shed_.inc();
      break;
    case ServeStatus::kFailed:
      failed_.inc();
      break;
  }
  if (!resp.deadline_met) deadline_misses_.inc();
  if (is_served(resp.status)) {
    // Served-request EWMA: the backlog predictor behind submit-time
    // shedding.
    service_ewma_ms_ = service_ewma_ms_ <= 0
                           ? resp.service_ms
                           : 0.8 * service_ewma_ms_ + 0.2 * resp.service_ms;
  }
  // Request telemetry rides the same lock that moves the counters above,
  // so timelines and SLO outcomes reconcile with pc_server_* exactly —
  // not eventually.
  if constexpr (obs::kEnabled) {
    slo_.record(is_served(resp.status), resp.deadline_met);
    if (obs::request_telemetry_enabled()) {
      record_timeline_locked(resp);
    } else {
      submit_ns_.erase(resp.id);
    }
  }
  // The completion hook sees the response under the same lock that moved
  // the counters, so a router's view reconciles exactly with pc_server_*.
  // Contract (ServerConfig::on_record): the callback must not re-enter
  // this Server.
  if (config_.on_record) config_.on_record(resp);
  if (config_.retain_responses) responses_.push_back(std::move(resp));
  ++done_;
  last_complete_ = when;
}

void Server::record_timeline_locked(const ServerResponse& resp) {
  obs::RequestTimeline t;
  t.id = resp.id;
  t.server = instance_;
  t.lane = resp.worker;
  t.batched = config_.batching;
  const auto it = submit_ns_.find(resp.id);
  if (it != submit_ns_.end()) {
    t.submit_ns = it->second;
    submit_ns_.erase(it);
  }
  t.done_ns = obs::now_ns();
  // admit/first-token anchors are derived from the measured durations so
  // they stay consistent with the e2e TTFT definition (queue + stall +
  // engine TTFT) instead of introducing a second clock reading.
  if (resp.worker >= 0) t.admit_ns = t.submit_ns + ms_to_ns(resp.queue_ms);
  t.queue_ms = resp.queue_ms;
  t.transfer_ms = resp.stall_ms;
  t.service_ms = resp.service_ms;
  t.ttft_ms = resp.ttft_ms;
  t.outcome = static_cast<obs::RequestOutcome>(static_cast<int>(resp.status));
  t.retries = resp.retries;
  t.deadline_met = resp.deadline_met;
  t.detail = resp.detail;
  t.annotations = resp.annotations;
  t.module_misses = resp.module_misses;
  t.prefill_chunks = resp.prefill_chunks;
  // The serving engine's effective format: a q4 request on a model the q4
  // kernel cannot serve runs as q8 (PromptCacheEngine's config()).
  const StorePrecision precision = lane_engine(resp.worker).config().precision;
  t.kv_format = precision_name(precision);
  if (is_served(resp.status)) {
    const TtftBreakdown& b = resp.result.ttft;
    t.encode_ms = resp.result.encode_ms;
    t.retrieve_ms = b.retrieve_ms;
    t.prefill_ms = b.uncached_ms;
    t.decode_ms = resp.result.decode_ms;
    t.cached_tokens = b.cached_tokens;
    t.uncached_tokens = b.uncached_tokens;
    t.modules = b.modules;
    t.bytes_from_host = b.bytes_from_host;
    t.bytes_from_device = b.bytes_from_device;
    t.bytes_zero_copy = b.bytes_zero_copy;
    t.first_token_ns = t.submit_ns + ms_to_ns(resp.ttft_ms);
    if (config_.ttft_profile != nullptr && resp.status == ServeStatus::kOk &&
        b.cached_tokens > 0) {
      // TTFT-model drift: the analytic prediction for this request's exact
      // (cached, uncached, location, kv format), against the measured
      // engine TTFT (queue and link stall excluded on both sides — the
      // model predicts retrieve + prefill only). Ratio 1.0 = no drift.
      // CPU profiles have no device tier — cached states live in host RAM
      // regardless of which store tier served them.
      const ModuleLocation loc =
          config_.ttft_profile->is_gpu && b.bytes_from_host == 0
              ? ModuleLocation::kDeviceMemory
              : ModuleLocation::kHostMemory;
      size_t bytes_per_cached = 0;  // 0 = unquantized default
      switch (precision) {
        case StorePrecision::kQ8:
          bytes_per_cached = config_.ttft_spec.kv_bytes_per_token_q8();
          break;
        case StorePrecision::kQ4:
          bytes_per_cached = config_.ttft_spec.kv_bytes_per_token_q4();
          break;
        default:
          break;
      }
      const TtftEstimate est = estimate_cached_ttft(
          *config_.ttft_profile, config_.ttft_spec, b.cached_tokens,
          b.uncached_tokens, loc, bytes_per_cached);
      t.predicted_ttft_ms = est.total_ms();
      if (t.predicted_ttft_ms > 0) {
        ttft_drift_.record_seconds(b.total_ms() / t.predicted_ttft_ms);
      }
    }
  }
  requests_.record(std::move(t));
}

const PromptCacheEngine& Server::lane_engine(int lane) const {
  if (scheduler_ != nullptr) return scheduler_->engine();
  // Every worker's engine is built from config_.engine, so worker 0 speaks
  // for a request shed at submit (lane -1).
  return *workers_[static_cast<size_t>(std::max(lane, 0))]->engine;
}

std::unique_ptr<PromptCacheEngine> Server::make_engine() const {
  return shared_ != nullptr
             ? std::make_unique<PromptCacheEngine>(model_, tokenizer_, *shared_,
                                                   config_.engine)
             : std::make_unique<PromptCacheEngine>(model_, tokenizer_,
                                                   config_.engine);
}

void Server::worker_loop(int index) {
  obs::set_thread_name("worker" + std::to_string(index));
  Worker& self = *workers_[static_cast<size_t>(index)];
  self.engine = make_engine();
  for (const std::string& pml : config_.schemas) {
    try {
      self.engine->load_schema(pml);
    } catch (const TransientError& e) {
      // An injected fault hit the eager-encode pass. The schema itself is
      // registered before encoding starts, so the missing modules are
      // re-encoded lazily by the first request that imports them.
      PC_LOG_WARN << "worker " << index
                  << ": eager encode failed at startup (" << e.what()
                  << "); modules will encode lazily";
    }
  }
  {
    std::lock_guard lock(mutex_);
    ++workers_ready_;
  }
  cv_ready_.notify_all();

  FaultInjector& faults = FaultInjector::global();
  const RetryPolicy& retry = config_.retry;

  for (;;) {
    Item item;
    {
      std::unique_lock lock(mutex_);
      cv_not_empty_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to serve
      item = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.sub(1);
      ++in_service_;
    }
    cv_not_full_.notify_one();

    const auto dequeued = std::chrono::steady_clock::now();
    ServerResponse resp;
    resp.id = item.id;
    resp.worker = index;
    resp.queue_ms = ms_between(item.enqueued, dequeued);

    // Deadline blown while queued: shed before any service work.
    if (item.token.expired()) {
      resp.status = ServeStatus::kShed;
      resp.detail = "shed at dequeue: deadline expired while queued";
      resp.deadline_met = false;
      resp.service_ms = 0;
      {
        std::lock_guard lock(mutex_);
        record_locked(std::move(resp), dequeued);
      }
      cv_done_.notify_all();
      continue;
    }

    // Queue wait rides as an arg (not a sub-span): a retroactive wait span
    // would overlap the previous request on this lane and break nesting.
    PC_SPAN_NAMED(request_span, "serve_request",
                  {"request", static_cast<int64_t>(item.id)},
                  {"queue_us", static_cast<int64_t>(resp.queue_ms * 1e3)});
    PC_FLOW_END("request", flow_id(item.id));

    // Per-request cache attribution: the encode counters are per-worker
    // engine cells and this worker serves one request at a time, so the
    // delta around the serve is exactly this request's module misses.
    const bool reqtl = obs::kEnabled && obs::request_telemetry_enabled();
    uint64_t encodes_before = 0;
    if (reqtl) {
      const EngineStats es = self.engine->stats();
      encodes_before = es.modules_encoded + es.scaffolds_encoded;
    }
    const auto annotate = [&](std::string note) {
      if (reqtl) resp.annotations.push_back(std::move(note));
    };

    // Injected straggler: the worker freezes before serving.
    if (faults.should_fail(FaultPoint::kStall)) {
      const double stall = faults.stall_ms(FaultPoint::kStall);
      PC_SPAN("fault_stall", {"ms", static_cast<int64_t>(stall)});
      annotate("fault_stall " + std::to_string(stall) + "ms");
      sleep_ms(stall);
    }

    // Routing / failover provenance from the submitter (the shard router)
    // lands first in the annotation stream, before any fault notes.
    if (!item.annotation.empty()) annotate(item.annotation);

    GenerateOptions options = item.options;
    options.cancel = item.token;

    // Backoff sleeps never overshoot the deadline: a retry the caller can
    // no longer use is pure wasted latency, so the sleep is capped at the
    // time remaining (the expiry check at the retry sites stops the ladder
    // entirely once the token fires).
    const auto deadline_tp =
        item.deadline_ms > 0
            ? item.enqueued +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          item.deadline_ms))
            : std::chrono::steady_clock::time_point::max();
    const auto backoff = [&](int attempt) {
      double ms = retry_backoff_ms(retry, item.id, attempt);
      if (item.deadline_ms > 0) {
        const double remaining_ms =
            ms_between(std::chrono::steady_clock::now(), deadline_tp);
        ms = std::min(ms, std::max(0.0, remaining_ms));
      }
      sleep_ms(ms);
    };

    ServeStatus status = ServeStatus::kOk;
    // Fall back to full prefill: the cache layer could not produce the
    // modules, but the request is still answerable — bitwise-identically —
    // by recomputing everything (see serve_full_prefill).
    const auto degrade = [&](const std::string& why) {
      annotate("degraded: " + why);
      try {
        PC_SPAN("serve_degraded",
                {"request", static_cast<int64_t>(item.id)});
        resp.result = self.engine->serve_full_prefill(item.prompt, options);
        status = ServeStatus::kDegraded;
        resp.detail = why;
      } catch (const CancelledError& e) {
        status = ServeStatus::kTimeout;
        resp.detail = e.what();
      } catch (const std::exception& e) {
        status = ServeStatus::kFailed;
        resp.detail = e.what();
      }
    };

    if (item.force_full_prefill) {
      // The submitter decided the cache path cannot serve this request
      // (shard router: every replica holding its modules is down) — go
      // straight to the bitwise-identical full-prefill fallback.
      degrade(item.annotation.empty() ? "forced full prefill"
                                      : item.annotation);
    } else {
      for (int attempt = 0;; ++attempt) {
        try {
          resp.result = self.engine->serve(item.prompt, options);
          status = ServeStatus::kOk;
          break;
        } catch (const CancelledError& e) {
          status = ServeStatus::kTimeout;
          resp.detail = e.what();
          break;
        } catch (const TransientError& e) {
          // Retries stop the moment the deadline expires: another attempt
          // (and its backoff sleep) can only finish later than a caller who
          // is already gone.
          if (item.token.expired()) {
            status = ServeStatus::kTimeout;
            resp.detail = "deadline expired before retry";
            break;
          }
          if (attempt < retry.max_retries) {
            ++resp.retries;
            retries_.inc();
            PC_SPAN("serve_retry", {"attempt", attempt + 1});
            annotate("retry " + std::to_string(attempt + 1) + ": " + e.what());
            backoff(attempt);
            continue;
          }
          degrade(e.what());
          break;
        } catch (const CacheError& e) {
          // Structural, not transient (the module fits in neither tier under
          // current pin pressure): retrying cannot help, degrade directly.
          degrade(e.what());
          break;
        } catch (const std::exception& e) {
          status = ServeStatus::kFailed;
          resp.detail = e.what();
          break;
        }
      }
    }

    if (status == ServeStatus::kOk) {
      // Simulated host-link transfer for this request's host-resident
      // module bytes (see LinkModel in server.h). The sleep yields the
      // core, so transfers overlap across workers like real DMA. An
      // injected link fault loses the transfer: the worker re-sends it,
      // and after max_retries degrades to local recompute (a degraded
      // serve moves no module bytes).
      const double stall_s =
          config_.link.stall_s(resp.result.ttft.bytes_from_host);
      if (stall_s > 0) {
        for (int attempt = 0;; ++attempt) {
          {
            PC_SPAN("link_stall",
                    {"bytes", static_cast<int64_t>(
                                  resp.result.ttft.bytes_from_host)});
            sleep_ms(stall_s * 1e3);
            resp.stall_ms += stall_s * 1e3;
          }
          if (!faults.should_fail(FaultPoint::kLink)) break;
          if (attempt < retry.max_retries) {
            ++resp.retries;
            retries_.inc();
            PC_SPAN("serve_retry", {"attempt", attempt + 1});
            annotate("retry " + std::to_string(attempt + 1) +
                     ": host-link transfer lost");
            backoff(attempt);
            continue;
          }
          degrade("injected fault: host-link transfer lost");
          break;
        }
      }
      // Extra stall charged by the submitter (shard router: cross-shard
      // module fetches over its inter-shard link). Same overlap semantics
      // as the host link — the sleep yields the core.
      if (status == ServeStatus::kOk && item.extra_stall_ms > 0) {
        PC_SPAN("cross_shard_stall",
                {"ms", static_cast<int64_t>(item.extra_stall_ms)});
        sleep_ms(item.extra_stall_ms);
        resp.stall_ms += item.extra_stall_ms;
      }
    }

    const auto done = std::chrono::steady_clock::now();
    resp.service_ms = ms_between(dequeued, done);
    // Deadline enforcement at completion: a serve that finished past its
    // deadline is a timeout even if no cancellation point fired — the
    // caller is gone. This keeps deadline_met consistent with the status:
    // is_served(status) implies deadline_met.
    if (is_served(status) && item.token.expired()) {
      status = ServeStatus::kTimeout;
      resp.detail = "deadline expired during service";
    }
    resp.deadline_met = item.deadline_ms <= 0 || !item.token.expired();
    if (is_served(status)) {
      resp.ttft_ms =
          resp.queue_ms + resp.stall_ms + resp.result.ttft.total_ms();
    }
    resp.status = status;
    if (!is_served(status)) resp.result = ServeResult{};
    if (reqtl) {
      const EngineStats es = self.engine->stats();
      resp.module_misses = static_cast<int>(es.modules_encoded +
                                            es.scaffolds_encoded -
                                            encodes_before);
    }

    {
      std::lock_guard lock(mutex_);
      record_locked(std::move(resp), done);
    }
    cv_done_.notify_all();
  }
}

void Server::batch_loop() {
  obs::set_thread_name("batcher");
  BatchScheduler::Options opts;
  opts.schemas = config_.schemas;
  opts.batch = config_.batch;
  opts.link = config_.link;
  opts.retry = config_.retry;
  opts.flow_seed = instance_ << 32;
  scheduler_ = std::make_unique<BatchScheduler>(
      make_engine(), std::move(opts),
      [this](ServerResponse&& resp) {
        const auto now = std::chrono::steady_clock::now();
        {
          std::lock_guard lock(mutex_);
          // Workers count retries as they happen; the scheduler reports
          // them per response.
          if (resp.retries > 0) {
            retries_.inc(static_cast<uint64_t>(resp.retries));
          }
          record_locked(std::move(resp), now);
        }
        cv_done_.notify_all();
      });
  {
    std::lock_guard lock(mutex_);
    ++workers_ready_;
  }
  cv_ready_.notify_all();

  for (;;) {
    // Admit as many queued requests as the batch has slots for; block only
    // when there is nothing to do at all.
    std::vector<BatchScheduler::Request> admits;
    {
      std::unique_lock lock(mutex_);
      if (scheduler_->idle()) {
        cv_not_empty_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      }
      if (stop_ && queue_.empty() && scheduler_->idle()) return;
      while (!queue_.empty() &&
             scheduler_->active_requests() + static_cast<int>(admits.size()) <
                 config_.batch.max_batch) {
        Item item = std::move(queue_.front());
        queue_.pop_front();
        queue_depth_.sub(1);
        ++in_service_;
        BatchScheduler::Request req;
        req.id = item.id;
        req.prompt = std::move(item.prompt);
        req.options = item.options;
        req.deadline_ms = item.deadline_ms;
        req.enqueued = item.enqueued;
        req.token = item.token;
        req.extra_stall_ms = item.extra_stall_ms;
        req.force_full_prefill = item.force_full_prefill;
        req.annotation = std::move(item.annotation);
        admits.push_back(std::move(req));
      }
    }
    if (!admits.empty()) cv_not_full_.notify_all();
    for (auto& r : admits) scheduler_->admit(std::move(r));
    scheduler_->step();
  }
}

ServerStats Server::stats() const {
  ServerStats out;
  out.n_workers = config_.batching ? 1 : config_.n_workers;
  out.shared_store = shared_ != nullptr;
  {
    std::lock_guard lock(mutex_);
    out.submitted = submitted_.value();
    out.completed = completed_.value();
    out.degraded = degraded_.value();
    out.shed = shed_.value();
    out.timeouts = timeouts_.value();
    out.failed = failed_.value();
    out.retries = retries_.value();
    out.deadline_misses = deadline_misses_.value();
    out.ttft = e2e_ttft_.snapshot();
    out.degraded_ttft = degraded_ttft_.snapshot();
    if (clock_started_ && done_ > 0) {
      out.wall_ms = ms_between(first_submit_, last_complete_);
    }
  }
  if (out.wall_ms > 0) {
    out.throughput_rps =
        static_cast<double>(out.completed) / (out.wall_ms / 1e3);
  }

  // Engine counters sum over the engines; store counters over the distinct
  // stores they serve from — the shared store once, or each engine's own.
  std::vector<const SharedModuleStore*> stores;
  size_t n_engines = 0;
  const auto add_engine = [&](const PromptCacheEngine& engine) {
    const EngineStats es = engine.stats();
    out.modules_encoded += es.modules_encoded;
    out.scaffolds_encoded += es.scaffolds_encoded;
    out.thrash_reencodes += es.thrash_reencodes;
    ++n_engines;
    if (std::find(stores.begin(), stores.end(), &engine.store()) ==
        stores.end()) {
      stores.push_back(&engine.store());
    }
  };
  if (config_.batching && scheduler_ != nullptr) {
    out.batching = true;
    out.batch_iterations = scheduler_->iterations();
    out.batch_tokens = scheduler_->batched_tokens();
    const BatchKVStats kv = scheduler_->kv_stats();
    out.kv_live_bytes = kv.live_bytes;
    out.kv_peak_bytes = kv.peak_live_bytes;
    add_engine(scheduler_->engine());
    out.engine_ttft.merge(scheduler_->ttft_histogram());
  }
  for (const auto& w : workers_) {
    if (w->engine == nullptr) continue;  // worker still constructing
    add_engine(*w->engine);
    out.engine_ttft.merge(w->engine->cached_ttft_histogram());
  }
  for (const SharedModuleStore* store : stores) {
    const ModuleStoreStats ss = store->stats();
    out.store.hits += ss.hits;
    out.store.misses += ss.misses;
    out.store.insertions += ss.insertions;
    out.store.evictions += ss.evictions;
    out.store.demotions += ss.demotions;
    out.store.promotions += ss.promotions;
    out.resident_module_bytes += store->resident_bytes();
    out.single_flight_waits += store->single_flight_waits();
  }
  // A store serving k engines holds once what k engine-owned stores would
  // hold k times.
  out.bytes_deduplicated =
      out.resident_module_bytes * (n_engines - stores.size());
  const double lookups =
      static_cast<double>(out.store.hits + out.store.misses);
  if (lookups > 0) {
    out.store_hit_rate = static_cast<double>(out.store.hits) / lookups;
  }
  return out;
}

std::string Server::metrics_prometheus() const {
  return obs::prometheus_text();
}

bool Server::write_trace_json(const std::string& path) const {
  return obs::write_perfetto_trace(path);
}

}  // namespace pc
