#include "sys/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace pc {

namespace {

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
  // lanes retrying the same key desynchronize without a shared RNG. The
  // hash input is id * gamma + attempt + 0xd1b54a32d192ed03; splitmix64
  // adds the gamma itself, so the id term starts one gamma lower.
  const uint64_t x =
      splitmix64((id - 1) * 0x9e3779b97f4a7c15ULL +
                 static_cast<uint64_t>(attempt) + 0xd1b54a32d192ed03ULL);
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
               SharedModuleStore& store, ServerConfig config)
    : config_(std::move(config)),
      engine_(model, tokenizer, store, config_.engine),
      instance_(next_server_instance()) {
  start();
}

Server::Server(const Model& model, const TextTokenizer& tokenizer,
               ServerConfig config)
    : config_(std::move(config)),
      engine_(model, tokenizer, config_.engine),
      instance_(next_server_instance()) {
  start();
}

Server::~Server() { stop(); }

void Server::start() {
  PC_CHECK_MSG(config_.n_workers > 0, "Server needs at least one lane");
  PC_CHECK_MSG(config_.queue_capacity > 0, "Server queue capacity must be > 0");
  PC_CHECK_MSG(config_.retry.max_retries >= 0,
               "RetryPolicy::max_retries must be >= 0");
  PC_CHECK_MSG(config_.batch.max_batch > 0,
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
  // The schemas load once, here, before any lane starts: serving wall time
  // then measures serving, not start-up, and a schema that does not parse
  // or does not fit max_pos fails the constructor, not the process.
  for (const std::string& pml : config_.schemas) {
    try {
      engine_.load_schema(pml);
    } catch (const TransientError& e) {
      // The schema registered before encoding started, so missing modules
      // encode lazily on first import.
      PC_LOG_WARN << "server: eager encode failed at startup (" << e.what()
                  << "); modules will encode lazily";
    }
  }
  if (config_.prefetch) {
    PrefetcherConfig pf;
    pf.depth = config_.prefetch_depth;
    prefetcher_ = std::make_unique<StorePrefetcher>(engine_, pf);
  }
  BatchScheduler::Options opts;
  opts.batch = config_.batch;
  opts.link = config_.link;
  opts.retry = config_.retry;
  opts.flow_seed = instance_ << 32;
  for (int i = 0; i < config_.n_workers; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->scheduler = std::make_unique<BatchScheduler>(
        engine_, opts, [this, i](ServerResponse&& resp) {
          const auto now = std::chrono::steady_clock::now();
          resp.worker = i;
          {
            std::lock_guard lock(mutex_);
            if (resp.retries > 0) {
              retries_.inc(static_cast<uint64_t>(resp.retries));
            }
            record_locked(std::move(resp), now);
          }
          cv_done_.notify_all();
        });
    lanes_.push_back(std::move(lane));
  }
  for (int i = 0; i < config_.n_workers; ++i) {
    lanes_[static_cast<size_t>(i)]->thread = std::thread([this, i] {
      obs::set_thread_name("lane" + std::to_string(i));
      lane_loop(i);
    });
  }
  PC_LOG_INFO << "server ready: " << config_.n_workers << " lanes x max_batch "
              << config_.batch.max_batch;
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
  // stop() may have run while we were blocked on a full queue: no lane
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
  // time out after burning a lane slot. The backlog counts requests already
  // in service, not just the queue: with the queue momentarily empty but
  // every lane busy, a new request still waits a full service time.
  uint64_t backlog = queue_.size();
  for (const auto& lane : lanes_) backlog += static_cast<uint64_t>(lane->held);
  const double parallelism = static_cast<double>(config_.n_workers) *
                             static_cast<double>(config_.batch.max_batch);
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

  BatchScheduler::Request item;
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
  // Kick the prefetch pipeline before the lanes can race ahead: by the
  // time a lane picks this request up, its spilled modules are faulting in
  // — or already resident. enqueue() only touches the prefetcher's leaf
  // mutex, so calling it under mutex_ cannot deadlock (the prefetcher never
  // calls back into the server).
  if (prefetcher_ != nullptr) prefetcher_->enqueue(item.prompt);
  queue_.push_back(std::move(item));
  queue_depth_.add(1);
  lock.unlock();
  cv_not_empty_.notify_one();
  // Flow arc: ties this submit to the batch_admit span on whichever lane
  // picks the request up (Perfetto draws the arrow).
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
  // throw) — without this they would sleep forever once the lanes exit.
  cv_not_full_.notify_all();
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
  // After the lanes: a prefetch racing shutdown is harmless, and
  // stopping last lets queued requests still benefit from the pipeline.
  if (prefetcher_ != nullptr) prefetcher_->stop();
}

void Server::record_locked(ServerResponse&& resp,
                           std::chrono::steady_clock::time_point when) {
  // Anything that was dequeued (worker >= 0) is held by its lane;
  // submit-time sheds (worker == -1) never were.
  if (resp.worker >= 0) {
    int& held = lanes_[static_cast<size_t>(resp.worker)]->held;
    PC_CHECK_MSG(held > 0, "lane accounting underflow");
    --held;
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
  // so timelines reconcile with pc_server_* exactly — not eventually.
  if constexpr (obs::kEnabled) {
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
  // The engine's effective format: a q4 request on a model the q4 kernel
  // cannot serve runs as q8 (PromptCacheEngine's config()).
  t.kv_format = precision_name(engine_.config().precision);
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
  }
  requests_.record(std::move(t));
}

bool Server::may_admit_locked(int index) const {
  const int held = lanes_[static_cast<size_t>(index)]->held;
  if (held >= config_.batch.max_batch) return false;
  for (const auto& lane : lanes_) {
    if (lane->held < held) return false;
  }
  return true;
}

void Server::lane_loop(int index) {
  Lane& self = *lanes_[static_cast<size_t>(index)];
  BatchScheduler& scheduler = *self.scheduler;
  for (;;) {
    // Admit what least-loaded admission grants this lane; block only when
    // the lane has nothing to do at all. An idle lane holds nothing, so it
    // may always admit.
    std::vector<BatchScheduler::Request> admits;
    {
      std::unique_lock lock(mutex_);
      if (scheduler.idle()) {
        cv_not_empty_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      }
      if (stop_ && queue_.empty() && scheduler.idle()) return;
      while (!queue_.empty() && may_admit_locked(index)) {
        admits.push_back(std::move(queue_.front()));
        queue_.pop_front();
        queue_depth_.sub(1);
        ++self.held;
      }
    }
    if (!admits.empty()) cv_not_full_.notify_all();
    for (auto& r : admits) scheduler.admit(std::move(r));
    scheduler.step();
  }
}

ServerStats Server::stats() const {
  ServerStats out;
  out.n_workers = config_.n_workers;
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

  const EngineStats es = engine_.stats();
  out.modules_encoded = es.modules_encoded;
  out.scaffolds_encoded = es.scaffolds_encoded;
  out.thrash_reencodes = es.thrash_reencodes;
  out.engine_ttft = engine_.cached_ttft_histogram();
  for (const auto& lane : lanes_) {
    const BatchScheduler& scheduler = *lane->scheduler;
    out.batch_iterations += scheduler.iterations();
    out.batch_tokens += scheduler.batched_tokens();
    const BatchKVStats kv = scheduler.kv_stats();
    out.kv_live_bytes += kv.live_bytes;
    out.kv_peak_bytes += kv.peak_live_bytes;
  }
  const SharedModuleStore& store = engine_.store();
  out.store = store.stats();
  out.resident_module_bytes = store.resident_bytes();
  out.single_flight_waits = store.single_flight_waits();
  const double lookups =
      static_cast<double>(out.store.hits + out.store.misses);
  if (lookups > 0) {
    out.store_hit_rate = static_cast<double>(out.store.hits) / lookups;
  }
  return out;
}

}  // namespace pc
