// pc_bench_e2e: the repository's end-to-end benchmark (README.md).
//
//   pc_bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--out DIR]
//   pc_bench_e2e --all [--seed N] [--seconds S] [--out DIR]
//   pc_bench_e2e --smoke [--out DIR]
//
// One workload per process. --all and --smoke re-execute this binary once
// per workload, so no workload inherits another's heap, threads or caches.
//
// A serving workload's run:
//   1. set-up, timed several times (setup_s is the median): model build,
//      store, Server start (workers load the schema and encode eagerly);
//   2. measured phase: a closed loop keeping one seeded request per worker
//      outstanding for --seconds, the first 2 s served but not measured;
//   3. correctness: every served text against a single-engine cached
//      reference, and cached against full-prefill output;
//   4. with --trace 1, per-layer measurements: a Server probe under
//      seeded open-loop Poisson arrivals at the workload's rate, a traced
//      single-client replay and a kernel microbench at the workload's
//      shapes.
// paper_ttft has no Server in steps 1-2: one engine serves one closed-loop
// client on the main thread for all of --seconds, cached serves
// interleaved with full prefills. Its Server probe has one closed-loop
// client, and its traced run adds the paper's cached vs full-prefill TTFT
// sweep over formats and lengths.
// Every number is measured CPU compute: no simulated link or disk latency
// is configured anywhere. Latency is timed from each request's due time.
//
// The last line on stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, with the end-to-end metrics under --trace 0 and the
// per-layer metrics under --trace 1. --out DIR also receives
// <workload>.json (every metric with its sample count, the checks and the
// provenance) and, when traced, <workload>.trace.json (Chrome trace
// format). A failed correctness check exits 1; a failed timing check marks
// the run invalid in <workload>.json.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/engine.h"
#include "core/shared_module_store.h"
#include "kv/quant.h"
#include "model/model.h"
#include "obs/request_timeline.h"
#include "obs/trace.h"
#include "host_speed.h"
#include "stats.h"
#include "sys/server.h"
#include "tensor/ops.h"
#include "workloads.h"

#ifndef PC_GIT_SHA
#define PC_GIT_SHA "unknown"
#endif
#ifndef PC_BUILD_TYPE
#define PC_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace pc::e2e {
namespace {

using Clock = std::chrono::steady_clock;

// BENCHMARK.json's run_seconds.
constexpr double kDefaultSeconds = 16;
constexpr uint64_t kModelSeed = 99;
constexpr int kWorkers = 2;
// Requests a serving workload keeps outstanding in its measured phase: one
// per worker, so no worker idles between requests and none waits in the
// queue. An idle spell lets other tenants of a shared host evict the model
// from the last-level cache, and the next request then runs up to ~3x
// slower by an amount that varies with their load (README.md, "Noise").
constexpr int kOutstanding = kWorkers;
// A serving workload's measured phase runs in this many stretches, with a
// slice of the single-engine reference pass after each.
constexpr int kReferenceSlices = 8;
// Runs of the host-speed computation (host_speed.h) at each point where
// the benchmark takes the host's speed.
constexpr int kHostSpeedCalls = 10;
constexpr double kWarmupS = 2;
// paper_ttft: cached serves after each full prefill.
constexpr int kCachedPerFull = 20;
// Validity limits of a measured run.
constexpr double kMaxGenLateMs = 1.0;
constexpr double kMaxUnattributedPct = 5.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration seconds_d(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

const char* format_name(StorePrecision p) {
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

// ---- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  bool all = false;
  bool smoke = false;
  uint64_t seed = 1;
  double seconds = kDefaultSeconds;
  bool trace = true;
  std::string out = "bench_e2e_out";
};

bool parse_options(int argc, char** argv, Options* o, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--all") {
      o->all = true;
    } else if (a == "--smoke") {
      o->smoke = true;
    } else if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") {
        *err = "--trace takes 0 or 1";
        return false;
      }
      o->trace = v == "1";
    } else if (a == "--out" && has_value) {
      o->out = argv[++i];
    } else {
      *err = "unknown or incomplete argument '" + a + "'";
      return false;
    }
  }
  // --smoke alone runs every workload; with --workload, just that one.
  if (o->smoke && o->workload.empty()) o->all = true;
  if (o->all == !o->workload.empty()) {
    *err = "give exactly one of --workload NAME, --all, --smoke";
    return false;
  }
  if (!o->workload.empty() && find_workload(o->workload) == nullptr) {
    *err = "unknown workload '" + o->workload + "'";
    return false;
  }
  if (!(o->seconds >= 1.0 && o->seconds <= 120.0)) {
    *err = "--seconds must be within [1, 120]";
    return false;
  }
  return true;
}

// How much work one run does besides the timed phases. Smoke runs shrink
// everything so all four workloads finish in seconds; they check outputs
// and invariants, not timings.
struct Shape {
  int max_modules = 1 << 30;
  size_t pool = 128;
  int setups = 3;
  // The reference engine times full prefills on at least `full_prefills`
  // prompts, and on more when prompts are short: up to about
  // `full_prefill_tokens` prompt tokens in all.
  size_t full_prefills = 12;
  size_t full_prefill_tokens = 14000;
  size_t replay = 100;
  // The traced run's Server probe: open-loop arrivals at the workload's
  // rate (paper_ttft: one closed-loop client) for this long, the first
  // kWarmupS unmeasured. 8 s measured at 20 req/s gives ~160 requests, well
  // over the 92 a p90 needs.
  double probe_s = 10;
  int sweep_cached_reps = 30;
  int sweep_cached_reps_2048_fp32 = 100;
  int sweep_full_reps = 10;
  std::vector<int> sweep_ctx = {128, 512, 1024, 2048};
  int kernel_batches = 15;
  // A closed loop's sample count depends on how fast the host runs, so
  // closed loops go on past their time until this many requests are
  // measured: enough for a p90 (stats.h) on a host running at half speed.
  size_t min_measured = 120;
};

Shape shape_for(bool smoke) {
  Shape s;
  if (smoke) {
    s.max_modules = 8;
    s.pool = 16;
    s.setups = 1;
    s.full_prefills = 1;
    s.full_prefill_tokens = 0;
    s.replay = 8;
    s.probe_s = 0.6;
    s.sweep_cached_reps = 1;
    s.sweep_cached_reps_2048_fp32 = 1;
    s.sweep_full_reps = 1;
    s.sweep_ctx = {128};
    s.kernel_batches = 3;
    s.min_measured = 0;
  }
  return s;
}

// ---- report -----------------------------------------------------------------

// End-to-end and per-layer metrics are BENCHMARK.json's and every workload
// reports them. A detail metric belongs to one workload only (paper_ttft's
// sweep), so it is printed and written to <workload>.json but left out of
// the last line.
enum class Kind { kEndToEnd, kLayer, kDetail };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kEndToEnd:
      return "end_to_end";
    case Kind::kLayer:
      return "per_layer";
    case Kind::kDetail:
      return "detail";
  }
  return "unknown";
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  size_t samples = 0;
  Kind kind = Kind::kLayer;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
  // Timing validity (was the host quiet enough to measure?), as opposed to
  // output correctness.
  bool timing = false;
};

class Report {
 public:
  void metric(std::string name, std::string unit, double value,
              size_t samples, Kind kind = Kind::kLayer) {
    metrics_.push_back(
        {std::move(name), std::move(unit), value, samples, kind});
  }
  // A percentile of raw samples; one the sample cannot support is listed
  // as missing instead of reported.
  void quantile(const std::string& name, const std::string& unit,
                const std::vector<double>& xs, double q,
                Kind kind = Kind::kLayer) {
    const Percentile p = percentile(xs, q);
    if (p.value) {
      metric(name, unit, *p.value, p.samples, kind);
    } else {
      missing_.push_back(name + ": " + p.reason);
    }
  }
  void check(std::string name, bool ok, std::string detail,
             bool timing = false) {
    checks_.push_back({std::move(name), ok, std::move(detail), timing});
  }
  // A measured fact that is neither a tracked metric nor a check.
  void note(std::string name, std::string text) {
    notes_.emplace_back(std::move(name), std::move(text));
  }
  // Scales the end-to-end timings to the reference host speed by the
  // host-speed factor (host_speed.h), and keeps each raw value as a detail
  // metric named raw.<name>.
  void scale_timings(double factor) {
    std::vector<Metric> raw;
    for (Metric& m : metrics_) {
      if (m.kind != Kind::kEndToEnd) continue;
      double scale = 0;
      if (m.unit == "ms" || m.unit == "s") {
        scale = factor;
      } else if (m.unit == "req/s") {
        scale = 1.0 / factor;
      } else {
        continue;
      }
      raw.push_back({"raw." + m.name, m.unit, m.value, m.samples, Kind::kDetail});
      m.value *= scale;
    }
    metrics_.insert(metrics_.end(), raw.begin(), raw.end());
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Check>& checks() const { return checks_; }
  const std::vector<std::string>& missing() const { return missing_; }
  const std::vector<std::pair<std::string, std::string>>& notes() const {
    return notes_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::string> missing_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// ---- serving ----------------------------------------------------------------

// The benchmark's own completion clock, fed by ServerConfig::on_record
// (which runs under the server's lock, so it only stamps and signals).
class Recorder {
 public:
  void record(uint64_t id) {
    const Clock::time_point now = Clock::now();
    {
      std::lock_guard lock(mutex_);
      if (done_.size() <= id) done_.resize(id + 1);
      done_[id] = now;
      order_.push_back(now);
    }
    cv_.notify_all();
  }
  // Waits until n responses are recorded, or `until` passes (false).
  bool wait_for(size_t n, Clock::time_point until) {
    std::unique_lock lock(mutex_);
    return cv_.wait_until(lock, until, [&] { return order_.size() >= n; });
  }
  void wait_for(size_t n) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return order_.size() >= n; });
  }
  size_t completed() const {
    std::lock_guard lock(mutex_);
    return order_.size();
  }
  // Time of the i-th completion, in completion order.
  Clock::time_point nth(size_t i) const {
    std::lock_guard lock(mutex_);
    return order_.at(i);
  }
  std::vector<Clock::time_point> done_by_id() const {
    std::lock_guard lock(mutex_);
    return done_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Clock::time_point> done_;   // by request id
  std::vector<Clock::time_point> order_;  // in completion order
};

struct Sent {
  uint64_t id = 0;
  size_t prompt = 0;        // pool index
  Clock::time_point due;    // when the request was due to be sent
  double late_ms = 0;       // how late the generator sent it
};

ModelConfig model_config() {
  return ModelConfig::llama_tiny(Vocab::basic_english().size(), 16384);
}

std::unique_ptr<SharedModuleStore> make_store(const WorkloadSpec& spec,
                                              size_t ram_cap,
                                              const std::string& spill_dir) {
  if (!spec.tiered) {
    return std::make_unique<SharedModuleStore>(0, 0, DiskTierConfig{});
  }
  DiskTierConfig disk;
  disk.enabled = true;
  disk.dir = spill_dir;
  // One shard so the cap is exact; the 1-byte host slice puts every
  // RAM-resident module under the cap and sends overflow to disk.
  return std::make_unique<SharedModuleStore>(ram_cap, 1, disk, 1);
}

// One set-up serving deployment. Members are destroyed in reverse order:
// the server joins its workers before the store and model go away.
struct Stack {
  std::unique_ptr<Model> model;
  std::unique_ptr<SharedModuleStore> store;
  std::unique_ptr<Server> server;
};

Stack set_up(const WorkloadSpec& spec, const Inputs& in,
             const TextTokenizer& tok, size_t ram_cap,
             const std::string& spill_dir, Recorder* recorder) {
  Stack s;
  s.model = std::make_unique<Model>(Model::random(model_config(), kModelSeed));
  s.store = make_store(spec, ram_cap, spill_dir);
  ServerConfig cfg;
  cfg.n_workers = kWorkers;
  // Room for every request of the run, so submit() never blocks the
  // generator.
  cfg.queue_capacity = std::max<size_t>(in.arrivals_s.size(), kOutstanding);
  cfg.schemas = {in.schema};
  cfg.engine.precision = spec.precision;
  cfg.prefetch = spec.tiered;
  cfg.prefetch_depth = 4;
  cfg.on_record = [recorder](const ServerResponse& r) {
    recorder->record(r.id);
  };
  s.server = std::make_unique<Server>(*s.model, tok, *s.store, std::move(cfg));
  return s;
}

void submit(Server& server, const Inputs& in, const GenerateOptions& opts,
            Clock::time_point due, std::vector<Sent>* sent) {
  const size_t k = in.pick(sent->size());
  const Clock::time_point at = Clock::now();
  const uint64_t id = server.submit(in.pool[k], opts);
  PC_CHECK_MSG(id == sent->size(), "server ids must follow submission order");
  sent->push_back({id, k, due, ms_between(due, at)});
}

// How a Server phase sends its requests: an open loop at the workload's
// arrival rate (clients == 0), where each request is sent at its scheduled
// time whatever the system is doing, or a closed loop keeping `clients`
// requests outstanding. Requests due in the first `warmup_s` are served
// and checked but not measured.
//
// A closed loop may run in `slices` stretches of seconds / slices each.
// After each stretch, once every request has completed, serve() calls
// `between(i)` on the generator's thread: the single-engine reference runs
// there, so its timings spread over the whole phase (README.md, "Noise").
struct Load {
  int clients = 0;
  double seconds = 0;
  double warmup_s = 0;
  // A closed loop goes on past `seconds` until this many are measured.
  size_t min_measured = 0;
  int slices = 1;
  std::function<void(int)> between;
};

// Closed loop with `clients` requests outstanding until `end`, and past it
// until `min_measured` requests due at or after `measured_from` were sent.
// A request is due when it may first be sent: at `start` for the first
// `clients`, then at the completion that frees its slot. All earlier
// requests must have completed.
void closed_loop(Server& server, const Inputs& in, const GenerateOptions& opts,
                 Recorder& recorder, size_t clients, Clock::time_point start,
                 Clock::time_point end, Clock::time_point measured_from,
                 size_t min_measured, std::vector<Sent>* sent) {
  const size_t base = sent->size();
  PC_CHECK(recorder.completed() == base);
  size_t measured = 0;
  for (size_t j = 0;; ++j) {
    const bool enough = measured >= min_measured;
    if (enough && Clock::now() >= end) break;
    Clock::time_point due = start;
    if (j >= clients) {
      const size_t freed = base + j - clients;
      if (!enough) {
        recorder.wait_for(freed + 1);
      } else if (!recorder.wait_for(freed + 1, end)) {
        break;
      }
      due = recorder.nth(freed);
    }
    if (due >= measured_from) ++measured;
    submit(server, in, opts, due, sent);
  }
}

struct ServeRun {
  std::vector<Sent> sent;
  std::vector<ServerResponse> responses;  // by id
  std::vector<Clock::time_point> done;    // by id
  Clock::time_point start;
  // Completions per second while the generator was sending, after the
  // warm-up.
  double throughput_rps = 0;
  size_t throughput_completions = 0;
  ServerStats stats;
  bool prefetcher = false;
  StorePrefetcher::Stats prefetch;
  ModuleStoreStats store_before;
  ModuleStoreStats store_after;
  DiskTierStats disk_before;
  DiskTierStats disk_after;
  size_t resident_bytes = 0;
  size_t peak_resident_bytes = 0;
  uint64_t single_flight_waits = 0;
  double peak_rss_mb = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

// One phase on a freshly set-up Server, which it stops at the end.
ServeRun serve(const Inputs& in, Stack& stack, Recorder& recorder,
               const GenerateOptions& opts, const Load& load) {
  ServeRun run;
  run.store_before = stack.store->stats();
  run.disk_before = stack.store->disk_stats();
  Server& server = *stack.server;

  run.start = Clock::now();
  const Clock::time_point measured_from =
      run.start + seconds_d(load.warmup_s);
  // [from, to] spans in which the generator sent measured requests.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> sending;
  if (load.clients == 0) {
    for (double t : in.arrivals_s) {
      const Clock::time_point due = run.start + seconds_d(t);
      std::this_thread::sleep_until(due);
      submit(server, in, opts, due, &run.sent);
    }
    sending.emplace_back(measured_from, Clock::now());
  } else {
    for (int i = 0; i < load.slices; ++i) {
      const Clock::time_point from = Clock::now();
      closed_loop(server, in, opts, recorder,
                  static_cast<size_t>(load.clients), from,
                  from + seconds_d(load.seconds / load.slices), measured_from,
                  load.min_measured, &run.sent);
      sending.emplace_back(std::max(from, measured_from), Clock::now());
      recorder.wait_for(run.sent.size());
      if (load.between) load.between(i);
    }
  }
  recorder.wait_for(run.sent.size());

  run.responses = server.drain();
  run.done = recorder.done_by_id();
  double sending_s = 0;
  for (const auto& [from, to] : sending) {
    if (to <= from) continue;
    sending_s += ms_between(from, to) / 1e3;
    for (const Clock::time_point& d : run.done) {
      if (d >= from && d <= to) ++run.throughput_completions;
    }
  }
  run.throughput_rps =
      static_cast<double>(run.throughput_completions) / sending_s;
  run.stats = server.stats();
  if (const StorePrefetcher* p = server.prefetcher()) {
    run.prefetcher = true;
    run.prefetch = p->stats();
  }
  run.peak_rss_mb = peak_rss_mb();
  // Stop the workers and the prefetcher: the store's counters are
  // quiescent from here on.
  stack.server.reset();
  run.store_after = stack.store->stats();
  run.disk_after = stack.store->disk_stats();
  run.resident_bytes = stack.store->resident_bytes();
  run.peak_resident_bytes = stack.store->peak_resident_bytes();
  run.single_flight_waits = stack.store->single_flight_waits();
  return run;
}

// End-to-end latencies of the measured requests. A request that was not
// served counts against slo_attainment and has no latency.
struct Latencies {
  std::vector<double> ttft, tpot, e2e;
  size_t measured = 0, within_slo = 0;

  void add(const WorkloadSpec& spec, const ServeResult* r, double e2e_ms) {
    ++measured;
    if (r == nullptr) return;
    const double ttft_ms = e2e_ms - r->decode_ms;
    const size_t tokens = r->tokens.size();
    const double tpot_ms =
        tokens > 1 ? r->decode_ms / static_cast<double>(tokens - 1) : 0;
    e2e.push_back(e2e_ms);
    ttft.push_back(ttft_ms);
    if (tokens > 1) tpot.push_back(tpot_ms);
    if (ttft_ms < spec.slo_ttft_ms && tpot_ms < spec.slo_tpot_ms) {
      ++within_slo;
    }
  }
};

// paper_ttft's deployment: one engine with its own store, no Server.
struct EngineStack {
  std::unique_ptr<Model> model;
  std::unique_ptr<PromptCacheEngine> engine;
};

EngineStack set_up_engine(const WorkloadSpec& spec, const Inputs& in,
                          const TextTokenizer& tok) {
  EngineStack s;
  s.model = std::make_unique<Model>(Model::random(model_config(), kModelSeed));
  EngineConfig ec;
  ec.precision = spec.precision;
  s.engine = std::make_unique<PromptCacheEngine>(*s.model, tok, ec);
  s.engine->load_schema(in.schema);
  return s;
}

// paper_ttft's measured phase: one closed-loop client on this thread for
// `seconds`. Each cycle is a full prefill of the next request's prompt and
// then kCachedPerFull cached serves, the first of them on that same
// prompt, so a slow spell of the host weighs on both sides of
// cached_speedup. A request is due when the previous one completes: its
// e2e is its own wall time. Requests due in the first `warmup_s` are
// served and checked but not measured. The run goes on past `seconds`
// until at least `min_measured` cached serves are measured. The host's
// speed is taken after every cycle, between two requests, and each cycle
// runs on the next CPU.
struct EngineRun {
  Latencies lat;
  std::vector<double> full_ttft;
  std::vector<std::pair<size_t, std::string>> texts;  // pool index, output
  size_t requests = 0;  // cached serves and full prefills
  size_t full_mismatches = 0;  // full prefill vs cached output
  size_t full_prefills = 0;
  double measured_serve_s = 0;  // summed wall time of measured cached serves
  double peak_rss_mb = 0;
};

EngineRun run_engine(const WorkloadSpec& spec, const Inputs& in,
                     PromptCacheEngine& engine, const GenerateOptions& opts,
                     double seconds, double warmup_s, size_t min_measured,
                     HostSpeed* host) {
  EngineRun run;
  const Clock::time_point start = Clock::now();
  const Clock::time_point measured_from = start + seconds_d(warmup_s);
  const Clock::time_point end = start + seconds_d(seconds);
  const auto go_on = [&] {
    return Clock::now() < end || run.lat.measured < min_measured;
  };
  for (uint64_t i = 0, cycle = 0; go_on(); ++cycle) {
    host->pin_caller(cycle);
    const std::string& first = in.pool[in.pick(i)];
    Clock::time_point due = Clock::now();
    const ServeResult full = engine.serve_full_prefill(first, opts);
    Clock::time_point done = Clock::now();
    ++run.requests;
    ++run.full_prefills;
    if (due >= measured_from) {
      run.full_ttft.push_back(ms_between(due, done) - full.decode_ms);
    }
    for (int c = 0; c < kCachedPerFull && go_on(); ++c, ++i) {
      const size_t k = in.pick(i);
      due = done;
      const ServeResult r = engine.serve(in.pool[k], opts);
      done = Clock::now();
      ++run.requests;
      run.texts.emplace_back(k, r.text);
      if (c == 0 && r.tokens != full.tokens) ++run.full_mismatches;
      if (due < measured_from) continue;
      run.lat.add(spec, &r, ms_between(due, done));
      run.measured_serve_s += ms_between(due, done) / 1e3;
    }
    host->sample(kHostSpeedCalls);
  }
  host->unpin_caller();
  run.peak_rss_mb = peak_rss_mb();
  return run;
}

// Every module holds the same number of tokens, so one encoded module's
// payload times the module count is the working set.
size_t module_working_set(const WorkloadSpec& spec, int n_modules,
                          const Inputs& in, const TextTokenizer& tok) {
  const Model model = Model::random(model_config(), kModelSeed);
  SharedModuleStore probe(0, 0, DiskTierConfig{}, 1);
  EngineConfig ec;
  ec.precision = spec.precision;
  ec.eager_encode = false;
  PromptCacheEngine engine(model, tok, probe, ec);
  engine.load_schema(in.schema);
  engine.pin_module(spec.name, module_name(0));
  return probe.resident_bytes() * static_cast<size_t>(n_modules);
}

// ---- single-engine reference ------------------------------------------------

// One engine serves every pool prompt, in seeded order, for the reference
// text. With `n_full` > 0 it also times serve_full_prefill on every
// (pool / n_full)-th prompt right after its cached serve, so that a slow
// spell of the host weighs on both sides of cached_speedup. A serving
// workload runs the pass in slices between stretches of its measured
// phase, so the timings spread over the whole phase instead of one short
// stretch, where a single speed state of the host would set their median.
//
// serve_full_prefill computes fp32 attention states. At fp32 it reproduces
// cached serving bitwise; at q8/q4 a quantized cached state can flip a
// near-tied token, so full prefill is checked against fp32 cached output
// and its agreement with the workload's own format is only reported.
class Reference {
 public:
  Reference(const WorkloadSpec& spec, const Inputs& in, const Model& model,
            const TextTokenizer& tok, const GenerateOptions& opts,
            size_t n_full, uint64_t seed)
      : spec_(spec), in_(in), opts_(opts), engine_(model, tok, config(spec)) {
    engine_.load_schema(in.schema);
    if (n_full > 0 && spec.precision != StorePrecision::kFp32) {
      EngineConfig fp32_config;
      fp32_config.precision = StorePrecision::kFp32;
      fp32_config.eager_encode = false;
      fp32_ = std::make_unique<PromptCacheEngine>(model, tok, fp32_config);
      fp32_->load_schema(in.schema);
    }
    order_.resize(in.pool.size());
    std::iota(order_.begin(), order_.end(), size_t{0});
    Rng rng(mix64(seed ^ 0x66756c6cULL));
    rng.shuffle(order_);
    stride_ = n_full > 0 ? std::max<size_t>(1, order_.size() / n_full) : 0;
    texts.resize(in.pool.size());
  }

  // Serves slice i of n: an equal share of the pool, in order.
  void run_slice(int i, int n) {
    const size_t size = order_.size();
    for (size_t j = size * static_cast<size_t>(i) / static_cast<size_t>(n);
         j < size * static_cast<size_t>(i + 1) / static_cast<size_t>(n); ++j) {
      serve_one(j);
    }
  }

  std::vector<std::string> texts;      // cached output per pool prompt
  std::vector<double> cached_ttft_ms;  // serve()
  std::vector<double> full_ttft_ms;    // serve_full_prefill()
  size_t full_mismatches = 0;          // full prefill vs fp32 cached output
  size_t full_same_as_format = 0;  // full prefill == workload-format output
  size_t misshapen_prompts = 0;

 private:
  static EngineConfig config(const WorkloadSpec& spec) {
    EngineConfig ec;
    ec.precision = spec.precision;
    return ec;
  }

  void serve_one(size_t j) {
    const size_t k = order_[j];
    const std::string& prompt = in_.pool[k];
    // One token per generated word.
    const pml::PromptBinding b = engine_.bind(prompt);
    if (b.cached_token_count() != spec_.imports * spec_.module_tokens ||
        b.uncached_token_count() != spec_.question_tokens) {
      ++misshapen_prompts;
    }
    WallTimer t;
    const ServeResult r = engine_.serve(prompt, opts_);
    cached_ttft_ms.push_back(t.elapsed_ms() - r.decode_ms);
    texts[k] = r.text;
    if (stride_ == 0 || j % stride_ != 0) return;

    WallTimer tf;
    const ServeResult full = engine_.serve_full_prefill(prompt, opts_);
    full_ttft_ms.push_back(tf.elapsed_ms() - full.decode_ms);
    const std::string fp32_text =
        fp32_ ? fp32_->serve(prompt, opts_).text : r.text;
    if (full.text != fp32_text) ++full_mismatches;
    if (full.text == r.text) ++full_same_as_format;
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  const GenerateOptions& opts_;
  PromptCacheEngine engine_;
  std::unique_ptr<PromptCacheEngine> fp32_;
  std::vector<size_t> order_;
  size_t stride_ = 0;
};

// ---- traced replay ----------------------------------------------------------

struct Span {
  const char* name;
  uint64_t request;
  int lane;  // 0: the call-by-call engine, 1: the plain serve() engine
  Clock::time_point start;
  Clock::time_point end;
};

struct Replay {
  std::vector<Span> spans;
  std::vector<double> bind_us, ensure_ms, assemble_ms, retrieve_ms,
      prefill_ms, prefill_us_per_token, decode_step_ms;
  // Per request: plain serve(), the sum of the traced calls, and the whole
  // traced sequence including its bookkeeping.
  std::vector<double> serve_ms, parts_ms, traced_ms;
  double cached_tokens = 0;
  double uncached_tokens = 0;
  double kv_bytes = 0;
  double dequant_rows = 0;
  size_t requests = 0;
  size_t mismatches = 0;
};

// The first n requests of the run's seeded list, one at a time, through two
// fresh engines over stores configured like the workload's (tiered: the
// same cap and disk tier, no prefetcher, so demand fault-ins show). One
// engine is driven call by call with a span around each public call; the
// other runs plain serve() on the same request, so the two see the same
// store state and the spans can be checked against the whole.
Replay run_replay(const WorkloadSpec& spec, const Inputs& in,
                  const Model& model, const TextTokenizer& tok,
                  const GenerateOptions& opts,
                  const std::vector<std::string>& ref_texts, size_t ram_cap,
                  const std::string& spill_dir, size_t n) {
  Replay rp;
  auto store_parts = make_store(spec, ram_cap, spill_dir);
  auto store_whole = make_store(spec, ram_cap, spill_dir);
  EngineConfig ec;
  ec.precision = spec.precision;
  PromptCacheEngine parts(model, tok, *store_parts, ec);
  PromptCacheEngine whole(model, tok, *store_whole, ec);
  parts.load_schema(in.schema);
  whole.load_schema(in.schema);

  for (uint64_t i = 0; i < n; ++i) {
    const size_t k = in.pick(i);
    const std::string& prompt = in.pool[k];

    Clock::time_point t[6];
    TtftBreakdown tb;
    size_t tokens = 0;
    const auto by_parts = [&] {
      t[0] = Clock::now();
      const pml::PromptBinding binding = parts.bind(prompt);
      t[1] = Clock::now();
      parts.ensure_encoded(binding);
      t[2] = Clock::now();
      KVCache cache = model.make_cache();
      const Tensor logits = parts.assemble_and_prefill(binding, cache, &tb);
      t[3] = Clock::now();
      // serve()'s decode start: a fully cached prompt's kickoff token
      // occupies next_pos itself.
      const bool kickoff = binding.args.empty() && binding.texts.empty();
      const Model::GenerateOutput gen = model.generate(
          logits, binding.next_pos + (kickoff ? 1 : 0), cache, opts);
      t[4] = Clock::now();
      const std::string text = tok.decode(gen.tokens);
      t[5] = Clock::now();
      tokens = gen.tokens.size();
      if (text != ref_texts[k]) ++rp.mismatches;
    };
    Clock::time_point w0, w1;
    const auto by_serve = [&] {
      w0 = Clock::now();
      const ServeResult r = whole.serve(prompt, opts);
      w1 = Clock::now();
      if (r.text != ref_texts[k]) ++rp.mismatches;
    };
    // Alternate which engine goes first so neither always runs warm.
    if (i % 2 == 0) {
      by_parts();
      by_serve();
    } else {
      by_serve();
      by_parts();
    }

    rp.spans.push_back({"request", i, 0, t[0], t[5]});
    rp.spans.push_back({"bind", i, 0, t[0], t[1]});
    rp.spans.push_back({"ensure_encoded", i, 0, t[1], t[2]});
    rp.spans.push_back({"assemble_and_prefill", i, 0, t[2], t[3]});
    rp.spans.push_back({"generate", i, 0, t[3], t[4]});
    rp.spans.push_back({"serve", i, 1, w0, w1});

    rp.serve_ms.push_back(ms_between(w0, w1));
    rp.parts_ms.push_back(ms_between(t[0], t[4]));
    rp.traced_ms.push_back(ms_between(t[0], t[5]));
    rp.bind_us.push_back(ms_between(t[0], t[1]) * 1e3);
    rp.ensure_ms.push_back(ms_between(t[1], t[2]));
    rp.assemble_ms.push_back(ms_between(t[2], t[3]));
    rp.retrieve_ms.push_back(tb.retrieve_ms);
    rp.prefill_ms.push_back(tb.uncached_ms);
    if (tb.uncached_tokens > 0) {
      rp.prefill_us_per_token.push_back(tb.uncached_ms * 1e3 /
                                        tb.uncached_tokens);
    }
    if (tokens > 1) {
      rp.decode_step_ms.push_back(ms_between(t[3], t[4]) /
                                  static_cast<double>(tokens - 1));
    }
    rp.cached_tokens += tb.cached_tokens;
    rp.uncached_tokens += tb.uncached_tokens;
    rp.kv_bytes += static_cast<double>(tb.bytes_from_host +
                                       tb.bytes_from_device +
                                       tb.bytes_zero_copy);
    rp.dequant_rows += static_cast<double>(tb.dequant_rows);
    ++rp.requests;
  }
  return rp;
}

bool write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point epoch =
      spans.empty() ? Clock::now() : spans.front().start;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":" << quoted(s.name)
        << ",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << num(ms_between(epoch, s.start) * 1e3)
        << ",\"dur\":" << num(ms_between(s.start, s.end) * 1e3)
        << ",\"args\":{\"request\":" << s.request << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- kernel microbench ------------------------------------------------------

volatile float g_sink = 0;

// Median per-call time over `batches` timed batches, each long enough
// (>= 200 us) for the clock to resolve it.
template <typename F>
double per_call_us(F&& call, int batches) {
  size_t calls = 1;
  for (;;) {
    WallTimer t;
    for (size_t c = 0; c < calls; ++c) call();
    if (t.elapsed_us() >= 200 || calls >= (size_t{1} << 20)) break;
    calls *= 2;
  }
  std::vector<double> per;
  for (int b = 0; b < batches; ++b) {
    WallTimer t;
    for (size_t c = 0; c < calls; ++c) call();
    per.push_back(t.elapsed_us() / static_cast<double>(calls));
  }
  return *percentile(per, 0.5).value;
}

// The public ops.h kernels at the workload's shapes: one attention head and
// one query row over the mean request context, per KV format, and the
// MLP-up gemm at prefill (m = mean uncached tokens) and decode (m = 1).
void kernel_microbench(const ModelConfig& mc, int n_ctx, int m_prefill,
                       int batches, Report* report) {
  const size_t d_head = static_cast<size_t>(mc.d_head);
  const int kv_dim = mc.kv_dim();
  const size_t n = static_cast<size_t>(n_ctx);
  Rng rng(7);
  const auto randn = [&](size_t count) {
    std::vector<float> v(count);
    for (float& x : v) x = rng.gauss(0.0f, 1.0f);
    return v;
  };
  const std::vector<float> q = randn(d_head);
  const std::vector<float> k = randn(n * static_cast<size_t>(kv_dim));
  const std::vector<float> v = randn(n * static_cast<size_t>(kv_dim));
  std::vector<float> scores(n), out(d_head);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));

  std::vector<const float*> k_rows(n), v_rows(n), none(n, nullptr);
  for (size_t j = 0; j < n; ++j) {
    k_rows[j] = k.data() + j * static_cast<size_t>(kv_dim);
    v_rows[j] = v.data() + j * static_cast<size_t>(kv_dim);
  }
  std::vector<int8_t> k8(k.size()), v8(v.size());
  std::vector<float> k8s(n), v8s(n);
  quantize_rows(k.data(), n_ctx, kv_dim, k8.data(), k8s.data());
  quantize_rows(v.data(), n_ctx, kv_dim, v8.data(), v8s.data());
  std::vector<const int8_t*> k8_rows(n), v8_rows(n);
  const size_t q4_bytes = q4_row_bytes(kv_dim);
  const size_t q4_scales = static_cast<size_t>(q4_blocks(kv_dim));
  std::vector<uint8_t> k4(n * q4_bytes), v4(n * q4_bytes);
  std::vector<float> k4s(n * q4_scales), v4s(n * q4_scales);
  quantize_rows_q4(k.data(), n_ctx, kv_dim, k4.data(), k4s.data());
  quantize_rows_q4(v.data(), n_ctx, kv_dim, v4.data(), v4s.data());
  std::vector<const uint8_t*> k4_rows(n), v4_rows(n);
  std::vector<const float*> k4_scale_rows(n), v4_scale_rows(n);
  for (size_t j = 0; j < n; ++j) {
    k8_rows[j] = k8.data() + j * static_cast<size_t>(kv_dim);
    v8_rows[j] = v8.data() + j * static_cast<size_t>(kv_dim);
    k4_rows[j] = k4.data() + j * q4_bytes;
    v4_rows[j] = v4.data() + j * q4_bytes;
    k4_scale_rows[j] = k4s.data() + j * q4_scales;
    v4_scale_rows[j] = v4s.data() + j * q4_scales;
  }

  const size_t samples = static_cast<size_t>(batches);
  report->metric(
      "tensor.attn_contig_us", "us", per_call_us([&] {
        attn_fused_contig(q.data(), k.data(), v.data(),
                          static_cast<size_t>(kv_dim), d_head, n, scale, 0.0f,
                          nullptr, nullptr, scores.data(), out.data());
        g_sink = g_sink + out[0];
      }, batches), samples);
  report->metric(
      "tensor.attn_gather_fp32_us", "us", per_call_us([&] {
        attn_fused_gather(q.data(), k_rows.data(), v_rows.data(), 0, d_head, n,
                          scale, 0.0f, nullptr, nullptr, scores.data(),
                          out.data());
        g_sink = g_sink + out[0];
      }, batches), samples);
  report->metric(
      "tensor.attn_gather_q8_us", "us", per_call_us([&] {
        attn_fused_q8_gather(q.data(), k8_rows.data(), v8_rows.data(),
                             k8s.data(), v8s.data(), none.data(), none.data(),
                             0, d_head, n, scale, 0.0f, nullptr, nullptr,
                             scores.data(), out.data());
        g_sink = g_sink + out[0];
      }, batches), samples);
  report->metric(
      "tensor.attn_gather_q4_us", "us", per_call_us([&] {
        attn_fused_q4_gather(q.data(), k4_rows.data(), v4_rows.data(),
                             k4_scale_rows.data(), v4_scale_rows.data(),
                             none.data(), none.data(), 0, d_head, n, scale,
                             0.0f, nullptr, nullptr, scores.data(),
                             out.data());
        g_sink = g_sink + out[0];
      }, batches), samples);
  // Computed from the fp32 kernel's shape, not measured: K and V rows read
  // once each, and a multiply-add per element for q.k and for the mix.
  report->metric("tensor.attn_bytes_per_call", "bytes",
                 2.0 * static_cast<double>(n * d_head * sizeof(float)), 1);
  report->metric("tensor.attn_flops_per_call", "flop",
                 4.0 * static_cast<double>(n * d_head), 1);

  const size_t dm = static_cast<size_t>(mc.d_model);
  const size_t dff = static_cast<size_t>(mc.d_ff);
  const size_t m = static_cast<size_t>(std::max(1, m_prefill));
  const std::vector<float> a = randn(m * dm);
  const std::vector<float> b = randn(dff * dm);
  std::vector<float> c(m * dff);
  report->metric("tensor.gemm_nt_prefill_us", "us", per_call_us([&] {
                   gemm_nt(a.data(), b.data(), c.data(), m, dm, dff);
                   g_sink = g_sink + c[0];
                 }, batches), samples);
  report->metric("tensor.gemm_nt_decode_us", "us", per_call_us([&] {
                   gemm_nt(a.data(), b.data(), c.data(), 1, dm, dff);
                   g_sink = g_sink + c[0];
                 }, batches), samples);
}

// ---- the paper's TTFT sweep -------------------------------------------------

// paper_ttft only. Cached serve() at max_new_tokens = 1 per KV format and
// context length, and full prefill per length (it does not touch the
// store, so it is timed once per length), on one engine with no server
// (paper §5.2, Fig. 3-5 shape). Decoding 8 tokens, fp32 cached output must
// equal full prefill at every length; the q8/q4 points' agreement with
// full prefill is reported, not required (see Reference).
struct SweepResult {
  std::vector<std::string> fp32_mismatches;  // "fp32.<ctx>" points
  size_t quantized_points = 0;
  size_t quantized_agree = 0;
};

SweepResult paper_sweep(const Model& model, const TextTokenizer& tok,
                        const Shape& shape, uint64_t seed, Report* report) {
  SweepResult out;
  GenerateOptions one;
  one.max_new_tokens = 1;
  one.stop_tokens = {};
  GenerateOptions eight = one;
  eight.max_new_tokens = 8;
  for (int ctx : shape.sweep_ctx) {
    const SweepInput in = make_sweep_input(ctx, seed);
    std::vector<double> full_ms;
    std::vector<TokenId> full_tokens;
    for (StorePrecision fmt :
         {StorePrecision::kFp32, StorePrecision::kQ8, StorePrecision::kQ4}) {
      const std::string point =
          std::string(format_name(fmt)) + "." + std::to_string(ctx);
      EngineConfig ec;
      ec.precision = fmt;
      PromptCacheEngine engine(model, tok, ec);
      engine.load_schema(in.schema);
      const ServeResult cached = engine.serve(in.prompt, eight);
      if (fmt == StorePrecision::kFp32) {
        for (int r = 0; r < shape.sweep_full_reps; ++r) {
          WallTimer t;
          const ServeResult full = engine.serve_full_prefill(in.prompt, eight);
          full_ms.push_back(t.elapsed_ms() - full.decode_ms);
          full_tokens = full.tokens;
        }
        if (full_tokens != cached.tokens) {
          out.fp32_mismatches.push_back(point);
        }
      } else {
        ++out.quantized_points;
        if (full_tokens == cached.tokens) ++out.quantized_agree;
      }
      const int reps = fmt == StorePrecision::kFp32 && ctx == 2048
                           ? shape.sweep_cached_reps_2048_fp32
                           : shape.sweep_cached_reps;
      std::vector<double> cached_ms;
      for (int r = 0; r < reps; ++r) {
        WallTimer t;
        (void)engine.serve(in.prompt, one);
        cached_ms.push_back(t.elapsed_ms());
      }
      report->quantile("core.cached_ttft_ms." + point, "ms", cached_ms, 0.5,
                       Kind::kDetail);
    }
    report->quantile("model.full_prefill_ms." + std::to_string(ctx), "ms",
                     full_ms, 0.5, Kind::kDetail);
  }
  return out;
}

// ---- one workload -----------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance_json() {
  const char* threads = std::getenv("PC_THREADS");
  std::ostringstream os;
  os << "{\"git_sha\": " << quoted(PC_GIT_SHA)
     << ", \"build_type\": " << quoted(PC_BUILD_TYPE)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << quoted(cpu_model())
     << ", \"pc_threads\": " << quoted(threads != nullptr ? threads : "unset")
     << "}";
  return os.str();
}

// What the requests of one Server run saw: timings over the measured
// requests (due after the warm-up), counts over all of them.
struct Served {
  Latencies lat;
  std::vector<double> late, queue, service, unreported, server_gap_pct;
  size_t failed = 0, degraded = 0, text_mismatches = 0, stalled = 0;
};

Served tally(const WorkloadSpec& spec, const ServeRun& run,
             const std::vector<std::string>& ref_texts, double warmup_s) {
  Served s;
  const Clock::time_point measured_from =
      run.start + seconds_d(warmup_s);
  for (const Sent& q : run.sent) {
    const ServerResponse& r = run.responses.at(q.id);
    const bool served = is_served(r.status);
    if (!served) {
      ++s.failed;
    } else {
      if (r.status == ServeStatus::kDegraded) ++s.degraded;
      if (r.result.text != ref_texts[q.prompt]) ++s.text_mismatches;
      if (r.stall_ms > 0) ++s.stalled;
    }
    if (q.due < measured_from) continue;
    s.late.push_back(q.late_ms);
    const double e2e_ms = ms_between(q.due, run.done.at(q.id));
    if (served) {
      s.queue.push_back(r.queue_ms);
      s.service.push_back(r.service_ms);
      s.unreported.push_back(e2e_ms - r.result.decode_ms - q.late_ms -
                             r.ttft_ms);
      s.server_gap_pct.push_back(
          std::fabs(e2e_ms - (q.late_ms + r.queue_ms + r.service_ms)) /
          e2e_ms * 100.0);
    }
    s.lat.add(spec, served ? &r.result : nullptr, e2e_ms);
  }
  return s;
}

// Correctness and validity of one Server run. `prefix` names the traced
// run's Server probe apart from the measured phase.
void check_served(const WorkloadSpec& spec, const ServeRun& run,
                  const Served& s, const std::string& prefix,
                  Report* report) {
  report->check(prefix + "all_requests_served", s.failed == 0,
                std::to_string(s.failed) + " of " +
                    std::to_string(run.sent.size()) +
                    " failed, shed or timed out");
  report->check(prefix + "served_text_matches_reference",
                s.text_mismatches == 0,
                std::to_string(s.text_mismatches) +
                    " served texts differ from the single-engine reference");
  report->check(prefix + "no_simulated_stall", s.stalled == 0,
                std::to_string(s.stalled) +
                    " requests slept in a link stall");
  if (spec.tiered) {
    const DiskTierStats& d = run.disk_after;
    report->check(prefix + "disk_conservation",
                  d.spills == d.faults + d.evictions + d.read_failures +
                                  static_cast<uint64_t>(d.spilled),
                  "spills == faults + evictions + read_failures + spilled");
  }
  const Percentile late_p90 = percentile(s.late, 0.9);
  const Percentile server_gap = percentile(s.server_gap_pct, 0.5);
  report->check(prefix + "generator_on_time",
                !late_p90.value || *late_p90.value < kMaxGenLateMs,
                "sys.gen_late_p90_ms must stay under 1 ms", true);
  report->check(prefix + "server_attribution",
                !server_gap.value || *server_gap.value <= kMaxUnattributedPct,
                "trace.server_unattributed_pct must stay within 5%", true);
}

// The sys.* and core store metrics of one Server run.
void report_server_layers(const ServeRun& run, const Served& s,
                          Report* report) {
  // sys: Server and StorePrefetcher.
  report->quantile("sys.queue_wait_p50_ms", "ms", s.queue, 0.5);
  report->quantile("sys.queue_wait_p90_ms", "ms", s.queue, 0.9);
  report->quantile("sys.service_p50_ms", "ms", s.service, 0.5);
  report->quantile("sys.service_p90_ms", "ms", s.service, 0.9);
  report->quantile("sys.gen_late_p90_ms", "ms", s.late, 0.9);
  report->quantile("sys.ttft_unreported_ms", "ms", s.unreported, 0.5);
  report->quantile("trace.server_unattributed_pct", "%", s.server_gap_pct,
                   0.5);
  report->metric("sys.stalled_requests", "count",
                 static_cast<double>(s.stalled), run.sent.size());
  report->metric("sys.batch_tokens_per_iter", "tokens",
                 run.stats.batch_iterations == 0
                     ? 0.0
                     : static_cast<double>(run.stats.batch_tokens) /
                           static_cast<double>(run.stats.batch_iterations),
                 run.stats.batch_iterations);
  const double sent_n = static_cast<double>(run.sent.size());
  report->metric("sys.prefetch_keys_per_req", "keys",
                 run.prefetcher
                     ? static_cast<double>(run.prefetch.keys_issued) / sent_n
                     : 0.0,
                 run.sent.size());

  // core: the store and its disk tier, over the serving phases.
  const uint64_t hits = run.store_after.hits - run.store_before.hits;
  const uint64_t misses = run.store_after.misses - run.store_before.misses;
  report->metric("core.store_hit_rate", "ratio",
                 hits + misses == 0 ? 0.0
                                    : static_cast<double>(hits) /
                                          static_cast<double>(hits + misses),
                 hits + misses);
  report->metric("core.modules_encoded", "count",
                 static_cast<double>(run.stats.modules_encoded +
                                     run.stats.scaffolds_encoded),
                 1);
  report->metric("core.single_flight_waits", "count",
                 static_cast<double>(run.single_flight_waits), 1);
  report->metric("core.resident_mb", "MB",
                 static_cast<double>(run.resident_bytes) / 1e6, 1);
  report->metric("core.peak_resident_mb", "MB",
                 static_cast<double>(run.peak_resident_bytes) / 1e6, 1);
  const DiskTierStats& d0 = run.disk_before;
  const DiskTierStats& d1 = run.disk_after;
  report->metric("core.disk_spills_per_req", "1/req",
                 static_cast<double>(d1.spills - d0.spills) / sent_n,
                 run.sent.size());
  report->metric("core.disk_faults_per_req", "1/req",
                 static_cast<double>(d1.faults - d0.faults) / sent_n,
                 run.sent.size());
  const uint64_t pf_hits = d1.prefetch_hits - d0.prefetch_hits;
  const uint64_t pf_misses = d1.prefetch_misses - d0.prefetch_misses;
  report->metric("core.disk_prefetch_hit_rate", "ratio",
                 pf_hits + pf_misses == 0
                     ? 0.0
                     : static_cast<double>(pf_hits) /
                           static_cast<double>(pf_hits + pf_misses),
                 pf_hits + pf_misses);
  report->metric("core.disk_read_failures", "count",
                 static_cast<double>(d1.read_failures - d0.read_failures), 1);
}

int run_workload(const Options& opt) {
  const WorkloadSpec& spec = *find_workload(opt.workload);
  const Shape shape = shape_for(opt.smoke);
  const bool engine_only = spec.rate_rps == 0;
  const double warmup_s = std::min(kWarmupS, opt.seconds / 4.0);
  std::filesystem::create_directories(opt.out);
  const std::string spill_dir = opt.out + "/spill";

  const Tokenizer tok(Vocab::basic_english());
  const int n_modules = std::min(spec.n_modules, shape.max_modules);
  const Inputs in =
      make_inputs(spec, n_modules, opt.seed, shape.pool, shape.probe_s);
  GenerateOptions opts;
  opts.max_new_tokens = spec.output_tokens;
  opts.stop_tokens = {};  // fixed output length

  Report report;
  size_t ram_cap = 0;  // uncapped
  if (spec.tiered) {
    ram_cap = std::max<size_t>(
        1, module_working_set(spec, n_modules, in, tok) / 4);
  }

  // 1. Set-up, several times; the last one serves.
  Recorder recorder;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<EngineStack> solo_stack;
  HostSpeed host;
  for (int i = 0; i < shape.setups; ++i) {
    stack.reset();
    solo_stack.reset();
    host.sample(kHostSpeedCalls);
    WallTimer t;
    if (engine_only) {
      solo_stack =
          std::make_unique<EngineStack>(set_up_engine(spec, in, tok));
    } else {
      stack = std::make_unique<Stack>(
          set_up(spec, in, tok, ram_cap, spill_dir, &recorder));
    }
    setup_s.push_back(t.elapsed_seconds());
  }
  const Model& model = engine_only ? *solo_stack->model : *stack->model;

  // 2. The measured phase, all of --seconds, and 3. the single-engine
  // reference that checks it: for a serving workload, in slices between
  // stretches of the phase; paper_ttft's engine run times its own full
  // prefills, and its reference runs afterwards in one piece.
  const size_t prompt_tokens = static_cast<size_t>(
      spec.imports * spec.module_tokens + spec.question_tokens);
  const size_t n_full =
      engine_only ? 0
                  : std::min(shape.pool,
                             std::max(shape.full_prefills,
                                      shape.full_prefill_tokens / prompt_tokens));
  Reference ref(spec, in, model, tok, opts, n_full, opt.seed);
  std::optional<ServeRun> run;
  std::optional<EngineRun> solo;
  if (engine_only) {
    solo = run_engine(spec, in, *solo_stack->engine, opts, opt.seconds,
                      warmup_s, shape.min_measured, &host);
    ref.run_slice(0, 1);
  } else {
    Load load;
    load.clients = kOutstanding;
    load.seconds = opt.seconds;
    load.warmup_s = warmup_s;
    load.slices = kReferenceSlices;
    load.between = [&](int i) {
      host.sample(kHostSpeedCalls);
      host.pin_caller(static_cast<size_t>(i));
      ref.run_slice(i, kReferenceSlices);
      host.unpin_caller();
    };
    run = serve(in, *stack, recorder, opts, load);
  }
  report.check("inputs_have_their_shape", ref.misshapen_prompts == 0,
               std::to_string(ref.misshapen_prompts) +
                   " pool prompts do not bind to the workload's cached and "
                   "uncached token counts");

  size_t attempted = 0, failed = 0, degraded = 0;
  Served served;
  if (engine_only) {
    size_t mismatches = 0;
    for (const auto& [k, text] : solo->texts) {
      if (text != ref.texts[k]) ++mismatches;
    }
    report.check("served_text_matches_reference", mismatches == 0,
                 std::to_string(mismatches) +
                     " served texts differ from the single-engine reference");
    report.check("full_prefill_matches_fp32_cached",
                 solo->full_mismatches == 0,
                 std::to_string(solo->full_mismatches) + " of " +
                     std::to_string(solo->full_prefills) +
                     " full-prefill outputs differ from fp32 cached serving");
    attempted = solo->requests;
  } else {
    served = tally(spec, *run, ref.texts, warmup_s);
    check_served(spec, *run, served, "", &report);
    report.check("full_prefill_matches_fp32_cached", ref.full_mismatches == 0,
                 std::to_string(ref.full_mismatches) + " of " +
                     std::to_string(ref.full_ttft_ms.size()) +
                     " full-prefill outputs differ from fp32 cached serving");
    report.note("full_prefill_matching_workload_format",
                std::to_string(ref.full_same_as_format) + " of " +
                    std::to_string(ref.full_ttft_ms.size()) + " prompts at " +
                    format_name(spec.precision));
    attempted = run->sent.size();
    failed = served.failed;
    degraded = served.degraded;
  }

  // End-to-end metrics over the measured requests.
  const Latencies& lat = engine_only ? solo->lat : served.lat;
  report.quantile("ttft_p50_ms", "ms", lat.ttft, 0.5, Kind::kEndToEnd);
  report.quantile("ttft_p90_ms", "ms", lat.ttft, 0.9, Kind::kEndToEnd);
  report.quantile("tpot_p50_ms", "ms", lat.tpot, 0.5, Kind::kEndToEnd);
  report.quantile("tpot_p90_ms", "ms", lat.tpot, 0.9, Kind::kEndToEnd);
  report.quantile("e2e_p50_ms", "ms", lat.e2e, 0.5, Kind::kEndToEnd);
  report.quantile("e2e_p90_ms", "ms", lat.e2e, 0.9, Kind::kEndToEnd);
  if (lat.measured > 0) {
    report.metric("slo_attainment", "ratio",
                  static_cast<double>(lat.within_slo) /
                      static_cast<double>(lat.measured),
                  lat.measured, Kind::kEndToEnd);
  }
  // paper_ttft's one engine is saturated by its one client: its rate is
  // measured cached serves over their summed wall time.
  if (engine_only) {
    report.metric("sat_throughput_rps", "req/s",
                  static_cast<double>(lat.measured) / solo->measured_serve_s,
                  lat.measured, Kind::kEndToEnd);
  } else {
    report.metric("sat_throughput_rps", "req/s", run->throughput_rps,
                  run->throughput_completions, Kind::kEndToEnd);
  }
  report.quantile("setup_s", "s", setup_s, 0.5, Kind::kEndToEnd);
  report.metric("peak_rss_mb", "MB",
                engine_only ? solo->peak_rss_mb : run->peak_rss_mb, 1,
                Kind::kEndToEnd);
  const std::vector<double>& full_ms =
      engine_only ? solo->full_ttft : ref.full_ttft_ms;
  const std::vector<double>& cached_ms =
      engine_only ? lat.ttft : ref.cached_ttft_ms;
  report.quantile("full_prefill_ttft_p50_ms", "ms", full_ms, 0.5,
                  Kind::kEndToEnd);
  const Percentile full_p50 = percentile(full_ms, 0.5);
  const Percentile cached_p50 = percentile(cached_ms, 0.5);
  if (full_p50.value && cached_p50.value) {
    report.metric("cached_speedup", "x", *full_p50.value / *cached_p50.value,
                  full_ms.size(), Kind::kEndToEnd);
  }
  report.metric("host.calib_ms", "ms", host.median_ms(), host.samples());
  report.scale_timings(host.factor());

  // 4. Per-layer measurements.
  std::vector<Span> spans;
  if (opt.trace) {
    // The sys.* and core store metrics, from a freshly set-up Server under
    // open-loop arrivals at the workload's rate; paper_ttft, which has no
    // rate, sends the same prompts from one closed-loop client.
    Recorder probe_recorder;
    Stack probe = set_up(spec, in, tok, ram_cap, spill_dir, &probe_recorder);
    const double probe_warmup_s = std::min(kWarmupS, shape.probe_s / 4.0);
    Load load;
    load.clients = engine_only ? 1 : 0;
    load.seconds = shape.probe_s;
    load.warmup_s = probe_warmup_s;
    load.min_measured = shape.min_measured;
    const ServeRun pr = serve(in, probe, probe_recorder, opts, load);
    const Served ps = tally(spec, pr, ref.texts, probe_warmup_s);
    check_served(spec, pr, ps, "server_probe.", &report);
    report_server_layers(pr, ps, &report);
    attempted += pr.sent.size();
    failed += ps.failed;
    degraded += ps.degraded;

    Replay rp = run_replay(spec, in, model, tok, opts, ref.texts, ram_cap,
                           spill_dir, shape.replay);
    report.check("replay_matches_reference", rp.mismatches == 0,
                 std::to_string(rp.mismatches) +
                     " traced-replay texts differ from the reference");
    const double reqs = static_cast<double>(rp.requests);
    report.quantile("core.ensure_encoded_p50_ms", "ms", rp.ensure_ms, 0.5);
    report.quantile("core.ensure_encoded_p90_ms", "ms", rp.ensure_ms, 0.9);
    report.quantile("core.assemble_prefill_p50_ms", "ms", rp.assemble_ms,
                    0.5);
    report.metric("core.cached_token_share", "ratio",
                  rp.cached_tokens / (rp.cached_tokens + rp.uncached_tokens),
                  rp.requests);
    report.metric("core.cached_tokens_per_req", "tokens",
                  rp.cached_tokens / reqs, rp.requests);
    report.metric("core.uncached_tokens_per_req", "tokens",
                  rp.uncached_tokens / reqs, rp.requests);
    report.quantile("pml.bind_p50_us", "us", rp.bind_us, 0.5);
    report.quantile("kv.retrieve_p50_ms", "ms", rp.retrieve_ms, 0.5);
    report.metric("kv.bytes_per_req", "bytes", rp.kv_bytes / reqs,
                  rp.requests);
    report.metric("kv.dequant_rows_per_req", "rows", rp.dequant_rows / reqs,
                  rp.requests);
    report.quantile("model.prefill_p50_ms", "ms", rp.prefill_ms, 0.5);
    report.quantile("model.prefill_us_per_token", "us",
                    rp.prefill_us_per_token, 0.5);
    report.quantile("model.decode_step_p50_ms", "ms", rp.decode_step_ms,
                    0.5);
    report.quantile("model.decode_step_p90_ms", "ms", rp.decode_step_ms,
                    0.9);
    // Paired per request, so host jitter common to both engines cancels:
    // the median gap between serve() and its parts, and between serve()
    // and the traced sequence, as a share of the median serve().
    std::vector<double> gap, overhead;
    for (size_t i = 0; i < rp.serve_ms.size(); ++i) {
      gap.push_back(rp.serve_ms[i] - rp.parts_ms[i]);
      overhead.push_back(rp.traced_ms[i] - rp.serve_ms[i]);
    }
    const double serve_p50 = *percentile(rp.serve_ms, 0.5).value;
    const double unattributed =
        std::fabs(*percentile(gap, 0.5).value) / serve_p50 * 100.0;
    const double trace_overhead =
        *percentile(overhead, 0.5).value / serve_p50 * 100.0;
    report.metric("trace.engine_unattributed_pct", "%", unattributed,
                  gap.size());
    report.metric("trace.overhead_pct", "%", trace_overhead, overhead.size());
    report.check("engine_attribution", unattributed <= kMaxUnattributedPct,
                 "trace.engine_unattributed_pct must stay within 5%", true);
    report.check("trace_overhead", trace_overhead <= kMaxUnattributedPct,
                 "trace.overhead_pct must stay within 5%", true);

    kernel_microbench(
        model.config(),
        static_cast<int>(
            std::lround((rp.cached_tokens + rp.uncached_tokens) / reqs)),
        static_cast<int>(std::lround(rp.uncached_tokens / reqs)),
        shape.kernel_batches, &report);
    if (engine_only) {
      const SweepResult sweep =
          paper_sweep(model, tok, shape, opt.seed, &report);
      std::string differ;
      for (const std::string& p : sweep.fp32_mismatches) differ += " " + p;
      report.check("sweep_full_prefill_matches_fp32_cached", differ.empty(),
                   "fp32 cached and full-prefill output differ at:" + differ);
      report.note("sweep_quantized_points_matching_full_prefill",
                  std::to_string(sweep.quantized_agree) + " of " +
                      std::to_string(sweep.quantized_points));
    }
    spans = std::move(rp.spans);
  }

  if (!opt.smoke) {
    std::string missing;
    for (const std::string& m : report.missing()) missing += m + "; ";
    report.check("every_metric_reported", report.missing().empty(), missing);
  }

  // ---- output ----
  // A failed correctness check fails the run. A failed timing check marks
  // it invalid -- the host disturbed the measurement -- without failing it:
  // the numbers are still printed, and compare.py leaves the run out.
  bool correct = true, valid = true;
  for (const Check& c : report.checks()) {
    if (c.ok) continue;
    (c.timing ? valid : correct) = false;
  }
  if (!valid && !opt.smoke) {
    std::cerr << "pc_bench_e2e: " << spec.name
              << ": timing checks failed; run marked invalid\n";
  }

  std::cout << "\n== " << spec.name << " (" << format_name(spec.precision)
            << ", seed " << opt.seed << ", " << opt.seconds << " s"
            << (opt.smoke ? ", smoke" : "") << ") ==\n";
  char line[160];
  for (const Metric& m : report.metrics()) {
    std::snprintf(line, sizeof(line), "  %-34s %14.6g %-6s (n=%zu)%s\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples,
                  m.kind == Kind::kEndToEnd ? ""
                  : m.kind == Kind::kLayer  ? "  [layer]"
                                            : "  [detail]");
    std::cout << line;
  }
  for (const std::string& m : report.missing()) {
    std::cout << "  missing: " << m << "\n";
  }
  for (const Check& c : report.checks()) {
    std::cout << "  check " << c.name << ": " << (c.ok ? "ok" : "FAILED")
              << (c.ok ? "" : " -- " + c.detail) << "\n";
  }
  for (const auto& [name, text] : report.notes()) {
    std::cout << "  note " << name << ": " << text << "\n";
  }

  std::ostringstream detail;
  detail << "{\"workload\": " << quoted(spec.name)
         << ", \"seed\": " << opt.seed << ", \"seconds\": " << num(opt.seconds)
         << ", \"smoke\": " << (opt.smoke ? "true" : "false")
         << ", \"trace\": " << (opt.trace ? "true" : "false")
         << ", \"provenance\": " << provenance_json()
         << ", \"valid\": " << (valid ? "true" : "false")
         << ", \"attempted\": " << attempted
         << ", \"failed\": " << failed << ", \"degraded\": " << degraded
         << ",\n \"checks\": {";
  for (size_t i = 0; i < report.checks().size(); ++i) {
    const Check& c = report.checks()[i];
    detail << (i ? ", " : "") << quoted(c.name) << ": {\"ok\": "
           << (c.ok ? "true" : "false") << ", \"detail\": " << quoted(c.detail)
           << "}";
  }
  detail << "},\n \"notes\": {";
  for (size_t i = 0; i < report.notes().size(); ++i) {
    const auto& [name, text] = report.notes()[i];
    detail << (i ? ", " : "") << quoted(name) << ": " << quoted(text);
  }
  detail << "},\n \"metrics\": {\n";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    detail << "  " << quoted(m.name) << ": {\"value\": " << num(m.value)
           << ", \"unit\": " << quoted(m.unit) << ", \"samples\": "
           << m.samples << ", \"kind\": " << quoted(kind_name(m.kind)) << "}"
           << (i + 1 < report.metrics().size() ? ",\n" : "\n");
  }
  detail << " }}\n";
  std::ofstream(opt.out + "/" + spec.name + ".json") << detail.str();
  if (opt.trace) {
    const std::string path = opt.out + "/" + spec.name + ".trace.json";
    if (!write_trace(path, spans)) {
      std::cerr << "pc_bench_e2e: cannot write " << path << "\n";
    }
  }

  std::ostringstream last;
  last << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  const Kind printed = opt.trace ? Kind::kLayer : Kind::kEndToEnd;
  bool first = true;
  for (const Metric& m : report.metrics()) {
    if (m.kind != printed) continue;
    last << (first ? "" : ", ") << quoted(m.name) << ": {\"value\": "
         << num(m.value) << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  last << "}}";
  std::cout << last.str() << std::endl;
  return correct ? 0 : 1;
}

// ---- --all / --smoke ------------------------------------------------------

// Runs every workload in a fresh child process of this binary.
int run_all(const Options& opt, const char* self) {
  WallTimer total;
  std::vector<std::string> failed;
  for (const WorkloadSpec& spec : workloads()) {
    std::vector<std::string> args = {self,
                                     "--workload",
                                     spec.name,
                                     "--seed",
                                     std::to_string(opt.seed),
                                     "--seconds",
                                     num(opt.seconds),
                                     "--trace",
                                     "1",
                                     "--out",
                                     opt.out};
    if (opt.smoke) args.push_back("--smoke");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::cout.flush();
    pid_t pid = 0;
    int status = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0 ||
        waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      failed.push_back(spec.name);
    }
  }
  std::cout << "\npc_bench_e2e: " << workloads().size() - failed.size() << "/"
            << workloads().size() << " workloads passed in "
            << total.elapsed_seconds() << " s";
  for (const std::string& f : failed) std::cout << "; FAILED " << f;
  std::cout << std::endl;
  return failed.empty() ? 0 : 1;
}

}  // namespace
}  // namespace pc::e2e

int main(int argc, char** argv) {
  using namespace pc::e2e;
  Options opt;
  std::string err;
  if (!parse_options(argc, argv, &opt, &err)) {
    std::cerr << "pc_bench_e2e: " << err << "\n";
    return 2;
  }
  if (opt.smoke) opt.seconds = 1.2;
  // Injected faults would make every number meaningless.
  if (const char* f = std::getenv("PC_FAULTS"); f != nullptr && *f != '\0') {
    std::cerr << "pc_bench_e2e: refusing to run with PC_FAULTS set\n";
    return 2;
  }
  // One kernel thread per engine: the two workers, the generator and the
  // prefetcher are the only busy threads. The KV format and the disk tier
  // come from the workload, never from the environment; the system's own
  // span tracing stays off and request telemetry at its default (on).
  setenv("PC_THREADS", "1", 1);
  for (const char* v : {"PC_KV_FORMAT", "PC_DISK_DIR", "PC_DISK_CAPACITY",
                        "PC_REQLOG", "PC_TRACE"}) {
    unsetenv(v);
  }
  pc::obs::set_tracing(false);
  pc::obs::set_request_telemetry(true);
  try {
    return opt.workload.empty() ? run_all(opt, argv[0]) : run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "pc_bench_e2e: " << e.what() << "\n";
    return 2;
  }
}
