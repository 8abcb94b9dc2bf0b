// Observability overhead + artifact bench. Three phases:
//
//   1. Overhead: one 4-lane shared-store server serves paired bursts
//      with tracing runtime-toggled OFF/ON (same binary, same warmed
//      caches). Burst wall time is scheduler-noisy at this scale (single
//      bursts swing tens of percent), so each rep measures an adjacent
//      OFF/ON pair — alternating which arm goes first to cancel drift —
//      and the overhead estimate is the median of the per-rep ON/OFF
//      ratios. The acceptance check is overhead <= 2%.
//
//   2. Trace shape: a fresh 4-lane server, built without a store so it
//      owns one that all four lanes share, runs with tracing enabled from
//      construction. The collected spans are checked for >= 4 server
//      lanes each nesting kv_concat inside a batch_admit and forward_batch
//      inside a batch_step, and for exactly one encode_module span per
//      module across every thread that recorded (the Server's one engine
//      encodes each module once, on the constructing thread), then
//      exported as obs_trace.json (Perfetto) + obs_metrics.prom
//      (Prometheus text).
//
//   3. Request-telemetry overhead under continuous batching: one borrowing
//      lane of four serves paired bursts with the full telemetry stack
//      (tracing + request timelines) toggled OFF/ON, same pairing
//      methodology as phase 1. The overhead check is <= 2%; the final ON
//      burst's timelines are exported as obs_requests.jsonl (the input for
//      `trace_report --requests`), and the phase's availability is
//      completed / submitted from the Server's outcome counters
//      (ServerStats), which must read 1.0.
//
// The overhead checks are reported, not gated: one default run reads
// anywhere in about +-3% on unchanged code, so a <= 2% verdict needs paired
// or repeated runs.
//
// Writes BENCH_obs.json. PC_SMOKE=1 shrinks reps/requests for CI smoke
// runs; PC_REQUESTS/PC_REPS override directly.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/shared_module_store.h"
#include "eval/table.h"
#include "eval/workload.h"
#include "model/induction.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request_timeline.h"
#include "obs/trace.h"
#include "sys/server.h"

namespace {

using namespace pc;

constexpr int kModules = 8;
constexpr int kLanes = 4;

std::string two(int i) {
  char buf[4];
  std::snprintf(buf, sizeof(buf), "%02d", i);
  return buf;
}

std::string build_schema() {
  std::ostringstream os;
  os << "<schema name=\"obsfacts\">\n";
  for (int i = 0; i < kModules; ++i) {
    os << "  <module name=\"d" << two(i) << "\">w" << two(i % 30) << " w"
       << two((i + 7) % 30) << " q" << two(i) << " a" << two(2 * i) << " a"
       << two(2 * i + 1) << " . w" << two((i + 13) % 30) << "</module>\n";
  }
  os << "</schema>";
  return os.str();
}

std::vector<std::string> build_prompts() {
  std::vector<std::string> prompts;
  for (int i = 0; i < kModules; ++i) {
    std::ostringstream os;
    os << "<prompt schema=\"obsfacts\">";
    for (int j = 0; j < 3; ++j) os << "<d" << two((i + j) % kModules) << "/>";
    os << " question: q" << two(i) << "</prompt>";
    prompts.push_back(os.str());
  }
  return prompts;
}

double run_burst(Server& server, const std::vector<std::string>& prompts,
                 const GenerateOptions& opts, int requests) {
  WallTimer timer;
  for (int i = 0; i < requests; ++i) {
    server.submit(prompts[static_cast<size_t>(i) % prompts.size()], opts);
  }
  (void)server.drain();
  return timer.elapsed_ms();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Whether `lane` has a span named `inner` strictly inside a span named
// `outer` (same thread; containment by timestamps).
bool has_nested(const obs::ThreadTrace& lane, const char* outer,
                const char* inner) {
  for (const auto& o : lane.events) {
    if (std::string_view(o.name) != outer) continue;
    for (const auto& e : lane.events) {
      if (std::string_view(e.name) != inner) continue;
      if (e.start_ns >= o.start_ns && e.end_ns <= o.end_ns) return true;
    }
  }
  return false;
}

}  // namespace

int main() {
  setenv("PC_THREADS", "1", /*overwrite=*/0);  // as bench_server: no nesting
  const bool smoke = std::getenv("PC_SMOKE") != nullptr;

  bench::print_banner(
      "Observability overhead — tracing ON vs OFF, same binary",
      smoke ? "PC_SMOKE: reduced reps (shape check only)"
            : "runtime toggle, interleaved bursts, medians");

#if !PC_OBS_ENABLED
  std::cout << "built with PC_OBS=OFF: spans compile to no-ops; nothing to "
               "measure\n";
  return 0;
#else
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  const std::string schema = build_schema();
  const std::vector<std::string> prompts = build_prompts();
  GenerateOptions opts;
  opts.max_new_tokens = 5;
  opts.stop_tokens = {workload.stop_token()};

  // Bursts must be long enough that scheduler noise (lanes timeslicing
  // on few cores) averages out under the per-rep ratio; 160 requests keeps
  // repeated full runs within ~1% of each other.
  const int requests =
      bench::env_int("PC_REQUESTS", smoke ? 8 : 160);
  const int reps = bench::env_int("PC_REPS", smoke ? 2 : 9);

  ServerConfig cfg;
  cfg.n_workers = kLanes;
  cfg.queue_capacity = 16;
  cfg.schemas = {schema};

  // Phase 1: overhead. One server, caches warmed, tracing toggled per
  // burst. Rings are cleared before each ON burst so wrap never differs
  // between reps; per-rep OFF/ON pairs alternate order so slow drift
  // (frequency scaling, background load) cancels out of the ratio.
  std::vector<double> off_ms, on_ms, ratios;
  {
    obs::set_tracing(false);
    SharedModuleStore store(/*device=*/0, /*host=*/0);
    Server server(model, workload.tokenizer(), store, cfg);
    (void)run_burst(server, prompts, opts, requests);  // warmup: encode all
    (void)run_burst(server, prompts, opts, requests);  // warmup: steady state
    for (int r = 0; r < reps; ++r) {
      const auto burst_off = [&] {
        obs::set_tracing(false);
        return run_burst(server, prompts, opts, requests);
      };
      const auto burst_on = [&] {
        obs::clear_traces();
        obs::set_tracing(true);
        return run_burst(server, prompts, opts, requests);
      };
      double off, on;
      if (r % 2 == 0) {
        off = burst_off();
        on = burst_on();
      } else {
        on = burst_on();
        off = burst_off();
      }
      off_ms.push_back(off);
      on_ms.push_back(on);
      ratios.push_back(on / off);
    }
    obs::set_tracing(false);
  }
  const double off_median = median(off_ms);
  const double on_median = median(on_ms);
  const double overhead_pct = (median(ratios) - 1.0) * 100.0;

  TablePrinter table("burst wall time (" + std::to_string(requests) +
                     " requests, " + std::to_string(kLanes) + " lanes)");
  table.set_header({"tracing", "median", "best", "worst"});
  const auto row = [&](const char* name, std::vector<double> v) {
    std::sort(v.begin(), v.end());
    table.add_row({name, TablePrinter::fmt_ms(median(v)),
                   TablePrinter::fmt_ms(v.front()),
                   TablePrinter::fmt_ms(v.back())});
  };
  row("off", off_ms);
  row("on", on_ms);
  table.print(std::cout);
  std::cout << "tracing overhead: " << TablePrinter::fmt(overhead_pct, 2)
            << "% (threshold 2%)\n";

  // Phase 2: trace shape. Fresh server with its own store, traced from
  // construction, so its startup encodes are in the trace.
  obs::clear_traces();
  obs::set_tracing(true);
  {
    Server server(model, workload.tokenizer(), cfg);
    (void)run_burst(server, prompts, opts, requests);
    server.stop();
  }
  obs::set_tracing(false);

  const auto traces = obs::collect_traces();
  const uint64_t dropped = obs::dropped_events();
  int server_lanes = 0;
  // batch_admit containing kv_concat AND batch_step containing
  // forward_batch
  int lanes_nested = 0;
  // encode_module spans on every thread: the engine encodes where it is
  // called, the constructing thread at startup and a lane on a miss.
  int encode_spans = 0;
  size_t total_events = 0;
  for (const auto& lane : traces) {
    total_events += lane.events.size();
    // Threads persist across servers (phase 1's lanes left empty rings
    // after clear_traces); only threads that recorded in phase 2 count.
    if (lane.events.empty()) continue;
    for (const auto& e : lane.events) {
      if (std::string_view(e.name) == "encode_module") ++encode_spans;
    }
    if (lane.name.rfind("lane", 0) != 0) continue;
    ++server_lanes;
    if (has_nested(lane, "batch_admit", "kv_concat") &&
        has_nested(lane, "batch_step", "forward_batch")) {
      ++lanes_nested;
    }
  }

  const bool trace_written = obs::write_perfetto_trace("obs_trace.json");
  obs::write_prometheus_file("obs_metrics.prom");
  const std::string prom = obs::prometheus_text();
  const bool prom_covers_stack =
      prom.find("pc_engine_serves_total") != std::string::npos &&
      prom.find("pc_store_hits_total") != std::string::npos &&
      prom.find("pc_server_completed_total") != std::string::npos;

  std::cout << "trace: " << traces.size() << " threads (" << server_lanes
            << " server lanes, " << lanes_nested
            << " with nested admit and step spans, " << encode_spans
            << " encode spans for " << kModules << " modules), "
            << total_events << " events, " << dropped << " dropped\n"
            << "wrote obs_trace.json (load in ui.perfetto.dev) and "
               "obs_metrics.prom\n";

  const bool overhead_ok = overhead_pct <= 2.0;
  const bool lanes_ok = server_lanes >= 4 && lanes_nested >= 4 &&
                        trace_written;
  const bool encodes_once = encode_spans == kModules && dropped == 0;

  // Phase 3: full-telemetry overhead under continuous batching. The ON arm
  // pays for all of it at once: span tracing and per-request timeline
  // assembly (with annotations and module-miss attribution).
  std::vector<double> batch_off_ms, batch_on_ms, batch_ratios;
  uint64_t timelines_recorded = 0;
  bool reqlog_written = false;
  double availability = 0;
  {
    obs::set_tracing(false);
    obs::set_request_telemetry(false);
    ServerConfig bcfg = cfg;
    bcfg.n_workers = 1;
    bcfg.batch.max_batch = kLanes;
    bcfg.engine.zero_copy = true;
    SharedModuleStore store(/*device=*/0, /*host=*/0);
    Server server(model, workload.tokenizer(), store, bcfg);
    (void)run_burst(server, prompts, opts, requests);  // warmup: encode all
    (void)run_burst(server, prompts, opts, requests);  // warmup: steady state
    const auto burst_off = [&] {
      obs::set_tracing(false);
      obs::set_request_telemetry(false);
      return run_burst(server, prompts, opts, requests);
    };
    const auto burst_on = [&] {
      obs::clear_traces();
      obs::set_tracing(true);
      obs::set_request_telemetry(true);
      return run_burst(server, prompts, opts, requests);
    };
    for (int r = 0; r < reps; ++r) {
      double off, on;
      if (r % 2 == 0) {
        off = burst_off();
        on = burst_on();
      } else {
        on = burst_on();
        off = burst_off();
      }
      batch_off_ms.push_back(off);
      batch_on_ms.push_back(on);
      batch_ratios.push_back(on / off);
    }
    // One final telemetry-on burst feeds the exported request log.
    obs::set_tracing(true);
    obs::set_request_telemetry(true);
    (void)run_burst(server, prompts, opts, requests);
    obs::set_tracing(false);
    timelines_recorded = server.requests().recorded();
    reqlog_written = server.write_request_log("obs_requests.jsonl");
    const ServerStats stats = server.stats();
    availability = stats.submitted > 0
                       ? static_cast<double>(stats.completed) /
                             static_cast<double>(stats.submitted)
                       : 0;
  }
  const double batch_overhead_pct = (median(batch_ratios) - 1.0) * 100.0;
  std::cout << "batching full-telemetry overhead: "
            << TablePrinter::fmt(batch_overhead_pct, 2)
            << "% (threshold 2%); " << timelines_recorded
            << " timelines recorded, availability "
            << TablePrinter::fmt(availability * 100.0, 2) << "%\n"
            << "wrote obs_requests.jsonl (inspect with trace_report "
               "--requests)\n";
  const bool batch_overhead_ok = batch_overhead_pct <= 2.0;
  const bool requests_ok =
      reqlog_written && timelines_recorded >= static_cast<uint64_t>(requests);
  const bool all_served = availability == 1.0;

  std::ofstream out("BENCH_obs.json");
  out << "{\n  \"provenance\": " << bench::provenance_json() << ",\n"
      << "  \"lanes\": " << kLanes << ",\n"
      << "  \"requests_per_burst\": " << requests << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"wall_ms_tracing_off_median\": "
      << TablePrinter::fmt(off_median, 2) << ",\n"
      << "  \"wall_ms_tracing_on_median\": " << TablePrinter::fmt(on_median, 2)
      << ",\n"
      << "  \"overhead_pct\": " << TablePrinter::fmt(overhead_pct, 2) << ",\n"
      << "  \"trace\": {\"threads\": " << traces.size()
      << ", \"server_lanes\": " << server_lanes
      << ", \"lanes_with_nested_admit_and_step\": " << lanes_nested
      << ", \"encode_module_spans\": " << encode_spans
      << ", \"events\": " << total_events
      << ", \"dropped\": " << dropped << "},\n"
      << "  \"wall_ms_batch_telemetry_off_median\": "
      << TablePrinter::fmt(median(batch_off_ms), 2) << ",\n"
      << "  \"wall_ms_batch_telemetry_on_median\": "
      << TablePrinter::fmt(median(batch_on_ms), 2) << ",\n"
      << "  \"batch_telemetry_overhead_pct\": "
      << TablePrinter::fmt(batch_overhead_pct, 2) << ",\n"
      << "  \"request_timelines_recorded\": " << timelines_recorded << ",\n"
      << "  \"availability\": " << TablePrinter::fmt(availability, 6)
      << ",\n"
      << "  \"checks\": {\n"
      << "    \"overhead_within_2pct\": " << (overhead_ok ? "true" : "false")
      << ",\n"
      << "    \"batch_telemetry_overhead_within_2pct\": "
      << (batch_overhead_ok ? "true" : "false") << ",\n"
      << "    \"request_log_written\": " << (requests_ok ? "true" : "false")
      << ",\n"
      << "    \"all_requests_served\": " << (all_served ? "true" : "false")
      << ",\n"
      << "    \"trace_has_4_server_lanes_nested\": "
      << (lanes_ok ? "true" : "false") << ",\n"
      << "    \"trace_encodes_each_module_once\": "
      << (encodes_once ? "true" : "false") << ",\n"
      << "    \"prometheus_covers_engine_store_server\": "
      << (prom_covers_stack ? "true" : "false") << "\n"
      << "  }\n}\n";
  std::cout << "wrote BENCH_obs.json\n";
  return 0;
#endif  // PC_OBS_ENABLED
}
