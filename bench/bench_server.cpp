// Concurrent-serving throughput: one Server over one SharedModuleStore,
// swept over lane counts (ServerConfig::n_workers, one request per lane).
// Prints tables and writes BENCH_server.json (repo root when launched via
// scripts/run_all.sh).
//
// What the sweep shows:
//   * encode-once: modules_encoded equals the number of distinct modules
//     at every lane count (the lanes share one engine and one store);
//   * throughput: requests/s grows with lanes because per-request
//     host-link stalls overlap across them.
//
// Honest-methodology note (matches device_model.h's substitution rule):
// module compute runs fp32 on the CPU, and the host->device link is a
// LinkModel — each request *actually sleeps* for the modeled transfer time
// of its host-resident module bytes plus a fixed link latency, releasing
// the core so transfers overlap like real DMA. The link latency is
// auto-calibrated to ~11x the measured single-request serve time, so the
// lanes saturate beyond the largest swept lane count and scaling stays
// visible even on a single-core host. PC_THREADS is pinned to 1 so kernel
// parallelism does not multiply with lane-level parallelism.
//
// After the store sweep, a fault-rate sweep (0% / 5% / 20% injected
// encode+link+evict faults, sys/fault.h) measures availability under
// degradation: every fault either retries successfully or degrades to a
// full-prefill serve, so availability (served / submitted) should hold at
// 1.0 while the degraded fraction grows with the fault rate. Results land
// in BENCH_server.json under "fault_sweep".
//
// Finally a cluster-sharding sweep (sys/shard.h): 1/2/4/8 ShardRouter
// shards with replication R=min(2,N) serving a Zipf-skewed prompt mix.
// Throughput should grow with the shard count (each shard is a full set of
// lanes overlapping its own link stalls) while the fleet-wide resident
// module footprint stays ~R x the distinct module bytes — NOT N x —
// because only ring owners pin modules and cross-shard fetches are
// streamed back out after the request. A shard-kill chaos run
// (PC_FAULTS "shardkill=...") then holds availability at 1.0 through
// kills, failovers, and auto-restarts. Results land under "shard_sweep" /
// "shard_chaos". `--shard-only` runs just this section at smoke scale and
// writes BENCH_shard_smoke.json (the CI chaos job's quick gate).
//
// Last, a tiered-store sweep (docs/INTERNALS.md §15): the same Zipf traffic
// over one store whose RAM is capped at 50% / 25% / 12.5% of the measured
// module working set, with the disk spill tier and the async prefetch
// pipeline (sys/prefetch.h) enabled. Every capped run must produce
// bitwise-identical texts to the uncapped reference, keep peak resident RAM
// under the cap, and show the prefetcher hiding some disk reads
// (prefetch_hit_rate > 0); a disk-fault chaos run (diskread/diskwrite
// injections) must hold availability at 1.0. Results land under
// "tiered_sweep" / "tiered_chaos". `--tiered-only` runs just this section
// at smoke scale and writes BENCH_tiered_smoke.json (CI's tiered gate).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/engine.h"
#include "core/shared_module_store.h"
#include "eval/table.h"
#include "eval/workload.h"
#include "model/induction.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sys/fault.h"
#include "sys/server.h"
#include "sys/shard.h"

namespace {

using namespace pc;

constexpr int kModules = 10;

std::string two(int i) {
  char buf[4];
  std::snprintf(buf, sizeof(buf), "%02d", i);
  return buf;
}

// 10 fact modules: module i holds "q0i a{2i} a{2i+1} ." plus filler.
std::string build_schema() {
  std::ostringstream os;
  os << "<schema name=\"facts\">\n";
  for (int i = 0; i < kModules; ++i) {
    os << "  <module name=\"d" << two(i) << "\">w" << two(i % 30) << " w"
       << two((i + 7) % 30) << " q" << two(i) << " a" << two(2 * i) << " a"
       << two(2 * i + 1) << " . w" << two((i + 13) % 30) << "</module>\n";
  }
  os << "</schema>";
  return os.str();
}

// Each prompt imports 4 modules (the asked one plus three others) and asks
// one question; 2 variants per asked module -> 20 distinct prompts.
std::vector<std::string> build_prompts() {
  std::vector<std::string> prompts;
  for (int v = 0; v < 2; ++v) {
    for (int i = 0; i < kModules; ++i) {
      std::ostringstream os;
      os << "<prompt schema=\"facts\">";
      for (int j = 0; j < 4; ++j) {
        os << "<d" << two((i + j * (v + 1)) % kModules) << "/>";
      }
      os << " question: q" << two(i) << "</prompt>";
      prompts.push_back(os.str());
    }
  }
  return prompts;
}

// Shared-module traffic for the batching sweep: every request imports the
// same four modules, so co-resident requests borrow the same rows. The
// contrast workload is build_prompts(), whose module sets spread over all
// ten modules ("private": each in-flight request mostly borrows modules
// no other in-flight request uses).
std::vector<std::string> build_shared_prompts() {
  std::vector<std::string> prompts;
  for (int i = 0; i < 4; ++i) {
    std::ostringstream os;
    os << "<prompt schema=\"facts\"><d00/><d01/><d02/><d03/> question: q"
       << two(i) << "</prompt>";
    prompts.push_back(os.str());
  }
  return prompts;
}

struct RunResult {
  int workers = 0;
  int requests = 0;
  int device_modules = 0;  // modules on the capped device tier after drain
  size_t host_link_bytes = 0;  // module bytes the requests moved from host
  ServerStats stats;
};

// One row of the module-storage-format comparison (fp32/q8/q4): resident
// footprint of the encoded module set, the modeled host-link time to move
// it once, and measured serve time over both retrieval paths.
struct KvFormatResult {
  std::string format;                // "fp32", "q8", or "q4"
  size_t module_resident_bytes = 0;  // encoded module set, resident payload
  double link_transfer_ms = 0;       // modeled: the whole set crossing the link
  double copy_serve_ms = 0;          // mean serve, memcpy path
  double zero_copy_serve_ms = 0;     // mean serve, in-place path
};

struct BatchRunResult {
  std::string traffic;  // "shared" or "private" module reuse across requests
  int max_batch = 0;
  int requests = 0;
  // max_batch owned tails of the mix's longest request: the most KV the
  // batch may hold if it holds no module bytes.
  size_t tail_bound_bytes = 0;
  // Module bytes the responses report as copied (host or device): 0 when
  // every request borrows its modules in place.
  size_t module_bytes_copied = 0;
  ServerStats stats;
};

struct FaultRunResult {
  double rate = 0;
  std::string spec;  // "" for the clean reference run
  // "pool": `workers` lanes of one request; "batch": one borrowing lane of
  // `workers` requests.
  std::string mode = "pool";
  int workers = 0;
  int requests = 0;
  uint64_t injected = 0;
  ServerStats stats;

  double availability() const {
    return stats.submitted == 0
               ? 1.0
               : static_cast<double>(stats.completed) /
                     static_cast<double>(stats.submitted);
  }
};

struct ShardRunResult {
  int shards = 0;
  int replication = 0;
  int requests = 0;
  std::string fault_spec;        // "" for the clean sweep rows
  uint64_t injected = 0;         // shardkill injections during this run
  uint64_t resp_failover_sum = 0;  // sum of per-response failover counts
  bool all_served = true;        // every response kOk or kDegraded
  ShardRouterStats stats;
};

// Deterministic Zipf(s) popularity over the prompt mix: rank-k probability
// proportional to (k+1)^-s, sampled from a counter-based hash so the
// traffic replays identically across shard counts.
constexpr double kZipfS = 0.8;

std::vector<double> zipf_cdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

size_t zipf_pick(const std::vector<double>& cdf, uint64_t seed, int i) {
  const uint64_t h = splitmix64(seed ^ splitmix64(static_cast<uint64_t>(i)));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

// One ShardRouter run over Zipf traffic. `kill_at` >= 0 kills shard 0 after
// that many submits (the deterministic smoke's failover exercise);
// probabilistic kills come from an armed PC_FAULTS shardkill spec instead.
ShardRunResult run_shard_config(const Model& model,
                                const AccuracyWorkload& workload,
                                const std::string& schema,
                                const std::vector<std::string>& prompts,
                                const GenerateOptions& opts,
                                const LinkModel& link, int n_shards,
                                int requests, int restart_after, int kill_at) {
  ShardRunResult run;
  run.shards = n_shards;
  run.replication = std::min(2, n_shards);
  run.requests = requests;

  ShardConfig cfg;
  cfg.n_shards = n_shards;
  cfg.replication = run.replication;
  cfg.server.n_workers = 2;
  cfg.server.queue_capacity = 16;
  cfg.server.schemas = {schema};
  cfg.server.link = link;
  // Inter-shard interconnect: faster than the host link but not free, so
  // cross-shard fetches show up as measurable extra stall.
  cfg.cross_link.latency_s = link.latency_s / 4.0;
  cfg.cross_link.bandwidth_bytes_per_s = 8e9;
  cfg.restart_after_submits = restart_after;

  const std::vector<double> cdf = zipf_cdf(prompts.size(), kZipfS);
  const uint64_t injected_before =
      FaultInjector::global().injected(FaultPoint::kShardKill);
  {
    ShardRouter router(model, workload.tokenizer(), cfg);
    for (int i = 0; i < requests; ++i) {
      if (i == kill_at) router.kill_shard(0);
      router.submit(prompts[zipf_pick(cdf, 0x5eedf00dULL, i)], opts);
    }
    std::vector<ShardResponse> responses = router.drain();
    for (const ShardResponse& r : responses) {
      run.resp_failover_sum += static_cast<uint64_t>(r.failovers);
      if (r.resp.status != ServeStatus::kOk &&
          r.resp.status != ServeStatus::kDegraded) {
        run.all_served = false;
      }
    }
    // Heal before the final footprint snapshot: a restarted shard's owned
    // share is re-replicated, so resident_bytes_total reports the steady
    // state (~R x distinct bytes), not a transient hole.
    (void)router.replicate_now();
    run.stats = router.stats();
  }
  run.injected =
      FaultInjector::global().injected(FaultPoint::kShardKill) - injected_before;
  return run;
}

void print_shard_results(const std::vector<ShardRunResult>& runs) {
  TablePrinter table(
      "cluster sharding: Zipf traffic, replication R=min(2,N), streamed "
      "cross-fetches");
  table.set_header({"shards", "R", "req/s", "wall ms", "xfetch", "xfetch KB",
                    "resident KB", "kills", "failovers", "avail"});
  for (const ShardRunResult& r : runs) {
    table.add_row(
        {std::to_string(r.shards), std::to_string(r.replication),
         TablePrinter::fmt(r.stats.throughput_rps, 1),
         TablePrinter::fmt(r.stats.wall_ms, 1),
         std::to_string(r.stats.cross_fetches),
         TablePrinter::fmt(
             static_cast<double>(r.stats.cross_fetch_bytes) / 1e3, 1),
         TablePrinter::fmt(
             static_cast<double>(r.stats.resident_bytes_total) / 1e3, 1),
         std::to_string(r.stats.kills), std::to_string(r.stats.failovers),
         TablePrinter::fmt(r.stats.availability, 3)});
  }
  table.print(std::cout);
}

void print_shard_chaos(const ShardRunResult& r) {
  TablePrinter table("shard-kill chaos: availability through kills/restarts");
  table.set_header({"spec", "injected", "kills", "failovers", "restarts",
                    "degraded", "rereplic", "avail"});
  table.add_row({r.fault_spec, std::to_string(r.injected),
                 std::to_string(r.stats.kills),
                 std::to_string(r.stats.failovers),
                 std::to_string(r.stats.restarts),
                 std::to_string(r.stats.degraded),
                 std::to_string(r.stats.rereplications),
                 TablePrinter::fmt(r.stats.availability, 3)});
  table.print(std::cout);
}

std::string shard_run_json(const ShardRunResult& r) {
  std::ostringstream out;
  const ShardRouterStats& s = r.stats;
  out << "{\"shards\": " << r.shards << ", \"replication\": " << r.replication
      << ", \"requests\": " << r.requests
      << ", \"zipf_s\": " << TablePrinter::fmt(kZipfS, 2);
  if (!r.fault_spec.empty()) {
    out << ", \"fault_spec\": \"" << r.fault_spec << "\""
        << ", \"injected\": " << r.injected;
  }
  out << ", \"wall_ms\": " << TablePrinter::fmt(s.wall_ms, 1)
      << ", \"throughput_rps\": " << TablePrinter::fmt(s.throughput_rps, 2)
      << ", \"submitted\": " << s.submitted
      << ", \"completed\": " << s.completed << ", \"degraded\": " << s.degraded
      << ", \"timeouts\": " << s.timeouts << ", \"failed\": " << s.failed
      << ", \"kills\": " << s.kills << ", \"restarts\": " << s.restarts
      << ", \"failovers\": " << s.failovers
      << ", \"cross_fetches\": " << s.cross_fetches
      << ", \"cross_fetch_bytes\": " << s.cross_fetch_bytes
      << ", \"rereplications\": " << s.rereplications
      << ", \"unavailable_degrades\": " << s.unavailable_degrades
      << ", \"resident_bytes_total\": " << s.resident_bytes_total
      << ", \"availability\": " << TablePrinter::fmt(s.availability, 4) << "}";
  return out.str();
}

// --shard-only writes this instead of BENCH_server.json: a quick gate for
// CI (clean 1/2-shard rows plus a deterministic mid-stream shard kill).
void write_shard_smoke_json(const std::vector<ShardRunResult>& runs,
                            const ShardRunResult& kill_run) {
  bool all_served = kill_run.all_served;
  bool failovers_reconcile =
      kill_run.stats.failovers == kill_run.resp_failover_sum;
  for (const ShardRunResult& r : runs) {
    all_served = all_served && r.all_served;
    if (r.stats.failovers != r.resp_failover_sum) failovers_reconcile = false;
  }
  const bool kill_recovered = kill_run.stats.kills >= 1 &&
                              kill_run.stats.availability >= 1.0 &&
                              kill_run.stats.failed == 0 &&
                              kill_run.stats.timeouts == 0;

  std::ofstream out("BENCH_shard_smoke.json");
  out << "{\n"
      << "  \"provenance\": " << bench::provenance_json() << ",\n"
      << "  \"shard_sweep\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    out << "    " << shard_run_json(runs[i])
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"shard_kill\": " << shard_run_json(kill_run) << ",\n"
      << "  \"checks\": {\n"
      << "    \"shard_smoke_all_served\": " << (all_served ? "true" : "false")
      << ",\n"
      << "    \"shard_smoke_kill_recovered\": "
      << (kill_recovered ? "true" : "false") << ",\n"
      << "    \"shard_smoke_failovers_reconcile\": "
      << (failovers_reconcile ? "true" : "false") << "\n"
      << "  }\n}\n";
  std::cout << "\nwrote BENCH_shard_smoke.json\n";
}

// One row of the tiered-store sweep: RAM-capped serving over the disk
// spill tier with the async prefetch pipeline, checked bitwise against the
// uncapped reference run.
struct TieredRunResult {
  std::string label;         // "uncapped", "50%", "25%", "12.5%"
  size_t ram_cap_bytes = 0;  // device+host RAM budget; 0 = uncapped
  int requests = 0;
  std::string fault_spec;    // "" except for the disk-fault chaos run
  uint64_t injected = 0;     // diskread+diskwrite injections during the run
  bool bitwise_identical = true;  // all texts match the reference, all served
  size_t peak_resident = 0;       // store high-water RAM mark
  uint64_t prefetch_prompts = 0;  // prompts the pipeline accepted
  uint64_t prefetch_keys = 0;     // store.prefetch() calls it issued
  DiskTierStats disk;
  ServerStats stats;

  bool all_served() const {
    return stats.completed == stats.submitted && stats.failed == 0 &&
           stats.timeouts == 0 && stats.shed == 0;
  }
  // Conservation law over the spill records (exact at quiescence): every
  // spill is consumed by exactly one fault-in, disk eviction, or failed
  // read, or is still on disk.
  bool disk_reconciles() const {
    return disk.spills == disk.faults + disk.evictions + disk.read_failures +
                              static_cast<uint64_t>(disk.spilled);
  }
};

// One tiered run over Zipf traffic. ram_cap 0 is the uncapped reference
// (no disk tier, no prefetch); otherwise RAM is capped at ram_cap with the
// spill tier unbounded and the prefetch pipeline on. `texts_out` collects
// served texts in submission order (the reference run); `reference`
// compares against them bitwise.
TieredRunResult run_tiered_config(const Model& model,
                                  const AccuracyWorkload& workload,
                                  const std::string& schema,
                                  const std::vector<std::string>& prompts,
                                  const GenerateOptions& opts,
                                  const LinkModel& link, size_t ram_cap,
                                  int requests,
                                  const std::vector<std::string>* reference,
                                  std::vector<std::string>* texts_out) {
  TieredRunResult run;
  run.ram_cap_bytes = ram_cap;
  run.requests = requests;

  ServerConfig cfg;
  cfg.n_workers = 2;
  cfg.queue_capacity = 16;
  cfg.schemas = {schema};
  cfg.link = link;

  // Host gets a token 1-byte tier so every RAM-resident module sits on the
  // "device" side of the cap and overflow goes straight to disk.
  std::unique_ptr<SharedModuleStore> store;
  if (ram_cap == 0) {
    store = std::make_unique<SharedModuleStore>(0, 0);
  } else {
    DiskTierConfig disk;
    disk.enabled = true;
    // Simulated disk link: cheaper than the host link (same shape as the
    // shard sweep's interconnect) but not free, so fault-ins the prefetcher
    // fails to hide show up as measurable admission stall.
    disk.link.latency_s = link.latency_s / 4.0;
    disk.link.bandwidth_bytes_per_s = 8e9;
    cfg.prefetch = true;
    cfg.prefetch_depth = 4;
    store = std::make_unique<SharedModuleStore>(ram_cap, /*host=*/1, disk);
  }

  const std::vector<double> cdf = zipf_cdf(prompts.size(), kZipfS);
  {
    Server server(model, workload.tokenizer(), *store, cfg);
    for (int i = 0; i < requests; ++i) {
      server.submit(prompts[zipf_pick(cdf, 0x7143eedULL, i)], opts);
    }
    std::vector<ServerResponse> responses = server.drain();
    for (const ServerResponse& r : responses) {
      if (!is_served(r.status)) run.bitwise_identical = false;
      if (texts_out != nullptr) texts_out->push_back(r.result.text);
      if (reference != nullptr &&
          (r.id >= reference->size() ||
           (*reference)[static_cast<size_t>(r.id)] != r.result.text)) {
        run.bitwise_identical = false;
      }
    }
    run.stats = server.stats();
    if (const StorePrefetcher* p = server.prefetcher()) {
      const StorePrefetcher::Stats ps = p->stats();
      run.prefetch_prompts = ps.prompts;
      run.prefetch_keys = ps.keys_issued;
    }
  }
  // Past the server's scope: workers and the prefetcher have joined, so the
  // disk counters are quiescent and the conservation law must hold exactly.
  run.peak_resident = store->peak_resident_bytes();
  run.disk = store->disk_stats();
  return run;
}

struct TieredSweep {
  TieredRunResult reference;
  std::vector<TieredRunResult> capped;  // 50% / 25% / 12.5% RAM caps
  TieredRunResult chaos;                // tightest cap + disk faults
};

TieredSweep run_tiered_sweep(const Model& model,
                             const AccuracyWorkload& workload,
                             const std::string& schema,
                             const std::vector<std::string>& prompts,
                             const GenerateOptions& opts,
                             const LinkModel& link, size_t module_bytes,
                             int requests) {
  TieredSweep sweep;
  std::vector<std::string> ref_texts;
  sweep.reference =
      run_tiered_config(model, workload, schema, prompts, opts, link,
                        /*ram_cap=*/0, requests, nullptr, &ref_texts);
  sweep.reference.label = "uncapped";

  const struct { const char* label; size_t divisor; } kCaps[] = {
      {"50%", 2}, {"25%", 4}, {"12.5%", 8}};
  for (const auto& cap : kCaps) {
    TieredRunResult r = run_tiered_config(
        model, workload, schema, prompts, opts, link,
        std::max<size_t>(1, module_bytes / cap.divisor), requests, &ref_texts,
        nullptr);
    r.label = cap.label;
    sweep.capped.push_back(std::move(r));
  }

  // Disk-fault chaos at the tightest cap: injected read faults fall back to
  // a re-encode (deterministic, so texts stay bitwise-identical) and write
  // faults degrade the spill to a destroy-eviction — availability holds.
  const std::string main_spec = FaultInjector::global().spec();
  const std::string chaos_spec = "seed=77,diskread=0.2,diskwrite=0.2";
  FaultInjector::global().configure(chaos_spec);
  const uint64_t injected_before =
      FaultInjector::global().injected(FaultPoint::kDiskRead) +
      FaultInjector::global().injected(FaultPoint::kDiskWrite);
  sweep.chaos = run_tiered_config(model, workload, schema, prompts, opts,
                                  link, std::max<size_t>(1, module_bytes / 8),
                                  requests, &ref_texts, nullptr);
  sweep.chaos.label = "12.5%+faults";
  sweep.chaos.fault_spec = chaos_spec;
  sweep.chaos.injected =
      FaultInjector::global().injected(FaultPoint::kDiskRead) +
      FaultInjector::global().injected(FaultPoint::kDiskWrite) -
      injected_before;
  FaultInjector::global().configure(main_spec);
  return sweep;
}

void print_tiered_results(const TieredSweep& sweep) {
  TablePrinter table(
      "tiered store: RAM-capped Zipf serving, disk spill + async prefetch");
  table.set_header({"ram cap", "cap KB", "req/s", "ttft p50", "spills",
                    "faults", "pf hit", "stall ms", "peak KB", "bitwise"});
  std::vector<const TieredRunResult*> rows;
  rows.push_back(&sweep.reference);
  for (const TieredRunResult& r : sweep.capped) rows.push_back(&r);
  for (const TieredRunResult* r : rows) {
    table.add_row(
        {r->label,
         r->ram_cap_bytes == 0
             ? std::string("-")
             : TablePrinter::fmt(static_cast<double>(r->ram_cap_bytes) / 1e3,
                                 1),
         TablePrinter::fmt(r->stats.throughput_rps, 1),
         TablePrinter::fmt_ms(r->stats.ttft.p50_ms()),
         std::to_string(r->disk.spills), std::to_string(r->disk.faults),
         TablePrinter::fmt(r->disk.prefetch_hit_rate(), 3),
         TablePrinter::fmt(r->disk.stall_ms(), 1),
         TablePrinter::fmt(static_cast<double>(r->peak_resident) / 1e3, 1),
         r->bitwise_identical ? "yes" : "NO"});
  }
  table.print(std::cout);
}

void print_tiered_chaos(const TieredRunResult& r) {
  TablePrinter table("disk-fault chaos: availability through read/write faults");
  table.set_header({"spec", "injected", "read fail", "spill fail", "faults",
                    "avail", "bitwise"});
  table.add_row({r.fault_spec, std::to_string(r.injected),
                 std::to_string(r.disk.read_failures),
                 std::to_string(r.disk.spill_failures),
                 std::to_string(r.disk.faults),
                 TablePrinter::fmt(r.all_served() ? 1.0 : 0.0, 3),
                 r.bitwise_identical ? "yes" : "NO"});
  table.print(std::cout);
}

std::string tiered_run_json(const TieredRunResult& r) {
  std::ostringstream out;
  const DiskTierStats& d = r.disk;
  const ServerStats& s = r.stats;
  out << "{\"label\": \"" << r.label << "\", \"ram_cap_bytes\": "
      << r.ram_cap_bytes << ", \"requests\": " << r.requests
      << ", \"zipf_s\": " << TablePrinter::fmt(kZipfS, 2);
  if (!r.fault_spec.empty()) {
    out << ", \"fault_spec\": \"" << r.fault_spec << "\""
        << ", \"injected\": " << r.injected;
  }
  out << ", \"wall_ms\": " << TablePrinter::fmt(s.wall_ms, 1)
      << ", \"throughput_rps\": " << TablePrinter::fmt(s.throughput_rps, 2)
      << ", \"ttft_p50_ms\": " << TablePrinter::fmt(s.ttft.p50_ms(), 3)
      << ", \"ttft_p99_ms\": " << TablePrinter::fmt(s.ttft.p99_ms(), 3)
      << ", \"modules_encoded\": " << s.modules_encoded
      << ", \"peak_resident_bytes\": " << r.peak_resident
      << ", \"spills\": " << d.spills << ", \"faults\": " << d.faults
      << ", \"prefetch_hits\": " << d.prefetch_hits
      << ", \"prefetch_misses\": " << d.prefetch_misses
      << ", \"prefetch_hit_rate\": "
      << TablePrinter::fmt(d.prefetch_hit_rate(), 4)
      << ", \"disk_evictions\": " << d.evictions
      << ", \"read_failures\": " << d.read_failures
      << ", \"spill_failures\": " << d.spill_failures
      << ", \"stall_ms\": " << TablePrinter::fmt(d.stall_ms(), 3)
      << ", \"spilled_final\": " << d.spilled
      << ", \"spilled_bytes_final\": " << d.spilled_bytes
      << ", \"prefetch_prompts\": " << r.prefetch_prompts
      << ", \"prefetch_keys\": " << r.prefetch_keys
      << ", \"bitwise_identical\": "
      << (r.bitwise_identical ? "true" : "false")
      << ", \"all_served\": " << (r.all_served() ? "true" : "false") << "}";
  return out.str();
}

// The tiered acceptance checks, shared by the smoke gate and the full run.
struct TieredChecks {
  bool all_served = true;
  bool bitwise = true;        // every capped/chaos run matched the reference
  bool rss_bounded = true;    // peak resident RAM <= cap (+1B host slice)
  bool spills_occur = true;   // every capped run actually hit the disk tier
  bool prefetch_hits = false; // the pipeline hid at least one disk read
  bool reconciles = true;     // spill-record conservation, every run
  bool chaos_available = true;
};

TieredChecks check_tiered(const TieredSweep& sweep) {
  TieredChecks c;
  c.all_served = sweep.reference.all_served();
  std::vector<const TieredRunResult*> capped_and_chaos;
  for (const TieredRunResult& r : sweep.capped) capped_and_chaos.push_back(&r);
  capped_and_chaos.push_back(&sweep.chaos);
  for (const TieredRunResult* r : capped_and_chaos) {
    if (!r->all_served()) c.all_served = false;
    if (!r->bitwise_identical) c.bitwise = false;
    if (r->peak_resident > r->ram_cap_bytes + 1) c.rss_bounded = false;
    if (!r->disk_reconciles()) c.reconciles = false;
    if (r->fault_spec.empty()) {
      if (r->disk.spills == 0) c.spills_occur = false;
      if (r->disk.prefetch_hits > 0) c.prefetch_hits = true;
    }
  }
  c.chaos_available =
      sweep.chaos.all_served() && sweep.chaos.bitwise_identical;
  return c;
}

void write_tiered_checks(std::ostream& out, const TieredChecks& c) {
  out << "    \"tiered_all_served\": " << (c.all_served ? "true" : "false")
      << ",\n"
      << "    \"tiered_bitwise_identical\": " << (c.bitwise ? "true" : "false")
      << ",\n"
      << "    \"tiered_rss_bounded_by_cap\": "
      << (c.rss_bounded ? "true" : "false") << ",\n"
      << "    \"tiered_capped_runs_spill\": "
      << (c.spills_occur ? "true" : "false") << ",\n"
      << "    \"tiered_prefetch_hides_reads\": "
      << (c.prefetch_hits ? "true" : "false") << ",\n"
      << "    \"tiered_disk_accounting_reconciles\": "
      << (c.reconciles ? "true" : "false") << ",\n"
      << "    \"tiered_chaos_availability_is_full\": "
      << (c.chaos_available ? "true" : "false");
}

// --tiered-only writes this instead of BENCH_server.json: CI's quick gate
// for the disk tier (capped rows bitwise vs uncapped, plus disk-fault
// chaos).
void write_tiered_smoke_json(const TieredSweep& sweep) {
  const TieredChecks checks = check_tiered(sweep);
  std::ofstream out("BENCH_tiered_smoke.json");
  out << "{\n"
      << "  \"provenance\": " << bench::provenance_json() << ",\n"
      << "  \"tiered_reference\": " << tiered_run_json(sweep.reference)
      << ",\n"
      << "  \"tiered_sweep\": [\n";
  for (size_t i = 0; i < sweep.capped.size(); ++i) {
    out << "    " << tiered_run_json(sweep.capped[i])
        << (i + 1 < sweep.capped.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"tiered_chaos\": " << tiered_run_json(sweep.chaos)
      << ",\n"
      << "  \"checks\": {\n";
  write_tiered_checks(out, checks);
  out << "\n  }\n}\n";
  std::cout << "\nwrote BENCH_tiered_smoke.json\n";
}

void print_results(const std::vector<RunResult>& runs) {
  TablePrinter table("serving throughput: lanes over one store");
  table.set_header({"workers", "req/s", "ttft p50", "ttft p99", "encoded",
                    "resident MB", "on device", "hit rate", "waits"});
  for (const RunResult& r : runs) {
    table.add_row(
        {std::to_string(r.workers),
         TablePrinter::fmt(r.stats.throughput_rps, 1),
         TablePrinter::fmt_ms(r.stats.ttft.p50_ms()),
         TablePrinter::fmt_ms(r.stats.ttft.p99_ms()),
         std::to_string(r.stats.modules_encoded),
         TablePrinter::fmt(
             static_cast<double>(r.stats.resident_module_bytes) / 1e6, 2),
         std::to_string(r.device_modules),
         TablePrinter::fmt(r.stats.store_hit_rate, 3),
         std::to_string(r.stats.single_flight_waits)});
  }
  table.print(std::cout);
}

void print_kv_format_results(const std::vector<KvFormatResult>& runs) {
  TablePrinter table("module storage format: fp32 vs q8 (Q8_0) vs q4 (Q4_0)");
  table.set_header(
      {"format", "resident KB", "link ms", "copy serve", "zero-copy serve"});
  for (const KvFormatResult& r : runs) {
    table.add_row(
        {r.format,
         TablePrinter::fmt(static_cast<double>(r.module_resident_bytes) / 1e3,
                           1),
         TablePrinter::fmt_ms(r.link_transfer_ms),
         TablePrinter::fmt_ms(r.copy_serve_ms),
         TablePrinter::fmt_ms(r.zero_copy_serve_ms)});
  }
  table.print(std::cout);
}

void print_batch_results(const std::vector<BatchRunResult>& runs) {
  TablePrinter table(
      "continuous batching: shared vs private module traffic (borrowed KV)");
  table.set_header({"traffic", "batch", "req/s", "ttft p50", "iters",
                    "kv peak KB", "tail bound KB", "copied B"});
  for (const BatchRunResult& r : runs) {
    table.add_row(
        {r.traffic, std::to_string(r.max_batch),
         TablePrinter::fmt(r.stats.throughput_rps, 1),
         TablePrinter::fmt_ms(r.stats.ttft.p50_ms()),
         std::to_string(r.stats.batch_iterations),
         TablePrinter::fmt(static_cast<double>(r.stats.kv_peak_bytes) / 1e3,
                           1),
         TablePrinter::fmt(static_cast<double>(r.tail_bound_bytes) / 1e3, 1),
         std::to_string(r.module_bytes_copied)});
  }
  table.print(std::cout);
}

void print_fault_results(const std::vector<FaultRunResult>& runs) {
  TablePrinter table("availability under injected faults (encode+link+evict)");
  table.set_header({"mode", "fault rate", "injected", "ok", "degraded",
                    "retries", "availability", "ttft p50", "degraded p50"});
  for (const FaultRunResult& r : runs) {
    table.add_row(
        {r.mode, TablePrinter::fmt(r.rate, 2), std::to_string(r.injected),
         std::to_string(r.stats.completed - r.stats.degraded),
         std::to_string(r.stats.degraded), std::to_string(r.stats.retries),
         TablePrinter::fmt(r.availability(), 3),
         TablePrinter::fmt_ms(r.stats.ttft.p50_ms()),
         TablePrinter::fmt_ms(r.stats.degraded_ttft.p50_ms())});
  }
  table.print(std::cout);
}

void write_json(const std::vector<RunResult>& runs,
                const std::vector<BatchRunResult>& batch_runs,
                const std::vector<FaultRunResult>& fault_runs,
                const std::vector<KvFormatResult>& kv_format_runs,
                const std::vector<ShardRunResult>& shard_runs,
                const ShardRunResult& shard_chaos,
                const TieredSweep& tiered,
                size_t distinct_modules,
                size_t module_bytes, const LinkModel& link,
                double calibrated_serve_ms) {
  // Acceptance checks, evaluated over the sweep. The device tier is capped
  // at 40% of the module bytes to put the store under tier pressure, so it
  // must hold at least one module (and the rest spill to host).
  bool shared_encodes_equal_distinct = true;
  bool shared_throughput_increases = true;
  bool device_tier_holds_a_module = true;
  double prev_shared_rps = 0;
  for (const RunResult& r : runs) {
    if (r.stats.modules_encoded != distinct_modules) {
      shared_encodes_equal_distinct = false;
    }
    if (r.device_modules < 1) device_tier_holds_a_module = false;
    if (r.stats.throughput_rps <= prev_shared_rps) {
      shared_throughput_increases = false;
    }
    prev_shared_rps = r.stats.throughput_rps;
  }

  std::ofstream out("BENCH_server.json");
  out << "{\n"
      << "  \"provenance\": " << bench::provenance_json() << ",\n"
      << "  \"distinct_modules\": " << distinct_modules << ",\n"
      << "  \"module_bytes_total\": " << module_bytes << ",\n"
      << "  \"calibrated_serve_ms\": "
      << TablePrinter::fmt(calibrated_serve_ms, 3) << ",\n"
      << "  \"link_model\": {\"latency_s\": " << link.latency_s
      << ", \"bandwidth_bytes_per_s\": " << link.bandwidth_bytes_per_s
      << "},\n"
      << "  \"note\": \"host-link stalls are simulated sleeps (see "
         "bench_server.cpp header); compute is measured fp32 CPU\",\n"
      << "  \"configs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    const ServerStats& s = r.stats;
    out << "    {\"workers\": " << r.workers
        << ", \"requests\": " << r.requests
        << ", \"failed\": " << s.failed
        << ", \"wall_ms\": " << TablePrinter::fmt(s.wall_ms, 1)
        << ", \"throughput_rps\": " << TablePrinter::fmt(s.throughput_rps, 2)
        << ", \"ttft_p50_ms\": " << TablePrinter::fmt(s.ttft.p50_ms(), 3)
        << ", \"ttft_p99_ms\": " << TablePrinter::fmt(s.ttft.p99_ms(), 3)
        << ", \"engine_ttft_p50_ms\": "
        << TablePrinter::fmt(s.engine_ttft.p50_ms(), 3)
        << ", \"modules_encoded\": " << s.modules_encoded
        << ", \"thrash_reencodes\": " << s.thrash_reencodes
        << ", \"store_hits\": " << s.store.hits
        << ", \"store_misses\": " << s.store.misses
        << ", \"store_hit_rate\": " << TablePrinter::fmt(s.store_hit_rate, 4)
        << ", \"resident_module_bytes\": " << s.resident_module_bytes
        << ", \"device_modules\": " << r.device_modules
        << ", \"host_link_bytes\": " << r.host_link_bytes
        << ", \"single_flight_waits\": " << s.single_flight_waits << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  // Batching acceptance: at 8-way concurrency the iteration loop must beat
  // its own single-request pacing by >= 1.5x, and — whatever the module
  // traffic — the batch holds no module bytes, only tails (§3.4): no
  // request copies a module, the peak KV stays within max_batch owned
  // tails, and a drained batch holds nothing.
  double batching_speedup_at_8 = 0;
  bool kv_holds_only_tails = true;
  bool kv_released_after_drain = true;
  {
    double rps1 = 0, rps8 = 0;
    for (const BatchRunResult& r : batch_runs) {
      if (r.traffic != "shared") continue;
      if (r.max_batch == 1) rps1 = r.stats.throughput_rps;
      if (r.max_batch == 8) rps8 = r.stats.throughput_rps;
    }
    if (rps1 > 0) batching_speedup_at_8 = rps8 / rps1;
    for (const BatchRunResult& r : batch_runs) {
      if (r.module_bytes_copied != 0 || r.stats.kv_peak_bytes == 0 ||
          r.stats.kv_peak_bytes > r.tail_bound_bytes) {
        kv_holds_only_tails = false;
      }
      if (r.stats.kv_live_bytes != 0) kv_released_after_drain = false;
    }
  }

  out << "  ],\n  \"batching\": [\n";
  for (size_t i = 0; i < batch_runs.size(); ++i) {
    const BatchRunResult& r = batch_runs[i];
    const ServerStats& s = r.stats;
    out << "    {\"traffic\": \"" << r.traffic << "\""
        << ", \"max_batch\": " << r.max_batch
        << ", \"requests\": " << r.requests
        << ", \"failed\": " << s.failed
        << ", \"wall_ms\": " << TablePrinter::fmt(s.wall_ms, 1)
        << ", \"throughput_rps\": " << TablePrinter::fmt(s.throughput_rps, 2)
        << ", \"ttft_p50_ms\": " << TablePrinter::fmt(s.ttft.p50_ms(), 3)
        << ", \"ttft_p99_ms\": " << TablePrinter::fmt(s.ttft.p99_ms(), 3)
        << ", \"batch_iterations\": " << s.batch_iterations
        << ", \"batch_tokens\": " << s.batch_tokens
        << ", \"kv_peak_bytes\": " << s.kv_peak_bytes
        << ", \"kv_live_bytes_after_drain\": " << s.kv_live_bytes
        << ", \"tail_bound_bytes\": " << r.tail_bound_bytes
        << ", \"module_bytes_copied\": " << r.module_bytes_copied << "}"
        << (i + 1 < batch_runs.size() ? "," : "") << "\n";
  }

  // Fault-sweep acceptance: degradable faults (encode/link/evict) must not
  // cost availability — every request is still served, some degraded.
  bool fault_availability_full = true;
  bool degraded_grows_with_rate = true;
  uint64_t prev_degraded = 0;
  for (const FaultRunResult& r : fault_runs) {
    if (r.availability() < 1.0) fault_availability_full = false;
    if (r.mode != "pool") continue;  // monotonicity is a per-mode property
    if (r.stats.degraded < prev_degraded) degraded_grows_with_rate = false;
    prev_degraded = r.stats.degraded;
  }

  // Format acceptance: q8 module storage must shrink the resident module
  // set to <= 30% of fp32 (Q8_0 is ~25% payload plus per-row scales), and
  // q4 to <= 16% (Q4_0 is 12.5% payload plus one fp32 scale per 32-value
  // block; exactly 20 bytes per block vs 128 fp32 bytes, so the bound holds
  // with a little margin for final-block padding when kv_dim is not a
  // multiple of 32).
  size_t fp32_resident = 0, q8_resident = 0, q4_resident = 0;
  for (const KvFormatResult& r : kv_format_runs) {
    if (r.format == "fp32") fp32_resident = r.module_resident_bytes;
    if (r.format == "q8") q8_resident = r.module_resident_bytes;
    if (r.format == "q4") q4_resident = r.module_resident_bytes;
  }
  const bool q8_resident_le_30pct =
      fp32_resident > 0 &&
      static_cast<double>(q8_resident) <= 0.30 * static_cast<double>(fp32_resident);
  const bool q4_resident_le_16pct =
      fp32_resident > 0 &&
      static_cast<double>(q4_resident) <= 0.16 * static_cast<double>(fp32_resident);

  out << "  ],\n  \"kv_format\": [\n";
  for (size_t i = 0; i < kv_format_runs.size(); ++i) {
    const KvFormatResult& r = kv_format_runs[i];
    out << "    {\"format\": \"" << r.format << "\""
        << ", \"module_resident_bytes\": " << r.module_resident_bytes
        << ", \"link_transfer_ms\": "
        << TablePrinter::fmt(r.link_transfer_ms, 3)
        << ", \"copy_serve_ms\": " << TablePrinter::fmt(r.copy_serve_ms, 3)
        << ", \"zero_copy_serve_ms\": "
        << TablePrinter::fmt(r.zero_copy_serve_ms, 3) << "}"
        << (i + 1 < kv_format_runs.size() ? "," : "") << "\n";
  }

  out << "  ],\n  \"fault_sweep\": [\n";
  for (size_t i = 0; i < fault_runs.size(); ++i) {
    const FaultRunResult& r = fault_runs[i];
    const ServerStats& s = r.stats;
    out << "    {\"fault_rate\": " << TablePrinter::fmt(r.rate, 2)
        << ", \"fault_spec\": \"" << r.spec << "\""
        << ", \"mode\": \"" << r.mode << "\""
        << ", \"workers\": " << r.workers
        << ", \"requests\": " << r.requests
        << ", \"injected\": " << r.injected
        << ", \"submitted\": " << s.submitted
        << ", \"ok\": " << (s.completed - s.degraded)
        << ", \"degraded\": " << s.degraded
        << ", \"retries\": " << s.retries
        << ", \"shed\": " << s.shed
        << ", \"timeouts\": " << s.timeouts
        << ", \"failed\": " << s.failed
        << ", \"availability\": " << TablePrinter::fmt(r.availability(), 4)
        << ", \"ttft_p50_ms\": " << TablePrinter::fmt(s.ttft.p50_ms(), 3)
        << ", \"degraded_ttft_p50_ms\": "
        << TablePrinter::fmt(s.degraded_ttft.p50_ms(), 3) << "}"
        << (i + 1 < fault_runs.size() ? "," : "") << "\n";
  }
  // Shard-sweep acceptance: throughput must grow 2 -> 4 -> 8 shards, the
  // fleet footprint must stay near R x the distinct module bytes instead
  // of N x (replicated owners + streamed cross-fetches), the chaos run
  // must hold availability 1.0, and the failover counter must reconcile
  // exactly with the per-response failover counts.
  double rps1 = 0, rps2 = 0, rps4 = 0, rps8 = 0;
  size_t resident1 = 0, resident8 = 0;
  bool shard_failovers_reconcile = true;
  for (const ShardRunResult& r : shard_runs) {
    if (r.shards == 1) { rps1 = r.stats.throughput_rps;
                         resident1 = r.stats.resident_bytes_total; }
    if (r.shards == 2) rps2 = r.stats.throughput_rps;
    if (r.shards == 4) rps4 = r.stats.throughput_rps;
    if (r.shards == 8) { rps8 = r.stats.throughput_rps;
                         resident8 = r.stats.resident_bytes_total; }
    if (r.stats.failovers != r.resp_failover_sum) {
      shard_failovers_reconcile = false;
    }
  }
  if (shard_chaos.stats.failovers != shard_chaos.resp_failover_sum) {
    shard_failovers_reconcile = false;
  }
  const bool shard_throughput_monotone =
      rps2 > rps1 && rps4 > rps2 && rps8 > rps4;
  const bool shard_resident_sublinear =
      resident1 > 0 && resident8 <= 3 * resident1;  // R=2 steady state ~2x
  const bool shard_chaos_available =
      shard_chaos.all_served && shard_chaos.stats.availability >= 1.0 &&
      shard_chaos.stats.failed == 0 && shard_chaos.stats.timeouts == 0;
  const bool shard_chaos_kills_reconcile =
      shard_chaos.stats.kills == shard_chaos.injected;

  out << "  ],\n  \"shard_sweep\": [\n";
  for (size_t i = 0; i < shard_runs.size(); ++i) {
    out << "    " << shard_run_json(shard_runs[i])
        << (i + 1 < shard_runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"shard_chaos\": " << shard_run_json(shard_chaos) << ",\n";

  // Tiered-store acceptance (docs/INTERNALS.md §15): RAM-capped serving
  // over the disk tier must stay bitwise-identical to the uncapped
  // reference, bound peak resident RAM by the cap, actually exercise the
  // spill path, and hide at least part of the disk reads behind the
  // prefetch pipeline; the disk-fault chaos run must hold availability 1.0.
  const TieredChecks tiered_checks = check_tiered(tiered);

  out << "  \"tiered_reference\": " << tiered_run_json(tiered.reference)
      << ",\n  \"tiered_sweep\": [\n";
  for (size_t i = 0; i < tiered.capped.size(); ++i) {
    out << "    " << tiered_run_json(tiered.capped[i])
        << (i + 1 < tiered.capped.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"tiered_chaos\": " << tiered_run_json(tiered.chaos)
      << ",\n";

  out << "  \"checks\": {\n"
      << "    \"shared_encodes_equal_distinct_modules\": "
      << (shared_encodes_equal_distinct ? "true" : "false") << ",\n"
      << "    \"shared_throughput_increases_with_workers\": "
      << (shared_throughput_increases ? "true" : "false") << ",\n"
      << "    \"store_sweep_device_tier_holds_a_module\": "
      << (device_tier_holds_a_module ? "true" : "false") << ",\n"
      << "    \"batching_speedup_at_8\": "
      << TablePrinter::fmt(batching_speedup_at_8, 2) << ",\n"
      << "    \"batching_speedup_at_8_ge_1p5\": "
      << (batching_speedup_at_8 >= 1.5 ? "true" : "false") << ",\n"
      << "    \"batching_kv_holds_only_tails\": "
      << (kv_holds_only_tails ? "true" : "false") << ",\n"
      << "    \"batching_kv_released_after_drain\": "
      << (kv_released_after_drain ? "true" : "false") << ",\n"
      << "    \"kv_format_q8_resident_le_30pct_of_fp32\": "
      << (q8_resident_le_30pct ? "true" : "false") << ",\n"
      << "    \"kv_format_q4_resident_le_16pct_of_fp32\": "
      << (q4_resident_le_16pct ? "true" : "false") << ",\n"
      << "    \"fault_availability_is_full\": "
      << (fault_availability_full ? "true" : "false") << ",\n"
      << "    \"degraded_count_monotone_in_fault_rate\": "
      << (degraded_grows_with_rate ? "true" : "false") << ",\n"
      << "    \"shard_throughput_monotone_1_to_8\": "
      << (shard_throughput_monotone ? "true" : "false") << ",\n"
      << "    \"shard_resident_8_shards_le_3x_single\": "
      << (shard_resident_sublinear ? "true" : "false") << ",\n"
      << "    \"shard_failovers_reconcile_with_responses\": "
      << (shard_failovers_reconcile ? "true" : "false") << ",\n"
      << "    \"shard_chaos_availability_is_full\": "
      << (shard_chaos_available ? "true" : "false") << ",\n"
      << "    \"shard_chaos_kills_equal_injected\": "
      << (shard_chaos_kills_reconcile ? "true" : "false") << ",\n";
  write_tiered_checks(out, tiered_checks);
  out << "\n  }\n}\n";
  std::cout << "\nwrote BENCH_server.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Lane-level parallelism is the experiment; keep kernel-level
  // parallelism out of it (must happen before the global pool first spins
  // up inside the calibration serve).
  setenv("PC_THREADS", "1", /*overwrite=*/0);

  // --obs-summary prints the span/metric table after the sweep; setting
  // PC_TRACE=<path> (or any non-empty value, default bench_server_trace.json)
  // additionally exports a Perfetto trace of the whole run.
  bool obs_summary = false;
  bool shard_only = false;
  bool tiered_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--obs-summary") obs_summary = true;
    if (std::string(argv[i]) == "--shard-only") shard_only = true;
    if (std::string(argv[i]) == "--tiered-only") tiered_only = true;
  }

  bench::print_banner(
      shard_only ? "Cluster sharding smoke — ShardRouter over Zipf traffic"
      : tiered_only
          ? "Tiered store smoke — disk spill + async prefetch pipeline"
          : "Concurrent serving — lanes over one module store",
      "simulated host link (sleeps), measured CPU compute; PC_FULL=1 for "
      "more requests");

  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  const std::string schema = build_schema();
  const std::vector<std::string> prompts = build_prompts();
  GenerateOptions opts;
  opts.max_new_tokens = 5;
  opts.stop_tokens = {workload.stop_token()};

  // Calibration pass: one standalone engine, measure mean serve compute
  // and the distinct-module footprint.
  double calibrated_serve_ms;
  size_t module_bytes = 0;
  size_t distinct_modules = 0;
  {
    PromptCacheEngine probe(model, workload.tokenizer());
    probe.load_schema(schema);
    WallTimer timer;
    for (const std::string& p : prompts) (void)probe.serve(p, opts);
    calibrated_serve_ms =
        timer.elapsed_ms() / static_cast<double>(prompts.size());
    probe.store().for_each(
        [&](const std::string&, const EncodedModule& m, ModuleLocation) {
          module_bytes += m.payload_bytes();
          ++distinct_modules;
        });
  }

  // Link latency ~11x serve compute: the lanes saturate only past ~12
  // lanes, so 1 -> 8 stays in the linear-scaling regime; bandwidth adds a
  // real cost per host-resident byte.
  LinkModel link;
  link.latency_s = 11.0 * calibrated_serve_ms / 1e3;
  link.bandwidth_bytes_per_s = 8e9;

  const int requests = bench::env_int("PC_REQUESTS",
                                      bench::full_mode() ? 160 : 60);
  const size_t device_capacity = module_bytes * 2 / 5;  // 40%: tier pressure

  if (shard_only) {
    // CI's quick gate: clean 1/2-shard rows, then a deterministic shard
    // kill mid-stream on 2 shards (R=2: the survivor owns everything, so
    // every in-flight request fails over and still serves).
    const int smoke_requests = std::min(requests, 24);
    std::vector<ShardRunResult> smoke_runs;
    for (int n : {1, 2}) {
      smoke_runs.push_back(run_shard_config(model, workload, schema, prompts,
                                            opts, link, n, smoke_requests,
                                            /*restart_after=*/0,
                                            /*kill_at=*/-1));
    }
    ShardRunResult kill_run = run_shard_config(
        model, workload, schema, prompts, opts, link, /*n_shards=*/2,
        smoke_requests, /*restart_after=*/0, /*kill_at=*/smoke_requests / 2);
    kill_run.fault_spec = "manual kill_shard(0) mid-stream";
    print_shard_results(smoke_runs);
    std::cout << "\n";
    print_shard_chaos(kill_run);
    write_shard_smoke_json(smoke_runs, kill_run);
    return 0;
  }

  if (tiered_only) {
    // CI's tiered gate: uncapped reference + 50/25/12.5% RAM caps + disk
    // faults, at smoke scale — bitwise identity and availability are the
    // point, not throughput.
    const int smoke_requests = std::min(requests, 30);
    TieredSweep sweep =
        run_tiered_sweep(model, workload, schema, prompts, opts, link,
                         module_bytes, smoke_requests);
    print_tiered_results(sweep);
    std::cout << "\n";
    print_tiered_chaos(sweep.chaos);
    write_tiered_smoke_json(sweep);
    return 0;
  }

  std::vector<RunResult> runs;
  for (int workers : {1, 2, 4, 8}) {
    ServerConfig cfg;
    cfg.n_workers = workers;
    cfg.queue_capacity = 16;
    cfg.schemas = {schema};
    cfg.link = link;

    RunResult run;
    run.workers = workers;
    run.requests = requests;
    {
      SharedModuleStore store(device_capacity, /*host=*/0);
      Server server(model, workload.tokenizer(), store, cfg);
      for (int i = 0; i < requests; ++i) {
        server.submit(prompts[static_cast<size_t>(i) % prompts.size()], opts);
      }
      for (const ServerResponse& r : server.drain()) {
        run.host_link_bytes += r.result.ttft.bytes_from_host;
      }
      run.stats = server.stats();
      store.for_each(
          [&](const std::string&, const EncodedModule&, ModuleLocation loc) {
            if (loc == ModuleLocation::kDeviceMemory) ++run.device_modules;
          });
    }
    if (run.stats.failed > 0) {
      std::cout << "WARNING: " << run.stats.failed << " failed serves with "
                << workers << " workers\n";
    }
    runs.push_back(std::move(run));
  }

  print_results(runs);
  std::cout << "\ncalibrated serve compute: "
            << TablePrinter::fmt_ms(calibrated_serve_ms)
            << "/req, link stall: "
            << TablePrinter::fmt_ms(link.latency_s * 1e3)
            << " + bytes_from_host/8GBps\n\n";

  // Module-storage-format comparison: the same schema and prompt mix under
  // fp32, q8 (Q8_0), and q4 (Q4_0) module storage. Measures the resident
  // footprint of the encoded module set, the modeled host-link time to move
  // it once (transfer is charged on stored — i.e. quantized — bytes), and
  // mean serve time on both retrieval paths: the memcpy path (which copies
  // the stored bytes) and the zero-copy path (which borrows them). Both
  // score quantized rows in the integer domain.
  std::vector<KvFormatResult> kv_format_runs;
  for (const char* fmt : {"fp32", "q8", "q4"}) {
    KvFormatResult run;
    run.format = fmt;
    EngineConfig ecfg;
    ecfg.precision = std::string(fmt) == "q8"   ? StorePrecision::kQ8
                     : std::string(fmt) == "q4" ? StorePrecision::kQ4
                                                : StorePrecision::kFp32;
    {
      PromptCacheEngine copy_engine(model, workload.tokenizer(), ecfg);
      copy_engine.load_schema(schema);
      WallTimer timer;
      for (const std::string& p : prompts) (void)copy_engine.serve(p, opts);
      run.copy_serve_ms =
          timer.elapsed_ms() / static_cast<double>(prompts.size());
      copy_engine.store().for_each(
          [&](const std::string&, const EncodedModule& m, ModuleLocation) {
            run.module_resident_bytes += m.payload_bytes();
          });
    }
    {
      ecfg.zero_copy = true;
      PromptCacheEngine zc_engine(model, workload.tokenizer(), ecfg);
      zc_engine.load_schema(schema);
      WallTimer timer;
      for (const std::string& p : prompts) (void)zc_engine.serve(p, opts);
      run.zero_copy_serve_ms =
          timer.elapsed_ms() / static_cast<double>(prompts.size());
    }
    run.link_transfer_ms = link.stall_s(run.module_resident_bytes) * 1e3;
    kv_format_runs.push_back(std::move(run));
  }
  print_kv_format_results(kv_format_runs);
  std::cout << "\n";

  // Continuous-batching sweep: one lane, 1..8 in-flight requests, each
  // borrowing its modules' rows in place (zero_copy). "shared" traffic reuses the
  // same four modules across every request (co-resident requests borrow
  // the same rows, §3.4); "private" traffic is the main sweep's prompt mix,
  // whose module sets spread over the whole schema.
  const std::vector<std::string> shared_prompts = build_shared_prompts();
  std::vector<BatchRunResult> batch_runs;
  EngineConfig lazy;
  lazy.eager_encode = false;
  PromptCacheEngine binder(model, workload.tokenizer(), lazy);
  binder.load_schema(schema);
  for (const char* traffic : {"shared", "private"}) {
    const std::vector<std::string>& mix =
        std::string(traffic) == "shared" ? shared_prompts : prompts;
    // The own rows of the mix's longest request (assemble's sizing:
    // uncached + kickoff + generation budget + slack).
    int tail_tokens = 0;
    for (const std::string& p : mix) {
      tail_tokens = std::max(
          tail_tokens, binder.bind(p).uncached_token_count() + 1 +
                           opts.max_new_tokens + PromptCacheEngine::kTailSlack);
    }
    for (int max_batch : {1, 2, 4, 8}) {
      ServerConfig cfg;
      cfg.n_workers = 1;
      cfg.engine.zero_copy = true;
      cfg.batch.max_batch = max_batch;
      cfg.queue_capacity = 16;
      cfg.schemas = {schema};
      cfg.link = link;

      BatchRunResult run;
      run.traffic = traffic;
      run.max_batch = max_batch;
      run.requests = requests;
      run.tail_bound_bytes = static_cast<size_t>(max_batch) *
                             static_cast<size_t>(tail_tokens) *
                             model.kv_bytes_per_token();
      {
        Server server(model, workload.tokenizer(), cfg);
        for (int i = 0; i < requests; ++i) {
          server.submit(mix[static_cast<size_t>(i) % mix.size()], opts);
        }
        for (const ServerResponse& r : server.drain()) {
          run.module_bytes_copied +=
              r.result.ttft.bytes_from_host + r.result.ttft.bytes_from_device;
        }
        run.stats = server.stats();
      }
      if (run.stats.failed > 0) {
        std::cout << "WARNING: " << run.stats.failed
                  << " failed serves in batching/" << traffic << "/"
                  << max_batch << "\n";
      }
      batch_runs.push_back(std::move(run));
    }
  }
  print_batch_results(batch_runs);

  // Fault-rate sweep: availability under injected degradable faults. The
  // injector spec active during the main sweep (usually "") is restored
  // afterwards so provenance_json records what produced the main numbers.
  const std::string main_spec = FaultInjector::global().spec();
  std::vector<FaultRunResult> fault_runs;
  for (const double rate : {0.0, 0.05, 0.20}) {
    FaultRunResult run;
    run.rate = rate;
    run.workers = 4;
    run.requests = requests;
    if (rate > 0) {
      std::ostringstream spec;
      spec << "seed=42,encode=" << rate << ",link=" << rate << ",evict="
           << rate;
      run.spec = spec.str();
    }
    FaultInjector::global().configure(run.spec);
    const uint64_t injected_before = FaultInjector::global().injected_total();
    {
      ServerConfig cfg;
      cfg.n_workers = run.workers;
      cfg.queue_capacity = 16;
      cfg.schemas = {schema};
      cfg.link = link;
      SharedModuleStore store(device_capacity, /*host=*/0);
      Server server(model, workload.tokenizer(), store, cfg);
      for (int i = 0; i < requests; ++i) {
        server.submit(prompts[static_cast<size_t>(i) % prompts.size()], opts);
      }
      (void)server.drain();
      run.stats = server.stats();
    }
    run.injected = FaultInjector::global().injected_total() - injected_before;
    fault_runs.push_back(std::move(run));
  }

  // Same chaos on one borrowing lane of four: the iteration loop must hold
  // availability 1.0 under the highest swept fault rate too.
  {
    FaultRunResult run;
    run.rate = 0.20;
    run.mode = "batch";
    run.workers = 4;  // max_batch: 4 in-flight requests
    run.requests = requests;
    run.spec = "seed=43,encode=0.2,link=0.2,evict=0.2";
    FaultInjector::global().configure(run.spec);
    const uint64_t injected_before = FaultInjector::global().injected_total();
    {
      ServerConfig cfg;
      cfg.n_workers = 1;
      cfg.engine.zero_copy = true;
      cfg.batch.max_batch = run.workers;
      cfg.queue_capacity = 16;
      cfg.schemas = {schema};
      cfg.link = link;
      SharedModuleStore store(device_capacity, /*host=*/0);
      Server server(model, workload.tokenizer(), store, cfg);
      for (int i = 0; i < requests; ++i) {
        server.submit(prompts[static_cast<size_t>(i) % prompts.size()], opts);
      }
      (void)server.drain();
      run.stats = server.stats();
    }
    run.injected = FaultInjector::global().injected_total() - injected_before;
    fault_runs.push_back(std::move(run));
  }
  FaultInjector::global().configure(main_spec);
  std::cout << "\n";
  print_fault_results(fault_runs);
  std::cout << "\n";

  // Cluster-sharding sweep: 1/2/4/8 shards, R=min(2,N), Zipf traffic.
  std::vector<ShardRunResult> shard_runs;
  for (int n : {1, 2, 4, 8}) {
    shard_runs.push_back(run_shard_config(model, workload, schema, prompts,
                                          opts, link, n, requests,
                                          /*restart_after=*/0,
                                          /*kill_at=*/-1));
  }
  print_shard_results(shard_runs);
  std::cout << "\n";

  // Shard-kill chaos: probabilistic kills from the injector's seeded
  // schedule, auto-restart after 5 submits, R=2 over 4 shards. Every kill
  // fails its in-flight requests over to a replica; availability holds 1.0.
  ShardRunResult shard_chaos;
  {
    const std::string chaos_spec = "seed=91,shardkill=0.1";
    FaultInjector::global().configure(chaos_spec);
    shard_chaos = run_shard_config(model, workload, schema, prompts, opts,
                                   link, /*n_shards=*/4, requests,
                                   /*restart_after=*/5, /*kill_at=*/-1);
    shard_chaos.fault_spec = chaos_spec;
    FaultInjector::global().configure(main_spec);
  }
  print_shard_chaos(shard_chaos);
  std::cout << "\n";

  // Tiered-store sweep: RAM caps at 50/25/12.5% of the measured working
  // set, disk spill + async prefetch, checked bitwise against an uncapped
  // reference; then disk-fault chaos at the tightest cap.
  TieredSweep tiered = run_tiered_sweep(model, workload, schema, prompts,
                                        opts, link, module_bytes, requests);
  print_tiered_results(tiered);
  std::cout << "\n";
  print_tiered_chaos(tiered.chaos);

  write_json(runs, batch_runs, fault_runs, kv_format_runs, shard_runs,
             shard_chaos, tiered, distinct_modules, module_bytes, link,
             calibrated_serve_ms);

  if (const char* trace = std::getenv("PC_TRACE");
      trace != nullptr && *trace != '\0') {
    const std::string path =
        trace[0] == '1' && trace[1] == '\0' ? "bench_server_trace.json" : trace;
    if (obs::write_perfetto_trace(path)) {
      std::cout << "wrote " << path << " (load in ui.perfetto.dev)\n";
    }
  }
  if (obs_summary) obs::print_summary(std::cout);
  return 0;
}
