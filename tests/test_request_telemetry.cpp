// Request-centric telemetry (obs/request_timeline.h, Server::requests()):
//
//   * completeness: exactly one timeline per submitted id, each with a
//     terminal outcome, one request per lane and several;
//   * the TTFT identity: ttft == queue + transfer + retrieve + prefill for
//     kOk serves;
//   * chaos reconciliation: under seeded encode/link/evict/stall faults
//     the per-outcome timeline counts equal the pc_server_* counters
//     exactly — not approximately;
//   * cache-efficacy attribution: a warm re-serve records zero module
//     misses and nonzero cached tokens / reused modules, and the
//     timelines' module misses sum to the engine's encode counters (also
//     under an ambient PC_FAULTS schedule);
//   * the PC_REQLOG JSONL sink and Server::write_request_log round-trip
//     through the JSON reader;
//   * fault injections land as instant trace markers and submits emit flow
//     arcs that terminate inside the serving span.
//
// Under -DPC_OBS=OFF a reduced arm checks the stubs stay inert while
// serving still works.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "eval/workload.h"
#include "model/induction.h"
#include "obs/export.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/request_timeline.h"
#include "obs/trace.h"
#include "sys/fault.h"
#include "sys/server.h"

namespace pc {
namespace {

constexpr char kSchema[] = R"(
  <schema name="t">
    <module name="d1">w00 w01 q05 a10 a11 . w02</module>
    <module name="d2">w03 q06 a12 a13 . w04</module>
    <module name="d3">w05 w06 q07 a14 a15 . w07</module>
  </schema>)";

const char* const kPrompts[] = {
    R"(<prompt schema="t"><d1/><d2/> question: q05</prompt>)",
    R"(<prompt schema="t"><d1/><d2/> question: q06</prompt>)",
    R"(<prompt schema="t"><d2/><d3/> question: q07</prompt>)",
};
constexpr size_t kNumPrompts = std::size(kPrompts);

// Deterministic regardless of ambient PC_FAULTS; tests that want faults
// configure their own (the test_faults convention).
class RequestTelemetryTest : public ::testing::Test {
 protected:
  RequestTelemetryTest()
      : workload_(7),
        model_(make_induction_model({workload_.vocab().size(), 256})) {
    FaultInjector::global().disable();
#if PC_OBS_ENABLED
    obs::set_request_telemetry(true);
#endif
  }
  ~RequestTelemetryTest() override { FaultInjector::global().disable(); }

  GenerateOptions ask_options() const {
    GenerateOptions opts;
    opts.max_new_tokens = 5;
    opts.stop_tokens = {workload_.stop_token()};
    return opts;
  }

  AccuracyWorkload workload_;
  Model model_;
};

#if PC_OBS_ENABLED

void check_timeline_invariants(const obs::RequestTimeline& t) {
  EXPECT_NE(t.outcome, obs::RequestOutcome::kPending) << "id " << t.id;
  EXPECT_GT(t.submit_ns, 0u) << "id " << t.id;
  EXPECT_GE(t.done_ns, t.submit_ns) << "id " << t.id;
  if (t.lane >= 0) {
    EXPECT_GE(t.admit_ns, t.submit_ns) << "id " << t.id;
  }
  if (t.outcome == obs::RequestOutcome::kOk) {
    EXPECT_GE(t.first_token_ns, t.submit_ns) << "id " << t.id;
    // The documented TTFT identity (encode is charged separately).
    EXPECT_NEAR(t.ttft_ms,
                t.queue_ms + t.transfer_ms + t.retrieve_ms + t.prefill_ms,
                1e-6)
        << "id " << t.id;
    EXPECT_GT(t.cached_tokens + t.uncached_tokens, 0) << "id " << t.id;
  }
}

TEST_F(RequestTelemetryTest, WorkerPoolTimelineCompleteness) {
  ServerConfig cfg;
  cfg.n_workers = 2;
  cfg.engine.precision = StorePrecision::kFp32;  // asserted below
  cfg.schemas = {kSchema};
  cfg.link.latency_s = 0.001;  // nonzero transfer phase on first imports
  Server server(model_, workload_.tokenizer(), cfg);
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    server.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts],
                  ask_options());
  }
  const auto responses = server.drain();
  ASSERT_EQ(responses.size(), static_cast<size_t>(n));

  const auto timelines = server.requests().snapshot();
  ASSERT_EQ(timelines.size(), static_cast<size_t>(n));
  EXPECT_EQ(server.requests().recorded(), static_cast<uint64_t>(n));
  EXPECT_EQ(server.requests().dropped(), 0u);
  std::set<uint64_t> ids;
  for (const auto& t : timelines) {
    EXPECT_TRUE(ids.insert(t.id).second) << "duplicate timeline id " << t.id;
    EXPECT_EQ(t.kv_format, "fp32");
    check_timeline_invariants(t);
  }
  ASSERT_EQ(ids.size(), static_cast<size_t>(n));
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), static_cast<uint64_t>(n - 1));
}

TEST_F(RequestTelemetryTest, BatchingTimelineCompleteness) {
  ServerConfig cfg;
  cfg.batch.max_batch = 3;
  cfg.batch.chunk_tokens = 2;  // force several prefill chunks per request
  cfg.schemas = {kSchema};
  Server server(model_, workload_.tokenizer(), cfg);
  const int n = 9;
  for (int i = 0; i < n; ++i) {
    server.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts],
                  ask_options());
  }
  (void)server.drain();

  const auto timelines = server.requests().snapshot();
  ASSERT_EQ(timelines.size(), static_cast<size_t>(n));
  std::set<uint64_t> ids;
  for (const auto& t : timelines) {
    EXPECT_TRUE(ids.insert(t.id).second);
    check_timeline_invariants(t);
    if (t.outcome == obs::RequestOutcome::kOk) {
      EXPECT_GE(t.prefill_chunks, 1) << "id " << t.id;
    }
  }
}

TEST_F(RequestTelemetryTest, ChaosTimelinesReconcileWithCounters) {
  FaultInjector::global().configure(
      "seed=11,encode=0.2,link=0.2,evict=0.2,stall=0.1:2");
  SharedModuleStore store(/*device=*/0, /*host=*/0);
  ServerConfig cfg;
  cfg.n_workers = 4;
  cfg.schemas = {kSchema};
  cfg.engine.eager_encode = false;  // encodes happen at serve time
  cfg.link.latency_s = 0.002;       // nonzero so link faults are polled
  Server server(model_, workload_.tokenizer(), store, cfg);
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    server.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts],
                  ask_options());
  }
  (void)server.drain();
  FaultInjector::global().disable();

  const auto timelines = server.requests().snapshot();
  ASSERT_EQ(timelines.size(), static_cast<size_t>(n));
  std::map<obs::RequestOutcome, uint64_t> by_outcome;
  std::set<uint64_t> ids;
  uint64_t retries = 0, deadline_misses = 0;
  for (const auto& t : timelines) {
    EXPECT_TRUE(ids.insert(t.id).second) << "duplicate timeline id " << t.id;
    check_timeline_invariants(t);
    ++by_outcome[t.outcome];
    retries += static_cast<uint64_t>(t.retries);
    if (!t.deadline_met) ++deadline_misses;
    if (t.outcome == obs::RequestOutcome::kDegraded) {
      // Degrade causes are annotated while telemetry is on.
      EXPECT_FALSE(t.annotations.empty()) << "id " << t.id;
    }
  }

  // Exact, not approximate: the timelines are recorded under the same lock
  // that moves the pc_server_* counters.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(n));
  EXPECT_EQ(by_outcome[obs::RequestOutcome::kOk] +
                by_outcome[obs::RequestOutcome::kDegraded],
            stats.completed);
  EXPECT_EQ(by_outcome[obs::RequestOutcome::kDegraded], stats.degraded);
  EXPECT_EQ(by_outcome[obs::RequestOutcome::kTimeout], stats.timeouts);
  EXPECT_EQ(by_outcome[obs::RequestOutcome::kShed], stats.shed);
  EXPECT_EQ(by_outcome[obs::RequestOutcome::kFailed], stats.failed);
  EXPECT_EQ(retries, stats.retries);
  EXPECT_EQ(deadline_misses, stats.deadline_misses);
}

TEST_F(RequestTelemetryTest, TimelinesReportEffectiveKvFormat) {
  // q4 needs d_head % 32 == 0 or a single KV head; this model has neither,
  // so its engines fall back to q8 — and the timelines must say q8, one
  // request per lane or several.
  ModelConfig c = ModelConfig::llama_tiny(workload_.vocab().size(), 256);
  c.d_model = 96;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  c.d_head = 24;
  c.d_ff = 128;
  const Model model = Model::random(c, 5);
  for (int max_batch : {1, 4}) {
    ServerConfig cfg;
    cfg.n_workers = 2;
    cfg.batch.max_batch = max_batch;
    cfg.engine.precision = StorePrecision::kQ4;
    cfg.schemas = {kSchema};
    Server server(model, workload_.tokenizer(), cfg);
    for (size_t i = 0; i < kNumPrompts; ++i) {
      server.submit(kPrompts[i], ask_options());
    }
    (void)server.drain();
    const auto timelines = server.requests().snapshot();
    ASSERT_EQ(timelines.size(), kNumPrompts);
    for (const auto& t : timelines) {
      EXPECT_EQ(t.outcome, obs::RequestOutcome::kOk) << t.detail;
      EXPECT_EQ(t.kv_format, "q8") << "max_batch " << max_batch;
    }
  }
}

TEST_F(RequestTelemetryTest, WarmServeRecordsCacheEfficacy) {
  ServerConfig cfg;
  cfg.n_workers = 1;  // one engine, so the second serve is surely warm
  cfg.schemas = {kSchema};
  cfg.engine.eager_encode = false;
  Server server(model_, workload_.tokenizer(), cfg);
  server.submit(kPrompts[0], ask_options());
  (void)server.drain();
  server.submit(kPrompts[0], ask_options());
  (void)server.drain();

  const auto timelines = server.requests().snapshot();
  ASSERT_EQ(timelines.size(), 2u);
  const auto& cold = timelines[0];
  const auto& warm = timelines[1];
  ASSERT_EQ(cold.outcome, obs::RequestOutcome::kOk);
  ASSERT_EQ(warm.outcome, obs::RequestOutcome::kOk);
  EXPECT_GT(cold.module_misses, 0);
  EXPECT_EQ(warm.module_misses, 0);
  EXPECT_GT(warm.modules, 0);
  EXPECT_GT(warm.cached_tokens, 0);
  EXPECT_EQ(warm.module_hits(), warm.modules);
  EXPECT_GT(warm.retrieve_ms + warm.prefill_ms, 0.0);
}

TEST_F(RequestTelemetryTest, ModuleMissesSumToEngineEncodes) {
  // Each encode is counted by the request whose call ran it — its ensure
  // pass or a thrash re-encode in assembly, over every admission attempt —
  // so the timelines' misses sum to the engine's encode counters. The lanes
  // share one engine: two lanes missing one module at once encode it once,
  // and one of them counts it. With an ambient PC_FAULTS schedule (the
  // chaos CI step), encode faults, evictions and retries must not break
  // the sum.
  const char* env = std::getenv("PC_FAULTS");
  const bool chaos = env != nullptr && *env != '\0';
  for (int max_batch : {1, 4}) {
    if (chaos) FaultInjector::global().configure(env);
    ServerConfig cfg;
    cfg.n_workers = 2;
    cfg.batch.max_batch = max_batch;
    cfg.schemas = {kSchema};
    cfg.engine.eager_encode = false;  // every encode happens in a request
    cfg.link.latency_s = 0.002;       // nonzero so link faults are polled
    Server server(model_, workload_.tokenizer(), cfg);
    const int n = 24;
    for (int i = 0; i < n; ++i) {
      server.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts],
                    ask_options());
    }
    (void)server.drain();
    FaultInjector::global().disable();

    const auto timelines = server.requests().snapshot();
    ASSERT_EQ(timelines.size(), static_cast<size_t>(n));
    uint64_t misses = 0;
    for (const auto& t : timelines) {
      EXPECT_GE(t.module_misses, 0) << "id " << t.id;
      misses += static_cast<uint64_t>(t.module_misses);
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(misses, stats.modules_encoded + stats.scaffolds_encoded)
        << "max_batch " << max_batch;
    if (!chaos) {
      // Nothing evicts: each of the schema's modules is encoded once.
      EXPECT_EQ(stats.modules_encoded, 3u) << "max_batch " << max_batch;
    }
  }
}

TEST_F(RequestTelemetryTest, RequestLogJsonlRoundTrip) {
  const std::string log_path = ::testing::TempDir() + "pc_reqlog_test.jsonl";
  const std::string dump_path = ::testing::TempDir() + "pc_reqdump_test.jsonl";
  obs::set_request_log_path(log_path);
  uint64_t recorded = 0;
  {
    ServerConfig cfg;
    cfg.n_workers = 2;
    cfg.engine.precision = StorePrecision::kFp32;  // asserted below
    cfg.schemas = {kSchema};
    Server server(model_, workload_.tokenizer(), cfg);
    for (int i = 0; i < 6; ++i) {
      server.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts],
                    ask_options());
    }
    (void)server.drain();
    recorded = server.requests().recorded();
    ASSERT_TRUE(server.write_request_log(dump_path));
  }
  obs::set_request_log_path("");  // close + flush the live sink

  for (const std::string& path : {log_path, dump_path}) {
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::string line;
    std::set<uint64_t> ids;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const obs::JsonValue v = obs::JsonReader::parse(line);
      ASSERT_TRUE(v.is_object()) << path;
      EXPECT_TRUE(ids.insert(static_cast<uint64_t>(v["id"].as_number(9999)))
                      .second);
      EXPECT_NE(v["outcome"].as_string(), "pending");
      EXPECT_EQ(v["kv_format"].as_string(), "fp32");
    }
    EXPECT_EQ(ids.size(), recorded) << path;
  }
  std::remove(log_path.c_str());
  std::remove(dump_path.c_str());
}

TEST_F(RequestTelemetryTest, ToggleDisablesTimelines) {
  obs::set_request_telemetry(false);
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.schemas = {kSchema};
  Server server(model_, workload_.tokenizer(), cfg);
  server.submit(kPrompts[0], ask_options());
  const auto responses = server.drain();
  obs::set_request_telemetry(true);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk);  // serving unaffected
  EXPECT_EQ(server.requests().recorded(), 0u);
}

TEST_F(RequestTelemetryTest, RequestTrackerRingEvicts) {
  obs::RequestTracker tracker(/*capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    obs::RequestTimeline t;
    t.id = i;
    t.outcome = obs::RequestOutcome::kOk;
    tracker.record(std::move(t));
  }
  EXPECT_EQ(tracker.recorded(), 10u);
  EXPECT_EQ(tracker.dropped(), 6u);
  const auto kept = tracker.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().id, 6u);  // oldest evicted first
  EXPECT_EQ(kept.back().id, 9u);
}

TEST_F(RequestTelemetryTest, FaultMarkersAndFlowArcsInTrace) {
  // The first encode draw fails, however few encodes the lanes' shared
  // store runs (one per module).
  FaultInjector::global().configure("seed=3,encode=1x1");
  obs::clear_traces();
  obs::set_tracing(true);
  const std::string trace_path = ::testing::TempDir() + "pc_flow_test.json";
  {
    ServerConfig cfg;
    cfg.n_workers = 2;
    cfg.schemas = {kSchema};
    cfg.engine.eager_encode = false;
    Server server(model_, workload_.tokenizer(), cfg);
    for (int i = 0; i < 8; ++i) {
      server.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts],
                    ask_options());
    }
    (void)server.drain();
    ASSERT_TRUE(obs::write_perfetto_trace(trace_path));
    server.stop();
  }
  obs::set_tracing(false);
  FaultInjector::global().disable();

  bool saw_instant = false, saw_flow_start = false, saw_flow_end = false;
  for (const auto& lane : obs::collect_traces()) {
    for (const auto& e : lane.events) {
      if (e.kind == obs::EventKind::kInstant &&
          std::string_view(e.name).rfind("fault_inject_", 0) == 0) {
        saw_instant = true;
      }
      if (e.kind == obs::EventKind::kFlowStart) saw_flow_start = true;
      if (e.kind == obs::EventKind::kFlowEnd) saw_flow_end = true;
    }
  }
  EXPECT_TRUE(saw_instant);     // satellite: injections land on the timeline
  EXPECT_TRUE(saw_flow_start);  // submit side of the request arc
  EXPECT_TRUE(saw_flow_end);    // serving side of the request arc

  // The exported JSON carries the Perfetto flow/instant phases.
  std::ifstream in(trace_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("fault_inject_encode"), std::string::npos);
  const obs::JsonValue root = obs::JsonReader::parse(json);  // well-formed
  EXPECT_TRUE(root["traceEvents"].is_array());
  std::remove(trace_path.c_str());
}

#else  // !PC_OBS_ENABLED

TEST_F(RequestTelemetryTest, StubsAreInertButServingWorks) {
  EXPECT_FALSE(obs::request_telemetry_enabled());
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.schemas = {kSchema};
  Server server(model_, workload_.tokenizer(), cfg);
  server.submit(kPrompts[0], ask_options());
  const auto responses = server.drain();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk);
  EXPECT_EQ(server.requests().recorded(), 0u);
  EXPECT_TRUE(server.requests().snapshot().empty());
  EXPECT_FALSE(server.write_request_log("/tmp/should_not_exist.jsonl"));
}

#endif  // PC_OBS_ENABLED

}  // namespace
}  // namespace pc
