// Fault-tolerant serving: the chaos suite.
//
//   * FaultInjector spec parsing, deterministic replay, count caps;
//   * an evict-faulted module is looked up once: one store miss, one
//     re-encode;
//   * serve_full_prefill (the degradation path) is bitwise-identical to
//     cached serving for module/param/scaffold/kickoff prompts;
//   * retry-with-backoff converts transient encode faults into kOk, and
//     exhausted retries degrade instead of failing;
//   * a multi-worker server under seeded encode+link+evict+stall faults
//     serves every request (availability 1.0), bitwise-equal to a
//     fault-free run, with exact status accounting;
//   * deadline semantics: default vs override, expiry while queued sheds
//     before service, expiry mid-service times out, and deadline_met is
//     consistent with the status;
//   * load shedding when the backlog makes a deadline unmeetable;
//   * submit() blocked on a full queue throws when stop() runs (the
//     shutdown race);
//   * corrupt-record faults during load are skipped under kSkipCorrupt.
//
// Every test configures (or disables) the injector explicitly, so the
// suite is deterministic under any ambient PC_FAULTS — except the chaos
// test, which honors an env-provided spec when present (the CI smoke).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/error.h"
#include "core/engine.h"
#include "core/shared_module_store.h"
#include "eval/workload.h"
#include "model/induction.h"
#include "sys/fault.h"
#include "sys/server.h"

namespace pc {
namespace {

constexpr char kSchema[] = R"(
  <schema name="c">
    <module name="d1">w00 w01 q05 a10 a11 . w02</module>
    <module name="d2">w03 q06 a12 a13 . w04</module>
    <module name="d3">w05 w06 q07 a14 a15 . w07</module>
    <module name="d4">w08 q08 a16 a17 . w09</module>
  </schema>)";

const char* const kPrompts[] = {
    R"(<prompt schema="c"><d1/><d2/> question: q05</prompt>)",
    R"(<prompt schema="c"><d1/><d2/> question: q06</prompt>)",
    R"(<prompt schema="c"><d3/><d4/> question: q07</prompt>)",
    R"(<prompt schema="c"><d3/><d4/> question: q08</prompt>)",
    R"(<prompt schema="c"><d1/><d2/><d3/><d4/> question: q07</prompt>)",
    R"(<prompt schema="c"><d2/><d4/> question: q08</prompt>)",
};
constexpr size_t kNumPrompts = std::size(kPrompts);

GenerateOptions ask_options(const AccuracyWorkload& workload) {
  GenerateOptions opts;
  opts.max_new_tokens = 5;
  opts.stop_tokens = {workload.stop_token()};
  return opts;
}

// Every test leaves the injector disarmed, whatever PC_FAULTS says — the
// suite must be deterministic; tests that want faults configure their own.
class FaultTest : public ::testing::Test {
 protected:
  FaultTest() { FaultInjector::global().disable(); }
  ~FaultTest() override { FaultInjector::global().disable(); }
};

// The status/deadline invariant that must hold for every response:
// served implies the deadline was met; timeout/shed imply it was not.
void check_status_invariants(const ServerResponse& r) {
  if (is_served(r.status)) {
    EXPECT_TRUE(r.deadline_met) << "id " << r.id << ": " << r.detail;
  }
  if (r.status == ServeStatus::kTimeout || r.status == ServeStatus::kShed) {
    EXPECT_FALSE(r.deadline_met) << "id " << r.id;
    EXPECT_TRUE(r.result.tokens.empty()) << "id " << r.id;
  }
}

void check_accounting(const ServerStats& s) {
  EXPECT_EQ(s.completed + s.shed + s.timeouts + s.failed, s.submitted);
  EXPECT_LE(s.degraded, s.completed);
}

// ---------------------------------------------------------------------------
// FaultInjector
// (These need a live injector; with -DPC_FAULTS=OFF it is a stub that
// never arms, so they compile out with it.)

#if PC_FAULTS_ENABLED

TEST_F(FaultTest, SpecParsesAndArms) {
  FaultInjector& f = FaultInjector::global();
  EXPECT_FALSE(f.enabled());
  EXPECT_EQ(f.spec(), "");

  f.configure("seed=7,encode=0.5x3,stall=0.25:42");
  EXPECT_TRUE(f.enabled());
  EXPECT_EQ(f.spec(), "seed=7,encode=0.5x3,stall=0.25:42");
  EXPECT_DOUBLE_EQ(f.stall_ms(FaultPoint::kStall), 42.0);

  f.disable();
  EXPECT_FALSE(f.enabled());
  EXPECT_EQ(f.spec(), "");
  EXPECT_FALSE(f.should_fail(FaultPoint::kEncode));
}

TEST_F(FaultTest, BadSpecsThrow) {
  FaultInjector& f = FaultInjector::global();
  EXPECT_THROW(f.configure("bogus=0.5"), Error);
  EXPECT_THROW(f.configure("encode=1.5"), Error);
  EXPECT_THROW(f.configure("encode=-0.1"), Error);
  EXPECT_THROW(f.configure("encode=abc"), Error);
  EXPECT_THROW(f.configure("encode"), Error);
  EXPECT_THROW(f.configure("seed=notanumber"), Error);
  EXPECT_FALSE(f.enabled());  // a failed configure never arms
}

TEST_F(FaultTest, MalformedSpecsThrowConfigErrorPerForm) {
  // Every malformed form must raise pc::ConfigError at configure time — a
  // typo'd chaos spec fails loudly at startup instead of silently running
  // a clean "chaos" test. One case per grammar production.
  FaultInjector& f = FaultInjector::global();
  // Trailing garbage after a well-formed rate.
  EXPECT_THROW(f.configure("encode=0.5junk"), ConfigError);
  // Bare / non-numeric / negative xN count suffixes.
  EXPECT_THROW(f.configure("encode=0.5x"), ConfigError);
  EXPECT_THROW(f.configure("encode=0.5xabc"), ConfigError);
  EXPECT_THROW(f.configure("encode=0.5x-1"), ConfigError);
  EXPECT_THROW(f.configure("encode=0.5x3junk"), ConfigError);
  // Bare / non-numeric / negative :ms suffixes.
  EXPECT_THROW(f.configure("stall=0.1:"), ConfigError);
  EXPECT_THROW(f.configure("stall=0.1:abc"), ConfigError);
  EXPECT_THROW(f.configure("stall=0.1:-5"), ConfigError);
  // Seed must be a clean uint64.
  EXPECT_THROW(f.configure("seed="), ConfigError);
  EXPECT_THROW(f.configure("seed=12junk"), ConfigError);
  EXPECT_THROW(f.configure("seed=-1"), ConfigError);
  // Non-finite probabilities (stod would happily accept these).
  EXPECT_THROW(f.configure("encode=nan"), ConfigError);
  EXPECT_THROW(f.configure("encode=inf"), ConfigError);
  // Out-of-range probability on the new point too.
  EXPECT_THROW(f.configure("shardkill=2.0"), ConfigError);
  // Unknown point name.
  EXPECT_THROW(f.configure("shardskill=0.5"), ConfigError);
  // A failed configure never arms, and the spec stays empty.
  EXPECT_FALSE(f.enabled());
  EXPECT_EQ(f.spec(), "");
  // A good spec still arms afterwards (no poisoned state left behind).
  f.configure("shardkill=0.5x2");
  EXPECT_TRUE(f.enabled());
}

TEST_F(FaultTest, ShardKillPointParsesAndCaps) {
  EXPECT_STREQ(fault_point_name(FaultPoint::kShardKill), "shardkill");
  FaultInjector& f = FaultInjector::global();
  f.configure("shardkill=1x2");
  EXPECT_TRUE(f.should_fail(FaultPoint::kShardKill));
  EXPECT_TRUE(f.should_fail(FaultPoint::kShardKill));
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(f.should_fail(FaultPoint::kShardKill));
  }
  EXPECT_EQ(f.injected(FaultPoint::kShardKill), 2u);
  // The other points were never armed by this spec.
  EXPECT_FALSE(f.should_fail(FaultPoint::kEncode));
}

TEST_F(FaultTest, ScheduleIsDeterministicPerSeed) {
  FaultInjector& f = FaultInjector::global();
  constexpr int kDraws = 200;

  const auto draw_schedule = [&](const std::string& spec) {
    f.configure(spec);
    std::vector<bool> schedule;
    for (int i = 0; i < kDraws; ++i) {
      schedule.push_back(f.should_fail(FaultPoint::kEncode));
    }
    return schedule;
  };

  const std::vector<bool> a = draw_schedule("seed=7,encode=0.5");
  const uint64_t injected_a = f.injected(FaultPoint::kEncode);
  const std::vector<bool> b = draw_schedule("seed=7,encode=0.5");
  EXPECT_EQ(a, b) << "same spec must replay the same fault schedule";
  EXPECT_EQ(f.injected(FaultPoint::kEncode), injected_a);
  EXPECT_GT(injected_a, 0u);
  EXPECT_LT(injected_a, static_cast<uint64_t>(kDraws));

  const std::vector<bool> c = draw_schedule("seed=8,encode=0.5");
  EXPECT_NE(a, c) << "different seeds must produce different schedules";
}

TEST_F(FaultTest, CountCapLimitsInjections) {
  FaultInjector& f = FaultInjector::global();
  f.configure("encode=1x2");
  EXPECT_TRUE(f.should_fail(FaultPoint::kEncode));
  EXPECT_TRUE(f.should_fail(FaultPoint::kEncode));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(f.should_fail(FaultPoint::kEncode));
  }
  EXPECT_EQ(f.injected(FaultPoint::kEncode), 2u);
  EXPECT_EQ(f.injected_total(), 2u);
  // Other points were never armed.
  EXPECT_FALSE(f.should_fail(FaultPoint::kLink));
}

TEST_F(FaultTest, EvictFaultRemovesUnpinnedEntryOnly) {
  SharedModuleStore store(/*device=*/0, /*host=*/0);
  EncodedModule m;
  m.n_tokens = 4;
  m.kv_dim = 4;
  m.n_layers = 2;
  store.insert("pinned", m);
  store.insert("cold", m);
  ASSERT_TRUE(store.pin("pinned"));

  FaultInjector::global().configure("evict=1");
  // Pinned entries are exempt: the fault poll is skipped entirely (no draw
  // consumed), exactly like real eviction.
  EXPECT_TRUE(store.find("pinned"));
  EXPECT_EQ(FaultInjector::global().injected(FaultPoint::kEvict), 0u);
  // Unpinned entries are spuriously evicted: the find misses.
  EXPECT_FALSE(store.find("cold"));
  EXPECT_FALSE(store.contains("cold"));
  EXPECT_EQ(FaultInjector::global().injected(FaultPoint::kEvict), 1u);
}

TEST_F(FaultTest, ThrashLookupCountsOneMiss) {
  // A module evicted between the ensure pass and retrieval is looked up
  // once: one miss and one re-encode, not a second miss for the re-encode.
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  SharedModuleStore store(/*device=*/0, /*host=*/0, DiskTierConfig{});
  PromptCacheEngine engine(model, workload.tokenizer(), store);
  engine.load_schema(kSchema);  // eager encode: all four modules resident
  const ServeResult expected = engine.serve(kPrompts[4], ask_options(workload));
  const ModuleStoreStats before = store.stats();

  FaultInjector::global().configure("evict=1");
  const ServeResult r = engine.serve(kPrompts[4], ask_options(workload));
  FaultInjector::global().disable();
  EXPECT_EQ(r.tokens, expected.tokens);

  const ModuleStoreStats after = store.stats();
  EXPECT_EQ(after.misses - before.misses, 4u);
  EXPECT_EQ(after.insertions - before.insertions, 4u);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(engine.stats().thrash_reencodes, 4u);
}

#endif  // PC_FAULTS_ENABLED

// ---------------------------------------------------------------------------
// Degradation path: serve_full_prefill bitwise equality

class DegradedServeTest : public FaultTest {
 protected:
  DegradedServeTest()
      : workload_(7),
        model_(make_induction_model({workload_.vocab().size(), 256})),
        engine_(model_, workload_.tokenizer()) {}

  void expect_bitwise(const std::string& prompt) {
    const GenerateOptions opts = ask_options(workload_);
    const ServeResult cached = engine_.serve(prompt, opts);
    const ServeResult full = engine_.serve_full_prefill(prompt, opts);
    EXPECT_EQ(full.tokens, cached.tokens) << prompt;
    EXPECT_TRUE(full.degraded);
    EXPECT_FALSE(cached.degraded);
    EXPECT_EQ(full.ttft.cached_tokens, 0)
        << "degraded serving must not touch the module store";
  }

  AccuracyWorkload workload_;
  Model model_;
  PromptCacheEngine engine_;
};

TEST_F(DegradedServeTest, MultiModulePromptMatches) {
  engine_.load_schema(kSchema);
  for (const char* prompt : kPrompts) expect_bitwise(prompt);
  EXPECT_EQ(engine_.stats().degraded_serves,
            static_cast<uint64_t>(kNumPrompts));
}

TEST_F(DegradedServeTest, ParameterizedPromptMatches) {
  engine_.load_schema(R"(
    <schema name="p">
      <module name="fact">w00 w01 q05 <param name="vals" len="4"/> w02</module>
      <module name="doc">w03 q06 a12 a13 . w04</module>
    </schema>)");
  expect_bitwise(
      R"(<prompt schema="p"><fact vals="a20 a21 ."/> question: q05</prompt>)");
  expect_bitwise(
      R"(<prompt schema="p"><doc/><fact vals="a20 a21 ."/> question: q06</prompt>)");
}

TEST_F(DegradedServeTest, ScaffoldPromptMatches) {
  engine_.load_schema(R"(
    <schema name="s">
      <module name="parta">w00 w01 q05 a10</module>
      <module name="partb">a11 . w02 w03</module>
    </schema>)");
  engine_.add_scaffold("s", {"parta", "partb"});
  expect_bitwise(
      R"(<prompt schema="s"><parta/><partb/> question: q05</prompt>)");
}

TEST_F(DegradedServeTest, AllCachedPromptUsesKickoffToken) {
  engine_.load_schema(kSchema);
  // No uncached suffix at all: generation must kick off identically.
  expect_bitwise(R"(<prompt schema="c"><d1/><d2/></prompt>)");
}

TEST_F(DegradedServeTest, ExpiredTokenCancelsDegradedServe) {
  engine_.load_schema(kSchema);
  GenerateOptions opts = ask_options(workload_);
  CancellationToken token = CancellationToken::manual();
  token.cancel();
  opts.cancel = token;
  EXPECT_THROW(engine_.serve_full_prefill(kPrompts[0], opts), CancelledError);
}

// ---------------------------------------------------------------------------
// Server: retry, degrade, chaos

struct ServerHarness {
  explicit ServerHarness(int seed = 7)
      : workload(seed),
        model(make_induction_model({workload.vocab().size(), 256})) {}

  std::vector<std::vector<TokenId>> reference_tokens() {
    FaultInjector::global().disable();
    PromptCacheEngine reference(model, workload.tokenizer());
    reference.load_schema(kSchema);
    std::vector<std::vector<TokenId>> expected;
    for (const char* prompt : kPrompts) {
      expected.push_back(
          reference.serve(prompt, ask_options(workload)).tokens);
    }
    return expected;
  }

  AccuracyWorkload workload;
  Model model;
};

#if PC_FAULTS_ENABLED

TEST_F(FaultTest, TransientEncodeFaultsRetrySuccessfully) {
  ServerHarness h;
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.schemas = {kSchema};
  cfg.engine.eager_encode = false;  // encode at serve time, under faults
  Server server(h.model, h.workload.tokenizer(), cfg);
  const std::vector<std::vector<TokenId>> expected = h.reference_tokens();

  // The first two encode attempts fail; with max_retries = 2 the third
  // serve attempt succeeds — kOk, two retries, no degradation.
  FaultInjector::global().configure("encode=1x2");
  server.submit(kPrompts[0], ask_options(h.workload));
  const std::vector<ServerResponse> responses = server.drain();
  FaultInjector::global().disable();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk) << responses[0].detail;
  EXPECT_EQ(responses[0].retries, 2);
  EXPECT_EQ(responses[0].result.tokens, expected[0]);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.degraded, 0u);
  check_accounting(stats);
}

TEST_F(FaultTest, ExhaustedRetriesDegradeToFullPrefill) {
  ServerHarness h;
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.schemas = {kSchema};
  cfg.engine.eager_encode = false;
  Server server(h.model, h.workload.tokenizer(), cfg);
  const std::vector<std::vector<TokenId>> expected = h.reference_tokens();

  // Every encode fails: all 1 + max_retries serve attempts throw, then the
  // worker degrades — full prefill never touches the store, so it cannot
  // be faulted by encode failures.
  FaultInjector::global().configure("encode=1");
  server.submit(kPrompts[1], ask_options(h.workload));
  const std::vector<ServerResponse> responses = server.drain();
  FaultInjector::global().disable();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kDegraded)
      << responses[0].detail;
  EXPECT_EQ(responses[0].retries, 2);
  EXPECT_EQ(responses[0].result.tokens, expected[1]);
  EXPECT_TRUE(responses[0].result.degraded);
  EXPECT_TRUE(responses[0].deadline_met);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  check_accounting(stats);
}

TEST_F(FaultTest, ChaosServingKeepsFullAvailability) {
  ServerHarness h;
  const std::vector<std::vector<TokenId>> expected = h.reference_tokens();

  // The CI smoke drives this test with an env spec; locally a fixed seed
  // exercises all four serving-path fault points. No deadlines, so every
  // fault is degradable and availability must be exactly 1.0.
  const char* env = std::getenv("PC_FAULTS");
  const std::string spec =
      env != nullptr && *env != '\0'
          ? std::string(env)
          : "seed=1234,encode=0.3,link=0.25,evict=0.3,stall=0.15:5";
  FaultInjector::global().configure(spec);

  constexpr int kRequests = 36;
  SharedModuleStore store(/*device=*/0, /*host=*/0);
  ServerConfig cfg;
  cfg.n_workers = 4;
  cfg.schemas = {kSchema};
  cfg.link.latency_s = 0.002;  // nonzero so link faults are polled
  {
    Server server(h.model, h.workload.tokenizer(), store, cfg);
    for (int i = 0; i < kRequests; ++i) {
      server.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts],
                    ask_options(h.workload));
    }
    const std::vector<ServerResponse> responses = server.drain();
    const uint64_t injected = FaultInjector::global().injected_total();
    FaultInjector::global().disable();

    ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const ServerResponse& r = responses[static_cast<size_t>(i)];
      EXPECT_EQ(r.id, static_cast<uint64_t>(i));
      EXPECT_TRUE(is_served(r.status))
          << "id " << r.id << " " << to_string(r.status) << ": " << r.detail;
      // Bitwise equality with the fault-free run: degradation changes the
      // latency, never the tokens.
      EXPECT_EQ(r.result.tokens, expected[static_cast<size_t>(i) % kNumPrompts])
          << "id " << r.id << " status " << to_string(r.status);
      check_status_invariants(r);
    }

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_EQ(stats.failed, 0u);
    check_accounting(stats);
    if (env == nullptr || *env == '\0') {
      // The fixed-seed spec is known to inject: the run above was a real
      // chaos run, not a silently clean one.
      EXPECT_GT(injected, 0u);
    }
  }
}

#endif  // PC_FAULTS_ENABLED

// ---------------------------------------------------------------------------
// Deadlines

TEST_F(FaultTest, OverrideDeadlineBeatsDefaultAndShedsWhileQueued) {
  ServerHarness h;
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.schemas = {kSchema};
  cfg.default_deadline_ms = 10000;  // generous default: always met
  cfg.link.latency_s = 0.05;        // each serve holds the worker ~50 ms
  Server server(h.model, h.workload.tokenizer(), cfg);
  const GenerateOptions opts = ask_options(h.workload);

  // First request occupies the worker (default deadline, easily met); the
  // second's 1 ms override expires while it waits and must shed at dequeue
  // — before any service work.
  server.submit(kPrompts[0], opts);
  server.submit(kPrompts[1], opts, /*deadline_ms=*/1);
  const std::vector<ServerResponse> responses = server.drain();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk) << responses[0].detail;
  EXPECT_TRUE(responses[0].deadline_met);
  EXPECT_EQ(responses[1].status, ServeStatus::kShed) << responses[1].detail;
  check_status_invariants(responses[0]);
  check_status_invariants(responses[1]);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  check_accounting(stats);
}

#if PC_FAULTS_ENABLED

TEST_F(FaultTest, DeadlineExpiryMidServiceTimesOut) {
  ServerHarness h;
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.schemas = {kSchema};
  Server server(h.model, h.workload.tokenizer(), cfg);

  // An injected straggler stall (120 ms) freezes the worker after dequeue;
  // the 25 ms deadline expires during it and the serve is cancelled.
  FaultInjector::global().configure("stall=1x1:120");
  server.submit(kPrompts[0], ask_options(h.workload), /*deadline_ms=*/25);
  const std::vector<ServerResponse> responses = server.drain();
  FaultInjector::global().disable();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kTimeout)
      << responses[0].detail;
  check_status_invariants(responses[0]);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  check_accounting(stats);
}

TEST_F(FaultTest, DeadlineExpiryStopsRetryLadderImmediately) {
  // With every encode faulted and a backoff schedule whose single
  // un-capped sleep (10 s) dwarfs the deadline (60 ms), the retry loop
  // must stop the moment the deadline expires — the sleep is capped at
  // the remaining budget and an expired token short-circuits the next
  // attempt — instead of serving out the exponential ladder.
  ServerHarness h;
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.schemas = {kSchema};
  cfg.engine.eager_encode = false;  // encode at serve time, under faults
  cfg.retry.max_retries = 8;
  cfg.retry.backoff_base_ms = 10000;
  cfg.retry.backoff_max_ms = 10000;
  Server server(h.model, h.workload.tokenizer(), cfg);

  FaultInjector::global().configure("encode=1");
  const auto t0 = std::chrono::steady_clock::now();
  server.submit(kPrompts[0], ask_options(h.workload), /*deadline_ms=*/60);
  const std::vector<ServerResponse> responses = server.drain();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  FaultInjector::global().disable();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kTimeout)
      << responses[0].detail;
  EXPECT_FALSE(responses[0].deadline_met);
  check_status_invariants(responses[0]);
  // One un-capped backoff alone would be 10 s; generous slack for CI.
  EXPECT_LT(elapsed_ms, 5000.0)
      << "retries must stop at the deadline, not serve out the ladder";
  check_accounting(server.stats());
}

#endif  // PC_FAULTS_ENABLED

// ---------------------------------------------------------------------------
// Retry backoff schedule (always compiled — no injector involved)

TEST_F(FaultTest, RetryBackoffGoldenSchedule) {
  // The deterministic jitter schedule is part of the serving contract
  // (identical replay across lanes and runs); pin it. Values are
  // retry_backoff_ms with the default policy (base 0.5 ms, cap 20 ms).
  const RetryPolicy policy;
  const double golden[3][4] = {
      // id=1
      {0.33800628128297117, 0.87684244477711237, 2.9626587727260931,
       2.662955055612493},
      // id=7
      {0.49007477255529996, 0.50241657487984059, 1.5451060779277386,
       5.5127452083350956},
      // id=42
      {0.52704875675699181, 0.68043535162983715, 1.2784753703219474,
       2.2612623134725847},
  };
  const uint64_t ids[3] = {1, 7, 42};
  for (int i = 0; i < 3; ++i) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      EXPECT_DOUBLE_EQ(retry_backoff_ms(policy, ids[i], attempt),
                       golden[i][attempt])
          << "id " << ids[i] << " attempt " << attempt;
    }
  }
  // Envelope: jitter scales the capped exponential by [0.5, 1.5).
  for (uint64_t id = 0; id < 200; ++id) {
    for (int attempt = 0; attempt < 10; ++attempt) {
      const double base = std::min(
          policy.backoff_base_ms * static_cast<double>(1ULL << attempt),
          policy.backoff_max_ms);
      const double ms = retry_backoff_ms(policy, id, attempt);
      EXPECT_GE(ms, 0.5 * base);
      EXPECT_LT(ms, 1.5 * base);
    }
  }
}

TEST_F(FaultTest, BacklogShedsAtSubmitWhenDeadlineUnmeetable) {
  ServerHarness h;
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.schemas = {kSchema};
  cfg.link.latency_s = 0.08;  // ~80 ms per serve
  Server server(h.model, h.workload.tokenizer(), cfg);
  const GenerateOptions opts = ask_options(h.workload);

  // Teach the EWMA the service time, then overload: with one ~80 ms
  // request already queued, a 10 ms deadline is predictably unmeetable and
  // must be rejected at submit (worker == -1: it never reached one).
  for (int i = 0; i < 3; ++i) server.submit(kPrompts[0], opts);
  (void)server.drain();

  server.submit(kPrompts[0], opts);  // occupies the worker
  server.submit(kPrompts[1], opts);  // sits in the queue
  const uint64_t shed_id = server.submit(kPrompts[2], opts,
                                         /*deadline_ms=*/10);
  const std::vector<ServerResponse> responses = server.drain();

  ASSERT_EQ(responses.size(), 3u);
  const ServerResponse& shed = responses.back();
  EXPECT_EQ(shed.id, shed_id);
  EXPECT_EQ(shed.status, ServeStatus::kShed) << shed.detail;
  EXPECT_EQ(shed.worker, -1);
  check_status_invariants(shed);
  EXPECT_GE(server.stats().shed, 1u);
}

// ---------------------------------------------------------------------------
// Shutdown race

TEST_F(FaultTest, BlockedSubmitThrowsWhenServerStops) {
  ServerHarness h;
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.queue_capacity = 1;
  cfg.schemas = {kSchema};
  cfg.link.latency_s = 0.2;  // the worker holds each request ~200 ms
  Server server(h.model, h.workload.tokenizer(), cfg);
  const GenerateOptions opts = ask_options(h.workload);

  server.submit(kPrompts[0], opts);
  // Let the worker pop the first request, then fill the 1-slot queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.submit(kPrompts[1], opts);

  std::atomic<bool> threw{false};
  std::atomic<bool> blocked{false};
  std::thread submitter([&] {
    try {
      blocked.store(true);
      server.submit(kPrompts[2], opts);  // blocks: queue is at capacity
    } catch (const Error&) {
      threw.store(true);
    }
  });
  while (!blocked.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // stop() must wake the blocked submitter, which observes the shutdown
  // and throws instead of sleeping forever (or silently dropping the
  // request with its id already handed out).
  server.stop();
  submitter.join();
  EXPECT_TRUE(threw.load());

  // The two accepted requests were still served before the pool exited,
  // and the accounting has no trace of the rejected submission.
  const std::vector<ServerResponse> responses = server.drain();
  ASSERT_EQ(responses.size(), 2u);
  for (const ServerResponse& r : responses) {
    EXPECT_EQ(r.status, ServeStatus::kOk) << r.detail;
  }
  EXPECT_EQ(server.stats().submitted, 2u);
  check_accounting(server.stats());
}

TEST_F(FaultTest, SubmitOnStoppedServerThrows) {
  ServerHarness h;
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.schemas = {kSchema};
  Server server(h.model, h.workload.tokenizer(), cfg);
  server.stop();
  EXPECT_THROW(server.submit(kPrompts[0], ask_options(h.workload)), Error);
}

// ---------------------------------------------------------------------------
// Corrupt-record faults during load

#if PC_FAULTS_ENABLED

TEST_F(FaultTest, InjectedCorruptRecordIsSkippedUnderRecoveryPolicy) {
  ServerHarness h;
  const std::string path = ::testing::TempDir() + "pc_fault_modules.bin";
  {
    PromptCacheEngine writer(h.model, h.workload.tokenizer());
    writer.load_schema(kSchema);
    ASSERT_EQ(writer.save_modules(path), 4u);
  }

  EngineConfig cfg;
  cfg.eager_encode = false;

  // Strict policy: the injected checksum failure aborts the whole load.
  {
    PromptCacheEngine reader(h.model, h.workload.tokenizer(), cfg);
    reader.load_schema(kSchema);
    FaultInjector::global().configure("corrupt=1x1");
    EXPECT_THROW(reader.load_modules(path), Error);
  }

  // Recovery policy: the corrupt record is skipped, the rest load, and the
  // skipped module is just a cache miss at serve time.
  PromptCacheEngine reader(h.model, h.workload.tokenizer(), cfg);
  reader.load_schema(kSchema);
  FaultInjector::global().configure("corrupt=1x1");
  const PromptCacheEngine::LoadReport report =
      reader.load_modules(path, PromptCacheEngine::LoadPolicy::kSkipCorrupt);
  FaultInjector::global().disable();
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.loaded, 3u);

  const ServeResult r = reader.serve(kPrompts[0], ask_options(h.workload));
  PromptCacheEngine reference(h.model, h.workload.tokenizer());
  reference.load_schema(kSchema);
  EXPECT_EQ(r.tokens,
            reference.serve(kPrompts[0], ask_options(h.workload)).tokens);
  std::remove(path.c_str());
}

#endif  // PC_FAULTS_ENABLED

}  // namespace
}  // namespace pc
