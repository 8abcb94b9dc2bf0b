// Cluster sharding chaos suite (docs/INTERNALS.md §14):
//
//   * the placement ring is deterministic (two routers with one config
//     agree on every owner set) and every key gets R distinct owners;
//   * requests route to a live shard owning the largest share of their
//     keys (anonymous modules included), and owners hold their keys
//     resident from construction; a prompt that does not bind fetches
//     nothing and fails alone;
//   * a sharded fleet emits tokens bitwise-identical to one unsharded
//     Server — one request per lane and four;
//   * cross-shard fetches are charged through the interconnect model and
//     streamed back out of the borrowing shard at delivery;
//   * shard-kill chaos (FaultPoint::kShardKill) with replication R=2 keeps
//     availability at exactly 1.0, tokens bitwise-identical, and
//     pc_shard_kills_total reconciling exactly with injected kills;
//   * a restarted shard comes back empty and replicate_now() re-pins its
//     owned keys from the surviving replicas;
//   * when every replica of a module is down the request degrades to full
//     prefill (same tokens) instead of failing;
//   * a response the shard Server records inside its own submit() (a
//     submit-time shed) is delivered once, after its registration, and a
//     deadline already gone at hand-off times out router-side and streams
//     the request's fetched copies back out;
//   * ServerConfig::engine's capacities size every shard's store.
//
// Tests configure/disable the injector explicitly, so the suite stays
// deterministic under any ambient PC_FAULTS — except the chaos test, which
// honors an env-provided spec when present (the CI smoke).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/shared_module_store.h"
#include "eval/workload.h"
#include "model/induction.h"
#include "sys/fault.h"
#include "sys/shard.h"

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

const std::vector<std::string> kModuleKeys = {"c::d1", "c::d2", "c::d3",
                                              "c::d4"};

GenerateOptions ask_options(const AccuracyWorkload& workload) {
  GenerateOptions opts;
  opts.max_new_tokens = 5;
  opts.stop_tokens = {workload.stop_token()};
  return opts;
}

class ShardTest : public ::testing::Test {
 protected:
  ShardTest()
      : workload_(7),
        model_(make_induction_model({workload_.vocab().size(), 256})) {
    FaultInjector::global().disable();
  }
  ~ShardTest() override { FaultInjector::global().disable(); }

  ShardConfig base_config(int n_shards, int replication) const {
    ShardConfig cfg;
    cfg.n_shards = n_shards;
    cfg.replication = replication;
    cfg.server.n_workers = 2;
    cfg.server.schemas = {kSchema};
    return cfg;
  }

  std::vector<std::vector<TokenId>> reference_tokens() {
    FaultInjector::global().disable();
    PromptCacheEngine reference(model_, workload_.tokenizer());
    reference.load_schema(kSchema);
    std::vector<std::vector<TokenId>> expected;
    for (const char* prompt : kPrompts) {
      expected.push_back(
          reference.serve(prompt, ask_options(workload_)).tokens);
    }
    return expected;
  }

  // Spins until `shard` reports alive (restart is asynchronous on the
  // pump); fails the test after ~5 s.
  void wait_alive(ShardRouter& router, int shard) {
    for (int i = 0; i < 1000; ++i) {
      if (router.shard_alive(shard)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FAIL() << "shard " << shard << " never restarted";
  }

  AccuracyWorkload workload_;
  Model model_;
};

TEST_F(ShardTest, RingPlacementIsDeterministicAndReplicated) {
  ShardRouter a(model_, workload_.tokenizer(), base_config(4, 2));
  ShardRouter b(model_, workload_.tokenizer(), base_config(4, 2));

  for (const auto& key : kModuleKeys) {
    const std::vector<int> owners = a.module_owners(key);
    EXPECT_EQ(owners, b.module_owners(key))
        << key << ": same config must agree on placement";
    ASSERT_EQ(owners.size(), 2u) << key;
    EXPECT_NE(owners[0], owners[1]) << key << ": owners must be distinct";
    for (int o : owners) {
      EXPECT_GE(o, 0);
      EXPECT_LT(o, 4);
      // Owners pinned their keys resident at construction.
      EXPECT_TRUE(a.shard_has_module(o, key)) << key << " on shard " << o;
    }
  }

  // Synthetic keys spread across the whole fleet: with 64 vnodes/shard no
  // shard is starved of primaries.
  std::vector<int> primaries(4, 0);
  for (int i = 0; i < 200; ++i) {
    ++primaries[static_cast<size_t>(
        a.module_owners("synthetic::" + std::to_string(i))[0])];
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(primaries[static_cast<size_t>(s)], 0) << "shard " << s;
  }
}

TEST_F(ShardTest, RoutesToShardOwningLargestModuleShare) {
  ShardRouter router(model_, workload_.tokenizer(), base_config(4, 2));
  for (const char* prompt : kPrompts) {
    const int target = router.route_shard(prompt);
    ASSERT_GE(target, 0);
    ASSERT_LT(target, 4);
  }
  // On an idle router a prompt importing only d1 lands on one of d1's
  // owners, deterministically.
  const std::vector<int> owners = router.module_owners("c::d1");
  const char* p = R"(<prompt schema="c"><d1/> question: q05</prompt>)";
  const int target = router.route_shard(p);
  EXPECT_NE(std::find(owners.begin(), owners.end(), target), owners.end())
      << "routed to shard " << target;
  EXPECT_EQ(router.route_shard(p), target);
}

TEST_F(ShardTest, AnonymousModulesCountTowardRouting) {
  // Schema-level text forms an anonymous module that every prompt of the
  // schema imports, so routing must weigh its key like an imported one.
  // Pick a schema name whose anonymous key and d1 share exactly one owner:
  // that shard alone owns both, and one of d1's owners owns only d1.
  // Ownership depends only on the key and the shard count.
  const ShardConfig cfg = base_config(4, 2);
  std::string name;
  {
    ShardRouter probe(model_, workload_.tokenizer(), cfg);
    for (int i = 0; i < 64 && name.empty(); ++i) {
      std::string candidate = "a";
      candidate += std::to_string(i);
      const auto anon = probe.module_owners(candidate + "::__anon0");
      const auto d1 = probe.module_owners(candidate + "::d1");
      int shared = 0;
      for (int o : d1) {
        shared += std::find(anon.begin(), anon.end(), o) != anon.end();
      }
      if (shared == 1) name = candidate;
    }
  }
  ASSERT_FALSE(name.empty()) << "no candidate schema name splits the owners";

  ShardConfig anon_cfg = cfg;
  anon_cfg.server.schemas = {"<schema name=\"" + name +
                             "\"> w20 w21 w22\n"
                             "  <module name=\"d1\">w00 w01 q05 a10 a11 . "
                             "w02</module>\n"
                             "  <module name=\"d2\">w03 q06 a12 a13 . "
                             "w04</module>\n"
                             "</schema>"};
  ShardRouter router(model_, workload_.tokenizer(), anon_cfg);
  const std::vector<std::string> keys = {name + "::__anon0", name + "::d1"};
  ASSERT_TRUE(router.shard_has_module(router.module_owners(keys[0])[0],
                                      keys[0]))
      << "the schema's anonymous module must be placed like a named one";
  std::vector<int> owned(4, 0);
  for (const auto& key : keys) {
    for (int o : router.module_owners(key)) ++owned[static_cast<size_t>(o)];
  }
  const int best = *std::max_element(owned.begin(), owned.end());
  const int target = router.route_shard("<prompt schema=\"" + name +
                                        "\"><d1/> question: q05</prompt>");
  ASSERT_GE(target, 0);
  EXPECT_EQ(owned[static_cast<size_t>(target)], best)
      << "routed to shard " << target << ", which owns "
      << owned[static_cast<size_t>(target)] << " of the prompt's keys";
}

TEST_F(ShardTest, PromptImportingUnknownModuleFailsAlone) {
  // R=1: d1-d4 spread over both shards, so any prompt whose keys include
  // all four needs a cross-fetch on whichever shard it lands. A prompt
  // that parses but imports a module the schema lacks does not bind: it
  // has no keys, fetches nothing, and fails on its shard.
  const ShardConfig cfg = base_config(2, 1);
  ShardRouter router(model_, workload_.tokenizer(), cfg);
  std::set<int> owners;
  for (const auto& key : kModuleKeys) {
    owners.insert(router.module_owners(key)[0]);
  }
  ASSERT_EQ(owners.size(), 2u) << "the modules must span both shards";
  const char* bad =
      R"(<prompt schema="c"><d1/><d2/><d3/><d4/><d9/> question: q07</prompt>)";

  router.submit(bad, ask_options(workload_));
  const std::vector<ShardResponse> alone = router.drain();
  ASSERT_EQ(alone.size(), 1u);
  EXPECT_EQ(alone[0].resp.status, ServeStatus::kFailed)
      << to_string(alone[0].resp.status) << ": " << alone[0].resp.detail;
  EXPECT_EQ(router.stats().cross_fetches, 0u)
      << "a prompt that does not bind must not fetch modules";

  // Among valid traffic it fails alone: every other request serves its
  // reference tokens.
  const std::vector<std::vector<TokenId>> expected = reference_tokens();
  for (size_t i = 0; i < kNumPrompts; ++i) {
    router.submit(kPrompts[i], ask_options(workload_));
    if (i == kNumPrompts / 2) router.submit(bad, ask_options(workload_));
  }
  const std::vector<ShardResponse> mixed = router.drain();
  ASSERT_EQ(mixed.size(), kNumPrompts + 1);
  size_t next = 0;
  for (const ShardResponse& r : mixed) {
    if (r.id == kNumPrompts / 2 + 2) {
      EXPECT_EQ(r.resp.status, ServeStatus::kFailed) << r.resp.detail;
      continue;
    }
    EXPECT_EQ(r.resp.status, ServeStatus::kOk) << r.resp.detail;
    EXPECT_EQ(r.resp.result.tokens, expected[next]) << "id " << r.id;
    ++next;
  }

  const ShardRouterStats stats = router.stats();
  EXPECT_EQ(stats.submitted, kNumPrompts + 2);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, kNumPrompts);
  EXPECT_EQ(stats.completed + stats.timeouts + stats.shed + stats.failed,
            stats.submitted);
}

TEST_F(ShardTest, ShardedServingMatchesUnshardedBitwise) {
  const std::vector<std::vector<TokenId>> expected = reference_tokens();
  ShardRouter router(model_, workload_.tokenizer(), base_config(2, 2));
  constexpr int kRequests = 18;
  for (int i = 0; i < kRequests; ++i) {
    router.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts],
                  ask_options(workload_));
  }
  const std::vector<ShardResponse> responses = router.drain();
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const ShardResponse& r = responses[static_cast<size_t>(i)];
    EXPECT_EQ(r.id, static_cast<uint64_t>(i));
    EXPECT_EQ(r.resp.status, ServeStatus::kOk) << r.resp.detail;
    EXPECT_EQ(r.failovers, 0);
    EXPECT_EQ(r.resp.result.tokens,
              expected[static_cast<size_t>(i) % kNumPrompts])
        << "id " << i;
  }
  const ShardRouterStats stats = router.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.delivered, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
  EXPECT_DOUBLE_EQ(stats.availability, 1.0);
  EXPECT_EQ(stats.kills, 0u);
  EXPECT_EQ(stats.failovers, 0u);
  uint64_t routed = 0;
  for (const auto& s : stats.shards) routed += s.routed;
  EXPECT_EQ(routed, static_cast<uint64_t>(kRequests));
}

TEST_F(ShardTest, BatchingModeMatchesUnshardedBitwise) {
  const std::vector<std::vector<TokenId>> expected = reference_tokens();
  ShardConfig cfg = base_config(2, 2);
  cfg.server.batch.max_batch = 4;
  ShardRouter router(model_, workload_.tokenizer(), cfg);
  for (size_t i = 0; i < kNumPrompts; ++i) {
    router.submit(kPrompts[i], ask_options(workload_));
  }
  const std::vector<ShardResponse> responses = router.drain();
  ASSERT_EQ(responses.size(), kNumPrompts);
  for (size_t i = 0; i < kNumPrompts; ++i) {
    EXPECT_EQ(responses[i].resp.status, ServeStatus::kOk)
        << responses[i].resp.detail;
    EXPECT_EQ(responses[i].resp.result.tokens, expected[i]) << "id " << i;
  }
}

TEST_F(ShardTest, CrossFetchIsChargedAndStreamedBackOut) {
  // R=1: every module lives on exactly one shard, so any multi-module
  // prompt whose owners straddle shards forces cross-fetches.
  ShardConfig cfg = base_config(2, 1);
  cfg.cross_link.latency_s = 0.001;
  ShardRouter router(model_, workload_.tokenizer(), cfg);

  for (size_t i = 0; i < kNumPrompts; ++i) {
    router.submit(kPrompts[i], ask_options(workload_));
  }
  const std::vector<ShardResponse> responses = router.drain();
  for (const auto& r : responses) {
    EXPECT_EQ(r.resp.status, ServeStatus::kOk) << r.resp.detail;
  }

  const ShardRouterStats stats = router.stats();
  EXPECT_GT(stats.cross_fetches, 0u)
      << "R=1 multi-module prompts must fetch across shards";
  EXPECT_GT(stats.cross_fetch_bytes, 0u);

  // Streaming: after the fleet idles, every named module is resident ONLY
  // on its owner.
  for (const auto& key : kModuleKeys) {
    const int owner = router.module_owners(key)[0];
    EXPECT_TRUE(router.shard_has_module(owner, key)) << key;
    EXPECT_FALSE(router.shard_has_module(1 - owner, key))
        << key << " leaked into the non-owner shard";
  }

  // The cross-link stall was actually charged to some response.
  bool any_stalled = false;
  for (const auto& r : responses) any_stalled |= r.resp.stall_ms >= 1.0;
  EXPECT_TRUE(any_stalled) << "cross_link latency must surface as stall";
}

TEST_F(ShardTest, ManualKillFailsOverInflightRequests) {
  const std::vector<std::vector<TokenId>> expected = reference_tokens();
  ShardRouter router(model_, workload_.tokenizer(), base_config(2, 2));
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    router.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts],
                  ask_options(workload_));
    if (i == 6) router.kill_shard(0);
  }
  const std::vector<ShardResponse> responses = router.drain();
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  uint64_t observed_failovers = 0;
  for (int i = 0; i < kRequests; ++i) {
    const ShardResponse& r = responses[static_cast<size_t>(i)];
    EXPECT_TRUE(is_served(r.resp.status))
        << "id " << i << " " << to_string(r.resp.status) << ": "
        << r.resp.detail;
    EXPECT_EQ(r.resp.result.tokens,
              expected[static_cast<size_t>(i) % kNumPrompts])
        << "id " << i << " failovers " << r.failovers;
    observed_failovers += static_cast<uint64_t>(r.failovers);
    if (r.failovers > 0) {
      EXPECT_GE(r.failover_ms, 0.0);
    }
  }
  const ShardRouterStats stats = router.stats();
  EXPECT_EQ(stats.kills, 1u);
  EXPECT_FALSE(stats.shards[0].alive);
  EXPECT_EQ(stats.shards[0].epoch, 1u);
  EXPECT_EQ(stats.failovers, observed_failovers)
      << "pc_shard_failovers_total must reconcile with delivered responses";
  EXPECT_DOUBLE_EQ(stats.availability, 1.0);
}

TEST_F(ShardTest, RestartComesBackEmptyAndReplicateNowHeals) {
  ShardRouter router(model_, workload_.tokenizer(), base_config(2, 2));
  // With n=2, R=2 every shard owns every key.
  for (const auto& key : kModuleKeys) {
    ASSERT_TRUE(router.shard_has_module(0, key));
  }
  router.kill_shard(0);
  router.restart_shard(0);
  wait_alive(router, 0);
  // Epoch moved twice (kill + restart) and the store is empty.
  for (const auto& key : kModuleKeys) {
    EXPECT_FALSE(router.shard_has_module(0, key)) << key;
  }
  const uint64_t healed = router.replicate_now();
  EXPECT_GT(healed, 0u);
  for (const auto& key : kModuleKeys) {
    EXPECT_TRUE(router.shard_has_module(0, key))
        << key << " not re-replicated";
  }
  const ShardRouterStats stats = router.stats();
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_GE(stats.rereplications, healed);
  EXPECT_EQ(stats.shards[0].epoch, 2u);
  EXPECT_TRUE(stats.shards[0].alive);

  // The healed shard serves correctly.
  const std::vector<std::vector<TokenId>> expected = reference_tokens();
  for (size_t i = 0; i < kNumPrompts; ++i) {
    router.submit(kPrompts[i], ask_options(workload_));
  }
  const std::vector<ShardResponse> responses = router.drain();
  for (size_t i = 0; i < kNumPrompts; ++i) {
    EXPECT_TRUE(is_served(responses[i].resp.status));
    EXPECT_EQ(responses[i].resp.result.tokens, expected[i]);
  }
}

TEST_F(ShardTest, AllReplicasDownDegradesToFullPrefillSameTokens) {
  const std::vector<std::vector<TokenId>> expected = reference_tokens();
  // R=1: killing a module's only owner makes it unavailable.
  ShardRouter router(model_, workload_.tokenizer(), base_config(3, 1));
  const int owner = router.module_owners("c::d1")[0];
  router.kill_shard(owner);

  router.submit(kPrompts[0], ask_options(workload_));  // imports d1 + d2
  const std::vector<ShardResponse> responses = router.drain();
  ASSERT_EQ(responses.size(), 1u);
  const ShardResponse& r = responses[0];
  EXPECT_EQ(r.resp.status, ServeStatus::kDegraded)
      << to_string(r.resp.status) << ": " << r.resp.detail;
  EXPECT_EQ(r.resp.result.tokens, expected[0])
      << "degraded serving must stay bitwise-identical";
  const ShardRouterStats stats = router.stats();
  EXPECT_GE(stats.unavailable_degrades, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_DOUBLE_EQ(stats.availability, 1.0);
}

TEST_F(ShardTest, ShedInsideServerSubmitIsDeliveredOnce) {
  // One shard, one lane. A burst whose deadline is below the served-request
  // EWMA's wait estimate is shed inside the shard Server's submit(): the
  // response is recorded (and handed to the pump) before dispatch has
  // registered the request. Each must still be delivered exactly once.
  ShardConfig cfg = base_config(1, 1);
  cfg.server.n_workers = 1;
  ShardRouter router(model_, workload_.tokenizer(), cfg);
  GenerateOptions long_opts;
  long_opts.max_new_tokens = 64;  // no stop token: decodes all 64

  // Warm the EWMA: after one served request it equals that service time.
  router.submit(kPrompts[0], long_opts);
  const std::vector<ShardResponse> warm = router.drain();
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_EQ(warm[0].resp.status, ServeStatus::kOk) << warm[0].resp.detail;
  const double service_ms = warm[0].resp.service_ms;
  ASSERT_GT(service_ms, 0.0);

  // One long request in service on the one lane: each burst request sees
  // a backlog of 1, an estimated wait of one EWMA, twice its deadline.
  router.submit(kPrompts[1], long_opts);
  constexpr uint64_t kBurst = 8;
  for (uint64_t i = 0; i < kBurst; ++i) {
    router.submit(kPrompts[i % kNumPrompts], ask_options(workload_),
                  service_ms / 2);
  }
  const std::vector<ShardResponse> responses = router.drain();
  ASSERT_EQ(responses.size(), kBurst + 1);
  for (uint64_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, i + 1) << "every id delivered exactly once";
  }
  EXPECT_EQ(responses[0].resp.status, ServeStatus::kOk)
      << responses[0].resp.detail;
  for (uint64_t i = 1; i <= kBurst; ++i) {
    EXPECT_EQ(responses[i].resp.status, ServeStatus::kShed)
        << "id " << responses[i].id << ": " << responses[i].resp.detail;
  }
  const ShardRouterStats stats = router.stats();
  EXPECT_EQ(stats.submitted, kBurst + 2);
  EXPECT_EQ(stats.delivered, kBurst + 2);
  EXPECT_EQ(stats.shed, kBurst);
  EXPECT_EQ(stats.completed + stats.timeouts + stats.shed + stats.failed,
            stats.submitted);
}

TEST_F(ShardTest, DeadlineGoneAtHandOffTimesOutAndStreamsCopiesOut) {
  // R=1 over 2 shards, so multi-module prompts cross-fetch wherever they
  // land. A 1 ns deadline has passed by the time dispatch hands the
  // request to its shard: the router times it out itself, and the copies
  // fetched for it must still stream back out.
  ShardRouter router(model_, workload_.tokenizer(), base_config(2, 1));
  for (size_t i = 0; i < kNumPrompts; ++i) {
    router.submit(kPrompts[i], ask_options(workload_), /*deadline_ms=*/1e-6);
  }
  const std::vector<ShardResponse> responses = router.drain();
  ASSERT_EQ(responses.size(), kNumPrompts);
  for (const ShardResponse& r : responses) {
    EXPECT_EQ(r.resp.status, ServeStatus::kTimeout)
        << to_string(r.resp.status) << ": " << r.resp.detail;
    EXPECT_EQ(r.failovers, 0);
    EXPECT_EQ(r.resp.detail.find("failover"), std::string::npos)
        << "a first dispatch is not a failover: " << r.resp.detail;
  }
  const ShardRouterStats stats = router.stats();
  EXPECT_EQ(stats.timeouts, kNumPrompts);
  EXPECT_EQ(stats.completed + stats.timeouts + stats.shed + stats.failed,
            stats.submitted);
  EXPECT_GT(stats.cross_fetches, 0u)
      << "the prompts importing all four modules must fetch before expiry";
  for (const auto& key : kModuleKeys) {
    const int owner = router.module_owners(key)[0];
    EXPECT_TRUE(router.shard_has_module(owner, key)) << key;
    EXPECT_FALSE(router.shard_has_module(1 - owner, key))
        << key << " stayed on the non-owner after its request expired";
  }
}

TEST_F(ShardTest, EngineCapacitiesSizeEveryShardStore) {
  const std::vector<std::vector<TokenId>> expected = reference_tokens();
  // Module sizes at this process's KV format, from an unsharded engine.
  size_t largest = 0;
  size_t total = 0;
  {
    PromptCacheEngine probe(model_, workload_.tokenizer());
    probe.load_schema(kSchema);
    probe.store().for_each([&](const std::string&, const EncodedModule& m,
                               ModuleLocation) {
      largest = std::max(largest, m.payload_bytes());
      total += m.payload_bytes();
    });
  }
  // n=2, R=2: each shard owns all four modules, but holds two at most.
  ShardConfig cfg = base_config(2, 2);
  cfg.server.engine.device_capacity_bytes = largest;
  cfg.server.engine.host_capacity_bytes = largest;
  const size_t cap = 2 * largest;
  ASSERT_GT(total, cap) << "the caps must be below a shard's owned modules";

  ShardRouter router(model_, workload_.tokenizer(), cfg);
  for (size_t i = 0; i < kNumPrompts; ++i) {
    router.submit(kPrompts[i], ask_options(workload_));
  }
  const std::vector<ShardResponse> responses = router.drain();
  ASSERT_EQ(responses.size(), kNumPrompts);
  for (size_t i = 0; i < kNumPrompts; ++i) {
    EXPECT_TRUE(is_served(responses[i].resp.status))
        << to_string(responses[i].resp.status) << ": "
        << responses[i].resp.detail;
    EXPECT_EQ(responses[i].resp.result.tokens, expected[i]) << "id " << i;
  }
  for (const ShardStats& s : router.stats().shards) {
    EXPECT_GT(s.resident_bytes, 0u);
    EXPECT_LE(s.resident_bytes, cap);
  }
}

TEST_F(ShardTest, ShardKillChaosKeepsAvailabilityAndTokens) {
  const std::vector<std::vector<TokenId>> expected = reference_tokens();

  // The CI smoke drives this with an env spec; locally a fixed seed kills
  // aggressively. R=2 + auto-restart: every kill is survivable, so
  // availability must be exactly 1.0 and every token stream must match the
  // unsharded reference bitwise.
  const char* env = std::getenv("PC_FAULTS");
  const std::string spec = env != nullptr && *env != '\0'
                               ? std::string(env)
                               : "seed=77,shardkill=0.15";
  FaultInjector::global().configure(spec);

  ShardConfig cfg = base_config(3, 2);
  cfg.restart_after_submits = 4;
  constexpr int kRequests = 48;
  uint64_t kills = 0;
  uint64_t observed_failovers = 0;
  {
    ShardRouter router(model_, workload_.tokenizer(), cfg);
    for (int i = 0; i < kRequests; ++i) {
      router.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts],
                    ask_options(workload_));
    }
    const std::vector<ShardResponse> responses = router.drain();
    kills = FaultInjector::global().injected(FaultPoint::kShardKill);
    FaultInjector::global().disable();

    ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const ShardResponse& r = responses[static_cast<size_t>(i)];
      EXPECT_EQ(r.id, static_cast<uint64_t>(i));
      EXPECT_TRUE(is_served(r.resp.status))
          << "id " << i << " " << to_string(r.resp.status) << ": "
          << r.resp.detail;
      EXPECT_EQ(r.resp.result.tokens,
                expected[static_cast<size_t>(i) % kNumPrompts])
          << "id " << i << " status " << to_string(r.resp.status)
          << " failovers " << r.failovers;
      observed_failovers += static_cast<uint64_t>(r.failovers);
    }

    const ShardRouterStats stats = router.stats();
    EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.delivered, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_DOUBLE_EQ(stats.availability, 1.0);
    // Exact reconciliation: every injected kill killed a live shard (the
    // point is only polled while a victim exists), and every failover a
    // delivered response reports is counted once.
    EXPECT_EQ(stats.kills, kills);
    uint64_t shard_kills = 0;
    for (const auto& s : stats.shards) shard_kills += s.kills;
    EXPECT_EQ(shard_kills, kills);
    EXPECT_EQ(stats.failovers, observed_failovers);
    if (env == nullptr || *env == '\0') {
      EXPECT_GT(kills, 0u) << "the fixed seed must inject real kills";
    }
  }
}

}  // namespace
}  // namespace pc

