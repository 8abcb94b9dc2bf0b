// Tiered module store (docs/INTERNALS.md §15): disk spill + async prefetch.
//
//   * split_capacity accounting: shard slices sum EXACTLY to the configured
//     totals (the clamp-to-1 over-commit is fixed), and a module that fits
//     the total but not a 1/N slice raises a CacheError that says so;
//   * spill / fault-in round trips are bitwise: a RAM-capped store backed
//     by the disk tier serves byte-identical tokens to an uncapped one;
//   * prefetch() overlaps disk reads with serving, dedups against demand
//     fault-ins through the single-flight map, and the hit/miss accounting
//     reconciles exactly (conservation law below); the prefetcher's binder
//     only parses, so the workers encode the schema;
//   * crash atomicity: engine save_modules() and spill files are written
//     tmp+flush+rename, so a simulated partial write is invisible after
//     restart;
//   * injected disk faults (PC_FAULTS diskread/diskwrite) degrade fault-ins
//     to re-encodes and spills to destroy-evictions — availability stays
//     1.0 and the pc_store_disk_* counters still reconcile;
//   * continuous batching over a RAM-capped disk-tier store: requests
//     borrow (and pin) their modules in place while other modules spill
//     and fault back in, tokens match an uncapped batching run bitwise,
//     and a drained batch holds no KV and no pins.
//
// Conservation law, exact at quiescence (every spill record is eventually
// consumed by exactly one of fault-in / eviction / failed read, or is still
// on disk):  spills == faults + evictions + read_failures + spilled.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/serialize.h"
#include "core/shared_module_store.h"
#include "eval/workload.h"
#include "model/induction.h"
#include "sys/fault.h"
#include "sys/server.h"

namespace pc {
namespace {

// Every test leaves the injector disarmed, whatever PC_FAULTS says; tests
// that want faults configure their own (same posture as test_faults.cpp).
class TieredStoreTest : public ::testing::Test {
 protected:
  TieredStoreTest() { FaultInjector::global().disable(); }
  ~TieredStoreTest() override { FaultInjector::global().disable(); }

  static DiskTierConfig disk_config() {
    DiskTierConfig d;
    d.enabled = true;
    d.dir = ::testing::TempDir();
    return d;
  }
};

// A payload with real, distinctive fp32 states (so spill round trips can be
// checked bitwise): bytes_per_token = kv_dim * 2 * n_layers * 4 = 64.
EncodedModule make_real_payload(int n_tokens, float seed) {
  EncodedModule m;
  m.n_tokens = n_tokens;
  m.kv_dim = 4;
  m.n_layers = 2;
  m.kv32.emplace(m.n_layers, m.kv_dim);
  std::vector<int> pos(static_cast<size_t>(n_tokens));
  for (int i = 0; i < n_tokens; ++i) pos[static_cast<size_t>(i)] = i;
  m.kv32->append_tokens(pos);
  for (int l = 0; l < m.n_layers; ++l) {
    for (int t = 0; t < n_tokens; ++t) {
      for (int e = 0; e < m.kv_dim; ++e) {
        const float v = seed + 100.0f * l + 10.0f * t + e;
        m.kv32->k_row(l, t)[e] = v;
        m.kv32->v_row(l, t)[e] = -v;
      }
    }
  }
  m.text_row_ranges = {{0, n_tokens}};
  return m;
}

bool payloads_bitwise_equal(const EncodedModule& a, const EncodedModule& b) {
  if (a.n_tokens != b.n_tokens || a.kv_dim != b.kv_dim ||
      a.n_layers != b.n_layers) {
    return false;
  }
  for (int l = 0; l < a.n_layers; ++l) {
    for (int t = 0; t < a.n_tokens; ++t) {
      for (int e = 0; e < a.kv_dim; ++e) {
        if (a.kv32->k_row(l, t)[e] != b.kv32->k_row(l, t)[e]) return false;
        if (a.kv32->v_row(l, t)[e] != b.kv32->v_row(l, t)[e]) return false;
      }
    }
  }
  return true;
}

// An 8-byte payload (kv_dim 1, 1 layer, 1 token) for capacity-accounting
// tests where whole-module granularity would hide the arithmetic.
EncodedModule tiny_payload(int n_tokens) {
  EncodedModule m;
  m.n_tokens = n_tokens;
  m.kv_dim = 1;
  m.n_layers = 1;
  m.kv32.emplace(1, 1);
  std::vector<int> pos(static_cast<size_t>(n_tokens));
  for (int i = 0; i < n_tokens; ++i) pos[static_cast<size_t>(i)] = i;
  m.kv32->append_tokens(pos);
  return m;
}

void check_conservation(const DiskTierStats& d) {
  EXPECT_EQ(d.spills,
            d.faults + d.evictions + d.read_failures + d.spilled)
      << "spills=" << d.spills << " faults=" << d.faults
      << " evictions=" << d.evictions
      << " read_failures=" << d.read_failures << " spilled=" << d.spilled;
}

// ---------------------------------------------------------------------------
// Satellite: split_capacity accounting.

TEST_F(TieredStoreTest, ShardSlicesSumExactlyToConfiguredTotals) {
  // Regression: with capacity < n_shards the old clamp gave every shard
  // max(total/n, 1) = 1 byte, so 8 shards of a 4-byte store could admit 8
  // bytes — more than configured. Slices must sum exactly.
  SharedModuleStore store(/*device=*/4, /*host=*/3, /*n_shards=*/8);
  EXPECT_EQ(store.usage(ModuleLocation::kDeviceMemory).capacity_bytes, 4u);
  EXPECT_EQ(store.usage(ModuleLocation::kHostMemory).capacity_bytes, 3u);

  SharedModuleStore even(/*device=*/1000, /*host=*/999, /*n_shards=*/8);
  EXPECT_EQ(even.usage(ModuleLocation::kDeviceMemory).capacity_bytes, 1000u);
  EXPECT_EQ(even.usage(ModuleLocation::kHostMemory).capacity_bytes, 999u);

  // 0 still means unlimited, not a closed 0-byte slice.
  SharedModuleStore unlimited(/*device=*/0, /*host=*/0, /*n_shards=*/8);
  unlimited.insert("k", tiny_payload(4));
  EXPECT_TRUE(unlimited.contains("k"));
}

TEST_F(TieredStoreTest, OverSliceUnderTotalRaisesShardingError) {
  // Totals of 12 bytes over 8 shards: every slice is 1 or 2 bytes. An
  // 8-byte module fits the configured total but no slice — the error must
  // name the sharding problem, not claim the store is too small.
  SharedModuleStore store(/*device=*/12, /*host=*/12, /*n_shards=*/8);
  try {
    store.insert("k", tiny_payload(1));  // 8 bytes
    FAIL() << "insert must throw CacheError";
  } catch (const CacheError& e) {
    EXPECT_NE(std::string(e.what()).find("per-shard slice"),
              std::string::npos)
        << e.what();
  }

  // A 16-byte module exceeds the totals themselves: the plain capacity
  // error, no sharding hint.
  try {
    store.insert("k", tiny_payload(2));
    FAIL() << "insert must throw CacheError";
  } catch (const CacheError& e) {
    EXPECT_EQ(std::string(e.what()).find("per-shard slice"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(TieredStoreTest, EnvConfigEnablesAndBoundsTheDiskTier) {
  // PC_DISK_DIR / PC_DISK_CAPACITY drive any store built without an
  // explicit DiskTierConfig (the 3-arg constructor).
  const std::string dir = ::testing::TempDir() + "pc_env_disk";
  std::filesystem::create_directories(dir);
  setenv("PC_DISK_DIR", dir.c_str(), 1);
  setenv("PC_DISK_CAPACITY", "128", 1);
  {
    SharedModuleStore store(/*device=*/128, /*host=*/1, /*n_shards=*/1);
    ASSERT_TRUE(store.disk_enabled());

    // RAM holds one 128-byte payload; overflow spills under PC_DISK_DIR.
    store.insert("a", make_real_payload(2, 1.0f));
    store.insert("b", make_real_payload(2, 2.0f));  // "a" spills
    EXPECT_EQ(store.disk_stats().spills, 1u);
    bool spill_file_in_dir = false;
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(dir)) {
      if (e.path().extension() == ".pcmod") spill_file_in_dir = true;
    }
    EXPECT_TRUE(spill_file_in_dir);

    // Fault-in round trip stays bitwise through the env-configured tier.
    auto ref = store.find("a");  // "b" spills to make room
    ASSERT_TRUE(ref);
    EXPECT_TRUE(payloads_bitwise_equal(*ref, make_real_payload(2, 1.0f)));

    // The 128-byte disk budget admits one record: spilling "a" again must
    // destroy the coldest spilled record ("b") instead of growing the tier.
    store.insert("c", make_real_payload(2, 3.0f));
    const DiskTierStats d = store.disk_stats();
    EXPECT_EQ(d.evictions, 1u);
    EXPECT_FALSE(store.contains("b"));
    EXPECT_TRUE(store.contains("a"));
    check_conservation(d);
  }
  unsetenv("PC_DISK_DIR");
  unsetenv("PC_DISK_CAPACITY");

  // Without PC_DISK_DIR the default-config store has no disk tier.
  SharedModuleStore plain(/*device=*/128, /*host=*/1, /*n_shards=*/1);
  EXPECT_FALSE(plain.disk_enabled());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Tentpole: spill, fault-in, prefetch.

TEST_F(TieredStoreTest, SpillAndFaultInRoundTripIsBitwise) {
  // Room for exactly two 64-byte payloads in RAM (device only; host is a
  // closed 1-byte tier), unbounded disk underneath.
  SharedModuleStore store(/*device=*/128, /*host=*/1, disk_config(),
                          /*n_shards=*/1);
  ASSERT_TRUE(store.disk_enabled());

  const EncodedModule a = make_real_payload(1, 1000.0f);
  store.insert("a", make_real_payload(1, 1000.0f));
  store.insert("b", make_real_payload(1, 2000.0f));
  store.insert("c", make_real_payload(1, 3000.0f));  // spills coldest: "a"

  DiskTierStats d = store.disk_stats();
  EXPECT_EQ(d.spills, 1u);
  EXPECT_EQ(d.spilled, 1u);
  EXPECT_EQ(d.spilled_bytes, 64u);
  EXPECT_EQ(store.spilled_count(), 1u);
  EXPECT_TRUE(store.contains("a"));  // reachable, just not RAM-resident
  EXPECT_EQ(store.size(), 2u);       // RAM entries only

  // Demand fault-in through find(): bitwise-identical payload comes back,
  // and the RAM eviction it causes spills the next-coldest entry.
  auto ref = store.find("a");
  ASSERT_TRUE(ref);
  EXPECT_TRUE(payloads_bitwise_equal(*ref, a));

  d = store.disk_stats();
  EXPECT_EQ(d.faults, 1u);
  EXPECT_EQ(d.prefetch_misses, 1u);  // demand fault-in, no prefetch ran
  EXPECT_GT(d.stall_us, 0u);
  check_conservation(d);

  const ModuleStoreStats s = store.stats();
  EXPECT_GE(s.hits, 1u);  // the fault-in counted as a store hit
}

TEST_F(TieredStoreTest, PrefetchTagsEntriesAndHitAccountingReconciles) {
  SharedModuleStore store(/*device=*/128, /*host=*/1, disk_config(),
                          /*n_shards=*/1);
  store.insert("a", make_real_payload(1, 1.0f));
  store.insert("b", make_real_payload(1, 2.0f));
  store.insert("c", make_real_payload(1, 3.0f));  // "a" spills

  // Prefetch faults "a" in ahead of demand (spilling "b" to make room)
  // and tags it; the first lookup that lands on the tag is a prefetch hit.
  EXPECT_TRUE(store.prefetch("a"));
  EXPECT_TRUE(store.find("a"));
  // A second lookup is an ordinary hit — the tag is consumed once.
  EXPECT_TRUE(store.find("a"));

  // "b" was spilled by the prefetch; its demand fault-in is the latency
  // the prefetcher failed to hide — a prefetch miss.
  EXPECT_TRUE(store.find("b"));

  // Prefetch of a RAM-resident key is a cheap recency bump; of an unknown
  // key, a refusal.
  EXPECT_TRUE(store.prefetch("b"));
  EXPECT_FALSE(store.prefetch("nope"));

  const DiskTierStats d = store.disk_stats();
  EXPECT_EQ(d.prefetch_hits, 1u);
  EXPECT_EQ(d.prefetch_misses, 1u);
  EXPECT_EQ(d.faults, 2u);
  EXPECT_DOUBLE_EQ(d.prefetch_hit_rate(), 0.5);
  check_conservation(d);
}

TEST_F(TieredStoreTest, DiskCapacityEvictsColdestSpilledRecords) {
  // Disk holds exactly two 64-byte records; the third spill must destroy
  // the coldest one.
  DiskTierConfig dc = disk_config();
  dc.capacity_bytes = 128;
  SharedModuleStore store(/*device=*/64, /*host=*/1, dc, /*n_shards=*/1);
  store.insert("a", make_real_payload(1, 1.0f));
  store.insert("b", make_real_payload(1, 2.0f));  // a -> disk
  store.insert("c", make_real_payload(1, 3.0f));  // b -> disk
  store.insert("d", make_real_payload(1, 4.0f));  // c -> disk, a destroyed

  EXPECT_FALSE(store.contains("a"));
  EXPECT_TRUE(store.contains("b"));
  EXPECT_TRUE(store.contains("c"));
  const DiskTierStats d = store.disk_stats();
  EXPECT_EQ(d.spills, 3u);
  EXPECT_EQ(d.evictions, 1u);
  EXPECT_EQ(d.spilled, 2u);
  EXPECT_LE(d.spilled_bytes, 128u);
  check_conservation(d);

  // erase()/clear() drop spill records too (counted as disk evictions, so
  // the books still balance).
  store.erase("b");
  EXPECT_FALSE(store.contains("b"));
  store.clear();
  EXPECT_EQ(store.spilled_count(), 0u);
  EXPECT_EQ(store.spilled_bytes(), 0u);
  check_conservation(store.disk_stats());
}

TEST_F(TieredStoreTest, EvictionPrefetchAndEnsureRacesStayConsistent) {
  // Three-way churn on one shard: ensure() leaders, prefetch() fault-ins,
  // and insert/erase pressure all collide on the same keys. Run under TSan
  // by the tiered-chaos CI job; the invariants here catch lost accounting.
  DiskTierConfig dc = disk_config();
  dc.capacity_bytes = 4096;
  SharedModuleStore store(/*device=*/256, /*host=*/256, dc, /*n_shards=*/1);
  constexpr int kKeys = 10;
  constexpr int kIters = 250;
  auto key_of = [](int k) { return "key" + std::to_string(k); };
  std::atomic<int> bad_payloads{0};

  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // demand path
    for (int i = 0; i < kIters; ++i) {
      const int k = (i * 7) % kKeys;
      auto ref = store.ensure(key_of(k), [&] {
        return make_real_payload(1, static_cast<float>(k));
      });
      if (!ref ||
          !payloads_bitwise_equal(*ref,
                                  make_real_payload(1, static_cast<float>(k)))) {
        bad_payloads.fetch_add(1);
      }
    }
  });
  threads.emplace_back([&] {  // prefetch pipeline
    for (int i = 0; i < kIters; ++i) {
      (void)store.prefetch(key_of((i * 3) % kKeys));
    }
  });
  threads.emplace_back([&] {  // capacity churn + administrative erases
    for (int i = 0; i < kIters; ++i) {
      const int k = (i * 5) % kKeys;
      if (i % 10 == 9) {
        store.erase(key_of(k));
      } else {
        store.insert(key_of(k), make_real_payload(1, static_cast<float>(k)));
      }
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(bad_payloads.load(), 0);
  EXPECT_LE(store.usage(ModuleLocation::kDeviceMemory).used_bytes, 256u);
  EXPECT_LE(store.usage(ModuleLocation::kHostMemory).used_bytes, 256u);
  EXPECT_LE(store.resident_bytes(), store.peak_resident_bytes());
  check_conservation(store.disk_stats());
}

// ---------------------------------------------------------------------------
// Engine + Server over a RAM-capped tiered store.

constexpr char kSchema[] = R"(
  <schema name="c">
    <module name="d1">w00 w01 q05 a10 a11 . w02</module>
    <module name="d2">w03 q06 a12 a13 . w04</module>
    <module name="d3">w05 w06 q07 a14 a15 . w07</module>
    <module name="d4">w08 q08 a16 a17 . w09</module>
  </schema>)";

const char* kAsks[] = {
    R"(<prompt schema="c"><d1/><d2/> question: q05</prompt>)",
    R"(<prompt schema="c"><d1/><d2/> question: q06</prompt>)",
    R"(<prompt schema="c"><d3/><d4/> question: q07</prompt>)",
    R"(<prompt schema="c"><d3/><d4/> question: q08</prompt>)",
    R"(<prompt schema="c"><d1/><d2/><d3/><d4/> question: q07</prompt>)",
    R"(<prompt schema="c"><d2/><d4/> question: q08</prompt>)",
};

GenerateOptions ask_options(const AccuracyWorkload& workload) {
  GenerateOptions opts;
  opts.max_new_tokens = 5;
  opts.stop_tokens = {workload.stop_token()};
  return opts;
}

TEST_F(TieredStoreTest, RamCappedTieredServingIsBitwiseIdentical) {
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  const GenerateOptions opts = ask_options(workload);

  // Reference: unlimited private engine.
  PromptCacheEngine reference(model, workload.tokenizer());
  reference.load_schema(kSchema);
  std::vector<std::vector<TokenId>> expected;
  for (const char* ask : kAsks) {
    expected.push_back(reference.serve(ask, opts).tokens);
  }
  size_t max_module = 0;
  reference.store().for_each(
      [&](const std::string&, const EncodedModule& m, ModuleLocation) {
        max_module = std::max(max_module, m.payload_bytes());
      });

  // RAM holds ~1.5 modules of a 4-module working set; everything else
  // cycles through spill files. Without the disk tier this config thrashes
  // with re-encodes (test_shared_store.cpp ThrashReencode); with it, the
  // modules round-trip through disk and must serve bitwise-identically.
  SharedModuleStore store(/*device=*/max_module * 3 / 2, /*host=*/1,
                          disk_config(), /*n_shards=*/1);
  PromptCacheEngine engine(model, workload.tokenizer(), store);
  engine.load_schema(kSchema);
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < std::size(kAsks); ++i) {
      EXPECT_EQ(engine.serve(kAsks[i], opts).tokens, expected[i])
          << "round " << round << " ask " << i;
    }
  }

  const DiskTierStats d = store.disk_stats();
  EXPECT_GT(d.spills, 0u);
  EXPECT_GT(d.faults, 0u);
  check_conservation(d);
  // The RAM cap held the whole time — that is what the disk tier buys.
  EXPECT_LE(store.peak_resident_bytes(), max_module * 3 / 2 + 1);
}

TEST_F(TieredStoreTest, ServerPrefetchPipelineOverlapsAndStaysCorrect) {
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  const GenerateOptions opts = ask_options(workload);

  PromptCacheEngine reference(model, workload.tokenizer());
  reference.load_schema(kSchema);
  std::vector<std::vector<TokenId>> expected;
  size_t module_bytes = 0;
  for (const char* ask : kAsks) {
    expected.push_back(reference.serve(ask, opts).tokens);
  }
  reference.store().for_each(
      [&](const std::string&, const EncodedModule& m, ModuleLocation) {
        module_bytes += m.payload_bytes();
      });

  // RAM cap at half the working set; one worker so queued requests give
  // the prefetcher a window to work ahead of admission.
  SharedModuleStore store(/*device=*/module_bytes / 2, /*host=*/1,
                          disk_config(), /*n_shards=*/1);
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.queue_capacity = 32;
  cfg.schemas = {kSchema};
  cfg.prefetch = true;
  cfg.prefetch_depth = 3;
  Server server(model, workload.tokenizer(), store, cfg);
  ASSERT_NE(server.prefetcher(), nullptr);

  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    server.submit(kAsks[i % std::size(kAsks)], opts);
  }
  const std::vector<ServerResponse> responses = server.drain();
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const ServerResponse& r = responses[static_cast<size_t>(i)];
    EXPECT_EQ(r.status, ServeStatus::kOk) << r.detail;
    EXPECT_EQ(r.result.tokens, expected[static_cast<size_t>(i) %
                                        std::size(kAsks)]);
  }

  const StorePrefetcher::Stats ps = server.prefetcher()->stats();
  EXPECT_EQ(ps.prompts, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(ps.bind_errors, 0u);
  EXPECT_GT(ps.keys_issued, 0u);
  check_conservation(store.disk_stats());
  EXPECT_LE(store.peak_resident_bytes(), module_bytes / 2 + 1);
}

TEST_F(TieredStoreTest, WorkersEncodeTheSchemaWithPrefetchOn) {
  // The prefetcher's binder only maps prompts to keys: the workers encode
  // the schema, into the store they serve from, and the server counts it.
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  EngineConfig parse_only;
  parse_only.eager_encode = false;
  PromptCacheEngine probe(model, workload.tokenizer(), parse_only);
  const uint64_t n_modules = probe.load_schema(kSchema).modules.size();

  SharedModuleStore store(/*device=*/0, /*host=*/0, disk_config(),
                          /*n_shards=*/1);
  ServerConfig cfg;
  cfg.n_workers = 2;
  cfg.schemas = {kSchema};
  cfg.prefetch = true;
  Server server(model, workload.tokenizer(), store, cfg);
  ASSERT_NE(server.prefetcher(), nullptr);
  EXPECT_EQ(server.stats().modules_encoded, n_modules);
  EXPECT_EQ(store.stats().insertions, n_modules);
}

TEST_F(TieredStoreTest, BatchingOverRamCappedDiskTierIsBitwiseIdentical) {
  // Twelve same-size modules, two per prompt. One borrowing lane's
  // requests pin the modules they borrow, so the RAM cap must leave room
  // for max_batch x 2 pinned modules plus one to fault in: 10 modules' worth, below the 12
  // the schema encodes — the rest live on the disk tier.
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  const GenerateOptions opts = ask_options(workload);
  constexpr int kModules = 12;
  constexpr int kMaxBatch = 4;
  constexpr int kImports = 2;
  const auto two = [](int v) {
    std::string s = std::to_string(v);
    return s.size() < 2 ? "0" + s : s;
  };
  std::string schema = "<schema name=\"cap\">";
  for (int m = 0; m < kModules; ++m) {
    schema += "<module name=\"m" + two(m) + "\">w00 w01 q" + two(10 + m) +
              " a" + two(20 + 2 * m) + " a" + two(21 + 2 * m) +
              " . w02</module>";
  }
  schema += "</schema>";
  Rng rng(31);
  std::vector<std::string> prompts;
  for (int i = 0; i < 32; ++i) {
    std::vector<int> picked;
    while (static_cast<int>(picked.size()) < kImports) {
      const int m = static_cast<int>(rng.next_below(kModules));
      if (std::find(picked.begin(), picked.end(), m) == picked.end()) {
        picked.push_back(m);
      }
    }
    const int asked = picked[0];
    std::sort(picked.begin(), picked.end());
    std::string prompt = "<prompt schema=\"cap\">";
    for (int m : picked) prompt += "<m" + two(m) + "/>";
    prompts.push_back(prompt + " question: q" + two(10 + asked) + "</prompt>");
  }

  const auto serve_all = [&](SharedModuleStore& store) {
    ServerConfig cfg;
    cfg.n_workers = 1;
    cfg.engine.zero_copy = true;
    cfg.batch.max_batch = kMaxBatch;
    cfg.queue_capacity = 64;
    cfg.schemas = {schema};
    cfg.prefetch = true;
    Server server(model, workload.tokenizer(), store, cfg);
    for (const std::string& p : prompts) server.submit(p, opts);
    std::vector<ServerResponse> responses = server.drain();
    const ServerStats stats = server.stats();
    server.stop();  // quiesce the prefetcher before reading counters
    EXPECT_EQ(stats.kv_live_bytes, 0u);
    EXPECT_GT(stats.kv_peak_bytes, 0u);
    return responses;
  };

  SharedModuleStore uncapped(/*device=*/0, /*host=*/0, /*n_shards=*/1);
  const std::vector<ServerResponse> expected = serve_all(uncapped);
  size_t module_bytes = 0;
  uncapped.for_each(
      [&](const std::string&, const EncodedModule& m, ModuleLocation) {
        EXPECT_TRUE(module_bytes == 0 || module_bytes == m.payload_bytes());
        module_bytes = m.payload_bytes();
      });
  ASSERT_EQ(uncapped.size(), static_cast<size_t>(kModules));
  static_assert(kMaxBatch * kImports + 1 <= 10 && 10 < kModules);

  SharedModuleStore capped(/*device=*/10 * module_bytes, /*host=*/1,
                           disk_config(), /*n_shards=*/1);
  const std::vector<ServerResponse> responses = serve_all(capped);
  ASSERT_EQ(responses.size(), prompts.size());
  ASSERT_EQ(expected.size(), prompts.size());
  for (size_t i = 0; i < prompts.size(); ++i) {
    EXPECT_EQ(responses[i].status, ServeStatus::kOk) << responses[i].detail;
    EXPECT_EQ(expected[i].status, ServeStatus::kOk) << expected[i].detail;
    EXPECT_EQ(responses[i].result.tokens, expected[i].result.tokens)
        << "prompt " << i;
    EXPECT_FALSE(responses[i].result.tokens.empty());
  }

  const DiskTierStats d = capped.disk_stats();
  EXPECT_GT(d.spills, 0u);
  EXPECT_GT(d.faults, 0u);
  check_conservation(d);
  EXPECT_LE(capped.peak_resident_bytes(), 10 * module_bytes);
  // Every borrow was returned: nothing in either store is still pinned.
  for (SharedModuleStore* store : {&uncapped, &capped}) {
    std::vector<std::string> keys;
    store->for_each([&](const std::string& key, const EncodedModule&,
                        ModuleLocation) { keys.push_back(key); });
    for (const std::string& key : keys) {
      EXPECT_EQ(store->pin_count(key), 0) << key;
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: crash-atomic persistence.

TEST_F(TieredStoreTest, PartialSaveIsInvisibleAfterRestart) {
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  const std::string path = ::testing::TempDir() + "pc_tiered_save.bin";

  PromptCacheEngine writer(model, workload.tokenizer());
  writer.load_schema(kSchema);
  ASSERT_EQ(writer.save_modules(path), 4u);

  // Simulate the pre-fix failure mode: a crash mid-write used to leave a
  // truncated file at the destination. Such a file must fail loudly...
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  const std::string crashed = path + ".crashed";
  {
    std::ofstream os(crashed, std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() / 2));
  }
  EngineConfig lazy;
  lazy.eager_encode = false;
  PromptCacheEngine reader(model, workload.tokenizer(), lazy);
  reader.load_schema(kSchema);
  EXPECT_THROW(reader.load_modules(crashed), Error);

  // ...and with tmp+rename a crash leaves the truncated bytes in the .tmp,
  // never the destination: a restart sees the intact previous save and
  // ignores the leftover.
  {
    std::ofstream os(path + ".tmp", std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() / 3));
  }
  EXPECT_EQ(reader.load_modules(path), 4u);
  const GenerateOptions opts = ask_options(workload);
  EXPECT_EQ(reader.serve(kAsks[1], opts).text, "a12 a13");
  EXPECT_EQ(reader.stats().modules_encoded, 0u);

  // A save that cannot complete must leave no destination file at all.
  const std::string bad =
      ::testing::TempDir() + "pc_no_such_dir/deeper/save.bin";
  EXPECT_THROW(writer.save_modules(bad), Error);
  EXPECT_FALSE(std::ifstream(bad).good());

  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove(crashed.c_str());
}

#if PC_FAULTS_ENABLED

// ---------------------------------------------------------------------------
// Satellite: disk-fault chaos.

TEST_F(TieredStoreTest, SpillWriteFaultsDegradeToDestroyEviction) {
  FaultInjector::global().configure("seed=5,diskwrite=1.0");
  SharedModuleStore store(/*device=*/128, /*host=*/1, disk_config(),
                          /*n_shards=*/1);
  store.insert("a", make_real_payload(1, 1.0f));
  store.insert("b", make_real_payload(1, 2.0f));
  store.insert("c", make_real_payload(1, 3.0f));  // spill of "a" fails

  EXPECT_FALSE(store.contains("a"));  // destroyed, not spilled
  const DiskTierStats d = store.disk_stats();
  EXPECT_EQ(d.spills, 0u);
  EXPECT_EQ(d.spill_failures, 1u);
  EXPECT_GE(store.stats().evictions, 1u);  // RAM destroy-eviction counted
  check_conservation(d);
  FaultInjector::global().disable();
}

TEST_F(TieredStoreTest, ReadFaultFallsBackToReencode) {
  FaultInjector::global().configure("seed=5,diskread=1.0");
  SharedModuleStore store(/*device=*/128, /*host=*/1, disk_config(),
                          /*n_shards=*/1);
  std::atomic<int> encodes{0};
  auto encode_a = [&] {
    encodes.fetch_add(1);
    return make_real_payload(1, 1.0f);
  };
  (void)store.ensure("a", encode_a);
  (void)store.ensure("b", [&] { return make_real_payload(1, 2.0f); });
  (void)store.ensure("c", [&] { return make_real_payload(1, 3.0f); });
  ASSERT_EQ(store.spilled_count(), 1u);  // "a" spilled

  // Every disk read fails: ensure()'s fault-in drops the record and the
  // same leader re-encodes under the same flight — the caller still gets
  // a valid, bitwise-identical payload.
  auto ref = store.ensure("a", encode_a);
  ASSERT_TRUE(ref);
  EXPECT_TRUE(payloads_bitwise_equal(*ref, make_real_payload(1, 1.0f)));
  EXPECT_EQ(encodes.load(), 2);

  const DiskTierStats d = store.disk_stats();
  EXPECT_EQ(d.read_failures, 1u);
  EXPECT_EQ(d.faults, 0u);
  check_conservation(d);
  FaultInjector::global().disable();
}

TEST_F(TieredStoreTest, DiskFaultChaosKeepsAvailabilityAtOne) {
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  const GenerateOptions opts = ask_options(workload);

  PromptCacheEngine reference(model, workload.tokenizer());
  reference.load_schema(kSchema);
  std::vector<std::vector<TokenId>> expected;
  size_t module_bytes = 0;
  for (const char* ask : kAsks) {
    expected.push_back(reference.serve(ask, opts).tokens);
  }
  reference.store().for_each(
      [&](const std::string&, const EncodedModule& m, ModuleLocation) {
        module_bytes += m.payload_bytes();
      });

  SharedModuleStore store(/*device=*/module_bytes / 2, /*host=*/1,
                          disk_config(), /*n_shards=*/1);
  // Arm AFTER construction so the spill dir setup is clean, BEFORE serving
  // so spills and fault-ins both draw faults.
  FaultInjector::global().configure("seed=23,diskread=0.3,diskwrite=0.3");

  ServerConfig cfg;
  cfg.n_workers = 2;
  cfg.queue_capacity = 32;
  cfg.schemas = {kSchema};
  cfg.prefetch = true;
  Server server(model, workload.tokenizer(), store, cfg);
  constexpr int kRequests = 30;
  for (int i = 0; i < kRequests; ++i) {
    server.submit(kAsks[i % std::size(kAsks)], opts);
  }
  const std::vector<ServerResponse> responses = server.drain();
  server.stop();  // quiesce the prefetcher before reading counters
  FaultInjector::global().disable();

  // Availability 1.0: every request served (ok, or degraded to full
  // prefill), every one bitwise-identical to the reference.
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const ServerResponse& r = responses[static_cast<size_t>(i)];
    EXPECT_TRUE(is_served(r.status)) << to_string(r.status) << " " << r.detail;
    EXPECT_EQ(r.result.tokens,
              expected[static_cast<size_t>(i) % std::size(kAsks)]);
  }

  // Exact reconciliation under injected faults: failed spills were counted,
  // failed reads dropped their records, and the books still balance.
  check_conservation(store.disk_stats());
}

#endif  // PC_FAULTS_ENABLED

}  // namespace
}  // namespace pc
