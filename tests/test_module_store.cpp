// Unit tests for the store a standalone engine owns — a one-shard
// SharedModuleStore with no disk tier: placement, LRU eviction, pinning,
// tier promotion, the engine's union-sibling prefetch, and the equivalence
// of a standalone engine with an engine over an explicit one-shard store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/shared_module_store.h"
#include "eval/workload.h"
#include "model/induction.h"
#include "sys/fault.h"

namespace pc {
namespace {

EncodedModule make_module(int n_tokens) {
  EncodedModule m;
  m.precision = StorePrecision::kFp32;
  m.n_tokens = n_tokens;
  m.kv_dim = 8;
  m.n_layers = 2;
  KVCache kv(2, 8);
  std::vector<int> pos(static_cast<size_t>(n_tokens));
  for (int i = 0; i < n_tokens; ++i) pos[static_cast<size_t>(i)] = i;
  kv.append_tokens(pos);
  m.kv32 = std::move(kv);
  m.text_row_ranges = {{0, n_tokens}};
  return m;
}

size_t module_bytes(int n_tokens) { return make_module(n_tokens).payload_bytes(); }

// The store a standalone engine owns: one shard, no disk tier.
struct OneShard : SharedModuleStore {
  OneShard(size_t device, size_t host)
      : SharedModuleStore(device, host, DiskTierConfig{}, /*n_shards=*/1) {}
};

TEST(OneShardStore, PlacesDeviceFirstThenSpillsToHost) {
  OneShard store(/*device=*/module_bytes(4), /*host=*/0);
  store.insert("a", make_module(4));
  SharedModuleStore::ModuleRef ref = store.find("a");
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.location(), ModuleLocation::kDeviceMemory);

  // Device is full but host has room: spill, don't evict — every module
  // stays resident (§4.1).
  store.insert("b", make_module(4));
  ref = store.find("b");
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.location(), ModuleLocation::kHostMemory);
  EXPECT_TRUE(store.find("a"));
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(OneShardStore, FindBumpsRecency) {
  // No host tier: the store must evict within the device tier, and LRU
  // order decides the victim.
  OneShard store(module_bytes(4) * 2, /*host=*/1);
  store.insert("a", make_module(4));
  store.insert("b", make_module(4));
  // Touch "a" so "b" becomes the LRU victim.
  (void)store.find("a");
  store.insert("c", make_module(4));
  EXPECT_TRUE(store.find("a"));
  EXPECT_FALSE(store.find("b"));
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(OneShardStore, PinnedEntriesSurviveEviction) {
  OneShard store(module_bytes(4) * 2, /*host=*/1);
  store.insert("sys", make_module(4));
  ASSERT_TRUE(store.pin("sys"));
  EXPECT_TRUE(store.is_pinned("sys"));
  store.insert("b", make_module(4));
  store.insert("c", make_module(4));  // must evict b, not pinned sys
  EXPECT_TRUE(store.find("sys"));
  EXPECT_FALSE(store.find("b"));
  EXPECT_TRUE(store.find("c"));

  ASSERT_TRUE(store.unpin("sys"));
  store.insert("d", make_module(4));
  // Either sys or c got evicted; the store stays within capacity.
  EXPECT_LE(store.usage(ModuleLocation::kDeviceMemory).used_bytes,
            module_bytes(4) * 2);
  EXPECT_FALSE(store.pin("ghost"));
}

TEST(OneShardStore, AllPinnedMeansInsertionFailsLoudly) {
  OneShard store(module_bytes(4), 1);
  store.insert("sys", make_module(4));
  store.pin("sys");
  try {
    store.insert("b", make_module(4));
    FAIL() << "insert must throw CacheError";
  } catch (const CacheError& e) {
    // The module fits the device tier; pinned entries hold its room. One
    // shard has nothing to do with it.
    const std::string what = e.what();
    EXPECT_NE(what.find("held by pinned entries"), std::string::npos) << what;
    EXPECT_EQ(what.find("shard"), std::string::npos) << what;
  }
  EXPECT_TRUE(store.find("sys"));
}

TEST(OneShardStore, PromoteMovesBetweenTiers) {
  // Device fits one module; the second spills to host.
  OneShard store(module_bytes(4), 0);
  store.insert("hot", make_module(4));
  store.insert("cold", make_module(4));
  SharedModuleStore::ModuleRef ref = store.find("cold");
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.location(), ModuleLocation::kHostMemory);

  // Promoting cold displaces hot, which demotes to host (nothing is lost).
  ASSERT_TRUE(store.promote("cold", ModuleLocation::kDeviceMemory));
  ref = store.find("cold");
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.location(), ModuleLocation::kDeviceMemory);
  ref = store.find("hot");
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.location(), ModuleLocation::kHostMemory);
  EXPECT_EQ(store.stats().promotions, 1u);
  EXPECT_EQ(store.stats().demotions, 1u);
  EXPECT_EQ(store.stats().evictions, 0u);

  // No-op promote succeeds without a new promotion.
  ASSERT_TRUE(store.promote("cold", ModuleLocation::kDeviceMemory));
  EXPECT_EQ(store.stats().promotions, 1u);
  EXPECT_FALSE(store.promote("ghost", ModuleLocation::kDeviceMemory));
}

TEST(OneShardStore, PromoteRespectsPinsInTargetTier) {
  OneShard store(module_bytes(4), 0);
  store.insert("pinned", make_module(4));
  store.pin("pinned");
  store.insert("other", make_module(4));  // spills to host
  EXPECT_FALSE(store.promote("other", ModuleLocation::kDeviceMemory));
  const SharedModuleStore::ModuleRef ref = store.find("pinned");
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.location(), ModuleLocation::kDeviceMemory);
}

TEST(OneShardStore, ClearReleasesEverything) {
  OneShard store(0, 0);
  store.insert("a", make_module(4));
  store.insert("b", make_module(8));
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.usage(ModuleLocation::kDeviceMemory).used_bytes, 0u);
  EXPECT_EQ(store.usage(ModuleLocation::kHostMemory).used_bytes, 0u);
}

// Engine-level: union-sibling prefetch pulls alternatives into the device
// tier after a serve that used one member.
TEST(EnginePrefetch, UnionSiblingsArePromoted) {
  AccuracyWorkload workload(7);
  Model model = make_induction_model({workload.vocab().size(), 256});

  const char* schema = R"(
    <schema name="u">
      <union>
        <module name="p0">w00 q05 a10 . w01 w02 w03 w04 w05 w06</module>
        <module name="p1">w07 q05 a11 . w08 w09 w10 w11 w12 w13</module>
        <module name="p2">w14 q05 a12 . w15 w16 w17 w18 w19 w20</module>
      </union>
    </schema>)";

  // Device tier fits ~one module, so the others start on the host.
  const size_t one_module =
      static_cast<size_t>(12) * model.kv_bytes_per_token();
  EngineConfig cfg;
  // Capacity math assumes fp32 module bytes; pin the precision so a q8
  // default (PC_KV_FORMAT=q8) doesn't fit every sibling on-device.
  cfg.precision = StorePrecision::kFp32;
  cfg.device_capacity_bytes = one_module;
  cfg.prefetch_union_siblings = true;
  PromptCacheEngine engine(model, workload.tokenizer(), cfg);
  engine.load_schema(schema);

  GenerateOptions opts;
  opts.max_new_tokens = 2;
  opts.stop_tokens = {workload.stop_token()};
  (void)engine.serve(R"(<prompt schema="u"><p1/> question: q05</prompt>)",
                     opts);
  EXPECT_GT(engine.stats().sibling_prefetches, 0u);

  // A sibling now sits in device memory, so serving it pays no host bytes.
  const ServeResult r2 = engine.serve(
      R"(<prompt schema="u"><p2/> question: q05</prompt>)", opts);
  EXPECT_EQ(r2.ttft.bytes_from_host, 0u);
}

TEST(EnginePin, PinnedSystemModuleSurvivesPressure) {
  AccuracyWorkload workload(7);
  Model model = make_induction_model({workload.vocab().size(), 256});
  const size_t one_module =
      static_cast<size_t>(10) * model.kv_bytes_per_token();
  EngineConfig cfg;
  cfg.device_capacity_bytes = 2 * one_module;
  cfg.host_capacity_bytes = 1;
  cfg.eager_encode = false;
  PromptCacheEngine engine(model, workload.tokenizer(), cfg);
  engine.load_schema(R"(
    <schema name="p">
      <module name="sys">w00 w01 q05 a10 a11 . w02</module>
      <module name="d1">w03 q06 a12 . w04 w05</module>
      <module name="d2">w06 q07 a13 . w07 w08</module>
    </schema>)");
  engine.pin_module("p", "sys");

  GenerateOptions opts;
  opts.max_new_tokens = 3;
  opts.stop_tokens = {workload.stop_token()};
  (void)engine.serve(R"(<prompt schema="p"><sys/><d1/> question: q06</prompt>)",
                     opts);
  (void)engine.serve(R"(<prompt schema="p"><sys/><d2/> question: q07</prompt>)",
                     opts);
  // Through all the churn, the pinned system module was never re-encoded:
  // encodes = sys + d1 + d2 + at most one thrash re-encode of d1/d2.
  EXPECT_TRUE(engine.store().is_pinned("p::sys"));
  const ServeResult r = engine.serve(
      R"(<prompt schema="p"><sys/> question: q05</prompt>)", opts);
  EXPECT_EQ(r.text, "a10 a11");
}

// ---------------------------------------------------------------------------
// One store: a standalone engine sized by EngineConfig and an engine over a
// one-shard SharedModuleStore of the same capacities make the same
// placement, demotion, eviction and encode decisions, serve for serve.
// Hit/miss counters are left out: they count lookups, not residency.

std::string piece(const char* prefix, int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%s%02d", prefix, i);
  return buf;
}

// Passage i: 8 tokens holding the fact q<i> -> a<2i> a<2i+1>.
std::string passage(int i) {
  return piece("w", i % 30) + " " + piece("w", (i + 12) % 30) + " " +
         piece("q", i) + " " + piece("a", 2 * i) + " " +
         piece("a", 2 * i + 1) + " . " + piece("w", (i + 5) % 30) + " " +
         piece("w", (i + 17) % 30);
}

constexpr int kPassages = 12;
constexpr int kImports = 4;

// 12 equal-length passages; each prompt retrieves 4 of them.
std::string passage_schema() {
  std::string pml = R"(<schema name="rag">)";
  for (int i = 0; i < kPassages; ++i) {
    pml += "<module name=\"doc" + std::to_string(i) + "\">" + passage(i) +
           "</module>";
  }
  return pml + "</schema>";
}

// The same 12 passages as 4 unions of 3; each prompt picks one member of
// every union, so union-sibling prefetch has alternatives to promote.
std::string union_schema() {
  std::string pml = R"(<schema name="alt">)";
  for (int u = 0; u < kImports; ++u) {
    pml += "<union>";
    for (int m = 0; m < 3; ++m) {
      const int i = 3 * u + m;
      pml += "<module name=\"doc" + std::to_string(i) + "\">" + passage(i) +
             "</module>";
    }
    pml += "</union>";
  }
  return pml + "</schema>";
}

std::vector<std::string> seeded_prompts(const std::string& schema_name,
                                        bool one_per_union, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> prompts;
  for (int p = 0; p < 60; ++p) {
    std::vector<int> docs;
    if (one_per_union) {
      for (int u = 0; u < kImports; ++u) {
        docs.push_back(3 * u + static_cast<int>(rng.next_below(3)));
      }
    } else {
      while (static_cast<int>(docs.size()) < kImports) {
        const int d = static_cast<int>(rng.next_below(kPassages));
        if (std::find(docs.begin(), docs.end(), d) == docs.end()) {
          docs.push_back(d);
        }
      }
    }
    std::string pml = "<prompt schema=\"" + schema_name + "\">";
    for (int d : docs) pml += "<doc" + std::to_string(d) + "/>";
    const int asked = docs[rng.next_below(docs.size())];
    prompts.push_back(pml + " question: " + piece("q", asked) + "</prompt>");
  }
  return prompts;
}

template <typename Store>
std::map<std::string, ModuleLocation> residency(const Store& store) {
  std::map<std::string, ModuleLocation> out;
  store.for_each([&](const std::string& key, const EncodedModule&,
                     ModuleLocation loc) { out[key] = loc; });
  return out;
}

// Serves `prompts` on both engines, comparing them after every serve and at
// the end; `totals` receives the one-shard store's final counters.
void expect_one_store_equivalence(const Model& model,
                                  const AccuracyWorkload& workload,
                                  const std::string& schema,
                                  const std::vector<std::string>& prompts,
                                  EngineConfig cfg, ModuleStoreStats* totals) {
  // Capacities in whole modules of this precision: the device tier holds
  // ~3, the host tier ~5, of 12.
  size_t module_bytes = 0;
  {
    PromptCacheEngine probe(model, workload.tokenizer(), cfg);
    probe.load_schema(schema);
    probe.store().for_each(
        [&](const std::string&, const EncodedModule& m, ModuleLocation) {
          module_bytes = std::max(module_bytes, m.payload_bytes());
        });
  }
  cfg.device_capacity_bytes = module_bytes * 3 + module_bytes / 2;
  cfg.host_capacity_bytes = module_bytes * 5 + module_bytes / 2;

  PromptCacheEngine standalone(model, workload.tokenizer(), cfg);
  SharedModuleStore one_shard(cfg.device_capacity_bytes,
                              cfg.host_capacity_bytes, DiskTierConfig{},
                              /*n_shards=*/1);
  PromptCacheEngine over_store(model, workload.tokenizer(), one_shard, cfg);
  standalone.load_schema(schema);
  over_store.load_schema(schema);
  ASSERT_EQ(residency(standalone.store()), residency(one_shard));

  GenerateOptions opts;
  opts.max_new_tokens = 2;  // the two-token answer
  opts.stop_tokens = {workload.stop_token()};
  for (size_t i = 0; i < prompts.size(); ++i) {
    const ServeResult a = standalone.serve(prompts[i], opts);
    const ServeResult b = over_store.serve(prompts[i], opts);
    ASSERT_EQ(a.tokens, b.tokens) << "serve " << i << ": " << prompts[i];
    ASSERT_EQ(residency(standalone.store()), residency(one_shard))
        << "serve " << i;
    ASSERT_EQ(a.ttft.bytes_from_host, b.ttft.bytes_from_host)
        << "serve " << i;
  }

  const ModuleStoreStats sa = standalone.store().stats();
  const ModuleStoreStats sb = one_shard.stats();
  EXPECT_EQ(sa.insertions, sb.insertions);
  EXPECT_EQ(sa.evictions, sb.evictions);
  EXPECT_EQ(sa.demotions, sb.demotions);
  EXPECT_EQ(sa.promotions, sb.promotions);
  const EngineStats ea = standalone.stats();
  const EngineStats eb = over_store.stats();
  EXPECT_EQ(ea.modules_encoded, eb.modules_encoded);
  EXPECT_EQ(ea.thrash_reencodes, eb.thrash_reencodes);
  EXPECT_EQ(ea.sibling_prefetches, eb.sibling_prefetches);
  // The caps bite: modules were evicted and re-encoded, some of them
  // inside a serve's TTFT window.
  EXPECT_GT(sb.evictions, 0u);
  EXPECT_GT(eb.modules_encoded, static_cast<uint64_t>(kPassages));
  EXPECT_GT(eb.thrash_reencodes, 0u);
  *totals = sb;
}

TEST(OneStore, PrivateEngineMatchesOneShardStore) {
  // Both engines would draw from one injector schedule; keep it quiet.
  FaultInjector::global().disable();
  AccuracyWorkload workload(7);
  // 128 positions hold the 96-position schema and the prompt's tail.
  const Model model = make_induction_model({workload.vocab().size(), 128});
  const std::vector<std::string> prompts =
      seeded_prompts("rag", /*one_per_union=*/false, /*seed=*/12);
  const std::pair<StorePrecision, const char*> precisions[] = {
      {StorePrecision::kFp32, "fp32"},
      {StorePrecision::kQ8, "q8"},
      {StorePrecision::kQ4, "q4"}};
  for (const auto& [precision, name] : precisions) {
    for (bool zero_copy : {false, true}) {
      SCOPED_TRACE(std::string(name) + (zero_copy ? " zero-copy" : " copy"));
      EngineConfig cfg;
      cfg.precision = precision;
      cfg.zero_copy = zero_copy;
      ModuleStoreStats totals;
      expect_one_store_equivalence(model, workload, passage_schema(), prompts,
                                   cfg, &totals);
    }
  }

  SCOPED_TRACE("unions with sibling prefetch");
  EngineConfig cfg;
  cfg.precision = StorePrecision::kFp32;
  cfg.prefetch_union_siblings = true;
  ModuleStoreStats totals;
  expect_one_store_equivalence(
      model, workload, union_schema(),
      seeded_prompts("alt", /*one_per_union=*/true, /*seed=*/13), cfg,
      &totals);
  // Promoting siblings into a full device tier demotes its coldest entries.
  EXPECT_GT(totals.promotions, 0u);
  EXPECT_GT(totals.demotions, 0u);
}

TEST(OneStore, StandaloneEngineIgnoresDiskEnv) {
  // PC_DISK_DIR enables the disk tier of stores built without an explicit
  // DiskTierConfig; the store a standalone engine owns is not one of them.
  const char* prev = std::getenv("PC_DISK_DIR");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("PC_DISK_DIR", ::testing::TempDir().c_str(), 1);
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  const PromptCacheEngine engine(model, workload.tokenizer());
  if (prev != nullptr) {
    setenv("PC_DISK_DIR", saved.c_str(), 1);
  } else {
    unsetenv("PC_DISK_DIR");
  }
  EXPECT_FALSE(engine.store().disk_enabled());
  EXPECT_EQ(engine.store().n_shards(), 1u);
}

}  // namespace
}  // namespace pc
