// SharedModuleStore + Server: the concurrent-serving contracts.
//
//   * single-flight: an encode callback runs at most once per missing key,
//     no matter how many threads need it at once;
//   * refs outlive eviction (memory safety) while pins prevent it
//     (residency) — and pins are reference-counted across borrowers;
//   * a hammering mix of find/ensure/insert/erase/pin under capacity
//     pressure leaves the store consistent (exercised under ASan/UBSan by
//     scripts/check.sh);
//   * N shared-store engines on worker threads — mixed zero-copy and
//     copy-mode — produce bitwise-identical output to a single private
//     engine, while encoding each module exactly once fleet-wide;
//   * a Server built without a store owns one that all its lanes share,
//     so it too encodes each module once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/shared_module_store.h"
#include "eval/workload.h"
#include "model/induction.h"
#include "sys/server.h"

namespace pc {
namespace {

// A synthetic payload of a known size: bytes_per_token = kv_dim * 2 *
// n_layers * 4 = 64 bytes with the dims below.
EncodedModule make_payload(int n_tokens) {
  EncodedModule m;
  m.n_tokens = n_tokens;
  m.kv_dim = 4;
  m.n_layers = 2;
  return m;
}

TEST(SharedModuleStore, SingleFlightEncodesOnce) {
  SharedModuleStore store(/*device=*/0, /*host=*/0);
  constexpr int kThreads = 6;
  std::atomic<int> encodes{0};
  std::vector<SharedModuleStore::ModuleRef> refs(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      refs[static_cast<size_t>(t)] = store.ensure("k", [&] {
        encodes.fetch_add(1);
        // Encoding takes a while: late callers must wait, not re-encode.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return make_payload(8);
      });
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(encodes.load(), 1);
  for (const auto& ref : refs) {
    ASSERT_TRUE(ref);
    EXPECT_EQ(ref->n_tokens, 8);
    // Everyone resolved to the one resident payload.
    EXPECT_EQ(ref.get(), refs[0].get());
  }
  EXPECT_EQ(store.stats().insertions, 1u);
  EXPECT_EQ(store.stats().misses, 1u);  // only the leader counts the miss
}

TEST(SharedModuleStore, FailedLeaderHandsOffToWaiter) {
  SharedModuleStore store(0, 0);
  std::atomic<int> attempts{0};
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      try {
        auto ref = store.ensure("k", [&]() -> EncodedModule {
          if (attempts.fetch_add(1) == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            throw Error("first encode fails");
          }
          return make_payload(4);
        });
        if (ref) successes.fetch_add(1);
      } catch (const Error&) {
      }
    });
  }
  for (auto& th : threads) th.join();
  // The failed leader propagated its exception; some later caller became
  // the next leader and the key ended up resident.
  EXPECT_GE(attempts.load(), 2);
  EXPECT_EQ(successes.load(), 3);
  EXPECT_TRUE(store.contains("k"));
}

TEST(SharedModuleStore, RefsKeepEvictedModulesAlive) {
  // Room for exactly one 8-token payload in each tier.
  SharedModuleStore store(/*device=*/512, /*host=*/512);
  store.insert("a", make_payload(8));
  SharedModuleStore::ModuleRef ref = store.find("a");
  ASSERT_TRUE(ref);

  store.insert("b", make_payload(8));  // a demotes to host
  store.insert("c", make_payload(8));  // a (cold, unpinned) is evicted
  EXPECT_FALSE(store.contains("a"));
  // The ref still dereferences safely: shared ownership outlives eviction.
  EXPECT_EQ(ref->n_tokens, 8);
}

TEST(SharedModuleStore, PinsAreRefCountedAndBlockEviction) {
  SharedModuleStore store(/*device=*/512, /*host=*/512);
  store.insert("a", make_payload(8));
  ASSERT_TRUE(store.find("a"));
  ASSERT_TRUE(store.pin("a"));
  ASSERT_TRUE(store.pin("a"));  // a second pin holder
  EXPECT_EQ(store.pin_count("a"), 2);

  // Eviction pressure cannot touch the pinned entry; with both tiers full
  // of unevictable bytes the insert must fail loudly.
  store.insert("b", make_payload(8));  // lands in host
  ASSERT_TRUE(store.pin("b"));
  EXPECT_THROW(store.insert("c", make_payload(8)), CacheError);
  EXPECT_TRUE(store.contains("a"));

  EXPECT_TRUE(store.unpin("a"));
  EXPECT_TRUE(store.is_pinned("a"));  // one pin remains
  EXPECT_TRUE(store.unpin("a"));
  EXPECT_FALSE(store.is_pinned("a"));
  EXPECT_FALSE(store.unpin("a"));  // count never goes negative

  store.insert("c", make_payload(8));  // now a is evictable
  EXPECT_FALSE(store.contains("a"));
}

TEST(SharedModuleStore, ReplaceCarriesPinCountAndKeepsOldPayloadAlive) {
  SharedModuleStore store(0, 0);
  store.insert("a", make_payload(8));
  auto old_ref = store.find("a");
  ASSERT_TRUE(store.pin("a"));
  store.insert("a", make_payload(16));  // replace while borrowed
  EXPECT_EQ(old_ref->n_tokens, 8);      // borrower's payload is unchanged
  EXPECT_EQ(store.pin_count("a"), 1);   // pin carried to the new entry
  auto new_ref = store.find("a");
  EXPECT_EQ(new_ref->n_tokens, 16);
  EXPECT_TRUE(store.unpin("a"));
}

TEST(SharedModuleStore, ConcurrentHammerStaysConsistent) {
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  constexpr int kKeys = 12;
  // Tight tiers: ~6KB total vs up to 12 × (4..11 tokens × 64B) resident —
  // constant eviction/demotion churn.
  SharedModuleStore store(/*device=*/2048, /*host=*/4096);

  auto key_of = [](int k) { return "key" + std::to_string(k); };
  auto tokens_of = [](int k) { return 4 + (k % 8); };

  std::atomic<int> encodes{0};
  std::atomic<int> cache_errors{0};
  std::atomic<int> bad_payloads{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (i * 7 + t * 3) % kKeys;
        const std::string key = key_of(k);
        try {
          switch (i % 5) {
            case 0: {  // lookup-or-encode, verify content through the ref
              auto ref = store.ensure(key, [&] {
                encodes.fetch_add(1);
                return make_payload(tokens_of(k));
              });
              if (!ref || ref->n_tokens != tokens_of(k)) bad_payloads++;
              break;
            }
            case 1: {  // pinned read, balanced release
              auto ref = store.find(key);
              if (ref) {
                if (ref->n_tokens != tokens_of(k)) bad_payloads++;
                // pin fails and unpin may return false: a concurrent erase
                // drops the entry pins and all (the ref stays valid
                // regardless).
                if (store.pin(key)) (void)store.unpin(key);
              }
              break;
            }
            case 2:
              store.insert(key, make_payload(tokens_of(k)));
              break;
            case 3:
              store.erase(key);
              break;
            default:
              (void)store.promote(key, ModuleLocation::kDeviceMemory);
              break;
          }
        } catch (const CacheError&) {
          cache_errors.fetch_add(1);  // legitimate under this much pressure
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad_payloads.load(), 0);
  // Every pin was released; nothing is left unevictable.
  std::vector<std::string> keys;
  size_t resident = 0;
  store.for_each([&](const std::string& key, const EncodedModule& m,
                     ModuleLocation) {
    keys.push_back(key);
    resident += m.payload_bytes();
  });
  for (const auto& key : keys) EXPECT_EQ(store.pin_count(key), 0) << key;
  // Tier accounting matches the resident payloads exactly.
  EXPECT_EQ(resident, store.resident_bytes());
  EXPECT_LE(store.usage(ModuleLocation::kDeviceMemory).used_bytes, 2048u);
  EXPECT_LE(store.usage(ModuleLocation::kHostMemory).used_bytes, 4096u);
}

// ---------------------------------------------------------------------------
// Engine + Server integration over a real model.

constexpr char kSchema[] = R"(
  <schema name="c">
    <module name="d1">w00 w01 q05 a10 a11 . w02</module>
    <module name="d2">w03 q06 a12 a13 . w04</module>
    <module name="d3">w05 w06 q07 a14 a15 . w07</module>
    <module name="d4">w08 q08 a16 a17 . w09</module>
  </schema>)";

struct Ask {
  const char* prompt;
  int expect_modules;  // modules the prompt imports
};

const Ask kAsks[] = {
    {R"(<prompt schema="c"><d1/><d2/> question: q05</prompt>)", 2},
    {R"(<prompt schema="c"><d1/><d2/> question: q06</prompt>)", 2},
    {R"(<prompt schema="c"><d3/><d4/> question: q07</prompt>)", 2},
    {R"(<prompt schema="c"><d3/><d4/> question: q08</prompt>)", 2},
    {R"(<prompt schema="c"><d1/><d2/><d3/><d4/> question: q07</prompt>)", 4},
    {R"(<prompt schema="c"><d2/><d4/> question: q08</prompt>)", 2},
};

GenerateOptions ask_options(const AccuracyWorkload& workload) {
  GenerateOptions opts;
  opts.max_new_tokens = 5;
  opts.stop_tokens = {workload.stop_token()};
  return opts;
}

TEST(SharedStoreServing, SharedServeMatchesSingleEngineBitwise) {
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  const GenerateOptions opts = ask_options(workload);

  // Reference: one private engine, unlimited store, plain copy serving.
  PromptCacheEngine reference(model, workload.tokenizer());
  reference.load_schema(kSchema);
  std::vector<std::vector<TokenId>> expected;
  for (const Ask& ask : kAsks) {
    expected.push_back(reference.serve(ask.prompt, opts).tokens);
  }
  size_t module_bytes = 0;
  reference.store().for_each(
      [&](const std::string&, const EncodedModule& m, ModuleLocation) {
        module_bytes += m.payload_bytes();
      });
  const size_t n_modules = reference.store().size();

  // Shared store under device pressure (demotion churn): 4 workers, half
  // zero-copy, each serving every prompt several times.
  SharedModuleStore store(/*device=*/module_bytes * 2 / 5, /*host=*/0);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::unique_ptr<PromptCacheEngine>> engines(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        EngineConfig cfg;
        cfg.zero_copy = t % 2 == 0;
        engines[static_cast<size_t>(t)] = std::make_unique<PromptCacheEngine>(
            model, workload.tokenizer(), store, cfg);
        PromptCacheEngine& engine = *engines[static_cast<size_t>(t)];
        engine.load_schema(kSchema);  // races: single-flight at startup
        for (int round = 0; round < kRounds; ++round) {
          for (size_t i = 0; i < std::size(kAsks); ++i) {
            const ServeResult r = engine.serve(kAsks[i].prompt, opts);
            if (r.tokens != expected[i]) mismatches.fetch_add(1);
          }
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // Encode-once fleet-wide: every insertion was paid by exactly one engine,
  // and with both tiers never evicting (host unlimited), that is exactly
  // one encode per distinct module — not kThreads of them.
  uint64_t encoded = 0;
  for (const auto& e : engines) encoded += e->stats().modules_encoded;
  const ModuleStoreStats stats = store.stats();
  EXPECT_EQ(encoded, static_cast<uint64_t>(n_modules));
  EXPECT_EQ(stats.insertions, static_cast<uint64_t>(n_modules));
  EXPECT_LE(stats.insertions, stats.misses);
  EXPECT_EQ(store.size(), n_modules);

  // Serving pins nothing, borrowing or copying.
  std::vector<std::string> keys;
  store.for_each([&](const std::string& key, const EncodedModule&,
                     ModuleLocation) { keys.push_back(key); });
  for (const auto& key : keys) EXPECT_EQ(store.pin_count(key), 0) << key;
}

TEST(SharedStoreServing, ThrashReencodeRestoresEvictedModules) {
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  PromptCacheEngine probe(model, workload.tokenizer());
  probe.load_schema(kSchema);
  size_t max_module = 0;
  probe.store().for_each(
      [&](const std::string&, const EncodedModule& m, ModuleLocation) {
        max_module = std::max(max_module, m.payload_bytes());
      });

  // Room for roughly one module total (device holds ~1.5 modules, host is
  // effectively closed at 1 byte): serving a two-module prompt evicts one
  // while retrieving the other, forcing re-encodes inside the TTFT window —
  // which must still serve correctly (refs outlive eviction).
  SharedModuleStore store(/*device=*/max_module * 3 / 2, /*host=*/1);
  PromptCacheEngine engine(model, workload.tokenizer(), store);
  engine.load_schema(kSchema);
  const GenerateOptions opts = ask_options(workload);
  const ServeResult r =
      engine.serve(R"(<prompt schema="c"><d1/><d2/> question: q05</prompt>)",
                   opts);
  EXPECT_EQ(r.text, "a10 a11");
  EXPECT_GT(engine.stats().thrash_reencodes, 0u);
  EXPECT_GT(store.stats().evictions, 0u);
}

TEST(SharedStoreServing, ServerServesDrainsAndAggregates) {
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});

  SharedModuleStore store(0, 0);
  ServerConfig cfg;
  cfg.n_workers = 4;
  cfg.queue_capacity = 8;
  cfg.schemas = {kSchema};
  cfg.default_deadline_ms = 60e3;
  cfg.link.latency_s = 1e-3;  // small but nonzero: exercises the stall path
  Server server(model, workload.tokenizer(), store, cfg);

  const GenerateOptions opts = ask_options(workload);
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    server.submit(kAsks[i % std::size(kAsks)].prompt, opts);
  }
  const std::vector<ServerResponse> responses = server.drain();

  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  PromptCacheEngine reference(model, workload.tokenizer());
  reference.load_schema(kSchema);
  for (int i = 0; i < kRequests; ++i) {
    const ServerResponse& r = responses[static_cast<size_t>(i)];
    EXPECT_EQ(r.id, static_cast<uint64_t>(i));  // sorted by submission
    EXPECT_EQ(r.status, ServeStatus::kOk) << r.detail;
    EXPECT_EQ(r.result.tokens,
              reference.serve(kAsks[i % std::size(kAsks)].prompt, opts).tokens);
    EXPECT_GE(r.stall_ms, 1.0);  // the link latency was applied
    EXPECT_TRUE(r.deadline_met);
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_GT(stats.throughput_rps, 0.0);
  EXPECT_EQ(stats.ttft.count(), static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.engine_ttft.count(), static_cast<uint64_t>(kRequests));
  // Encode-once: 4 workers, each module encoded exactly once fleet-wide.
  EXPECT_EQ(stats.modules_encoded, store.size());
  EXPECT_GT(stats.store_hit_rate, 0.5);
  EXPECT_EQ(stats.resident_module_bytes, store.resident_bytes());
}

TEST(SharedStoreServing, ServerWithoutStoreOwnsOneForAllLanes) {
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});

  ServerConfig cfg;
  cfg.n_workers = 2;
  cfg.schemas = {kSchema};
  cfg.prefetch = true;
  Server server(model, workload.tokenizer(), cfg);
  EXPECT_NE(server.prefetcher(), nullptr);
  const GenerateOptions opts = ask_options(workload);
  for (int i = 0; i < 8; ++i) {
    server.submit(kAsks[i % std::size(kAsks)].prompt, opts);
  }
  const std::vector<ServerResponse> responses = server.drain();

  ASSERT_EQ(responses.size(), 8u);
  PromptCacheEngine reference(model, workload.tokenizer());
  reference.load_schema(kSchema);
  for (int i = 0; i < 8; ++i) {
    const ServerResponse& r = responses[static_cast<size_t>(i)];
    EXPECT_EQ(r.status, ServeStatus::kOk) << r.detail;
    EXPECT_EQ(r.result.tokens,
              reference.serve(kAsks[i % std::size(kAsks)].prompt, opts).tokens);
  }

  // Both lanes serve from the store the server owns: each of the schema's
  // four modules is encoded once across lanes.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.modules_encoded, 4u);
  EXPECT_GT(stats.resident_module_bytes, 0u);
}

}  // namespace
}  // namespace pc
