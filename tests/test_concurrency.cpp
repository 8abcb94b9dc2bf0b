// The engine's documented threading contract (core/engine.h): once its
// schemas are loaded, one engine serves from any number of threads over a
// shared const Model — the contract a Server's lanes rely on — and
// independent engines on different threads serve concurrently too. Both
// must serve correctly: the Model's forward pass is stateless, the global
// thread pool's parallel_for is reentrant, and first-touch encodes go
// through the store's single-flight.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "eval/workload.h"
#include "model/induction.h"

namespace pc {
namespace {

TEST(Concurrency, OneEnginePerThreadServesCorrectly) {
  AccuracyWorkload workload(7);
  const Model model =
      make_induction_model({workload.vocab().size(), 256});

  constexpr int kThreads = 4;
  constexpr int kServesPerThread = 6;
  std::atomic<int> correct{0};
  std::atomic<int> failures{0};

  auto worker = [&](int tid) {
    try {
      PromptCacheEngine engine(model, workload.tokenizer());
      engine.load_schema(R"(
        <schema name="c">
          <module name="d1">w00 w01 q05 a10 a11 . w02</module>
          <module name="d2">w03 q06 a12 a13 . w04</module>
        </schema>)");
      GenerateOptions opts;
      opts.max_new_tokens = 5;
      opts.stop_tokens = {workload.stop_token()};
      for (int i = 0; i < kServesPerThread; ++i) {
        const bool first = (i + tid) % 2 == 0;
        const ServeResult r = engine.serve(
            first ? R"(<prompt schema="c"><d1/><d2/> question: q05</prompt>)"
                  : R"(<prompt schema="c"><d1/><d2/> question: q06</prompt>)",
            opts);
        if (r.text == (first ? "a10 a11" : "a12 a13")) {
          correct.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    } catch (...) {
      failures.fetch_add(1000);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(correct.load(), kThreads * kServesPerThread);
}

TEST(Concurrency, OneEngineServesFromManyThreads) {
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  constexpr char kSchema[] = R"(
    <schema name="c">
      <module name="d1">w00 w01 q05 a10 a11 . w02</module>
      <module name="d2">w03 q06 a12 a13 . w04</module>
      <module name="d3">w05 w06 q07 a14 a15 . w07</module>
    </schema>)";
  const std::vector<std::string> prompts = {
      R"(<prompt schema="c"><d1/><d2/> question: q05</prompt>)",
      R"(<prompt schema="c"><d2/><d3/> question: q06</prompt>)",
      R"(<prompt schema="c"><d1/><d3/> question: q07</prompt>)",
  };
  GenerateOptions opts;
  opts.max_new_tokens = 5;
  opts.stop_tokens = {workload.stop_token()};

  constexpr int kThreads = 4;
  constexpr int kServesPerThread = 6;
  const auto prompt_of = [&](int thread, int serve) -> const std::string& {
    return prompts[static_cast<size_t>(thread + serve) % prompts.size()];
  };
  using Tokens = std::vector<TokenId>;

  // The reference: the same serves, one after another on one thread.
  std::vector<std::vector<Tokens>> expected(kThreads);
  {
    PromptCacheEngine serial(model, workload.tokenizer());
    serial.load_schema(kSchema);
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kServesPerThread; ++i) {
        expected[static_cast<size_t>(t)].push_back(
            serial.serve(prompt_of(t, i), opts).tokens);
      }
    }
  }

  // No eager encode: every module's first touch is a miss, and the threads
  // start together, so their first serves race through single-flight.
  EngineConfig config;
  config.eager_encode = false;
  PromptCacheEngine engine(model, workload.tokenizer(), config);
  engine.load_schema(kSchema);
  ASSERT_EQ(engine.stats().modules_encoded, 0u);

  std::vector<std::vector<Tokens>> got(kThreads);
  std::atomic<int> failures{0};
  std::latch start(kThreads);
  auto worker = [&](int t) {
    start.arrive_and_wait();
    try {
      for (int i = 0; i < kServesPerThread; ++i) {
        got[static_cast<size_t>(t)].push_back(
            engine.serve(prompt_of(t, i), opts).tokens);
      }
    } catch (...) {
      failures.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], expected[static_cast<size_t>(t)])
        << "thread " << t;
  }
  const EngineStats stats = engine.stats();
  const uint64_t serves = kThreads * kServesPerThread;
  EXPECT_EQ(stats.serves, serves);
  EXPECT_EQ(engine.cached_ttft_histogram().count(), serves);
  // Each module is encoded once, however many threads missed it together.
  EXPECT_EQ(stats.modules_encoded, 3u);
  EXPECT_EQ(stats.thrash_reencodes, 0u);
}

TEST(Concurrency, SharedModelForwardIsReentrant) {
  const Model model =
      Model::random(ModelConfig::llama_tiny(64, 128), 5);
  const std::vector<TokenId> tokens = {1, 2, 3, 4, 5};
  const std::vector<int> pos = {0, 1, 2, 3, 4};

  // Reference result single-threaded.
  KVCache ref_cache = model.make_cache();
  const Tensor ref = model.forward(tokens, pos, ref_cache);

  std::atomic<int> mismatches{0};
  auto worker = [&] {
    for (int i = 0; i < 8; ++i) {
      KVCache cache = model.make_cache();
      const Tensor out = model.forward(tokens, pos, cache);
      for (int64_t j = 0; j < out.dim(1); ++j) {
        if (out.at(0, j) != ref.at(0, j)) {
          mismatches.fetch_add(1);
          return;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace pc
