// Tests for batched serving and its module-sharing accounting (§3.4).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/engine.h"
#include "eval/workload.h"
#include "model/induction.h"

namespace pc {
namespace {

class BatchTest : public ::testing::Test {
 protected:
  BatchTest()
      : workload_(7),
        model_(make_induction_model({workload_.vocab().size(), 256})) {}

  GenerateOptions answer_options() const {
    GenerateOptions o;
    o.max_new_tokens = 4;
    o.stop_tokens = {workload_.stop_token()};
    return o;
  }

  static constexpr const char* kSchema = R"(
    <schema name="b">
      <module name="sys">w00 w01 w02 w03 w04 w05 w06 w07</module>
      <module name="d1">w08 q05 a10 a11 . w09</module>
      <module name="d2">w10 q06 a12 a13 . w11</module>
    </schema>)";

  std::vector<std::string> batch_prompts() const {
    return {
        R"(<prompt schema="b"><sys/><d1/> question: q05</prompt>)",
        R"(<prompt schema="b"><sys/><d2/> question: q06</prompt>)",
        R"(<prompt schema="b"><sys/><d1/><d2/> question: q06</prompt>)",
    };
  }

  AccuracyWorkload workload_;
  Model model_;
};

TEST_F(BatchTest, ResultsMatchIndividualServes) {
  PromptCacheEngine engine(model_, workload_.tokenizer());
  engine.load_schema(kSchema);
  const auto prompts = batch_prompts();

  const auto batch = engine.serve_batch(prompts, answer_options());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].text, "a10 a11");
  EXPECT_EQ(batch[1].text, "a12 a13");
  EXPECT_EQ(batch[2].text, "a12 a13");

  PromptCacheEngine fresh(model_, workload_.tokenizer());
  fresh.load_schema(kSchema);
  for (size_t i = 0; i < prompts.size(); ++i) {
    EXPECT_EQ(fresh.serve(prompts[i], answer_options()).tokens,
              batch[i].tokens);
  }
}

TEST_F(BatchTest, SharedBytesCountEachModuleOnce) {
  PromptCacheEngine engine(model_, workload_.tokenizer());
  engine.load_schema(kSchema);

  PromptCacheEngine::BatchStats stats;
  (void)engine.serve_batch(batch_prompts(), answer_options(), &stats);
  EXPECT_EQ(stats.requests, 3);

  // sys + d1 + d2, once each.
  size_t all_modules = 0;
  engine.store().for_each([&](const std::string&, const EncodedModule& m,
                              ModuleLocation) {
    all_modules += m.payload_bytes();
  });
  EXPECT_EQ(stats.shared_module_bytes, all_modules);
  // sys is reused by all three prompts, d1/d2 by two: duplicates avoided.
  EXPECT_GT(stats.duplicate_module_bytes_avoided,
            stats.shared_module_bytes);
}

TEST_F(BatchTest, ZeroCopyBatchOwnsOnlyTails) {
  // At fp32, where a copied module row is as wide as an own row.
  EngineConfig cfg;
  cfg.precision = StorePrecision::kFp32;
  cfg.zero_copy = true;
  PromptCacheEngine engine(model_, workload_.tokenizer(), cfg);
  engine.load_schema(kSchema);

  PromptCacheEngine::BatchStats zc_stats;
  (void)engine.serve_batch(batch_prompts(), answer_options(), &zc_stats);

  EngineConfig copy_cfg;
  copy_cfg.precision = StorePrecision::kFp32;
  PromptCacheEngine copy_engine(model_, workload_.tokenizer(), copy_cfg);
  copy_engine.load_schema(kSchema);
  PromptCacheEngine::BatchStats copy_stats;
  (void)copy_engine.serve_batch(batch_prompts(), answer_options(),
                                &copy_stats);

  // Zero-copy requests own far less memory than copying requests.
  EXPECT_LT(zc_stats.owned_bytes * 3, copy_stats.owned_bytes);
  EXPECT_EQ(zc_stats.shared_module_bytes, copy_stats.shared_module_bytes);
}

// A copy owns its module rows at their stored width: at q4 a copying
// batch owns exactly the stored bytes of every imported text row more than
// a zero-copy batch (both emit the same tokens, so their own rows match).
TEST_F(BatchTest, CopiesOwnTheirStoredBytes) {
  EngineConfig cfg;
  cfg.precision = StorePrecision::kQ4;
  PromptCacheEngine copy_engine(model_, workload_.tokenizer(), cfg);
  copy_engine.load_schema(kSchema);
  PromptCacheEngine::BatchStats copy_stats;
  (void)copy_engine.serve_batch(batch_prompts(), answer_options(),
                                &copy_stats);

  cfg.zero_copy = true;
  PromptCacheEngine zc_engine(model_, workload_.tokenizer(), cfg);
  zc_engine.load_schema(kSchema);
  PromptCacheEngine::BatchStats zc_stats;
  (void)zc_engine.serve_batch(batch_prompts(), answer_options(), &zc_stats);

  std::map<std::string, size_t> text_bytes;
  copy_engine.store().for_each([&](const std::string& key,
                                   const EncodedModule& m, ModuleLocation) {
    EXPECT_EQ(m.precision, StorePrecision::kQ4);
    text_bytes[key] =
        m.bytes_per_token() * static_cast<size_t>(m.text_token_count());
  });
  // sys in all three prompts, d1 and d2 in two each.
  const size_t imported = 3 * text_bytes.at("b::sys") +
                          2 * text_bytes.at("b::d1") +
                          2 * text_bytes.at("b::d2");
  EXPECT_EQ(copy_stats.owned_bytes - zc_stats.owned_bytes, imported);
}

TEST_F(BatchTest, EmptyBatchIsFine) {
  PromptCacheEngine engine(model_, workload_.tokenizer());
  engine.load_schema(kSchema);
  PromptCacheEngine::BatchStats stats;
  const auto results = engine.serve_batch({}, answer_options(), &stats);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.requests, 0);
  EXPECT_EQ(stats.shared_module_bytes, 0u);
}

}  // namespace
}  // namespace pc
