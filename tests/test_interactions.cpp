// Cross-feature interaction tests: the serving features must compose —
// scaffolds under zero-copy, scaffold registration after a persistence
// restart, precision x persistence x serving, prefetch under pressure with
// pinned modules.
#include <gtest/gtest.h>

#include <cstdio>

#include "prompt_cache.h"  // umbrella header: must stay self-contained

namespace pc {
namespace {

class InteractionTest : public ::testing::Test {
 protected:
  InteractionTest()
      : workload_(7),
        model_(make_induction_model({workload_.vocab().size(), 384})) {}

  GenerateOptions answer_options() const {
    GenerateOptions o;
    o.max_new_tokens = 5;
    o.stop_tokens = {workload_.stop_token()};
    return o;
  }

  static constexpr const char* kSplitSchema = R"(
    <schema name="sx">
      <module name="pa">w00 w01 q05</module>
      <module name="pb">a10 a11 . w02</module>
      <module name="other">w03 q06 a12 a13 . w04</module>
    </schema>)";
  static constexpr const char* kSplitPrompt =
      R"(<prompt schema="sx"><pa/><pb/><other/> question: q05</prompt>)";

  AccuracyWorkload workload_;
  Model model_;
};

TEST_F(InteractionTest, ScaffoldWorksUnderZeroCopy) {
  EngineConfig cfg;
  cfg.zero_copy = true;
  PromptCacheEngine engine(model_, workload_.tokenizer(), cfg);
  engine.load_schema(kSplitSchema);
  engine.add_scaffold("sx", {"pa", "pb"});

  const ServeResult r = engine.serve(kSplitPrompt, answer_options());
  EXPECT_EQ(r.text, "a10 a11");  // joint states restored the straddling fact
  EXPECT_EQ(r.ttft.bytes_from_host + r.ttft.bytes_from_device, 0u);
  EXPECT_GT(r.ttft.bytes_zero_copy, 0u);
}

TEST_F(InteractionTest, ScaffoldSurvivesPersistenceRestart) {
  const std::string path = ::testing::TempDir() + "pc_scaffold_restart.bin";
  {
    PromptCacheEngine writer(model_, workload_.tokenizer());
    writer.load_schema(kSplitSchema);
    writer.add_scaffold("sx", {"pa", "pb"});
    // 3 modules + 1 scaffold persisted.
    EXPECT_EQ(writer.save_modules(path), 4u);
  }
  EngineConfig cfg;
  cfg.eager_encode = false;
  PromptCacheEngine reader(model_, workload_.tokenizer(), cfg);
  reader.load_schema(kSplitSchema);
  reader.add_scaffold("sx", {"pa", "pb"});  // registration, no encoding
  EXPECT_EQ(reader.load_modules(path), 4u);
  EXPECT_EQ(reader.stats().modules_encoded, 0u);
  EXPECT_EQ(reader.stats().scaffolds_encoded, 0u);

  const ServeResult r = reader.serve(kSplitPrompt, answer_options());
  EXPECT_EQ(r.text, "a10 a11");
  EXPECT_EQ(reader.stats().modules_encoded, 0u)
      << "restored states must be used, not re-encoded";
  std::remove(path.c_str());
}

TEST_F(InteractionTest, Q8PersistenceServesCorrectly) {
  const std::string path = ::testing::TempDir() + "pc_q8_restart.bin";
  EngineConfig cfg;
  cfg.precision = StorePrecision::kQ8;
  {
    PromptCacheEngine writer(model_, workload_.tokenizer(), cfg);
    writer.load_schema(kSplitSchema);
    writer.save_modules(path);
  }
  EngineConfig rcfg = cfg;
  rcfg.eager_encode = false;
  PromptCacheEngine reader(model_, workload_.tokenizer(), rcfg);
  reader.load_schema(kSplitSchema);
  reader.load_modules(path);
  const ServeResult r = reader.serve(
      R"(<prompt schema="sx"><other/> question: q06</prompt>)",
      answer_options());
  EXPECT_EQ(r.text, "a12 a13");
  std::remove(path.c_str());
}

TEST_F(InteractionTest, SessionOverZeroCopyEngineUsesCopyAssembly) {
  // Sessions own a contiguous cache regardless of the engine's zero-copy
  // mode (a session outlives individual serves, so borrowing would pin
  // modules indefinitely). They must still work on such an engine.
  EngineConfig cfg;
  cfg.zero_copy = true;
  PromptCacheEngine engine(model_, workload_.tokenizer(), cfg);
  engine.load_schema(kSplitSchema);
  ChatSession session(
      engine, R"(<prompt schema="sx"><other/></prompt>)",
      /*wrap_turns=*/false);
  const auto r = session.send("question: q06", answer_options());
  EXPECT_EQ(r.text, "a12 a13");
}

TEST_F(InteractionTest, PrefetchAndPinningCompose) {
  // Pin the scaffold-free module; prefetch union siblings around it under
  // capacity pressure. The pinned module must never leave device memory.
  const char* schema = R"(
    <schema name="px">
      <module name="sys">w00 w01 w02 w03 w04 w05</module>
      <union>
        <module name="v0">w06 q01 a10 . w07 w08</module>
        <module name="v1">w09 q01 a11 . w10 w11</module>
        <module name="v2">w12 q01 a12 . w13 w14</module>
      </union>
    </schema>)";
  const size_t module_budget =
      static_cast<size_t>(16) * model_.kv_bytes_per_token();
  EngineConfig cfg;
  cfg.device_capacity_bytes = module_budget;  // sys + ~1 variant
  cfg.prefetch_union_siblings = true;
  PromptCacheEngine engine(model_, workload_.tokenizer(), cfg);
  engine.load_schema(schema);
  engine.pin_module("px", "sys");

  GenerateOptions opts = answer_options();
  for (const char* variant : {"v0", "v1", "v2", "v1"}) {
    const std::string prompt = std::string("<prompt schema=\"px\"><sys/><") +
                               variant + "/> question: q01</prompt>";
    const ServeResult r = engine.serve(prompt, opts);
    EXPECT_FALSE(r.text.empty());
  }
  EXPECT_TRUE(engine.store().is_pinned("px::sys"));
  const SharedModuleStore::ModuleRef sys = engine.store().find("px::sys");
  ASSERT_TRUE(sys);
  EXPECT_EQ(sys.location(), ModuleLocation::kDeviceMemory);
}

}  // namespace
}  // namespace pc
