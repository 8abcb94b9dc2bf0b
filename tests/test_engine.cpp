// Integration tests for the Prompt Cache engine: PML in, generated text
// out, validated against the KV-Cache baseline, a block-masked prefill
// reference, and planted ground truth via the induction model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>

#include "core/engine.h"
#include "eval/workload.h"
#include "model/induction.h"
#include "obs/metrics.h"
#include "tensor/ops.h"

namespace pc {
namespace {

// Shared fixture: induction model sized for the accuracy workload's
// vocabulary, so generated answers are semantically checkable.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : workload_(7),
        model_(make_induction_model(
            {workload_.vocab().size(), 256, 24.0f, 24.0f})),
        engine_(model_, workload_.tokenizer()) {}

  GenerateOptions answer_options(int max_tokens = 6) const {
    GenerateOptions o;
    o.max_new_tokens = max_tokens;
    o.stop_tokens = {workload_.stop_token()};
    return o;
  }

  AccuracyWorkload workload_;
  Model model_;
  PromptCacheEngine engine_;
};

TEST_F(EngineTest, RetrievesFactFromCachedModule) {
  engine_.load_schema(R"(
    <schema name="s">
      <module name="doc1">w00 w01 q05 a10 a11 . w02 w03</module>
      <module name="doc2">w04 w05 q06 a12 a13 . w06</module>
    </schema>)");

  const ServeResult r = engine_.serve(R"(
    <prompt schema="s"><doc1/><doc2/> question: q05</prompt>)",
                                      answer_options());
  EXPECT_EQ(r.text, "a10 a11");
  EXPECT_GT(r.ttft.cached_tokens, 0);
  EXPECT_EQ(r.ttft.uncached_tokens, 2);  // "question:" + key
}

TEST_F(EngineTest, CachedOutputMatchesBaselineOnSameContent) {
  engine_.load_schema(R"(
    <schema name="s">
      <module name="doc1">w00 w01 q05 a10 a11 . w02 w03</module>
      <module name="doc2">w04 w05 q06 a12 a13 . w06</module>
    </schema>)");
  const std::string prompt =
      R"(<prompt schema="s"><doc1/><doc2/> question: q06</prompt>)";

  const ServeResult cached = engine_.serve(prompt, answer_options());
  const ServeResult baseline = engine_.serve_baseline(prompt, answer_options());
  EXPECT_EQ(cached.text, "a12 a13");
  EXPECT_EQ(baseline.text, "a12 a13");
}

// Single module + suffix: cached inference is bit-identical to the
// baseline, because module positions start at 0 and the suffix is
// contiguous — there is no masking difference with only one block.
TEST_F(EngineTest, SingleModuleCachedEqualsBaselineBitwise) {
  // Bitwise fp32 regression guard: pinned to fp32 so the equality holds
  // even when the suite runs with PC_KV_FORMAT=q8.
  EngineConfig fp32;
  fp32.precision = StorePrecision::kFp32;
  PromptCacheEngine engine(model_, workload_.tokenizer(), fp32);
  engine.load_schema(R"(
    <schema name="one">
      <module name="doc">w00 w01 q05 a10 a11 . w02 w03 w04</module>
    </schema>)");
  const std::string prompt =
      R"(<prompt schema="one"><doc/> question: q05</prompt>)";

  const pml::PromptBinding binding = engine.bind(prompt);

  KVCache cached_seq = model_.make_cache();
  TtftBreakdown ttft;
  const Tensor cached_logits =
      engine.assemble_and_prefill(binding, cached_seq, &ttft);

  // Baseline prefill of the same tokens.
  std::vector<int> pos(binding.baseline_tokens.size());
  std::iota(pos.begin(), pos.end(), 0);
  KVCache base_seq = model_.make_cache();
  const Tensor base_logits =
      model_.forward(binding.baseline_tokens, pos, base_seq);

  ASSERT_EQ(cached_seq.size(), base_seq.size());
  EXPECT_EQ(max_abs_diff(cached_logits, base_logits), 0.0f);
  for (int l = 0; l < model_.config().n_layers; ++l) {
    for (int t = 0; t < cached_seq.size(); ++t) {
      ASSERT_EQ(cached_seq.pos_id(t), base_seq.pos_id(t));
      for (int e = 0; e < model_.config().kv_dim(); ++e) {
        ASSERT_EQ(std::as_const(cached_seq).k_row(l, t)[e],
                  base_seq.k_row(l, t)[e]);
        ASSERT_EQ(std::as_const(cached_seq).v_row(l, t)[e],
                  base_seq.v_row(l, t)[e]);
      }
    }
  }
}

// Multi-module: cached inference equals a single blocked prefill with a
// block-diagonal mask over the modules — bitwise.
TEST_F(EngineTest, MultiModuleCachedEqualsBlockedPrefillBitwise) {
  // Bitwise fp32 regression guard: pinned to fp32 so the equality holds
  // even when the suite runs with PC_KV_FORMAT=q8.
  EngineConfig fp32;
  fp32.precision = StorePrecision::kFp32;
  PromptCacheEngine engine(model_, workload_.tokenizer(), fp32);
  engine.load_schema(R"(
    <schema name="s">
      <module name="doc1">w00 w01 q05 a10 a11 . w02</module>
      <module name="doc2">w04 w05 q06 a12 a13 . w06</module>
      <module name="doc3">w07 w08 q07 a14 a15 . w09</module>
    </schema>)");
  const std::string prompt =
      R"(<prompt schema="s"><doc1/><doc2/><doc3/> question: q07</prompt>)";
  const pml::PromptBinding binding = engine.bind(prompt);

  KVCache cached_seq = model_.make_cache();
  const Tensor cached_logits =
      engine.assemble_and_prefill(binding, cached_seq, nullptr);

  // Reference: flatten modules + suffix with block ids and layout positions.
  std::vector<TokenId> tokens;
  std::vector<int> pos;
  std::vector<int> blocks;
  int block = 0;
  for (int mi : binding.modules) {
    ++block;
    for (const pml::TokenRun& run : binding.schema->module_own_runs(mi)) {
      for (size_t i = 0; i < run.tokens.size(); ++i) {
        tokens.push_back(run.tokens[i]);
        pos.push_back(run.start_pos + static_cast<int>(i));
        blocks.push_back(block);
      }
    }
  }
  for (const pml::BoundText& t : binding.texts) {
    for (size_t i = 0; i < t.tokens.size(); ++i) {
      tokens.push_back(t.tokens[i]);
      pos.push_back(t.start_pos + static_cast<int>(i));
      blocks.push_back(Model::kGlobalBlock);
    }
  }

  KVCache ref_seq = model_.make_cache();
  const Tensor ref_logits =
      model_.forward_blocked(tokens, pos, blocks, ref_seq);

  ASSERT_EQ(cached_seq.size(), ref_seq.size());
  EXPECT_EQ(max_abs_diff(cached_logits, ref_logits), 0.0f);
  for (int l = 0; l < model_.config().n_layers; ++l) {
    for (int t = 0; t < cached_seq.size(); ++t) {
      for (int e = 0; e < model_.config().kv_dim(); ++e) {
        ASSERT_EQ(std::as_const(cached_seq).k_row(l, t)[e],
                  ref_seq.k_row(l, t)[e]);
        ASSERT_EQ(std::as_const(cached_seq).v_row(l, t)[e],
                  ref_seq.v_row(l, t)[e]);
      }
    }
  }
}

TEST_F(EngineTest, ParameterizedModuleSubstitutesArgument) {
  // The fact's values arrive as a runtime argument replacing the <unk>
  // placeholders; induction must retrieve them.
  engine_.load_schema(R"(
    <schema name="p">
      <module name="fact">w00 w01 q05 <param name="vals" len="4"/> w02</module>
    </schema>)");

  const ServeResult r = engine_.serve(R"(
    <prompt schema="p"><fact vals="a20 a21 ."/> question: q05</prompt>)",
                                      answer_options());
  EXPECT_EQ(r.text, "a20 a21");
}

TEST_F(EngineTest, ArgumentShorterThanLenLeavesGap) {
  engine_.load_schema(R"(
    <schema name="p2">
      <module name="fact">q05 <param name="vals" len="6"/> w02 q06 a13 .</module>
    </schema>)");
  // Supply only 3 of 6 tokens; the trailing positions stay empty and later
  // content is still retrievable.
  const ServeResult r = engine_.serve(R"(
    <prompt schema="p2"><fact vals="a20 a21 ."/> question: q06</prompt>)",
                                      answer_options());
  EXPECT_EQ(r.text, "a13");
}

TEST_F(EngineTest, OverlongArgumentRejected) {
  engine_.load_schema(R"(
    <schema name="p3">
      <module name="fact">q05 <param name="vals" len="2"/></module>
    </schema>)");
  EXPECT_THROW(engine_.serve(R"(
    <prompt schema="p3"><fact vals="a20 a21 a22"/> question: q05</prompt>)"),
               SchemaError);
}

TEST_F(EngineTest, ScaffoldRestoresStraddlingFact) {
  const char* schema = R"(
    <schema name="sc">
      <module name="parta">w00 w01 q05</module>
      <module name="partb">a10 a11 . w02 w03</module>
    </schema>)";
  const char* prompt =
      R"(<prompt schema="sc"><parta/><partb/> question: q05</prompt>)";

  // Without a scaffold the straddling fact is lost under caching...
  engine_.load_schema(schema);
  const ServeResult without = engine_.serve(prompt, answer_options());
  EXPECT_NE(without.text, "a10 a11");

  // ...but the baseline retrieves it...
  const ServeResult baseline = engine_.serve_baseline(prompt, answer_options());
  EXPECT_EQ(baseline.text, "a10 a11");

  // ...and so does cached inference once the two parts share a scaffold.
  PromptCacheEngine engine2(model_, workload_.tokenizer());
  engine2.load_schema(schema);
  engine2.add_scaffold("sc", {"parta", "partb"});
  const ServeResult with = engine2.serve(prompt, answer_options());
  EXPECT_EQ(with.text, "a10 a11");
  EXPECT_EQ(engine2.stats().scaffolds_encoded, 1u);
}

// §3.1: "these masks may even introduce beneficial inductive biases by
// effectively filtering out irrelevant information." Constructed here: one
// document *ends* with the queried key and the next document *begins* with
// an unrelated value token. The baseline's full attention forms a spurious
// cross-document previous-token link (key -> unrelated value) that ties
// with the real fact and corrupts the answer; module-masked encoding severs
// exactly that link, so cached inference answers correctly.
TEST_F(EngineTest, MaskingFiltersCrossDocumentNoise) {
  engine_.load_schema(R"(
    <schema name="noise">
      <module name="chatter">w00 w01 w02 q05</module>
      <module name="junk">a01 a02 w03 w04</module>
      <module name="facts">w05 q05 a30 a31 . w06</module>
    </schema>)");
  const char* prompt =
      R"(<prompt schema="noise"><chatter/><junk/><facts/> question: q05</prompt>)";

  const ServeResult cached = engine_.serve(prompt, answer_options());
  const ServeResult baseline = engine_.serve_baseline(prompt, answer_options());
  EXPECT_EQ(cached.text, "a30 a31");       // masking filtered the noise
  EXPECT_NE(baseline.text, "a30 a31");     // spurious q05 -> a01 link wins
}

TEST_F(EngineTest, UnionMembersAreExclusiveAndServeCorrectly) {
  engine_.load_schema(R"(
    <schema name="u">
      <union>
        <module name="en">w10 q05 a10 a11 .</module>
        <module name="zh">w11 q05 a12 a13 .</module>
      </union>
      <module name="tail">w00 w01</module>
    </schema>)");

  const ServeResult en = engine_.serve(
      R"(<prompt schema="u"><en/><tail/> question: q05</prompt>)",
      answer_options());
  EXPECT_EQ(en.text, "a10 a11");

  const ServeResult zh = engine_.serve(
      R"(<prompt schema="u"><zh/><tail/> question: q05</prompt>)",
      answer_options());
  EXPECT_EQ(zh.text, "a12 a13");

  EXPECT_THROW(
      engine_.serve(R"(<prompt schema="u"><en/><zh/> question: q05</prompt>)"),
      SchemaError);
}

TEST_F(EngineTest, SecondServeReusesEncodedModules) {
  engine_.load_schema(R"(
    <schema name="r">
      <module name="doc">w00 q05 a10 . w01</module>
    </schema>)");
  const std::string prompt =
      R"(<prompt schema="r"><doc/> question: q05</prompt>)";

  (void)engine_.serve(prompt, answer_options());
  const uint64_t encoded_after_first = engine_.stats().modules_encoded;
  const ServeResult second = engine_.serve(prompt, answer_options());
  EXPECT_EQ(engine_.stats().modules_encoded, encoded_after_first);
  EXPECT_EQ(second.text, "a10");
}

TEST_F(EngineTest, FullyCachedPromptStillProducesAToken) {
  engine_.load_schema(R"(
    <schema name="f">
      <module name="doc">w00 w01 q05 a10 . w02</module>
    </schema>)");
  const ServeResult r =
      engine_.serve(R"(<prompt schema="f"><doc/></prompt>)", answer_options(2));
  EXPECT_EQ(r.ttft.uncached_tokens, 1);  // the <s> kickoff
}

TEST_F(EngineTest, TinyDeviceTierSpillsToHostAndStillServes) {
  EngineConfig cfg;
  cfg.device_capacity_bytes = 1;  // nothing fits on-device
  cfg.zero_copy = false;          // a copy charges its bytes by tier
  PromptCacheEngine engine(model_, workload_.tokenizer(), cfg);
  engine.load_schema(R"(
    <schema name="t">
      <module name="doc">w00 q05 a10 a11 . w01</module>
    </schema>)");
  const ServeResult r = engine.serve(
      R"(<prompt schema="t"><doc/> question: q05</prompt>)", answer_options());
  EXPECT_EQ(r.text, "a10 a11");
  EXPECT_GT(r.ttft.bytes_from_host, 0u);
  EXPECT_EQ(r.ttft.bytes_from_device, 0u);
}

TEST_F(EngineTest, EvictionThrashStillServesCorrectly) {
  // Capacities hold roughly one module: serving two forces re-encodes.
  const size_t one_module = static_cast<size_t>(8) *
                            model_.kv_bytes_per_token();
  EngineConfig cfg;
  // Capacity math assumes fp32 module bytes; pin the precision so a q8
  // default (PC_KV_FORMAT=q8) doesn't make everything fit.
  cfg.precision = StorePrecision::kFp32;
  cfg.device_capacity_bytes = one_module;
  cfg.host_capacity_bytes = 1;
  PromptCacheEngine engine(model_, workload_.tokenizer(), cfg);
  engine.load_schema(R"(
    <schema name="e">
      <module name="d1">w00 q05 a10 a11 . w01</module>
      <module name="d2">w02 q06 a12 a13 . w03</module>
    </schema>)");
  const ServeResult r = engine.serve(
      R"(<prompt schema="e"><d1/><d2/> question: q06</prompt>)",
      answer_options());
  EXPECT_EQ(r.text, "a12 a13");
  EXPECT_GT(engine.stats().thrash_reencodes + engine.store().stats().evictions,
            0u);
}

class EnginePrecisionTest
    : public EngineTest,
      public ::testing::WithParamInterface<StorePrecision> {};

TEST_P(EnginePrecisionTest, ReducedPrecisionStoragePreservesRetrieval) {
  EngineConfig cfg;
  cfg.precision = GetParam();
  PromptCacheEngine engine(model_, workload_.tokenizer(), cfg);
  engine.load_schema(R"(
    <schema name="h">
      <module name="doc">w00 w01 q05 a10 a11 . w02</module>
    </schema>)");
  const ServeResult r = engine.serve(
      R"(<prompt schema="h"><doc/> question: q05</prompt>)", answer_options());
  EXPECT_EQ(r.text, "a10 a11");
  // The default engine borrows at every format: nothing moves.
  EXPECT_GT(r.ttft.bytes_zero_copy, 0u);
  EXPECT_EQ(r.ttft.bytes_from_device + r.ttft.bytes_from_host, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, EnginePrecisionTest,
                         ::testing::Values(StorePrecision::kFp32,
                                           StorePrecision::kQ8,
                                           StorePrecision::kQ4),
                         [](const auto& info) {
                           switch (info.param) {
                             case StorePrecision::kQ8: return "Q8";
                             case StorePrecision::kQ4: return "Q4";
                             default: return "Fp32";
                           }
                         });

// Calls fn, which must throw pc::ConfigError naming the three formats a
// store holds.
template <typename Fn>
void expect_rejects_naming_formats(Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "no ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    for (const char* name : {"q4", "q8", "fp32"}) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

// fp16 module storage is gone; its enumerator is refused where a format
// enters: engine construction and PC_KV_FORMAT.
TEST_F(EngineTest, Fp16PrecisionIsRejected) {
  EngineConfig cfg;
  cfg.precision = StorePrecision::kFp16;
  expect_rejects_naming_formats(
      [&] { PromptCacheEngine engine(model_, workload_.tokenizer(), cfg); });
}

TEST_F(EngineTest, Fp16KvFormatIsRejected) {
  const char* saved = std::getenv("PC_KV_FORMAT");
  const std::string restore = saved != nullptr ? saved : "";
  const bool had = saved != nullptr;
  setenv("PC_KV_FORMAT", "fp16", 1);
  expect_rejects_naming_formats([] { (void)default_store_precision(); });
  expect_rejects_naming_formats([] { (void)EngineConfig{}; });
  if (had) {
    setenv("PC_KV_FORMAT", restore.c_str(), 1);
  } else {
    unsetenv("PC_KV_FORMAT");
  }
}

TEST_F(EngineTest, PrecisionFootprintOrdering) {
  const char* schema = R"(
    <schema name="fp">
      <module name="doc">w00 w01 q05 a10 a11 . w02 w03 w04 w05</module>
    </schema>)";
  size_t bytes[3];
  const StorePrecision precisions[] = {StorePrecision::kFp32,
                                       StorePrecision::kQ8,
                                       StorePrecision::kQ4};
  for (int i = 0; i < 3; ++i) {
    EngineConfig cfg;
    cfg.precision = precisions[i];
    PromptCacheEngine engine(model_, workload_.tokenizer(), cfg);
    engine.load_schema(schema);
    bytes[i] = engine.store().usage(ModuleLocation::kDeviceMemory).used_bytes;
  }
  EXPECT_LT(bytes[1], bytes[0] * 3 / 10);  // q8 about a quarter of fp32
  EXPECT_GT(bytes[1], bytes[0] / 4);       // but not free (scales)
  EXPECT_LT(bytes[2], bytes[1] * 3 / 4);   // q4 well below q8
  EXPECT_GT(bytes[2], bytes[0] / 8);       // but above pure 4-bit (scales)
}

// A model whose KV heads cannot hold Q4_0 blocks (d_head 16, 2 KV heads)
// stores q8 when asked for q4, and the engine counts the fallback — in its
// stats and in pc_engine_kv_format_fallbacks_total; llama_tiny stores q4.
TEST_F(EngineTest, Q4ToQ8FallbackIsCounted) {
  const auto family_total = [] {
    for (const auto& f : obs::MetricsRegistry::global().collect()) {
      if (f.name == "pc_engine_kv_format_fallbacks_total") {
        return f.counter_value;
      }
    }
    return uint64_t{0};
  };
  const uint64_t before = family_total();
  EngineConfig q4;
  q4.precision = StorePrecision::kQ4;

  ModelConfig c = ModelConfig::llama_tiny(workload_.vocab().size(), 256);
  c.d_model = 64;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  c.d_head = 16;
  const Model narrow = Model::random(c, 3);
  const PromptCacheEngine fallback(narrow, workload_.tokenizer(), q4);
  EXPECT_EQ(fallback.config().precision, StorePrecision::kQ8);
  EXPECT_EQ(fallback.stats().kv_format_fallbacks, 1u);
  EXPECT_EQ(family_total(), before + 1);

  const Model tiny = Model::random(
      ModelConfig::llama_tiny(workload_.vocab().size(), 256), 3);
  const PromptCacheEngine direct(tiny, workload_.tokenizer(), q4);
  EXPECT_EQ(direct.config().precision, StorePrecision::kQ4);
  EXPECT_EQ(direct.stats().kv_format_fallbacks, 0u);
  EXPECT_EQ(family_total(), before + 1);
}

// Runtime module updates (§1: "or even update some prompt modules during
// the runtime"): re-loading a schema must invalidate stale encoded states.
TEST_F(EngineTest, ReloadingASchemaRefreshesModuleStates) {
  engine_.load_schema(R"(
    <schema name="live">
      <module name="doc">w00 q05 a10 a11 . w01</module>
    </schema>)");
  const char* prompt = R"(<prompt schema="live"><doc/> question: q05</prompt>)";
  EXPECT_EQ(engine_.serve(prompt, answer_options()).text, "a10 a11");

  // The document changes: same module name, new fact.
  engine_.load_schema(R"(
    <schema name="live">
      <module name="doc">w00 q05 a14 a15 . w01</module>
    </schema>)");
  EXPECT_EQ(engine_.serve(prompt, answer_options()).text, "a14 a15");
}

TEST_F(EngineTest, ReloadingASchemaDropsItsScaffolds) {
  const char* v1 = R"(
    <schema name="sc2">
      <module name="pa">w00 w01 q05</module>
      <module name="pb">a10 a11 . w02</module>
    </schema>)";
  engine_.load_schema(v1);
  engine_.add_scaffold("sc2", {"pa", "pb"});
  const char* prompt = R"(<prompt schema="sc2"><pa/><pb/> question: q05</prompt>)";
  EXPECT_EQ(engine_.serve(prompt, answer_options()).text, "a10 a11");

  // New version with different content: the old scaffold must not apply.
  engine_.load_schema(R"(
    <schema name="sc2">
      <module name="pa">w00 w01 q05</module>
      <module name="pb">a12 a13 . w02</module>
    </schema>)");
  const ServeResult r = engine_.serve(prompt, answer_options());
  EXPECT_NE(r.text, "a10 a11");  // stale joint states are gone
}

TEST_F(EngineTest, MultipleSchemasServeIndependently) {
  engine_.load_schema(R"(
    <schema name="alpha"><module name="d">w00 q05 a10 . w01</module></schema>)");
  engine_.load_schema(R"(
    <schema name="beta"><module name="d">w02 q05 a12 . w03</module></schema>)");
  EXPECT_EQ(engine_.serve(R"(<prompt schema="alpha"><d/> question: q05</prompt>)",
                          answer_options())
                .text,
            "a10");
  EXPECT_EQ(engine_.serve(R"(<prompt schema="beta"><d/> question: q05</prompt>)",
                          answer_options())
                .text,
            "a12");
}

TEST_F(EngineTest, SchemaTooLargeForModelRejected) {
  // The induction model has max_pos 256; a schema occupying more must be
  // rejected at load time, not fail mid-serve.
  std::string big = "<schema name=\"big\"><module name=\"m\">";
  for (int i = 0; i < 300; ++i) big += "w00 ";
  big += "</module></schema>";
  EXPECT_THROW(engine_.load_schema(big), ContractViolation);
}

TEST_F(EngineTest, FinishReasonsAreReported) {
  engine_.load_schema(R"(
    <schema name="fr">
      <module name="doc">w00 q05 a10 a11 . w01</module>
    </schema>)");
  const char* prompt = R"(<prompt schema="fr"><doc/> question: q05</prompt>)";

  // The answer ends with the "." stop token.
  GenerateOptions stop = answer_options(8);
  EXPECT_EQ(engine_.serve(prompt, stop).finish_reason,
            FinishReason::kStopToken);

  // No stops: generation runs to the length limit.
  GenerateOptions length;
  length.max_new_tokens = 3;
  length.stop_tokens.clear();
  EXPECT_EQ(engine_.serve(prompt, length).finish_reason,
            FinishReason::kLength);

  // A stop sequence on the answer pair.
  GenerateOptions seq = length;
  seq.max_new_tokens = 8;
  seq.stop_sequences = {
      workload_.tokenizer().encode("a10 a11")};
  const ServeResult r = engine_.serve(prompt, seq);
  EXPECT_EQ(r.finish_reason, FinishReason::kStopSequence);
  EXPECT_TRUE(r.tokens.empty());  // the match was the entire output
}

// Cached and baseline paths must assign the same log-probability to the
// reference answer when their states are bitwise equal (single module), and
// similar ones otherwise — the continuous fidelity metric.
TEST_F(EngineTest, ReferenceLogprobMatchesAcrossPaths) {
  engine_.load_schema(R"(
    <schema name="lp">
      <module name="doc">w00 w01 q05 a10 a11 . w02</module>
    </schema>)");
  const char* prompt = R"(<prompt schema="lp"><doc/> question: q05</prompt>)";
  const pml::PromptBinding binding = engine_.bind(prompt);
  const std::vector<TokenId> reference =
      workload_.tokenizer().encode("a10 a11 .");

  KVCache cached = model_.make_cache();
  const Tensor cached_logits =
      engine_.assemble_and_prefill(binding, cached, nullptr);
  const double cached_lp = model_.continuation_logprob(
      cached_logits, reference, binding.next_pos, cached);

  std::vector<int> pos(binding.baseline_tokens.size());
  std::iota(pos.begin(), pos.end(), 0);
  KVCache base = model_.make_cache();
  const Tensor base_logits =
      model_.forward(binding.baseline_tokens, pos, base);
  const double base_lp = model_.continuation_logprob(
      base_logits, reference, static_cast<int>(pos.size()), base);

  EXPECT_NEAR(cached_lp, base_lp, 1e-6);
  EXPECT_LT(cached_lp, 0.0);
  // The induction model's logit margin is ~1 nat per token over a ~180-token
  // vocab: each reference token is the argmax but carries modest probability
  // mass. "Clearly better than uniform" is the meaningful bound.
  const double uniform =
      3.0 * std::log(1.0 / workload_.vocab().size());
  EXPECT_GT(cached_lp, uniform + 2.0);
}

TEST_F(EngineTest, UnknownSchemaAndModuleErrors) {
  EXPECT_THROW(engine_.serve(R"(<prompt schema="nope">x</prompt>)"),
               SchemaError);
  engine_.load_schema(R"(<schema name="k"><module name="m">w00</module></schema>)");
  EXPECT_THROW(engine_.serve(R"(<prompt schema="k"><other/></prompt>)"),
               SchemaError);
}

}  // namespace
}  // namespace pc
