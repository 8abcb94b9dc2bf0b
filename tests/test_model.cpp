// Transformer engine tests: KV-cache exactness, discontinuous position IDs,
// block-masked prefill, GQA, and generation — across all architecture
// families (parameterized).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>
#include <string>

#include "model/induction.h"
#include "model/model.h"
#include "tensor/ops.h"

namespace pc {
namespace {

constexpr int kVocab = 64;

ModelConfig config_for(ArchFamily family) {
  switch (family) {
    case ArchFamily::kLlama:
      return ModelConfig::llama_tiny(kVocab, 256);
    case ArchFamily::kMpt:
      return ModelConfig::mpt_tiny(kVocab, 256);
    case ArchFamily::kFalcon:
      return ModelConfig::falcon_tiny(kVocab, 256);
    case ArchFamily::kGpt2:
      return ModelConfig::gpt2_tiny(kVocab, 256);
  }
  return ModelConfig::llama_tiny(kVocab, 256);
}

std::vector<TokenId> random_tokens(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TokenId> t(n);
  for (auto& x : t) x = static_cast<TokenId>(rng.next_below(kVocab));
  return t;
}

std::vector<int> iota_positions(size_t n, int start = 0) {
  std::vector<int> p(n);
  std::iota(p.begin(), p.end(), start);
  return p;
}

// Every layer's K and V rows of the two caches are bit-identical.
void expect_same_kv(const KVCache& a, const KVCache& b) {
  ASSERT_EQ(a.size(), b.size());
  const size_t row_bytes = static_cast<size_t>(a.kv_dim()) * sizeof(float);
  for (int l = 0; l < a.n_layers(); ++l) {
    for (int t = 0; t < a.size(); ++t) {
      ASSERT_EQ(std::memcmp(a.k_row(l, t), b.k_row(l, t), row_bytes), 0)
          << "K layer " << l << " token " << t;
      ASSERT_EQ(std::memcmp(a.v_row(l, t), b.v_row(l, t), row_bytes), 0)
          << "V layer " << l << " token " << t;
    }
  }
}

class ModelFamilyTest : public ::testing::TestWithParam<ArchFamily> {};

// The final layer runs past K/V for the returned rows only: last-row logits
// equal row n-1 of return_all_logits bit for bit, and every layer's K/V is
// the same whether one row, all rows or no row (encode) reaches the logits.
// The lengths cover one to many query rows in the uncut layers; the cut
// final layer always attends for one row.
TEST_P(ModelFamilyTest, LogitShapes) {
  const Model model = Model::random(config_for(GetParam()), 1);
  for (int n : {1, 2, 7, 8, 9, 33}) {
    SCOPED_TRACE("n_new " + std::to_string(n));
    const auto tokens = random_tokens(static_cast<size_t>(n), 11);
    const auto pos = iota_positions(static_cast<size_t>(n));
    KVCache cache = model.make_cache();
    const Tensor last = model.forward(tokens, pos, cache);
    ASSERT_EQ(last.dim(0), 1);
    ASSERT_EQ(last.dim(1), kVocab);

    KVCache cache_all = model.make_cache();
    const Tensor all = model.forward(tokens, pos, cache_all, true);
    ASSERT_EQ(all.dim(0), n);
    EXPECT_EQ(std::memcmp(all.row(n - 1), last.row(0),
                          static_cast<size_t>(kVocab) * sizeof(float)),
              0);
    expect_same_kv(cache, cache_all);

    KVCache encoded = model.make_cache();
    model.encode(tokens, pos, encoded);
    expect_same_kv(cache, encoded);
  }
}

// The foundational KV-cache property (§2.2): feeding tokens incrementally
// with the cache produces the same states and logits as one full pass.
TEST_P(ModelFamilyTest, IncrementalForwardMatchesFullPrefill) {
  const Model model = Model::random(config_for(GetParam()), 2);
  const auto tokens = random_tokens(12, 13);
  const auto pos = iota_positions(12);

  KVCache full = model.make_cache();
  const Tensor full_logits = model.forward(tokens, pos, full);

  KVCache inc = model.make_cache();
  Tensor inc_logits;
  // Split 5 / 3 / 4.
  const std::vector<std::pair<size_t, size_t>> chunks = {{0, 5}, {5, 8}, {8, 12}};
  for (const auto& [b, e] : chunks) {
    inc_logits = model.forward(
        std::span<const TokenId>(tokens.data() + b, e - b),
        std::span<const int>(pos.data() + b, e - b), inc);
  }

  ASSERT_EQ(full.size(), inc.size());
  for (int l = 0; l < model.config().n_layers; ++l) {
    for (int t = 0; t < full.size(); ++t) {
      for (int e = 0; e < model.config().kv_dim(); ++e) {
        ASSERT_EQ(full.k_row(l, t)[e], inc.k_row(l, t)[e])
            << "K mismatch layer " << l << " token " << t;
        ASSERT_EQ(full.v_row(l, t)[e], inc.v_row(l, t)[e]);
      }
    }
  }
  EXPECT_EQ(max_abs_diff(full_logits, inc_logits), 0.0f);
}

// Discontinuous position IDs are the engine feature Prompt Cache needs
// (§3.1): a segment's states must depend only on its own positions, not on
// how many tokens the cache already holds.
TEST_P(ModelFamilyTest, SegmentStatesIndependentOfGapBefore) {
  const Model model = Model::random(config_for(GetParam()), 3);
  const auto tokens = random_tokens(6, 17);

  // Encode at positions 40..45 with an empty cache...
  KVCache a = model.make_cache();
  const auto pos_a = iota_positions(6, 40);
  (void)model.forward(tokens, pos_a, a);

  // ...and at the same positions in a second, separate run.
  KVCache b = model.make_cache();
  (void)model.forward(tokens, pos_a, b);

  for (int l = 0; l < model.config().n_layers; ++l) {
    for (int t = 0; t < 6; ++t) {
      for (int e = 0; e < model.config().kv_dim(); ++e) {
        ASSERT_EQ(a.k_row(l, t)[e], b.k_row(l, t)[e]);
      }
    }
  }
}

// forward_blocked with every token in one block equals plain forward.
TEST_P(ModelFamilyTest, SingleBlockEqualsUnmasked) {
  const Model model = Model::random(config_for(GetParam()), 4);
  const auto tokens = random_tokens(9, 19);
  const auto pos = iota_positions(9);
  const std::vector<int> blocks(9, 0);

  KVCache a = model.make_cache();
  const Tensor la = model.forward(tokens, pos, a);
  KVCache b = model.make_cache();
  const Tensor lb = model.forward_blocked(tokens, pos, blocks, b);
  EXPECT_EQ(max_abs_diff(la, lb), 0.0f);
}

// The central Prompt Cache equivalence (§3.1/§3.3): encoding modules
// independently and concatenating their KV states is exactly one blocked
// prefill with a block-diagonal mask and the same position IDs. Two inputs:
// modules encoded by forward(), and modules encoded K/V-only by encode()
// with a parameter placeholder in mod2 — attended while mod2 is encoded,
// dropped from the concatenation, and hidden from the global rows of the
// blocked prefill (§3.3).
TEST_P(ModelFamilyTest, ModuleConcatEqualsBlockedPrefill) {
  const Model model = Model::random(config_for(GetParam()), 5);
  const auto mod1 = random_tokens(5, 23);
  const auto mod2 = random_tokens(7, 29);
  const auto suffix = random_tokens(3, 31);

  for (const bool kv_only : {false, true}) {
    SCOPED_TRACE(kv_only ? "encode() + placeholder" : "forward()");
    const int placeholder = kv_only ? 5 + 2 : -1;  // row of mod2, or none

    // Layout: mod1 at [0,5), mod2 at [5,12), suffix at [12,15).
    KVCache enc1 = model.make_cache();
    KVCache enc2 = model.make_cache();
    if (kv_only) {
      model.encode(mod1, iota_positions(5, 0), enc1);
      model.encode(mod2, iota_positions(7, 5), enc2);
    } else {
      (void)model.forward(mod1, iota_positions(5, 0), enc1);
      (void)model.forward(mod2, iota_positions(7, 5), enc2);
    }

    KVCache cached = model.make_cache();
    cached.append_copy(enc1);
    if (placeholder >= 0) {
      cached.append_range(enc2, 0, placeholder - 5);
      cached.append_range(enc2, placeholder - 5 + 1, enc2.size());
    } else {
      cached.append_copy(enc2);
    }
    const Tensor cached_logits =
        model.forward(suffix, iota_positions(3, 12), cached);

    // Reference: one forward with a block-diagonal mask; the suffix uses
    // the global block (attends to everything but the placeholder).
    std::vector<TokenId> all;
    all.insert(all.end(), mod1.begin(), mod1.end());
    all.insert(all.end(), mod2.begin(), mod2.end());
    all.insert(all.end(), suffix.begin(), suffix.end());
    const auto pos = iota_positions(15);
    std::vector<int> blocks;
    blocks.insert(blocks.end(), 5, 1);
    blocks.insert(blocks.end(), 7, 2);
    blocks.insert(blocks.end(), 3, Model::kGlobalBlock);
    bool hidden[15] = {};
    if (placeholder >= 0) hidden[placeholder] = true;

    KVCache reference = model.make_cache();
    const Tensor ref_logits =
        model.forward_blocked(all, pos, blocks, reference, hidden);

    // The reference's rows with the placeholder's dropped, as the cached
    // path assembles them.
    KVCache kept = model.make_cache();
    if (placeholder >= 0) {
      kept.append_range(reference, 0, placeholder);
      kept.append_range(reference, placeholder + 1, reference.size());
    } else {
      kept.append_copy(reference);
    }
    expect_same_kv(cached, kept);
    EXPECT_EQ(std::memcmp(cached_logits.data(), ref_logits.data(),
                          ref_logits.byte_size()),
              0);
  }
}

// Concatenation order must not matter (§3.4, permutation invariance): the
// suffix logits are identical whether modules are concatenated 1-2 or 2-1.
TEST_P(ModelFamilyTest, ConcatOrderInvariance) {
  const Model model = Model::random(config_for(GetParam()), 6);
  const auto mod1 = random_tokens(5, 37);
  const auto mod2 = random_tokens(6, 41);
  const auto suffix = random_tokens(2, 43);

  KVCache enc1 = model.make_cache();
  (void)model.forward(mod1, iota_positions(5, 0), enc1);
  KVCache enc2 = model.make_cache();
  (void)model.forward(mod2, iota_positions(6, 5), enc2);

  KVCache fwd = model.make_cache();
  fwd.append_copy(enc1);
  fwd.append_copy(enc2);
  const Tensor l12 = model.forward(suffix, iota_positions(2, 11), fwd);

  KVCache rev = model.make_cache();
  rev.append_copy(enc2);
  rev.append_copy(enc1);
  const Tensor l21 = model.forward(suffix, iota_positions(2, 11), rev);

  // Attention sums run in a different order, so allow tiny float drift.
  EXPECT_LE(max_abs_diff(l12, l21), 2e-4f);
}

TEST_P(ModelFamilyTest, GreedyGenerationIsDeterministic) {
  const Model model = Model::random(config_for(GetParam()), 7);
  const auto tokens = random_tokens(8, 47);
  const auto pos = iota_positions(8);

  GenerateOptions opts;
  opts.max_new_tokens = 6;
  opts.stop_tokens.clear();

  KVCache c1 = model.make_cache();
  const Tensor logits1 = model.forward(tokens, pos, c1);
  const auto out1 = model.generate(logits1, 8, c1, opts).tokens;

  KVCache c2 = model.make_cache();
  const Tensor logits2 = model.forward(tokens, pos, c2);
  const auto out2 = model.generate(logits2, 8, c2, opts).tokens;

  EXPECT_EQ(out1.size(), 6u);
  EXPECT_EQ(out1, out2);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ModelFamilyTest,
                         ::testing::Values(ArchFamily::kLlama,
                                           ArchFamily::kMpt,
                                           ArchFamily::kFalcon,
                                           ArchFamily::kGpt2),
                         [](const auto& info) {
                           switch (info.param) {
                             case ArchFamily::kLlama: return "Llama";
                             case ArchFamily::kMpt: return "Mpt";
                             case ArchFamily::kFalcon: return "Falcon";
                             case ArchFamily::kGpt2: return "Gpt2";
                           }
                           return "Unknown";
                         });

TEST(Sampling, ZeroTemperatureIsGreedy) {
  const Model model = Model::random(config_for(ArchFamily::kLlama), 21);
  const auto tokens = random_tokens(6, 61);
  const auto pos = iota_positions(6);
  KVCache cache = model.make_cache();
  const Tensor logits = model.forward(tokens, pos, cache);

  GenerateOptions greedy;
  greedy.temperature = 0.0f;
  Rng rng(1);
  EXPECT_EQ(Model::sample_token(logits, 0, greedy, rng),
            Model::argmax(logits));
}

TEST(Sampling, TopK1EqualsGreedyAtAnyTemperature) {
  const Model model = Model::random(config_for(ArchFamily::kLlama), 22);
  const auto tokens = random_tokens(5, 67);
  KVCache cache = model.make_cache();
  const Tensor logits = model.forward(tokens, iota_positions(5), cache);

  GenerateOptions opts;
  opts.temperature = 2.0f;
  opts.top_k = 1;
  Rng rng(9);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(Model::sample_token(logits, 0, opts, rng),
              Model::argmax(logits));
  }
}

TEST(Sampling, SeededSamplingIsDeterministicAndSeedSensitive) {
  const Model model = Model::random(config_for(ArchFamily::kLlama), 23);
  const auto tokens = random_tokens(6, 71);
  const auto pos = iota_positions(6);

  GenerateOptions opts;
  opts.temperature = 1.5f;
  opts.max_new_tokens = 8;
  opts.stop_tokens.clear();
  opts.seed = 7;

  auto run = [&](uint64_t seed) {
    GenerateOptions o = opts;
    o.seed = seed;
    KVCache cache = model.make_cache();
    const Tensor logits = model.forward(tokens, pos, cache);
    return model.generate(logits, 6, cache, o).tokens;
  };
  EXPECT_EQ(run(7), run(7));
  // High temperature over a 64-token vocab: different seeds should diverge.
  bool diverged = false;
  for (uint64_t s = 8; s < 14 && !diverged; ++s) diverged = run(7) != run(s);
  EXPECT_TRUE(diverged);
}

TEST(Sampling, HighTemperatureSpreadsChoices) {
  const Model model = Model::random(config_for(ArchFamily::kLlama), 24);
  const auto tokens = random_tokens(4, 73);
  KVCache cache = model.make_cache();
  const Tensor logits = model.forward(tokens, iota_positions(4), cache);

  GenerateOptions opts;
  opts.temperature = 5.0f;
  Rng rng(3);
  std::set<TokenId> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(Model::sample_token(logits, 0, opts, rng));
  }
  EXPECT_GT(seen.size(), 5u);  // far from deterministic
}

TEST(StopSequences, MatchedTailIsRemovedAndGenerationStops) {
  // The induction model copies a known token chain, so the expected output
  // around a stop sequence is fully determined: the context plants
  // "20 -> 30 31 32 33" and the stop sequence {32, 33} must cut the copy
  // after "30 31".
  const Model model = make_induction_model({48, 64});
  const std::vector<TokenId> prompt = {5, 20, 30, 31, 32, 33, 6, 20};
  const auto pos = iota_positions(prompt.size());

  GenerateOptions plain;
  plain.max_new_tokens = 4;
  plain.stop_tokens.clear();
  KVCache c1 = model.make_cache();
  const auto full = model.generate(model.forward(prompt, pos, c1),
                                   static_cast<int>(prompt.size()), c1, plain)
                        .tokens;
  ASSERT_EQ(full, (std::vector<TokenId>{30, 31, 32, 33}));

  GenerateOptions stopping = plain;
  stopping.stop_sequences = {{32, 33}};
  KVCache c2 = model.make_cache();
  const auto cut = model.generate(model.forward(prompt, pos, c2),
                                  static_cast<int>(prompt.size()), c2, stopping)
                       .tokens;
  EXPECT_EQ(cut, (std::vector<TokenId>{30, 31}));

  // A stop sequence that never appears leaves the output untouched.
  GenerateOptions unmatched = plain;
  unmatched.stop_sequences = {{31, 30}};
  KVCache c3 = model.make_cache();
  EXPECT_EQ(model.generate(model.forward(prompt, pos, c3),
                           static_cast<int>(prompt.size()), c3, unmatched)
                .tokens,
            full);
}

TEST(ModelConfig, ValidatesHeadDivisibility) {
  ModelConfig c = ModelConfig::llama_tiny(kVocab);
  c.n_kv_heads = 4;  // 6 % 4 != 0
  EXPECT_THROW(Model::random(c, 1), ContractViolation);
}

TEST(ModelConfig, RejectsOddRopeHead) {
  ModelConfig c = ModelConfig::llama_tiny(kVocab);
  c.d_head = 31;
  EXPECT_THROW(Model::random(c, 1), ContractViolation);
}

TEST(Model, RejectsPositionBeyondMaxPos) {
  const Model model = Model::random(config_for(ArchFamily::kLlama), 8);
  KVCache cache = model.make_cache();
  const std::vector<TokenId> t = {1};
  const std::vector<int> p = {model.config().max_pos};
  EXPECT_THROW(model.forward(t, p, cache), ContractViolation);
}

TEST(Model, RejectsTokenOutsideVocab) {
  const Model model = Model::random(config_for(ArchFamily::kLlama), 9);
  KVCache cache = model.make_cache();
  const std::vector<TokenId> t = {kVocab};
  const std::vector<int> p = {0};
  EXPECT_THROW(model.forward(t, p, cache), ContractViolation);
}

// ALiBi biases are computed from stored position IDs: relocating a module
// must preserve relative distances, so logits depend on relative offsets
// only. Encode the same text at two different offsets and check the decode
// step sees identical attention (MPT family).
TEST(ModelAlibi, RelativePositionsDetermineAttention) {
  const Model model = Model::random(config_for(ArchFamily::kMpt), 10);
  const auto tokens = random_tokens(6, 53);

  KVCache a = model.make_cache();
  const Tensor la = model.forward(tokens, iota_positions(6, 0), a);
  KVCache b = model.make_cache();
  const Tensor lb = model.forward(tokens, iota_positions(6, 100), b);
  EXPECT_EQ(max_abs_diff(la, lb), 0.0f);
}

}  // namespace
}  // namespace pc
