// Tests for the hand-constructed induction-head model: in-context copying
// must work through the plain engine, through discontinuous positions, and
// must break exactly at module boundaries under module-masked encoding —
// the mechanism behind the Table 1 accuracy experiments.
#include <gtest/gtest.h>

#include <numeric>

#include "model/induction.h"

namespace pc {
namespace {

constexpr int kVocab = 48;
constexpr int kMaxPos = 128;

Model make_model() {
  InductionModelOptions opt;
  opt.vocab_size = kVocab;
  opt.max_pos = kMaxPos;
  return make_induction_model(opt);
}

std::vector<int> iota_positions(size_t n, int start = 0) {
  std::vector<int> p(n);
  std::iota(p.begin(), p.end(), start);
  return p;
}

// Greedy-decode `steps` tokens after prefilling `prompt` at contiguous
// positions starting from `start_pos`.
std::vector<TokenId> run(const Model& model, std::vector<TokenId> prompt,
                         int steps, int start_pos = 0) {
  KVCache cache = model.make_cache();
  const auto pos = iota_positions(prompt.size(), start_pos);
  const Tensor logits = model.forward(prompt, pos, cache);
  GenerateOptions opts;
  opts.max_new_tokens = steps;
  opts.stop_tokens.clear();
  return model
      .generate(logits, start_pos + static_cast<int>(prompt.size()), cache,
                opts)
      .tokens;
}

TEST(Induction, CopiesSingleFact) {
  const Model model = make_model();
  // context: 7 8 [K=20 V1=30 V2=31] 9 10 ... query: 20
  const std::vector<TokenId> prompt = {7, 8, 20, 30, 31, 9, 10, 20};
  const auto out = run(model, prompt, 2);
  EXPECT_EQ(out, (std::vector<TokenId>{30, 31}));
}

TEST(Induction, CopiesLongValueChain) {
  const Model model = make_model();
  const std::vector<TokenId> prompt = {5, 20, 30, 31, 32, 33, 6, 20};
  const auto out = run(model, prompt, 4);
  EXPECT_EQ(out, (std::vector<TokenId>{30, 31, 32, 33}));
}

TEST(Induction, SelectsQueriedFactAmongMany) {
  const Model model = make_model();
  const std::vector<TokenId> prompt = {20, 30, 2,  21, 31, 2, 22, 32, 2,
                                       23, 33, 2,  21};
  const auto out = run(model, prompt, 1);
  EXPECT_EQ(out, (std::vector<TokenId>{31}));
}

TEST(Induction, WorksAtShiftedPositions) {
  const Model model = make_model();
  const std::vector<TokenId> prompt = {7, 20, 30, 31, 8, 20};
  const auto base = run(model, prompt, 2, 0);
  const auto shifted = run(model, prompt, 2, 50);
  EXPECT_EQ(base, (std::vector<TokenId>{30, 31}));
  EXPECT_EQ(shifted, base);
}

// Module-concatenated retrieval: the fact lives wholly inside one module;
// the query arrives as the uncached suffix. Retrieval must survive caching.
TEST(Induction, RetrievesFromConcatenatedModules) {
  const Model model = make_model();

  const std::vector<TokenId> doc1 = {7, 8, 9, 10, 11};          // distractor
  const std::vector<TokenId> doc2 = {12, 20, 30, 31, 2, 13};    // fact here
  const std::vector<TokenId> query = {20};

  KVCache enc1 = model.make_cache();
  (void)model.forward(doc1, iota_positions(doc1.size(), 0), enc1);
  KVCache enc2 = model.make_cache();
  (void)model.forward(doc2, iota_positions(doc2.size(), 5), enc2);

  KVCache seq = model.make_cache();
  seq.append_copy(enc1);
  seq.append_copy(enc2);
  const Tensor logits = model.forward(query, iota_positions(1, 11), seq);

  GenerateOptions opts;
  opts.max_new_tokens = 2;
  opts.stop_tokens.clear();
  const auto out = model.generate(logits, 12, seq, opts).tokens;
  EXPECT_EQ(out, (std::vector<TokenId>{30, 31}));
}

// A fact straddling a module boundary is retrievable by a full prefill but
// NOT by module-masked encoding: the previous-token link between the key
// (end of module A) and the first value (start of module B) is severed.
// This is the paper's semantic-dependence caveat (§3.3) made concrete.
TEST(Induction, BoundaryStraddlingFactLostUnderCaching) {
  const Model model = make_model();

  const std::vector<TokenId> part_a = {7, 8, 20};        // ends with key
  const std::vector<TokenId> part_b = {30, 31, 9, 10};   // starts with values
  const std::vector<TokenId> query = {20};

  // Baseline: one contiguous prefill retrieves the fact.
  std::vector<TokenId> full = part_a;
  full.insert(full.end(), part_b.begin(), part_b.end());
  full.push_back(20);
  const auto baseline = run(model, full, 2);
  EXPECT_EQ(baseline, (std::vector<TokenId>{30, 31}));

  // Cached: encode the parts separately, concatenate, query.
  KVCache enc_a = model.make_cache();
  (void)model.forward(part_a, iota_positions(part_a.size(), 0), enc_a);
  KVCache enc_b = model.make_cache();
  (void)model.forward(part_b, iota_positions(part_b.size(), 3), enc_b);

  KVCache seq = model.make_cache();
  seq.append_copy(enc_a);
  seq.append_copy(enc_b);
  const Tensor logits = model.forward(query, iota_positions(1, 7), seq);
  GenerateOptions opts;
  opts.max_new_tokens = 2;
  opts.stop_tokens.clear();
  const auto cached = model.generate(logits, 8, seq, opts).tokens;
  EXPECT_NE(cached, baseline);
}

// Joint (scaffold-style) encoding of both parts restores the fact (§3.3).
TEST(Induction, JointEncodingRestoresStraddlingFact) {
  const Model model = make_model();

  const std::vector<TokenId> part_a = {7, 8, 20};
  const std::vector<TokenId> part_b = {30, 31, 9, 10};
  std::vector<TokenId> joint = part_a;
  joint.insert(joint.end(), part_b.begin(), part_b.end());

  KVCache enc = model.make_cache();
  (void)model.forward(joint, iota_positions(joint.size(), 0), enc);

  KVCache seq = model.make_cache();
  seq.append_copy(enc);
  const std::vector<TokenId> query = {20};
  const Tensor logits = model.forward(query, iota_positions(1, 7), seq);
  GenerateOptions opts;
  opts.max_new_tokens = 2;
  opts.stop_tokens.clear();
  const auto out = model.generate(logits, 8, seq, opts).tokens;
  EXPECT_EQ(out, (std::vector<TokenId>{30, 31}));
}

// The surrogate must stay correct across the attention-sharpness range the
// Table 1 variants use: retrieval works and the boundary-severing effect
// persists at every beta.
class InductionBetaSweep : public ::testing::TestWithParam<float> {};

TEST_P(InductionBetaSweep, RetrievalAndBoundaryEffectHoldAcrossSharpness) {
  InductionModelOptions opt;
  opt.vocab_size = kVocab;
  opt.max_pos = kMaxPos;
  opt.beta1 = GetParam();
  opt.beta2 = GetParam();
  const Model model = make_induction_model(opt);

  // Plain retrieval among distractors.
  const std::vector<TokenId> prompt = {7, 8, 20, 30, 31, 2, 9, 21, 32, 2,
                                       10, 20};
  const auto out = run(model, prompt, 2);
  EXPECT_EQ(out, (std::vector<TokenId>{30, 31})) << "beta=" << GetParam();

  // Straddling fact severed by module-masked encoding.
  const std::vector<TokenId> part_a = {7, 8, 20};
  const std::vector<TokenId> part_b = {30, 31, 9, 10};
  KVCache enc_a = model.make_cache();
  (void)model.forward(part_a, iota_positions(part_a.size(), 0), enc_a);
  KVCache enc_b = model.make_cache();
  (void)model.forward(part_b, iota_positions(part_b.size(), 3), enc_b);
  KVCache seq = model.make_cache();
  seq.append_copy(enc_a);
  seq.append_copy(enc_b);
  const std::vector<TokenId> query = {20};
  const Tensor logits = model.forward(query, iota_positions(1, 7), seq);
  GenerateOptions opts;
  opts.max_new_tokens = 2;
  opts.stop_tokens.clear();
  const auto cached = model.generate(logits, 8, seq, opts).tokens;
  EXPECT_NE(cached, (std::vector<TokenId>{30, 31})) << "beta=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sharpness, InductionBetaSweep,
                         ::testing::Values(12.0f, 16.0f, 20.0f, 24.0f,
                                           28.0f));

TEST(Induction, DimensionsFollowConstruction) {
  const Model model = make_model();
  // 3V + P rounded up to the Q4_0 block size (32) so blocked KV formats
  // pack without partial-block waste.
  EXPECT_EQ(model.config().d_model, (3 * kVocab + kMaxPos + 31) / 32 * 32);
  EXPECT_EQ(model.config().n_layers, 2);
  EXPECT_FALSE(model.config().use_mlp);
}

}  // namespace
}  // namespace pc
