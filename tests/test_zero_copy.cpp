// Tests for zero-copy serving: bitwise equivalence with the copy path,
// memory-footprint semantics, tail-capacity contracts, pin lifetimes, and
// precision restrictions.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>

#include "core/engine.h"
#include "eval/workload.h"
#include "kv/kv_view.h"
#include "kv/quant.h"
#include "model/induction.h"
#include "tensor/ops.h"

namespace pc {
namespace {

class ZeroCopyTest : public ::testing::Test {
 protected:
  ZeroCopyTest()
      : workload_(7),
        model_(make_induction_model({workload_.vocab().size(), 256})) {}

  GenerateOptions answer_options(int max_tokens = 6) const {
    GenerateOptions o;
    o.max_new_tokens = max_tokens;
    o.stop_tokens = {workload_.stop_token()};
    return o;
  }

  static constexpr const char* kSchema = R"(
    <schema name="z">
      <module name="doc1">w00 w01 q05 a10 a11 . w02</module>
      <module name="doc2">w03 w04 q06 a12 a13 . w05</module>
    </schema>)";
  static constexpr const char* kPrompt =
      R"(<prompt schema="z"><doc1/><doc2/> question: q06</prompt>)";

  AccuracyWorkload workload_;
  Model model_;
};

TEST_F(ZeroCopyTest, SegmentedCacheBasics) {
  KVCache module(2, 4);
  const std::vector<int> pos = {3, 4, 5};
  module.append_tokens(pos);
  module.k_row(1, 2)[0] = 42.0f;

  SegmentedKVCache view(2, 4, /*tail_capacity=*/2);
  view.append_borrowed(module, 0, 3);
  EXPECT_EQ(view.size(), 3);
  EXPECT_EQ(view.borrowed_tokens(), 3);
  EXPECT_EQ(view.pos_id(2), 5);
  // Borrowed rows alias the source — no copy happened.
  EXPECT_EQ(view.k_row(1, 2), module.k_row(1, 2));
  EXPECT_FLOAT_EQ(view.k_row(1, 2)[0], 42.0f);

  const std::vector<int> tail_pos = {9};
  const int first = view.append_tokens(tail_pos);
  EXPECT_EQ(first, 3);
  view.k_row_mut(0, 3)[1] = 7.0f;
  EXPECT_FLOAT_EQ(view.k_row(0, 3)[1], 7.0f);
  EXPECT_GT(view.owned_payload_bytes(), 0u);
}

TEST_F(ZeroCopyTest, ContractsAreEnforced) {
  KVCache module(2, 4);
  const std::vector<int> pos = {0, 1};
  module.append_tokens(pos);

  SegmentedKVCache view(2, 4, /*tail_capacity=*/1);
  view.append_borrowed(module, 0, 2);
  EXPECT_THROW(view.k_row_mut(0, 0), ContractViolation);  // borrowed row
  const std::vector<int> one = {5};
  view.append_tokens(one);
  EXPECT_THROW(view.append_tokens(one), ContractViolation);  // tail overflow
  // Borrow-after-own is rejected (pointer table ordering).
  EXPECT_THROW(view.append_borrowed(module, 0, 1), ContractViolation);
  // Geometry mismatch.
  SegmentedKVCache bad(3, 4, 1);
  EXPECT_THROW(bad.append_borrowed(module, 0, 1), ContractViolation);
}

TEST_F(ZeroCopyTest, ForwardMatchesContiguousCacheBitwise) {
  // The same module + suffix computed through both cache representations
  // must agree exactly.
  const std::vector<TokenId> mod_tokens = {7, 8, 20, 30, 31, 9};
  const std::vector<TokenId> suffix = {20};
  std::vector<int> mod_pos(mod_tokens.size());
  std::iota(mod_pos.begin(), mod_pos.end(), 0);
  const std::vector<int> suf_pos = {static_cast<int>(mod_tokens.size())};

  KVCache encoded = model_.make_cache();
  (void)model_.forward(mod_tokens, mod_pos, encoded);

  KVCache copy_cache = model_.make_cache();
  copy_cache.append_copy(encoded);
  const Tensor copy_logits = model_.forward(suffix, suf_pos, copy_cache);

  SegmentedKVCache view(model_.config().n_layers, model_.config().kv_dim(),
                        4);
  view.append_borrowed(encoded, 0, encoded.size());
  const Tensor view_logits = model_.forward(suffix, suf_pos, view);

  EXPECT_EQ(max_abs_diff(copy_logits, view_logits), 0.0f);
}

// The K/V-only call publishes forward()'s K/V bits into a view's owned tail
// whatever format its borrowed module rows hold (fp32, q8, q4), at suffix
// lengths on both sides of the attention schedules' 8-row switch.
TEST(ZeroCopyEncode, MatchesForwardOverBorrowedFp32Q8Q4Rows) {
  const ModelConfig cfg = ModelConfig::llama_tiny(64, 256);
  const Model model = Model::random(cfg, 9);
  const int n_layers = cfg.n_layers;
  const int kv_dim = cfg.kv_dim();
  constexpr int kModule = 12;
  std::vector<TokenId> tokens(kModule + 9);
  for (size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<TokenId>((i * 37 + 5) % 64);
  }
  std::vector<int> pos(tokens.size());
  std::iota(pos.begin(), pos.end(), 0);

  KVCache module = model.make_cache();
  model.encode(std::span<const TokenId>(tokens.data(), kModule),
               std::span<const int>(pos.data(), kModule), module);
  std::vector<Q8Layer> q8(static_cast<size_t>(n_layers));
  std::vector<Q4Layer> q4(static_cast<size_t>(n_layers));
  for (int l = 0; l < n_layers; ++l) {
    Q8Layer& a = q8[static_cast<size_t>(l)];
    a.k.resize(static_cast<size_t>(kModule) * kv_dim);
    a.v.resize(a.k.size());
    a.k_scales.resize(kModule);
    a.v_scales.resize(kModule);
    quantize_rows(module.k_row(l, 0), kModule, kv_dim, a.k.data(),
                  a.k_scales.data());
    quantize_rows(module.v_row(l, 0), kModule, kv_dim, a.v.data(),
                  a.v_scales.data());
    Q4Layer& b = q4[static_cast<size_t>(l)];
    b.k.resize(kModule * q4_row_bytes(kv_dim));
    b.v.resize(b.k.size());
    b.k_scales.resize(static_cast<size_t>(kModule) * q4_blocks(kv_dim));
    b.v_scales.resize(b.k_scales.size());
    quantize_rows_q4(module.k_row(l, 0), kModule, kv_dim, b.k.data(),
                     b.k_scales.data());
    quantize_rows_q4(module.v_row(l, 0), kModule, kv_dim, b.v.data(),
                     b.v_scales.data());
  }
  const std::span<const int> module_pos(pos.data(), kModule);

  for (StorePrecision format :
       {StorePrecision::kFp32, StorePrecision::kQ8, StorePrecision::kQ4}) {
    for (int n : {3, 9}) {
      SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)) +
                   " suffix " + std::to_string(n));
      SegmentedKVCache forwarded(n_layers, kv_dim, n);
      SegmentedKVCache encoded(n_layers, kv_dim, n);
      for (SegmentedKVCache* view : {&forwarded, &encoded}) {
        if (format == StorePrecision::kFp32) {
          view->append_borrowed(module, 0, kModule);
        } else if (format == StorePrecision::kQ8) {
          view->append_borrowed_q8(q8, module_pos, 0, kModule);
        } else {
          view->append_borrowed_q4(q4, module_pos, 0, kModule);
        }
      }
      const std::span<const TokenId> suffix(tokens.data() + kModule,
                                            static_cast<size_t>(n));
      const std::span<const int> suffix_pos(pos.data() + kModule,
                                            static_cast<size_t>(n));
      (void)model.forward(suffix, suffix_pos, forwarded);
      model.encode(suffix, suffix_pos, encoded);
      ASSERT_EQ(encoded.size(), kModule + n);
      const size_t row_bytes = static_cast<size_t>(kv_dim) * sizeof(float);
      for (int l = 0; l < n_layers; ++l) {
        for (int t = kModule; t < kModule + n; ++t) {
          ASSERT_EQ(std::memcmp(forwarded.k_row(l, t), encoded.k_row(l, t),
                                row_bytes),
                    0)
              << "K layer " << l << " token " << t;
          ASSERT_EQ(std::memcmp(forwarded.v_row(l, t), encoded.v_row(l, t),
                                row_bytes),
                    0)
              << "V layer " << l << " token " << t;
        }
      }
    }
  }
}

TEST_F(ZeroCopyTest, ServeMatchesCopyPathExactly) {
  PromptCacheEngine copy_engine(model_, workload_.tokenizer());
  copy_engine.load_schema(kSchema);
  const ServeResult copied = copy_engine.serve(kPrompt, answer_options());

  EngineConfig cfg;
  cfg.zero_copy = true;
  PromptCacheEngine zc_engine(model_, workload_.tokenizer(), cfg);
  zc_engine.load_schema(kSchema);
  const ServeResult borrowed = zc_engine.serve(kPrompt, answer_options());

  EXPECT_EQ(borrowed.tokens, copied.tokens);
  EXPECT_EQ(borrowed.text, "a12 a13");
  // Copy path moves bytes; zero-copy path moves none.
  EXPECT_GT(copied.ttft.bytes_from_host + copied.ttft.bytes_from_device, 0u);
  EXPECT_EQ(borrowed.ttft.bytes_from_host, 0u);
  EXPECT_EQ(borrowed.ttft.bytes_from_device, 0u);
  EXPECT_GT(borrowed.ttft.bytes_zero_copy, 0u);
  EXPECT_EQ(borrowed.ttft.cached_tokens, copied.ttft.cached_tokens);
}

TEST_F(ZeroCopyTest, PinsAreReleasedAfterServe) {
  EngineConfig cfg;
  cfg.zero_copy = true;
  PromptCacheEngine engine(model_, workload_.tokenizer(), cfg);
  engine.load_schema(kSchema);
  (void)engine.serve(kPrompt, answer_options());
  EXPECT_FALSE(engine.store().is_pinned("z::doc1"));
  EXPECT_FALSE(engine.store().is_pinned("z::doc2"));
  // Repeat serves keep working (pin/unpin cycles are balanced).
  const ServeResult again = engine.serve(kPrompt, answer_options());
  EXPECT_EQ(again.text, "a12 a13");
}

TEST_F(ZeroCopyTest, ReducedPrecisionStoresAreRejected) {
  EngineConfig cfg;
  cfg.zero_copy = true;
  cfg.precision = StorePrecision::kFp16;
  PromptCacheEngine engine(model_, workload_.tokenizer(), cfg);
  engine.load_schema(kSchema);
  EXPECT_THROW(engine.serve(kPrompt, answer_options()), ContractViolation);
  // The pin taken before the rejection is returned as the serve unwinds.
  EXPECT_FALSE(engine.store().is_pinned("z::doc1"));
  EXPECT_FALSE(engine.store().is_pinned("z::doc2"));
}

TEST_F(ZeroCopyTest, Q8ZeroCopyServesExactRetrievalWithoutDequant) {
  // Quantized modules are borrowed in place and scored in the int8 domain:
  // retrieval stays exact (the induction gate) and the dequant-on-read
  // counter stays at zero — no fp32 materialization on the hot path.
  EngineConfig q8;
  q8.precision = StorePrecision::kQ8;
  PromptCacheEngine copy_engine(model_, workload_.tokenizer(), q8);
  copy_engine.load_schema(kSchema);
  const ServeResult copied = copy_engine.serve(kPrompt, answer_options());
  EXPECT_EQ(copied.text, "a12 a13");
  // The copy path materializes fp32 rows from the q8 payload — and counts
  // every one of them.
  EXPECT_GT(copy_engine.store().dequant_rows(), 0u);

  EngineConfig zc = q8;
  zc.zero_copy = true;
  PromptCacheEngine zc_engine(model_, workload_.tokenizer(), zc);
  zc_engine.load_schema(kSchema);
  const ServeResult borrowed = zc_engine.serve(kPrompt, answer_options());
  EXPECT_EQ(borrowed.text, "a12 a13");
  EXPECT_EQ(borrowed.tokens, copied.tokens);
  EXPECT_GT(borrowed.ttft.bytes_zero_copy, 0u);
  EXPECT_EQ(borrowed.ttft.bytes_from_host, 0u);
  EXPECT_EQ(zc_engine.store().dequant_rows(), 0u)
      << "zero-copy q8 serving must never dequantize";
}

TEST_F(ZeroCopyTest, Q8StoreResidencyIsTrackedByFormat) {
  EngineConfig q8;
  q8.precision = StorePrecision::kQ8;
  PromptCacheEngine engine(model_, workload_.tokenizer(), q8);
  engine.load_schema(kSchema);
  EXPECT_GT(engine.store().resident_bytes_q8(), 0u);
  EXPECT_EQ(engine.store().resident_bytes_fp32(), 0u);

  EngineConfig fp32;
  fp32.precision = StorePrecision::kFp32;
  PromptCacheEngine fp_engine(model_, workload_.tokenizer(), fp32);
  fp_engine.load_schema(kSchema);
  EXPECT_EQ(fp_engine.store().resident_bytes_q8(), 0u);
  EXPECT_GT(fp_engine.store().resident_bytes_fp32(), 0u);
  // Q8_0 is a quarter of fp32 plus two scales per token-layer.
  EXPECT_LT(engine.store().resident_bytes_q8(),
            fp_engine.store().resident_bytes_fp32() * 3 / 10);
}

TEST_F(ZeroCopyTest, Q4ZeroCopyServesExactRetrievalWithoutDequant) {
  // The sub-byte format borrows packed nibble rows in place and scores them
  // in the int4 domain: retrieval stays exact (the induction gate) and the
  // dequant-on-read counter stays at zero.
  EngineConfig q4;
  q4.precision = StorePrecision::kQ4;
  PromptCacheEngine copy_engine(model_, workload_.tokenizer(), q4);
  copy_engine.load_schema(kSchema);
  const ServeResult copied = copy_engine.serve(kPrompt, answer_options());
  EXPECT_EQ(copied.text, "a12 a13");
  // The copy path materializes fp32 rows from the q4 payload — and counts
  // every one of them.
  EXPECT_GT(copy_engine.store().dequant_rows(), 0u);

  EngineConfig zc = q4;
  zc.zero_copy = true;
  PromptCacheEngine zc_engine(model_, workload_.tokenizer(), zc);
  zc_engine.load_schema(kSchema);
  const ServeResult borrowed = zc_engine.serve(kPrompt, answer_options());
  EXPECT_EQ(borrowed.text, "a12 a13");
  EXPECT_EQ(borrowed.tokens, copied.tokens);
  EXPECT_GT(borrowed.ttft.bytes_zero_copy, 0u);
  EXPECT_EQ(borrowed.ttft.bytes_from_host, 0u);
  EXPECT_EQ(zc_engine.store().dequant_rows(), 0u)
      << "zero-copy q4 serving must never dequantize";
}

TEST_F(ZeroCopyTest, Q4StoreResidencyIsTrackedByFormat) {
  EngineConfig q4;
  q4.precision = StorePrecision::kQ4;
  PromptCacheEngine engine(model_, workload_.tokenizer(), q4);
  engine.load_schema(kSchema);
  EXPECT_GT(engine.store().resident_bytes_q4(), 0u);
  EXPECT_EQ(engine.store().resident_bytes_q8(), 0u);
  EXPECT_EQ(engine.store().resident_bytes_fp32(), 0u);

  EngineConfig fp32;
  fp32.precision = StorePrecision::kFp32;
  PromptCacheEngine fp_engine(model_, workload_.tokenizer(), fp32);
  fp_engine.load_schema(kSchema);
  EXPECT_EQ(fp_engine.store().resident_bytes_q4(), 0u);
  // Q4_0 costs exactly 20 bytes per 32-value block (16 packed + one fp32
  // scale) against 4 bytes per element for fp32. The induction model rounds
  // its width up to the block size, so the identity reduces to the clean
  // 5/32 ratio; it stays exact even for widths whose final block pads.
  const size_t kv = static_cast<size_t>(model_.config().kv_dim());
  const size_t blocks = static_cast<size_t>(q4_blocks(model_.config().kv_dim()));
  EXPECT_EQ(engine.store().resident_bytes_q4() * kv * 4,
            fp_engine.store().resident_bytes_fp32() * blocks * 20);
}

TEST_F(ZeroCopyTest, ManyRequestsShareOneModuleCopy) {
  // The batch-sharing picture (§3.4/§6): N concurrent views over the same
  // modules each own only their tail.
  PromptCacheEngine engine(model_, workload_.tokenizer());
  engine.load_schema(kSchema);
  const pml::PromptBinding binding = engine.bind(kPrompt);

  const UncachedStream question = collect_uncached(binding);
  std::vector<BorrowedKV> requests;
  size_t owned_total = 0;
  for (int i = 0; i < 8; ++i) {
    TtftBreakdown ttft;
    requests.push_back(engine.assemble_borrowed(binding, 2, &ttft));
    (void)model_.forward(question.tokens, question.pos_ids,
                         requests.back().view);
    owned_total += requests.back().view.owned_payload_bytes();
  }
  // Every live view holds one pin on each module it borrows.
  EXPECT_EQ(engine.store().pin_count("z::doc1"), 8);
  requests.clear();
  EXPECT_EQ(engine.store().pin_count("z::doc1"), 0);

  // One contiguous copy of the same prompt for comparison.
  KVCache copy = model_.make_cache();
  TtftBreakdown ttft;
  (void)engine.assemble_and_prefill(binding, copy, &ttft);
  // 8 requests own less memory than 2 full copies would.
  EXPECT_LT(owned_total, 2 * copy.payload_bytes());
}

}  // namespace
}  // namespace pc
