// Tests for zero-copy serving and the sequence cache's module rows:
// bitwise equivalence of copied and borrowed rows at fp32, q8 and q4,
// memory-footprint semantics, cache contracts, pin lifetimes, and
// precision restrictions.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <utility>

#include "core/engine.h"
#include "eval/workload.h"
#include "kv/kv_cache.h"
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

  // Stored bytes of the module rows kPrompt imports (both modules, text
  // rows only) in `engine`'s store.
  static size_t imported_stored_bytes(const PromptCacheEngine& engine) {
    size_t bytes = 0;
    engine.store().for_each(
        [&](const std::string&, const EncodedModule& m, ModuleLocation) {
          bytes += m.bytes_per_token() *
                   static_cast<size_t>(m.text_token_count());
        });
    return bytes;
  }

  AccuracyWorkload workload_;
  Model model_;
};

// Q8_0 and Q4_0 renditions of an fp32 module's rows, quantized layer by
// layer as the engine stores them.
struct QuantizedRows {
  std::vector<Q8Layer> q8;
  std::vector<Q4Layer> q4;
};

QuantizedRows quantize(const KVCache& module) {
  const int n = module.size();
  const int kv_dim = module.kv_dim();
  QuantizedRows out;
  out.q8.resize(static_cast<size_t>(module.n_layers()));
  out.q4.resize(static_cast<size_t>(module.n_layers()));
  for (int l = 0; l < module.n_layers(); ++l) {
    Q8Layer& a = out.q8[static_cast<size_t>(l)];
    a.k.resize(static_cast<size_t>(n) * kv_dim);
    a.v.resize(a.k.size());
    a.k_scales.resize(static_cast<size_t>(n));
    a.v_scales.resize(static_cast<size_t>(n));
    quantize_rows(module.k_row(l, 0), n, kv_dim, a.k.data(),
                  a.k_scales.data());
    quantize_rows(module.v_row(l, 0), n, kv_dim, a.v.data(),
                  a.v_scales.data());
    Q4Layer& b = out.q4[static_cast<size_t>(l)];
    b.k.resize(static_cast<size_t>(n) * q4_row_bytes(kv_dim));
    b.v.resize(b.k.size());
    b.k_scales.resize(static_cast<size_t>(n) * q4_blocks(kv_dim));
    b.v_scales.resize(b.k_scales.size());
    quantize_rows_q4(module.k_row(l, 0), n, kv_dim, b.k.data(),
                     b.k_scales.data());
    quantize_rows_q4(module.v_row(l, 0), n, kv_dim, b.v.data(),
                     b.v_scales.data());
  }
  return out;
}

// Appends every row of `module` (or its quantized renditions) to `cache`
// as module rows in `format`, copied or borrowed. An fp32 copy is an
// own-row append.
void append_module(KVCache& cache, const KVCache& module,
                   const QuantizedRows& quantized, StorePrecision format,
                   ModuleRows how) {
  const int n = module.size();
  switch (format) {
    case StorePrecision::kQ8:
      cache.append_rows(quantized.q8, module.pos_ids(), 0, n, how);
      return;
    case StorePrecision::kQ4:
      cache.append_rows(quantized.q4, module.pos_ids(), 0, n, how);
      return;
    default:
      if (how == ModuleRows::kCopy) {
        cache.append_copy(module);
      } else {
        cache.borrow_rows(module, 0, n);
      }
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST_F(ZeroCopyTest, BorrowedRowsBasics) {
  KVCache module(2, 4);
  const std::vector<int> pos = {3, 4, 5};
  module.append_tokens(pos);
  module.k_row(1, 2)[0] = 42.0f;

  KVCache cache(2, 4);
  cache.borrow_rows(module, 0, 3);
  EXPECT_EQ(cache.size(), 3);
  EXPECT_EQ(cache.module_rows(), 3);
  EXPECT_EQ(cache.pos_id(2), 5);
  // Borrowed rows alias the source — no copy happened.
  EXPECT_EQ(std::as_const(cache).k_row(1, 2), module.k_row(1, 2));
  EXPECT_FLOAT_EQ(std::as_const(cache).k_row(1, 2)[0], 42.0f);
  EXPECT_EQ(cache.payload_bytes(), 0u);

  const std::vector<int> own_pos = {9};
  const int first = cache.append_tokens(own_pos);
  EXPECT_EQ(first, 3);
  EXPECT_EQ(cache.own_rows(), 1);
  cache.k_row(0, 3)[1] = 7.0f;
  EXPECT_FLOAT_EQ(std::as_const(cache).k_row(0, 3)[1], 7.0f);
  EXPECT_EQ(cache.tables(0).k[3], std::as_const(cache).k_row(0, 3));
  EXPECT_EQ(cache.payload_bytes(), 2u * 2 * 4 * sizeof(float));
}

// A copy is the stored bytes in storage the cache owns: the same int8 or
// packed rows and scales as the source, at other addresses, counted in
// payload_bytes(); a borrow points at the source and owns nothing.
TEST_F(ZeroCopyTest, CopiedRowsAreTheStoredBytes) {
  constexpr int kLayers = 2;
  constexpr int kWidth = 64;
  KVCache module(kLayers, kWidth);
  const std::vector<int> pos = {4, 5, 6, 7};
  module.append_tokens(pos);
  for (int l = 0; l < kLayers; ++l) {
    for (int e = 0; e < 4 * kWidth; ++e) {
      module.k_row(l, 0)[e] = static_cast<float>((e * 7 + l) % 23) - 11.0f;
      module.v_row(l, 0)[e] = static_cast<float>((e * 5 + l) % 19) - 9.0f;
    }
  }
  const QuantizedRows quantized = quantize(module);
  const size_t q4_row = q4_row_bytes(kWidth);
  const size_t q4_scales = static_cast<size_t>(q4_blocks(kWidth));
  for (ModuleRows how : {ModuleRows::kCopy, ModuleRows::kBorrow}) {
    const bool copy = how == ModuleRows::kCopy;
    KVCache q8(kLayers, kWidth);
    q8.append_rows(quantized.q8, pos, 1, 4, how);
    KVCache q4(kLayers, kWidth);
    q4.append_rows(quantized.q4, pos, 1, 4, how);
    EXPECT_EQ(q8.payload_bytes(),
              copy ? 3u * kLayers * 2 * (kWidth + sizeof(float)) : 0u);
    EXPECT_EQ(q4.payload_bytes(),
              copy ? 3u * kLayers * 2 * (q4_row + q4_scales * sizeof(float))
                   : 0u);
    for (int l = 0; l < kLayers; ++l) {
      const Q8Layer& s8 = quantized.q8[static_cast<size_t>(l)];
      const Q4Layer& s4 = quantized.q4[static_cast<size_t>(l)];
      const KVCache::RowTables t8 = q8.tables(l);
      const KVCache::RowTables t4 = q4.tables(l);
      for (int i = 0; i < 3; ++i) {
        const int8_t* src8 = s8.k.data() + (i + 1) * kWidth;
        const uint8_t* src4 = s4.v.data() + (i + 1) * q4_row;
        const float* scales4 = s4.k_scales.data() + (i + 1) * q4_scales;
        EXPECT_EQ(t8.k8[i] == src8, !copy);
        EXPECT_EQ(t4.v4[i] == src4, !copy);
        EXPECT_EQ(std::memcmp(t8.k8[i], src8, kWidth), 0);
        EXPECT_EQ(std::memcmp(t4.v4[i], src4, q4_row), 0);
        EXPECT_EQ(std::memcmp(t4.k4_scales[i], scales4,
                              q4_scales * sizeof(float)),
                  0);
        EXPECT_EQ(t8.k8_scales[i], s8.k_scales[static_cast<size_t>(i + 1)]);
        EXPECT_EQ(t8.k[i], nullptr);  // quantized slots have no fp32 row
      }
    }
    EXPECT_EQ(q8.pos_id(0), 5);
    EXPECT_EQ(q4.pos_id(2), 7);
  }
}

TEST_F(ZeroCopyTest, ContractsAreEnforced) {
  KVCache module(2, 4);
  const std::vector<int> pos = {0, 1};
  module.append_tokens(pos);
  const QuantizedRows quantized = quantize(module);

  KVCache cache(2, 4);
  cache.borrow_rows(module, 0, 2);
  EXPECT_THROW(cache.k_row(0, 0), ContractViolation);  // read-only row
  EXPECT_THROW(KVCache{cache}, ContractViolation);     // tables alias it
  // One quantized format per cache (the kernels read one).
  cache.append_rows(quantized.q8, pos, 0, 1, ModuleRows::kCopy);
  EXPECT_THROW(cache.append_rows(quantized.q4, pos, 0, 1, ModuleRows::kCopy),
               ContractViolation);
  EXPECT_THROW(std::as_const(cache).k_row(0, 2), ContractViolation);  // q8
  const std::vector<int> one = {5};
  cache.append_tokens(one);
  // Module rows after own rows are rejected (row table ordering).
  EXPECT_THROW(cache.borrow_rows(module, 0, 1), ContractViolation);
  EXPECT_THROW(cache.append_rows(quantized.q8, pos, 0, 1, ModuleRows::kBorrow),
               ContractViolation);
  EXPECT_THROW(cache.truncate(2), ContractViolation);  // into module rows
  // Geometry mismatch.
  KVCache bad(3, 4);
  EXPECT_THROW(bad.borrow_rows(module, 0, 1), ContractViolation);
  EXPECT_THROW(bad.append_rows(quantized.q4, pos, 0, 1, ModuleRows::kCopy),
               ContractViolation);
}

// Module rows copied (own fp32 rows, or the stored q8/q4 bytes) and the
// same rows borrowed in place must give the same logits bit for bit — at
// every format, and whether the own rows after them stay inside their
// reservation or outgrow it (every own-row table entry is then
// re-pointed) — through a 9-row prefill, whose final layer attends for
// one row, and the decode steps after it.
TEST_F(ZeroCopyTest, ForwardMatchesContiguousCacheBitwise) {
  const ModelConfig cfg = ModelConfig::llama_tiny(64, 256);
  const Model model = Model::random(cfg, 11);
  constexpr int kModule = 24;
  constexpr int kSuffix = 9;
  constexpr int kDecode = 4;
  std::vector<TokenId> tokens(kModule + kSuffix + kDecode);
  for (size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<TokenId>((i * 29 + 3) % 64);
  }
  std::vector<int> pos(tokens.size());
  std::iota(pos.begin(), pos.end(), 0);

  KVCache module = model.make_cache();
  model.encode(std::span<const TokenId>(tokens.data(), kModule),
               std::span<const int>(pos.data(), kModule), module);
  const QuantizedRows quantized = quantize(module);

  for (StorePrecision format :
       {StorePrecision::kFp32, StorePrecision::kQ8, StorePrecision::kQ4}) {
    std::vector<Tensor> reference;
    for (ModuleRows how : {ModuleRows::kCopy, ModuleRows::kBorrow}) {
      for (int reserve : {kSuffix + kDecode, 1}) {
        SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)) +
                     (how == ModuleRows::kCopy ? " copy" : " borrow") +
                     " reserve " + std::to_string(reserve));
        KVCache cache = model.make_cache();
        append_module(cache, module, quantized, format, how);
        cache.reserve(cache.own_rows() + reserve);
        std::vector<Tensor> logits;
        logits.push_back(model.forward(
            std::span<const TokenId>(tokens.data() + kModule, kSuffix),
            std::span<const int>(pos.data() + kModule, kSuffix), cache));
        for (int i = kModule + kSuffix; i < static_cast<int>(tokens.size());
             ++i) {
          logits.push_back(model.forward({&tokens[static_cast<size_t>(i)], 1},
                                         {&pos[static_cast<size_t>(i)], 1},
                                         cache));
        }
        if (reference.empty()) {
          reference = std::move(logits);
          continue;
        }
        for (size_t i = 0; i < logits.size(); ++i) {
          EXPECT_TRUE(same_bits(logits[i], reference[i])) << "step " << i;
        }
      }
    }
  }
}

// The K/V-only call publishes forward()'s K/V bits into a cache's own rows
// whatever format its borrowed module rows hold (fp32, q8, q4), for 3-
// and 9-row suffixes.
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
  const QuantizedRows quantized = quantize(module);

  for (StorePrecision format :
       {StorePrecision::kFp32, StorePrecision::kQ8, StorePrecision::kQ4}) {
    for (int n : {3, 9}) {
      SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)) +
                   " suffix " + std::to_string(n));
      KVCache forwarded = model.make_cache();
      KVCache encoded = model.make_cache();
      for (KVCache* cache : {&forwarded, &encoded}) {
        append_module(*cache, module, quantized, format, ModuleRows::kBorrow);
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
  // Quantized modules stay int8 on both paths: the copy path memcpys the
  // stored rows and scales, zero-copy borrows them, and attention scores
  // both in the int8 domain — so retrieval stays exact (the induction gate)
  // and the two paths emit the same tokens.
  EngineConfig q8;
  q8.precision = StorePrecision::kQ8;
  PromptCacheEngine copy_engine(model_, workload_.tokenizer(), q8);
  copy_engine.load_schema(kSchema);
  const ServeResult copied = copy_engine.serve(kPrompt, answer_options());
  EXPECT_EQ(copied.text, "a12 a13");
  // A copy moves exactly the stored bytes.
  EXPECT_EQ(copied.ttft.bytes_from_host + copied.ttft.bytes_from_device,
            imported_stored_bytes(copy_engine));

  EngineConfig zc = q8;
  zc.zero_copy = true;
  PromptCacheEngine zc_engine(model_, workload_.tokenizer(), zc);
  zc_engine.load_schema(kSchema);
  const ServeResult borrowed = zc_engine.serve(kPrompt, answer_options());
  EXPECT_EQ(borrowed.text, "a12 a13");
  EXPECT_EQ(borrowed.tokens, copied.tokens);
  EXPECT_EQ(borrowed.ttft.bytes_zero_copy, imported_stored_bytes(zc_engine));
  EXPECT_EQ(borrowed.ttft.bytes_from_host, 0u);
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
  // The sub-byte format stays packed on both paths: the copy path memcpys
  // the nibble rows and block scales, zero-copy borrows them, and attention
  // scores both block-wise in the integer domain — retrieval stays exact
  // and the two paths emit the same tokens.
  EngineConfig q4;
  q4.precision = StorePrecision::kQ4;
  PromptCacheEngine copy_engine(model_, workload_.tokenizer(), q4);
  copy_engine.load_schema(kSchema);
  const ServeResult copied = copy_engine.serve(kPrompt, answer_options());
  EXPECT_EQ(copied.text, "a12 a13");
  // A copy moves exactly the stored bytes.
  EXPECT_EQ(copied.ttft.bytes_from_host + copied.ttft.bytes_from_device,
            imported_stored_bytes(copy_engine));

  EngineConfig zc = q4;
  zc.zero_copy = true;
  PromptCacheEngine zc_engine(model_, workload_.tokenizer(), zc);
  zc_engine.load_schema(kSchema);
  const ServeResult borrowed = zc_engine.serve(kPrompt, answer_options());
  EXPECT_EQ(borrowed.text, "a12 a13");
  EXPECT_EQ(borrowed.tokens, copied.tokens);
  EXPECT_EQ(borrowed.ttft.bytes_zero_copy, imported_stored_bytes(zc_engine));
  EXPECT_EQ(borrowed.ttft.bytes_from_host, 0u);
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
  // The batch-sharing picture (§3.4/§6): N concurrent caches borrowing the
  // same modules each own only their own rows. (At fp32, so a copy holds
  // the module rows at the own rows' width.)
  EngineConfig fp32;
  fp32.precision = StorePrecision::kFp32;
  PromptCacheEngine engine(model_, workload_.tokenizer(), fp32);
  engine.load_schema(kSchema);
  const pml::PromptBinding binding = engine.bind(kPrompt);

  const UncachedStream question =
      collect_uncached(binding, model_.config().max_pos);
  std::vector<SequenceKV> requests;
  size_t owned_total = 0;
  for (int i = 0; i < 8; ++i) {
    TtftBreakdown ttft;
    requests.push_back(
        engine.assemble(binding, ModuleRows::kBorrow, 2, &ttft));
    (void)model_.forward(question.tokens, question.pos_ids,
                         requests.back().cache);
    owned_total += requests.back().cache.payload_bytes();
  }
  // Every live cache holds one pin on each module it borrows.
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
