// Golden-equivalence property tests for the vectorized/blocked/fused tensor
// kernels: every kernel is checked against a naive scalar reference across
// odd sizes, unaligned spans, and edge cases. Where the kernel contract
// promises bitwise behaviour (elementwise ops, softmax, masked-vs-compacted
// attention, m-independence of matmul rows) the tests assert exact equality,
// not a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "kv/quant.h"
#include "model/model.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tokenizer/vocab.h"

namespace pc {
namespace {

// Sizes chosen to hit every vector-width remainder path: 0, 1, sub-lane,
// lane-exact, lane+1, multi-lane odd, and "big".
const std::vector<size_t> kLengths = {0,  1,  2,  3,   5,   7,   8,  9,
                                      15, 16, 17, 31,  32,  33,  63, 64,
                                      65, 95, 100, 127, 128, 257, 1000};

std::vector<float> random_vec(size_t n, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(-scale, scale);
  return v;
}

// ---- scalar references (the seed implementations) ---------------------------

float ref_dot(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void ref_gemm_nt(const float* a, const float* b, float* c, size_t m, size_t k,
                 size_t n) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      c[i * n + j] = ref_dot(a + i * k, b + j * k, k);
    }
  }
}

void ref_gemm(const float* a, const float* b, float* c, size_t m, size_t k,
              size_t n) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float s = 0.0f;
      for (size_t l = 0; l < k; ++l) s += a[i * k + l] * b[l * n + j];
      c[i * n + j] = s;
    }
  }
}

// Naive fused-attention reference with the exact semantics of ops.h:
// -inf for masked, scalar two-pass softmax, in-order mix skipping zeros.
void ref_attention(const float* q, const float* k, const float* v,
                   size_t stride, size_t d_head, size_t n_ctx, float scale,
                   float slope, const float* rel, const uint8_t* masked,
                   float* out) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  std::vector<float> scores(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    if (masked && masked[j]) {
      scores[j] = kNegInf;
      continue;
    }
    float s = ref_dot(q, k + j * stride, d_head) * scale;
    if (rel) s += -slope * rel[j];
    scores[j] = s;
  }
  std::fill(out, out + d_head, 0.0f);
  if (n_ctx == 0) return;
  float mx = scores[0];
  for (size_t j = 1; j < n_ctx; ++j) mx = std::max(mx, scores[j]);
  if (mx == kNegInf) return;  // all masked: zero mix by contract
  float sum = 0.0f;
  for (size_t j = 0; j < n_ctx; ++j) {
    scores[j] = std::exp(scores[j] - mx);
    sum += scores[j];
  }
  for (size_t j = 0; j < n_ctx; ++j) scores[j] /= sum;
  for (size_t j = 0; j < n_ctx; ++j) {
    if (scores[j] == 0.0f) continue;
    for (size_t e = 0; e < d_head; ++e) out[e] += scores[j] * v[j * stride + e];
  }
}

float max_abs_diff_span(const float* a, const float* b, size_t n) {
  float mx = 0.0f;
  for (size_t i = 0; i < n; ++i) mx = std::max(mx, std::abs(a[i] - b[i]));
  return mx;
}

// ---- simd primitives vs scalar reference ------------------------------------

TEST(SimdKernels, DotMatchesScalarAcrossSizesAndAlignments) {
  for (size_t n : kLengths) {
    // +1 so the offset view below stays in range.
    const auto a = random_vec(n + 1, 11 + n, 0.5f);
    const auto b = random_vec(n + 1, 13 + n, 0.5f);
    EXPECT_LE(std::abs(simd::dot(a.data(), b.data(), n) -
                       ref_dot(a.data(), b.data(), n)),
              1e-5f)
        << "n=" << n;
    // Unaligned: vector data offset by one float from the allocation.
    EXPECT_LE(std::abs(simd::dot(a.data() + 1, b.data() + 1, n) -
                       ref_dot(a.data() + 1, b.data() + 1, n)),
              1e-5f)
        << "n=" << n << " unaligned";
  }
}

TEST(SimdKernels, ElementwiseOpsAreBitExact) {
  for (size_t n : kLengths) {
    const auto x = random_vec(n + 1, 17 + n);
    auto y_simd = random_vec(n + 1, 19 + n);
    auto y_ref = y_simd;

    simd::axpy(0.37f, x.data() + 1, y_simd.data() + 1, n);
    // One fused multiply-add per element where the build has FMA, else a
    // multiply and an add: spelled out, since whether the compiler fuses a
    // scalar `y += a * x` depends on the optimization level.
    for (size_t i = 0; i < n; ++i) {
#if defined(__FMA__)
      y_ref[i + 1] = std::fma(0.37f, x[i + 1], y_ref[i + 1]);
#else
      y_ref[i + 1] += 0.37f * x[i + 1];
#endif
    }
    for (size_t i = 0; i < n + 1; ++i) ASSERT_EQ(y_simd[i], y_ref[i]) << i;

    auto a_simd = random_vec(n, 23 + n);
    auto a_ref = a_simd;
    simd::add(a_simd.data(), x.data(), n);
    for (size_t i = 0; i < n; ++i) a_ref[i] += x[i];
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(a_simd[i], a_ref[i]);

    simd::mul(a_simd.data(), x.data(), n);
    for (size_t i = 0; i < n; ++i) a_ref[i] *= x[i];
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(a_simd[i], a_ref[i]);

    simd::scale(a_simd.data(), -1.7f, n);
    for (size_t i = 0; i < n; ++i) a_ref[i] *= -1.7f;
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(a_simd[i], a_ref[i]);

    simd::scale_store(2.5f, x.data(), a_simd.data(), n);
    for (size_t i = 0; i < n; ++i) a_ref[i] = 2.5f * x[i];
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(a_simd[i], a_ref[i]);
  }
}

TEST(SimdKernels, ReduceMaxIsExact) {
  for (size_t n : kLengths) {
    if (n == 0) continue;
    auto v = random_vec(n, 29 + n, 10.0f);
    float mx = v[0];
    for (size_t i = 1; i < n; ++i) mx = std::max(mx, v[i]);
    EXPECT_EQ(simd::reduce_max(v.data(), n), mx) << "n=" << n;
    // -inf entries (masked attention scores) must not perturb the max.
    if (n >= 3) {
      v[n / 2] = -std::numeric_limits<float>::infinity();
      float mx2 = v[0];
      for (size_t i = 1; i < n; ++i) mx2 = std::max(mx2, v[i]);
      EXPECT_EQ(simd::reduce_max(v.data(), n), mx2) << "n=" << n;
    }
  }
}

TEST(SimdKernels, Dot4AndDot2x4MatchDotPerColumn) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{33},
                   size_t{100}, size_t{257}}) {
    const auto a0 = random_vec(n, 101 + n, 0.5f);
    const auto a1 = random_vec(n, 103 + n, 0.5f);
    std::vector<std::vector<float>> b;
    for (int c = 0; c < 4; ++c) b.push_back(random_vec(n, 200 + n + c, 0.5f));

    float o4[4], o0[4], o1[4];
    simd::dot4(a0.data(), b[0].data(), b[1].data(), b[2].data(), b[3].data(),
               n, o4);
    simd::dot2x4(a0.data(), a1.data(), b[0].data(), b[1].data(), b[2].data(),
                 b[3].data(), n, o0, o1);
    for (int c = 0; c < 4; ++c) {
      // The m-independence contract: the 1x4 and 2x4 tiles accumulate each
      // (row, column) in the same order, hence identical bits.
      ASSERT_EQ(o4[c], o0[c]) << "n=" << n << " col=" << c;
      EXPECT_LE(std::abs(o4[c] - ref_dot(a0.data(), b[c].data(), n)), 1e-5f);
      EXPECT_LE(std::abs(o1[c] - ref_dot(a1.data(), b[c].data(), n)), 1e-5f);
    }
  }
}

TEST(SimdKernels, Dot8MatchesDotPerRow) {
  // The fused attention kernels score eight keys per call; each key's score
  // must carry simd::dot's bits, whatever the length (every remainder path,
  // including the 32-wide fast path) and whatever the rows' alignment.
  for (size_t n : kLengths) {
    const auto q = random_vec(n + 1, 301 + n, 0.5f);
    const auto k = random_vec(8 * (n + 3) + 1, 303 + n, 0.5f);
    const float* rows[8];
    for (size_t r = 0; r < 8; ++r) rows[r] = k.data() + r * (n + 3) + r % 2;
    for (size_t qoff : {size_t{0}, size_t{1}}) {
      float out[8];
      simd::dot8(q.data() + qoff, rows, n, out);
      for (size_t r = 0; r < 8; ++r) {
        ASSERT_EQ(out[r], simd::dot(q.data() + qoff, rows[r], n))
            << "n=" << n << " row=" << r << " qoff=" << qoff;
      }
    }
  }
}

int32_t float_bits(float x) {
  int32_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST(SimdKernels, ExpNonposContract) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  // A lane's result never depends on where it sits or how many lanes the
  // call covers: every offset 0..8 and length 1..17 against one-lane calls.
  const auto xs = random_vec(32, 311, 40.0f);
  std::vector<float> alone(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const float x = -std::abs(xs[i]);
    simd::exp_nonpos(&x, 0.0f, &alone[i], 1);
  }
  for (size_t off = 0; off <= 8; ++off) {
    for (size_t n = 1; n <= 17; ++n) {
      std::vector<float> x(off + n), y(off + n, 42.0f);
      for (size_t i = 0; i < n; ++i) x[off + i] = -std::abs(xs[i]);
      simd::exp_nonpos(x.data() + off, 0.0f, y.data() + off, n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(float_bits(y[off + i]), float_bits(alone[i]))
            << "off=" << off << " n=" << n << " lane=" << i;
      }
      for (size_t i = 0; i < off; ++i) ASSERT_EQ(y[i], 42.0f);  // untouched
    }
  }
  // The shift is subtracted first: e^(x - shift) == e^((x - shift) - 0).
  {
    const float x = 1.5f, shift = 3.25f, d = x - shift;
    float a, b;
    simd::exp_nonpos(&x, shift, &a, 1);
    simd::exp_nonpos(&d, 0.0f, &b, 1);
    EXPECT_EQ(float_bits(a), float_bits(b));
  }
  // Special values, and the flush below -87 (to +0, never -0).
  const std::vector<float> special = {-kInf,       std::nanf(""), 0.0f,
                                      -0.0f,       -87.0f,        -87.00001f,
                                      -88.0f,      -103.0f,       -1e30f,
                                      -std::numeric_limits<float>::max()};
  std::vector<float> y(special.size());
  simd::exp_nonpos(special.data(), 0.0f, y.data(), special.size());
  EXPECT_EQ(float_bits(y[0]), float_bits(0.0f));
  EXPECT_TRUE(std::isnan(y[1]));
  EXPECT_EQ(y[2], 1.0f);
  EXPECT_EQ(y[3], 1.0f);
  EXPECT_GT(y[4], 0.0f);  // e^-87 itself is kept, and is a normal float
  EXPECT_GE(y[4], std::numeric_limits<float>::min());
  for (size_t i = 5; i < special.size(); ++i) {
    EXPECT_EQ(float_bits(y[i]), float_bits(0.0f)) << "x=" << special[i];
  }
  // Within 1 ulp of std::exp across [-87, 0]: every 509th float (a prime
  // stride, so the samples walk every mantissa pattern), ~2.2M of them.
  const uint32_t lo = static_cast<uint32_t>(float_bits(-0.0f));
  const uint32_t hi = static_cast<uint32_t>(float_bits(-87.0f));
  std::vector<float> x, got;
  for (uint64_t b = lo; b <= hi; b += 509) {
    const uint32_t bits = static_cast<uint32_t>(b);
    float f;
    std::memcpy(&f, &bits, sizeof f);
    x.push_back(f);
  }
  got.resize(x.size());
  simd::exp_nonpos(x.data(), 0.0f, got.data(), x.size());
  size_t exact = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const int32_t ulps = float_bits(got[i]) - float_bits(std::exp(x[i]));
    ASSERT_LE(std::abs(ulps), 1) << "x=" << x[i];
    exact += ulps == 0;
  }
  // The double-precision evaluation is correctly rounded almost everywhere.
  EXPECT_GE(static_cast<double>(exact), 0.99 * static_cast<double>(x.size()));
}

// ---- gemm / gemm_nt ---------------------------------------------------------

TEST(GemmKernels, GemmNtMatchesScalarReference) {
  // (m, k, n) triples covering tile edges: odd everything, single row,
  // single column, k below one vector, and a blocked-panel-sized case.
  const std::vector<std::array<size_t, 3>> shapes = {
      {1, 1, 1},  {1, 8, 4},   {2, 16, 8},  {3, 17, 5},   {4, 64, 12},
      {5, 100, 7}, {7, 33, 9},  {1, 512, 3}, {8, 128, 130}, {9, 65, 67},
      {16, 256, 96}};
  for (const auto& s : shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    const float scale = 1.0f / std::sqrt(static_cast<float>(k));
    const auto a = random_vec(m * k, 7 * k + n, scale);
    const auto b = random_vec(n * k, 9 * k + m, scale);
    std::vector<float> c(m * n), c_ref(m * n);
    gemm_nt(a.data(), b.data(), c.data(), m, k, n);
    ref_gemm_nt(a.data(), b.data(), c_ref.data(), m, k, n);
    EXPECT_LE(max_abs_diff_span(c.data(), c_ref.data(), m * n), 1e-5f)
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(GemmKernels, GemmMatchesScalarReference) {
  const std::vector<std::array<size_t, 3>> shapes = {
      {1, 1, 1},  {1, 8, 4},  {3, 17, 5},  {5, 100, 7},
      {7, 33, 9}, {8, 130, 64}, {16, 200, 96}};
  for (const auto& s : shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    const float scale = 1.0f / std::sqrt(static_cast<float>(k));
    const auto a = random_vec(m * k, 3 * k + n, scale);
    const auto b = random_vec(k * n, 5 * k + m, scale);
    std::vector<float> c(m * n), c_ref(m * n);
    gemm(a.data(), b.data(), c.data(), m, k, n);
    ref_gemm(a.data(), b.data(), c_ref.data(), m, k, n);
    EXPECT_LE(max_abs_diff_span(c.data(), c_ref.data(), m * n), 1e-5f)
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(GemmKernels, RowResultIndependentOfBatchSize) {
  // The incremental-equals-full bitwise property of the engine, and the
  // final layer's logit-rows-only cut, require that row i of a matmul
  // depend only on (a_row_i, B) — never on how many other rows were
  // computed alongside it.
  const size_t m = 5, k = 129, n = 37;
  const auto a = random_vec(m * k, 71);
  const auto b = random_vec(n * k, 73);
  std::vector<float> full(m * n);
  gemm_nt(a.data(), b.data(), full.data(), m, k, n);
  for (size_t i = 0; i < m; ++i) {
    std::vector<float> single(n);
    gemm_nt(a.data() + i * k, b.data(), single.data(), 1, k, n);
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(full[i * n + j], single[j]) << "row " << i << " col " << j;
    }
  }

  // llama_tiny's projection shapes (k x n): Q/O 192x192, K/V 192x96, MLP
  // up/gate 192x512 and down 512x192, LM head 192 x vocab; at m = 32 and
  // 1056 parallel_for splits the rows when the pool has more than one
  // thread.
  const ModelConfig cfg =
      ModelConfig::llama_tiny(Vocab::basic_english().size());
  const size_t d = static_cast<size_t>(cfg.d_model);
  const size_t kv = static_cast<size_t>(cfg.kv_dim());
  const size_t ff = static_cast<size_t>(cfg.d_ff);
  const size_t vocab = static_cast<size_t>(cfg.vocab_size);
  const std::pair<size_t, size_t> shapes[] = {
      {d, d}, {d, kv}, {d, ff}, {ff, d}, {d, vocab}};
  constexpr size_t kMaxRows = 1056;
  for (const auto& [sk, sn] : shapes) {
    const auto sa = random_vec(kMaxRows * sk, 79 + sk);
    const auto sb = random_vec(sn * sk, 83 + sn);
    std::vector<float> single(kMaxRows * sn);
    for (size_t i = 0; i < kMaxRows; ++i) {
      gemm_nt(sa.data() + i * sk, sb.data(), single.data() + i * sn, 1, sk,
              sn);
    }
    for (size_t sm : {size_t{1}, size_t{32}, kMaxRows}) {
      std::vector<float> batch(sm * sn);
      gemm_nt(sa.data(), sb.data(), batch.data(), sm, sk, sn);
      ASSERT_EQ(std::memcmp(batch.data(), single.data(),
                            batch.size() * sizeof(float)),
                0)
          << "m=" << sm << " k=" << sk << " n=" << sn;
    }
  }
}

// ---- softmax ---------------------------------------------------------------

TEST(SoftmaxKernel, BitIdenticalToScalarReference) {
  for (size_t n : kLengths) {
    if (n == 0) continue;
    auto row = random_vec(n, 31 + n, 4.0f);
    auto ref = row;
    softmax_inplace(row.data(), n);
    // Scalar reference with the identical operation sequence.
    float mx = ref[0];
    for (size_t i = 1; i < n; ++i) mx = std::max(mx, ref[i]);
    float sum = 0.0f;
    for (size_t i = 0; i < n; ++i) {
      ref[i] = std::exp(ref[i] - mx);
      sum += ref[i];
    }
    const float inv = 1.0f / sum;
    for (size_t i = 0; i < n; ++i) ref[i] *= inv;
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(row[i], ref[i]) << "n=" << n;
  }
}

// ---- fused attention -------------------------------------------------------

struct AttnCase {
  size_t d_head;
  size_t n_ctx;
  size_t kv_dim;  // row stride; > d_head exercises the head offset
};

class FusedAttentionTest : public ::testing::TestWithParam<AttnCase> {};

TEST_P(FusedAttentionTest, MatchesNaiveReference) {
  const auto [d_head, n_ctx, kv_dim] = GetParam();
  const size_t head_off = kv_dim - d_head;  // attend to the last head
  const auto q = random_vec(d_head, 41 + n_ctx, 0.5f);
  const auto k = random_vec(n_ctx * kv_dim + 1, 43 + n_ctx, 0.5f);
  const auto v = random_vec(n_ctx * kv_dim + 1, 47 + n_ctx, 0.5f);
  Rng rng(53 + n_ctx);
  std::vector<uint8_t> masked(n_ctx);
  for (auto& mv : masked) mv = rng.next_below(4) == 0 ? 1 : 0;
  if (n_ctx > 0) masked[n_ctx - 1] = 0;  // keep at least one live slot
  std::vector<float> rel(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    rel[j] = static_cast<float>(static_cast<int>(n_ctx - j));
  }

  for (const bool use_mask : {false, true}) {
    for (const bool use_alibi : {false, true}) {
      std::vector<float> scores(n_ctx), out(d_head), out_ref(d_head);
      attn_fused_contig(q.data(), k.data() + head_off, v.data() + head_off,
                        kv_dim, d_head, n_ctx, 0.25f, 0.0625f,
                        use_alibi ? rel.data() : nullptr,
                        use_mask ? masked.data() : nullptr, scores.data(),
                        out.data());
      ref_attention(q.data(), k.data() + head_off, v.data() + head_off,
                    kv_dim, d_head, n_ctx, 0.25f, 0.0625f,
                    use_alibi ? rel.data() : nullptr,
                    use_mask ? masked.data() : nullptr, out_ref.data());
      EXPECT_LE(max_abs_diff_span(out.data(), out_ref.data(), d_head), 1e-5f)
          << "d_head=" << d_head << " n_ctx=" << n_ctx
          << " mask=" << use_mask << " alibi=" << use_alibi;
    }
  }
}

TEST_P(FusedAttentionTest, GatherVariantBitIdenticalToContiguous) {
  const auto [d_head, n_ctx, kv_dim] = GetParam();
  const auto q = random_vec(d_head, 61 + n_ctx, 0.5f);
  const auto k = random_vec(n_ctx * kv_dim + 1, 67 + n_ctx, 0.5f);
  const auto v = random_vec(n_ctx * kv_dim + 1, 71 + n_ctx, 0.5f);
  std::vector<const float*> k_rows(n_ctx), v_rows(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    k_rows[j] = k.data() + j * kv_dim;
    v_rows[j] = v.data() + j * kv_dim;
  }
  std::vector<float> s1(n_ctx), s2(n_ctx), o1(d_head), o2(d_head);
  attn_fused_contig(q.data(), k.data(), v.data(), kv_dim, d_head, n_ctx,
                    0.125f, 0.0f, nullptr, nullptr, s1.data(), o1.data());
  attn_fused_gather(q.data(), k_rows.data(), v_rows.data(), 0, d_head, n_ctx,
                    0.125f, 0.0f, nullptr, nullptr, s2.data(), o2.data());
  for (size_t e = 0; e < d_head; ++e) ASSERT_EQ(o1[e], o2[e]);
  for (size_t j = 0; j < n_ctx; ++j) ASSERT_EQ(s1[j], s2[j]);
}

// Exact mirror of the fp32 kernels: the one-slot-at-a-time sequence they
// ran before the eight-key scoring and the register-held mix (simd::dot per
// slot, sequential exp-sum, simd::scale, simd::axpy per slot) with
// simd::exp_nonpos as the exp. No ALiBi: the kernel adds the bias with one
// FMA, which a compiler may or may not contract a scalar mirror into.
void ref_f32_attention(const float* q, const float* const* k_rows,
                       const float* const* v_rows, size_t head_off,
                       size_t d_head, size_t n_ctx, float scale,
                       const uint8_t* masked, float* scores, float* out) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  std::fill(out, out + d_head, 0.0f);
  if (n_ctx == 0) return;
  for (size_t j = 0; j < n_ctx; ++j) {
    scores[j] = masked != nullptr && masked[j] != 0
                    ? kNegInf
                    : simd::dot(q, k_rows[j] + head_off, d_head) * scale;
  }
  const float mx = simd::reduce_max(scores, n_ctx);
  if (mx == kNegInf) {
    std::fill(scores, scores + n_ctx, 0.0f);
    return;
  }
  simd::exp_nonpos(scores, mx, scores, n_ctx);
  float sum = 0.0f;
  for (size_t j = 0; j < n_ctx; ++j) sum += scores[j];
  simd::scale(scores, 1.0f / sum, n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    if (scores[j] == 0.0f) continue;
    simd::axpy(scores[j], v_rows[j] + head_off, out, d_head);
  }
}

TEST_P(FusedAttentionTest, Fp32MatchesMirrorReference) {
  const auto [d_head, n_ctx, kv_dim] = GetParam();
  const size_t head_off = kv_dim - d_head;
  const auto q = random_vec(d_head, 81 + n_ctx, 0.5f);
  const auto k = random_vec(n_ctx * kv_dim + 1, 83 + n_ctx, 0.5f);
  const auto v = random_vec(n_ctx * kv_dim + 1, 85 + n_ctx, 0.5f);
  std::vector<const float*> k_rows(n_ctx), v_rows(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    k_rows[j] = k.data() + j * kv_dim;
    v_rows[j] = v.data() + j * kv_dim;
  }
  // Random holes plus one fully masked eight-slot block.
  Rng rng(87 + n_ctx);
  std::vector<uint8_t> masked(n_ctx);
  for (auto& mv : masked) mv = rng.next_below(4) == 0 ? 1 : 0;
  for (size_t j = 8; j < 16 && j < n_ctx; ++j) masked[j] = 1;
  if (n_ctx > 0) masked[n_ctx - 1] = 0;
  for (const bool use_mask : {false, true}) {
    const uint8_t* m = use_mask ? masked.data() : nullptr;
    std::vector<float> s_ref(n_ctx), o_ref(d_head);
    ref_f32_attention(q.data(), k_rows.data(), v_rows.data(), head_off,
                      d_head, n_ctx, 0.25f, m, s_ref.data(), o_ref.data());
    std::vector<float> s1(n_ctx), s2(n_ctx), o1(d_head), o2(d_head);
    attn_fused_contig(q.data(), k.data() + head_off, v.data() + head_off,
                      kv_dim, d_head, n_ctx, 0.25f, 0.0f, nullptr, m,
                      s1.data(), o1.data());
    attn_fused_gather(q.data(), k_rows.data(), v_rows.data(), head_off,
                      d_head, n_ctx, 0.25f, 0.0f, nullptr, m, s2.data(),
                      o2.data());
    for (size_t j = 0; j < n_ctx; ++j) {
      ASSERT_EQ(s1[j], s_ref[j]) << "contig slot " << j << " mask=" << use_mask;
      ASSERT_EQ(s2[j], s_ref[j]) << "gather slot " << j << " mask=" << use_mask;
    }
    for (size_t e = 0; e < d_head; ++e) {
      ASSERT_EQ(o1[e], o_ref[e]) << "contig elem " << e << " mask=" << use_mask;
      ASSERT_EQ(o2[e], o_ref[e]) << "gather elem " << e << " mask=" << use_mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedAttentionTest,
    ::testing::Values(AttnCase{1, 1, 1}, AttnCase{3, 5, 3},
                      AttnCase{8, 17, 16}, AttnCase{16, 33, 48},
                      AttnCase{32, 100, 64}, AttnCase{64, 257, 128},
                      AttnCase{128, 64, 128}));

TEST(FusedAttention, AllMaskedRowYieldsZeros) {
  const size_t d_head = 16, n_ctx = 23;
  const auto q = random_vec(d_head, 91);
  const auto k = random_vec(n_ctx * d_head, 93);
  const auto v = random_vec(n_ctx * d_head, 97);
  const std::vector<uint8_t> masked(n_ctx, 1);
  std::vector<float> scores(n_ctx, 42.0f), out(d_head, 42.0f);
  attn_fused_contig(q.data(), k.data(), v.data(), d_head, d_head, n_ctx,
                    1.0f, 0.0f, nullptr, masked.data(), scores.data(),
                    out.data());
  for (float x : out) EXPECT_EQ(x, 0.0f);
  for (float x : scores) EXPECT_EQ(x, 0.0f);
}

TEST(FusedAttention, EmptyContextYieldsZeros) {
  const size_t d_head = 8;
  const auto q = random_vec(d_head, 99);
  std::vector<float> out(d_head, 42.0f);
  attn_fused_contig(q.data(), nullptr, nullptr, 0, d_head, 0, 1.0f, 0.0f,
                    nullptr, nullptr, nullptr, out.data());
  for (float x : out) EXPECT_EQ(x, 0.0f);
}

// ---- Q8_0 quantization + int8 primitives ------------------------------------

int32_t ref_dot_i8(const int8_t* a, const int8_t* b, size_t n) {
  int32_t s = 0;
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return s;
}

std::vector<int8_t> random_i8(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int8_t> v(n);
  // Q8_0 precondition: values in [-127, 127], never -128.
  for (auto& x : v) x = static_cast<int8_t>(rng.next_below(255)) - 127;
  return v;
}

TEST(Q8Kernels, QuantizeRowsBitIdenticalToScalarGolden) {
  for (size_t width : kLengths) {
    if (width == 0) continue;
    const int n_rows = 4;
    auto src = random_vec(n_rows * width, 300 + width, 3.0f);
    // Row 1: all zeros (scale must fall back to 1.0). Row 2: one huge
    // outlier so every other element quantizes to 0. Row 3: the negative
    // extreme must land on -127, never saturate to -128.
    std::fill(src.begin() + width, src.begin() + 2 * width, 0.0f);
    src[2 * width] = 1000.0f;
    src[3 * width] = -8.0f;
    std::vector<int8_t> q_vec(n_rows * width), q_ref(n_rows * width);
    std::vector<float> s_vec(n_rows), s_ref(n_rows);
    quantize_rows(src.data(), n_rows, static_cast<int>(width), q_vec.data(),
                  s_vec.data());
    quantize_rows_scalar(src.data(), n_rows, static_cast<int>(width),
                         q_ref.data(), s_ref.data());
    for (int r = 0; r < n_rows; ++r) {
      ASSERT_EQ(s_vec[r], s_ref[r]) << "width=" << width << " row=" << r;
    }
    for (size_t i = 0; i < q_vec.size(); ++i) {
      ASSERT_EQ(q_vec[i], q_ref[i]) << "width=" << width << " elem=" << i;
      ASSERT_GE(q_vec[i], -127) << "Q8_0 must never produce -128";
    }
    EXPECT_EQ(s_vec[1], 1.0f) << "all-zero row scale fallback";
  }
}

TEST(Q8Kernels, QuantizeRoundTripErrorBoundedByHalfStep) {
  const size_t width = 100;
  const int n_rows = 8;
  const auto src = random_vec(n_rows * width, 411, 2.0f);
  std::vector<int8_t> q(n_rows * width);
  std::vector<float> scales(n_rows);
  quantize_rows(src.data(), n_rows, static_cast<int>(width), q.data(),
                scales.data());
  std::vector<float> back(width);
  for (int r = 0; r < n_rows; ++r) {
    dequantize_row(q.data() + r * width, scales[r], static_cast<int>(width),
                   back.data());
    for (size_t i = 0; i < width; ++i) {
      EXPECT_LE(std::abs(back[i] - src[r * width + i]),
                0.5f * scales[r] + 1e-6f)
          << "row=" << r << " elem=" << i;
    }
  }
}

TEST(Q8Kernels, DotI8MatchesScalarAcrossSizes) {
  for (size_t n : kLengths) {
    const auto a = random_i8(n, 500 + n);
    const auto b = random_i8(n, 600 + n);
    EXPECT_EQ(simd::dot_i8(a.data(), b.data(), n),
              ref_dot_i8(a.data(), b.data(), n))
        << "n=" << n;
  }
  // Extreme magnitudes: +-127 everywhere is the worst case for the AVX2
  // maddubs pair-sum (2*127*127 must not saturate int16).
  for (size_t n : {size_t{32}, size_t{1000}}) {
    std::vector<int8_t> hi(n, 127), lo(n, -127);
    EXPECT_EQ(simd::dot_i8(hi.data(), hi.data(), n),
              static_cast<int32_t>(n) * 127 * 127);
    EXPECT_EQ(simd::dot_i8(hi.data(), lo.data(), n),
              -static_cast<int32_t>(n) * 127 * 127);
    EXPECT_EQ(simd::dot_i8(lo.data(), lo.data(), n),
              static_cast<int32_t>(n) * 127 * 127);
  }
}

TEST(Q8Kernels, Dot8I8MatchesDotI8PerRow) {
  for (size_t n : kLengths) {
    const auto a = random_i8(n, 1401 + n);
    const auto b = random_i8(8 * (n + 5), 1403 + n);
    const int8_t* rows[8];
    for (size_t r = 0; r < 8; ++r) rows[r] = b.data() + r * (n + 5) + r % 3;
    int32_t out[8];
    simd::dot8_i8(a.data(), rows, n, out);
    for (size_t r = 0; r < 8; ++r) {
      ASSERT_EQ(out[r], simd::dot_i8(a.data(), rows[r], n))
          << "n=" << n << " row=" << r;
    }
  }
}

TEST(Q8Kernels, DequantAndAxpyI8MatchScalar) {
  for (size_t n : kLengths) {
    const auto x = random_i8(n, 700 + n);
    std::vector<float> y_simd(n), y_ref(n);
    simd::dequant_store(x.data(), 0.031f, y_simd.data(), n);
    for (size_t i = 0; i < n; ++i) {
      y_ref[i] = 0.031f * static_cast<float>(x[i]);
    }
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(y_simd[i], y_ref[i]) << i;

    auto acc_simd = random_vec(n, 800 + n);
    auto acc_ref = acc_simd;
    simd::axpy_i8(0.57f, x.data(), acc_simd.data(), n);
    for (size_t i = 0; i < n; ++i) {
      acc_ref[i] += 0.57f * static_cast<float>(x[i]);
    }
    // fma8 may contract the multiply-add; allow half-ulp-of-product slack.
    for (size_t i = 0; i < n; ++i) {
      ASSERT_LE(std::abs(acc_simd[i] - acc_ref[i]), 1e-4f) << i;
    }
  }
}

// ---- q8 fused attention ------------------------------------------------------

// Exact mirror of attn_fused_q8_gather with the integer dot taken scalar
// (integer accumulation is order-independent, so this is still a bitwise
// reference) and every float step using the same simd primitives in the
// same order.
void ref_q8_attention(const float* q, const int8_t* const* k8_rows,
                      const int8_t* const* v8_rows, const float* k_scales,
                      const float* v_scales, const float* const* k_rows,
                      const float* const* v_rows, size_t head_off,
                      size_t d_head, size_t n_ctx, float scale, float slope,
                      const float* rel, const uint8_t* masked, float* scores,
                      float* out) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  if (n_ctx == 0) {
    std::fill(out, out + d_head, 0.0f);
    return;
  }
  std::vector<int8_t> q8(d_head);
  const float q_max = simd::reduce_max_abs(q, d_head);
  const float q_scale = q_max > 0.0f ? q_max / 127.0f : 1.0f;
  simd::quantize_i8(q, 1.0f / q_scale, q8.data(), d_head);
  const float fix = scale * q_scale;
  for (size_t j = 0; j < n_ctx; ++j) {
    if (masked != nullptr && masked[j] != 0) {
      scores[j] = kNegInf;
      continue;
    }
    float s;
    if (k8_rows[j] != nullptr) {
      const int32_t d = ref_dot_i8(q8.data(), k8_rows[j] + head_off, d_head);
      s = static_cast<float>(d) * (fix * k_scales[j]);
    } else {
      s = simd::dot(q, k_rows[j] + head_off, d_head) * scale;
    }
    if (rel != nullptr) s += -slope * rel[j];
    scores[j] = s;
  }
  const float mx = simd::reduce_max(scores, n_ctx);
  if (mx == kNegInf) {
    std::fill(scores, scores + n_ctx, 0.0f);
    std::fill(out, out + d_head, 0.0f);
    return;
  }
  simd::exp_nonpos(scores, mx, scores, n_ctx);
  float sum = 0.0f;
  for (size_t j = 0; j < n_ctx; ++j) sum += scores[j];
  simd::scale(scores, 1.0f / sum, n_ctx);
  std::fill(out, out + d_head, 0.0f);
  for (size_t j = 0; j < n_ctx; ++j) {
    const float w = scores[j];
    if (w == 0.0f) continue;
    if (v8_rows[j] != nullptr) {
      simd::axpy_i8(w * v_scales[j], v8_rows[j] + head_off, out, d_head);
    } else {
      simd::axpy(w, v_rows[j] + head_off, out, d_head);
    }
  }
}

TEST_P(FusedAttentionTest, Q8GatherAllFp32SlotsBitIdenticalToGather) {
  // With every slot fp32 the q8 kernel must follow the exact operation
  // sequence of attn_fused_gather — the fp32 regression guard that lets the
  // mixed kernel serve as the only segmented attention path.
  const auto [d_head, n_ctx, kv_dim] = GetParam();
  const size_t head_off = kv_dim - d_head;
  const auto q = random_vec(d_head, 911 + n_ctx, 0.5f);
  const auto k = random_vec(n_ctx * kv_dim + 1, 913 + n_ctx, 0.5f);
  const auto v = random_vec(n_ctx * kv_dim + 1, 917 + n_ctx, 0.5f);
  std::vector<const float*> k_rows(n_ctx), v_rows(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    k_rows[j] = k.data() + j * kv_dim;
    v_rows[j] = v.data() + j * kv_dim;
  }
  const std::vector<const int8_t*> null8(n_ctx, nullptr);
  const std::vector<float> no_scales(n_ctx, 0.0f);
  std::vector<float> s1(n_ctx), s2(n_ctx), o1(d_head), o2(d_head);
  attn_fused_gather(q.data(), k_rows.data(), v_rows.data(), head_off, d_head,
                    n_ctx, 0.125f, 0.0f, nullptr, nullptr, s1.data(),
                    o1.data());
  attn_fused_q8_gather(q.data(), null8.data(), null8.data(),
                       no_scales.data(), no_scales.data(), k_rows.data(),
                       v_rows.data(), head_off, d_head, n_ctx, 0.125f, 0.0f,
                       nullptr, nullptr, s2.data(), o2.data());
  for (size_t j = 0; j < n_ctx; ++j) ASSERT_EQ(s1[j], s2[j]) << "slot " << j;
  for (size_t e = 0; e < d_head; ++e) ASSERT_EQ(o1[e], o2[e]) << "elem " << e;
}

TEST_P(FusedAttentionTest, Q8GatherMixedFormatMatchesMirrorReference) {
  // Alternate q8 and fp32 slots (a borrowed view's layout: module rows
  // quantized, owned decode tail fp32) under mask and ALiBi variants.
  const auto [d_head, n_ctx, kv_dim] = GetParam();
  const size_t head_off = kv_dim - d_head;
  const auto q = random_vec(d_head, 921 + n_ctx, 0.5f);
  const auto k = random_vec(n_ctx * kv_dim + 1, 923 + n_ctx, 0.5f);
  const auto v = random_vec(n_ctx * kv_dim + 1, 927 + n_ctx, 0.5f);
  std::vector<int8_t> k8(n_ctx * kv_dim), v8(n_ctx * kv_dim);
  std::vector<float> ks(n_ctx), vs(n_ctx);
  if (n_ctx > 0) {
    quantize_rows(k.data(), static_cast<int>(n_ctx), static_cast<int>(kv_dim),
                  k8.data(), ks.data());
    quantize_rows(v.data(), static_cast<int>(n_ctx), static_cast<int>(kv_dim),
                  v8.data(), vs.data());
  }
  std::vector<const float*> k_rows(n_ctx, nullptr), v_rows(n_ctx, nullptr);
  std::vector<const int8_t*> k8_rows(n_ctx, nullptr), v8_rows(n_ctx, nullptr);
  for (size_t j = 0; j < n_ctx; ++j) {
    if (j % 2 == 0) {
      k8_rows[j] = k8.data() + j * kv_dim;
      v8_rows[j] = v8.data() + j * kv_dim;
    } else {
      k_rows[j] = k.data() + j * kv_dim;
      v_rows[j] = v.data() + j * kv_dim;
    }
  }
  Rng rng(929 + n_ctx);
  std::vector<uint8_t> masked(n_ctx);
  for (auto& mv : masked) mv = rng.next_below(4) == 0 ? 1 : 0;
  if (n_ctx > 0) masked[n_ctx - 1] = 0;
  std::vector<float> rel(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    rel[j] = static_cast<float>(static_cast<int>(n_ctx - j));
  }
  for (const bool use_mask : {false, true}) {
    for (const bool use_alibi : {false, true}) {
      std::vector<float> s1(n_ctx), s2(n_ctx), o1(d_head), o2(d_head);
      attn_fused_q8_gather(q.data(), k8_rows.data(), v8_rows.data(),
                           ks.data(), vs.data(), k_rows.data(), v_rows.data(),
                           head_off, d_head, n_ctx, 0.25f, 0.0625f,
                           use_alibi ? rel.data() : nullptr,
                           use_mask ? masked.data() : nullptr, s1.data(),
                           o1.data());
      ref_q8_attention(q.data(), k8_rows.data(), v8_rows.data(), ks.data(),
                       vs.data(), k_rows.data(), v_rows.data(), head_off,
                       d_head, n_ctx, 0.25f, 0.0625f,
                       use_alibi ? rel.data() : nullptr,
                       use_mask ? masked.data() : nullptr, s2.data(),
                       o2.data());
      for (size_t j = 0; j < n_ctx; ++j) {
        ASSERT_EQ(s1[j], s2[j])
            << "slot " << j << " mask=" << use_mask << " alibi=" << use_alibi;
      }
      for (size_t e = 0; e < d_head; ++e) {
        ASSERT_EQ(o1[e], o2[e])
            << "elem " << e << " mask=" << use_mask << " alibi=" << use_alibi;
      }
    }
  }
}

TEST_P(FusedAttentionTest, Q8GatherCloseToFp32Attention) {
  // All slots quantized: the int8-domain result must track the fp32 result
  // on the original rows within the Q8_0 error budget.
  const auto [d_head, n_ctx, kv_dim] = GetParam();
  if (n_ctx == 0) return;
  const size_t head_off = kv_dim - d_head;
  const auto q = random_vec(d_head, 941 + n_ctx, 0.5f);
  const auto k = random_vec(n_ctx * kv_dim + 1, 943 + n_ctx, 0.5f);
  const auto v = random_vec(n_ctx * kv_dim + 1, 947 + n_ctx, 0.5f);
  std::vector<int8_t> k8(n_ctx * kv_dim), v8(n_ctx * kv_dim);
  std::vector<float> ks(n_ctx), vs(n_ctx);
  quantize_rows(k.data(), static_cast<int>(n_ctx), static_cast<int>(kv_dim),
                k8.data(), ks.data());
  quantize_rows(v.data(), static_cast<int>(n_ctx), static_cast<int>(kv_dim),
                v8.data(), vs.data());
  std::vector<const float*> k_rows(n_ctx), v_rows(n_ctx);
  std::vector<const int8_t*> k8_rows(n_ctx), v8_rows(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    k_rows[j] = k.data() + j * kv_dim;
    v_rows[j] = v.data() + j * kv_dim;
    k8_rows[j] = k8.data() + j * kv_dim;
    v8_rows[j] = v8.data() + j * kv_dim;
  }
  const std::vector<const float*> null32(n_ctx, nullptr);
  std::vector<float> s_q8(n_ctx), s_fp(n_ctx), o_q8(d_head), o_fp(d_head);
  attn_fused_q8_gather(q.data(), k8_rows.data(), v8_rows.data(), ks.data(),
                       vs.data(), null32.data(), null32.data(), head_off,
                       d_head, n_ctx, 0.25f, 0.0f, nullptr, nullptr,
                       s_q8.data(), o_q8.data());
  attn_fused_gather(q.data(), k_rows.data(), v_rows.data(), head_off, d_head,
                    n_ctx, 0.25f, 0.0f, nullptr, nullptr, s_fp.data(),
                    o_fp.data());
  EXPECT_LE(max_abs_diff_span(o_q8.data(), o_fp.data(), d_head), 0.05f)
      << "d_head=" << d_head << " n_ctx=" << n_ctx;
}

TEST(FusedAttention, Q8AllMaskedYieldsZeros) {
  const size_t d_head = 16, n_ctx = 23;
  const auto q = random_vec(d_head, 951);
  const auto k = random_vec(n_ctx * d_head, 953);
  std::vector<int8_t> k8(n_ctx * d_head), v8(n_ctx * d_head);
  std::vector<float> ks(n_ctx), vs(n_ctx);
  quantize_rows(k.data(), static_cast<int>(n_ctx), static_cast<int>(d_head),
                k8.data(), ks.data());
  quantize_rows(k.data(), static_cast<int>(n_ctx), static_cast<int>(d_head),
                v8.data(), vs.data());
  std::vector<const int8_t*> k8_rows(n_ctx), v8_rows(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    k8_rows[j] = k8.data() + j * d_head;
    v8_rows[j] = v8.data() + j * d_head;
  }
  const std::vector<const float*> null32(n_ctx, nullptr);
  const std::vector<uint8_t> masked(n_ctx, 1);
  std::vector<float> scores(n_ctx, 42.0f), out(d_head, 42.0f);
  attn_fused_q8_gather(q.data(), k8_rows.data(), v8_rows.data(), ks.data(),
                       vs.data(), null32.data(), null32.data(), 0, d_head,
                       n_ctx, 1.0f, 0.0f, nullptr, masked.data(),
                       scores.data(), out.data());
  for (float x : out) EXPECT_EQ(x, 0.0f);
  for (float x : scores) EXPECT_EQ(x, 0.0f);
}

TEST(FusedAttention, Q8EmptyContextYieldsZeros) {
  const size_t d_head = 8;
  const auto q = random_vec(d_head, 961);
  std::vector<float> out(d_head, 42.0f);
  attn_fused_q8_gather(q.data(), nullptr, nullptr, nullptr, nullptr, nullptr,
                       nullptr, 0, d_head, 0, 1.0f, 0.0f, nullptr, nullptr,
                       nullptr, out.data());
  for (float x : out) EXPECT_EQ(x, 0.0f);
}

// ---- Q4_0 quantization + int4 primitives ------------------------------------

// Scalar mirror of simd::dot_i4i8 (the integer part is exact and the float
// block accumulation is strictly sequential on every ISA path, so this is a
// bitwise reference).
float ref_dot_i4i8(const int8_t* q8, const uint8_t* packed,
                   const float* block_scales, const int32_t* q_sums,
                   size_t n_blocks) {
  float s = 0.0f;
  for (size_t b = 0; b < n_blocks; ++b) {
    int32_t p = 0;
    for (size_t j = 0; j < 16; ++j) {
      const uint8_t byte = packed[b * 16 + j];
      p += static_cast<int32_t>(q8[b * 32 + j]) * (byte & 0x0f);
      p += static_cast<int32_t>(q8[b * 32 + 16 + j]) * (byte >> 4);
    }
    // One fused multiply-add per block where the build has FMA, as
    // dot_i4i8 spells it: whether a compiler fuses `s += a * b` on its own
    // depends on the optimization level.
#if defined(__FMA__)
    s = std::fma(block_scales[b], static_cast<float>(p - 8 * q_sums[b]), s);
#else
    s += block_scales[b] * static_cast<float>(p - 8 * q_sums[b]);
#endif
  }
  return s;
}

TEST(Q4Kernels, QuantizeRowsQ4BitIdenticalToScalarGolden) {
  for (size_t width : kLengths) {
    if (width == 0) continue;
    const int n_rows = 4;
    const int blocks = q4_blocks(static_cast<int>(width));
    const size_t row_bytes = q4_row_bytes(static_cast<int>(width));
    auto src = random_vec(n_rows * width, 1300 + width, 3.0f);
    // Row 1: all zeros (every block scale must fall back to 1.0). Row 2:
    // one huge outlier so the rest of its block quantizes to 0. Row 3: the
    // negative extreme must land exactly on quant level -8 (nibble 0).
    std::fill(src.begin() + width, src.begin() + 2 * width, 0.0f);
    src[2 * width] = 1000.0f;
    src[3 * width] = -8.0f;
    std::vector<uint8_t> p_vec(n_rows * row_bytes), p_ref(n_rows * row_bytes);
    std::vector<float> s_vec(n_rows * blocks), s_ref(n_rows * blocks);
    quantize_rows_q4(src.data(), n_rows, static_cast<int>(width),
                     p_vec.data(), s_vec.data());
    quantize_rows_q4_scalar(src.data(), n_rows, static_cast<int>(width),
                            p_ref.data(), s_ref.data());
    for (size_t i = 0; i < s_vec.size(); ++i) {
      ASSERT_EQ(s_vec[i], s_ref[i]) << "width=" << width << " block=" << i;
    }
    for (size_t i = 0; i < p_vec.size(); ++i) {
      ASSERT_EQ(p_vec[i], p_ref[i]) << "width=" << width << " byte=" << i;
    }
    for (int b = 0; b < blocks; ++b) {
      EXPECT_EQ(s_vec[blocks + b], 1.0f) << "all-zero block scale fallback";
    }
    EXPECT_EQ(p_ref[3 * row_bytes] & 0x0f, 0)
        << "negative extremum must quantize to level -8 (nibble 0)";
  }
}

TEST(Q4Kernels, QuantizeRoundTripErrorBoundedByOneStep) {
  const size_t width = 100;  // 4 blocks, the last one partial
  const int n_rows = 8;
  const int blocks = q4_blocks(static_cast<int>(width));
  const size_t row_bytes = q4_row_bytes(static_cast<int>(width));
  const auto src = random_vec(n_rows * width, 1411, 2.0f);
  std::vector<uint8_t> packed(n_rows * row_bytes);
  std::vector<float> scales(n_rows * blocks);
  quantize_rows_q4(src.data(), n_rows, static_cast<int>(width), packed.data(),
                   scales.data());
  std::vector<float> back(width);
  for (int r = 0; r < n_rows; ++r) {
    dequantize_row_q4(packed.data() + r * row_bytes,
                      scales.data() + r * blocks, static_cast<int>(width),
                      back.data());
    for (size_t i = 0; i < width; ++i) {
      // The Q4_0 level grid is asymmetric (scale * [-8, 7] with scale =
      // extremum / -8): values opposite the block extremum can clamp at
      // level 7 and land up to one full step away, so the bound is a step,
      // not the half-step of symmetric q8.
      const float step = std::abs(scales[r * blocks + i / kQ4BlockSize]);
      EXPECT_LE(std::abs(back[i] - src[r * width + i]), step + 1e-6f)
          << "row=" << r << " elem=" << i;
    }
  }
}

TEST(Q4Kernels, DotI4I8BitIdenticalToScalarReference) {
  Rng rng(1500);
  for (const size_t n_blocks : {size_t{1}, size_t{2}, size_t{4}, size_t{9}}) {
    const size_t n = n_blocks * 32;
    std::vector<uint8_t> packed(n_blocks * 16);
    for (auto& b : packed) b = static_cast<uint8_t>(rng.next_below(256));
    std::vector<int8_t> q8(n);
    for (auto& x : q8) x = static_cast<int8_t>(rng.next_below(255)) - 127;
    std::vector<float> scales(n_blocks);
    for (auto& s : scales) s = rng.uniform(-0.1f, 0.1f);
    std::vector<int32_t> q_sums(n_blocks);
    for (size_t b = 0; b < n_blocks; ++b) {
      int32_t s = 0;
      for (size_t i = 0; i < 32; ++i) s += q8[b * 32 + i];
      q_sums[b] = s;
    }
    EXPECT_EQ(simd::dot_i4i8(q8.data(), packed.data(), scales.data(),
                             q_sums.data(), n_blocks),
              ref_dot_i4i8(q8.data(), packed.data(), scales.data(),
                           q_sums.data(), n_blocks))
        << "n_blocks=" << n_blocks;
  }
  // Worst-case magnitudes for the maddubs pair sums: nibble 15 against
  // query +-127 everywhere (2*15*127 = 3810 must not saturate int16).
  const size_t n_blocks = 4;
  std::vector<uint8_t> all_hi(n_blocks * 16, 0xff);
  std::vector<int8_t> q_hi(n_blocks * 32, 127), q_lo(n_blocks * 32, -127);
  const std::vector<float> unit(n_blocks, 1.0f);
  std::vector<int32_t> sums_hi(n_blocks, 32 * 127), sums_lo(n_blocks,
                                                            -32 * 127);
  EXPECT_EQ(simd::dot_i4i8(q_hi.data(), all_hi.data(), unit.data(),
                           sums_hi.data(), n_blocks),
            ref_dot_i4i8(q_hi.data(), all_hi.data(), unit.data(),
                         sums_hi.data(), n_blocks));
  EXPECT_EQ(simd::dot_i4i8(q_lo.data(), all_hi.data(), unit.data(),
                           sums_lo.data(), n_blocks),
            ref_dot_i4i8(q_lo.data(), all_hi.data(), unit.data(),
                         sums_lo.data(), n_blocks));
}

TEST(Q4Kernels, Dot8I4I8BitIdenticalToDotI4I8PerRow) {
  // Eight keys per call must give each key dot_i4i8's bits, over one and
  // several blocks.
  Rng rng(1501);
  for (size_t n_blocks : {size_t{1}, size_t{2}, size_t{4}}) {
    std::vector<int8_t> q8(n_blocks * 32);
    for (auto& x : q8) x = static_cast<int8_t>(rng.next_below(255)) - 127;
    std::vector<int32_t> q_sums(n_blocks);
    for (size_t b = 0; b < n_blocks; ++b) {
      q_sums[b] = std::accumulate(q8.begin() + b * 32,
                                  q8.begin() + (b + 1) * 32, 0);
    }
    std::vector<uint8_t> packed(8 * n_blocks * 16);
    for (auto& x : packed) x = static_cast<uint8_t>(rng.next_below(256));
    std::vector<float> scales(8 * n_blocks);
    for (auto& x : scales) x = rng.uniform(-0.1f, 0.1f);
    const uint8_t* rows[8];
    const float* row_scales[8];
    for (size_t r = 0; r < 8; ++r) {
      rows[r] = packed.data() + r * n_blocks * 16;
      row_scales[r] = scales.data() + r * n_blocks;
    }
    float out[8];
    simd::dot8_i4i8(q8.data(), rows, row_scales, q_sums.data(), n_blocks,
                    out);
    for (size_t r = 0; r < 8; ++r) {
      ASSERT_EQ(float_bits(out[r]),
                float_bits(simd::dot_i4i8(q8.data(), rows[r], row_scales[r],
                                          q_sums.data(), n_blocks)))
          << "n_blocks=" << n_blocks << " row=" << r;
    }
  }
}

TEST(Q4Kernels, DequantStoreI4MatchesScalar) {
  Rng rng(1600);
  for (const size_t n : {size_t{1}, size_t{7}, size_t{16}, size_t{17},
                         size_t{31}, size_t{32}}) {
    std::vector<uint8_t> packed(16);
    for (auto& b : packed) b = static_cast<uint8_t>(rng.next_below(256));
    const float scale = 0.043f;
    std::vector<float> y_simd(n), y_ref(n);
    simd::dequant_store_i4(packed.data(), scale, y_simd.data(), n);
    for (size_t i = 0; i < n; ++i) {
      const uint8_t byte = packed[i & 15];
      const int nib = i < 16 ? (byte & 0x0f) : (byte >> 4);
      y_ref[i] = scale * static_cast<float>(nib - 8);
    }
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(y_simd[i], y_ref[i]) << i;
  }
}

// ---- q4 fused attention ------------------------------------------------------

// Exact mirror of attn_fused_q4_gather with the integer block dot taken
// scalar; every float step uses the same simd primitives in the same order,
// so the comparison is bitwise.
void ref_q4_attention(const float* q, const uint8_t* const* k4_rows,
                      const uint8_t* const* v4_rows,
                      const float* const* k4_scales,
                      const float* const* v4_scales,
                      const float* const* k_rows, const float* const* v_rows,
                      size_t head_off, size_t d_head, size_t n_ctx,
                      float scale, float slope, const float* rel,
                      const uint8_t* masked, float* scores, float* out) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  if (n_ctx == 0) {
    std::fill(out, out + d_head, 0.0f);
    return;
  }
  const size_t n_blocks = (d_head + 31) / 32;
  const size_t blk_off = head_off / 32;
  const size_t byte_off = blk_off * 16;
  std::vector<int8_t> q8(n_blocks * 32, 0);
  const float q_max = simd::reduce_max_abs(q, d_head);
  const float q_scale = q_max > 0.0f ? q_max / 127.0f : 1.0f;
  simd::quantize_i8(q, 1.0f / q_scale, q8.data(), d_head);
  std::vector<int32_t> q_sums(n_blocks);
  for (size_t b = 0; b < n_blocks; ++b) {
    int32_t s = 0;
    for (size_t i = 0; i < 32; ++i) s += q8[b * 32 + i];
    q_sums[b] = s;
  }
  const float fix = scale * q_scale;
  for (size_t j = 0; j < n_ctx; ++j) {
    if (masked != nullptr && masked[j] != 0) {
      scores[j] = kNegInf;
      continue;
    }
    float s;
    if (k4_rows[j] != nullptr) {
      s = ref_dot_i4i8(q8.data(), k4_rows[j] + byte_off,
                       k4_scales[j] + blk_off, q_sums.data(), n_blocks) *
          fix;
    } else {
      s = simd::dot(q, k_rows[j] + head_off, d_head) * scale;
    }
    if (rel != nullptr) s += -slope * rel[j];
    scores[j] = s;
  }
  const float mx = simd::reduce_max(scores, n_ctx);
  if (mx == kNegInf) {
    std::fill(scores, scores + n_ctx, 0.0f);
    std::fill(out, out + d_head, 0.0f);
    return;
  }
  simd::exp_nonpos(scores, mx, scores, n_ctx);
  float sum = 0.0f;
  for (size_t j = 0; j < n_ctx; ++j) sum += scores[j];
  simd::scale(scores, 1.0f / sum, n_ctx);
  std::fill(out, out + d_head, 0.0f);
  for (size_t j = 0; j < n_ctx; ++j) {
    const float w = scores[j];
    if (w == 0.0f) continue;
    if (v4_rows[j] != nullptr) {
      simd::axpy_i4(w, v4_rows[j] + byte_off, v4_scales[j] + blk_off, out,
                    d_head);
    } else {
      simd::axpy(w, v_rows[j] + head_off, out, d_head);
    }
  }
}

// Helper bundle: n_ctx rows of width kv_dim quantized to Q4_0, with the
// per-row pointer tables the gather kernel consumes.
struct Q4Rows {
  std::vector<uint8_t> packed;
  std::vector<float> scales;
  std::vector<const uint8_t*> rows;
  std::vector<const float*> row_scales;

  Q4Rows(const float* src, size_t n_ctx, size_t kv_dim) {
    const int blocks = q4_blocks(static_cast<int>(kv_dim));
    const size_t row_bytes = q4_row_bytes(static_cast<int>(kv_dim));
    packed.resize(n_ctx * row_bytes);
    scales.resize(n_ctx * blocks);
    if (n_ctx > 0) {
      quantize_rows_q4(src, static_cast<int>(n_ctx),
                       static_cast<int>(kv_dim), packed.data(),
                       scales.data());
    }
    rows.resize(n_ctx);
    row_scales.resize(n_ctx);
    for (size_t j = 0; j < n_ctx; ++j) {
      rows[j] = packed.data() + j * row_bytes;
      row_scales[j] = scales.data() + j * blocks;
    }
  }
};

// The q4 kernel requires a 32-aligned head offset (whole Q4_0 blocks), so
// its shape set fixes head_off = kv_dim - d_head to multiples of 32 —
// including d_head values that end mid-block (16, 33).
class Q4FusedAttentionTest : public ::testing::TestWithParam<AttnCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, Q4FusedAttentionTest,
    ::testing::Values(AttnCase{32, 1, 32}, AttnCase{16, 23, 16},
                      AttnCase{33, 29, 33}, AttnCase{32, 100, 64},
                      AttnCase{64, 257, 128}, AttnCase{128, 64, 128}));

TEST_P(Q4FusedAttentionTest, AllFp32SlotsBitIdenticalToGather) {
  // With every slot fp32 the q4 kernel must follow the exact operation
  // sequence of attn_fused_gather — the regression guard that makes the q4
  // path safe as a view's only attention kernel.
  const auto [d_head, n_ctx, kv_dim] = GetParam();
  const size_t head_off = kv_dim - d_head;
  const auto q = random_vec(d_head, 1811 + n_ctx, 0.5f);
  const auto k = random_vec(n_ctx * kv_dim + 1, 1813 + n_ctx, 0.5f);
  const auto v = random_vec(n_ctx * kv_dim + 1, 1817 + n_ctx, 0.5f);
  std::vector<const float*> k_rows(n_ctx), v_rows(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    k_rows[j] = k.data() + j * kv_dim;
    v_rows[j] = v.data() + j * kv_dim;
  }
  const std::vector<const uint8_t*> null4(n_ctx, nullptr);
  const std::vector<const float*> null_sc(n_ctx, nullptr);
  std::vector<float> s1(n_ctx), s2(n_ctx), o1(d_head), o2(d_head);
  attn_fused_gather(q.data(), k_rows.data(), v_rows.data(), head_off, d_head,
                    n_ctx, 0.125f, 0.0f, nullptr, nullptr, s1.data(),
                    o1.data());
  attn_fused_q4_gather(q.data(), null4.data(), null4.data(), null_sc.data(),
                       null_sc.data(), k_rows.data(), v_rows.data(), head_off,
                       d_head, n_ctx, 0.125f, 0.0f, nullptr, nullptr,
                       s2.data(), o2.data());
  for (size_t j = 0; j < n_ctx; ++j) ASSERT_EQ(s1[j], s2[j]) << "slot " << j;
  for (size_t e = 0; e < d_head; ++e) ASSERT_EQ(o1[e], o2[e]) << "elem " << e;
}

TEST_P(Q4FusedAttentionTest, MixedFormatMatchesMirrorReference) {
  // Alternate q4 and fp32 slots (a borrowed view's layout: module rows
  // quantized, owned decode tail fp32) under mask and ALiBi variants.
  const auto [d_head, n_ctx, kv_dim] = GetParam();
  const size_t head_off = kv_dim - d_head;
  const auto q = random_vec(d_head, 1821 + n_ctx, 0.5f);
  const auto k = random_vec(n_ctx * kv_dim + 1, 1823 + n_ctx, 0.5f);
  const auto v = random_vec(n_ctx * kv_dim + 1, 1827 + n_ctx, 0.5f);
  const Q4Rows k4(k.data(), n_ctx, kv_dim);
  const Q4Rows v4(v.data(), n_ctx, kv_dim);
  std::vector<const float*> k_rows(n_ctx, nullptr), v_rows(n_ctx, nullptr);
  std::vector<const uint8_t*> k4_rows(n_ctx, nullptr), v4_rows(n_ctx, nullptr);
  std::vector<const float*> k4_sc(n_ctx, nullptr), v4_sc(n_ctx, nullptr);
  for (size_t j = 0; j < n_ctx; ++j) {
    if (j % 2 == 0) {
      k4_rows[j] = k4.rows[j];
      v4_rows[j] = v4.rows[j];
      k4_sc[j] = k4.row_scales[j];
      v4_sc[j] = v4.row_scales[j];
    } else {
      k_rows[j] = k.data() + j * kv_dim;
      v_rows[j] = v.data() + j * kv_dim;
    }
  }
  Rng rng(1829 + n_ctx);
  std::vector<uint8_t> masked(n_ctx);
  for (auto& mv : masked) mv = rng.next_below(4) == 0 ? 1 : 0;
  if (n_ctx > 0) masked[n_ctx - 1] = 0;
  std::vector<float> rel(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    rel[j] = static_cast<float>(static_cast<int>(n_ctx - j));
  }
  for (const bool use_mask : {false, true}) {
    for (const bool use_alibi : {false, true}) {
      std::vector<float> s1(n_ctx), s2(n_ctx), o1(d_head), o2(d_head);
      attn_fused_q4_gather(q.data(), k4_rows.data(), v4_rows.data(),
                           k4_sc.data(), v4_sc.data(), k_rows.data(),
                           v_rows.data(), head_off, d_head, n_ctx, 0.25f,
                           0.0625f, use_alibi ? rel.data() : nullptr,
                           use_mask ? masked.data() : nullptr, s1.data(),
                           o1.data());
      ref_q4_attention(q.data(), k4_rows.data(), v4_rows.data(), k4_sc.data(),
                       v4_sc.data(), k_rows.data(), v_rows.data(), head_off,
                       d_head, n_ctx, 0.25f, 0.0625f,
                       use_alibi ? rel.data() : nullptr,
                       use_mask ? masked.data() : nullptr, s2.data(),
                       o2.data());
      for (size_t j = 0; j < n_ctx; ++j) {
        ASSERT_EQ(s1[j], s2[j])
            << "slot " << j << " mask=" << use_mask << " alibi=" << use_alibi;
      }
      for (size_t e = 0; e < d_head; ++e) {
        ASSERT_EQ(o1[e], o2[e])
            << "elem " << e << " mask=" << use_mask << " alibi=" << use_alibi;
      }
    }
  }
}

TEST_P(Q4FusedAttentionTest, CloseToFp32Attention) {
  // All slots quantized: the int4-domain result must track the fp32 result
  // on the original rows within the Q4_0 error budget (coarser than q8 —
  // 4-bit levels, but the per-block scales keep the error bounded).
  const auto [d_head, n_ctx, kv_dim] = GetParam();
  if (n_ctx == 0) return;
  const size_t head_off = kv_dim - d_head;
  const auto q = random_vec(d_head, 1841 + n_ctx, 0.5f);
  const auto k = random_vec(n_ctx * kv_dim + 1, 1843 + n_ctx, 0.5f);
  const auto v = random_vec(n_ctx * kv_dim + 1, 1847 + n_ctx, 0.5f);
  const Q4Rows k4(k.data(), n_ctx, kv_dim);
  const Q4Rows v4(v.data(), n_ctx, kv_dim);
  std::vector<const float*> k_rows(n_ctx), v_rows(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    k_rows[j] = k.data() + j * kv_dim;
    v_rows[j] = v.data() + j * kv_dim;
  }
  const std::vector<const float*> null32(n_ctx, nullptr);
  std::vector<float> s_q4(n_ctx), s_fp(n_ctx), o_q4(d_head), o_fp(d_head);
  attn_fused_q4_gather(q.data(), k4.rows.data(), v4.rows.data(),
                       k4.row_scales.data(), v4.row_scales.data(),
                       null32.data(), null32.data(), head_off, d_head, n_ctx,
                       0.25f, 0.0f, nullptr, nullptr, s_q4.data(),
                       o_q4.data());
  attn_fused_gather(q.data(), k_rows.data(), v_rows.data(), head_off, d_head,
                    n_ctx, 0.25f, 0.0f, nullptr, nullptr, s_fp.data(),
                    o_fp.data());
  EXPECT_LE(max_abs_diff_span(o_q4.data(), o_fp.data(), d_head), 0.15f)
      << "d_head=" << d_head << " n_ctx=" << n_ctx;
}

TEST(FusedAttention, Q4AllMaskedYieldsZeros) {
  const size_t d_head = 32, n_ctx = 23;
  const auto q = random_vec(d_head, 1851);
  const auto k = random_vec(n_ctx * d_head, 1853);
  const Q4Rows k4(k.data(), n_ctx, d_head);
  const Q4Rows v4(k.data(), n_ctx, d_head);
  const std::vector<const float*> null32(n_ctx, nullptr);
  const std::vector<uint8_t> masked(n_ctx, 1);
  std::vector<float> scores(n_ctx, 42.0f), out(d_head, 42.0f);
  attn_fused_q4_gather(q.data(), k4.rows.data(), v4.rows.data(),
                       k4.row_scales.data(), v4.row_scales.data(),
                       null32.data(), null32.data(), 0, d_head, n_ctx, 1.0f,
                       0.0f, nullptr, masked.data(), scores.data(),
                       out.data());
  for (float x : out) EXPECT_EQ(x, 0.0f);
  for (float x : scores) EXPECT_EQ(x, 0.0f);
}

TEST(FusedAttention, Q4EmptyContextYieldsZeros) {
  const size_t d_head = 32;
  const auto q = random_vec(d_head, 1861);
  std::vector<float> out(d_head, 42.0f);
  attn_fused_q4_gather(q.data(), nullptr, nullptr, nullptr, nullptr, nullptr,
                       nullptr, 0, d_head, 0, 1.0f, 0.0f, nullptr, nullptr,
                       nullptr, out.data());
  for (float x : out) EXPECT_EQ(x, 0.0f);
}

// ---- one core, every format ------------------------------------------------

enum class AttnFormat { kContig, kGather, kQ8, kQ4 };

const char* format_name(AttnFormat f) {
  switch (f) {
    case AttnFormat::kContig: return "contig";
    case AttnFormat::kGather: return "gather";
    case AttnFormat::kQ8: return "q8";
    case AttnFormat::kQ4: return "q4";
  }
  return "?";
}

// One context in every format the kernels read. In the q8/q4 tables slot j
// is quantized unless j % 3 == 2, which reads the fp32 rows (a borrowed
// view's owned tail, interleaved to cover both kinds in every block).
struct AttnContext {
  size_t n_ctx, kv_dim, head_off;
  std::vector<float> k, v;
  std::vector<const float*> k_rows, v_rows, kf_rows, vf_rows;
  std::vector<int8_t> k8, v8;
  std::vector<float> k8s, v8s;
  std::vector<const int8_t*> k8_rows, v8_rows;
  Q4Rows k4, v4;
  std::vector<const uint8_t*> k4_rows, v4_rows;
  std::vector<const float*> k4_sc, v4_sc;

  AttnContext(std::vector<float> k_in, std::vector<float> v_in, size_t n,
              size_t dim, size_t off)
      : n_ctx(n), kv_dim(dim), head_off(off), k(std::move(k_in)),
        v(std::move(v_in)), k8(n * dim), v8(n * dim), k8s(n), v8s(n),
        k4(k.data(), n, dim), v4(v.data(), n, dim) {
    if (n > 0) {
      quantize_rows(k.data(), static_cast<int>(n), static_cast<int>(dim),
                    k8.data(), k8s.data());
      quantize_rows(v.data(), static_cast<int>(n), static_cast<int>(dim),
                    v8.data(), v8s.data());
    }
    k_rows.resize(n);
    v_rows.resize(n);
    kf_rows.assign(n, nullptr);
    vf_rows.assign(n, nullptr);
    k8_rows.assign(n, nullptr);
    v8_rows.assign(n, nullptr);
    k4_rows.assign(n, nullptr);
    v4_rows.assign(n, nullptr);
    k4_sc.assign(n, nullptr);
    v4_sc.assign(n, nullptr);
    for (size_t j = 0; j < n; ++j) {
      k_rows[j] = k.data() + j * dim;
      v_rows[j] = v.data() + j * dim;
      if (j % 3 == 2) {
        kf_rows[j] = k_rows[j];
        vf_rows[j] = v_rows[j];
      } else {
        k8_rows[j] = k8.data() + j * dim;
        v8_rows[j] = v8.data() + j * dim;
        k4_rows[j] = k4.rows[j];
        v4_rows[j] = v4.rows[j];
        k4_sc[j] = k4.row_scales[j];
        v4_sc[j] = v4.row_scales[j];
      }
    }
  }

  // The grouped call for n_q heads.
  void attend(AttnFormat f, const float* q, size_t n_q, size_t d_head,
              float scale, const float* slopes, const float* rel,
              const uint8_t* masked, float* scores, float* out) const {
    switch (f) {
      case AttnFormat::kContig:
        attn_fused_contig(q, k.data() + head_off, v.data() + head_off, kv_dim,
                          d_head, n_ctx, scale, slopes, rel, masked, scores,
                          out, n_q);
        return;
      case AttnFormat::kGather:
        attn_fused_gather(q, k_rows.data(), v_rows.data(), head_off, d_head,
                          n_ctx, scale, slopes, rel, masked, scores, out, n_q);
        return;
      case AttnFormat::kQ8:
        attn_fused_q8_gather(q, k8_rows.data(), v8_rows.data(), k8s.data(),
                             v8s.data(), kf_rows.data(), vf_rows.data(),
                             head_off, d_head, n_ctx, scale, slopes, rel,
                             masked, scores, out, n_q);
        return;
      case AttnFormat::kQ4:
        attn_fused_q4_gather(q, k4_rows.data(), v4_rows.data(), k4_sc.data(),
                             v4_sc.data(), kf_rows.data(), vf_rows.data(),
                             head_off, d_head, n_ctx, scale, slopes, rel,
                             masked, scores, out, n_q);
        return;
    }
  }

  // The single-head form, one head's slope by value.
  void attend_one(AttnFormat f, const float* q, size_t d_head, float scale,
                  float slope, const float* rel, const uint8_t* masked,
                  float* scores, float* out) const {
    switch (f) {
      case AttnFormat::kContig:
        attn_fused_contig(q, k.data() + head_off, v.data() + head_off, kv_dim,
                          d_head, n_ctx, scale, slope, rel, masked, scores,
                          out);
        return;
      case AttnFormat::kGather:
        attn_fused_gather(q, k_rows.data(), v_rows.data(), head_off, d_head,
                          n_ctx, scale, slope, rel, masked, scores, out);
        return;
      case AttnFormat::kQ8:
        attn_fused_q8_gather(q, k8_rows.data(), v8_rows.data(), k8s.data(),
                             v8s.data(), kf_rows.data(), vf_rows.data(),
                             head_off, d_head, n_ctx, scale, slope, rel,
                             masked, scores, out);
        return;
      case AttnFormat::kQ4:
        attn_fused_q4_gather(q, k4_rows.data(), v4_rows.data(), k4_sc.data(),
                             v4_sc.data(), kf_rows.data(), vf_rows.data(),
                             head_off, d_head, n_ctx, scale, slope, rel,
                             masked, scores, out);
        return;
    }
  }
};

constexpr AttnFormat kAllFormats[] = {AttnFormat::kContig, AttnFormat::kGather,
                                      AttnFormat::kQ8, AttnFormat::kQ4};

TEST(FusedAttention, GroupedHeadsMatchSingleHeadBitwise) {
  // A group of n_q heads in one call must give every head the bits of the
  // single-head call: grouping changes which rows are loaded together,
  // never the arithmetic. Context lengths cover no full block, one, one
  // plus a slot, and the rag-sized 1056; a slot with a key of -1000 (the
  // queries are positive) scores far below e^-87 and must weigh exactly 0.
  // Ten heads exceed the kernel's eight-head pass and run in two slices.
  const float scale = 0.25f;
  for (size_t n_ctx : {1, 7, 8, 9, 57, 1056}) {
    for (size_t d_head : {8, 16, 24, 32, 64}) {
      const size_t head_off = 32, kv_dim = head_off + d_head;
      auto k = random_vec(n_ctx * kv_dim, 2001 + n_ctx + d_head);
      const auto v = random_vec(n_ctx * kv_dim, 2003 + n_ctx + d_head);
      const size_t under = n_ctx / 2;
      if (n_ctx > 1) {
        std::fill_n(k.begin() + static_cast<ptrdiff_t>(under * kv_dim), kv_dim,
                    -1000.0f);
      }
      const AttnContext c(k, v, n_ctx, kv_dim, head_off);
      std::vector<float> rel(n_ctx);
      for (size_t j = 0; j < n_ctx; ++j) {
        rel[j] = static_cast<float>(static_cast<int>(n_ctx - j));
      }
      // No mask; random holes plus fully masked blocks [8, 16) and
      // [24, 32); every slot masked.
      Rng rng(2005 + n_ctx);
      std::vector<uint8_t> holes(n_ctx), all(n_ctx, 1);
      for (auto& mv : holes) mv = rng.next_below(4) == 0 ? 1 : 0;
      for (size_t j = 0; j < n_ctx; ++j) {
        if ((j >= 8 && j < 16) || (j >= 24 && j < 32)) holes[j] = 1;
      }
      holes[n_ctx - 1] = 0;
      const uint8_t* masks[] = {nullptr, holes.data(), all.data()};

      for (size_t n_q : {1, 2, 3, 6, 10}) {
        Rng qrng(2007 + n_q);
        std::vector<float> q(n_q * d_head), slopes(n_q);
        for (auto& x : q) x = qrng.uniform(0.1f, 1.0f);
        for (size_t h = 0; h < n_q; ++h) {
          slopes[h] = std::ldexp(1.0f, -static_cast<int>(h) - 1);
        }
        for (AttnFormat f : kAllFormats) {
          for (const uint8_t* m : masks) {
            for (const bool alibi : {false, true}) {
              const float* r = alibi ? rel.data() : nullptr;
              std::vector<float> sg(n_q * n_ctx), og(n_q * d_head, 42.0f);
              c.attend(f, q.data(), n_q, d_head, scale, slopes.data(), r, m,
                       sg.data(), og.data());
              for (size_t h = 0; h < n_q; ++h) {
                std::vector<float> s1(n_ctx), o1(d_head, 7.0f);
                c.attend_one(f, q.data() + h * d_head, d_head, scale,
                             slopes[h], r, m, s1.data(), o1.data());
                const auto where = [&] {
                  return ::testing::Message()
                         << format_name(f) << " n_ctx=" << n_ctx
                         << " d_head=" << d_head << " n_q=" << n_q
                         << " head=" << h << " mask=" << (m != nullptr)
                         << (m == all.data() ? "(all)" : "")
                         << " alibi=" << alibi;
                };
                for (size_t j = 0; j < n_ctx; ++j) {
                  ASSERT_EQ(float_bits(sg[h * n_ctx + j]), float_bits(s1[j]))
                      << where() << " slot " << j;
                }
                for (size_t e = 0; e < d_head; ++e) {
                  ASSERT_EQ(float_bits(og[h * d_head + e]), float_bits(o1[e]))
                      << where() << " elem " << e;
                }
                if (m == all.data()) {
                  for (float x : o1) ASSERT_EQ(float_bits(x), 0) << where();
                }
                if (m == nullptr && !alibi && n_ctx > 1) {
                  ASSERT_EQ(float_bits(s1[under]), 0) << where();  // flushed
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(FusedAttention, MaskedSlotsBitIdenticalToCompactedContext) {
  // The core INTERNALS §2 property at the kernel level, for every format:
  // running over the full context with masked holes equals running over
  // only the unmasked slots, bit for bit. 131 slots with random holes and
  // a fully masked block, so compaction shifts slots across the kernel's
  // eight-slot blocks.
  const size_t d_head = 32, n_ctx = 131, kv_dim = 64, head_off = 32;
  const auto q = random_vec(d_head, 81, 0.5f);
  const AttnContext full(random_vec(n_ctx * kv_dim, 83, 0.5f),
                         random_vec(n_ctx * kv_dim, 87, 0.5f), n_ctx, kv_dim,
                         head_off);
  Rng rng(89);
  std::vector<uint8_t> masked(n_ctx);
  for (auto& mv : masked) mv = rng.next_below(3) == 0 ? 1 : 0;
  for (size_t j = 16; j < 24; ++j) masked[j] = 1;
  masked[0] = 0;

  // The compacted context: the unmasked slots' rows and scales, in order.
  AttnContext comp = full;
  const auto keep = [&](auto& table) {
    auto out = table;
    out.clear();
    for (size_t j = 0; j < n_ctx; ++j) {
      if (masked[j] == 0) out.push_back(table[j]);
    }
    table = out;
  };
  keep(comp.k_rows);
  keep(comp.v_rows);
  keep(comp.kf_rows);
  keep(comp.vf_rows);
  keep(comp.k8_rows);
  keep(comp.v8_rows);
  keep(comp.k8s);
  keep(comp.v8s);
  keep(comp.k4_rows);
  keep(comp.v4_rows);
  keep(comp.k4_sc);
  keep(comp.v4_sc);
  comp.n_ctx = comp.k_rows.size();

  // The contiguous kernel has no compacted form; its masked run must equal
  // the compacted gather.
  for (AttnFormat f : kAllFormats) {
    const AttnFormat fc = f == AttnFormat::kContig ? AttnFormat::kGather : f;
    std::vector<float> scores(n_ctx), out(d_head);
    full.attend_one(f, q.data(), d_head, 0.2f, 0.0f, nullptr, masked.data(),
                    scores.data(), out.data());
    std::vector<float> scores_c(comp.n_ctx), out_c(d_head);
    comp.attend_one(fc, q.data(), d_head, 0.2f, 0.0f, nullptr, nullptr,
                    scores_c.data(), out_c.data());
    for (size_t e = 0; e < d_head; ++e) {
      ASSERT_EQ(float_bits(out[e]), float_bits(out_c[e]))
          << format_name(f) << " elem " << e;
    }
    for (size_t j = 0, jc = 0; j < n_ctx; ++j) {
      if (masked[j] != 0) {
        ASSERT_EQ(float_bits(scores[j]), 0) << format_name(f) << " slot " << j;
      } else {
        ASSERT_EQ(float_bits(scores[j]), float_bits(scores_c[jc++]))
            << format_name(f) << " slot " << j;
      }
    }
  }
}

// ---- mask-hoist regression through the model --------------------------------

// The block mask is computed once per query row and shared across heads.
// This must leave blocked-mask attention bit-identical to the per-module
// encoding path (which sees no mask at all) — the strongest invariant the
// repo owns. RoPE (llama) covers the plain path, MPT covers the hoisted
// ALiBi relative-position vector.
TEST(MaskHoist, BlockedPrefillBitIdenticalToModuleConcat) {
  for (const auto& config : {ModelConfig::llama_tiny(48, 128),
                             ModelConfig::mpt_tiny(48, 128)}) {
    const Model model = Model::random(config, 123);
    Rng rng(7);
    auto rand_tokens = [&](size_t n) {
      std::vector<TokenId> t(n);
      for (auto& x : t) x = static_cast<TokenId>(rng.next_below(48));
      return t;
    };
    const auto mod1 = rand_tokens(11);
    const auto mod2 = rand_tokens(9);
    const auto suffix = rand_tokens(4);

    auto iota_pos = [](size_t n, int start) {
      std::vector<int> p(n);
      std::iota(p.begin(), p.end(), start);
      return p;
    };

    KVCache enc1 = model.make_cache();
    (void)model.forward(mod1, iota_pos(11, 0), enc1);
    KVCache enc2 = model.make_cache();
    (void)model.forward(mod2, iota_pos(9, 11), enc2);
    KVCache cached = model.make_cache();
    cached.append_copy(enc1);
    cached.append_copy(enc2);
    const Tensor cached_logits =
        model.forward(suffix, iota_pos(4, 20), cached);

    std::vector<TokenId> all;
    all.insert(all.end(), mod1.begin(), mod1.end());
    all.insert(all.end(), mod2.begin(), mod2.end());
    all.insert(all.end(), suffix.begin(), suffix.end());
    std::vector<int> blocks;
    blocks.insert(blocks.end(), 11, 1);
    blocks.insert(blocks.end(), 9, 2);
    blocks.insert(blocks.end(), 4, Model::kGlobalBlock);
    KVCache reference = model.make_cache();
    const Tensor ref_logits =
        model.forward_blocked(all, iota_pos(24, 0), blocks, reference);

    EXPECT_EQ(max_abs_diff(cached_logits, ref_logits), 0.0f);
  }
}

}  // namespace
}  // namespace pc
