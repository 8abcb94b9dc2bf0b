#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"
#include "tensor/simd.h"

namespace pc {

namespace {

// Total elements-of-work below which a matmul is not worth shipping to the
// pool: queue/wake latency (~microseconds) dwarfs the compute. The check is
// work-size-aware (m*k*n), not row-count-aware, so a tall-skinny or decode
// (m=1) matmul never pays pool latency.
constexpr size_t kParallelWorkThreshold = size_t{1} << 18;

void for_rows(size_t m, size_t work_per_row,
              const std::function<void(size_t, size_t)>& fn) {
  if (m < 2 || m * work_per_row < kParallelWorkThreshold ||
      ThreadPool::global().size() <= 1) {
    fn(0, m);
  } else {
    ThreadPool::global().parallel_for(m, fn);
  }
}

// Cache-blocking parameters. gemm streams B in l-blocks of KC rows so a
// block (KC * n floats) stays resident across the rows of the worker's
// range; gemm_nt walks B-column panels of NC rows so a panel (NC * k
// floats) is reused across every A-row tile. Both are sized for a few
// hundred KB — comfortably L2 on anything this runs on.
constexpr size_t kGemmKC = 128;
constexpr size_t kGemmNtNC = 64;

}  // namespace

void gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n) {
  for_rows(m, k * n, [&](size_t row_begin, size_t row_end) {
    for (size_t i = row_begin; i < row_end; ++i) {
      std::fill(c + i * n, c + i * n + n, 0.0f);
    }
    // l-blocked broadcast-FMA: per output element the accumulation order
    // over l is strictly sequential (store/reload between blocks is exact),
    // so blocking never changes bits. No per-element zero-skip branch: the
    // branch costs more than the multiply on any vector unit.
    for (size_t lb = 0; lb < k; lb += kGemmKC) {
      const size_t le = std::min(k, lb + kGemmKC);
      for (size_t i = row_begin; i < row_end; ++i) {
        const float* ai = a + i * k;
        float* ci = c + i * n;
        for (size_t l = lb; l < le; ++l) {
          simd::axpy(ai[l], b + l * n, ci, n);
        }
      }
    }
  });
}

void gemm_nt(const float* a, const float* b, float* c, size_t m, size_t k,
             size_t n) {
  for_rows(m, k * n, [&](size_t row_begin, size_t row_end) {
    // Column panels of NC B-rows; within a panel, 2x4 register tiles (two
    // A rows x four B rows) so every loaded vector is reused across the
    // tile. Edge rows use the 1x4 tile, which shares the 2x4 tile's
    // per-(row, column) accumulation order (see simd.h). Edge columns use
    // the plain dot, whose order differs from the tiles' for k >= 32, but
    // which columns are edge columns depends on n alone: every row of a
    // column takes the same path, so no output element depends on m.
    for (size_t jb = 0; jb < n; jb += kGemmNtNC) {
      const size_t je = std::min(n, jb + kGemmNtNC);
      size_t i = row_begin;
      for (; i + 2 <= row_end; i += 2) {
        const float* a0 = a + i * k;
        const float* a1 = a0 + k;
        float* c0 = c + i * n;
        float* c1 = c0 + n;
        size_t j = jb;
        for (; j + 4 <= je; j += 4) {
          simd::dot2x4(a0, a1, b + j * k, b + (j + 1) * k, b + (j + 2) * k,
                       b + (j + 3) * k, k, c0 + j, c1 + j);
        }
        for (; j < je; ++j) {
          c0[j] = simd::dot(a0, b + j * k, k);
          c1[j] = simd::dot(a1, b + j * k, k);
        }
      }
      for (; i < row_end; ++i) {
        const float* ai = a + i * k;
        float* ci = c + i * n;
        size_t j = jb;
        for (; j + 4 <= je; j += 4) {
          simd::dot4(ai, b + j * k, b + (j + 1) * k, b + (j + 2) * k,
                     b + (j + 3) * k, k, ci + j);
        }
        for (; j < je; ++j) ci[j] = simd::dot(ai, b + j * k, k);
      }
    }
  });
}

float dot(const float* a, const float* b, size_t n) {
  return simd::dot(a, b, n);
}

void axpy(float alpha, const float* x, float* y, size_t n) {
  simd::axpy(alpha, x, y, n);
}

void softmax_inplace(float* row, size_t n) {
  if (n == 0) return;
  // Max via vector lanes (exact for float max); the exp-sum stays strictly
  // sequential — lane-grouped accumulation would break the bitwise
  // equivalence between masked and compacted contexts that
  // docs/INTERNALS.md §2 proves (a masked slot must contribute an exact
  // +0.0f at its sequence position, nothing else may move).
  const float mx = simd::reduce_max(row, n);
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    sum += row[i];
  }
  simd::scale(row, 1.0f / sum, n);
}

void rmsnorm(const float* x, const float* w, float* out, size_t n, float eps) {
  const float ss = simd::reduce_sumsq(x, n);
  const float inv = 1.0f / std::sqrt(ss / static_cast<float>(n) + eps);
  for (size_t i = 0; i < n; ++i) out[i] = x[i] * inv * w[i];
}

void layernorm(const float* x, const float* w, const float* b, float* out,
               size_t n, float eps) {
  float mean = 0.0f;
  for (size_t i = 0; i < n; ++i) mean += x[i];
  mean /= static_cast<float>(n);
  float var = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float d = x[i] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + eps);
  for (size_t i = 0; i < n; ++i) {
    out[i] = (x[i] - mean) * inv * w[i] + (b ? b[i] : 0.0f);
  }
}

void silu_inplace(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    x[i] = x[i] / (1.0f + std::exp(-x[i]));
  }
}

void gelu_inplace(float* x, size_t n) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  for (size_t i = 0; i < n; ++i) {
    const float v = x[i];
    x[i] = 0.5f * v *
           (1.0f + std::tanh(kSqrt2OverPi * (v + 0.044715f * v * v * v)));
  }
}

// ---- fused attention -------------------------------------------------------
//
// One core serves every row format. A pass attends a block of up to
// kAttnRowBlock query rows, each with the n_q query heads of a GQA group, to
// their shared KV head, so each K/V row is read once per block and group.
// Each (row, head) pair is one softmax row:
//   1. scores, eight slots at a time (a block masked for every row is not
//      scored), with each pair's row max folded in;
//   2. per pair, exp and a strictly sequential sum in slot order, the
//      pairs' sums run as interleaved independent chains; then the
//      normalization;
//   3. the value mix, in slot order, skipping zero weights.
// A row format (F32Rows, Q8Rows, Q4Rows) supplies the scoring of a block and
// the decoding of value rows; everything else is shared.

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();
// Query heads per pass over the rows; larger groups run in slices.
constexpr size_t kMaxGroup = 8;
// (row, head) pairs of one pass.
constexpr size_t kMaxPairs = kAttnRowBlock * kMaxGroup;
// Query quantization scratch of the q8/q4 formats.
constexpr size_t kMaxDHead = 1024;
// Softmax sums run as independent chains, one per (row, head) pair.
constexpr size_t kChains = 8;

// One pass: a block's rows that have context, each offset to the pass's
// first head, and their (row, head) pairs; pair p is row p / n_q, head
// p % n_q, and owns one softmax row.
struct Attn {
  struct Pair {
    const float* q;
    size_t n_ctx;
    float* scores;
    float* out;
  };
  size_t n_q;
  size_t d_head;
  float scale;
  const float* slopes;
  size_t n_rows = 0;
  size_t n_ctx = 0;  // the longest row's
  AttnRow rows[kAttnRowBlock];
  size_t n_pairs = 0;
  Pair pairs[kMaxPairs];

  void add_row(const AttnRow& row) {
    rows[n_rows++] = row;
    n_ctx = std::max(n_ctx, row.n_ctx);
    for (size_t h = 0; h < n_q; ++h) {
      pairs[n_pairs++] = {row.q + h * d_head, row.n_ctx,
                          row.scores + h * row.n_ctx, row.out + h * d_head};
    }
  }
};

// One block's scores before bias and mask, per pair.
using Raw = float[kMaxPairs][8];

// Quantizes one query head slice to int8 (symmetric, max-abs/127) and
// returns scale * q_scale, the factor that turns an integer score into a
// float one.
float quantize_query(const float* q, size_t d_head, float scale, int8_t* q8) {
  const float q_max = simd::reduce_max_abs(q, d_head);
  const float q_scale = q_max > 0.0f ? q_max / 127.0f : 1.0f;
  simd::quantize_i8(q, 1.0f / q_scale, q8, d_head);
  return scale * q_scale;
}

// fp32 rows: KRow/VRow map slot j to its d_head-long head slice.
template <typename KRow, typename VRow>
struct F32Rows {
  KRow k_row;
  VRow v_row;

  void prepare(const Attn&) {}
  // raw[p][r] = (q_p . K[js[r]]) * scale for every pair.
  void score(const Attn& a, const size_t* js, Raw& raw) const {
    const float* keys[8];
    for (size_t r = 0; r < 8; ++r) keys[r] = k_row(js[r]);
    for (size_t p = 0; p < a.n_pairs; ++p) {
      simd::dot8(a.pairs[p].q, keys, a.d_head, raw[p]);
      simd::scale(raw[p], a.scale, 8);
    }
  }
  // The factor that turns a softmax weight into the slot's mix coefficient
  // for 32-value tile t, and the value decoders.
  float v_scale(size_t, size_t) const { return 1.0f; }
  float v_elem(size_t j, size_t e) const { return v_row(j)[e]; }
#if defined(PC_SIMD_AVX2)
  __m256 v_chunk(size_t j, size_t c) const {
    return _mm256_loadu_ps(v_row(j) + 8 * c);
  }
#endif
};

// Q8_0 module rows mixed with fp32 rows (the owned tail).
struct Q8Rows {
  const int8_t* const* k8;
  const int8_t* const* v8;
  const float* k_scales;
  const float* v_scales;
  const float* const* k;
  const float* const* v;
  size_t off;
  // Each query head quantized once per pass; its error is shared by every
  // q8 score of the pass, so score order within a module follows the
  // per-row K scales alone.
  int8_t q8[kMaxPairs][kMaxDHead];
  float fix[kMaxPairs];  // scale * q_scale; a slot's fixup is fix * k_scale

  Q8Rows(const AttnKV& kv)
      : k8(kv.k8), v8(kv.v8), k_scales(kv.k8_scales), v_scales(kv.v8_scales),
        k(kv.k_rows), v(kv.v_rows), off(kv.head_off) {}

  void prepare(const Attn& a) {
    PC_CHECK_MSG(a.d_head <= kMaxDHead,
                 "attn_fused_q8_gather: d_head too large");
    for (size_t p = 0; p < a.n_pairs; ++p) {
      fix[p] = quantize_query(a.pairs[p].q, a.d_head, a.scale, q8[p]);
    }
  }
  void score(const Attn& a, const size_t* js, Raw& raw) const {
    if (std::all_of(js, js + 8, [&](size_t j) { return k8[j] != nullptr; })) {
      const int8_t* keys[8];  // a block of module rows: eight keys per call
      for (size_t r = 0; r < 8; ++r) keys[r] = k8[js[r]] + off;
      for (size_t p = 0; p < a.n_pairs; ++p) {
        int32_t d[8];
        simd::dot8_i8(q8[p], keys, a.d_head, d);
        for (size_t r = 0; r < 8; ++r) {
          raw[p][r] = static_cast<float>(d[r]) * (fix[p] * k_scales[js[r]]);
        }
      }
      return;
    }
    for (size_t r = 0; r < 8; ++r) {
      const size_t j = js[r];
      for (size_t p = 0; p < a.n_pairs; ++p) {
        if (k8[j] != nullptr) {
          const int32_t d = simd::dot_i8(q8[p], k8[j] + off, a.d_head);
          raw[p][r] = static_cast<float>(d) * (fix[p] * k_scales[j]);
        } else {
          raw[p][r] = simd::dot(a.pairs[p].q, k[j] + off, a.d_head) * a.scale;
        }
      }
    }
  }
  float v_scale(size_t j, size_t) const {
    return v8[j] != nullptr ? v_scales[j] : 1.0f;
  }
  float v_elem(size_t j, size_t e) const {
    return v8[j] != nullptr ? static_cast<float>(v8[j][off + e])
                            : v[j][off + e];
  }
#if defined(PC_SIMD_AVX2)
  __m256 v_chunk(size_t j, size_t c) const {
    if (v8[j] == nullptr) return _mm256_loadu_ps(v[j] + off + 8 * c);
    const __m128i bytes = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(v8[j] + off + 8 * c));
    return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
  }
#endif
};

// Q4_0 module rows mixed with fp32 rows. Rows index whole blocks: the head
// slice starts at block off / 32.
struct Q4Rows {
  const uint8_t* const* k4;
  const uint8_t* const* v4;
  const float* const* k4_scales;
  const float* const* v4_scales;
  const float* const* k;
  const float* const* v;
  size_t off;
  size_t n_blocks = 0;
  // The int8 query, zero-padded to whole blocks: padded lanes multiply
  // whatever nibbles sit past d_head and add exactly 0 to both the nibble
  // products and the block sums, so a slice ending mid-block stays exact.
  int8_t q8[kMaxPairs][kMaxDHead + 32];
  int32_t q_sums[kMaxPairs][(kMaxDHead + 31) / 32 + 1];
  float fix[kMaxPairs];

  Q4Rows(const AttnKV& kv)
      : k4(kv.k4), v4(kv.v4), k4_scales(kv.k4_scales),
        v4_scales(kv.v4_scales), k(kv.k_rows), v(kv.v_rows),
        off(kv.head_off) {}

  size_t blk_off() const { return off / 32; }
  size_t byte_off() const { return blk_off() * 16; }

  void prepare(const Attn& a) {
    PC_CHECK_MSG(a.d_head <= kMaxDHead,
                 "attn_fused_q4_gather: d_head too large");
    PC_CHECK_MSG(off % 32 == 0,
                 "attn_fused_q4_gather: head_off must be 32-aligned (Q4_0 "
                 "blocks); models with d_head % 32 != 0 and n_kv_heads > 1 "
                 "cannot serve q4");
    n_blocks = (a.d_head + 31) / 32;
    for (size_t p = 0; p < a.n_pairs; ++p) {
      fix[p] = quantize_query(a.pairs[p].q, a.d_head, a.scale, q8[p]);
      std::fill(q8[p] + a.d_head, q8[p] + n_blocks * 32, int8_t{0});
      for (size_t b = 0; b < n_blocks; ++b) {
        int32_t s = 0;
        for (size_t i = 0; i < 32; ++i) s += q8[p][b * 32 + i];
        q_sums[p][b] = s;
      }
    }
  }
  void score(const Attn& a, const size_t* js, Raw& raw) const {
    if (std::all_of(js, js + 8, [&](size_t j) { return k4[j] != nullptr; })) {
      const uint8_t* keys[8];  // a block of module rows: eight keys per call
      const float* scales[8];
      for (size_t r = 0; r < 8; ++r) {
        keys[r] = k4[js[r]] + byte_off();
        scales[r] = k4_scales[js[r]] + blk_off();
      }
      for (size_t p = 0; p < a.n_pairs; ++p) {
        simd::dot8_i4i8(q8[p], keys, scales, q_sums[p], n_blocks, raw[p]);
        simd::scale(raw[p], fix[p], 8);
      }
      return;
    }
    for (size_t r = 0; r < 8; ++r) {
      const size_t j = js[r];
      for (size_t p = 0; p < a.n_pairs; ++p) {
        if (k4[j] != nullptr) {
          raw[p][r] = simd::dot_i4i8(q8[p], k4[j] + byte_off(),
                                     k4_scales[j] + blk_off(), q_sums[p],
                                     n_blocks) *
                      fix[p];
        } else {
          raw[p][r] = simd::dot(a.pairs[p].q, k[j] + off, a.d_head) * a.scale;
        }
      }
    }
  }
  float v_scale(size_t j, size_t t) const {
    return v4[j] != nullptr ? v4_scales[j][blk_off() + t] : 1.0f;
  }
  float v_elem(size_t j, size_t e) const {
    if (v4[j] == nullptr) return v[j][off + e];
    const size_t i = e % 32;
    const uint8_t byte = v4[j][byte_off() + (e / 32) * 16 + (i & 15)];
    const int nib = i < 16 ? (byte & 0x0f) : (byte >> 4);
    return static_cast<float>(nib - 8);
  }
#if defined(PC_SIMD_AVX2)
  // Chunk c holds elements [8c, 8c + 8): block c / 4, whose elements 0..15
  // are the low nibbles of its 16 bytes and 16..31 the high nibbles.
  __m256 v_chunk(size_t j, size_t c) const {
    if (v4[j] == nullptr) return _mm256_loadu_ps(v[j] + off + 8 * c);
    const size_t part = c % 4;
    __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
        v4[j] + byte_off() + (c / 4) * 16 + (part & 1) * 8));
    if (part >= 2) bytes = _mm_srli_epi16(bytes, 4);
    const __m128i nib = _mm_sub_epi8(
        _mm_and_si128(bytes, _mm_set1_epi8(0x0f)), _mm_set1_epi8(8));
    return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(nib));
  }
#endif
};

// A pair's running row max over the scored blocks: exact in any lane order.
#if defined(PC_SIMD_AVX2)
using RowMax = __m256;
#else
using RowMax = float;
#endif

// Step 1 for the eight slots at j0: raw scores for every pair, then per
// pair the ALiBi bias fma(-slope, rel, s) and -inf on masked lanes, stored
// for the lanes inside its row's context and folded into its row max.
template <typename Rows>
void score_block(const Rows& rows, const Attn& a, size_t j0, RowMax* mx) {
  size_t cnt[kAttnRowBlock];
  unsigned live[kAttnRowBlock];
  unsigned any = 0;
  for (size_t i = 0; i < a.n_rows; ++i) {
    const AttnRow& row = a.rows[i];
    cnt[i] = j0 < row.n_ctx ? std::min<size_t>(8, row.n_ctx - j0) : 0;
    live[i] = (1u << cnt[i]) - 1;
    if (row.masked != nullptr) {
      for (size_t r = 0; r < cnt[i]; ++r) {
        if (row.masked[j0 + r] != 0) live[i] &= ~(1u << r);
      }
    }
    any |= live[i];
  }
  Raw raw;
  if (any != 0) {
    // Lanes no row reads take a live lane's slot; their scores are dropped.
    size_t js[8];
    for (size_t r = 0; r < 8; ++r) js[r] = j0 + r;
    if (any != 0xff) {
      const size_t alias = j0 + static_cast<size_t>(__builtin_ctz(any));
      for (size_t r = 0; r < 8; ++r) {
        if ((any >> r & 1) == 0) js[r] = alias;
      }
    }
    rows.score(a, js, raw);
  }
  for (size_t i = 0; i < a.n_rows; ++i) {
    const AttnRow& row = a.rows[i];
    if (cnt[i] == 0) continue;  // past this row's context
    if (live[i] == 0) {  // fully masked for this row: nothing to score
      for (size_t h = 0; h < a.n_q; ++h) {
        std::fill_n(row.scores + h * row.n_ctx + j0, cnt[i], kNegInf);
      }
      continue;
    }
#if defined(PC_SIMD_AVX2)
    if (live[i] == 0xff && row.rel_pos == nullptr) {  // nothing to add or mask
      for (size_t h = 0; h < a.n_q; ++h) {
        const size_t p = i * a.n_q + h;
        const __m256 s = _mm256_loadu_ps(raw[p]);
        _mm256_storeu_ps(row.scores + h * row.n_ctx + j0, s);
        mx[p] = _mm256_max_ps(mx[p], s);
      }
      continue;
    }
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i in_ctx =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cnt[i])), lane);
    const __m256 rel = row.rel_pos != nullptr
                           ? _mm256_maskload_ps(row.rel_pos + j0, in_ctx)
                           : _mm256_setzero_ps();
    const __m256 dead = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(live[i])),
                         _mm256_sllv_epi32(_mm256_set1_epi32(1), lane)),
        _mm256_setzero_si256()));
    for (size_t h = 0; h < a.n_q; ++h) {
      const size_t p = i * a.n_q + h;
      float* srow = row.scores + h * row.n_ctx + j0;
      __m256 s = _mm256_loadu_ps(raw[p]);
      if (row.rel_pos != nullptr) {
        s = simd::detail::fma8(_mm256_set1_ps(-a.slopes[h]), rel, s);
      }
      if (live[i] == 0xff) {  // eight live slots: nothing to blend
        _mm256_storeu_ps(srow, s);
      } else {
        s = _mm256_blendv_ps(s, _mm256_set1_ps(kNegInf), dead);
        _mm256_maskstore_ps(srow, in_ctx, s);
      }
      mx[p] = _mm256_max_ps(mx[p], s);
    }
#else
    for (size_t h = 0; h < a.n_q; ++h) {
      const size_t p = i * a.n_q + h;
      float* srow = row.scores + h * row.n_ctx + j0;
      for (size_t r = 0; r < cnt[i]; ++r) {
        float s = raw[p][r];
        if (row.rel_pos != nullptr) s += -a.slopes[h] * row.rel_pos[j0 + r];
        srow[r] = (live[i] >> r & 1) != 0 ? s : kNegInf;
        mx[p] = mx[p] > srow[r] ? mx[p] : srow[r];
      }
    }
#endif
  }
}

// Step 1 over the whole context; returns each pair's row max in mx.
template <typename Rows>
void score_rows(const Rows& rows, const Attn& a, float* mx) {
  RowMax acc[kMaxPairs];
#if defined(PC_SIMD_AVX2)
  std::fill_n(acc, a.n_pairs, _mm256_set1_ps(kNegInf));
#else
  std::fill_n(acc, a.n_pairs, kNegInf);
#endif
  for (size_t j0 = 0; j0 < a.n_ctx; j0 += 8) score_block(rows, a, j0, acc);
  for (size_t p = 0; p < a.n_pairs; ++p) {
#if defined(PC_SIMD_AVX2)
    float lanes[8];
    _mm256_storeu_ps(lanes, acc[p]);
    mx[p] = simd::reduce_max(lanes, 8);
#else
    mx[p] = acc[p];
#endif
  }
}

#if defined(PC_SIMD_AVX2)
// out[r] lane c = v[c] lane r: an 8x8 transpose.
void transpose8(const __m256* v, __m256* out) {
  __m256 t[8];
  for (size_t i = 0; i < 4; ++i) {
    t[2 * i] = _mm256_unpacklo_ps(v[2 * i], v[2 * i + 1]);
    t[2 * i + 1] = _mm256_unpackhi_ps(v[2 * i], v[2 * i + 1]);
  }
  __m256 u[8];
  for (size_t i = 0; i < 2; ++i) {
    for (size_t k = 0; k < 2; ++k) {  // k = 0: columns 2k, 2k + 1 of the half
      const __m256 lo = t[4 * i + k], hi = t[4 * i + k + 2];
      u[4 * i + 2 * k] = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(1, 0, 1, 0));
      u[4 * i + 2 * k + 1] = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 2, 3, 2));
    }
  }
  for (size_t r = 0; r < 4; ++r) {
    out[r] = _mm256_permute2f128_ps(u[r], u[r + 4], 0x20);
    out[r + 4] = _mm256_permute2f128_ps(u[r], u[r + 4], 0x31);
  }
}
#endif

// Step 2: each pair's row becomes its softmax weights: exp block by block,
// a strictly sequential sum in slot order, normalization. kChains pairs
// sum together as independent add chains (on AVX2 one vector lane each,
// fed by a transpose of the pairs' blocks); a lane past its row's context
// adds +0, which leaves a sum of non-negative weights bit for bit. A fully
// masked block (all -inf) holds exact zeros and adds nothing, so it skips
// the exp; an all-masked pair gets zero weights.
#if defined(PC_SIMD_AVX2)
// One pair's weights of the eight slots at j0, stored over its scores and
// returned: simd::exp_nonpos's lanes, +0 past the row's context, and exact
// zeros for a block masked in full, which skips the exp.
__m256 exp_block(const Attn::Pair& pair, float mx, size_t j0) {
  const __m256 zero = _mm256_setzero_ps();
  if (j0 >= pair.n_ctx || mx == kNegInf) return zero;
  float* s = pair.scores + j0;
  const int cnt = static_cast<int>(std::min<size_t>(8, pair.n_ctx - j0));
  const __m256i live = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(cnt), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256 x =
      cnt == 8 ? _mm256_loadu_ps(s) : _mm256_maskload_ps(s, live);
  const int in_ctx = (1 << cnt) - 1;
  const int neg_inf = _mm256_movemask_ps(
      _mm256_cmp_ps(x, _mm256_set1_ps(kNegInf), _CMP_EQ_OQ));
  if ((neg_inf & in_ctx) == in_ctx) {
    _mm256_maskstore_ps(s, live, zero);
    return zero;
  }
  const __m256 w = simd::detail::exp8(_mm256_sub_ps(x, _mm256_set1_ps(mx)));
  if (cnt == 8) {
    _mm256_storeu_ps(s, w);
    return w;
  }
  _mm256_maskstore_ps(s, live, w);
  return _mm256_and_ps(w, _mm256_castsi256_ps(live));
}
#endif

void softmax_rows(const Attn& a, const float* mx) {
  for (size_t p0 = 0; p0 < a.n_pairs; p0 += kChains) {
    const size_t n = std::min(kChains, a.n_pairs - p0);
    size_t n_ctx = 0;
    for (size_t c = 0; c < n; ++c) {
      n_ctx = std::max(n_ctx, a.pairs[p0 + c].n_ctx);
    }
#if defined(PC_SIMD_AVX2)
    __m256 sums = _mm256_setzero_ps();  // lane c: chain c
    for (size_t j0 = 0; j0 < n_ctx; j0 += 8) {
      __m256 v[kChains], slot[8];
      for (size_t c = 0; c < kChains; ++c) {
        v[c] = c < n ? exp_block(a.pairs[p0 + c], mx[p0 + c], j0)
                     : _mm256_setzero_ps();
      }
      transpose8(v, slot);
      for (size_t r = 0; r < 8; ++r) sums = _mm256_add_ps(sums, slot[r]);
    }
    float sum[kChains];
    _mm256_storeu_ps(sum, sums);
#else
    float sum[kChains] = {};
    for (size_t j0 = 0; j0 < n_ctx; j0 += 8) {
      float w[kChains][8] = {};  // chain c's weights of the block
      for (size_t c = 0; c < n; ++c) {
        const size_t p = p0 + c;
        if (j0 >= a.pairs[p].n_ctx || mx[p] == kNegInf) continue;
        const size_t cnt = std::min<size_t>(8, a.pairs[p].n_ctx - j0);
        float* s = a.pairs[p].scores + j0;
        if (std::all_of(s, s + cnt, [](float x) { return x == kNegInf; })) {
          std::fill(s, s + cnt, 0.0f);
          continue;
        }
        simd::exp_nonpos(s, mx[p], s, cnt);
        std::copy(s, s + cnt, w[c]);
      }
      for (size_t r = 0; r < 8; ++r) {
        for (size_t c = 0; c < kChains; ++c) sum[c] += w[c][r];
      }
    }
#endif
    for (size_t c = 0; c < n; ++c) {
      const size_t p = p0 + c;
      float* row = a.pairs[p].scores;
      if (mx[p] == kNegInf) {
        std::fill(row, row + a.pairs[p].n_ctx, 0.0f);
      } else {
        simd::scale(row, 1.0f / sum[c], a.pairs[p].n_ctx);
      }
    }
  }
}

// Step 3, element by element: out[e] accumulates alpha * V_j[e] in slot
// order from 0, skipping zero weights, with alpha = w * v_scale. Used for
// every pair on builds without AVX2 and for the d_head % 8 tail on AVX2;
// the arithmetic is the simd axpy kernels' (fma1 rounds like their vector
// bodies).
template <typename Rows>
void mix_elems(const Rows& rows, const Attn& a, size_t e_begin) {
  for (size_t p = 0; p < a.n_pairs; ++p) {
    const float* w = a.pairs[p].scores;
    float* out = a.pairs[p].out;
    std::fill(out + e_begin, out + a.d_head, 0.0f);
    for (size_t j = 0; j < a.pairs[p].n_ctx; ++j) {
      if (w[j] == 0.0f) continue;
      for (size_t e = e_begin; e < a.d_head; ++e) {
        const float alpha = w[j] * rows.v_scale(j, e / 32);
        out[e] = simd::detail::fma1(alpha, rows.v_elem(j, e), out[e]);
      }
    }
  }
}

#if defined(PC_SIMD_AVX2)
// Step 3 on AVX2 for G pairs from p0 and one tile of C <= 4 chunks (8 lanes
// each) starting at chunk c0 inside one Q4_0 block: the tile's output stays
// in registers while every slot's value chunks are decoded once and mixed
// into all G pairs. Per lane this is simd::axpy's FMA sequence.
template <size_t G, size_t C, typename Rows>
void mix_tile(const Rows& rows, const Attn& a, size_t p0, size_t c0) {
  const float* w[G];
  size_t ctx[G];
  size_t n_ctx = 0;
  for (size_t g = 0; g < G; ++g) {
    w[g] = a.pairs[p0 + g].scores;
    ctx[g] = a.pairs[p0 + g].n_ctx;
    n_ctx = std::max(n_ctx, ctx[g]);
  }
  __m256 acc[G][C];
  for (size_t g = 0; g < G; ++g) {
    for (size_t c = 0; c < C; ++c) acc[g][c] = _mm256_setzero_ps();
  }
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (size_t j0 = 0; j0 < n_ctx; j0 += 8) {
    // Which of the block's slots carry a nonzero weight, per pair.
    unsigned nz[G];
    unsigned any = 0;
    unsigned all = 0xff;
    for (size_t g = 0; g < G; ++g) {
      nz[g] = 0;
      if (j0 >= ctx[g]) {
        all = 0;
        continue;
      }
      const size_t cnt = std::min<size_t>(8, ctx[g] - j0);
      const __m256i in_ctx =
          _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cnt)), lane);
      const __m256 wv = _mm256_maskload_ps(w[g] + j0, in_ctx);
      nz[g] = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(wv, _mm256_setzero_ps(), _CMP_NEQ_UQ)));
      any |= nz[g];
      all &= nz[g];
    }
    // Slot r of the block into every pair whose bit `live` has.
    const auto mix_slot = [&](size_t r, auto live) {
      const size_t j = j0 + r;
      const float vs = rows.v_scale(j, c0 / 4);
      __m256 x[C];
      for (size_t c = 0; c < C; ++c) x[c] = rows.v_chunk(j, c0 + c);
      for (size_t g = 0; g < G; ++g) {
        if (!live(g)) continue;  // zero weight: skip the slot
        const __m256 alpha = _mm256_set1_ps(w[g][j] * vs);
        for (size_t c = 0; c < C; ++c) {
          acc[g][c] = simd::detail::fma8(alpha, x[c], acc[g][c]);
        }
      }
    };
    if (all == 0xff) {  // every weight of the block nonzero: no skips
      for (size_t r = 0; r < 8; ++r) mix_slot(r, [](size_t) { return true; });
      continue;
    }
    for (; any != 0; any &= any - 1) {
      const size_t r = static_cast<size_t>(__builtin_ctz(any));
      mix_slot(r, [&](size_t g) { return (nz[g] >> r & 1) != 0; });
    }
  }
  for (size_t g = 0; g < G; ++g) {
    float* out = a.pairs[p0 + g].out + 8 * c0;
    for (size_t c = 0; c < C; ++c) _mm256_storeu_ps(out + 8 * c, acc[g][c]);
  }
}

// G pairs' whole d_head & ~7 values, in tiles of at most eight
// accumulators: four chunks for up to two pairs, two for more.
template <size_t G, typename Rows>
void mix_pairs(const Rows& rows, const Attn& a, size_t p0) {
  constexpr size_t C = G <= 2 ? 4 : 2;
  const size_t n_chunks = a.d_head / 8;
  size_t c0 = 0;
  for (; c0 + C <= n_chunks; c0 += C) mix_tile<G, C>(rows, a, p0, c0);
  if constexpr (C == 4) {
    if (n_chunks - c0 == 3) mix_tile<G, 3>(rows, a, p0, c0);
    if (n_chunks - c0 == 2) mix_tile<G, 2>(rows, a, p0, c0);
  }
  if (n_chunks - c0 == 1) mix_tile<G, 1>(rows, a, p0, c0);
}
#endif

template <typename Rows>
void mix(const Rows& rows, const Attn& a) {
#if defined(PC_SIMD_AVX2)
  size_t p = 0;
  for (; p + 4 <= a.n_pairs; p += 4) mix_pairs<4>(rows, a, p);
  switch (a.n_pairs - p) {
    case 3: mix_pairs<3>(rows, a, p); break;
    case 2: mix_pairs<2>(rows, a, p); break;
    case 1: mix_pairs<1>(rows, a, p); break;
    default: break;
  }
  if (a.d_head % 8 != 0) mix_elems(rows, a, a.d_head & ~size_t{7});
#else
  mix_elems(rows, a, 0);
#endif
}

// Runs the rows in blocks of kAttnRowBlock and the group in slices of
// kMaxGroup heads, each pass after the format's query set-up (`prepare`:
// the q8/q4 query quantization). A row with no context gets a zero output.
template <typename Rows>
void attend(Rows& rows, const AttnRow* in, size_t n_rows, size_t n_q,
            size_t d_head, float scale, const float* slopes) {
  for (size_t b = 0; b < n_rows; b += kAttnRowBlock) {
    for (size_t h0 = 0; h0 < n_q; h0 += kMaxGroup) {
      Attn a;
      a.n_q = std::min(kMaxGroup, n_q - h0);
      a.d_head = d_head;
      a.scale = scale;
      a.slopes = slopes != nullptr ? slopes + h0 : nullptr;
      for (size_t r = b; r < std::min(n_rows, b + kAttnRowBlock); ++r) {
        float* out = in[r].out + h0 * d_head;
        if (in[r].n_ctx == 0) {
          std::fill(out, out + a.n_q * d_head, 0.0f);
          continue;
        }
        a.add_row({in[r].q + h0 * d_head, in[r].n_ctx, in[r].rel_pos,
                   in[r].masked, in[r].scores + h0 * in[r].n_ctx, out});
      }
      rows.prepare(a);
      if (a.n_rows == 0) continue;
      float mx[kMaxPairs];
      score_rows(rows, a, mx);
      softmax_rows(a, mx);
      mix(rows, a);
    }
  }
}

}  // namespace

void attn_fused(const AttnKV& kv, const AttnRow* rows, size_t n_rows,
                size_t n_q, size_t d_head, float scale,
                const float* alibi_slopes) {
  if (kv.k4 != nullptr) {
    Q4Rows fmt(kv);
    attend(fmt, rows, n_rows, n_q, d_head, scale, alibi_slopes);
  } else if (kv.k8 != nullptr) {
    Q8Rows fmt(kv);
    attend(fmt, rows, n_rows, n_q, d_head, scale, alibi_slopes);
  } else if (kv.k_rows != nullptr) {
    F32Rows fmt{[k = kv.k_rows, off = kv.head_off](size_t j) {
                  return k[j] + off;
                },
                [v = kv.v_rows, off = kv.head_off](size_t j) {
                  return v[j] + off;
                }};
    attend(fmt, rows, n_rows, n_q, d_head, scale, alibi_slopes);
  } else {
    F32Rows fmt{[k = kv.k, stride = kv.row_stride](size_t j) {
                  return k + j * stride;
                },
                [v = kv.v, stride = kv.row_stride](size_t j) {
                  return v + j * stride;
                }};
    attend(fmt, rows, n_rows, n_q, d_head, scale, alibi_slopes);
  }
}

void attn_fused_contig(const float* q, const float* k, const float* v,
                       size_t row_stride, size_t d_head, size_t n_ctx,
                       float scale, const float* alibi_slopes,
                       const float* rel_pos, const uint8_t* masked,
                       float* scores, float* out, size_t n_q) {
  const AttnRow row{q, n_ctx, rel_pos, masked, scores, out};
  attn_fused({.k = k, .v = v, .row_stride = row_stride}, &row, 1, n_q, d_head,
             scale, alibi_slopes);
}

void attn_fused_gather(const float* q, const float* const* k_rows,
                       const float* const* v_rows, size_t head_off,
                       size_t d_head, size_t n_ctx, float scale,
                       const float* alibi_slopes, const float* rel_pos,
                       const uint8_t* masked, float* scores, float* out,
                       size_t n_q) {
  const AttnRow row{q, n_ctx, rel_pos, masked, scores, out};
  attn_fused({.k_rows = k_rows, .v_rows = v_rows, .head_off = head_off}, &row,
             1, n_q, d_head, scale, alibi_slopes);
}

void attn_fused_q8_gather(const float* q, const int8_t* const* k8_rows,
                          const int8_t* const* v8_rows, const float* k_scales,
                          const float* v_scales, const float* const* k_rows,
                          const float* const* v_rows, size_t head_off,
                          size_t d_head, size_t n_ctx, float scale,
                          const float* alibi_slopes, const float* rel_pos,
                          const uint8_t* masked, float* scores, float* out,
                          size_t n_q) {
  const AttnRow row{q, n_ctx, rel_pos, masked, scores, out};
  attn_fused({.k_rows = k_rows,
              .v_rows = v_rows,
              .head_off = head_off,
              .k8 = k8_rows,
              .v8 = v8_rows,
              .k8_scales = k_scales,
              .v8_scales = v_scales},
             &row, 1, n_q, d_head, scale, alibi_slopes);
}

void attn_fused_q4_gather(const float* q, const uint8_t* const* k4_rows,
                          const uint8_t* const* v4_rows,
                          const float* const* k4_scales,
                          const float* const* v4_scales,
                          const float* const* k_rows,
                          const float* const* v_rows, size_t head_off,
                          size_t d_head, size_t n_ctx, float scale,
                          const float* alibi_slopes, const float* rel_pos,
                          const uint8_t* masked, float* scores, float* out,
                          size_t n_q) {
  const AttnRow row{q, n_ctx, rel_pos, masked, scores, out};
  attn_fused({.k_rows = k_rows,
              .v_rows = v_rows,
              .head_off = head_off,
              .k4 = k4_rows,
              .v4 = v4_rows,
              .k4_scales = k4_scales,
              .v4_scales = v4_scales},
             &row, 1, n_q, d_head, scale, alibi_slopes);
}

// ---- Tensor wrappers -------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  PC_CHECK_MSG(a.ndim() == 2 && b.ndim() == 2, "matmul needs 2-D tensors");
  PC_CHECK_MSG(a.dim(1) == b.dim(0), "matmul inner-dim mismatch: "
                                         << a.shape_str() << " x "
                                         << b.shape_str());
  Tensor out({a.dim(0), b.dim(1)});
  gemm(a.data(), b.data(), out.data(), static_cast<size_t>(a.dim(0)),
       static_cast<size_t>(a.dim(1)), static_cast<size_t>(b.dim(1)));
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b_t) {
  PC_CHECK_MSG(a.ndim() == 2 && b_t.ndim() == 2, "matmul_nt needs 2-D tensors");
  PC_CHECK_MSG(a.dim(1) == b_t.dim(1), "matmul_nt inner-dim mismatch: "
                                           << a.shape_str() << " x "
                                           << b_t.shape_str() << "^T");
  Tensor out({a.dim(0), b_t.dim(0)});
  gemm_nt(a.data(), b_t.data(), out.data(), static_cast<size_t>(a.dim(0)),
          static_cast<size_t>(a.dim(1)), static_cast<size_t>(b_t.dim(0)));
  return out;
}

namespace {

// Elementwise ops parallelize only when the tensor is large enough to
// amortize pool wakeup; lane or chunk splitting is safe here because every
// output element depends on its own inputs alone.
constexpr size_t kElementwiseParallelThreshold = size_t{1} << 17;

void for_span(size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n < kElementwiseParallelThreshold || ThreadPool::global().size() <= 1) {
    fn(0, n);
  } else {
    ThreadPool::global().parallel_for(n, fn);
  }
}

}  // namespace

void add_inplace(Tensor& a, const Tensor& b) {
  PC_CHECK_MSG(a.shape() == b.shape(), "add_inplace shape mismatch");
  float* pa = a.data();
  const float* pb = b.data();
  for_span(a.numel(), [&](size_t begin, size_t end) {
    simd::add(pa + begin, pb + begin, end - begin);
  });
}

void scale_inplace(Tensor& a, float s) {
  float* pa = a.data();
  for_span(a.numel(), [&](size_t begin, size_t end) {
    simd::scale(pa + begin, s, end - begin);
  });
}

void mul_inplace(Tensor& a, const Tensor& b) {
  PC_CHECK_MSG(a.shape() == b.shape(), "mul_inplace shape mismatch");
  float* pa = a.data();
  const float* pb = b.data();
  for_span(a.numel(), [&](size_t begin, size_t end) {
    simd::mul(pa + begin, pb + begin, end - begin);
  });
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  PC_CHECK_MSG(a.shape() == b.shape(), "max_abs_diff shape mismatch");
  float mx = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (size_t i = 0; i < a.numel(); ++i) {
    mx = std::max(mx, std::abs(pa[i] - pb[i]));
  }
  return mx;
}

}  // namespace pc
