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
// One core serves every row format. A call attends the n_q query heads of a
// GQA group to their shared KV head, so each K/V row is read once per group:
//   1. scores, eight slots at a time (fully masked blocks are not scored);
//   2. per head, the row max, exp, a strictly sequential sum and the
//      normalization;
//   3. the value mix, in slot order, skipping zero weights.
// A row format (F32Rows, Q8Rows, Q4Rows) supplies the scoring of a block and
// the decoding of value rows; everything else is shared.

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();
// Query heads per pass over the rows; larger groups run in slices.
constexpr size_t kMaxGroup = 8;
// Query quantization scratch of the q8/q4 formats.
constexpr size_t kMaxDHead = 1024;

// The arguments every format shares; see ops.h.
struct Attn {
  const float* q;
  size_t n_q;
  size_t d_head;
  size_t n_ctx;
  float scale;
  const float* slopes;
  const float* rel_pos;
  const uint8_t* masked;
  float* scores;
  float* out;
};

using Raw = float[kMaxGroup][8];

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
  // raw[h][r] = (q_h . K[j0 + r]) * scale for the live lanes of a block.
  // Dead lanes read a live lane's row and their scores are dropped.
  void score(const Attn& a, size_t j0, unsigned live, Raw& raw) const {
    const float* rows[8];
    if (live == 0xff) {
      for (size_t r = 0; r < 8; ++r) rows[r] = k_row(j0 + r);
    } else {
      const size_t alias = j0 + static_cast<size_t>(__builtin_ctz(live));
      for (size_t r = 0; r < 8; ++r) {
        rows[r] = k_row((live >> r & 1) != 0 ? j0 + r : alias);
      }
    }
    for (size_t h = 0; h < a.n_q; ++h) {
      simd::dot8(a.q + h * a.d_head, rows, a.d_head, raw[h]);
      simd::scale(raw[h], a.scale, 8);
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
  // Each query head quantized once per call; its error is shared by every
  // q8 score of the call, so score order within a module follows the
  // per-row K scales alone.
  int8_t q8[kMaxGroup][kMaxDHead];
  float fix[kMaxGroup];  // scale * q_scale; a slot's fixup is fix * k_scale

  Q8Rows(const int8_t* const* k8, const int8_t* const* v8,
         const float* k_scales, const float* v_scales, const float* const* k,
         const float* const* v, size_t off)
      : k8(k8), v8(v8), k_scales(k_scales), v_scales(v_scales), k(k), v(v),
        off(off) {}

  void prepare(const Attn& a) {
    PC_CHECK_MSG(a.d_head <= kMaxDHead,
                 "attn_fused_q8_gather: d_head too large");
    for (size_t h = 0; h < a.n_q; ++h) {
      fix[h] = quantize_query(a.q + h * a.d_head, a.d_head, a.scale, q8[h]);
    }
  }
  void score(const Attn& a, size_t j0, unsigned live, Raw& raw) const {
    if (live == 0xff && std::all_of(k8 + j0, k8 + j0 + 8, [](auto* row) {
          return row != nullptr;
        })) {  // a block of module rows: eight keys per call
      const int8_t* rows[8];
      for (size_t r = 0; r < 8; ++r) rows[r] = k8[j0 + r] + off;
      for (size_t h = 0; h < a.n_q; ++h) {
        int32_t d[8];
        simd::dot8_i8(q8[h], rows, a.d_head, d);
        for (size_t r = 0; r < 8; ++r) {
          raw[h][r] = static_cast<float>(d[r]) * (fix[h] * k_scales[j0 + r]);
        }
      }
      return;
    }
    for (size_t r = 0; r < 8; ++r) {
      if ((live >> r & 1) == 0) continue;
      const size_t j = j0 + r;
      for (size_t h = 0; h < a.n_q; ++h) {
        if (k8[j] != nullptr) {
          const int32_t d = simd::dot_i8(q8[h], k8[j] + off, a.d_head);
          raw[h][r] = static_cast<float>(d) * (fix[h] * k_scales[j]);
        } else {
          raw[h][r] = simd::dot(a.q + h * a.d_head, k[j] + off, a.d_head) *
                      a.scale;
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
  int8_t q8[kMaxGroup][kMaxDHead + 32];
  int32_t q_sums[kMaxGroup][(kMaxDHead + 31) / 32 + 1];
  float fix[kMaxGroup];

  Q4Rows(const uint8_t* const* k4, const uint8_t* const* v4,
         const float* const* k4_scales, const float* const* v4_scales,
         const float* const* k, const float* const* v, size_t off)
      : k4(k4), v4(v4), k4_scales(k4_scales), v4_scales(v4_scales), k(k),
        v(v), off(off) {}

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
    for (size_t h = 0; h < a.n_q; ++h) {
      fix[h] = quantize_query(a.q + h * a.d_head, a.d_head, a.scale, q8[h]);
      std::fill(q8[h] + a.d_head, q8[h] + n_blocks * 32, int8_t{0});
      for (size_t b = 0; b < n_blocks; ++b) {
        int32_t s = 0;
        for (size_t i = 0; i < 32; ++i) s += q8[h][b * 32 + i];
        q_sums[h][b] = s;
      }
    }
  }
  void score(const Attn& a, size_t j0, unsigned live, Raw& raw) const {
    if (live == 0xff && std::all_of(k4 + j0, k4 + j0 + 8, [](auto* row) {
          return row != nullptr;
        })) {  // a block of module rows: eight keys per call
      const uint8_t* rows[8];
      const float* scales[8];
      for (size_t r = 0; r < 8; ++r) {
        rows[r] = k4[j0 + r] + byte_off();
        scales[r] = k4_scales[j0 + r] + blk_off();
      }
      for (size_t h = 0; h < a.n_q; ++h) {
        simd::dot8_i4i8(q8[h], rows, scales, q_sums[h], n_blocks, raw[h]);
        simd::scale(raw[h], fix[h], 8);
      }
      return;
    }
    for (size_t r = 0; r < 8; ++r) {
      if ((live >> r & 1) == 0) continue;
      const size_t j = j0 + r;
      for (size_t h = 0; h < a.n_q; ++h) {
        if (k4[j] != nullptr) {
          raw[h][r] = simd::dot_i4i8(q8[h], k4[j] + byte_off(),
                                     k4_scales[j] + blk_off(), q_sums[h],
                                     n_blocks) *
                      fix[h];
        } else {
          raw[h][r] = simd::dot(a.q + h * a.d_head, k[j] + off, a.d_head) *
                      a.scale;
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

// Step 1 for one block of up to 8 slots: raw scores, then the ALiBi bias
// fma(-slope, rel, s) and -inf on masked lanes.
template <typename Rows>
void score_block(const Rows& rows, const Attn& a, size_t j0) {
  const size_t cnt = std::min<size_t>(8, a.n_ctx - j0);
  unsigned live = (1u << cnt) - 1;
  if (a.masked != nullptr) {
    for (size_t r = 0; r < cnt; ++r) {
      if (a.masked[j0 + r] != 0) live &= ~(1u << r);
    }
  }
  if (live == 0) {  // fully masked: nothing to score
    for (size_t h = 0; h < a.n_q; ++h) {
      std::fill_n(a.scores + h * a.n_ctx + j0, cnt, kNegInf);
    }
    return;
  }
  Raw raw{};
  rows.score(a, j0, live, raw);
#if defined(PC_SIMD_AVX2)
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i in_ctx =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cnt)), lane);
  const __m256 dead = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
      _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(live)),
                       _mm256_sllv_epi32(_mm256_set1_epi32(1), lane)),
      _mm256_setzero_si256()));
  const __m256 rel = a.rel_pos != nullptr
                         ? _mm256_maskload_ps(a.rel_pos + j0, in_ctx)
                         : _mm256_setzero_ps();
  for (size_t h = 0; h < a.n_q; ++h) {
    __m256 s = _mm256_loadu_ps(raw[h]);
    if (a.rel_pos != nullptr) {
      s = simd::detail::fma8(_mm256_set1_ps(-a.slopes[h]), rel, s);
    }
    s = _mm256_blendv_ps(s, _mm256_set1_ps(kNegInf), dead);
    _mm256_maskstore_ps(a.scores + h * a.n_ctx + j0, in_ctx, s);
  }
#else
  for (size_t h = 0; h < a.n_q; ++h) {
    float* srow = a.scores + h * a.n_ctx + j0;
    for (size_t r = 0; r < cnt; ++r) {
      float s = raw[h][r];
      if (a.rel_pos != nullptr) s += -a.slopes[h] * a.rel_pos[j0 + r];
      srow[r] = (live >> r & 1) != 0 ? s : kNegInf;
    }
  }
#endif
}

// Step 2: each head's row becomes its softmax weights: row max, exp, a
// strictly sequential sum in slot order, normalization. A fully masked
// block (all -inf) holds exact zeros and adds nothing, so it skips the exp;
// an all-masked head gets zero weights.
void softmax_rows(const Attn& a) {
  for (size_t h = 0; h < a.n_q; ++h) {
    float* row = a.scores + h * a.n_ctx;
    const float mx = simd::reduce_max(row, a.n_ctx);
    if (mx == kNegInf) {
      std::fill(row, row + a.n_ctx, 0.0f);
      continue;
    }
    float sum = 0.0f;
    for (size_t j0 = 0; j0 < a.n_ctx; j0 += 8) {
      const size_t cnt = std::min<size_t>(8, a.n_ctx - j0);
      float* w = row + j0;
      if (std::all_of(w, w + cnt, [](float s) { return s == kNegInf; })) {
        std::fill(w, w + cnt, 0.0f);
        continue;
      }
      simd::exp_nonpos(w, mx, w, cnt);
      for (size_t r = 0; r < cnt; ++r) sum += w[r];
    }
    simd::scale(row, 1.0f / sum, a.n_ctx);
  }
}

// Step 3, element by element: out[e] accumulates alpha * V_j[e] in slot
// order from 0, skipping zero weights, with alpha = w * v_scale. Used for
// the whole head on builds without AVX2 and for the d_head % 8 tail on
// AVX2; the arithmetic is the simd axpy kernels' (fma1 rounds like their
// vector bodies).
template <typename Rows>
void mix_elems(const Rows& rows, const Attn& a, size_t e_begin) {
  for (size_t h = 0; h < a.n_q; ++h) {
    const float* w = a.scores + h * a.n_ctx;
    float* out = a.out + h * a.d_head;
    std::fill(out + e_begin, out + a.d_head, 0.0f);
    for (size_t j = 0; j < a.n_ctx; ++j) {
      if (w[j] == 0.0f) continue;
      for (size_t e = e_begin; e < a.d_head; ++e) {
        const float alpha = w[j] * rows.v_scale(j, e / 32);
        out[e] = simd::detail::fma1(alpha, rows.v_elem(j, e), out[e]);
      }
    }
  }
}

#if defined(PC_SIMD_AVX2)
// Step 3 on AVX2 for H heads and one tile of C <= 4 chunks (8 lanes each)
// starting at chunk c0, i.e. at most 32 values, one Q4_0 block: the tile's
// output stays in registers while every slot's value chunks are decoded
// once and mixed into all H heads. Per lane this is simd::axpy's FMA
// sequence.
template <size_t H, size_t C, typename Rows>
void mix_tile(const Rows& rows, const Attn& a, size_t h0, size_t c0) {
  const float* w[H];
  for (size_t h = 0; h < H; ++h) w[h] = a.scores + (h0 + h) * a.n_ctx;
  __m256 acc[H][C];
  for (size_t h = 0; h < H; ++h) {
    for (size_t c = 0; c < C; ++c) acc[h][c] = _mm256_setzero_ps();
  }
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (size_t j0 = 0; j0 < a.n_ctx; j0 += 8) {
    // Which of the block's slots carry a nonzero weight, per head.
    const size_t cnt = std::min<size_t>(8, a.n_ctx - j0);
    const __m256i in_ctx =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cnt)), lane);
    unsigned nz[H];
    unsigned any = 0;
    for (size_t h = 0; h < H; ++h) {
      const __m256 wv = _mm256_maskload_ps(w[h] + j0, in_ctx);
      nz[h] = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(wv, _mm256_setzero_ps(), _CMP_NEQ_UQ)));
      any |= nz[h];
    }
    for (size_t r = 0; r < cnt; ++r) {
      if ((any >> r & 1) == 0) continue;
      const size_t j = j0 + r;
      const float vs = rows.v_scale(j, c0 / 4);
      __m256 x[C];
      for (size_t c = 0; c < C; ++c) x[c] = rows.v_chunk(j, c0 + c);
      for (size_t h = 0; h < H; ++h) {
        if ((nz[h] >> r & 1) == 0) continue;  // zero weight: skip the slot
        const __m256 alpha = _mm256_set1_ps(w[h][j] * vs);
        for (size_t c = 0; c < C; ++c) {
          acc[h][c] = simd::detail::fma8(alpha, x[c], acc[h][c]);
        }
      }
    }
  }
  for (size_t h = 0; h < H; ++h) {
    float* out = a.out + (h0 + h) * a.d_head + 8 * c0;
    for (size_t c = 0; c < C; ++c) _mm256_storeu_ps(out + 8 * c, acc[h][c]);
  }
}

template <size_t H, typename Rows>
void mix_heads(const Rows& rows, const Attn& a, size_t h0) {
  const size_t n_chunks = a.d_head / 8;
  size_t c0 = 0;
  for (; c0 + 4 <= n_chunks; c0 += 4) mix_tile<H, 4>(rows, a, h0, c0);
  switch (n_chunks - c0) {
    case 3: mix_tile<H, 3>(rows, a, h0, c0); break;
    case 2: mix_tile<H, 2>(rows, a, h0, c0); break;
    case 1: mix_tile<H, 1>(rows, a, h0, c0); break;
    default: break;
  }
}
#endif

template <typename Rows>
void mix(const Rows& rows, const Attn& a) {
#if defined(PC_SIMD_AVX2)
  size_t h = 0;
  for (; h + 2 <= a.n_q; h += 2) mix_heads<2>(rows, a, h);
  if (h < a.n_q) mix_heads<1>(rows, a, h);
  if (a.d_head % 8 != 0) mix_elems(rows, a, a.d_head & ~size_t{7});
#else
  mix_elems(rows, a, 0);
#endif
}

// Runs a group in slices of kMaxGroup heads, each after the format's
// per-slice query set-up (`prepare`: the q8/q4 query quantization).
template <typename Rows>
void attend(Rows& rows, const Attn& a) {
  for (size_t h0 = 0; h0 < a.n_q; h0 += kMaxGroup) {
    Attn s = a;
    s.n_q = std::min(kMaxGroup, a.n_q - h0);
    s.q = a.q + h0 * a.d_head;
    s.out = a.out + h0 * a.d_head;
    s.scores = a.scores + h0 * a.n_ctx;
    s.slopes = a.slopes != nullptr ? a.slopes + h0 : nullptr;
    rows.prepare(s);
    if (s.n_ctx == 0) {
      std::fill(s.out, s.out + s.n_q * s.d_head, 0.0f);
      continue;
    }
    for (size_t j0 = 0; j0 < s.n_ctx; j0 += 8) score_block(rows, s, j0);
    softmax_rows(s);
    mix(rows, s);
  }
}

}  // namespace

void attn_fused_contig(const float* q, const float* k, const float* v,
                       size_t row_stride, size_t d_head, size_t n_ctx,
                       float scale, const float* alibi_slopes,
                       const float* rel_pos, const uint8_t* masked,
                       float* scores, float* out, size_t n_q) {
  F32Rows rows{[=](size_t j) { return k + j * row_stride; },
               [=](size_t j) { return v + j * row_stride; }};
  attend(rows,
         {q, n_q, d_head, n_ctx, scale, alibi_slopes, rel_pos, masked, scores,
          out});
}

void attn_fused_gather(const float* q, const float* const* k_rows,
                       const float* const* v_rows, size_t head_off,
                       size_t d_head, size_t n_ctx, float scale,
                       const float* alibi_slopes, const float* rel_pos,
                       const uint8_t* masked, float* scores, float* out,
                       size_t n_q) {
  F32Rows rows{[=](size_t j) { return k_rows[j] + head_off; },
               [=](size_t j) { return v_rows[j] + head_off; }};
  attend(rows,
         {q, n_q, d_head, n_ctx, scale, alibi_slopes, rel_pos, masked, scores,
          out});
}

void attn_fused_q8_gather(const float* q, const int8_t* const* k8_rows,
                          const int8_t* const* v8_rows, const float* k_scales,
                          const float* v_scales, const float* const* k_rows,
                          const float* const* v_rows, size_t head_off,
                          size_t d_head, size_t n_ctx, float scale,
                          const float* alibi_slopes, const float* rel_pos,
                          const uint8_t* masked, float* scores, float* out,
                          size_t n_q) {
  Q8Rows rows(k8_rows, v8_rows, k_scales, v_scales, k_rows, v_rows,
              head_off);
  attend(rows,
         {q, n_q, d_head, n_ctx, scale, alibi_slopes, rel_pos, masked, scores,
          out});
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
  Q4Rows rows(k4_rows, v4_rows, k4_scales, v4_scales, k_rows, v_rows,
              head_off);
  attend(rows,
         {q, n_q, d_head, n_ctx, scale, alibi_slopes, rel_pos, masked, scores,
          out});
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
