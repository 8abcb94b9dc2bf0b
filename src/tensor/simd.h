// Portable vectorized primitives for the tensor kernels.
//
// One scalar implementation (written so the compiler can vectorize the
// non-reduction loops) plus explicit intrinsic paths selected at compile
// time: AVX2(+FMA) > SSE2 > NEON > scalar. The reduction kernels (dot,
// reduce_*) cannot be auto-vectorized without -ffast-math because lane-wise
// accumulation reorders float additions, so the intrinsic paths are where
// all of the matmul/attention speedup comes from.
//
// Determinism contract (relied on by docs/INTERNALS.md and the bitwise
// equality tests): every function here is a pure function of its inputs —
// same pointers-contents and length always produce the same bits. Lane
// accumulation order is fixed per build, never data- or alignment-dependent:
// all loads are unaligned-safe and there is no runtime dispatch.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#define PC_SIMD_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#include <emmintrin.h>
#define PC_SIMD_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define PC_SIMD_NEON 1
#endif

namespace pc::simd {

// Name of the active instruction-set path (for bench/report banners).
inline const char* isa_name() {
#if defined(PC_SIMD_AVX2)
  return "avx2";
#elif defined(PC_SIMD_SSE2)
  return "sse2";
#elif defined(PC_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

// ---- dot --------------------------------------------------------------------

namespace detail {
// c + a * b rounded like the build's vector multiply-adds: one fused
// rounding where the build has FMA (as fma8 below), a multiply and an add
// otherwise. The scalar tails of the multiply-add kernels use it so that
// their bits do not depend on whether the optimizer contracts `y += a * x`
// into an FMA, which it does at -O3 and does not at -O0.
inline float fma1(float a, float b, float c) {
#if defined(__FMA__)
  return std::fma(a, b, c);
#else
  return c + a * b;
#endif
}
}  // namespace detail

#if defined(PC_SIMD_AVX2)
namespace detail {
inline float hadd8(__m256 v) {
  __m128 lo = _mm_add_ps(_mm256_castps256_ps128(v),
                         _mm256_extractf128_ps(v, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}
#if defined(__FMA__)
inline __m256 fma8(__m256 a, __m256 b, __m256 c) {
  return _mm256_fmadd_ps(a, b, c);
}
#else
inline __m256 fma8(__m256 a, __m256 b, __m256 c) {
  return _mm256_add_ps(c, _mm256_mul_ps(a, b));
}
#endif

// dot()'s 8-lane accumulator over a[0, n & ~7) · b: four independent chains
// over 32-element steps (hiding FMA latency), the 8-element remainder on
// chain 0, then the chains summed pairwise.
inline __m256 dot_acc(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = fma8(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = fma8(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = fma8(_mm256_loadu_ps(a + i + 16), _mm256_loadu_ps(b + i + 16),
                acc2);
    acc3 = fma8(_mm256_loadu_ps(a + i + 24), _mm256_loadu_ps(b + i + 24),
                acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = fma8(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  return _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
}

// Eight hadd8 reductions at once: lane r of the result is hadd8(v[r]) bit
// for bit. The transpose pairs the same lanes in the same order as hadd8
// (r+4 onto r, then r+2 onto r, then lane 1 onto lane 0).
inline __m256 hadd8x8(const __m256* v) {
  const auto halves = [](__m256 a, __m256 b) {  // [a.lo+a.hi | b.lo+b.hi]
    return _mm256_add_ps(_mm256_permute2f128_ps(a, b, 0x20),
                         _mm256_permute2f128_ps(a, b, 0x31));
  };
  const __m256 t04 = halves(v[0], v[4]);
  const __m256 t15 = halves(v[1], v[5]);
  const __m256 t26 = halves(v[2], v[6]);
  const __m256 t37 = halves(v[3], v[7]);
  // [u0 u1 | u4 u5] and [u2 u3 | u6 u7], two partial sums per row.
  const __m256 u0145 =
      _mm256_add_ps(_mm256_shuffle_ps(t04, t15, _MM_SHUFFLE(1, 0, 1, 0)),
                    _mm256_shuffle_ps(t04, t15, _MM_SHUFFLE(3, 2, 3, 2)));
  const __m256 u2367 =
      _mm256_add_ps(_mm256_shuffle_ps(t26, t37, _MM_SHUFFLE(1, 0, 1, 0)),
                    _mm256_shuffle_ps(t26, t37, _MM_SHUFFLE(3, 2, 3, 2)));
  return _mm256_add_ps(
      _mm256_shuffle_ps(u0145, u2367, _MM_SHUFFLE(2, 0, 2, 0)),
      _mm256_shuffle_ps(u0145, u2367, _MM_SHUFFLE(3, 1, 3, 1)));
}
}  // namespace detail
#endif

// sum_i a[i]*b[i]. Four independent accumulator chains hide FMA latency.
inline float dot(const float* a, const float* b, size_t n) {
#if defined(PC_SIMD_AVX2)
  float s = detail::hadd8(detail::dot_acc(a, b, n));
  for (size_t i = n & ~size_t{7}; i < n; ++i) s += a[i] * b[i];
  return s;
#elif defined(PC_SIMD_SSE2)
  __m128 acc0 = _mm_setzero_ps();
  __m128 acc1 = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm_add_ps(acc0,
                      _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
    acc1 = _mm_add_ps(
        acc1, _mm_mul_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(b + i + 4)));
  }
  acc0 = _mm_add_ps(acc0, acc1);
  acc0 = _mm_add_ps(acc0, _mm_movehl_ps(acc0, acc0));
  acc0 = _mm_add_ss(acc0, _mm_shuffle_ps(acc0, acc0, 1));
  float s = _mm_cvtss_f32(acc0);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
#elif defined(PC_SIMD_NEON)
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vmlaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vmlaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  acc0 = vaddq_f32(acc0, acc1);
  float s = vaddvq_f32(acc0);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
#else
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
#endif
}

// out[r] = dot(q, rows[r], n) for eight rows, bit-identical to dot() per
// row: the attention kernels score eight keys per call, reducing the eight
// accumulators with one transposed reduction instead of eight horizontal
// ones.
inline void dot8(const float* q, const float* const* rows, size_t n,
                 float* out) {
#if defined(PC_SIMD_AVX2)
  __m256 acc[8];
  if (n == 32) {
    // dot_acc's single 32-element step, with q held in registers across
    // the rows (the head width of every model config).
    const __m256 zero = _mm256_setzero_ps();
    const __m256 q0 = _mm256_loadu_ps(q), q1 = _mm256_loadu_ps(q + 8);
    const __m256 q2 = _mm256_loadu_ps(q + 16), q3 = _mm256_loadu_ps(q + 24);
    for (int r = 0; r < 8; ++r) {
      const float* k = rows[r];
      acc[r] = _mm256_add_ps(
          _mm256_add_ps(detail::fma8(q0, _mm256_loadu_ps(k), zero),
                        detail::fma8(q1, _mm256_loadu_ps(k + 8), zero)),
          _mm256_add_ps(detail::fma8(q2, _mm256_loadu_ps(k + 16), zero),
                        detail::fma8(q3, _mm256_loadu_ps(k + 24), zero)));
    }
  } else {
    for (int r = 0; r < 8; ++r) acc[r] = detail::dot_acc(q, rows[r], n);
  }
  _mm256_storeu_ps(out, detail::hadd8x8(acc));
  if (n % 8 == 0) return;  // no tail: skip eight store-to-load round trips
  for (int r = 0; r < 8; ++r) {
    float s = out[r];
    for (size_t i = n & ~size_t{7}; i < n; ++i) s += q[i] * rows[r][i];
    out[r] = s;
  }
#else
  for (int r = 0; r < 8; ++r) out[r] = dot(q, rows[r], n);
#endif
}

// ---- matmul micro-kernels ---------------------------------------------------
//
// dot4 / dot2x4 are the register tiles of gemm_nt: one (or two) A rows
// against four B rows, accumulators held in registers so each loaded vector
// is reused across the tile. Per-column accumulation order is IDENTICAL
// between the two (one 8-lane chain per (row, column), then a scalar tail),
// so whether a row is computed by the 2x4 tile or the 1x4 edge tile cannot
// change its bits — matmul results depend only on (a_row, b_col, k), never
// on the batch size m. The scalar fallbacks preserve the same property by
// delegating per column to dot().

// out[c] = sum_l a[l] * bc[l] for the four B rows b0..b3.
inline void dot4(const float* a, const float* b0, const float* b1,
                 const float* b2, const float* b3, size_t n, float* out) {
#if defined(PC_SIMD_AVX2)
  __m256 c0 = _mm256_setzero_ps();
  __m256 c1 = _mm256_setzero_ps();
  __m256 c2 = _mm256_setzero_ps();
  __m256 c3 = _mm256_setzero_ps();
  size_t l = 0;
  for (; l + 8 <= n; l += 8) {
    const __m256 av = _mm256_loadu_ps(a + l);
    c0 = detail::fma8(av, _mm256_loadu_ps(b0 + l), c0);
    c1 = detail::fma8(av, _mm256_loadu_ps(b1 + l), c1);
    c2 = detail::fma8(av, _mm256_loadu_ps(b2 + l), c2);
    c3 = detail::fma8(av, _mm256_loadu_ps(b3 + l), c3);
  }
  float s0 = detail::hadd8(c0);
  float s1 = detail::hadd8(c1);
  float s2 = detail::hadd8(c2);
  float s3 = detail::hadd8(c3);
  for (; l < n; ++l) {
    const float av = a[l];
    s0 += av * b0[l];
    s1 += av * b1[l];
    s2 += av * b2[l];
    s3 += av * b3[l];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
#else
  // Scalar/SSE/NEON fallback: per-column dot keeps the order contract.
  out[0] = dot(a, b0, n);
  out[1] = dot(a, b1, n);
  out[2] = dot(a, b2, n);
  out[3] = dot(a, b3, n);
#endif
}

// Two A rows against four B rows: out_r[c] = sum_l ar[l] * bc[l].
inline void dot2x4(const float* a0, const float* a1, const float* b0,
                   const float* b1, const float* b2, const float* b3, size_t n,
                   float* out0, float* out1) {
#if defined(PC_SIMD_AVX2)
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c02 = _mm256_setzero_ps(), c03 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c12 = _mm256_setzero_ps(), c13 = _mm256_setzero_ps();
  size_t l = 0;
  for (; l + 8 <= n; l += 8) {
    const __m256 a0v = _mm256_loadu_ps(a0 + l);
    const __m256 a1v = _mm256_loadu_ps(a1 + l);
    const __m256 b0v = _mm256_loadu_ps(b0 + l);
    const __m256 b1v = _mm256_loadu_ps(b1 + l);
    const __m256 b2v = _mm256_loadu_ps(b2 + l);
    const __m256 b3v = _mm256_loadu_ps(b3 + l);
    c00 = detail::fma8(a0v, b0v, c00);
    c01 = detail::fma8(a0v, b1v, c01);
    c02 = detail::fma8(a0v, b2v, c02);
    c03 = detail::fma8(a0v, b3v, c03);
    c10 = detail::fma8(a1v, b0v, c10);
    c11 = detail::fma8(a1v, b1v, c11);
    c12 = detail::fma8(a1v, b2v, c12);
    c13 = detail::fma8(a1v, b3v, c13);
  }
  float s00 = detail::hadd8(c00), s01 = detail::hadd8(c01);
  float s02 = detail::hadd8(c02), s03 = detail::hadd8(c03);
  float s10 = detail::hadd8(c10), s11 = detail::hadd8(c11);
  float s12 = detail::hadd8(c12), s13 = detail::hadd8(c13);
  for (; l < n; ++l) {
    const float a0v = a0[l], a1v = a1[l];
    s00 += a0v * b0[l];
    s01 += a0v * b1[l];
    s02 += a0v * b2[l];
    s03 += a0v * b3[l];
    s10 += a1v * b0[l];
    s11 += a1v * b1[l];
    s12 += a1v * b2[l];
    s13 += a1v * b3[l];
  }
  out0[0] = s00;
  out0[1] = s01;
  out0[2] = s02;
  out0[3] = s03;
  out1[0] = s10;
  out1[1] = s11;
  out1[2] = s12;
  out1[3] = s13;
#else
  dot4(a0, b0, b1, b2, b3, n, out0);
  dot4(a1, b0, b1, b2, b3, n, out1);
#endif
}

// ---- axpy / elementwise -----------------------------------------------------

// y += alpha * x
inline void axpy(float alpha, const float* x, float* y, size_t n) {
#if defined(PC_SIMD_AVX2)
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
#if defined(__FMA__)
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
#else
    _mm256_storeu_ps(y + i,
                     _mm256_add_ps(_mm256_loadu_ps(y + i),
                                   _mm256_mul_ps(va, _mm256_loadu_ps(x + i))));
#endif
  }
  for (; i < n; ++i) y[i] = detail::fma1(alpha, x[i], y[i]);
#elif defined(PC_SIMD_SSE2)
  const __m128 va = _mm_set1_ps(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i),
                                    _mm_mul_ps(va, _mm_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
#elif defined(PC_SIMD_NEON)
  const float32x4_t va = vdupq_n_f32(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vmlaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
#else
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
#endif
}

// a += b
inline void add(float* a, const float* b, size_t n) {
#if defined(PC_SIMD_AVX2)
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
#elif defined(PC_SIMD_SSE2)
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(a + i, _mm_add_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
#elif defined(PC_SIMD_NEON)
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(a + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
#else
  for (size_t i = 0; i < n; ++i) a[i] += b[i];
#endif
}

// a *= b (elementwise)
inline void mul(float* a, const float* b, size_t n) {
#if defined(PC_SIMD_AVX2)
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        a + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] *= b[i];
#elif defined(PC_SIMD_SSE2)
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(a + i, _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] *= b[i];
#elif defined(PC_SIMD_NEON)
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(a + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) a[i] *= b[i];
#else
  for (size_t i = 0; i < n; ++i) a[i] *= b[i];
#endif
}

// a *= s
inline void scale(float* a, float s, size_t n) {
#if defined(PC_SIMD_AVX2)
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) a[i] *= s;
#elif defined(PC_SIMD_SSE2)
  const __m128 vs = _mm_set1_ps(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(a + i, _mm_mul_ps(_mm_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) a[i] *= s;
#elif defined(PC_SIMD_NEON)
  const float32x4_t vs = vdupq_n_f32(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(a + i, vmulq_f32(vld1q_f32(a + i), vs));
  }
  for (; i < n; ++i) a[i] *= s;
#else
  for (size_t i = 0; i < n; ++i) a[i] *= s;
#endif
}

// ---- reductions -------------------------------------------------------------

// max_i a[i] over a non-empty range. Exact regardless of lane grouping
// (float max is associative and commutative), so safe on bitwise-pinned
// paths like the softmax row max.
inline float reduce_max(const float* a, size_t n) {
#if defined(PC_SIMD_AVX2)
  size_t i = 0;
  float s = a[0];
  if (n >= 8) {
    __m256 m = _mm256_loadu_ps(a);
    for (i = 8; i + 8 <= n; i += 8) {
      m = _mm256_max_ps(m, _mm256_loadu_ps(a + i));
    }
    __m128 lo = _mm_max_ps(_mm256_castps256_ps128(m),
                           _mm256_extractf128_ps(m, 1));
    lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
    s = _mm_cvtss_f32(lo);
  }
  for (; i < n; ++i) s = s > a[i] ? s : a[i];
  return s;
#else
  float s = a[0];
  for (size_t i = 1; i < n; ++i) s = s > a[i] ? s : a[i];
  return s;
#endif
}

// sum_i a[i]*a[i] (for RMSNorm). Lane-grouped accumulation — do NOT use on a
// path that must be bitwise-stable under element re-indexing.
inline float reduce_sumsq(const float* a, size_t n) {
  return dot(a, a, n);
}

// max_i |a[i]| over [0, n); returns 0 for an empty range. Exact regardless
// of lane grouping (abs/max are element-pure), so the vectorized Q8_0
// max-abs scan produces the same scale as the scalar one, bit for bit.
inline float reduce_max_abs(const float* a, size_t n) {
#if defined(PC_SIMD_AVX2)
  size_t i = 0;
  float s = 0.0f;
  if (n >= 8) {
    const __m256 sign_mask = _mm256_set1_ps(-0.0f);
    __m256 m = _mm256_setzero_ps();
    for (; i + 8 <= n; i += 8) {
      m = _mm256_max_ps(m, _mm256_andnot_ps(sign_mask, _mm256_loadu_ps(a + i)));
    }
    __m128 lo = _mm_max_ps(_mm256_castps256_ps128(m),
                           _mm256_extractf128_ps(m, 1));
    lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
    s = _mm_cvtss_f32(lo);
  }
  for (; i < n; ++i) {
    const float v = a[i] < 0.0f ? -a[i] : a[i];
    s = s > v ? s : v;
  }
  return s;
#else
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float v = a[i] < 0.0f ? -a[i] : a[i];
    s = s > v ? s : v;
  }
  return s;
#endif
}

// ---- exp --------------------------------------------------------------------
//
// The softmax weights of the fused attention kernels, e^(x - max) <= 1.
// Each lane is evaluated in double: t = k*ln2 + r with k = nearest(t/ln2)
// and |r| <= ln2/2, e^r by its degree-8 Taylor polynomial (truncation error
// below 2^-31 relative), 2^k written into the exponent field, then one
// rounding to float. That result is e^t correctly rounded unless e^t lies
// within ~2^-7 ulp of a rounding boundary, so it stays within 1 ulp of
// std::exp everywhere on [-87, 0].
//
// Domain: t <= 0. Arguments below -87 (-inf included) give +0, so no weight
// is subnormal (e^-87 ~ 1.6e-38 is above FLT_MIN); NaN gives NaN; e^0 and
// e^-0 are exactly 1. Every lane is a pure function of its argument: no
// result depends on its index or on n.

namespace detail {
constexpr float kExpFloor = -87.0f;
constexpr double kLog2e = 1.4426950408889634;
constexpr double kLn2 = 0.6931471805599453;
constexpr double kExpPoly[9] = {1.0 / 40320, 1.0 / 5040, 1.0 / 720,
                                1.0 / 120,   1.0 / 24,   1.0 / 6,
                                1.0 / 2,     1.0,        1.0};

#if defined(PC_SIMD_AVX2)
#if defined(__FMA__)
inline __m256d fma4d(__m256d a, __m256d b, __m256d c) {
  return _mm256_fmadd_pd(a, b, c);
}
#else
inline __m256d fma4d(__m256d a, __m256d b, __m256d c) {
  return _mm256_add_pd(c, _mm256_mul_pd(a, b));
}
#endif

// e^t for four doubles t in [-87, 0]. Adding 1.5 * 2^52 rounds t / ln2 to
// the nearest integer k (ties to even, as nearbyint) and leaves k in the
// low mantissa bits, which shift straight into the exponent field of 2^k;
// k in [-126, 0] keeps 2^k normal.
inline __m256d exp4d(__m256d t) {
  const __m256d shifter = _mm256_set1_pd(0x1.8p52);
  const __m256d z = fma4d(t, _mm256_set1_pd(kLog2e), shifter);
  const __m256d k = _mm256_sub_pd(z, shifter);
  const __m256d r = fma4d(k, _mm256_set1_pd(-kLn2), t);
  __m256d p = _mm256_set1_pd(kExpPoly[0]);
  for (int i = 1; i < 9; ++i) p = fma4d(p, r, _mm256_set1_pd(kExpPoly[i]));
  const __m256i two_k = _mm256_slli_epi64(
      _mm256_add_epi64(_mm256_castpd_si256(z), _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(p, _mm256_castsi256_pd(two_k));
}

inline __m256 exp8(__m256 x) {
  const __m128 lo =
      _mm256_cvtpd_ps(exp4d(_mm256_cvtps_pd(_mm256_castps256_ps128(x))));
  const __m128 hi =
      _mm256_cvtpd_ps(exp4d(_mm256_cvtps_pd(_mm256_extractf128_ps(x, 1))));
  const __m256 flush =
      _mm256_cmp_ps(x, _mm256_set1_ps(kExpFloor), _CMP_LT_OQ);
  return _mm256_andnot_ps(flush, _mm256_set_m128(hi, lo));
}
#else
inline float exp1(float x) {
  if (!(x >= kExpFloor)) return x != x ? x : 0.0f;
  const double t = x;
  const double k = std::nearbyint(t * kLog2e);
  const double r = t - k * kLn2;
  double p = kExpPoly[0];
  for (int i = 1; i < 9; ++i) p = p * r + kExpPoly[i];
  return static_cast<float>(std::ldexp(p, static_cast<int>(k)));
}
#endif
}  // namespace detail

// y[i] = e^(x[i] - shift) for x[i] - shift <= 0 (see above). y may alias x.
inline void exp_nonpos(const float* x, float shift, float* y, size_t n) {
#if defined(PC_SIMD_AVX2)
  const __m256 vs = _mm256_set1_ps(shift);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, detail::exp8(_mm256_sub_ps(_mm256_loadu_ps(x + i), vs)));
  }
  if (i < n) {  // the tail runs through the same lanes, masked
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n - i)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    _mm256_maskstore_ps(
        y + i, live,
        detail::exp8(_mm256_sub_ps(_mm256_maskload_ps(x + i, live), vs)));
  }
#else
  for (size_t i = 0; i < n; ++i) y[i] = detail::exp1(x[i] - shift);
#endif
}

// ---- int8 (Q8_0) primitives -------------------------------------------------
//
// The quantized-KV compute path stores rows as int8 with one float scale per
// row; scores are taken directly in the int8 domain and fixed up with
// (q_scale * k_scale) afterwards. Integer accumulation is exact, so unlike
// the float reductions these are bitwise-stable under any lane grouping.
//
// Precondition everywhere: int8 inputs lie in [-127, 127] (the Q8_0
// quantizer clamps to that range). -128 is excluded so |a[i]| fits int8 and
// the AVX2 maddubs pair-sums (≤ 2 * 127 * 127) cannot saturate int16.

#if defined(PC_SIMD_AVX2)
namespace detail {
// Lane r of the result is the sum of v[r]'s eight lanes (integer adds are
// exact, so the order does not matter).
inline __m256i hsum8x8_epi32(const __m256i* v) {
  const __m256i h0123 = _mm256_hadd_epi32(_mm256_hadd_epi32(v[0], v[1]),
                                          _mm256_hadd_epi32(v[2], v[3]));
  const __m256i h4567 = _mm256_hadd_epi32(_mm256_hadd_epi32(v[4], v[5]),
                                          _mm256_hadd_epi32(v[6], v[7]));
  return _mm256_add_epi32(_mm256_permute2x128_si256(h0123, h4567, 0x20),
                          _mm256_permute2x128_si256(h0123, h4567, 0x31));
}

// a[0, 32) . b[0, 32) as eight int32 partial sums. maddubs needs one
// unsigned operand: |a| is representable (no -128 by precondition) and
// moving a's sign onto b keeps the product a[i]*b[i].
inline __m256i dot32_i8(const int8_t* a, const int8_t* b) {
  const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  return _mm256_madd_epi16(
      _mm256_maddubs_epi16(_mm256_sign_epi8(va, va), _mm256_sign_epi8(vb, va)),
      _mm256_set1_epi16(1));
}
}  // namespace detail
#endif

// sum_i a[i]*b[i] as int32. Exact for n up to ~128K at |x| ≤ 127.
inline int32_t dot_i8(const int8_t* a, const int8_t* b, size_t n) {
#if defined(PC_SIMD_AVX2)
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc = _mm256_add_epi32(acc, detail::dot32_i8(a + i, b + i));
  }
  __m128i lo = _mm_add_epi32(_mm256_castsi256_si128(acc),
                             _mm256_extracti128_si256(acc, 1));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, 0x4e));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, 0xb1));
  int32_t s = _mm_cvtsi128_si32(lo);
  for (; i < n; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return s;
#elif defined(PC_SIMD_SSE2)
  __m128i acc = _mm_setzero_si128();
  const __m128i zero = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    // Sign-extend int8 lanes to int16 (unpack into the high byte, then
    // arithmetic shift right) — plain SSE2, no SSSE3 maddubs needed.
    const __m128i a_lo = _mm_srai_epi16(_mm_unpacklo_epi8(zero, va), 8);
    const __m128i a_hi = _mm_srai_epi16(_mm_unpackhi_epi8(zero, va), 8);
    const __m128i b_lo = _mm_srai_epi16(_mm_unpacklo_epi8(zero, vb), 8);
    const __m128i b_hi = _mm_srai_epi16(_mm_unpackhi_epi8(zero, vb), 8);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(a_lo, b_lo));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(a_hi, b_hi));
  }
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, 0x4e));
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, 0xb1));
  int32_t s = _mm_cvtsi128_si32(acc);
  for (; i < n; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return s;
#elif defined(PC_SIMD_NEON)
  int32x4_t acc = vdupq_n_s32(0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const int8x16_t va = vld1q_s8(a + i);
    const int8x16_t vb = vld1q_s8(b + i);
    const int16x8_t p_lo = vmull_s8(vget_low_s8(va), vget_low_s8(vb));
    const int16x8_t p_hi = vmull_s8(vget_high_s8(va), vget_high_s8(vb));
    acc = vpadalq_s16(acc, p_lo);
    acc = vpadalq_s16(acc, p_hi);
  }
  int32_t s = vaddvq_s32(acc);
  for (; i < n; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return s;
#else
  int32_t s = 0;
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return s;
#endif
}

// out[r] = dot_i8(a, rows[r], n) for eight rows; the attention kernels'
// eight-key scoring of q8 rows.
inline void dot8_i8(const int8_t* a, const int8_t* const* rows, size_t n,
                    int32_t* out) {
#if defined(PC_SIMD_AVX2)
  __m256i acc[8];
  for (int r = 0; r < 8; ++r) acc[r] = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int r = 0; r < 8; ++r) {
      acc[r] =
          _mm256_add_epi32(acc[r], detail::dot32_i8(a + i, rows[r] + i));
    }
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      detail::hsum8x8_epi32(acc));
  for (int r = 0; r < 8; ++r) {
    for (size_t t = i; t < n; ++t) {
      out[r] += static_cast<int32_t>(a[t]) * static_cast<int32_t>(rows[r][t]);
    }
  }
#else
  for (int r = 0; r < 8; ++r) out[r] = dot_i8(a, rows[r], n);
#endif
}

// y[i] = clamp(nearbyint(x[i] * inv_scale), -127, 127) as int8. Bitwise
// identical to the scalar loop: per-lane multiply/round/convert are the same
// IEEE operations, and clamping before the round is equivalent to clamping
// after it (rounding is monotonic; both orders land on the same int8).
// Assumes the default round-to-nearest-even FP environment, as nearbyint
// does.
inline void quantize_i8(const float* x, float inv_scale, int8_t* y, size_t n) {
#if defined(PC_SIMD_AVX2)
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 vmin = _mm256_set1_ps(-127.0f);
  const __m256 vmax = _mm256_set1_ps(127.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv);
    v = _mm256_min_ps(_mm256_max_ps(v, vmin), vmax);
    const __m256i i32 = _mm256_cvtps_epi32(v);  // rounds to nearest even
    const __m128i i16 = _mm_packs_epi32(_mm256_castsi256_si128(i32),
                                        _mm256_extracti128_si256(i32, 1));
    const __m128i i8 = _mm_packs_epi16(i16, i16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(y + i), i8);
  }
  for (; i < n; ++i) {
    float q = x[i] * inv_scale;
    q = q < -127.0f ? -127.0f : (q > 127.0f ? 127.0f : q);
    y[i] = static_cast<int8_t>(static_cast<int32_t>(
        std::nearbyintf(q)));
  }
#else
  for (size_t i = 0; i < n; ++i) {
    float q = x[i] * inv_scale;
    q = q < -127.0f ? -127.0f : (q > 127.0f ? 127.0f : q);
    q = std::nearbyintf(q);
    y[i] = static_cast<int8_t>(static_cast<int32_t>(q));
  }
#endif
}

// y[i] = scale * float(x[i])  (Q8_0 row dequantization, overwrite)
inline void dequant_store(const int8_t* x, float scale, float* y, size_t n) {
#if defined(PC_SIMD_AVX2)
  const __m256 vs = _mm256_set1_ps(scale);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i));
    const __m256 vals = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    _mm256_storeu_ps(y + i, _mm256_mul_ps(vs, vals));
  }
  for (; i < n; ++i) y[i] = scale * static_cast<float>(x[i]);
#else
  for (size_t i = 0; i < n; ++i) y[i] = scale * static_cast<float>(x[i]);
#endif
}

// y[i] += alpha * float(x[i]): one int8 V row mixed into an output (alpha
// folds the softmax weight and the row's V scale together). The fused q8
// kernels mix V rows in their own loops; test_kernels' reference attention
// uses this one.
inline void axpy_i8(float alpha, const int8_t* x, float* y, size_t n) {
#if defined(PC_SIMD_AVX2)
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i));
    const __m256 vals = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    _mm256_storeu_ps(y + i,
                     detail::fma8(va, vals, _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) {
    y[i] = detail::fma1(alpha, static_cast<float>(x[i]), y[i]);
  }
#else
  for (size_t i = 0; i < n; ++i) y[i] += alpha * static_cast<float>(x[i]);
#endif
}

// ---- int4 (Q4_0) primitives -------------------------------------------------
//
// Q4_0 packs values in blocks of 32: stored nibbles are q+8 in [0,15]
// (element j in the low nibble of byte j, element j+16 in the high nibble),
// one float scale per block. Scores against an int8 query decompose per
// block as
//
//   sum_i q8[i]*q4[i] = sum_i q8[i]*(nib[i]-8) = p_b - 8*qsum_b
//
// with p_b = sum_i q8[i]*nib[i] (unsigned-nibble times signed-int8, the
// exact shape maddubs computes without saturating: pair sums are at most
// 2*15*127 = 3810) and qsum_b the query block sum, computed once per call.
// The integer parts are exact, and the per-block float accumulation below is
// strictly sequential, so every ISA path is bitwise-identical to scalar.

// The signed extremum of a block: the element with the largest |x|, keeping
// its sign (first occurrence wins between equal magnitudes — the fixed
// sequential scan IS the determinism contract; the Q4_0 scale is
// extremum/-8 so the extreme value quantizes exactly to level -8 or +7).
inline float signed_extremum(const float* a, size_t n) {
  float amax = 0.0f;
  float aabs = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float v = a[i] < 0.0f ? -a[i] : a[i];
    if (v > aabs) {
      aabs = v;
      amax = a[i];
    }
  }
  return amax;
}

// Packs n <= 32 floats into Q4_0 nibbles (16 output bytes): nibble =
// clamp(nearbyint(x * inv_scale), -8, 7) + 8, missing tail elements pad
// with 8 (the quantized zero). The multiply/round/clamp runs vectorized on
// AVX2 and is bitwise-identical to the scalar path (same argument as
// quantize_i8: rounding is monotonic and _mm256_cvtps_epi32 rounds to
// nearest even exactly like nearbyint); the nibble interleave is exact
// integer work either way.
inline void quantize_i4(const float* x, float inv_scale, size_t n,
                        uint8_t* out) {
  int32_t q[32];
#if defined(PC_SIMD_AVX2)
  if (n == 32) {
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const __m256 vmin = _mm256_set1_ps(-8.0f);
    const __m256 vmax = _mm256_set1_ps(7.0f);
    for (size_t i = 0; i < 32; i += 8) {
      __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv);
      v = _mm256_min_ps(_mm256_max_ps(v, vmin), vmax);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                          _mm256_cvtps_epi32(v));
    }
  } else
#endif
  {
    for (size_t i = 0; i < n; ++i) {
      float v = x[i] * inv_scale;
      v = v < -8.0f ? -8.0f : (v > 7.0f ? 7.0f : v);
      q[i] = static_cast<int32_t>(std::nearbyintf(v));
    }
    for (size_t i = n; i < 32; ++i) q[i] = 0;
  }
  for (size_t j = 0; j < 16; ++j) {
    out[j] = static_cast<uint8_t>((q[j] + 8) | ((q[j + 16] + 8) << 4));
  }
}

#if defined(PC_SIMD_AVX2)
namespace detail {
// One block's nibble products sum_i q8[i]*nib[i] as eight int32 partial
// sums: unsigned nibbles times the signed query is the shape maddubs
// computes without saturating (pair sums are at most 2*15*127).
inline __m256i block_i4i8(const int8_t* q8, const uint8_t* packed) {
  const __m128i bytes =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(packed));
  // Element order [0..15 | 16..31]: low nibbles then high nibbles.
  const __m256i nib =
      _mm256_and_si256(_mm256_set_m128i(_mm_srli_epi16(bytes, 4), bytes),
                       _mm256_set1_epi8(0x0f));
  const __m256i q = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q8));
  return _mm256_madd_epi16(_mm256_maddubs_epi16(nib, q),
                           _mm256_set1_epi16(1));
}
}  // namespace detail
#endif

// Scores one Q4_0 row against an int8 query:
//   sum_b block_scales[b] * float(p_b - 8 * q_sums[b])
// q8 must be zero-padded to n_blocks*32 elements; q_sums[b] is the int sum
// of query block b (precompute once per query). The float block
// accumulation is strictly sequential on every path.
inline float dot_i4i8(const int8_t* q8, const uint8_t* packed,
                      const float* block_scales, const int32_t* q_sums,
                      size_t n_blocks) {
  float s = 0.0f;
#if defined(PC_SIMD_AVX2)
  for (size_t b = 0; b < n_blocks; ++b) {
    const __m256i acc = detail::block_i4i8(q8 + b * 32, packed + b * 16);
    __m128i lo = _mm_add_epi32(_mm256_castsi256_si128(acc),
                               _mm256_extracti128_si256(acc, 1));
    lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, 0x4e));
    lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, 0xb1));
    const int32_t p = _mm_cvtsi128_si32(lo);
    s = detail::fma1(block_scales[b], static_cast<float>(p - 8 * q_sums[b]),
                     s);
  }
#elif defined(PC_SIMD_SSE2)
  const __m128i low_mask = _mm_set1_epi8(0x0f);
  const __m128i zero = _mm_setzero_si128();
  for (size_t b = 0; b < n_blocks; ++b) {
    const __m128i bytes = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(packed + b * 16));
    const __m128i lo_nib = _mm_and_si128(bytes, low_mask);
    const __m128i hi_nib = _mm_and_si128(_mm_srli_epi16(bytes, 4), low_mask);
    const __m128i q_lo = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(q8 + b * 32));
    const __m128i q_hi = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(q8 + b * 32 + 16));
    // Nibbles are unsigned [0,15]: zero-extend; query sign-extends.
    __m128i acc = _mm_madd_epi16(
        _mm_unpacklo_epi8(lo_nib, zero),
        _mm_srai_epi16(_mm_unpacklo_epi8(zero, q_lo), 8));
    acc = _mm_add_epi32(
        acc, _mm_madd_epi16(_mm_unpackhi_epi8(lo_nib, zero),
                            _mm_srai_epi16(_mm_unpackhi_epi8(zero, q_lo), 8)));
    acc = _mm_add_epi32(
        acc, _mm_madd_epi16(_mm_unpacklo_epi8(hi_nib, zero),
                            _mm_srai_epi16(_mm_unpacklo_epi8(zero, q_hi), 8)));
    acc = _mm_add_epi32(
        acc, _mm_madd_epi16(_mm_unpackhi_epi8(hi_nib, zero),
                            _mm_srai_epi16(_mm_unpackhi_epi8(zero, q_hi), 8)));
    acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, 0x4e));
    acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, 0xb1));
    const int32_t p = _mm_cvtsi128_si32(acc);
    s += block_scales[b] * static_cast<float>(p - 8 * q_sums[b]);
  }
#elif defined(PC_SIMD_NEON)
  const uint8x16_t low_mask = vdupq_n_u8(0x0f);
  for (size_t b = 0; b < n_blocks; ++b) {
    const uint8x16_t bytes = vld1q_u8(packed + b * 16);
    const int8x16_t lo_nib =
        vreinterpretq_s8_u8(vandq_u8(bytes, low_mask));
    const int8x16_t hi_nib =
        vreinterpretq_s8_u8(vshrq_n_u8(bytes, 4));
    const int8x16_t q_lo = vld1q_s8(q8 + b * 32);
    const int8x16_t q_hi = vld1q_s8(q8 + b * 32 + 16);
    int32x4_t acc = vdupq_n_s32(0);
    acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(lo_nib), vget_low_s8(q_lo)));
    acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(lo_nib), vget_high_s8(q_lo)));
    acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(hi_nib), vget_low_s8(q_hi)));
    acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(hi_nib), vget_high_s8(q_hi)));
    const int32_t p = vaddvq_s32(acc);
    s += block_scales[b] * static_cast<float>(p - 8 * q_sums[b]);
  }
#else
  for (size_t b = 0; b < n_blocks; ++b) {
    int32_t p = 0;
    for (size_t j = 0; j < 16; ++j) {
      const uint8_t byte = packed[b * 16 + j];
      p += static_cast<int32_t>(q8[b * 32 + j]) * (byte & 0x0f);
      p += static_cast<int32_t>(q8[b * 32 + 16 + j]) * (byte >> 4);
    }
    s += block_scales[b] * static_cast<float>(p - 8 * q_sums[b]);
  }
#endif
  return s;
}

// out[r] = dot_i4i8(q8, rows[r], block_scales[r], q_sums, n_blocks) for
// eight rows, bit-identical per row: the block sums are integers (exact in
// any order) and each row's float accumulation runs over the blocks in
// order with dot_i4i8's multiply-add.
inline void dot8_i4i8(const int8_t* q8, const uint8_t* const* rows,
                      const float* const* block_scales,
                      const int32_t* q_sums, size_t n_blocks, float* out) {
#if defined(PC_SIMD_AVX2)
  __m256 s = _mm256_setzero_ps();
  for (size_t b = 0; b < n_blocks; ++b) {
    __m256i acc[8];
    float scales[8];
    for (int r = 0; r < 8; ++r) {
      acc[r] = detail::block_i4i8(q8 + b * 32, rows[r] + b * 16);
      scales[r] = block_scales[r][b];
    }
    const __m256i p = _mm256_sub_epi32(detail::hsum8x8_epi32(acc),
                                       _mm256_set1_epi32(8 * q_sums[b]));
    s = detail::fma8(_mm256_loadu_ps(scales), _mm256_cvtepi32_ps(p), s);
  }
  _mm256_storeu_ps(out, s);
#else
  for (int r = 0; r < 8; ++r) {
    out[r] = dot_i4i8(q8, rows[r], block_scales[r], q_sums, n_blocks);
  }
#endif
}

// y[i] = scale * (nibble_i - 8) for one block's n <= 32 values (overwrite).
inline void dequant_store_i4(const uint8_t* packed, float scale, float* y,
                             size_t n) {
#if defined(PC_SIMD_AVX2)
  if (n == 32) {
    const __m256 vs = _mm256_set1_ps(scale);
    const __m128i low_mask = _mm_set1_epi8(0x0f);
    const __m128i bias = _mm_set1_epi8(8);
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(packed));
    const __m128i lo =
        _mm_sub_epi8(_mm_and_si128(bytes, low_mask), bias);
    const __m128i hi = _mm_sub_epi8(
        _mm_and_si128(_mm_srli_epi16(bytes, 4), low_mask), bias);
    const __m128i halves[2] = {lo, hi};
    for (int h = 0; h < 2; ++h) {
      const __m128i v = halves[h];
      const __m256 f0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(v));
      const __m256 f1 = _mm256_cvtepi32_ps(
          _mm256_cvtepi8_epi32(_mm_srli_si128(v, 8)));
      _mm256_storeu_ps(y + h * 16, _mm256_mul_ps(vs, f0));
      _mm256_storeu_ps(y + h * 16 + 8, _mm256_mul_ps(vs, f1));
    }
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    const uint8_t byte = packed[i & 15];
    const int nib = i < 16 ? (byte & 0x0f) : (byte >> 4);
    y[i] = scale * static_cast<float>(nib - 8);
  }
}

// y[i] += w * block_scales[b] * (nibble_i - 8) over a row of n values: one
// Q4_0 V row mixed into an output (w is the softmax weight; the per-block V
// scale folds in here). The fused q4 kernels mix V rows in their own loops;
// test_kernels' reference attention uses this one. Uses fused multiply-add
// on AVX2 like axpy_i8, in whole blocks and in a partial final block alike,
// so the kernel tests compare against fp32 mixing with a small tolerance
// rather than bitwise.
inline void axpy_i4(float w, const uint8_t* packed, const float* block_scales,
                    float* y, size_t n) {
  const size_t n_blocks = (n + 31) / 32;
  for (size_t b = 0; b < n_blocks; ++b) {
    const float alpha = w * block_scales[b];
    const size_t base = b * 32;
    const size_t count = n - base < 32 ? n - base : 32;
#if defined(PC_SIMD_AVX2)
    if (count == 32) {
      const __m256 va = _mm256_set1_ps(alpha);
      const __m128i low_mask = _mm_set1_epi8(0x0f);
      const __m128i bias = _mm_set1_epi8(8);
      const __m128i bytes = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(packed + b * 16));
      const __m128i lo =
          _mm_sub_epi8(_mm_and_si128(bytes, low_mask), bias);
      const __m128i hi = _mm_sub_epi8(
          _mm_and_si128(_mm_srli_epi16(bytes, 4), low_mask), bias);
      const __m128i halves[2] = {lo, hi};
      for (int h = 0; h < 2; ++h) {
        const __m128i v = halves[h];
        const __m256 f0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(v));
        const __m256 f1 = _mm256_cvtepi32_ps(
            _mm256_cvtepi8_epi32(_mm_srli_si128(v, 8)));
        float* yb = y + base + static_cast<size_t>(h) * 16;
        _mm256_storeu_ps(yb, detail::fma8(va, f0, _mm256_loadu_ps(yb)));
        _mm256_storeu_ps(yb + 8,
                         detail::fma8(va, f1, _mm256_loadu_ps(yb + 8)));
      }
      continue;
    }
#endif
    for (size_t i = 0; i < count; ++i) {
      const uint8_t byte = packed[b * 16 + (i & 15)];
      const int nib = i < 16 ? (byte & 0x0f) : (byte >> 4);
      y[base + i] =
          detail::fma1(alpha, static_cast<float>(nib - 8), y[base + i]);
    }
  }
}

}  // namespace pc::simd
