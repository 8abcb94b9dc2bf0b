// Numeric kernels used by the transformer engine.
//
// Two layers of API: raw pointer kernels (hot paths inside attention where
// the head layout makes Tensor-shaped calls awkward) and Tensor-shaped
// wrappers with full shape checking. Matmuls parallelize over output rows
// via the global thread pool; the inner loops run through the vectorized
// primitives in tensor/simd.h (AVX2/SSE2/NEON with a scalar fallback).
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.h"

namespace pc {

// ---- raw kernels -----------------------------------------------------------

// c[m,n] = a[m,k] * b[k,n]    (all row-major, c overwritten)
void gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n);

// c[m,n] = a[m,k] * b[n,k]^T  (b stored transposed: n rows of length k)
void gemm_nt(const float* a, const float* b, float* c, size_t m, size_t k,
             size_t n);

float dot(const float* a, const float* b, size_t n);

// y += alpha * x
void axpy(float alpha, const float* x, float* y, size_t n);

// Numerically stable in-place softmax over row[0..n).
void softmax_inplace(float* row, size_t n);

// out = x * w / rms(x)  (RMSNorm, Llama-style)
void rmsnorm(const float* x, const float* w, float* out, size_t n, float eps);

// out = (x - mean) / std * w + b  (LayerNorm; b may be nullptr)
void layernorm(const float* x, const float* w, const float* b, float* out,
               size_t n, float eps);

// x *= sigmoid(x)
void silu_inplace(float* x, size_t n);

// tanh-approximation GELU
void gelu_inplace(float* x, size_t n);

// ---- fused attention -------------------------------------------------------
//
// Query rows against one KV head's cached context: for each row's n_q query
// heads (the GQA group sharing the KV head), scores = scale * q·K^T
// (+ ALiBi bias, + mask), softmax, out = scores·V — fused so the scores
// never leave caller-provided scratch. n_q is 1 for MHA, n_heads /
// n_kv_heads under GQA (n_heads under multi-query attention). One core
// serves every row format and attends up to kAttnRowBlock rows per pass, so
// every K/V row is read once per group and row block.
//
// Contract (shared by every variant):
//  * A row's head h has its d_head query slice at q + h * d_head and its
//    output at out + h * d_head (overwritten): the model's head-major row
//    layout, so a group's heads are consecutive.
//  * `masked`, when non-null, has n_ctx bytes shared by all heads;
//    masked[j] != 0 forces score -inf for slot j. Masked slots contribute
//    an exact +0.0f to the softmax sum (added in sequence order) and are
//    skipped in the value mix, so the result is bitwise identical to running
//    the same kernel over only the unmasked slots in the same order — the
//    property docs/INTERNALS.md §2 relies on.
//  * `rel_pos`, when non-null, has n_ctx floats: rel_pos[j] = float(q_pos -
//    k_pos_j). The kernel adds `-alibi_slopes[h] * rel_pos[j]` to head h's
//    score j (one fused multiply-add where the build has FMA), matching
//    Alibi::bias(). `alibi_slopes` (n_q floats) is read only when rel_pos is
//    non-null; pass nullptrs for RoPE/learned models.
//  * `scores` is a row's caller scratch of at least n_q * n_ctx floats (a
//    block of R rows needs R × n_q × n_ctx); on return row h (scores + h *
//    n_ctx) holds head h's softmax weights (tests use this; the engine
//    just reuses it).
//  * The weights are e^(s - max) from simd::exp_nonpos, not std::exp: within
//    1 ulp of it on [-87, 0] (equal on all but ~0.01% of that range), and
//    exactly +0 below -87, so no weight is subnormal.
//  * Every head's scores, weights and output are bit-identical to the same
//    call with n_q = 1 on that head alone, and every row's to a one-row
//    call with that row's arguments: grouping heads and blocking rows
//    change which rows are loaded together, never the arithmetic.
//  * If every slot is masked the softmax is undefined; the kernel defines
//    the result as all-zero output and all-zero weights. The engine never
//    hits this (a token always attends to itself) but the kernel-level
//    contract must totalize it. A row with n_ctx = 0 gets a zero output.
//
// attn_fused takes any number of rows, each with the arguments of a
// one-row call, and attends them kAttnRowBlock at a time; the format
// variants below are its one-row calls, and each also has a single-head
// form (alibi_slope by value, no n_q): the n_q = 1 case of the same code.

// Rows one pass of attn_fused attends together: each K block and each
// decoded V row is loaded once for all of them, and their softmax sums run
// as independent chains. On llama_tiny's prefill block (32 rows × 3 KV
// heads at 1K and 2K cached fp32 slots) passes of four rows ran in 0.85×
// the time of passes of two, and in 0.67× that of one-row calls.
constexpr size_t kAttnRowBlock = 4;

// One query row of an attn_fused call: the row arguments of a one-row call.
// `scores` is this row's n_q * n_ctx scratch.
struct AttnRow {
  const float* q;
  size_t n_ctx;
  const float* rel_pos;
  const uint8_t* masked;
  float* scores;
  float* out;
};

// One KV head's cached rows. With no row tables (k_rows, k8 and k4 null)
// they are contiguous fp32 rows at k + j * row_stride and v + j *
// row_stride (attn_fused_contig). Otherwise slot j is read through the
// row tables at head_off within its row: Q4_0 when k4 is set and k4[j] !=
// nullptr (attn_fused_q4_gather), else Q8_0 when k8 is set and k8[j] !=
// nullptr (attn_fused_q8_gather), else fp32 k_rows[j] / v_rows[j]
// (attn_fused_gather). A table set holds at most one quantized format.
struct AttnKV {
  const float* k = nullptr;
  const float* v = nullptr;
  size_t row_stride = 0;
  const float* const* k_rows = nullptr;
  const float* const* v_rows = nullptr;
  size_t head_off = 0;
  const int8_t* const* k8 = nullptr;
  const int8_t* const* v8 = nullptr;
  const float* k8_scales = nullptr;
  const float* v8_scales = nullptr;
  const uint8_t* const* k4 = nullptr;
  const uint8_t* const* v4 = nullptr;
  const float* const* k4_scales = nullptr;
  const float* const* v4_scales = nullptr;
};

// rows[0, n_rows) against one KV head, each row with n_q query heads.
void attn_fused(const AttnKV& kv, const AttnRow* rows, size_t n_rows,
                size_t n_q, size_t d_head, float scale,
                const float* alibi_slopes);

// Contiguous variant: K/V token rows live at k[j*row_stride], v[j*row_stride]
// (KVCache layout: row_stride == kv_dim, base pre-offset to the head).
void attn_fused_contig(const float* q, const float* k, const float* v,
                       size_t row_stride, size_t d_head, size_t n_ctx,
                       float scale, const float* alibi_slopes,
                       const float* rel_pos, const uint8_t* masked,
                       float* scores, float* out, size_t n_q);

// Gathered variant for a KVCache read through its row tables: token row j
// lives at k_rows[j] + head_off (one pointer chase per row, dots still
// vectorized).
void attn_fused_gather(const float* q, const float* const* k_rows,
                       const float* const* v_rows, size_t head_off,
                       size_t d_head, size_t n_ctx, float scale,
                       const float* alibi_slopes, const float* rel_pos,
                       const uint8_t* masked, float* scores, float* out,
                       size_t n_q);

// Mixed-format gathered variant for quantized (Q8_0) module rows. Slot j is
// quantized when k8_rows[j] != nullptr: its K/V rows are int8 at
// k8_rows[j] + head_off / v8_rows[j] + head_off with per-row scales
// k_scales[j] / v_scales[j] (scales cover the full kv_dim row, so any
// head's d_head subslice uses the same scale). Otherwise the slot is fp32
// and reads k_rows[j] + head_off / v_rows[j] + head_off as in
// attn_fused_gather. All five tables have n_ctx entries; entries of the
// other format may be null.
//
// Each query head is quantized once per call (symmetric, max-abs/127) and
// scores for q8 slots are computed entirely in the int8 domain:
//   score_j = float(sum_i q8[i] * k8[j][i]) * (scale * q_scale * k_scales[j])
// so no fp32 K/V row is ever materialized for quantized slots. The softmax
// and mix are the fp32 kernels' (one shared core), so the masking contract
// above carries over. d_head must be <= 1024 (query quantization scratch).
void attn_fused_q8_gather(const float* q, const int8_t* const* k8_rows,
                          const int8_t* const* v8_rows, const float* k_scales,
                          const float* v_scales, const float* const* k_rows,
                          const float* const* v_rows, size_t head_off,
                          size_t d_head, size_t n_ctx, float scale,
                          const float* alibi_slopes, const float* rel_pos,
                          const uint8_t* masked, float* scores, float* out,
                          size_t n_q);

// Mixed-format gathered variant for Q4_0 module rows — the sibling of
// attn_fused_q8_gather one format down. Slot j is quantized when
// k4_rows[j] != nullptr: its K/V rows are packed nibbles (kv/quant.h Q4_0
// layout, 16 bytes per 32-value block) and k4_scales[j] / v4_scales[j]
// point at the row's per-block fp32 scale arrays (POINTER tables — q4
// scales are per block, not per row like q8). Otherwise the slot is fp32
// and reads k_rows[j] + head_off / v_rows[j] + head_off. All seven tables
// have n_ctx entries; entries of the other format may be null.
//
// Each query head is quantized to int8 once per call and q4 slots score
// block-wise in the integer domain (simd::dot_i4i8; per-block scale fixup,
// strictly sequential float block accumulation). head_off must be a
// multiple of 32 so the head slice starts on a block boundary; a head slice
// that ends mid-block is exact anyway because the query padding is zero.
// Softmax and mix are the shared core, so the masking contract and the
// all-fp32-tables bitwise-equality property carry over. d_head must be
// <= 1024.
void attn_fused_q4_gather(const float* q, const uint8_t* const* k4_rows,
                          const uint8_t* const* v4_rows,
                          const float* const* k4_scales,
                          const float* const* v4_scales,
                          const float* const* k_rows,
                          const float* const* v_rows, size_t head_off,
                          size_t d_head, size_t n_ctx, float scale,
                          const float* alibi_slopes, const float* rel_pos,
                          const uint8_t* masked, float* scores, float* out,
                          size_t n_q);

// Single-head forms.
inline void attn_fused_contig(const float* q, const float* k, const float* v,
                              size_t row_stride, size_t d_head, size_t n_ctx,
                              float scale, float alibi_slope,
                              const float* rel_pos, const uint8_t* masked,
                              float* scores, float* out) {
  attn_fused_contig(q, k, v, row_stride, d_head, n_ctx, scale, &alibi_slope,
                    rel_pos, masked, scores, out, 1);
}

inline void attn_fused_gather(const float* q, const float* const* k_rows,
                              const float* const* v_rows, size_t head_off,
                              size_t d_head, size_t n_ctx, float scale,
                              float alibi_slope, const float* rel_pos,
                              const uint8_t* masked, float* scores,
                              float* out) {
  attn_fused_gather(q, k_rows, v_rows, head_off, d_head, n_ctx, scale,
                    &alibi_slope, rel_pos, masked, scores, out, 1);
}

inline void attn_fused_q8_gather(
    const float* q, const int8_t* const* k8_rows, const int8_t* const* v8_rows,
    const float* k_scales, const float* v_scales, const float* const* k_rows,
    const float* const* v_rows, size_t head_off, size_t d_head, size_t n_ctx,
    float scale, float alibi_slope, const float* rel_pos,
    const uint8_t* masked, float* scores, float* out) {
  attn_fused_q8_gather(q, k8_rows, v8_rows, k_scales, v_scales, k_rows,
                       v_rows, head_off, d_head, n_ctx, scale, &alibi_slope,
                       rel_pos, masked, scores, out, 1);
}

inline void attn_fused_q4_gather(
    const float* q, const uint8_t* const* k4_rows,
    const uint8_t* const* v4_rows, const float* const* k4_scales,
    const float* const* v4_scales, const float* const* k_rows,
    const float* const* v_rows, size_t head_off, size_t d_head, size_t n_ctx,
    float scale, float alibi_slope, const float* rel_pos,
    const uint8_t* masked, float* scores, float* out) {
  attn_fused_q4_gather(q, k4_rows, v4_rows, k4_scales, v4_scales, k_rows,
                       v_rows, head_off, d_head, n_ctx, scale, &alibi_slope,
                       rel_pos, masked, scores, out, 1);
}

// ---- Tensor wrappers -------------------------------------------------------

// out[m,n] = a[m,k] * b[k,n]
Tensor matmul(const Tensor& a, const Tensor& b);

// out[m,n] = a[m,k] * b_t[n,k]^T — the natural call for y = x * W^T with
// weights stored [out_features, in_features].
Tensor matmul_nt(const Tensor& a, const Tensor& b_t);

// a += b (same shape)
void add_inplace(Tensor& a, const Tensor& b);

// a *= s
void scale_inplace(Tensor& a, float s);

// Elementwise a *= b (same shape)
void mul_inplace(Tensor& a, const Tensor& b);

// Max-abs difference between two same-shaped tensors (test helper).
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace pc
