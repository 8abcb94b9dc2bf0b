// Per-row symmetric int8 quantization for cached attention states.
//
// The paper's memory analysis (§5.5) concludes that compression of cached
// states is the lever for fitting large-model modules in memory, and lists
// KV compression as future work (§6). This implements the standard
// first-order scheme: each row (one token's K or V vector in one layer) is
// scaled by max|x|/127 and stored as int8, cutting the resident footprint
// to ~25% of fp32 (plus one float scale per row) at ~0.4% RMS error.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "tensor/simd.h"

namespace pc {

// Scalar reference for quantize_rows. The vectorized path below must stay
// bit-identical to this (the golden-equivalence test in test_kernels.cpp
// compares them on every build): max/abs are element-pure, the multiply/
// round/clamp sequence is per-element IEEE, and the default
// round-to-nearest-even mode matches _mm256_cvtps_epi32.
inline void quantize_rows_scalar(const float* src, int n_rows, int width,
                                 int8_t* dst, float* scales) {
  PC_CHECK(n_rows >= 0 && width > 0);
  for (int r = 0; r < n_rows; ++r) {
    const float* row = src + static_cast<size_t>(r) * width;
    float max_abs = 0.0f;
    for (int i = 0; i < width; ++i) {
      max_abs = std::max(max_abs, std::fabs(row[i]));
    }
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    const float inv = 1.0f / scale;
    int8_t* out = dst + static_cast<size_t>(r) * width;
    for (int i = 0; i < width; ++i) {
      const float q = std::nearbyint(row[i] * inv);
      out[i] = static_cast<int8_t>(std::max(-127.0f, std::min(127.0f, q)));
    }
    scales[r] = scale;
  }
}

// Quantizes n_rows rows of `width` floats. dst must hold n_rows*width
// int8s; scales must hold n_rows floats. Vectorized max-abs scan and
// round/clamp via tensor/simd.h; output bits match quantize_rows_scalar.
inline void quantize_rows(const float* src, int n_rows, int width,
                          int8_t* dst, float* scales) {
  PC_CHECK(n_rows >= 0 && width > 0);
  for (int r = 0; r < n_rows; ++r) {
    const float* row = src + static_cast<size_t>(r) * width;
    const float max_abs =
        simd::reduce_max_abs(row, static_cast<size_t>(width));
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    simd::quantize_i8(row, 1.0f / scale,
                      dst + static_cast<size_t>(r) * width,
                      static_cast<size_t>(width));
    scales[r] = scale;
  }
}

inline void dequantize_row(const int8_t* src, float scale, int width,
                           float* dst) {
  simd::dequant_store(src, scale, dst, static_cast<size_t>(width));
}

// Convenience container for one layer's quantized K/V payload.
struct Q8Layer {
  std::vector<int8_t> k;       // [n_tokens * kv_dim]
  std::vector<int8_t> v;
  std::vector<float> k_scales; // [n_tokens]
  std::vector<float> v_scales;
};

// ---- Q4_0: blocked 4-bit quantization ---------------------------------------
//
// The sub-byte format (ROADMAP: another ~2x residency win over Q8_0). A row
// is split into blocks of 32 values; each block stores one fp32 scale and 16
// packed bytes (element j in the low nibble of byte j, element j+16 in the
// high nibble — the classic llama.cpp Q4_0 packing, which is what lets the
// AVX2 kernels unpack a whole block with one mask+shift). The scale is
// amax/-8 where amax is the signed extremum of the block (so the value with
// the largest magnitude maps exactly to quant level -8 or +7); stored
// nibbles are q+8 in [0,15]. Partial final blocks pad with nibble 8 — the
// quantized zero — so padded lanes contribute nothing to dots or mixes.

inline constexpr int kQ4BlockSize = 32;

inline int q4_blocks(int width) {
  return (width + kQ4BlockSize - 1) / kQ4BlockSize;
}

// Packed bytes per row of `width` values (16 bytes per block).
inline size_t q4_row_bytes(int width) {
  return static_cast<size_t>(q4_blocks(width)) * (kQ4BlockSize / 2);
}

// Scalar reference for quantize_rows_q4. The vectorized path must stay
// bit-identical (golden-equivalence test in test_kernels.cpp): the scale
// pick is pure comparisons, and round-then-clamp here equals the SIMD
// clamp-then-round because rounding is monotonic (same argument as q8).
inline void quantize_rows_q4_scalar(const float* src, int n_rows, int width,
                                    uint8_t* dst, float* block_scales) {
  PC_CHECK(n_rows >= 0 && width > 0);
  const int blocks = q4_blocks(width);
  const size_t row_bytes = q4_row_bytes(width);
  for (int r = 0; r < n_rows; ++r) {
    const float* row = src + static_cast<size_t>(r) * width;
    uint8_t* out = dst + static_cast<size_t>(r) * row_bytes;
    float* scales = block_scales + static_cast<size_t>(r) * blocks;
    for (int b = 0; b < blocks; ++b) {
      const int base = b * kQ4BlockSize;
      const int count = std::min(kQ4BlockSize, width - base);
      // Signed extremum: the absolute max, keeping its sign (ties between
      // +x and -x resolve to +x so scale signs are deterministic).
      float amax = 0.0f;
      for (int i = 0; i < count; ++i) {
        const float x = row[base + i];
        if (std::fabs(x) > std::fabs(amax)) amax = x;
      }
      const float scale = amax != 0.0f ? amax / -8.0f : 1.0f;
      const float inv = 1.0f / scale;
      uint8_t* pk = out + static_cast<size_t>(b) * (kQ4BlockSize / 2);
      for (int j = 0; j < kQ4BlockSize / 2; ++j) {
        int lo = 8, hi = 8;  // quantized zero pads the partial tail
        if (j < count) {
          const float q = std::nearbyint(row[base + j] * inv);
          lo = static_cast<int>(std::max(-8.0f, std::min(7.0f, q))) + 8;
        }
        if (j + kQ4BlockSize / 2 < count) {
          const float q =
              std::nearbyint(row[base + j + kQ4BlockSize / 2] * inv);
          hi = static_cast<int>(std::max(-8.0f, std::min(7.0f, q))) + 8;
        }
        pk[j] = static_cast<uint8_t>(lo | (hi << 4));
      }
      scales[b] = scale;
    }
  }
}

// Vectorized Q4_0 row quantization; bit-identical to the scalar golden.
// dst must hold n_rows * q4_row_bytes(width) bytes; block_scales must hold
// n_rows * q4_blocks(width) floats.
inline void quantize_rows_q4(const float* src, int n_rows, int width,
                             uint8_t* dst, float* block_scales) {
  PC_CHECK(n_rows >= 0 && width > 0);
  const int blocks = q4_blocks(width);
  const size_t row_bytes = q4_row_bytes(width);
  for (int r = 0; r < n_rows; ++r) {
    const float* row = src + static_cast<size_t>(r) * width;
    uint8_t* out = dst + static_cast<size_t>(r) * row_bytes;
    float* scales = block_scales + static_cast<size_t>(r) * blocks;
    for (int b = 0; b < blocks; ++b) {
      const int base = b * kQ4BlockSize;
      const int count = std::min(kQ4BlockSize, width - base);
      const float amax = simd::signed_extremum(row + base,
                                               static_cast<size_t>(count));
      const float scale = amax != 0.0f ? amax / -8.0f : 1.0f;
      simd::quantize_i4(row + base, 1.0f / scale, static_cast<size_t>(count),
                        out + static_cast<size_t>(b) * (kQ4BlockSize / 2));
      scales[b] = scale;
    }
  }
}

// Expands one Q4_0 row back to fp32: dst[i] = scale_b * (nibble_i - 8).
inline void dequantize_row_q4(const uint8_t* packed,
                              const float* block_scales, int width,
                              float* dst) {
  const int blocks = q4_blocks(width);
  for (int b = 0; b < blocks; ++b) {
    const int base = b * kQ4BlockSize;
    const int count = std::min(kQ4BlockSize, width - base);
    simd::dequant_store_i4(packed + static_cast<size_t>(b) *
                               (kQ4BlockSize / 2),
                           block_scales[b], dst + base,
                           static_cast<size_t>(count));
  }
}

// Convenience container for one layer's Q4_0 payload.
struct Q4Layer {
  std::vector<uint8_t> k;      // [n_tokens * q4_row_bytes(kv_dim)]
  std::vector<uint8_t> v;
  std::vector<float> k_scales; // [n_tokens * q4_blocks(kv_dim)]
  std::vector<float> v_scales;
};

}  // namespace pc
