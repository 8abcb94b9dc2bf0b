// Unit tests for the KV cache: appends, range copies, truncation,
// concatenation policies and their reallocation stats.
#include <gtest/gtest.h>

#include "kv/kv_cache.h"

namespace pc {
namespace {

KVCache filled_cache(int n_layers, int kv_dim, int n_tokens, float base,
                     ConcatPolicy policy = ConcatPolicy::kBuffered) {
  KVCache c(n_layers, kv_dim, policy);
  std::vector<int> pos(static_cast<size_t>(n_tokens));
  for (int i = 0; i < n_tokens; ++i) pos[static_cast<size_t>(i)] = 100 + i;
  c.append_tokens(pos);
  for (int l = 0; l < n_layers; ++l) {
    for (int t = 0; t < n_tokens; ++t) {
      for (int e = 0; e < kv_dim; ++e) {
        c.k_row(l, t)[e] = base + l * 100 + t * 10 + e;
        c.v_row(l, t)[e] = -(base + l * 100 + t * 10 + e);
      }
    }
  }
  return c;
}

TEST(KVCache, AppendTokensTracksPositions) {
  KVCache c(2, 4);
  const std::vector<int> pos = {5, 6, 9};
  const int first = c.append_tokens(pos);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(c.size(), 3);
  EXPECT_EQ(c.pos_id(2), 9);
  const std::vector<int> more = {20};
  EXPECT_EQ(c.append_tokens(more), 3);
  EXPECT_EQ(c.size(), 4);
}

TEST(KVCache, RowsAreZeroInitializedAndWritable) {
  KVCache c(1, 3);
  const std::vector<int> pos = {0, 1};
  c.append_tokens(pos);
  EXPECT_FLOAT_EQ(c.k_row(0, 1)[2], 0.0f);
  c.k_row(0, 1)[2] = 7.0f;
  EXPECT_FLOAT_EQ(c.k_row(0, 1)[2], 7.0f);
}

TEST(KVCache, AppendCopyPreservesPayloadAndPositions) {
  const KVCache src = filled_cache(2, 4, 3, 1000.0f);
  KVCache dst(2, 4);
  const int first = dst.append_copy(src);
  EXPECT_EQ(first, 0);
  ASSERT_EQ(dst.size(), 3);
  for (int l = 0; l < 2; ++l) {
    for (int t = 0; t < 3; ++t) {
      EXPECT_EQ(dst.pos_id(t), src.pos_id(t));
      for (int e = 0; e < 4; ++e) {
        EXPECT_FLOAT_EQ(dst.k_row(l, t)[e], src.k_row(l, t)[e]);
        EXPECT_FLOAT_EQ(dst.v_row(l, t)[e], src.v_row(l, t)[e]);
      }
    }
  }
}

TEST(KVCache, AppendRangeCopiesSubsetOnly) {
  const KVCache src = filled_cache(1, 2, 5, 0.0f);
  KVCache dst(1, 2);
  dst.append_range(src, 1, 4);
  ASSERT_EQ(dst.size(), 3);
  EXPECT_EQ(dst.pos_id(0), src.pos_id(1));
  EXPECT_FLOAT_EQ(dst.k_row(0, 0)[0], src.k_row(0, 1)[0]);
  EXPECT_FLOAT_EQ(dst.v_row(0, 2)[1], src.v_row(0, 3)[1]);
  EXPECT_THROW(dst.append_range(src, 3, 6), ContractViolation);
}

TEST(KVCache, GeometryMismatchRejected) {
  const KVCache src = filled_cache(2, 4, 2, 0.0f);
  KVCache wrong_layers(3, 4);
  EXPECT_THROW(wrong_layers.append_copy(src), ContractViolation);
  KVCache wrong_dim(2, 8);
  EXPECT_THROW(wrong_dim.append_copy(src), ContractViolation);
}

TEST(KVCache, TruncateRollsBack) {
  KVCache c = filled_cache(1, 2, 5, 0.0f);
  c.truncate(2);
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(static_cast<int>(c.pos_ids().size()), 2);
  EXPECT_THROW(c.truncate(3), ContractViolation);
}

TEST(KVCache, ReserveAvoidsReallocation) {
  KVCache c(2, 8, ConcatPolicy::kBuffered);
  c.reserve(100);
  const uint64_t reallocs_after_reserve = c.stats().reallocations;
  for (int i = 0; i < 100; ++i) {
    const std::vector<int> pos = {i};
    c.append_tokens(pos);
  }
  EXPECT_EQ(c.stats().reallocations, reallocs_after_reserve);
}

TEST(KVCache, BufferedPolicyAmortizesGrowth) {
  KVCache buffered(1, 4, ConcatPolicy::kBuffered);
  KVCache naive(1, 4, ConcatPolicy::kNaive);
  for (int i = 0; i < 128; ++i) {
    const std::vector<int> pos = {i};
    buffered.append_tokens(pos);
    naive.append_tokens(pos);
  }
  // PyTorch-style exact-fit concat reallocates every append; the buffered
  // operator reallocates O(log n) times and moves far fewer bytes.
  EXPECT_LT(buffered.stats().reallocations, 20u);
  EXPECT_GT(naive.stats().reallocations, 200u);
  EXPECT_LT(buffered.stats().bytes_moved, naive.stats().bytes_moved / 4);
}

TEST(KVCache, PayloadBytesAccounting) {
  KVCache c(2, 4);
  const std::vector<int> pos = {0, 1, 2};
  c.append_tokens(pos);
  // 3 tokens * (K+V) * 2 layers * 4 floats * 4 bytes
  EXPECT_EQ(c.payload_bytes(), 3u * 2 * 2 * 4 * 4);
}

TEST(KVCache, InvalidAccessesThrow) {
  KVCache c(1, 2);
  EXPECT_THROW(c.k_row(0, 0), ContractViolation);  // empty
  const std::vector<int> pos = {0};
  c.append_tokens(pos);
  EXPECT_THROW(c.k_row(1, 0), ContractViolation);  // bad layer
  EXPECT_THROW(c.pos_id(1), ContractViolation);
  EXPECT_THROW(KVCache(0, 2), ContractViolation);
}

}  // namespace
}  // namespace pc
