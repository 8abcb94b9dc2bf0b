#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace {

using pc::e2e::percentile;

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, MedianInterpolatesBetweenMiddleSamples) {
  const auto p = percentile({4.0, 1.0, 3.0, 2.0}, 0.5);
  ASSERT_TRUE(p.value.has_value());
  EXPECT_DOUBLE_EQ(*p.value, 2.5);
  EXPECT_EQ(p.samples, 4u);
}

TEST(Percentile, MedianOfOneSampleIsThatSample) {
  const auto p = percentile({7.25}, 0.5);
  ASSERT_TRUE(p.value.has_value());
  EXPECT_DOUBLE_EQ(*p.value, 7.25);
}

TEST(Percentile, P90IsInterpolatedNotABucketEdge) {
  // 1..100: rank 0.9 * 99 = 89.1 lies between the 90th (90) and 91st (91)
  // order statistics.
  const auto p = percentile(one_to(100), 0.9);
  ASSERT_TRUE(p.value.has_value());
  EXPECT_NEAR(*p.value, 90.1, 1e-12);
}

TEST(Percentile, HandComputedOnUnevenValues) {
  // Sorted: 1, 2, 4, ..., 2^29 (30 samples). p25: rank 0.25 * 29 = 7.25,
  // so 128 + 0.25 * (256 - 128) = 160. The lower-tail gate counts the
  // ceil(7.25) = 8 samples below that rank.
  std::vector<double> v;
  for (int i = 29; i >= 0; --i) v.push_back(static_cast<double>(1u << i));
  const auto p = percentile(v, 0.25, 8);
  ASSERT_TRUE(p.value.has_value());
  EXPECT_DOUBLE_EQ(*p.value, 160.0);
  EXPECT_FALSE(percentile(v, 0.25, 9).value.has_value());
}

TEST(Percentile, GateNeedsTenSamplesBeyondTheRank) {
  // p90 over n samples has n - 1 - floor(0.9 * (n - 1)) samples above its
  // rank: 9 at n = 91, 10 at n = 92.
  EXPECT_FALSE(percentile(one_to(91), 0.9).value.has_value());
  EXPECT_TRUE(percentile(one_to(92), 0.9).value.has_value());
  // p99 needs ~1000 samples.
  EXPECT_FALSE(percentile(one_to(500), 0.99).value.has_value());
  EXPECT_TRUE(percentile(one_to(1000), 0.99).value.has_value());
}

TEST(Percentile, GatedPercentileSaysWhy) {
  const auto p = percentile(one_to(50), 0.9);
  EXPECT_FALSE(p.value.has_value());
  EXPECT_EQ(p.reason, "5 of 50 samples beyond the rank, need 10");
  EXPECT_EQ(p.samples, 50u);
}

TEST(Percentile, EmptyAndOutOfRangeAreReported) {
  EXPECT_EQ(percentile({}, 0.5).reason, "no samples");
  EXPECT_EQ(percentile({1.0}, 1.5).reason, "quantile outside [0, 1]");
}

TEST(Percentile, TiesDoNotChangeTheGate) {
  // The gate counts ranks, not distinct values: 100 equal samples still
  // support a p90, and its value is the common value.
  const auto p = percentile(std::vector<double>(100, 3.0), 0.9);
  ASSERT_TRUE(p.value.has_value());
  EXPECT_DOUBLE_EQ(*p.value, 3.0);
}

}  // namespace
