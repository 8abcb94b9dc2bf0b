// Unit tests for the latency histogram and its engine integration.
#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/rng.h"
#include "core/engine.h"
#include "eval/workload.h"
#include "model/induction.h"

namespace pc {
namespace {

TEST(Histogram, EmptyIsZeroed) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile_seconds(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 0.0);
}

TEST(Histogram, MeanMinMaxExact) {
  LatencyHistogram h;
  h.record_ms(1.0);
  h.record_ms(3.0);
  h.record_ms(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.mean_seconds(), 2e-3, 1e-12);
  EXPECT_NEAR(h.min_seconds(), 1e-3, 1e-12);
  EXPECT_NEAR(h.max_seconds(), 3e-3, 1e-12);
}

TEST(Histogram, QuantilesWithinBucketError) {
  // Geometric buckets at 2^(1/4): quantile error is bounded by ~19%.
  LatencyHistogram h;
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double s = std::exp(rng.uniform(-9.0f, -2.0f));  // e^-9..e^-2 s
    samples.push_back(s);
    h.record_seconds(s);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = samples[static_cast<size_t>(q * samples.size())];
    const double est = h.quantile_seconds(q);
    EXPECT_NEAR(est / exact, 1.0, 0.20) << "q=" << q;
  }
}

TEST(Histogram, QuantileIsMonotonic) {
  LatencyHistogram h;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    h.record_ms(rng.uniform(0.01f, 100.0f));
  }
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile_seconds(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Histogram, QuantileZeroIsExactMinimum) {
  // Regression: q=0 used to be bucketized like any other quantile,
  // returning the first occupied bucket's upper edge (up to 19% above the
  // smallest sample). The minimum is tracked exactly — return it.
  LatencyHistogram h;
  h.record_ms(1.0);
  h.record_ms(100.0);
  EXPECT_DOUBLE_EQ(h.quantile_seconds(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(h.quantile_seconds(0.0), h.min_seconds());
  // Still zero when empty, and still monotonic against q>0 reads.
  EXPECT_DOUBLE_EQ(LatencyHistogram().quantile_seconds(0.0), 0.0);
  EXPECT_LE(h.quantile_seconds(0.0), h.quantile_seconds(0.01));
}

TEST(Histogram, QuantileZeroSurvivesMerge) {
  LatencyHistogram larger;
  larger.record_seconds(0.25);
  LatencyHistogram h;
  h.record_seconds(0.004);
  h.merge(larger);  // the exact minimum survives, not a bucket edge
  EXPECT_DOUBLE_EQ(h.quantile_seconds(0.0), 0.004);

  // Merge in the other direction: the smaller minimum wins.
  LatencyHistogram smaller;
  smaller.record_seconds(0.0005);
  larger.merge(smaller);
  EXPECT_DOUBLE_EQ(larger.quantile_seconds(0.0), 0.0005);
}

TEST(Histogram, ExtremesClampToBucketRange) {
  LatencyHistogram h;
  h.record_seconds(1e-9);   // below first bucket
  h.record_seconds(1e6);    // above last bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.quantile_seconds(1.0), 0.0);
  EXPECT_THROW(h.quantile_seconds(1.5), ContractViolation);
}

TEST(Histogram, EmptyPercentilesAreZero) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.p50_ms(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99_ms(), 0.0);
}

TEST(Histogram, SingleSamplePercentilesCoincide) {
  LatencyHistogram h;
  h.record_ms(3.0);
  // Every quantile lands in the one occupied bucket, so p50 == p99 and
  // both are that bucket's upper edge: >= the sample, within one bucket
  // width (2^(1/4) ≈ 19%) above it.
  EXPECT_DOUBLE_EQ(h.p50_ms(), h.p99_ms());
  EXPECT_GE(h.p50_ms(), 3.0);
  EXPECT_LE(h.p50_ms(), 3.0 * 1.20);
}

TEST(Histogram, MergeSameLayoutIsExact) {
  LatencyHistogram a, b, combined;
  for (double ms : {1.0, 4.0, 9.0}) {
    a.record_ms(ms);
    combined.record_ms(ms);
  }
  for (double ms : {2.0, 16.0}) {
    b.record_ms(ms);
    combined.record_ms(ms);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum_seconds(), combined.sum_seconds());
  EXPECT_DOUBLE_EQ(a.min_seconds(), combined.min_seconds());
  EXPECT_DOUBLE_EQ(a.max_seconds(), combined.max_seconds());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile_seconds(q), combined.quantile_seconds(q));
  }
}

TEST(Histogram, MergeEmptyIsNoop) {
  LatencyHistogram a;
  a.record_ms(5.0);
  const double p50_before = a.p50_ms();
  LatencyHistogram empty;
  a.merge(empty);  // must change nothing, the exact minimum included
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.p50_ms(), p50_before);
  EXPECT_DOUBLE_EQ(a.min_seconds(), 5e-3);
}

TEST(Histogram, SummaryMentionsPercentiles) {
  LatencyHistogram h;
  h.record_ms(5.0);
  const std::string s = h.summary();
  EXPECT_NE(s.find("p50"), std::string::npos);
  EXPECT_NE(s.find("p99"), std::string::npos);
  EXPECT_NE(s.find("n=1"), std::string::npos);
}

TEST(Histogram, EngineRecordsServeLatencies) {
  AccuracyWorkload workload(7);
  Model model = make_induction_model({workload.vocab().size(), 256});
  PromptCacheEngine engine(model, workload.tokenizer());
  engine.load_schema(R"(
    <schema name="t"><module name="doc">w00 q05 a10 . w01</module></schema>)");
  GenerateOptions opts;
  opts.max_new_tokens = 2;
  opts.stop_tokens = {workload.stop_token()};

  const char* prompt = R"(<prompt schema="t"><doc/> question: q05</prompt>)";
  ServeResult cached, baseline;
  for (int i = 0; i < 8; ++i) cached = engine.serve(prompt, opts);
  for (int i = 0; i < 3; ++i) baseline = engine.serve_baseline(prompt, opts);

  EXPECT_EQ(engine.cached_ttft_histogram().count(), 8u);
  EXPECT_EQ(engine.baseline_ttft_histogram().count(), 3u);
  EXPECT_GT(engine.cached_ttft_histogram().p50_ms(), 0.0);
  // What makes cached TTFT lower: the cached serve prefills only the
  // uncached question, the baseline the whole prompt. Counted, not timed —
  // on this toy prompt both run near the scheduler-noise floor, and timing
  // is bench/e2e's cached_speedup.
  EXPECT_LT(cached.ttft.uncached_tokens, baseline.ttft.uncached_tokens);
}

}  // namespace
}  // namespace pc
