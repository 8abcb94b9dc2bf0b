// Log-bucketed latency histogram with percentile queries.
//
// The engine records per-request TTFT into these so long-running serving
// processes can report p50/p90/p99 without retaining per-request samples.
// Every histogram has one bucket layout: buckets grow geometrically by
// 2^(1/4) ≈ 19% from a 1 µs floor, spanning ~4.6 hours with <10% quantile
// error at constant memory, so any two merge bucket for bucket. The
// observability registry (src/obs/metrics.h) wraps this class for its
// histogram instrument, so every latency metric in the process shares one
// quantile semantics.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/error.h"

namespace pc {

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 136;  // 1e-6 s * 2^(135/4) ≈ 1.5e4 s
  // Bucket 0 holds everything at or below the floor.
  static constexpr double kFloorSeconds = 1e-6;
  static constexpr int kBucketsPerDoubling = 4;

  void record_seconds(double seconds) {
    ++count_;
    sum_seconds_ += seconds;
    max_seconds_ = std::max(max_seconds_, seconds);
    min_seconds_seen_ = std::min(min_seconds_seen_, seconds);
    ++buckets_[static_cast<size_t>(bucket_for(seconds))];
  }

  void record_ms(double ms) { record_seconds(ms / 1e3); }

  uint64_t count() const { return count_; }
  double sum_seconds() const { return sum_seconds_; }
  double mean_seconds() const {
    return count_ == 0 ? 0.0 : sum_seconds_ / static_cast<double>(count_);
  }
  double max_seconds() const { return count_ == 0 ? 0.0 : max_seconds_; }
  double min_seconds() const { return count_ == 0 ? 0.0 : min_seconds_seen_; }

  // Quantile in [0, 1] as an upper bound: the upper edge of the occupied
  // bucket holding the q-th ranked sample, not a sample. It can exceed the
  // observed maximum (by up to one bucket width, ~19%), and the same edges
  // recur across unrelated runs. This bound is what the Prometheus summary
  // export reports (obs/export.cpp); exact percentiles need the raw
  // samples. q == 0 returns the exact observed minimum: rank would be
  // ceil(0) == 0, so the bucket walk below would report the first occupied
  // bucket's upper edge instead of the minimum.
  double quantile_seconds(double q) const {
    PC_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile out of range");
    if (count_ == 0) return 0.0;
    if (q == 0.0) return min_seconds();
    const uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += buckets_[static_cast<size_t>(b)];
      if (seen >= rank && seen > 0) return bucket_upper_edge(b);
    }
    return max_seconds_;
  }

  double p50_ms() const { return quantile_seconds(0.50) * 1e3; }
  double p90_ms() const { return quantile_seconds(0.90) * 1e3; }
  double p99_ms() const { return quantile_seconds(0.99) * 1e3; }

  // Clears the samples.
  void reset() {
    buckets_.fill(0);
    count_ = 0;
    sum_seconds_ = 0.0;
    max_seconds_ = 0.0;
    min_seconds_seen_ = 1e300;
  }

  // Folds another histogram into this one, bucket for bucket: exact (the
  // metrics registry merges a family's cells into one scrape value).
  void merge(const LatencyHistogram& other) {
    if (other.count_ == 0) return;
    for (int b = 0; b < kBuckets; ++b) {
      buckets_[static_cast<size_t>(b)] +=
          other.buckets_[static_cast<size_t>(b)];
    }
    count_ += other.count_;
    sum_seconds_ += other.sum_seconds_;
    max_seconds_ = std::max(max_seconds_, other.max_seconds_);
    min_seconds_seen_ = std::min(min_seconds_seen_, other.min_seconds_seen_);
  }

  // One-line summary for logs: "n=42 mean=1.2ms p50=1.1ms p99=3.0ms".
  std::string summary() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "n=%llu mean=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms "
                  "max=%.3fms",
                  static_cast<unsigned long long>(count_),
                  mean_seconds() * 1e3, p50_ms(), p90_ms(), p99_ms(),
                  max_seconds() * 1e3);
    return buf;
  }

 private:
  static int bucket_for(double seconds) {
    if (seconds <= kFloorSeconds) return 0;
    const int b = static_cast<int>(std::floor(
                      static_cast<double>(kBucketsPerDoubling) *
                      std::log2(seconds / kFloorSeconds))) +
                  1;
    return std::min(std::max(b, 0), kBuckets - 1);
  }

  static double bucket_upper_edge(int bucket) {
    if (bucket <= 0) return kFloorSeconds;
    return kFloorSeconds *
           std::pow(2.0, static_cast<double>(bucket) /
                             static_cast<double>(kBucketsPerDoubling));
  }

  std::array<uint64_t, kBuckets> buckets_ = {};
  uint64_t count_ = 0;
  double sum_seconds_ = 0.0;
  double max_seconds_ = 0.0;
  double min_seconds_seen_ = 1e300;
};

}  // namespace pc
