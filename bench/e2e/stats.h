// Exact percentiles over raw samples, for the end-to-end benchmark.
//
// Every timing the benchmark reports comes from here, never from
// LatencyHistogram::quantile_seconds (common/histogram.h), which returns a
// bucket's upper edge rather than a measured value.
//
// Interpolation: linear between the closest ranks, at rank q * (n - 1) of
// the sorted samples (numpy's default "linear" rule, Hyndman-Fan type 7).
//
// Sample-count gate: a tail percentile is reported only when at least
// kMinBeyond samples lie beyond its rank on the tail side (above it for
// q > 0.5, below it for q < 0.5), so a p90 needs at least 92 samples. The
// median has no tail and is reported for any non-empty set, together with
// its sample count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace pc::e2e {

inline constexpr size_t kMinBeyond = 10;

struct Percentile {
  std::optional<double> value;  // empty when the sample cannot support it
  std::string reason;           // why `value` is empty
  size_t samples = 0;
};

// Number of order statistics strictly beyond rank q * (n - 1) on the tail
// side of a tail percentile q != 0.5 (n > 0).
inline size_t samples_beyond(size_t n, double q) {
  const double rank = q * static_cast<double>(n - 1);
  return q > 0.5 ? n - 1 - static_cast<size_t>(std::floor(rank))
                 : static_cast<size_t>(std::ceil(rank));
}

inline Percentile percentile(std::vector<double> samples, double q,
                             size_t min_beyond = kMinBeyond) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) {
    out.reason = "no samples";
    return out;
  }
  if (q < 0.0 || q > 1.0) {
    out.reason = "quantile outside [0, 1]";
    return out;
  }
  if (q != 0.5) {
    const size_t beyond = samples_beyond(samples.size(), q);
    if (beyond < min_beyond) {
      out.reason = std::to_string(beyond) + " of " +
                   std::to_string(samples.size()) +
                   " samples beyond the rank, need " +
                   std::to_string(min_beyond);
      return out;
    }
  }
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  out.value = samples[lo] + (rank - static_cast<double>(lo)) *
                                (samples[hi] - samples[lo]);
  return out;
}

}  // namespace pc::e2e
