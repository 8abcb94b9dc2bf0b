// Deterministic pseudo-random number generation.
//
// All randomness in the library (weight init, workload synthesis) flows
// through Rng so that every experiment is reproducible from a single seed.
// The generator is xoshiro256** seeded via SplitMix64, which is fast,
// well-distributed, and identical across platforms (unlike std::mt19937
// distributions, whose outputs are not specified portably).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace pc {

// SplitMix64: one step of the golden-ratio counter, then its finalizer. A
// well-mixed 64-bit hash of `x`; Rng's seeding, the fault injector's draws,
// the shard ring and the retry jitter all hash through it.
inline uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    for (auto& s : state_) {
      s = splitmix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
    has_cached_gauss_ = false;
  }

  // Uniform 64-bit value.
  uint64_t next_u64() {
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform float in [lo, hi).
  float uniform(float lo, float hi) {
    return lo + static_cast<float>(next_double()) * (hi - lo);
  }

  // Uniform integer in [0, n). Uses rejection to avoid modulo bias.
  uint64_t next_below(uint64_t n) {
    PC_CHECK(n > 0);
    const uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    uint64_t r;
    do {
      r = next_u64();
    } while (r < threshold);
    return r % n;
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t uniform_int(int64_t lo, int64_t hi) {
    PC_CHECK(lo <= hi);
    return lo + static_cast<int64_t>(
                    next_below(static_cast<uint64_t>(hi - lo) + 1));
  }

  // Standard normal via Box-Muller (cached second value).
  double next_gauss() {
    if (has_cached_gauss_) {
      has_cached_gauss_ = false;
      return cached_gauss_;
    }
    double u1, u2;
    do {
      u1 = next_double();
    } while (u1 <= 1e-300);
    u2 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_gauss_ = r * std::sin(theta);
    has_cached_gauss_ = true;
    return r * std::cos(theta);
  }

  float gauss(float mean, float stddev) {
    return mean + stddev * static_cast<float>(next_gauss());
  }

  // True with probability p.
  bool bernoulli(double p) { return next_double() < p; }

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(next_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Pick a uniformly random element (by reference).
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    PC_CHECK(!v.empty());
    return v[static_cast<size_t>(next_below(v.size()))];
  }

  // Derive an independent child generator (for per-subsystem streams).
  Rng fork() { return Rng(next_u64()); }

 private:
  static uint64_t rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4] = {};
  bool has_cached_gauss_ = false;
  double cached_gauss_ = 0.0;
};

}  // namespace pc
