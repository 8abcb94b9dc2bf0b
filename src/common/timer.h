// Wall-clock timing utilities.
#pragma once

#include <chrono>
#include <cstdint>

namespace pc {

// Milliseconds from `a` to `b` on the monotonic clock.
inline double ms_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_seconds() * 1e3; }
  double elapsed_us() const { return elapsed_seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pc
