// How fast the host runs right now, measured with a fixed computation.
//
// On a shared host the same code runs up to ~1.5x slower for seconds to
// minutes at a time, and one CPU can be slower than another, as other
// tenants contend for the cores and their caches (README.md, "Noise"). The
// benchmark times this computation on every CPU at points spread over its
// run and scales every end-to-end timing by kRefMs / (median time taken),
// so that the timings read as on a host whose calibration took kRefMs. The
// raw timings are reported beside them. The benchmark's single-threaded
// loops also move from CPU to CPU (pin_caller).
//
// The computation is the benchmark's own code, not the program's, so a
// change to src/ cannot change it: a register-blocked fp32 gemm, bound by
// multiply-add throughput like a prefill, and an fp32 gemv streaming 6 MB
// of weights, bound by cache bandwidth like a decode step.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "stats.h"

namespace pc::e2e {

class HostSpeed {
 public:
  // The calibration's median time on the development host in its fast
  // state (Intel Xeon, family 6 model 207, -O3 -march=native).
  static constexpr double kRefMs = 1.8;

  HostSpeed() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
      }
    }
    if (cpus_.empty()) cpus_.push_back(-1);  // run unpinned
    for (size_t i = 0; i < cpus_.size(); ++i) {
      kernels_.push_back(std::make_unique<Kernel>());
    }
  }

  // Times `calls` runs of the computation on every CPU this process may
  // use, all at once, one thread pinned to each. The caller's own threads
  // should be idle meanwhile.
  void sample(int calls) {
    std::vector<std::vector<double>> ms(cpus_.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < cpus_.size(); ++i) {
      threads.emplace_back([this, i, calls, &ms] {
        pin_caller(i);
        for (int c = 0; c < calls; ++c) ms[i].push_back(kernels_[i]->run());
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::vector<double>& m : ms) {
      ms_.insert(ms_.end(), m.begin(), m.end());
    }
  }

  // Pins the calling thread to the CPUs in turn: slot i to the (i mod n)-th
  // of the n CPUs this process may use. A single-threaded loop that moves
  // to the next slot now and then visits every CPU, so its median does not
  // depend on which CPU the scheduler happened to keep it on.
  void pin_caller(size_t slot) const {
    const int cpu = cpus_[slot % cpus_.size()];
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }
  // Lets the calling thread run on every CPU again.
  void unpin_caller() const {
    if (cpus_[0] < 0) return;
    pthread_setaffinity_np(pthread_self(), sizeof(allowed_), &allowed_);
  }

  size_t samples() const { return ms_.size(); }
  double median_ms() const { return *percentile(ms_, 0.5).value; }
  // A timing measured on this host times this reads as on the reference.
  double factor() const { return kRefMs / median_ms(); }

 private:
  // One CPU's copy of the computation and its data.
  class Kernel {
   public:
    Kernel()
        : a_(kM * kK), b_(kK * kN), c_(kM * kN), w_(kK * kWide), x_(kK),
          y_(kWide) {
      for (size_t i = 0; i < a_.size(); ++i) a_[i] = 0.01f * (i % 13);
      for (size_t i = 0; i < b_.size(); ++i) b_[i] = 0.01f * (i % 7);
      for (size_t i = 0; i < w_.size(); ++i) w_[i] = 0.01f * (i % 11);
      std::fill(x_.begin(), x_.end(), 0.5f);
    }

    // One timed run, in ms. The gemm takes about three quarters of it, as
    // prefill does in most requests.
    double run() {
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < 4; ++r) gemm();
      gemv();
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::milli>(t1 - t0).count();
    }

   private:
    static constexpr size_t kM = 160, kK = 192, kN = 512, kWide = 8192;

    // C = A B, 4 rows by 32 columns of accumulators held in registers.
    __attribute__((noinline)) void gemm() {
      for (size_t i = 0; i < kM; i += 4) {
        for (size_t j = 0; j < kN; j += 32) {
          float acc[4][32] = {};
          for (size_t k = 0; k < kK; ++k) {
            const float* b = &b_[k * kN + j];
            for (size_t r = 0; r < 4; ++r) {
              const float a = a_[(i + r) * kK + k];
              for (size_t t = 0; t < 32; ++t) acc[r][t] += a * b[t];
            }
          }
          for (size_t r = 0; r < 4; ++r) {
            std::copy(acc[r], acc[r] + 32, &c_[(i + r) * kN + j]);
          }
        }
      }
      sink_ = sink_ + c_[7];
    }

    // y = x W, one row of W at a time.
    __attribute__((noinline)) void gemv() {
      std::fill(y_.begin(), y_.end(), 0.0f);
      for (size_t k = 0; k < kK; ++k) {
        const float xk = x_[k];
        const float* w = &w_[k * kWide];
        for (size_t j = 0; j < kWide; ++j) y_[j] += xk * w[j];
      }
      sink_ = sink_ + y_[3];
    }

    std::vector<float> a_, b_, c_, w_, x_, y_;
    volatile float sink_ = 0;
  };

  cpu_set_t allowed_;
  std::vector<int> cpus_;  // -1 alone when the CPUs are unknown
  std::vector<std::unique_ptr<Kernel>> kernels_;
  std::vector<double> ms_;
};

}  // namespace pc::e2e
