// Module storage tiers and the cost of moving between them (paper §4.1).
//
// Prompt Cache stores encoded modules in either host DRAM (large, but GPUs
// pay a PCIe copy to use it) or device HBM (fast, scarce). TierAllocator
// tracks capacity and usage per tier so the core cache can make placement
// decisions and the benchmarks can report footprint; actual storage always
// lives in host RAM in this reproduction — the tier tag determines which
// simulated transfer cost applies at inference time. LinkModel is that
// cost: the serving lanes charge it on host-resident module bytes, and the
// store's disk tier on every spill record it reads back.
#pragma once

#include <cstddef>
#include <limits>

#include "common/error.h"
#include "sys/device_model.h"

namespace pc {

struct TierUsage {
  size_t capacity_bytes = 0;  // 0 means unlimited — test with unlimited()
  size_t used_bytes = 0;

  // The capacity sentinel, spelled out: arithmetic on capacity_bytes is
  // only meaningful when this is false. Callers must branch on this
  // instead of comparing capacity_bytes to 0 (or free_bytes() to
  // SIZE_MAX) themselves.
  bool unlimited() const { return capacity_bytes == 0; }

  size_t free_bytes() const {
    if (unlimited()) return std::numeric_limits<size_t>::max();
    return capacity_bytes - used_bytes;
  }
};

// Simulated interconnect (0-valued fields contribute nothing).
struct LinkModel {
  double bandwidth_bytes_per_s = 0;  // link throughput; 0 = infinite
  double latency_s = 0;              // fixed per-transfer setup cost

  double stall_s(size_t bytes) const {
    double s = latency_s;
    if (bandwidth_bytes_per_s > 0) {
      s += static_cast<double>(bytes) / bandwidth_bytes_per_s;
    }
    return s;
  }
};

class TierAllocator {
 public:
  TierAllocator(size_t host_capacity_bytes, size_t device_capacity_bytes) {
    host_.capacity_bytes = host_capacity_bytes;
    device_.capacity_bytes = device_capacity_bytes;
  }

  const TierUsage& usage(ModuleLocation loc) const {
    return loc == ModuleLocation::kHostMemory ? host_ : device_;
  }

  bool can_fit(ModuleLocation loc, size_t bytes) const {
    const TierUsage& u = usage(loc);
    // Compare against the remaining headroom, never `used + bytes`: the
    // sum form wraps around for requests near SIZE_MAX and would admit
    // them into a full tier.
    return u.unlimited() || bytes <= u.capacity_bytes - u.used_bytes;
  }

  void charge(ModuleLocation loc, size_t bytes) {
    TierUsage& u = mutable_usage(loc);
    PC_CHECK_MSG(can_fit(loc, bytes), "tier over-commit");
    u.used_bytes += bytes;
  }

  void credit(ModuleLocation loc, size_t bytes) {
    TierUsage& u = mutable_usage(loc);
    PC_CHECK_MSG(u.used_bytes >= bytes, "tier under-flow");
    u.used_bytes -= bytes;
  }

 private:
  TierUsage& mutable_usage(ModuleLocation loc) {
    return loc == ModuleLocation::kHostMemory ? host_ : device_;
  }

  TierUsage host_;
  TierUsage device_;
};

}  // namespace pc
