// Analytic hardware model for the paper's evaluation platforms.
//
// The paper measures TTFT on three NVIDIA GPUs and two desktop CPUs that are
// not available here; per the reproduction's substitution rule we model them
// analytically. The model has two terms — compute time (FLOPs / attainable
// throughput) and transfer time (bytes / link bandwidth + latency) — which
// is exactly the asymmetry Prompt Cache exploits: baseline prefill cost is
// quadratic in sequence length (attention FLOPs) while cached inference cost
// is linear (module memcpy). Profiles are calibrated from public spec
// sheets with a sustained-efficiency derate; absolute numbers are
// approximate by design, but the who-wins/by-what-factor shape of Figures
// 3-5 follows from the ratios, not the absolutes.
#pragma once

#include <string>
#include <vector>

#include "sys/model_spec.h"

namespace pc {

// Where encoded prompt modules live relative to the compute device.
enum class ModuleLocation {
  kHostMemory,    // CPU DRAM: GPUs must copy over PCIe; CPUs copy host-to-host
  kDeviceMemory,  // GPU HBM: device-to-device copy (near-free)
};

struct HardwareProfile {
  std::string name;
  bool is_gpu = false;
  double compute_flops = 0;      // sustained dense-matmul throughput (FLOP/s)
  double mem_bw_bytes = 0;       // local memory bandwidth (B/s)
  double host_link_bw_bytes = 0; // device<->host link (PCIe); == mem_bw on CPU
  double host_link_latency_s = 0;
  double kernel_launch_s = 0;    // fixed per-inference overhead
  // Sustained GEMM efficiency ramps linearly with the number of query rows
  // from `eff_floor` (skinny matmuls: decode steps, short uncached
  // suffixes) up to 1.0 at `eff_ramp_rows` (long prefills).
  double eff_floor = 0.3;
  double eff_ramp_rows = 512;

  // Named profiles matching the paper's testbeds (§5.1).
  static const HardwareProfile& intel_i9_13900k();  // DDR5-5600
  static const HardwareProfile& amd_ryzen9_7950x(); // DDR4-3600 (per paper)
  static const HardwareProfile& rtx4090();
  static const HardwareProfile& a40();
  static const HardwareProfile& a100();

  static const std::vector<const HardwareProfile*>& all();
};

struct TtftEstimate {
  double compute_s = 0;
  double transfer_s = 0;
  double total() const { return compute_s + transfer_s; }
  double total_ms() const { return total() * 1e3; }
};

// Baseline: full prefill of n_tokens with regular KV Cache.
TtftEstimate estimate_baseline_ttft(const HardwareProfile& hw,
                                    const ModelSpec& spec, int64_t n_tokens);

// Prompt Cache: copy `cached_tokens` worth of attention states from
// `location`, then compute only the `uncached_tokens` suffix (which attends
// over the full cached+uncached length). `bytes_per_cached_token` sets what
// each cached token costs on the link — pass spec.kv_bytes_per_token_q8()
// when modules are stored as Q8_0 (transfer is charged on the quantized
// bytes, ~25% of fp32); 0 means spec.kv_bytes_per_token() (unquantized).
TtftEstimate estimate_cached_ttft(const HardwareProfile& hw,
                                  const ModelSpec& spec, int64_t cached_tokens,
                                  int64_t uncached_tokens,
                                  ModuleLocation location,
                                  size_t bytes_per_cached_token = 0);

// Per-step decode latency (time-to-subsequent-token) at a given context
// length — identical for baseline and Prompt Cache (§5.4).
double estimate_decode_step_s(const HardwareProfile& hw, const ModelSpec& spec,
                              int64_t context_tokens);

// One-shot memcpy estimate for `bytes` over the named path (used to
// reproduce the §5.4 memcpy latency comparison).
double estimate_memcpy_s(const HardwareProfile& hw, size_t bytes,
                         ModuleLocation from);

}  // namespace pc
