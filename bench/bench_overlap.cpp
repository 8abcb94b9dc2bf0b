// Copy/compute pipelining study (GPU simulator): how much of Figure 3's
// modules-in-CPU-memory penalty a pipelined runtime recovers by streaming
// layer l+1's cached KV over PCIe while layer l computes. The paper leaves
// "strategies for reducing host-to-device memory overhead" to future work
// (§6); this quantifies the first such strategy.
#include <iostream>

#include "bench/bench_common.h"
#include "sys/gpu_sim.h"

int main() {
  using namespace pc;
  bench::print_banner(
      "Host-to-device overlap study (discrete-event GPU simulation)",
      "Llama 7B, 5K-token cached prompt, 50 uncached tokens");

  const ModelSpec& spec = find_spec("Llama 7B");
  const int64_t cached = 4950;
  const int64_t uncached = 50;

  TablePrinter table;
  table.set_header({"GPU", "device mem", "host mem (serial)",
                    "host mem (pipelined)", "penalty recovered",
                    "compute stall"});
  for (const HardwareProfile* hw :
       {&HardwareProfile::rtx4090(), &HardwareProfile::a40(),
        &HardwareProfile::a100()}) {
    const double device =
        simulate_cached_ttft(*hw, spec, cached, uncached,
                             ModuleLocation::kDeviceMemory, true)
            .ttft_s;
    const GpuSimResult serial = simulate_cached_ttft(
        *hw, spec, cached, uncached, ModuleLocation::kHostMemory, false);
    const GpuSimResult pipelined = simulate_cached_ttft(
        *hw, spec, cached, uncached, ModuleLocation::kHostMemory, true);
    const double recovered =
        1.0 - (pipelined.ttft_s - device) / (serial.ttft_s - device);
    table.add_row({hw->name, TablePrinter::fmt_ms(device * 1e3),
                   TablePrinter::fmt_ms(serial.ttft_s * 1e3),
                   TablePrinter::fmt_ms(pipelined.ttft_s * 1e3),
                   TablePrinter::fmt(100.0 * recovered, 1) + " %",
                   TablePrinter::fmt_ms(pipelined.compute_stall_s * 1e3)});
  }
  table.print(std::cout);

  // Sweep the uncached share: more compute gives the copy engine more time
  // to hide behind.
  const auto& hw = HardwareProfile::rtx4090();
  TablePrinter sweep("RTX 4090: penalty recovery vs uncached tokens");
  sweep.set_header({"uncached tokens", "host serial", "host pipelined",
                    "device"});
  for (int64_t u : {10, 50, 150, 400, 1000}) {
    sweep.add_row(
        {std::to_string(u),
         TablePrinter::fmt_ms(
             simulate_cached_ttft(hw, spec, cached, u,
                                  ModuleLocation::kHostMemory, false)
                 .ttft_s *
             1e3),
         TablePrinter::fmt_ms(
             simulate_cached_ttft(hw, spec, cached, u,
                                  ModuleLocation::kHostMemory, true)
                 .ttft_s *
             1e3),
         TablePrinter::fmt_ms(
             simulate_cached_ttft(hw, spec, cached, u,
                                  ModuleLocation::kDeviceMemory, true)
                 .ttft_s *
             1e3)});
  }
  sweep.print(std::cout);

  std::cout << "\nReading: pipelining hides part of the PCIe transfer "
               "behind per-layer compute; the recovery grows with the "
               "uncached share. The residual gap to device memory is the "
               "bandwidth bound (copy engine busy time), which compression "
               "(q8/q4 storage) attacks directly.\n";
  return 0;
}
