// Module-store policy study — the paper's §6 future work ("a system ...
// equipped with GPU cache replacement strategies optimized to achieve the
// latency lower bound made possible by Prompt Cache").
//
// A Zipf-popular request stream draws modules from a large pool; the store
// holds a limited device (GPU) tier backed by unlimited host memory. We
// sweep the device capacity and report device-tier hit rates, bytes pulled
// over the (slow) host link, and the modeled mean retrieval latency on an
// RTX 4090 — quantifying how much device memory the LRU policy needs
// before Prompt Cache reaches its device-resident lower bound, and how
// much union-sibling-style promotion helps a skewed workload.
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/shared_module_store.h"
#include "sys/device_model.h"

namespace {

using namespace pc;

constexpr int kLayers = 32;       // Llama-7B-like geometry for byte realism
constexpr int kKvDim = 4096;
constexpr int kModuleTokens = 512;
constexpr int kPoolSize = 64;
constexpr int kRequests = 4000;

EncodedModule synthetic_module() {
  EncodedModule m;
  m.precision = StorePrecision::kFp16;  // Table 2's storage assumption
  m.n_tokens = kModuleTokens;
  m.kv_dim = kKvDim;
  m.n_layers = kLayers;
  m.pos_ids.resize(kModuleTokens);
  m.kv16_layers.resize(kLayers);
  // Payload content is irrelevant to the policy study; allocate K/V lazily
  // as empty vectors and rely on payload accounting only.
  m.text_row_ranges = {{0, kModuleTokens}};
  return m;
}

// Zipf(s≈1) sampler over [0, n) via inverse CDF on precomputed weights.
class Zipf {
 public:
  Zipf(int n, double s, uint64_t seed) : rng_(seed) {
    cdf_.resize(static_cast<size_t>(n));
    double total = 0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (auto& c : cdf_) c /= total;
  }

  int next() {
    const double u = rng_.next_double();
    return static_cast<int>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

}  // namespace

int main() {
  using namespace pc;
  bench::print_banner(
      "Cache replacement policy study (paper §6 future work)",
      "Zipf(1.1) requests over 64 modules of 512 tokens (fp16, 7B "
      "geometry); LRU device tier backed by host memory");

  const size_t module_bytes = synthetic_module().payload_bytes();
  const auto& hw = HardwareProfile::rtx4090();

  TablePrinter table;
  table.set_header({"device capacity", "modules fit", "device hit rate",
                    "host-link traffic", "mean retrieve (modeled)"});
  for (double fraction : {0.05, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    const size_t capacity = static_cast<size_t>(
        fraction * kPoolSize * static_cast<double>(module_bytes));
    SharedModuleStore store(capacity, /*host=*/0, DiskTierConfig{},
                            /*n_shards=*/1);
    for (int i = 0; i < kPoolSize; ++i) {
      store.insert("mod" + std::to_string(i), synthetic_module());
    }

    Zipf zipf(kPoolSize, 1.1, 42);
    uint64_t device_hits = 0;
    size_t host_bytes = 0;
    double retrieve_s = 0;
    for (int r = 0; r < kRequests; ++r) {
      const std::string key = "mod" + std::to_string(zipf.next());
      const SharedModuleStore::ModuleRef m = store.find(key);
      PC_CHECK(m);
      if (m.location() == ModuleLocation::kDeviceMemory) {
        ++device_hits;
        retrieve_s += estimate_memcpy_s(hw, module_bytes,
                                        ModuleLocation::kDeviceMemory);
      } else {
        host_bytes += module_bytes;
        retrieve_s += estimate_memcpy_s(hw, module_bytes,
                                        ModuleLocation::kHostMemory);
        // Promote on use: hot modules migrate to the device tier, which is
        // how an LRU GPU cache behaves under a skewed workload.
        (void)store.promote(key, ModuleLocation::kDeviceMemory);
      }
    }

    table.add_row(
        {format_bytes(static_cast<double>(capacity)),
         std::to_string(capacity / module_bytes) + "/" +
             std::to_string(kPoolSize),
         TablePrinter::fmt(100.0 * static_cast<double>(device_hits) /
                               kRequests,
                           1) +
             " %",
         format_bytes(static_cast<double>(host_bytes)),
         TablePrinter::fmt_ms(retrieve_s / kRequests * 1e3)});
  }
  table.print(std::cout);

  std::cout << "\nReading: a modest device tier captures most of a skewed "
               "workload (promote-on-use LRU); the last column approaches "
               "the device-resident lower bound of "
            << TablePrinter::fmt_ms(
                   estimate_memcpy_s(hw, module_bytes,
                                     ModuleLocation::kDeviceMemory) *
                   1e3)
            << " per module as capacity grows.\n";
  return 0;
}
