// An encoded prompt module: the precomputed (k,v) attention states of one
// module's own tokens at their schema-assigned position IDs (paper §3.3).
//
// Storage precision is configurable (EngineConfig::precision): fp32 keeps
// the engine's native states; int8 quarters the footprint and blocked 4-bit
// roughly eighths it (the §5.5/§6 compression direction). Each format is
// stored exactly as it is served: retrieval copies or borrows the stored
// bytes as they are.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "kv/kv_cache.h"
#include "kv/quant.h"
#include "sys/device_model.h"

namespace pc {

// A module's storage format. The values are a persisted record's precision
// tag (write_module_record), so they never change.
enum class StorePrecision {
  kFp32 = 0,
  // Tag 1 was fp16 storage, which is gone: engine construction,
  // default_store_precision() and read_module_record() reject it. Its only
  // reader is bench/e2e's format_name, and it goes with that case.
  kFp16 = 1,
  kQ8 = 2,
  kQ4 = 3,
};

// "fp32", "q8" or "q4", as PC_KV_FORMAT and the request timeline name them.
inline const char* to_string(StorePrecision p) {
  switch (p) {
    case StorePrecision::kFp32:
      return "fp32";
    case StorePrecision::kQ8:
      return "q8";
    case StorePrecision::kQ4:
      return "q4";
    default:
      return "unknown";
  }
}

struct EncodedModule {
  // Exactly one payload is held, matching `precision`.
  std::optional<KVCache> kv32;
  std::vector<Q8Layer> kv8_layers;  // [n_layers]
  std::vector<Q4Layer> kv4_layers;  // [n_layers]

  std::vector<int> pos_ids;  // used with q8/q4 payloads

  StorePrecision precision = StorePrecision::kFp32;
  int n_tokens = 0;
  int kv_dim = 0;
  int n_layers = 0;

  // Row ranges [begin, end) of text content — the rows copied at serve
  // time. Parameter placeholder rows are skipped (arguments replace them).
  std::vector<std::pair<int, int>> text_row_ranges;

  struct ParamSlot {
    int param_index = -1;
    int row_begin = 0;
    int row_end = 0;
  };
  std::vector<ParamSlot> params;

  int text_token_count() const {
    int n = 0;
    for (const auto& [b, e] : text_row_ranges) n += e - b;
    return n;
  }

  // Bytes of one token's resident K+V payload across all layers.
  size_t bytes_per_token() const {
    const size_t kv_elems = static_cast<size_t>(kv_dim) * 2 * n_layers;
    switch (precision) {
      case StorePrecision::kFp32:
        return kv_elems * sizeof(float);
      case StorePrecision::kQ8:
        // int8 payload + one fp32 scale per row (K and V) per layer.
        return kv_elems * sizeof(int8_t) +
               static_cast<size_t>(2) * n_layers * sizeof(float);
      case StorePrecision::kQ4:
        // Packed nibbles + one fp32 scale per 32-value block (K and V rows)
        // per layer.
        return static_cast<size_t>(2) * n_layers * q4_row_bytes(kv_dim) +
               static_cast<size_t>(2) * n_layers * q4_blocks(kv_dim) *
                   sizeof(float);
      default:
        return 0;
    }
  }

  size_t payload_bytes() const {
    return bytes_per_token() * static_cast<size_t>(n_tokens);
  }
};

}  // namespace pc
