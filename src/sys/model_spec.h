// Paper-scale model specifications ("model zoo").
//
// These describe the architectures the paper evaluates (Llama2, MPT, Falcon
// at 1B-180B, plus BERT for Table 2) at their true published dimensions.
// The specs drive two things: the analytic FLOPs/bytes models behind the
// simulated-GPU experiments (Figures 3 and 5) and the per-token KV memory
// accounting of Table 2. No weights exist at these sizes in this repo; the
// runnable engine uses laptop-scale configs from model/config.h instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pc {

struct ModelSpec {
  std::string name;
  int n_layers = 0;
  int d_model = 0;
  int n_heads = 0;
  int n_kv_heads = 0;  // == n_heads for MHA; Table 2 assumes MHA throughout
  int d_head = 0;
  int d_ff = 0;
  int vocab_size = 0;
  bool gated_mlp = false;  // SwiGLU (three mats) vs plain two-mat MLP
  int dtype_bytes = 2;     // fp16 storage, as assumed by Table 2

  int kv_dim() const { return n_kv_heads * d_head; }

  // KV bytes needed to cache one token across all layers (K and V).
  // For MHA this reduces to 4 * n_layers * d_model * dtype_bytes/2... i.e.
  // 2 (K,V) * n_layers * kv_dim * dtype_bytes.
  size_t kv_bytes_per_token() const {
    return static_cast<size_t>(2) * n_layers * kv_dim() * dtype_bytes;
  }

  // Per-token KV bytes when modules are held quantized (Q8_0, §5.5/§6
  // compression direction): one int8 per element plus one fp32 scale per
  // row (K and V) per layer. This is what crosses the host link when the
  // store precision is q8 — transfer cost is charged on quantized bytes.
  size_t kv_bytes_per_token_q8() const {
    return static_cast<size_t>(2) * n_layers * kv_dim() * sizeof(int8_t) +
           static_cast<size_t>(2) * n_layers * sizeof(float);
  }

  // Approximate parameter count (embeddings + per-layer mats), for context.
  double approx_params() const {
    const double attn = static_cast<double>(d_model) *
                        (n_heads * d_head + 2.0 * kv_dim() + n_heads * d_head);
    const double mlp =
        static_cast<double>(d_model) * d_ff * (gated_mlp ? 3.0 : 2.0);
    return n_layers * (attn + mlp) +
           2.0 * static_cast<double>(vocab_size) * d_model;
  }
};

// FLOPs to prefill n_tokens from scratch (baseline KV Cache path). Follows
// the paper's §2.2 accounting: per layer ≈ 6·n·d² of projection/MLP work
// plus 4·n²·d of attention work; we expand the 6d² using the spec's true
// head and MLP dimensions.
double prefill_flops(const ModelSpec& spec, int64_t n_tokens);

// FLOPs to extend a sequence: compute attention states for `new_tokens`
// while `past_tokens` are already cached (the Prompt Cache uncached-segment
// path, and also the per-step decode cost when new_tokens == 1).
double extend_flops(const ModelSpec& spec, int64_t past_tokens,
                    int64_t new_tokens);

// The model zoo used by Table 2 and the analytic figures.
const std::vector<ModelSpec>& model_zoo();

// Lookup by name (throws pc::Error if absent).
const ModelSpec& find_spec(const std::string& name);

}  // namespace pc
