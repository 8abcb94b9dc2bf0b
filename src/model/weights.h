// Model weights. All linear weights are stored [out_features, in_features]
// so forward passes use matmul_nt (row-dot-row, cache friendly).
#pragma once

#include <vector>

#include "common/rng.h"
#include "model/config.h"
#include "pos/embedding_table.h"
#include "tensor/tensor.h"

namespace pc {

struct LayerWeights {
  // Attention
  Tensor wq;  // [q_dim, d_model]
  Tensor wk;  // [kv_dim, d_model]
  Tensor wv;  // [kv_dim, d_model]
  Tensor wo;  // [d_model, q_dim]
  // Norms (b used only by LayerNorm)
  Tensor norm1_w, norm1_b;
  Tensor norm2_w, norm2_b;
  // MLP: gated uses {w_gate, w_up, w_down}; plain uses {w_up, w_down}
  Tensor w_gate;  // [d_ff, d_model]
  Tensor w_up;    // [d_ff, d_model]
  Tensor w_down;  // [d_model, d_ff]
};

struct ModelWeights {
  Tensor tok_embed;  // [vocab, d_model]
  PositionTable pos_table;  // used by kLearned / kSinusoidal only
  std::vector<LayerWeights> layers;
  Tensor final_norm_w, final_norm_b;
  Tensor lm_head;  // [vocab, d_model]

  // Gaussian init with the config's stddev; norms initialize to identity.
  static ModelWeights random(const ModelConfig& config, Rng& rng);

  // Zero weights; the induction-model builder fills them in analytically.
  static ModelWeights zeros(const ModelConfig& config);
};

}  // namespace pc
