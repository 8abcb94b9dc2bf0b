#include "model/weights.h"

namespace pc {

namespace {

void init_layer_shapes(const ModelConfig& c, LayerWeights& l) {
  l.wq = Tensor({c.q_dim(), c.d_model});
  l.wk = Tensor({c.kv_dim(), c.d_model});
  l.wv = Tensor({c.kv_dim(), c.d_model});
  l.wo = Tensor({c.d_model, c.q_dim()});
  if (c.norm != NormKind::kNone) {
    l.norm1_w = Tensor::full({c.d_model}, 1.0f);
    l.norm2_w = Tensor::full({c.d_model}, 1.0f);
    if (c.norm == NormKind::kLayerNorm) {
      l.norm1_b = Tensor({c.d_model});
      l.norm2_b = Tensor({c.d_model});
    }
  }
  if (c.use_mlp) {
    if (c.gated_mlp) l.w_gate = Tensor({c.d_ff, c.d_model});
    l.w_up = Tensor({c.d_ff, c.d_model});
    l.w_down = Tensor({c.d_model, c.d_ff});
  }
}

}  // namespace

ModelWeights ModelWeights::zeros(const ModelConfig& c) {
  c.validate();
  ModelWeights w;
  w.tok_embed = Tensor({c.vocab_size, c.d_model});
  if (c.pos == PosEncodingKind::kLearned ||
      c.pos == PosEncodingKind::kSinusoidal) {
    w.pos_table = PositionTable::zeros(c.max_pos, c.d_model);
  }
  w.layers.resize(static_cast<size_t>(c.n_layers));
  for (auto& l : w.layers) init_layer_shapes(c, l);
  if (c.final_norm && c.norm != NormKind::kNone) {
    w.final_norm_w = Tensor::full({c.d_model}, 1.0f);
    if (c.norm == NormKind::kLayerNorm) w.final_norm_b = Tensor({c.d_model});
  }
  w.lm_head = Tensor({c.vocab_size, c.d_model});
  return w;
}

ModelWeights ModelWeights::random(const ModelConfig& c, Rng& rng) {
  ModelWeights w = zeros(c);
  const float s = c.init_stddev;
  auto fill = [&](Tensor& t) {
    for (float& x : t.span()) x = rng.gauss(0.0f, s);
  };
  fill(w.tok_embed);
  if (c.pos == PosEncodingKind::kLearned) {
    w.pos_table = PositionTable::learned(c.max_pos, c.d_model, rng, s);
  } else if (c.pos == PosEncodingKind::kSinusoidal) {
    w.pos_table = PositionTable::sinusoidal(c.max_pos, c.d_model);
  }
  for (auto& l : w.layers) {
    fill(l.wq);
    fill(l.wk);
    fill(l.wv);
    fill(l.wo);
    if (c.use_mlp) {
      if (c.gated_mlp) fill(l.w_gate);
      fill(l.w_up);
      fill(l.w_down);
    }
  }
  fill(w.lm_head);
  return w;
}

}  // namespace pc
