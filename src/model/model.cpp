#include "model/model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <cstring>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace pc {

Model::Model(ModelConfig config, ModelWeights weights)
    : config_(std::move(config)), weights_(std::move(weights)) {
  config_.validate();
  if (config_.pos == PosEncodingKind::kRope) {
    rope_ = std::make_unique<RopeTable>(config_.d_head, config_.max_pos,
                                        config_.rope_theta);
  } else if (config_.pos == PosEncodingKind::kAlibi) {
    alibi_ = std::make_unique<Alibi>(config_.n_heads);
  }
  attn_scale_ = config_.attn_scale != 0.0f
                    ? config_.attn_scale
                    : 1.0f / std::sqrt(static_cast<float>(config_.d_head));
}

Model Model::random(const ModelConfig& config, uint64_t seed) {
  Rng rng(seed);
  return Model(config, ModelWeights::random(config, rng));
}

void Model::embed(std::span<const TokenId> tokens,
                  std::span<const int> pos_ids, Tensor& x) const {
  const int d = config_.d_model;
  const bool table_pos = config_.pos == PosEncodingKind::kLearned ||
                         config_.pos == PosEncodingKind::kSinusoidal;
  for (size_t i = 0; i < tokens.size(); ++i) {
    PC_CHECK_MSG(tokens[i] >= 0 && tokens[i] < config_.vocab_size,
                 "token id " << tokens[i] << " outside vocab");
    const float* src = weights_.tok_embed.row(tokens[i]);
    float* dst = x.row(static_cast<int64_t>(i));
    std::memcpy(dst, src, static_cast<size_t>(d) * sizeof(float));
    if (table_pos) {
      axpy(1.0f, weights_.pos_table.row(pos_ids[i]), dst,
           static_cast<size_t>(d));
    }
  }
}

void Model::apply_norm(const Tensor& w, const Tensor& b, const Tensor& x,
                       Tensor& out) const {
  const size_t d = static_cast<size_t>(config_.d_model);
  const int64_t n = x.dim(0);
  switch (config_.norm) {
    case NormKind::kNone:
      std::memcpy(out.data(), x.data(), x.byte_size());
      return;
    case NormKind::kRmsNorm:
      for (int64_t i = 0; i < n; ++i) {
        rmsnorm(x.row(i), w.data(), out.row(i), d, config_.norm_eps);
      }
      return;
    case NormKind::kLayerNorm:
      for (int64_t i = 0; i < n; ++i) {
        layernorm(x.row(i), w.data(), b.empty() ? nullptr : b.data(),
                  out.row(i), d, config_.norm_eps);
      }
      return;
  }
}

namespace {

// Uniform row accessors over the two cache representations.
inline float* kv_k_write(KVCache& c, int l, int t) { return c.k_row(l, t); }
inline float* kv_v_write(KVCache& c, int l, int t) { return c.v_row(l, t); }
inline const float* kv_k_read(const KVCache& c, int l, int t) {
  return c.k_row(l, t);
}
inline const float* kv_v_read(const KVCache& c, int l, int t) {
  return c.v_row(l, t);
}
inline float* kv_k_write(SegmentedKVCache& c, int l, int t) {
  return c.k_row_mut(l, t);
}
inline float* kv_v_write(SegmentedKVCache& c, int l, int t) {
  return c.v_row_mut(l, t);
}
inline const float* kv_k_read(const SegmentedKVCache& c, int l, int t) {
  return c.k_row(l, t);
}
inline const float* kv_v_read(const SegmentedKVCache& c, int l, int t) {
  return c.v_row(l, t);
}

// Fused-attention dispatch over the two cache representations, for the
// `n_q` query heads of one GQA group (k_off selects their KV head). KVCache
// rows are dense [n_tokens, kv_dim], so one head's K column is a strided
// walk from row 0 — the contiguous kernel. SegmentedKVCache rows live
// behind a per-layer pointer table — the gathered kernel.
inline void fused_attend(const KVCache& c, int layer, int k_off,
                         const float* q, size_t d_head, size_t n_ctx,
                         float scale, const float* slopes,
                         const float* rel_pos, const uint8_t* masked,
                         float* scores, float* out, size_t n_q) {
  attn_fused_contig(q, c.k_row(layer, 0) + k_off, c.v_row(layer, 0) + k_off,
                    static_cast<size_t>(c.kv_dim()), d_head, n_ctx, scale,
                    slopes, rel_pos, masked, scores, out, n_q);
}
inline void fused_attend(const SegmentedKVCache& c, int layer, int k_off,
                         const float* q, size_t d_head, size_t n_ctx,
                         float scale, const float* slopes,
                         const float* rel_pos, const uint8_t* masked,
                         float* scores, float* out, size_t n_q) {
  // At most one quantized format appears per view (a store holds one
  // precision), so the dispatch below never mixes q4 and q8 slots.
  if (c.has_q4()) {
    // Q4_0 borrowed segments: module rows are scored block-wise in the
    // integer domain (no fp32 materialization); the owned tail reads fp32.
    attn_fused_q4_gather(q, c.k4_row_table(layer), c.v4_row_table(layer),
                         c.k4_scale_table(layer), c.v4_scale_table(layer),
                         c.k_row_table(layer), c.v_row_table(layer),
                         static_cast<size_t>(k_off), d_head, n_ctx, scale,
                         slopes, rel_pos, masked, scores, out, n_q);
    return;
  }
  if (c.has_q8()) {
    // Quantized borrowed segments: module rows are scored in the int8
    // domain (no fp32 materialization); the owned tail reads fp32.
    attn_fused_q8_gather(q, c.k8_row_table(layer), c.v8_row_table(layer),
                         c.k_scale_table(layer), c.v_scale_table(layer),
                         c.k_row_table(layer), c.v_row_table(layer),
                         static_cast<size_t>(k_off), d_head, n_ctx, scale,
                         slopes, rel_pos, masked, scores, out, n_q);
    return;
  }
  attn_fused_gather(q, c.k_row_table(layer), c.v_row_table(layer),
                    static_cast<size_t>(k_off), d_head, n_ctx, scale, slopes,
                    rel_pos, masked, scores, out, n_q);
}

}  // namespace

template <typename CacheT>
void Model::attention(int layer, const Tensor& h,
                      std::span<const int> pos_ids,
                      std::span<const int> block_ids,
                      std::span<const bool> hidden_from_global,
                      int first_new, CacheT& cache, Tensor& out) const {
  const auto& lw = weights_.layers[static_cast<size_t>(layer)];
  const int n_new = static_cast<int>(h.dim(0));
  const int d_head = config_.d_head;
  const int n_heads = config_.n_heads;
  const int n_kv_heads = config_.n_kv_heads;
  const int group = n_heads / n_kv_heads;
  const size_t kv_dim = static_cast<size_t>(config_.kv_dim());

  Tensor q = matmul_nt(h, lw.wq);   // [n_new, q_dim]
  Tensor kx = matmul_nt(h, lw.wk);  // [n_new, kv_dim]
  Tensor vx = matmul_nt(h, lw.wv);  // [n_new, kv_dim]

  if (rope_) {
    for (int i = 0; i < n_new; ++i) {
      const int pos = pos_ids[static_cast<size_t>(i)];
      float* qi = q.row(i);
      for (int hd = 0; hd < n_heads; ++hd) {
        rope_->apply(qi + hd * d_head, pos);
      }
      float* ki = kx.row(i);
      for (int hd = 0; hd < n_kv_heads; ++hd) {
        rope_->apply(ki + hd * d_head, pos);
      }
    }
  }

  // Publish the new keys/values into the cache (keys post-rotation, so the
  // module stays valid if these rows are later copied elsewhere). The
  // appended rows are contiguous in both representations — KVCache layers
  // are dense buffers and the segmented tail is a dense, pre-reserved
  // KVCache — and kx/vx are row-major, so this is two memcpys per layer
  // rather than two per token.
  std::memcpy(kv_k_write(cache, layer, first_new), kx.data(),
              static_cast<size_t>(n_new) * kv_dim * sizeof(float));
  std::memcpy(kv_v_write(cache, layer, first_new), vx.data(),
              static_cast<size_t>(n_new) * kv_dim * sizeof(float));

  // Token i may attend to cache slots [0, first_new+i]. The block mask and
  // the ALiBi relative-distance vector depend only on (i, j), so they are
  // computed once per query row and shared by every head, not recomputed
  // per head as the scalar path used to.
  const int total_ctx = first_new + n_new;
  const bool use_mask = !block_ids.empty() || !hidden_from_global.empty();
  const size_t ctx_sz = static_cast<size_t>(total_ctx);

  std::vector<int> k_pos;  // position id per cache slot (ALiBi only)
  if (alibi_) {
    k_pos.resize(ctx_sz);
    for (int j = 0; j < total_ctx; ++j) k_pos[static_cast<size_t>(j)] =
        cache.pos_id(j);
  }

  // Fills mrow[0..ctx) for query row i (same predicate the scalar loop
  // applied per (head, i, j)).
  auto fill_mask_row = [&](int i, uint8_t* mrow, int ctx) {
    const int my_block = block_ids.empty()
                             ? kGlobalBlock
                             : block_ids[static_cast<size_t>(i)];
    for (int j = 0; j < ctx; ++j) {
      const bool masked =
          my_block == kGlobalBlock
              ? (!hidden_from_global.empty() &&
                 hidden_from_global[static_cast<size_t>(j)])
              : (!block_ids.empty() &&
                 block_ids[static_cast<size_t>(j)] != my_block);
      mrow[j] = masked ? 1 : 0;
    }
  };
  // Fills rrow[j] = float(q_pos - k_pos_j); the kernel applies
  // -slope * rrow[j], bit-identical to Alibi::bias().
  auto fill_rel_row = [&](int i, float* rrow, int ctx) {
    const int qp = pos_ids[static_cast<size_t>(i)];
    for (int j = 0; j < ctx; ++j) {
      rrow[j] = static_cast<float>(qp - k_pos[static_cast<size_t>(j)]);
    }
  };

  // One KV head's group of query heads for query row i against slots
  // [0, ctx); scores holds group * ctx_sz floats.
  auto attend_group = [&](int kvh, int i, int ctx, const float* rel,
                          const uint8_t* masked, float* scores) {
    const int hd = kvh * group;
    fused_attend(cache, layer, kvh * d_head, q.row(i) + hd * d_head,
                 static_cast<size_t>(d_head), static_cast<size_t>(ctx),
                 attn_scale_, alibi_ ? alibi_->slopes() + hd : nullptr, rel,
                 masked, scores, out.row(i) + hd * d_head,
                 static_cast<size_t>(group));
  };

  // Two schedules producing identical bits (the kernel inputs per (i, KV
  // head) are the same): prefill parallelizes over query rows, so mask/rel
  // rows are built once per row in-thread; decode-sized batches
  // parallelize over KV heads and share small precomputed mask/rel
  // matrices.
  const size_t scores_sz = static_cast<size_t>(group) * ctx_sz;
  if (n_new >= 8) {
    auto row_work = [&](size_t row_begin, size_t row_end) {
      std::vector<float> scores(scores_sz);
      std::vector<uint8_t> mrow(use_mask ? ctx_sz : 0);
      std::vector<float> rrow(alibi_ ? ctx_sz : 0);
      for (size_t i = row_begin; i < row_end; ++i) {
        const int ctx = first_new + static_cast<int>(i) + 1;
        if (use_mask) fill_mask_row(static_cast<int>(i), mrow.data(), ctx);
        if (alibi_) fill_rel_row(static_cast<int>(i), rrow.data(), ctx);
        for (int kvh = 0; kvh < n_kv_heads; ++kvh) {
          attend_group(kvh, static_cast<int>(i), ctx,
                       alibi_ ? rrow.data() : nullptr,
                       use_mask ? mrow.data() : nullptr, scores.data());
        }
      }
    };
    if (ThreadPool::global().size() > 1) {
      ThreadPool::global().parallel_for(static_cast<size_t>(n_new), row_work);
    } else {
      row_work(0, static_cast<size_t>(n_new));
    }
  } else {
    std::vector<uint8_t> mask_mat(use_mask ? static_cast<size_t>(n_new) *
                                                 ctx_sz
                                           : 0);
    std::vector<float> rel_mat(alibi_ ? static_cast<size_t>(n_new) * ctx_sz
                                      : 0);
    for (int i = 0; i < n_new; ++i) {
      const int ctx = first_new + i + 1;
      if (use_mask) {
        fill_mask_row(i, mask_mat.data() + static_cast<size_t>(i) * ctx_sz,
                      ctx);
      }
      if (alibi_) {
        fill_rel_row(i, rel_mat.data() + static_cast<size_t>(i) * ctx_sz,
                     ctx);
      }
    }
    auto kv_head_work = [&](size_t kvh_begin, size_t kvh_end) {
      std::vector<float> scores(scores_sz);
      for (size_t kvh = kvh_begin; kvh < kvh_end; ++kvh) {
        for (int i = 0; i < n_new; ++i) {
          const int ctx = first_new + i + 1;
          attend_group(static_cast<int>(kvh), i, ctx,
                       alibi_ ? rel_mat.data() + static_cast<size_t>(i) * ctx_sz
                              : nullptr,
                       use_mask
                           ? mask_mat.data() + static_cast<size_t>(i) * ctx_sz
                           : nullptr,
                       scores.data());
        }
      }
    };
    if (ThreadPool::global().size() > 1 && n_kv_heads > 1) {
      ThreadPool::global().parallel_for(static_cast<size_t>(n_kv_heads),
                                        kv_head_work);
    } else {
      kv_head_work(0, static_cast<size_t>(n_kv_heads));
    }
  }
}

// Per-sequence attention of a batched step. The dense projections were
// computed over the concatenated rows; here every query row r (sequence s,
// chunk-local index i) attends to its own cache's slots [0, first_new+i]
// through the same fused_attend dispatch forward() uses for a segmented
// cache — same kernel, context and inputs as a sequential forward over that
// sequence alone, so the output bits match.
void Model::attention_batch(int layer, const Tensor& h,
                            std::span<const BatchSeq> seqs,
                            const std::vector<int>& first_new,
                            const std::vector<int>& row_seq,
                            const std::vector<int>& row_idx,
                            std::span<const int> pos_ids, Tensor& out) const {
  const auto& lw = weights_.layers[static_cast<size_t>(layer)];
  const int total = static_cast<int>(h.dim(0));
  const int d_head = config_.d_head;
  const int n_heads = config_.n_heads;
  const int group = n_heads / config_.n_kv_heads;
  const size_t kv_dim = static_cast<size_t>(config_.kv_dim());

  Tensor q = matmul_nt(h, lw.wq);   // [total, q_dim]
  Tensor kx = matmul_nt(h, lw.wk);  // [total, kv_dim]
  Tensor vx = matmul_nt(h, lw.wv);  // [total, kv_dim]

  if (rope_) {
    for (int r = 0; r < total; ++r) {
      const int pos = pos_ids[static_cast<size_t>(r)];
      float* qr = q.row(r);
      for (int hd = 0; hd < n_heads; ++hd) rope_->apply(qr + hd * d_head, pos);
      float* kr = kx.row(r);
      for (int hd = 0; hd < config_.n_kv_heads; ++hd) {
        rope_->apply(kr + hd * d_head, pos);
      }
    }
  }

  // Publish each row's keys/values into its sequence's owned tail. A
  // sequence's rows are consecutive in kx/vx and in its tail, so this is two
  // memcpys per (sequence, layer).
  size_t max_ctx = 0;
  for (int s = 0, r = 0; s < static_cast<int>(seqs.size()); ++s) {
    SegmentedKVCache& cache = *seqs[static_cast<size_t>(s)].cache;
    const int n = static_cast<int>(seqs[static_cast<size_t>(s)].tokens.size());
    const int t = first_new[static_cast<size_t>(s)];
    std::memcpy(cache.k_row_mut(layer, t), kx.row(r),
                static_cast<size_t>(n) * kv_dim * sizeof(float));
    std::memcpy(cache.v_row_mut(layer, t), vx.row(r),
                static_cast<size_t>(n) * kv_dim * sizeof(float));
    max_ctx = std::max(max_ctx, static_cast<size_t>(t + n));
    r += n;
  }

  auto row_work = [&](size_t row_begin, size_t row_end) {
    std::vector<float> scores(static_cast<size_t>(group) * max_ctx);
    std::vector<float> rrow(alibi_ ? max_ctx : 0);
    for (size_t r = row_begin; r < row_end; ++r) {
      const int s = row_seq[r];
      const SegmentedKVCache& cache = *seqs[static_cast<size_t>(s)].cache;
      const int ctx = first_new[static_cast<size_t>(s)] + row_idx[r] + 1;
      if (alibi_) {
        const int qp = pos_ids[r];
        for (int j = 0; j < ctx; ++j) {
          rrow[static_cast<size_t>(j)] =
              static_cast<float>(qp - cache.pos_id(j));
        }
      }
      for (int kvh = 0; kvh < config_.n_kv_heads; ++kvh) {
        const int hd = kvh * group;
        fused_attend(cache, layer, kvh * d_head,
                     q.row(static_cast<int64_t>(r)) + hd * d_head,
                     static_cast<size_t>(d_head), static_cast<size_t>(ctx),
                     attn_scale_, alibi_ ? alibi_->slopes() + hd : nullptr,
                     alibi_ ? rrow.data() : nullptr, nullptr, scores.data(),
                     out.row(static_cast<int64_t>(r)) + hd * d_head,
                     static_cast<size_t>(group));
      }
    }
  };
  if (ThreadPool::global().size() > 1 && total > 1) {
    ThreadPool::global().parallel_for(static_cast<size_t>(total), row_work);
  } else {
    row_work(0, static_cast<size_t>(total));
  }
}

void Model::mlp(int layer, const Tensor& h, Tensor& out) const {
  const auto& lw = weights_.layers[static_cast<size_t>(layer)];
  Tensor up = matmul_nt(h, lw.w_up);  // [n, d_ff]
  if (config_.gated_mlp) {
    Tensor gate = matmul_nt(h, lw.w_gate);
    if (config_.activation == ActivationKind::kSilu) {
      silu_inplace(gate.data(), gate.numel());
    } else {
      gelu_inplace(gate.data(), gate.numel());
    }
    mul_inplace(up, gate);
  } else {
    if (config_.activation == ActivationKind::kSilu) {
      silu_inplace(up.data(), up.numel());
    } else {
      gelu_inplace(up.data(), up.numel());
    }
  }
  out = matmul_nt(up, lw.w_down);  // [n, d_model]
}

Tensor Model::forward(std::span<const TokenId> tokens,
                      std::span<const int> pos_ids, KVCache& cache,
                      bool return_all_logits) const {
  return forward_impl(tokens, pos_ids, {}, cache, return_all_logits);
}

Tensor Model::forward(std::span<const TokenId> tokens,
                      std::span<const int> pos_ids, SegmentedKVCache& cache,
                      bool return_all_logits) const {
  return forward_impl(tokens, pos_ids, {}, cache, return_all_logits);
}

Tensor Model::forward_blocked(std::span<const TokenId> tokens,
                              std::span<const int> pos_ids,
                              std::span<const int> block_ids, KVCache& cache,
                              bool return_all_logits,
                              std::span<const bool> hidden_from_global) const {
  PC_CHECK_MSG(cache.empty(), "forward_blocked requires an empty cache");
  PC_CHECK_MSG(block_ids.size() == tokens.size(),
               "block_ids length mismatch");
  PC_CHECK_MSG(hidden_from_global.empty() ||
                   hidden_from_global.size() == tokens.size(),
               "hidden_from_global length mismatch");
  return forward_impl(tokens, pos_ids, block_ids, cache, return_all_logits,
                      hidden_from_global);
}

template <typename CacheT>
Tensor Model::forward_impl(std::span<const TokenId> tokens,
                           std::span<const int> pos_ids,
                           std::span<const int> block_ids, CacheT& cache,
                           bool return_all_logits,
                           std::span<const bool> hidden_from_global) const {
  PC_CHECK_MSG(tokens.size() == pos_ids.size(),
               "tokens/pos_ids length mismatch");
  PC_CHECK_MSG(!tokens.empty(), "empty forward");
  PC_CHECK_MSG(cache.n_layers() == config_.n_layers &&
                   cache.kv_dim() == config_.kv_dim(),
               "cache geometry mismatch");
  for (int p : pos_ids) {
    PC_CHECK_MSG(p >= 0 && p < config_.max_pos,
                 "position id " << p << " outside max_pos " << config_.max_pos);
  }

  const int n_new = static_cast<int>(tokens.size());
  const int d = config_.d_model;
  const int first_new = cache.append_tokens(pos_ids);

  Tensor x({n_new, d});
  embed(tokens, pos_ids, x);

  Tensor h({n_new, d});
  Tensor attn_out({n_new, config_.q_dim()});
  for (int l = 0; l < config_.n_layers; ++l) {
    const auto& lw = weights_.layers[static_cast<size_t>(l)];
    apply_norm(lw.norm1_w, lw.norm1_b, x, h);
    attention(l, h, pos_ids, block_ids, hidden_from_global, first_new, cache,
              attn_out);
    Tensor attn_proj = matmul_nt(attn_out, lw.wo);  // [n, d_model]

    if (config_.parallel_block) {
      // Falcon block: MLP reads the same normed input; both add to residual.
      add_inplace(x, attn_proj);
      if (config_.use_mlp) {
        Tensor mlp_out;
        mlp(l, h, mlp_out);
        add_inplace(x, mlp_out);
      }
    } else {
      add_inplace(x, attn_proj);
      if (config_.use_mlp) {
        apply_norm(lw.norm2_w, lw.norm2_b, x, h);
        Tensor mlp_out;
        mlp(l, h, mlp_out);
        add_inplace(x, mlp_out);
      }
    }
  }

  // Logits for the requested rows.
  const int64_t out_rows = return_all_logits ? n_new : 1;
  Tensor final_in({out_rows, d});
  for (int64_t r = 0; r < out_rows; ++r) {
    const int64_t src = return_all_logits ? r : n_new - 1;
    std::memcpy(final_in.row(r), x.row(src),
                static_cast<size_t>(d) * sizeof(float));
  }
  if (config_.final_norm && config_.norm != NormKind::kNone) {
    Tensor normed({out_rows, d});
    apply_norm(weights_.final_norm_w, weights_.final_norm_b, final_in, normed);
    return matmul_nt(normed, weights_.lm_head);
  }
  return matmul_nt(final_in, weights_.lm_head);
}

Tensor Model::forward_batch(std::span<const BatchSeq> seqs) const {
  PC_CHECK_MSG(!seqs.empty(), "forward_batch: empty batch");
  const int n_seqs = static_cast<int>(seqs.size());
  int total = 0;
  for (int s = 0; s < n_seqs; ++s) {
    const BatchSeq& seq = seqs[static_cast<size_t>(s)];
    PC_CHECK_MSG(seq.cache != nullptr, "forward_batch: sequence without cache");
    PC_CHECK_MSG(seq.tokens.size() == seq.pos_ids.size(),
                 "forward_batch: tokens/pos_ids length mismatch");
    PC_CHECK_MSG(!seq.tokens.empty(), "forward_batch: empty sequence");
    PC_CHECK_MSG(seq.cache->n_layers() == config_.n_layers &&
                     seq.cache->kv_dim() == config_.kv_dim(),
                 "forward_batch: cache geometry mismatch");
    for (int p : seq.pos_ids) {
      PC_CHECK_MSG(p >= 0 && p < config_.max_pos,
                   "position id " << p << " outside max_pos "
                                  << config_.max_pos);
    }
    for (int t = 0; t < s; ++t) {
      PC_CHECK_MSG(seqs[static_cast<size_t>(t)].cache != seq.cache,
                   "forward_batch: sequences must have distinct caches");
    }
    total += static_cast<int>(seq.tokens.size());
  }
  PC_SPAN("forward_batch", {"seqs", static_cast<int64_t>(n_seqs)},
          {"tokens", static_cast<int64_t>(total)});

  // Flatten: dense row-wise stages run once over every sequence's rows.
  const int d = config_.d_model;
  std::vector<TokenId> tokens;
  std::vector<int> pos;
  std::vector<int> row_seq(static_cast<size_t>(total));
  std::vector<int> row_idx(static_cast<size_t>(total));
  std::vector<int> row_off(static_cast<size_t>(n_seqs));
  std::vector<int> first_new(static_cast<size_t>(n_seqs));
  tokens.reserve(static_cast<size_t>(total));
  pos.reserve(static_cast<size_t>(total));
  int r = 0;
  for (int s = 0; s < n_seqs; ++s) {
    const BatchSeq& seq = seqs[static_cast<size_t>(s)];
    row_off[static_cast<size_t>(s)] = r;
    first_new[static_cast<size_t>(s)] = seq.cache->append_tokens(seq.pos_ids);
    for (size_t i = 0; i < seq.tokens.size(); ++i) {
      tokens.push_back(seq.tokens[i]);
      pos.push_back(seq.pos_ids[i]);
      row_seq[static_cast<size_t>(r)] = s;
      row_idx[static_cast<size_t>(r)] = static_cast<int>(i);
      ++r;
    }
  }

  Tensor x({total, d});
  embed(tokens, pos, x);

  Tensor h({total, d});
  Tensor attn_out({total, config_.q_dim()});
  for (int l = 0; l < config_.n_layers; ++l) {
    const auto& lw = weights_.layers[static_cast<size_t>(l)];
    apply_norm(lw.norm1_w, lw.norm1_b, x, h);
    attention_batch(l, h, seqs, first_new, row_seq, row_idx, pos, attn_out);
    Tensor attn_proj = matmul_nt(attn_out, lw.wo);  // [total, d_model]

    if (config_.parallel_block) {
      add_inplace(x, attn_proj);
      if (config_.use_mlp) {
        Tensor mlp_out;
        mlp(l, h, mlp_out);
        add_inplace(x, mlp_out);
      }
    } else {
      add_inplace(x, attn_proj);
      if (config_.use_mlp) {
        apply_norm(lw.norm2_w, lw.norm2_b, x, h);
        Tensor mlp_out;
        mlp(l, h, mlp_out);
        add_inplace(x, mlp_out);
      }
    }
  }

  // One logits row per sequence: its last new token.
  Tensor final_in({n_seqs, d});
  for (int s = 0; s < n_seqs; ++s) {
    const int last = row_off[static_cast<size_t>(s)] +
                     static_cast<int>(seqs[static_cast<size_t>(s)]
                                          .tokens.size()) -
                     1;
    std::memcpy(final_in.row(s), x.row(last),
                static_cast<size_t>(d) * sizeof(float));
  }
  if (config_.final_norm && config_.norm != NormKind::kNone) {
    Tensor normed({n_seqs, d});
    apply_norm(weights_.final_norm_w, weights_.final_norm_b, final_in, normed);
    return matmul_nt(normed, weights_.lm_head);
  }
  return matmul_nt(final_in, weights_.lm_head);
}

TokenId Model::argmax(const Tensor& logits, int64_t row) {
  PC_CHECK(logits.ndim() == 2 && row < logits.dim(0));
  const float* p = logits.row(row);
  int64_t best = 0;
  for (int64_t i = 1; i < logits.dim(1); ++i) {
    if (p[i] > p[best]) best = i;
  }
  return static_cast<TokenId>(best);
}

std::vector<TokenId> Model::generate_greedy(
    const Tensor& last_logits, int next_pos, KVCache& cache,
    const GenerateOptions& options) const {
  return generate_impl(last_logits, next_pos, cache, options).tokens;
}

std::vector<TokenId> Model::generate_greedy(
    const Tensor& last_logits, int next_pos, SegmentedKVCache& cache,
    const GenerateOptions& options) const {
  return generate_impl(last_logits, next_pos, cache, options).tokens;
}

Model::GenerateOutput Model::generate(const Tensor& last_logits, int next_pos,
                                      KVCache& cache,
                                      const GenerateOptions& options) const {
  return generate_impl(last_logits, next_pos, cache, options);
}

Model::GenerateOutput Model::generate(const Tensor& last_logits, int next_pos,
                                      SegmentedKVCache& cache,
                                      const GenerateOptions& options) const {
  return generate_impl(last_logits, next_pos, cache, options);
}

namespace {

// log softmax(logits)[token], numerically stable.
double token_logprob(const Tensor& logits, TokenId token) {
  PC_CHECK(logits.ndim() == 2 && logits.dim(0) >= 1);
  PC_CHECK(token >= 0 && token < logits.dim(1));
  const float* row = logits.row(0);
  float mx = row[0];
  for (int64_t i = 1; i < logits.dim(1); ++i) mx = std::max(mx, row[i]);
  double sum = 0;
  for (int64_t i = 0; i < logits.dim(1); ++i) {
    sum += std::exp(static_cast<double>(row[i] - mx));
  }
  return static_cast<double>(row[token] - mx) - std::log(sum);
}

}  // namespace

double Model::continuation_logprob(const Tensor& last_logits,
                                   std::span<const TokenId> continuation,
                                   int next_pos, KVCache& cache) const {
  PC_CHECK_MSG(!continuation.empty(), "empty continuation");
  double total = token_logprob(last_logits, continuation[0]);
  for (size_t i = 0; i + 1 < continuation.size(); ++i) {
    const int pos = next_pos + static_cast<int>(i);
    PC_CHECK_MSG(pos < config_.max_pos, "continuation exceeds max_pos");
    const TokenId input = continuation[i];
    const Tensor logits = forward({&input, 1}, {&pos, 1}, cache);
    total += token_logprob(logits, continuation[i + 1]);
  }
  return total;
}

TokenId Model::sample_token(const Tensor& logits,
                            const GenerateOptions& options, Rng& rng) {
  return sample_token(logits, 0, options, rng);
}

TokenId Model::sample_token(const Tensor& logits, int64_t row_index,
                            const GenerateOptions& options, Rng& rng) {
  if (options.temperature <= 0.0f) return argmax(logits, row_index);
  PC_CHECK(logits.ndim() == 2 && row_index >= 0 &&
           row_index < logits.dim(0));
  const int64_t vocab = logits.dim(1);
  const float* row = logits.row(row_index);
  const double inv_temp = 1.0 / options.temperature;

  if (options.top_k > 0 && options.top_k < vocab) {
    // Top-k: nth_element on a reused index scratch (no full-vocab sort, no
    // per-token allocation once the scratch is warm), then a small sort of
    // the k survivors for a canonical order.
    const size_t k = static_cast<size_t>(options.top_k);
    static thread_local std::vector<int32_t> candidates;
    static thread_local std::vector<double> weights;
    candidates.resize(static_cast<size_t>(vocab));
    for (int64_t i = 0; i < vocab; ++i) {
      candidates[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    }
    const auto by_logit_desc = [&](int32_t a, int32_t b) {
      return row[a] > row[b];
    };
    std::nth_element(candidates.begin(), candidates.begin() + options.top_k,
                     candidates.end(), by_logit_desc);
    std::sort(candidates.begin(), candidates.begin() + options.top_k,
              by_logit_desc);

    const float mx = row[candidates.front()];  // sorted: first is the max
    weights.resize(k);
    double total = 0;
    for (size_t i = 0; i < k; ++i) {
      weights[i] =
          std::exp(static_cast<double>(row[candidates[i]] - mx) * inv_temp);
      total += weights[i];
    }
    double u = rng.next_double() * total;
    for (size_t i = 0; i < k; ++i) {
      u -= weights[i];
      if (u <= 0) return static_cast<TokenId>(candidates[i]);
    }
    return static_cast<TokenId>(candidates[k - 1]);
  }

  // All-tokens path: no candidate vector at all — max, total, and the
  // inverse-CDF walk are three passes over the logits row, recomputing the
  // exp in the third (identical bits: same input, same function).
  float mx = row[0];
  for (int64_t i = 1; i < vocab; ++i) mx = std::max(mx, row[i]);
  double total = 0;
  for (int64_t i = 0; i < vocab; ++i) {
    total += std::exp(static_cast<double>(row[i] - mx) * inv_temp);
  }
  double u = rng.next_double() * total;
  for (int64_t i = 0; i < vocab; ++i) {
    u -= std::exp(static_cast<double>(row[i] - mx) * inv_temp);
    if (u <= 0) return static_cast<TokenId>(i);
  }
  return static_cast<TokenId>(vocab - 1);
}

namespace {

// Index of the matched stop sequence whose tokens form a suffix of `out`,
// or -1.
int matched_stop_sequence(const std::vector<TokenId>& out,
                          const GenerateOptions& options) {
  for (size_t s = 0; s < options.stop_sequences.size(); ++s) {
    const auto& seq = options.stop_sequences[s];
    if (seq.empty() || seq.size() > out.size()) continue;
    if (std::equal(seq.begin(), seq.end(), out.end() - seq.size())) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

}  // namespace

template <typename CacheT>
Model::GenerateOutput Model::generate_impl(
    const Tensor& last_logits, int next_pos, CacheT& cache,
    const GenerateOptions& options) const {
  GenerateOutput out;
  out.finish_reason = FinishReason::kLength;
  Rng rng(options.seed);
  TokenId next = sample_token(last_logits, options, rng);
  for (int step = 0; step < options.max_new_tokens; ++step) {
    bool stop = false;
    for (TokenId s : options.stop_tokens) {
      if (next == s) {
        stop = true;
        break;
      }
    }
    if (stop) {
      out.finish_reason = FinishReason::kStopToken;
      break;
    }
    out.tokens.push_back(next);
    const int hit = matched_stop_sequence(out.tokens, options);
    if (hit >= 0) {
      out.tokens.resize(
          out.tokens.size() -
          options.stop_sequences[static_cast<size_t>(hit)].size());
      out.finish_reason = FinishReason::kStopSequence;
      break;
    }
    if (step + 1 == options.max_new_tokens) break;  // kLength
    const int pos = next_pos + step;
    if (pos >= config_.max_pos) {
      out.finish_reason = FinishReason::kPositionBudget;
      break;
    }
    if (options.cancel.expired()) {
      out.finish_reason = FinishReason::kCancelled;
      break;
    }
    PC_SPAN("decode_token", {"pos", pos});
    const TokenId input = next;
    const Tensor logits = forward({&input, 1}, {&pos, 1}, cache);
    next = sample_token(logits, options, rng);
  }
  return out;
}

}  // namespace pc
