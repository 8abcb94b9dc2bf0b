#include "model/model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

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

// Fused-attention dispatch for the `n_q` query heads of one GQA group (k_off
// selects their KV head). While every row is an own fp32 row, a layer is a
// dense [n_tokens, kv_dim] buffer and one head's K column is a strided walk
// from row 0 — the contiguous kernel. Otherwise rows are read through the
// layer's row tables: quantized module rows are scored in the integer domain
// (no fp32 materialization, copied and borrowed alike) and fp32 rows through
// the same pointers. A cache holds at most one quantized format.
inline void fused_attend(const KVCache& c, int layer, int k_off,
                         const float* q, size_t d_head, size_t n_ctx,
                         float scale, const float* slopes,
                         const float* rel_pos, const uint8_t* masked,
                         float* scores, float* out, size_t n_q) {
  if (c.module_rows() == 0) {
    attn_fused_contig(q, c.k_row(layer, 0) + k_off, c.v_row(layer, 0) + k_off,
                      static_cast<size_t>(c.kv_dim()), d_head, n_ctx, scale,
                      slopes, rel_pos, masked, scores, out, n_q);
    return;
  }
  const KVCache::RowTables t = c.tables(layer);
  const size_t off = static_cast<size_t>(k_off);
  if (t.k4 != nullptr) {
    attn_fused_q4_gather(q, t.k4, t.v4, t.k4_scales, t.v4_scales, t.k, t.v,
                         off, d_head, n_ctx, scale, slopes, rel_pos, masked,
                         scores, out, n_q);
  } else if (t.k8 != nullptr) {
    attn_fused_q8_gather(q, t.k8, t.v8, t.k8_scales, t.v8_scales, t.k, t.v,
                         off, d_head, n_ctx, scale, slopes, rel_pos, masked,
                         scores, out, n_q);
  } else {
    attn_fused_gather(q, t.k, t.v, off, d_head, n_ctx, scale, slopes,
                      rel_pos, masked, scores, out, n_q);
  }
}

// Rows `rows` of a 2-D tensor, in order.
Tensor gather_rows(const Tensor& t, std::span<const int> rows) {
  Tensor out({static_cast<int64_t>(rows.size()), t.dim(1)});
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(out.row(static_cast<int64_t>(i)), t.row(rows[i]),
                static_cast<size_t>(t.dim(1)) * sizeof(float));
  }
  return out;
}

}  // namespace

Tensor Model::queries(int layer, const Tensor& h,
                      std::span<const int> pos_ids,
                      std::span<const int> rows) const {
  const Tensor& wq = weights_.layers[static_cast<size_t>(layer)].wq;
  Tensor q = static_cast<int64_t>(rows.size()) == h.dim(0)
                 ? matmul_nt(h, wq)
                 : matmul_nt(gather_rows(h, rows), wq);
  if (rope_) {
    const int d_head = config_.d_head;
    for (size_t j = 0; j < rows.size(); ++j) {
      float* qj = q.row(static_cast<int64_t>(j));
      const int pos = pos_ids[static_cast<size_t>(rows[j])];
      for (int hd = 0; hd < config_.n_heads; ++hd) {
        rope_->apply(qj + hd * d_head, pos);
      }
    }
  }
  return q;
}

// Self-attention of layer `layer` for the new rows h: every row's keys and
// values are published into the cache; output row j is the attention of
// new row q_rows[j] over cache slots [0, first_new + q_rows[j]].
Tensor Model::attention(int layer, const Tensor& h,
                        std::span<const int> pos_ids,
                        std::span<const int> block_ids,
                        std::span<const bool> hidden_from_global,
                        int first_new, std::span<const int> q_rows,
                        KVCache& cache) const {
  const auto& lw = weights_.layers[static_cast<size_t>(layer)];
  const int n_new = static_cast<int>(h.dim(0));
  const int n_q = static_cast<int>(q_rows.size());
  const int d_head = config_.d_head;
  const int n_kv_heads = config_.n_kv_heads;
  const int group = config_.n_heads / n_kv_heads;
  const size_t kv_dim = static_cast<size_t>(config_.kv_dim());

  Tensor kx = matmul_nt(h, lw.wk);  // [n_new, kv_dim]
  Tensor vx = matmul_nt(h, lw.wv);  // [n_new, kv_dim]
  if (rope_) {
    for (int i = 0; i < n_new; ++i) {
      float* ki = kx.row(i);
      for (int hd = 0; hd < n_kv_heads; ++hd) {
        rope_->apply(ki + hd * d_head, pos_ids[static_cast<size_t>(i)]);
      }
    }
  }

  // Publish the new keys/values into the cache (keys post-rotation, so the
  // module stays valid if these rows are later copied elsewhere). The
  // appended rows are consecutive own rows, dense in the layer's own buffer,
  // and kx/vx are row-major, so this is two memcpys per layer rather than
  // two per token.
  std::memcpy(cache.k_row(layer, first_new), kx.data(),
              static_cast<size_t>(n_new) * kv_dim * sizeof(float));
  std::memcpy(cache.v_row(layer, first_new), vx.data(),
              static_cast<size_t>(n_new) * kv_dim * sizeof(float));

  // The query side runs for q_rows only; output row j is new row q_rows[j].
  Tensor out({n_q, config_.q_dim()});
  if (n_q == 0) return out;
  const Tensor q = queries(layer, h, pos_ids, q_rows);

  // New row i may attend to cache slots [0, first_new+i]. The block mask
  // and the ALiBi relative-distance vector depend only on (i, slot), so they
  // are computed once per query row and shared by every head.
  const int total_ctx = first_new + n_new;
  const bool use_mask = !block_ids.empty() || !hidden_from_global.empty();
  const size_t ctx_sz = static_cast<size_t>(total_ctx);

  std::vector<int> k_pos;  // position id per cache slot (ALiBi only)
  if (alibi_) {
    k_pos.resize(ctx_sz);
    for (int j = 0; j < total_ctx; ++j) k_pos[static_cast<size_t>(j)] =
        cache.pos_id(j);
  }

  // Fills mrow[0..ctx) for new row i (same predicate the scalar loop
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
  // Slots visible to query row j.
  auto ctx_of = [&](int j) {
    return first_new + q_rows[static_cast<size_t>(j)] + 1;
  };

  // One KV head's group of query heads for query row j against slots
  // [0, ctx); scores holds group * ctx_sz floats.
  auto attend_group = [&](int kvh, int j, int ctx, const float* rel,
                          const uint8_t* masked, float* scores) {
    const int hd = kvh * group;
    fused_attend(cache, layer, kvh * d_head, q.row(j) + hd * d_head,
                 static_cast<size_t>(d_head), static_cast<size_t>(ctx),
                 attn_scale_, alibi_ ? alibi_->slopes() + hd : nullptr, rel,
                 masked, scores, out.row(j) + hd * d_head,
                 static_cast<size_t>(group));
  };

  // Two schedules producing identical bits (the kernel inputs per (row, KV
  // head) are the same): prefill parallelizes over query rows, so mask/rel
  // rows are built once per row in-thread; decode-sized batches
  // parallelize over KV heads and share small precomputed mask/rel
  // matrices.
  const size_t scores_sz = static_cast<size_t>(group) * ctx_sz;
  if (n_q >= 8) {
    auto row_work = [&](size_t row_begin, size_t row_end) {
      std::vector<float> scores(scores_sz);
      std::vector<uint8_t> mrow(use_mask ? ctx_sz : 0);
      std::vector<float> rrow(alibi_ ? ctx_sz : 0);
      for (size_t jr = row_begin; jr < row_end; ++jr) {
        const int j = static_cast<int>(jr);
        const int i = q_rows[jr];
        const int ctx = ctx_of(j);
        if (use_mask) fill_mask_row(i, mrow.data(), ctx);
        if (alibi_) fill_rel_row(i, rrow.data(), ctx);
        for (int kvh = 0; kvh < n_kv_heads; ++kvh) {
          attend_group(kvh, j, ctx, alibi_ ? rrow.data() : nullptr,
                       use_mask ? mrow.data() : nullptr, scores.data());
        }
      }
    };
    if (ThreadPool::global().size() > 1) {
      ThreadPool::global().parallel_for(static_cast<size_t>(n_q), row_work);
    } else {
      row_work(0, static_cast<size_t>(n_q));
    }
  } else {
    std::vector<uint8_t> mask_mat(use_mask ? static_cast<size_t>(n_q) *
                                                 ctx_sz
                                           : 0);
    std::vector<float> rel_mat(alibi_ ? static_cast<size_t>(n_q) * ctx_sz
                                      : 0);
    for (int j = 0; j < n_q; ++j) {
      const int i = q_rows[static_cast<size_t>(j)];
      if (use_mask) {
        fill_mask_row(i, mask_mat.data() + static_cast<size_t>(j) * ctx_sz,
                      ctx_of(j));
      }
      if (alibi_) {
        fill_rel_row(i, rel_mat.data() + static_cast<size_t>(j) * ctx_sz,
                     ctx_of(j));
      }
    }
    auto kv_head_work = [&](size_t kvh_begin, size_t kvh_end) {
      std::vector<float> scores(scores_sz);
      for (size_t kvh = kvh_begin; kvh < kvh_end; ++kvh) {
        for (int j = 0; j < n_q; ++j) {
          attend_group(static_cast<int>(kvh), j, ctx_of(j),
                       alibi_ ? rel_mat.data() + static_cast<size_t>(j) * ctx_sz
                              : nullptr,
                       use_mask
                           ? mask_mat.data() + static_cast<size_t>(j) * ctx_sz
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
  return out;
}

// Per-sequence attention of a batched step. The dense projections were
// computed over the concatenated rows; here every query row r (sequence s,
// chunk-local index i) attends to its own cache's slots [0, first_new+i]
// through the same fused_attend dispatch forward() uses — same kernel,
// context and inputs as a sequential forward over that sequence alone, so
// the output bits match. As in attention(), every row publishes K/V and
// output row j is the query side of row q_rows[j].
Tensor Model::attention_batch(int layer, const Tensor& h,
                              std::span<const BatchSeq> seqs,
                              const std::vector<int>& first_new,
                              const std::vector<int>& row_seq,
                              const std::vector<int>& row_idx,
                              std::span<const int> pos_ids,
                              std::span<const int> q_rows) const {
  const auto& lw = weights_.layers[static_cast<size_t>(layer)];
  const int total = static_cast<int>(h.dim(0));
  const int n_q = static_cast<int>(q_rows.size());
  const int d_head = config_.d_head;
  const int group = config_.n_heads / config_.n_kv_heads;
  const size_t kv_dim = static_cast<size_t>(config_.kv_dim());

  Tensor kx = matmul_nt(h, lw.wk);  // [total, kv_dim]
  Tensor vx = matmul_nt(h, lw.wv);  // [total, kv_dim]
  if (rope_) {
    for (int r = 0; r < total; ++r) {
      float* kr = kx.row(r);
      for (int hd = 0; hd < config_.n_kv_heads; ++hd) {
        rope_->apply(kr + hd * d_head, pos_ids[static_cast<size_t>(r)]);
      }
    }
  }

  // Publish each row's keys/values into its sequence's own rows. A
  // sequence's rows are consecutive in kx/vx and in its own buffer, so this
  // is two memcpys per (sequence, layer).
  size_t max_ctx = 0;
  for (int s = 0, r = 0; s < static_cast<int>(seqs.size()); ++s) {
    KVCache& cache = *seqs[static_cast<size_t>(s)].cache;
    const int n = static_cast<int>(seqs[static_cast<size_t>(s)].tokens.size());
    const int t = first_new[static_cast<size_t>(s)];
    std::memcpy(cache.k_row(layer, t), kx.row(r),
                static_cast<size_t>(n) * kv_dim * sizeof(float));
    std::memcpy(cache.v_row(layer, t), vx.row(r),
                static_cast<size_t>(n) * kv_dim * sizeof(float));
    max_ctx = std::max(max_ctx, static_cast<size_t>(t + n));
    r += n;
  }

  Tensor out({n_q, config_.q_dim()});
  if (n_q == 0) return out;
  const Tensor q = queries(layer, h, pos_ids, q_rows);

  auto row_work = [&](size_t row_begin, size_t row_end) {
    std::vector<float> scores(static_cast<size_t>(group) * max_ctx);
    std::vector<float> rrow(alibi_ ? max_ctx : 0);
    for (size_t j = row_begin; j < row_end; ++j) {
      const size_t r = static_cast<size_t>(q_rows[j]);
      const int s = row_seq[r];
      const KVCache& cache = *seqs[static_cast<size_t>(s)].cache;
      const int ctx = first_new[static_cast<size_t>(s)] + row_idx[r] + 1;
      if (alibi_) {
        const int qp = pos_ids[r];
        for (int k = 0; k < ctx; ++k) {
          rrow[static_cast<size_t>(k)] =
              static_cast<float>(qp - cache.pos_id(k));
        }
      }
      for (int kvh = 0; kvh < config_.n_kv_heads; ++kvh) {
        const int hd = kvh * group;
        fused_attend(cache, layer, kvh * d_head,
                     q.row(static_cast<int64_t>(j)) + hd * d_head,
                     static_cast<size_t>(d_head), static_cast<size_t>(ctx),
                     attn_scale_, alibi_ ? alibi_->slopes() + hd : nullptr,
                     alibi_ ? rrow.data() : nullptr, nullptr, scores.data(),
                     out.row(static_cast<int64_t>(j)) + hd * d_head,
                     static_cast<size_t>(group));
      }
    }
  };
  if (ThreadPool::global().size() > 1 && n_q > 1) {
    ThreadPool::global().parallel_for(static_cast<size_t>(n_q), row_work);
  } else {
    row_work(0, static_cast<size_t>(n_q));
  }
  return out;
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

void Model::finish_block(int layer, const Tensor& attn_out, Tensor& h,
                         Tensor& x) const {
  const auto& lw = weights_.layers[static_cast<size_t>(layer)];
  add_inplace(x, matmul_nt(attn_out, lw.wo));
  if (!config_.use_mlp) return;
  // A parallel (Falcon) block's MLP reads the same normed input as its
  // attention; a sequential block's reads the residual's norm2.
  if (!config_.parallel_block) apply_norm(lw.norm2_w, lw.norm2_b, x, h);
  Tensor mlp_out;
  mlp(layer, h, mlp_out);
  add_inplace(x, mlp_out);
}

template <typename AttendFn>
Tensor Model::run_layers(Tensor& x, std::span<const int> all_rows,
                         std::span<const int> out_rows,
                         AttendFn&& attend) const {
  Tensor h(x.shape());
  for (int l = 0; l < config_.n_layers; ++l) {
    const auto& lw = weights_.layers[static_cast<size_t>(l)];
    const std::span<const int> q_rows =
        l + 1 == config_.n_layers ? out_rows : all_rows;
    apply_norm(lw.norm1_w, lw.norm1_b, x, h);
    const Tensor attn_out = attend(l, h, q_rows);
    if (q_rows.size() < all_rows.size()) {
      // Final layer: the other rows' K/V are published and nothing reads
      // anything else of them.
      if (q_rows.empty()) return {};
      x = gather_rows(x, q_rows);
      h = gather_rows(h, q_rows);
    }
    finish_block(l, attn_out, h, x);
  }
  if (config_.final_norm && config_.norm != NormKind::kNone) {
    apply_norm(weights_.final_norm_w, weights_.final_norm_b, x, h);
    return matmul_nt(h, weights_.lm_head);
  }
  return matmul_nt(x, weights_.lm_head);
}

Tensor Model::forward(std::span<const TokenId> tokens,
                      std::span<const int> pos_ids, KVCache& cache,
                      bool return_all_logits) const {
  return forward_impl(tokens, pos_ids, {}, cache,
                      return_all_logits ? LogitRows::kAll : LogitRows::kLast);
}

void Model::encode(std::span<const TokenId> tokens,
                   std::span<const int> pos_ids, KVCache& cache) const {
  (void)forward_impl(tokens, pos_ids, {}, cache, LogitRows::kNone);
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
  return forward_impl(tokens, pos_ids, block_ids, cache,
                      return_all_logits ? LogitRows::kAll : LogitRows::kLast,
                      hidden_from_global);
}

Tensor Model::forward_impl(std::span<const TokenId> tokens,
                           std::span<const int> pos_ids,
                           std::span<const int> block_ids, KVCache& cache,
                           LogitRows rows,
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
  const int first_new = cache.append_tokens(pos_ids);

  Tensor x({n_new, config_.d_model});
  embed(tokens, pos_ids, x);

  std::vector<int> all_rows(static_cast<size_t>(n_new));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  const size_t first_out = rows == LogitRows::kAll    ? 0
                           : rows == LogitRows::kLast ? all_rows.size() - 1
                                                      : all_rows.size();
  return run_layers(
      x, all_rows, std::span<const int>(all_rows).subspan(first_out),
      [&](int l, const Tensor& h, std::span<const int> q_rows) {
        return attention(l, h, pos_ids, block_ids, hidden_from_global,
                         first_new, q_rows, cache);
      });
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
  std::vector<TokenId> tokens;
  std::vector<int> pos;
  std::vector<int> row_seq(static_cast<size_t>(total));
  std::vector<int> row_idx(static_cast<size_t>(total));
  std::vector<int> first_new(static_cast<size_t>(n_seqs));
  std::vector<int> all_rows(static_cast<size_t>(total));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<int> out_rows;  // each logits sequence's last row
  tokens.reserve(static_cast<size_t>(total));
  pos.reserve(static_cast<size_t>(total));
  int r = 0;
  for (int s = 0; s < n_seqs; ++s) {
    const BatchSeq& seq = seqs[static_cast<size_t>(s)];
    first_new[static_cast<size_t>(s)] = seq.cache->append_tokens(seq.pos_ids);
    for (size_t i = 0; i < seq.tokens.size(); ++i) {
      tokens.push_back(seq.tokens[i]);
      pos.push_back(seq.pos_ids[i]);
      row_seq[static_cast<size_t>(r)] = s;
      row_idx[static_cast<size_t>(r)] = static_cast<int>(i);
      ++r;
    }
    if (seq.logits) out_rows.push_back(r - 1);
  }

  Tensor x({total, config_.d_model});
  embed(tokens, pos, x);
  return run_layers(
      x, all_rows, out_rows,
      [&](int l, const Tensor& h, std::span<const int> q_rows) {
        return attention_batch(l, h, seqs, first_new, row_seq, row_idx, pos,
                               q_rows);
      });
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

bool Decoder::accept(const Tensor& logits, int64_t row) {
  token_ = Model::sample_token(logits, row, options_, rng_);
  // Reached only with max_new_tokens == 0: otherwise the length check below
  // ended generation a step earlier.
  if (step_ >= options_.max_new_tokens) {
    finish_ = FinishReason::kLength;
    return true;
  }
  for (TokenId s : options_.stop_tokens) {
    if (token_ == s) {
      finish_ = FinishReason::kStopToken;
      return true;
    }
  }
  tokens_.push_back(token_);
  const int hit = matched_stop_sequence(tokens_, options_);
  if (hit >= 0) {
    tokens_.resize(tokens_.size() -
                   options_.stop_sequences[static_cast<size_t>(hit)].size());
    finish_ = FinishReason::kStopSequence;
    return true;
  }
  if (step_ + 1 == options_.max_new_tokens) {
    finish_ = FinishReason::kLength;
    return true;
  }
  pos_ = gen_start_ + step_;
  if (pos_ >= max_pos_) {
    finish_ = FinishReason::kPositionBudget;
    return true;
  }
  if (options_.cancel.expired()) {
    finish_ = FinishReason::kCancelled;
    return true;
  }
  ++step_;
  return false;
}

Model::GenerateOutput Model::generate(const Tensor& last_logits, int next_pos,
                                      KVCache& cache,
                                      const GenerateOptions& options) const {
  Decoder decoder(options, next_pos, config_.max_pos);
  for (bool done = decoder.accept(last_logits); !done;) {
    PC_SPAN("decode_token", {"pos", decoder.pos()});
    const Tensor logits =
        forward({&decoder.token(), 1}, {&decoder.pos(), 1}, cache);
    done = decoder.accept(logits);
  }
  return {std::move(decoder.tokens()), decoder.finish_reason()};
}

}  // namespace pc
