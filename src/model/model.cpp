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

// Self-attention of layer `layer` over a step's rows h: every row's keys and
// values are published into its sequence's cache; output row j is the
// attention of row q_rows[j] — new row i of sequence s — over s's cache
// slots [0, first_new[s] + i], under s's mask.
Tensor Model::attention(int layer, const Tensor& h, const Step& st,
                        std::span<const int> q_rows) const {
  const auto& lw = weights_.layers[static_cast<size_t>(layer)];
  const int total = static_cast<int>(h.dim(0));
  const size_t n_q = q_rows.size();
  const int d_head = config_.d_head;
  const int n_kv_heads = config_.n_kv_heads;
  const int group = config_.n_heads / n_kv_heads;
  const size_t kv_dim = static_cast<size_t>(config_.kv_dim());

  Tensor kx = matmul_nt(h, lw.wk);  // [total, kv_dim]
  Tensor vx = matmul_nt(h, lw.wv);  // [total, kv_dim]
  if (rope_) {
    for (int r = 0; r < total; ++r) {
      float* kr = kx.row(r);
      for (int hd = 0; hd < n_kv_heads; ++hd) {
        rope_->apply(kr + hd * d_head, st.pos[static_cast<size_t>(r)]);
      }
    }
  }

  // Publish each sequence's new keys/values into its own rows (keys
  // post-rotation, so a module stays valid if these rows are later copied
  // elsewhere). A sequence's rows are consecutive in kx/vx and in its own
  // buffer, so this is two memcpys per (sequence, layer).
  size_t max_ctx = 0;
  for (size_t s = 0; s < st.seqs.size(); ++s) {
    KVCache& cache = *st.seqs[s].cache;
    const int r = st.row_begin[s];
    const size_t n = static_cast<size_t>(st.row_begin[s + 1] - r);
    const int t = st.first_new[s];
    std::memcpy(cache.k_row(layer, t), kx.row(r), n * kv_dim * sizeof(float));
    std::memcpy(cache.v_row(layer, t), vx.row(r), n * kv_dim * sizeof(float));
    max_ctx = std::max(max_ctx, static_cast<size_t>(t) + n);
  }

  // The query side runs for q_rows only; output row j is row q_rows[j].
  Tensor out({static_cast<int64_t>(n_q), config_.q_dim()});
  if (n_q == 0) return out;
  const Tensor q = queries(layer, h, st.pos, q_rows);

  // Query row j's cache and visible slots, with its block-mask row and
  // ALiBi distance row filled into mrow / rrow. Both depend only on (row,
  // slot), so every head shares them. rrow[k] = float(q_pos - k_pos); the
  // kernel applies -slope * rrow[k], bit-identical to Alibi::bias().
  struct QueryRow {
    const KVCache* cache;
    size_t ctx;
    const uint8_t* masked;  // null for an unmasked sequence
    const float* rel;       // null unless ALiBi
  };
  auto query_row = [&](size_t j, uint8_t* mrow, float* rrow) {
    const int r = q_rows[j];
    const size_t s = st.seq_of(r);
    const BatchSeq& seq = st.seqs[s];
    const int i = r - st.row_begin[s];
    const int ctx = st.first_new[s] + i + 1;
    const bool use_mask = !seq.block_ids.empty();
    if (use_mask) {
      // A masked sequence's cache was empty: slot k is its new row k.
      const int my_block = seq.block_ids[static_cast<size_t>(i)];
      for (int k = 0; k < ctx; ++k) {
        const size_t ks = static_cast<size_t>(k);
        const bool masked =
            my_block == kGlobalBlock
                ? !seq.hidden_from_global.empty() && seq.hidden_from_global[ks]
                : seq.block_ids[ks] != my_block;
        mrow[k] = masked ? 1 : 0;
      }
    }
    if (alibi_) {
      const int qp = st.pos[static_cast<size_t>(r)];
      const std::vector<int>& k_pos = seq.cache->pos_ids();
      for (int k = 0; k < ctx; ++k) {
        rrow[k] = static_cast<float>(qp - k_pos[static_cast<size_t>(k)]);
      }
    }
    return QueryRow{seq.cache, static_cast<size_t>(ctx),
                    use_mask ? mrow : nullptr, alibi_ ? rrow : nullptr};
  };

  // Row blocks: block b is q_rows[blocks[b], blocks[b + 1]), at most
  // kAttnRowBlock consecutive query rows of one sequence, which one kernel
  // call attends per KV head.
  std::vector<size_t> blocks{0};
  for (size_t j = 1; j < n_q; ++j) {
    if (j - blocks.back() == kAttnRowBlock ||
        st.seq_of(q_rows[j]) != st.seq_of(q_rows[j - 1])) {
      blocks.push_back(j);
    }
  }
  blocks.push_back(n_q);

  // One work list of (row block, KV head) pairs in block-major order: pair
  // w is block w / n_kv_heads, KV head w % n_kv_heads. parallel_for cuts it
  // into at most pool.size() contiguous ranges, so a prefill spreads over
  // row blocks and a decode step over KV heads; with one thread it is a
  // loop over blocks. A range builds a block's mask and ALiBi rows at the
  // first pair of that block it runs; every kernel call gets the same
  // inputs however the list is cut, and every row the bits of a one-row
  // call, so the bits depend on neither the thread count nor the blocking.
  const bool any_mask =
      std::any_of(st.seqs.begin(), st.seqs.end(),
                  [](const BatchSeq& seq) { return !seq.block_ids.empty(); });
  const size_t n_kvh = static_cast<size_t>(n_kv_heads);
  const size_t n_blocks = blocks.size() - 1;
  auto work = [&](size_t begin, size_t end) {
    const size_t row_scores = static_cast<size_t>(group) * max_ctx;
    std::vector<float> scores(kAttnRowBlock * row_scores);
    std::vector<uint8_t> mrow(any_mask ? kAttnRowBlock * max_ctx : 0);
    std::vector<float> rrow(alibi_ ? kAttnRowBlock * max_ctx : 0);
    QueryRow rows[kAttnRowBlock];
    for (size_t w = begin; w < end;) {
      const size_t j0 = blocks[w / n_kvh];
      const size_t n = blocks[w / n_kvh + 1] - j0;
      for (size_t i = 0; i < n; ++i) {
        rows[i] = query_row(j0 + i, any_mask ? &mrow[i * max_ctx] : nullptr,
                            alibi_ ? &rrow[i * max_ctx] : nullptr);
      }
      for (size_t kvh = w % n_kvh; kvh < n_kvh && w < end; ++kvh, ++w) {
        const int kv = static_cast<int>(kvh);
        const int hd = kv * group;
        AttnRow in[kAttnRowBlock];
        for (size_t i = 0; i < n; ++i) {
          const int64_t jr = static_cast<int64_t>(j0 + i);
          in[i] = {q.row(jr) + hd * d_head, rows[i].ctx, rows[i].rel,
                   rows[i].masked, &scores[i * row_scores],
                   out.row(jr) + hd * d_head};
        }
        attn_fused(rows[0].cache->head(layer, kv * d_head), in, n,
                   static_cast<size_t>(group), static_cast<size_t>(d_head),
                   attn_scale_, alibi_ ? alibi_->slopes() + hd : nullptr);
      }
    }
  };
  ThreadPool& pool = ThreadPool::global();
  if (pool.size() > 1) {
    pool.parallel_for(n_blocks * n_kvh, work);
  } else {
    work(0, n_blocks * n_kvh);
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

Tensor Model::run_layers(Tensor& x, const Step& st,
                         std::span<const int> all_rows,
                         std::span<const int> out_rows) const {
  Tensor h(x.shape());
  for (int l = 0; l < config_.n_layers; ++l) {
    const auto& lw = weights_.layers[static_cast<size_t>(l)];
    const std::span<const int> q_rows =
        l + 1 == config_.n_layers ? out_rows : all_rows;
    apply_norm(lw.norm1_w, lw.norm1_b, x, h);
    const Tensor attn_out = attention(l, h, st, q_rows);
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

size_t Model::Step::seq_of(int r) const {
  return static_cast<size_t>(
      std::upper_bound(row_begin.begin() + 1, row_begin.end(), r) -
      (row_begin.begin() + 1));
}

Tensor Model::step(std::span<const BatchSeq> seqs) const {
  PC_CHECK_MSG(!seqs.empty(), "empty step");
  Step st{seqs, {}, {0}, {}};
  st.row_begin.reserve(seqs.size() + 1);
  for (size_t s = 0; s < seqs.size(); ++s) {
    const BatchSeq& seq = seqs[s];
    const size_t n = seq.tokens.size();
    PC_CHECK_MSG(seq.cache != nullptr, "sequence without cache");
    PC_CHECK_MSG(n == seq.pos_ids.size(), "tokens/pos_ids length mismatch");
    PC_CHECK_MSG(n > 0, "empty forward");
    PC_CHECK_MSG(seq.cache->n_layers() == config_.n_layers &&
                     seq.cache->kv_dim() == config_.kv_dim(),
                 "cache geometry mismatch");
    for (int p : seq.pos_ids) {
      PC_CHECK_MSG(p >= 0 && p < config_.max_pos,
                   "position id " << p << " outside max_pos "
                                  << config_.max_pos);
    }
    if (!seq.block_ids.empty()) {  // forward_blocked's mask
      PC_CHECK_MSG(seq.cache->empty(),
                   "forward_blocked requires an empty cache");
      PC_CHECK_MSG(seq.block_ids.size() == n, "block_ids length mismatch");
    }
    PC_CHECK_MSG(seq.hidden_from_global.empty() ||
                     seq.hidden_from_global.size() == seq.block_ids.size(),
                 "hidden_from_global length mismatch");
    for (size_t t = 0; t < s; ++t) {
      PC_CHECK_MSG(seqs[t].cache != seq.cache,
                   "sequences must have distinct caches");
    }
    st.row_begin.push_back(st.row_begin.back() + static_cast<int>(n));
  }
  const int total = st.row_begin.back();

  // Flatten: the dense row-wise stages run once over every sequence's rows.
  // A lone sequence's spans are the flattened rows as they stand.
  std::span<const TokenId> tokens = seqs[0].tokens;
  st.pos = seqs[0].pos_ids;
  std::vector<TokenId> tokens_buf;
  std::vector<int> pos_buf;
  if (seqs.size() > 1) {
    tokens_buf.reserve(static_cast<size_t>(total));
    pos_buf.reserve(static_cast<size_t>(total));
    for (const BatchSeq& seq : seqs) {
      tokens_buf.insert(tokens_buf.end(), seq.tokens.begin(), seq.tokens.end());
      pos_buf.insert(pos_buf.end(), seq.pos_ids.begin(), seq.pos_ids.end());
    }
    tokens = tokens_buf;
    st.pos = pos_buf;
  }
  std::vector<int> all_rows(static_cast<size_t>(total));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<int> out_rows;
  st.first_new.reserve(seqs.size());
  for (size_t s = 0; s < seqs.size(); ++s) {
    st.first_new.push_back(seqs[s].cache->append_tokens(seqs[s].pos_ids));
    const int end = st.row_begin[s + 1];
    switch (seqs[s].logits) {
      case LogitRows::kLast:
        out_rows.push_back(end - 1);
        break;
      case LogitRows::kAll:
        for (int r = st.row_begin[s]; r < end; ++r) out_rows.push_back(r);
        break;
      case LogitRows::kNone:
        break;
    }
  }

  Tensor x({total, config_.d_model});
  embed(tokens, st.pos, x);
  return run_layers(x, st, all_rows, out_rows);
}

Tensor Model::forward(std::span<const TokenId> tokens,
                      std::span<const int> pos_ids, KVCache& cache,
                      bool return_all_logits) const {
  const BatchSeq seq{tokens, pos_ids, &cache,
                     return_all_logits ? LogitRows::kAll : LogitRows::kLast};
  return step({&seq, 1});
}

void Model::encode(std::span<const TokenId> tokens,
                   std::span<const int> pos_ids, KVCache& cache) const {
  const BatchSeq seq{tokens, pos_ids, &cache, LogitRows::kNone};
  (void)step({&seq, 1});
}

Tensor Model::forward_blocked(std::span<const TokenId> tokens,
                              std::span<const int> pos_ids,
                              std::span<const int> block_ids, KVCache& cache,
                              std::span<const bool> hidden_from_global) const {
  // Empty block_ids would read as an unmasked sequence.
  PC_CHECK_MSG(block_ids.size() == tokens.size(),
               "block_ids length mismatch");
  const BatchSeq seq{tokens,    pos_ids, &cache, LogitRows::kLast,
                     block_ids, hidden_from_global};
  return step({&seq, 1});
}

Tensor Model::forward_batch(std::span<const BatchSeq> seqs) const {
  PC_SPAN("forward_batch", {"seqs", static_cast<int64_t>(seqs.size())},
          {"tokens", std::accumulate(seqs.begin(), seqs.end(), int64_t{0},
                                     [](int64_t n, const BatchSeq& seq) {
                                       return n + static_cast<int64_t>(
                                                      seq.tokens.size());
                                     })});
  return step(seqs);
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
