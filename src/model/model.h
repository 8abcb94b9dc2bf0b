// Decoder-only transformer inference engine with explicit position IDs and
// KV-cache injection — the substrate Prompt Cache operates on.
//
// The single primitive is forward(): compute attention states for a span of
// new tokens at caller-chosen position IDs, appending them to a KVCache.
// Every mode of the paper is an instance of it:
//   * baseline prefill        — empty cache, positions 0..n-1
//   * prompt-module encoding  — empty cache, positions from the schema
//     (module-local attention falls out: nothing else is in the cache);
//     encode() is its K/V-only form
//   * uncached-segment filling— cache preloaded with concatenated modules
//   * autoregressive decode   — one token at a time
//
// Every new row gets K/V at every layer. Past the final layer's K/V, only
// the rows whose logits are returned are computed (the last row unless
// return_all_logits is set; none for encode()): nothing else reads them, and
// every post-K/V op is row-independent, so no returned or cached bit moves.
//
// New tokens attend to everything already in the cache plus causally to one
// another. ALiBi biases are computed from the true position IDs stored in
// the cache, and RoPE keys are cached post-rotation, so modules remain valid
// after relocation and concatenation (paper §4.2).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "kv/kv_cache.h"
#include "model/config.h"
#include "model/weights.h"
#include "pos/alibi.h"
#include "pos/rope.h"
#include "tokenizer/vocab.h"

namespace pc {

enum class FinishReason {
  kStopToken,      // produced a stop token
  kStopSequence,   // generated tail matched a stop sequence
  kLength,         // hit max_new_tokens
  kPositionBudget, // ran out of position IDs (model max_pos)
  kCancelled,      // the options' cancellation token expired mid-decode
};

struct GenerateOptions {
  int max_new_tokens = 16;
  // Single-token stops: generation ends when one is produced (the stop
  // token itself is not emitted).
  std::vector<TokenId> stop_tokens = {Vocab::kEos};
  // Multi-token stops: when the generated tail matches one of these
  // sequences, the match is removed from the output and generation ends.
  std::vector<std::vector<TokenId>> stop_sequences;
  // temperature == 0 selects greedy argmax decoding. Otherwise logits are
  // divided by the temperature and sampled (optionally top_k-truncated)
  // with a deterministic per-call RNG seeded by `seed`.
  float temperature = 0.0f;
  int top_k = 0;  // 0 = no truncation
  uint64_t seed = 0x5eedULL;
  // Polled before each decode step; generation stops with kCancelled when
  // it expires. The default token never expires (a null-pointer test).
  CancellationToken cancel;
};

class Model {
 public:
  Model(ModelConfig config, ModelWeights weights);

  // Convenience: random weights from a seed.
  static Model random(const ModelConfig& config, uint64_t seed);

  const ModelConfig& config() const { return config_; }
  const ModelWeights& weights() const { return weights_; }
  ModelWeights& mutable_weights() { return weights_; }

  // A cache with this model's geometry.
  KVCache make_cache(ConcatPolicy policy = ConcatPolicy::kBuffered) const {
    return KVCache(config_.n_layers, config_.kv_dim(), policy);
  }

  // Computes attention states for `tokens` at `pos_ids` (same length),
  // appends them to `cache` as own rows, and returns logits: [1, vocab] for
  // the final token, or [n, vocab] when return_all_logits is set. The final
  // layer runs past K/V for the returned rows only. The cache may lead with
  // copied or borrowed module rows in any stored format (kv/kv_cache.h).
  Tensor forward(std::span<const TokenId> tokens,
                 std::span<const int> pos_ids, KVCache& cache,
                 bool return_all_logits = false) const;

  // K/V only: appends the same K/V bits forward() would, and computes
  // nothing past the final layer's K/V (no final-layer query side or MLP,
  // no final norm or LM head). For callers that discard the logits: module
  // and scaffold encoding, and a chat session's catch-up forwards (the
  // reply's last token, the closing tokens).
  void encode(std::span<const TokenId> tokens, std::span<const int> pos_ids,
              KVCache& cache) const;

  // One sequence of a batched step: `tokens` are the new tokens this
  // iteration (a prefill chunk or a single decode token) at `pos_ids`,
  // appended to `cache` — which may borrow module rows, so every request
  // reads shared modules in place. `logits` asks for the last new token's
  // logits; a mid-prompt prefill chunk clears it, and the step then
  // computes only its rows' K/V in the final layer.
  struct BatchSeq {
    std::span<const TokenId> tokens;
    std::span<const int> pos_ids;
    KVCache* cache = nullptr;
    bool logits = true;
  };

  // Batched step over independent sequences (continuous batching, see
  // sys/batch.h): the dense row-wise work — embeddings, norms, QKV/output
  // projections, MLP — runs once over the concatenated rows of every
  // sequence, while attention stays per-sequence (each row attends only to
  // its own cache, causally within its chunk). Every per-row computation is
  // bitwise identical to running the sequences through forward()
  // one at a time — the foundation of the batched == sequential token
  // equality the serve path guarantees. Returns one logits row per sequence
  // with `logits` set, for its last new token, in batch order
  // ([m, vocab]; empty when m == 0). Caches must be distinct.
  Tensor forward_batch(std::span<const BatchSeq> seqs) const;

  // Reference path: one prefill over the whole prompt with a block-diagonal
  // attention mask. Token i may attend to token j (j <= i) iff they share a
  // block id, or block_ids[i] == kGlobalBlock (attends to everything). This
  // reproduces, in a single forward, exactly the attention pattern Prompt
  // Cache realizes through per-module encoding + concatenation (§3.1), and
  // the test suite asserts bitwise equality between the two. The cache must
  // be empty on entry.
  //
  // `hidden_from_global` (optional, same length as tokens) marks rows that
  // global-block tokens must NOT attend to even though same-block tokens
  // do: exactly the behaviour of <unk> parameter placeholders, which are
  // attended during module encoding but never copied into the serving
  // cache (§3.3).
  static constexpr int kGlobalBlock = -1;
  Tensor forward_blocked(std::span<const TokenId> tokens,
                         std::span<const int> pos_ids,
                         std::span<const int> block_ids, KVCache& cache,
                         bool return_all_logits = false,
                         std::span<const bool> hidden_from_global = {}) const;

  // Decoding continuing from `last_logits` (the output of a forward over
  // the prompt). Generated tokens occupy consecutive position IDs starting
  // at next_pos. Stops at max_new_tokens, any stop token, or a stop
  // sequence (stops are not included in the result). Greedy when
  // options.temperature == 0, seeded sampling otherwise.
  std::vector<TokenId> generate_greedy(const Tensor& last_logits,
                                       int next_pos, KVCache& cache,
                                       const GenerateOptions& options) const;

  // As above, but also reports why generation stopped.
  struct GenerateOutput {
    std::vector<TokenId> tokens;
    FinishReason finish_reason = FinishReason::kLength;
  };
  GenerateOutput generate(const Tensor& last_logits, int next_pos,
                          KVCache& cache,
                          const GenerateOptions& options) const;

  static TokenId argmax(const Tensor& logits, int64_t row = 0);

  // Samples one token from a logits row under the options' temperature /
  // top_k policy (argmax when temperature == 0). Exposed for tests.
  static TokenId sample_token(const Tensor& logits,
                              const GenerateOptions& options, Rng& rng);

  // Row-addressed variant for batched logits ([n_seqs, vocab]): identical
  // bits to sampling from that sequence's own [1, vocab] logits.
  static TokenId sample_token(const Tensor& logits, int64_t row,
                              const GenerateOptions& options, Rng& rng);

  // Sum of per-token log-probabilities (natural log) of `continuation`
  // under the model, given `last_logits` (the logits after the context) and
  // a cache holding that context. Appends the continuation to the cache.
  // This is the continuous output-fidelity metric: comparing the cached and
  // baseline paths' log-probabilities of the same reference text measures
  // quality impact more finely than exact-match generation.
  double continuation_logprob(const Tensor& last_logits,
                              std::span<const TokenId> continuation,
                              int next_pos, KVCache& cache) const;

  // Per-token KV payload in bytes at fp32 (engine precision).
  size_t kv_bytes_per_token() const {
    return static_cast<size_t>(2) * config_.n_layers * config_.kv_dim() *
           sizeof(float);
  }

 private:
  void embed(std::span<const TokenId> tokens, std::span<const int> pos_ids,
             Tensor& x) const;
  void apply_norm(const Tensor& w, const Tensor& b, const Tensor& x,
                  Tensor& out) const;
  // Which new rows of a forward run past the final layer's K/V and reach
  // the logits.
  enum class LogitRows { kLast, kAll, kNone };
  Tensor forward_impl(std::span<const TokenId> tokens,
                      std::span<const int> pos_ids,
                      std::span<const int> block_ids, KVCache& cache,
                      LogitRows rows,
                      std::span<const bool> hidden_from_global = {}) const;
  // The layer stack over embedded rows x (whose indices are all_rows):
  // attend(layer, h, q_rows) publishes every row's K/V and returns the
  // attention output of rows q_rows, which are all_rows except in the final
  // layer, where they are out_rows. Returns the logits of out_rows, or an
  // empty tensor when out_rows is empty.
  template <typename AttendFn>
  Tensor run_layers(Tensor& x, std::span<const int> all_rows,
                    std::span<const int> out_rows, AttendFn&& attend) const;
  // Query projections of h's rows `rows` (all of h when it has no others),
  // rotated at their positions on RoPE models.
  Tensor queries(int layer, const Tensor& h, std::span<const int> pos_ids,
                 std::span<const int> rows) const;
  Tensor attention(int layer, const Tensor& h, std::span<const int> pos_ids,
                   std::span<const int> block_ids,
                   std::span<const bool> hidden_from_global, int first_new,
                   std::span<const int> q_rows, KVCache& cache) const;
  Tensor attention_batch(int layer, const Tensor& h,
                         std::span<const BatchSeq> seqs,
                         const std::vector<int>& first_new,
                         const std::vector<int>& row_seq,
                         const std::vector<int>& row_idx,
                         std::span<const int> pos_ids,
                         std::span<const int> q_rows) const;
  // Output projection, residual and MLP of `layer` for the rows of attn_out;
  // h holds the same rows' norm1 output.
  void finish_block(int layer, const Tensor& attn_out, Tensor& h,
                    Tensor& x) const;
  void mlp(int layer, const Tensor& h, Tensor& out) const;

  ModelConfig config_;
  ModelWeights weights_;
  std::unique_ptr<RopeTable> rope_;   // present for kRope
  std::unique_ptr<Alibi> alibi_;      // present for kAlibi
  float attn_scale_;
};

}  // namespace pc
