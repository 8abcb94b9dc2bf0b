// Decoder-only transformer inference engine with explicit position IDs and
// KV-cache injection — the substrate Prompt Cache operates on.
//
// There is one model step: compute attention states for spans of new tokens
// at caller-chosen position IDs, appending each span to its own KVCache.
// forward_batch() runs it over several independent sequences at once, and
// forward(), encode() and forward_blocked() over one. Every mode of the
// paper is an instance of it:
//   * baseline prefill        — empty cache, positions 0..n-1
//   * prompt-module encoding  — empty cache, positions from the schema
//     (module-local attention falls out: nothing else is in the cache);
//     encode() is its K/V-only form
//   * uncached-segment filling— cache preloaded with concatenated modules
//   * autoregressive decode   — one token at a time
//   * continuous batching     — a Server lane's prefill chunks and decode
//     tokens of many requests in one step (sys/batch.h)
//
// Every new row gets K/V at every layer. Past the final layer's K/V, only
// the rows whose logits are returned are computed (LogitRows: the last row,
// every row, or none): nothing else reads them, and every post-K/V op is
// row-independent, so no returned or cached bit moves.
//
// New tokens attend to everything already in their cache plus causally to
// one another. ALiBi biases are computed from the true position IDs stored
// in the cache, and RoPE keys are cached post-rotation, so modules remain
// valid after relocation and concatenation (paper §4.2).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
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

  // A cache with this model's geometry.
  KVCache make_cache(ConcatPolicy policy = ConcatPolicy::kBuffered) const {
    return KVCache(config_.n_layers, config_.kv_dim(), policy);
  }

  // Which new rows of a sequence run past the final layer's K/V and reach
  // the logits: the last (the next token's logits), all, or none (K/V only:
  // encoding, a mid-prompt prefill chunk).
  enum class LogitRows { kLast, kAll, kNone };

  // Computes attention states for `tokens` at `pos_ids` (same length),
  // appends them to `cache` as own rows, and returns logits: [1, vocab] for
  // the final token, or [n, vocab] when return_all_logits is set. The cache
  // may lead with copied or borrowed module rows in any stored format
  // (kv/kv_cache.h). A one-sequence forward_batch() step without its span.
  Tensor forward(std::span<const TokenId> tokens,
                 std::span<const int> pos_ids, KVCache& cache,
                 bool return_all_logits = false) const;

  // K/V only (LogitRows::kNone): appends the same K/V bits forward() would,
  // and computes nothing past the final layer's K/V (no final-layer query
  // side or MLP, no final norm or LM head). For callers that discard the
  // logits: module and scaffold encoding, and a chat session's catch-up
  // forwards (the reply's last token, the closing tokens).
  void encode(std::span<const TokenId> tokens, std::span<const int> pos_ids,
              KVCache& cache) const;

  // One sequence of a step: `tokens` are its new tokens (a whole prompt, a
  // prefill chunk or a single decode token) at `pos_ids`, appended to
  // `cache`, which may borrow module rows, so every request reads shared
  // modules in place. `logits` picks the rows returned; a mid-prompt
  // prefill chunk asks for none. `block_ids` and `hidden_from_global` are
  // forward_blocked()'s attention mask (empty: unmasked); a masked
  // sequence needs an empty cache.
  struct BatchSeq {
    std::span<const TokenId> tokens;
    std::span<const int> pos_ids;
    KVCache* cache = nullptr;
    LogitRows logits = LogitRows::kLast;
    std::span<const int> block_ids = {};
    std::span<const bool> hidden_from_global = {};
  };

  // The model step over independent sequences: forward(), encode() and
  // forward_blocked() are its one-sequence calls, and a Server lane runs it
  // over its batch (continuous batching, sys/batch.h) under a
  // "forward_batch" span. The dense row-wise work — embeddings, norms,
  // QKV/output projections, MLP — runs once over the concatenated rows of
  // every sequence, while attention stays per-sequence: each query row
  // attends only to its own cache, causally within its sequence's new rows,
  // under its own mask. A row's kernel inputs never depend on the other
  // sequences in the step, so a sequence's bits are the same batched or
  // alone. Returns each sequence's `logits` rows in batch order ([m,
  // vocab]; empty when m == 0). Caches must be distinct.
  Tensor forward_batch(std::span<const BatchSeq> seqs) const;

  // Reference path: one prefill over the whole prompt with a block-diagonal
  // attention mask, returning the last token's logits. Token i may attend
  // to token j (j <= i) iff they share a block id, or block_ids[i] ==
  // kGlobalBlock (attends to everything). This reproduces, in a single
  // forward, exactly the attention pattern Prompt Cache realizes through
  // per-module encoding + concatenation (§3.1), and the test suite asserts
  // bitwise equality between the two. The cache must be empty on entry.
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
                         std::span<const bool> hidden_from_global = {}) const;

  // Decoding continuing from `last_logits` (the output of a forward over
  // the prompt): a Decoder (below) run over forward(). Generated tokens
  // occupy consecutive position IDs starting at next_pos; the result
  // excludes the stop token or stop sequence that ended it, and says why
  // generation stopped.
  struct GenerateOutput {
    std::vector<TokenId> tokens;
    FinishReason finish_reason = FinishReason::kLength;
  };
  GenerateOutput generate(const Tensor& last_logits, int next_pos,
                          KVCache& cache,
                          const GenerateOptions& options) const;

  static TokenId argmax(const Tensor& logits, int64_t row = 0);

  // Samples one token from logits row `row` under the options' temperature
  // / top_k policy (argmax when temperature == 0): the Decoder's sampler,
  // exposed for tests. A row of batched logits ([n_seqs, vocab]) gives
  // identical bits to sampling from that sequence's own [1, vocab] logits.
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
  // A step's sequences, their rows flattened in batch order.
  struct Step {
    std::span<const BatchSeq> seqs;
    std::vector<int> first_new;  // per sequence: its first new cache slot
    std::vector<int> row_begin;  // per sequence: its first row; then total
    std::span<const int> pos;    // per row: its position id
    // The sequence row r belongs to.
    size_t seq_of(int r) const;
  };
  // Validates and flattens the step, appends every sequence's rows to its
  // cache, and runs the layer stack.
  Tensor step(std::span<const BatchSeq> seqs) const;
  // The layer stack over embedded rows x (whose indices are all_rows):
  // every row publishes its K/V at every layer, and rows q_rows run the
  // query side, which are all_rows except in the final layer, where they
  // are out_rows. Returns the logits of out_rows, or an empty tensor when
  // out_rows is empty.
  Tensor run_layers(Tensor& x, const Step& st, std::span<const int> all_rows,
                    std::span<const int> out_rows) const;
  // Query projections of h's rows `rows` (all of h when it has no others),
  // rotated at their positions on RoPE models.
  Tensor queries(int layer, const Tensor& h, std::span<const int> pos_ids,
                 std::span<const int> rows) const;
  // Layer `layer`'s self-attention over the step's rows h: publishes every
  // row's K/V into its sequence's cache and returns the output of rows
  // q_rows, each attending over its own cache under its own mask.
  Tensor attention(int layer, const Tensor& h, const Step& st,
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

// One request's decode loop, steppable: Model::generate runs it over
// forward(), and a Server lane (sys/batch.h) over its forward_batch rows,
// so both emit the same tokens. It owns the Rng(options.seed) stream and
// checks, after each sampled token, in this order: stop tokens, stop
// sequences, max_new_tokens, the position budget (max_pos), cancellation.
//
//   Decoder d(options, gen_start, max_pos);
//   for (bool done = d.accept(prompt_logits); !done;)
//     done = d.accept(forward(d.token() at d.pos()));
//
// `options` must outlive the decoder.
class Decoder {
 public:
  Decoder(const GenerateOptions& options, int gen_start, int max_pos)
      : options_(options), rng_(options.seed), gen_start_(gen_start),
        max_pos_(max_pos) {}

  // Samples one token from `logits` row `row` (the last forward's) and
  // returns true when generation is done (finish_reason() says why);
  // otherwise the next forward is token() at pos().
  bool accept(const Tensor& logits, int64_t row = 0);

  // The next forward's input, at addresses stable for the decoder's
  // lifetime (a batched step spans them); accept() overwrites both.
  const TokenId& token() const { return token_; }
  const int& pos() const { return pos_; }

  // The tokens emitted so far; once done, the result.
  std::vector<TokenId>& tokens() { return tokens_; }
  FinishReason finish_reason() const { return finish_; }

 private:
  const GenerateOptions& options_;
  Rng rng_;
  int gen_start_;
  int max_pos_;
  int step_ = 0;
  TokenId token_ = 0;
  int pos_ = 0;
  std::vector<TokenId> tokens_;
  FinishReason finish_ = FinishReason::kLength;
};

}  // namespace pc
