// Continuous-batching serve path (sys/batch.h, run by every Server lane):
//
//   * forward_batch is bitwise-identical to forward() over dense caches,
//     chunked or not, solo or batched, with or without borrowed module
//     rows, and a masked sequence batched with unmasked ones to its solo
//     forward_blocked, on the induction model and four random-weight
//     families;
//   * a Server lane produces bitwise-identical tokens to sequential
//     PromptCacheEngine::serve at every batch width (greedy and sampled),
//     and to copy and zero-copy engines on random weights for four model
//     families at fp32, q8 and q4, copying or borrowing;
//   * lanes admit least-loaded first: concurrent requests spread across
//     lanes before any lane batches;
//   * requests sharing modules share them in place (§3.4): every request
//     borrows its modules' rows (nothing copied), the batch's KV footprint
//     is the requests' owned tails only, and a drained batch holds no KV
//     and no store pins;
//   * deadline semantics in batch mode: expiry while queued sheds at
//     dequeue, expiry mid-service cancels to kTimeout;
//   * submit-time shedding counts in-service requests, not just the queue
//     (the regression that admitted doomed requests under full load), and
//     drain() returns when everything behind the blocker was shed;
//   * submit racing stop(): every id that submit() returned is recorded
//     with exactly one status;
//   * an empty argument serves like no argument (the kickoff rule) on
//     serve(), full prefill and a lane, for four families at every format;
//   * a lane ends decoding exactly as serve() does: stop sequence, no
//     token budget, position budget, seeded top-k sampling;
//   * a prompt past max_pos fails alone (kFailed), solo or batched, and
//     the lanes keep serving; a schema a lane cannot load fails the
//     Server's constructor;
//   * chaos (PC_FAULTS): the batch loop under encode/link/evict/stall
//     faults keeps availability 1.0 with bitwise-equal tokens.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/shared_module_store.h"
#include "eval/workload.h"
#include "model/induction.h"
#include "pml/prompt_builder.h"
#include "sys/fault.h"
#include "sys/server.h"
#include "tokenizer/tokenizer.h"

namespace pc {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

constexpr char kSchema[] = R"(
  <schema name="bs">
    <module name="d1">w00 w01 q05 a10 a11 . w02</module>
    <module name="d2">w03 q06 a12 a13 . w04</module>
    <module name="d3">w05 w06 q07 a14 a15 . w07</module>
    <module name="d4">w08 q08 a16 a17 . w09</module>
  </schema>)";

const char* const kPrompts[] = {
    R"(<prompt schema="bs"><d1/><d2/> question: q05</prompt>)",
    R"(<prompt schema="bs"><d1/><d2/> question: q06</prompt>)",
    R"(<prompt schema="bs"><d3/><d4/> question: q07</prompt>)",
    R"(<prompt schema="bs"><d3/><d4/> question: q08</prompt>)",
    R"(<prompt schema="bs"><d1/><d2/><d3/><d4/> question: q07</prompt>)",
    R"(<prompt schema="bs"><d2/><d4/> question: q08</prompt>)",
};
constexpr size_t kNumPrompts = std::size(kPrompts);

GenerateOptions ask_options(const AccuracyWorkload& workload) {
  GenerateOptions opts;
  opts.max_new_tokens = 5;
  opts.stop_tokens = {workload.stop_token()};
  return opts;
}

class BatchServeTest : public ::testing::Test {
 protected:
  BatchServeTest()
      : workload_(7),
        model_(make_induction_model({workload_.vocab().size(), 256})) {
    FaultInjector::global().disable();
  }
  ~BatchServeTest() override { FaultInjector::global().disable(); }

  // Sequential ground truth: a fresh engine serving one request at a time.
  std::vector<std::vector<TokenId>> reference_tokens(
      const std::vector<std::string>& prompts,
      const std::vector<GenerateOptions>& options) {
    PromptCacheEngine reference(model_, workload_.tokenizer());
    reference.load_schema(kSchema);
    std::vector<std::vector<TokenId>> expected;
    for (size_t i = 0; i < prompts.size(); ++i) {
      expected.push_back(reference.serve(prompts[i], options[i]).tokens);
    }
    return expected;
  }

  AccuracyWorkload workload_;
  Model model_;
};

void check_status_invariants(const ServerResponse& r) {
  if (is_served(r.status)) {
    EXPECT_TRUE(r.deadline_met) << "id " << r.id << ": " << r.detail;
  }
  if (r.status == ServeStatus::kTimeout || r.status == ServeStatus::kShed) {
    EXPECT_FALSE(r.deadline_met) << "id " << r.id;
    EXPECT_TRUE(r.result.tokens.empty()) << "id " << r.id;
  }
}

void check_accounting(const ServerStats& s) {
  EXPECT_EQ(s.completed + s.shed + s.timeouts + s.failed, s.submitted);
  EXPECT_LE(s.degraded, s.completed);
}

// ---------------------------------------------------------------------------
// forward_batch: the kernel-level bitwise contract

// Every layer's K and V rows of `view` equal `want`'s, bit for bit.
void expect_rows(const KVCache& view, const KVCache& want) {
  ASSERT_EQ(view.size(), want.size());
  const size_t kv_bytes = static_cast<size_t>(want.kv_dim()) * sizeof(float);
  for (int l = 0; l < want.n_layers(); ++l) {
    for (int t = 0; t < want.size(); ++t) {
      ASSERT_EQ(std::memcmp(view.k_row(l, t), want.k_row(l, t), kv_bytes), 0)
          << "K layer " << l << " token " << t;
      ASSERT_EQ(std::memcmp(view.v_row(l, t), want.v_row(l, t), kv_bytes), 0)
          << "V layer " << l << " token " << t;
    }
  }
}

// forward_batch == forward() / forward_blocked() on `model` over `tokens`:
// whole, chunked, two sequences, over borrowed module rows, a step mixing
// logit selectors, and masked sequences stepped with unmasked ones.
void expect_forward_batch_matches_forward(const Model& model,
                                          const std::vector<TokenId>& tokens) {
  const int n = static_cast<int>(tokens.size());
  ASSERT_GE(n, 8);
  std::vector<int> pos(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pos[static_cast<size_t>(i)] = i;

  KVCache dense = model.make_cache();
  const Tensor ref = model.forward(tokens, pos, dense);
  ASSERT_EQ(ref.dim(0), 1);

  const int n_layers = model.config().n_layers;
  const int kv_dim = model.config().kv_dim();

  // Whole sequence in one batched call.
  {
    KVCache cache(n_layers, kv_dim);
    Model::BatchSeq seq{tokens, pos, &cache};
    const Tensor out = model.forward_batch({&seq, 1});
    ASSERT_EQ(out.dim(0), 1);
    ASSERT_EQ(out.dim(1), ref.dim(1));
    EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                          static_cast<size_t>(ref.dim(1)) * sizeof(float)),
              0);
  }

  // Chunked prefill: same cache fed 5 tokens at a time; the last chunk's
  // logits must still match the one-shot dense run bitwise.
  {
    KVCache cache(n_layers, kv_dim);
    Tensor out;
    for (int at = 0; at < n; at += 5) {
      const int len = std::min(5, n - at);
      Model::BatchSeq seq{
          std::span<const TokenId>(tokens.data() + at,
                                   static_cast<size_t>(len)),
          std::span<const int>(pos.data() + at, static_cast<size_t>(len)),
          &cache};
      out = model.forward_batch({&seq, 1});
    }
    EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                          static_cast<size_t>(ref.dim(1)) * sizeof(float)),
              0);
  }

  // Two sequences of different lengths stepped together: each row matches
  // its solo dense run.
  {
    const int n2 = n / 2;
    KVCache dense2 = model.make_cache();
    const Tensor ref2 = model.forward(
        std::span<const TokenId>(tokens.data(), static_cast<size_t>(n2)),
        std::span<const int>(pos.data(), static_cast<size_t>(n2)), dense2);

    KVCache a(n_layers, kv_dim);
    KVCache b(n_layers, kv_dim);
    Model::BatchSeq seqs[2] = {
        {tokens, pos, &a},
        {std::span<const TokenId>(tokens.data(), static_cast<size_t>(n2)),
         std::span<const int>(pos.data(), static_cast<size_t>(n2)), &b}};
    const Tensor out = model.forward_batch(seqs);
    ASSERT_EQ(out.dim(0), 2);
    const size_t row_bytes = static_cast<size_t>(ref.dim(1)) * sizeof(float);
    EXPECT_EQ(std::memcmp(out.data(), ref.data(), row_bytes), 0);
    EXPECT_EQ(std::memcmp(out.data() + out.dim(1), ref2.data(), row_bytes),
              0);
  }

  // Borrowed module rows: the first half encoded on its own and borrowed
  // in place, the rest batched on top — the batch path's cache shape.
  {
    const int half = n / 2;
    KVCache module = model.make_cache();
    (void)model.forward(
        std::span<const TokenId>(tokens.data(), static_cast<size_t>(half)),
        std::span<const int>(pos.data(), static_cast<size_t>(half)), module);
    KVCache view(n_layers, kv_dim);
    view.borrow_rows(module, 0, half);
    Model::BatchSeq seq{
        std::span<const TokenId>(tokens.data() + half,
                                 static_cast<size_t>(n - half)),
        std::span<const int>(pos.data() + half, static_cast<size_t>(n - half)),
        &view};
    const Tensor out = model.forward_batch({&seq, 1});
    EXPECT_EQ(view.module_rows(), half);
    EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                          static_cast<size_t>(ref.dim(1)) * sizeof(float)),
              0);
  }

  // One step mixing a mid-prompt chunk (no logits), a final chunk and a
  // decode row: only the last two return logits, and every sequence's tail
  // holds the K/V rows sequential forwards compute.
  {
    const int split = 5;
    const int n2 = n / 2;
    KVCache mid(n_layers, kv_dim);
    KVCache fin(n_layers, kv_dim);
    KVCache dec(n_layers, kv_dim);
    (void)model.forward(
        std::span<const TokenId>(tokens.data(), static_cast<size_t>(split)),
        std::span<const int>(pos.data(), static_cast<size_t>(split)), fin);
    (void)model.forward(
        std::span<const TokenId>(tokens.data(), static_cast<size_t>(n2)),
        std::span<const int>(pos.data(), static_cast<size_t>(n2)), dec);
    KVCache dense_dec = model.make_cache();
    (void)model.forward(
        std::span<const TokenId>(tokens.data(), static_cast<size_t>(n2)),
        std::span<const int>(pos.data(), static_cast<size_t>(n2)), dense_dec);
    const Tensor ref_dec = model.forward(
        std::span<const TokenId>(tokens.data() + n2, 1),
        std::span<const int>(pos.data() + n2, 1), dense_dec);

    Model::BatchSeq step[3] = {
        {std::span<const TokenId>(tokens.data(), static_cast<size_t>(split)),
         std::span<const int>(pos.data(), static_cast<size_t>(split)), &mid,
         Model::LogitRows::kNone},
        {std::span<const TokenId>(tokens.data() + split,
                                  static_cast<size_t>(n - split)),
         std::span<const int>(pos.data() + split,
                              static_cast<size_t>(n - split)),
         &fin},
        {std::span<const TokenId>(tokens.data() + n2, 1),
         std::span<const int>(pos.data() + n2, 1), &dec}};
    const Tensor out = model.forward_batch(step);
    ASSERT_EQ(out.dim(0), 2);
    const size_t row_bytes = static_cast<size_t>(ref.dim(1)) * sizeof(float);
    EXPECT_EQ(std::memcmp(out.row(0), ref.data(), row_bytes), 0);
    EXPECT_EQ(std::memcmp(out.row(1), ref_dec.data(), row_bytes), 0);

    KVCache dense_mid = model.make_cache();
    (void)model.forward(
        std::span<const TokenId>(tokens.data(), static_cast<size_t>(split)),
        std::span<const int>(pos.data(), static_cast<size_t>(split)),
        dense_mid);
    expect_rows(mid, dense_mid);
    expect_rows(fin, dense);
    expect_rows(dec, dense_dec);

    // A step in which no sequence asks for logits returns none.
    KVCache lone(n_layers, kv_dim);
    Model::BatchSeq chunk{
        std::span<const TokenId>(tokens.data(), static_cast<size_t>(split)),
        std::span<const int>(pos.data(), static_cast<size_t>(split)), &lone,
        Model::LogitRows::kNone};
    EXPECT_TRUE(model.forward_batch({&chunk, 1}).empty());
    expect_rows(lone, dense_mid);
  }

  // A masked sequence (forward_blocked's mask: two blocks, then global
  // rows that do not see a hidden row of the second block) stepped with
  // unmasked ones: its logits and K/V equal its solo forward_blocked, and
  // theirs their solo forwards (one of them at far positions). The
  // full-length step runs the per-row schedule in its uncut layers; the
  // 5-row one, under 8 query rows in every layer, only the per-KV-head
  // schedule.
  for (const int len : {n, 5}) {
    SCOPED_TRACE("masked length " + std::to_string(len));
    const size_t ulen = static_cast<size_t>(len);
    const std::span<const TokenId> masked_tokens(tokens.data(), ulen);
    const std::span<const int> masked_pos(pos.data(), ulen);
    std::vector<int> blocks(ulen);
    for (int i = 0; i < len; ++i) {
      blocks[static_cast<size_t>(i)] = i < len / 3       ? 1
                                       : i < 2 * len / 3 ? 2
                                                         : Model::kGlobalBlock;
    }
    const auto hidden = std::make_unique<bool[]>(ulen);
    hidden[static_cast<size_t>(len / 3 + 1)] = true;
    const std::span<const bool> hidden_span(hidden.get(), ulen);
    KVCache solo = model.make_cache();
    const Tensor want =
        model.forward_blocked(masked_tokens, masked_pos, blocks, solo,
                              hidden_span);

    const int n2 = n / 2;
    const std::span<const TokenId> head(tokens.data(),
                                        static_cast<size_t>(n2));
    const std::span<const int> head_pos(pos.data(), static_cast<size_t>(n2));
    KVCache dense_dec = model.make_cache();
    (void)model.forward(head, head_pos, dense_dec);
    KVCache dec = model.make_cache();
    (void)model.forward(head, head_pos, dec);
    const Tensor ref_dec = model.forward(
        std::span<const TokenId>(tokens.data() + n2, 1),
        std::span<const int>(pos.data() + n2, 1), dense_dec);
    // A short prompt at far positions: ALiBi distances are per sequence.
    const int far_pos[3] = {100, 101, 102};
    KVCache dense_pre = model.make_cache();
    const Tensor ref_pre = model.forward(
        std::span<const TokenId>(tokens.data(), 3), far_pos, dense_pre);

    KVCache masked(n_layers, kv_dim);
    KVCache pre(n_layers, kv_dim);
    Model::BatchSeq step[3] = {
        {std::span<const TokenId>(tokens.data() + n2, 1),
         std::span<const int>(pos.data() + n2, 1), &dec},
        {masked_tokens, masked_pos, &masked, Model::LogitRows::kLast, blocks,
         hidden_span},
        {std::span<const TokenId>(tokens.data(), 3), far_pos, &pre}};
    const Tensor out = model.forward_batch(step);
    ASSERT_EQ(out.dim(0), 3);
    const size_t row_bytes = static_cast<size_t>(want.dim(1)) * sizeof(float);
    EXPECT_EQ(std::memcmp(out.row(0), ref_dec.data(), row_bytes), 0);
    EXPECT_EQ(std::memcmp(out.row(1), want.data(), row_bytes), 0);
    EXPECT_EQ(std::memcmp(out.row(2), ref_pre.data(), row_bytes), 0);
    expect_rows(masked, solo);
    expect_rows(dec, dense_dec);
    expect_rows(pre, dense_pre);
  }
}

TEST_F(BatchServeTest, ForwardBatchMatchesForwardBitwise) {
  const auto tokens = workload_.tokenizer().encode(
      "w00 w01 q05 a10 a11 . w02 w03 q06 a12 a13 . w04");
  {
    SCOPED_TRACE("induction");
    expect_forward_batch_matches_forward(model_, tokens);
  }
  // Random weights: RoPE with GQA, ALiBi, RoPE with MQA and a parallel
  // block, learned positions.
  const int vocab = workload_.vocab().size();
  for (const ModelConfig& config : {ModelConfig::llama_tiny(vocab, 256),
                                    ModelConfig::mpt_tiny(vocab, 256),
                                    ModelConfig::falcon_tiny(vocab, 256),
                                    ModelConfig::gpt2_tiny(vocab, 256)}) {
    SCOPED_TRACE(config.name);
    expect_forward_batch_matches_forward(Model::random(config, 17), tokens);
  }
}

// ---------------------------------------------------------------------------
// Batched serving == sequential serving, bitwise

TEST_F(BatchServeTest, BatchedMatchesSequentialBitwise) {
  constexpr int kRequests = 12;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    options.push_back(ask_options(workload_));
  }
  const auto expected = reference_tokens(prompts, options);

  for (int max_batch : {1, 2, 4, 8}) {
    ServerConfig cfg;
    cfg.n_workers = 1;
    cfg.batch.max_batch = max_batch;
    cfg.schemas = {kSchema};
    Server server(model_, workload_.tokenizer(), cfg);
    for (int i = 0; i < kRequests; ++i) {
      server.submit(prompts[static_cast<size_t>(i)],
                    options[static_cast<size_t>(i)]);
    }
    const auto responses = server.drain();

    ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const ServerResponse& r = responses[static_cast<size_t>(i)];
      EXPECT_EQ(r.status, ServeStatus::kOk)
          << "batch " << max_batch << " id " << r.id << ": " << r.detail;
      EXPECT_EQ(r.result.tokens, expected[static_cast<size_t>(i)])
          << "batch " << max_batch << " id " << r.id;
      check_status_invariants(r);
    }

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
    EXPECT_GT(stats.batch_iterations, 0u);
    EXPECT_GT(stats.batch_tokens, 0u);
    check_accounting(stats);
  }
}

TEST_F(BatchServeTest, Q8BatchedMatchesSequentialQ8Bitwise) {
  // Quantized modules: borrowed rows stay int8 in the store and decode
  // tails stay fp32. Tokens must be bitwise-identical to a
  // sequential q8 engine, and — the retrieval gate — identical to the fp32
  // sequential reference (induction retrieval survives Q8_0).
  constexpr int kRequests = 12;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    options.push_back(ask_options(workload_));
  }
  const auto fp32_expected = reference_tokens(prompts, options);

  EngineConfig q8_cfg;
  q8_cfg.precision = StorePrecision::kQ8;
  PromptCacheEngine sequential(model_, workload_.tokenizer(), q8_cfg);
  sequential.load_schema(kSchema);
  std::vector<std::vector<TokenId>> q8_expected;
  for (int i = 0; i < kRequests; ++i) {
    q8_expected.push_back(
        sequential.serve(prompts[static_cast<size_t>(i)],
                         options[static_cast<size_t>(i)]).tokens);
  }

  for (int max_batch : {1, 4}) {
    ServerConfig cfg;
    cfg.n_workers = 1;
    cfg.batch.max_batch = max_batch;
    cfg.engine.precision = StorePrecision::kQ8;
    cfg.schemas = {kSchema};
    Server server(model_, workload_.tokenizer(), cfg);
    for (int i = 0; i < kRequests; ++i) {
      server.submit(prompts[static_cast<size_t>(i)],
                    options[static_cast<size_t>(i)]);
    }
    const auto responses = server.drain();
    ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const ServerResponse& r = responses[static_cast<size_t>(i)];
      EXPECT_EQ(r.status, ServeStatus::kOk)
          << "batch " << max_batch << " id " << r.id << ": " << r.detail;
      EXPECT_EQ(r.result.tokens, q8_expected[static_cast<size_t>(i)])
          << "batch " << max_batch << " id " << r.id;
      EXPECT_EQ(r.result.tokens, fp32_expected[static_cast<size_t>(i)])
          << "q8 retrieval must stay exact; batch " << max_batch;
    }
  }
}

TEST_F(BatchServeTest, Q4BatchedMatchesSequentialQ4Bitwise) {
  // Sub-byte modules: borrowed rows stay packed Q4_0 nibbles in the store
  // and decode tails stay fp32. Tokens must be bitwise-
  // identical to a sequential q4 engine, and — the retrieval gate —
  // identical to the fp32 sequential reference (induction retrieval
  // survives Q4_0).
  constexpr int kRequests = 12;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    options.push_back(ask_options(workload_));
  }
  const auto fp32_expected = reference_tokens(prompts, options);

  EngineConfig q4_cfg;
  q4_cfg.precision = StorePrecision::kQ4;
  PromptCacheEngine sequential(model_, workload_.tokenizer(), q4_cfg);
  sequential.load_schema(kSchema);
  std::vector<std::vector<TokenId>> q4_expected;
  for (int i = 0; i < kRequests; ++i) {
    q4_expected.push_back(
        sequential.serve(prompts[static_cast<size_t>(i)],
                         options[static_cast<size_t>(i)]).tokens);
  }

  for (int max_batch : {1, 4}) {
    ServerConfig cfg;
    cfg.n_workers = 1;
    cfg.batch.max_batch = max_batch;
    cfg.engine.precision = StorePrecision::kQ4;
    cfg.schemas = {kSchema};
    Server server(model_, workload_.tokenizer(), cfg);
    for (int i = 0; i < kRequests; ++i) {
      server.submit(prompts[static_cast<size_t>(i)],
                    options[static_cast<size_t>(i)]);
    }
    const auto responses = server.drain();
    ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const ServerResponse& r = responses[static_cast<size_t>(i)];
      EXPECT_EQ(r.status, ServeStatus::kOk)
          << "batch " << max_batch << " id " << r.id << ": " << r.detail;
      EXPECT_EQ(r.result.tokens, q4_expected[static_cast<size_t>(i)])
          << "batch " << max_batch << " id " << r.id;
      EXPECT_EQ(r.result.tokens, fp32_expected[static_cast<size_t>(i)])
          << "q4 retrieval must stay exact; batch " << max_batch;
    }
  }
}

TEST_F(BatchServeTest, BatchedSamplingMatchesSequentialBitwise) {
  // Seeded stochastic decoding: each request's Decoder must draw from its
  // Rng exactly as serve()'s does, whatever else is in the batch.
  constexpr int kRequests = 8;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    GenerateOptions o = ask_options(workload_);
    o.temperature = 0.8f;
    o.top_k = 3;
    o.seed = 1000 + static_cast<uint64_t>(i);
    options.push_back(o);
  }
  const auto expected = reference_tokens(prompts, options);

  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.batch.max_batch = 4;
  cfg.schemas = {kSchema};
  Server server(model_, workload_.tokenizer(), cfg);
  for (int i = 0; i < kRequests; ++i) {
    server.submit(prompts[static_cast<size_t>(i)],
                  options[static_cast<size_t>(i)]);
  }
  const auto responses = server.drain();

  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(responses[static_cast<size_t>(i)].status, ServeStatus::kOk);
    EXPECT_EQ(responses[static_cast<size_t>(i)].result.tokens,
              expected[static_cast<size_t>(i)])
        << "id " << i;
  }
}

TEST_F(BatchServeTest, BatchedSharedStoreMatchesSequential) {
  constexpr int kRequests = 8;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    options.push_back(ask_options(workload_));
  }
  const auto expected = reference_tokens(prompts, options);

  SharedModuleStore store(/*device=*/0, /*host=*/0);
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.batch.max_batch = 4;
  cfg.schemas = {kSchema};
  Server server(model_, workload_.tokenizer(), store, cfg);
  for (int i = 0; i < kRequests; ++i) {
    server.submit(prompts[static_cast<size_t>(i)],
                  options[static_cast<size_t>(i)]);
  }
  const auto responses = server.drain();

  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(responses[static_cast<size_t>(i)].result.tokens,
              expected[static_cast<size_t>(i)])
        << "id " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
  check_accounting(stats);
}

TEST_F(BatchServeTest, LanesAdmitLeastLoadedFirst) {
  // Two lanes of four. A 200 ms simulated link latency holds every
  // admitted request in its transfer phase, so requests submitted together
  // are all in flight at once and no slot frees while they are admitted.
  constexpr int kRequests = 8;
  constexpr double kLatencyMs = 200;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    options.push_back(ask_options(workload_));
  }
  const auto expected = reference_tokens(prompts, options);

  ServerConfig cfg;
  cfg.n_workers = 2;
  cfg.batch.max_batch = 4;
  cfg.schemas = {kSchema};
  cfg.link.latency_s = kLatencyMs / 1e3;
  Server server(model_, workload_.tokenizer(), cfg);
  const auto serve = [&](int n) {
    for (int i = 0; i < n; ++i) {
      server.submit(prompts[static_cast<size_t>(i)],
                    options[static_cast<size_t>(i)]);
    }
    const auto responses = server.drain();
    EXPECT_EQ(responses.size(), static_cast<size_t>(n));
    std::vector<int> per_lane(2, 0);
    for (size_t i = 0; i < responses.size(); ++i) {
      const ServerResponse& r = responses[i];
      EXPECT_EQ(r.status, ServeStatus::kOk) << r.detail;
      EXPECT_EQ(r.result.tokens, expected[i]) << "id " << r.id;
      // Admitted before any transfer ended: every request was in flight
      // together, none waited for a slot.
      EXPECT_LT(r.queue_ms, kLatencyMs) << "id " << r.id;
      EXPECT_TRUE(r.worker == 0 || r.worker == 1) << r.worker;
      if (r.worker == 0 || r.worker == 1) ++per_lane[r.worker];
    }
    return per_lane;
  };

  // Two concurrent requests: one per lane, not both batched on one.
  EXPECT_EQ(serve(2), (std::vector<int>{1, 1}));
  // Eight: both lanes full.
  EXPECT_EQ(serve(kRequests), (std::vector<int>{4, 4}));

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.n_workers, 2);
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(2 + kRequests));
  EXPECT_GT(stats.batch_iterations, 0u);
  EXPECT_EQ(stats.kv_live_bytes, 0u);
  check_accounting(stats);
}

// ---------------------------------------------------------------------------
// §3.4 shared modules: footprint accounting

// Eight 20-token modules, each with its own fact.
std::string footprint_schema() {
  std::string s = "<schema name=\"fp\">";
  for (int i = 0; i < 8; ++i) {
    s += "<module name=\"m" + std::to_string(i) + "\">";
    s += "w00 w01 w02 w03 w04 w05 w06 w07 ";
    s += "q1" + std::to_string(i) + " ";
    s += "a" + std::to_string(20 + 2 * i) + " a" + std::to_string(21 + 2 * i);
    s += " . w08 w09 w10 w11 w12 w13 w14 w15";
    s += "</module>";
  }
  s += "</schema>";
  return s;
}

TEST_F(BatchServeTest, SharedModulesReduceKvFootprint) {
  const std::string schema = footprint_schema();
  constexpr int kRequests = 8;
  const auto prompt_for = [](int m) {
    return "<prompt schema=\"fp\"><m" + std::to_string(m) +
           "/> question: q1" + std::to_string(m) + "</prompt>";
  };

  auto run = [&](bool shared_traffic, size_t* module_bytes) {
    SharedModuleStore store(/*device=*/0, /*host=*/0);
    ServerConfig cfg;
    cfg.n_workers = 1;
    cfg.engine.zero_copy = true;
    cfg.batch.max_batch = kRequests;
    cfg.engine.precision = StorePrecision::kFp32;
    cfg.schemas = {schema};
    Server server(model_, workload_.tokenizer(), store, cfg);
    for (int i = 0; i < kRequests; ++i) {
      // Shared traffic: every request imports the same module. Private
      // traffic: each request imports its own.
      server.submit(prompt_for(shared_traffic ? 0 : i),
                    ask_options(workload_));
    }
    const auto responses = server.drain();
    for (const auto& r : responses) {
      EXPECT_EQ(r.status, ServeStatus::kOk) << r.detail;
      EXPECT_FALSE(r.result.tokens.empty());
      // Every request borrowed its module's rows in place; none moved.
      EXPECT_EQ(r.result.ttft.bytes_from_host + r.result.ttft.bytes_from_device,
                0u);
      EXPECT_GT(r.result.ttft.bytes_zero_copy, 0u);
    }
    *module_bytes = store.resident_bytes() / 8;  // one fp32 module
    return server.stats();
  };

  size_t module_bytes = 0;
  const ServerStats shared = run(/*shared_traffic=*/true, &module_bytes);
  const ServerStats priv = run(/*shared_traffic=*/false, &module_bytes);

  // Each request holds one owned tail: its uncached question and kickoff,
  // its generation budget and the engine's slack (every prompt's question
  // has the same length). The batch's footprint is those tails alone,
  // whichever modules the traffic imports — eight requests sharing one
  // module hold no copy of it at all, and the peak stays below one private
  // module copy per request.
  EngineConfig lazy;
  lazy.eager_encode = false;
  PromptCacheEngine binder(model_, workload_.tokenizer(), lazy);
  binder.load_schema(schema);
  const int question_tokens = binder.bind(prompt_for(0)).uncached_token_count();
  const size_t tail_bytes =
      model_.kv_bytes_per_token() *
      static_cast<size_t>(question_tokens + 1 +
                          ask_options(workload_).max_new_tokens +
                          PromptCacheEngine::kTailSlack);
  for (const ServerStats* s : {&shared, &priv}) {
    EXPECT_GT(s->kv_peak_bytes, 0u);
    EXPECT_EQ(s->kv_peak_bytes % tail_bytes, 0u);
    EXPECT_LE(s->kv_peak_bytes, kRequests * tail_bytes);
    EXPECT_LT(s->kv_peak_bytes, kRequests * module_bytes);
    EXPECT_EQ(s->kv_live_bytes, 0u);
    check_accounting(*s);
  }
}

// ---------------------------------------------------------------------------
// Batched == zero-copy serving on random weights

// Random weights produce the near-tied logits the induction model never
// has, so any arithmetic difference between two serving paths flips a token
// here. Copy, zero-copy and batched serving read the same module bytes
// through the same kernels (copied and borrowed rows differ only in where
// they live), so they must agree bitwise for every model family at fp32,
// q8 and q4 alike. Under ThreadSanitizer the test serves every third
// prompt (still every import count, 2 to 4) through every family, format
// and serving cell; the full 24 would dominate the sanitizer legs.
TEST_F(BatchServeTest, BatchedMatchesZeroCopyOnRandomWeights) {
  const Vocab& vocab = Vocab::basic_english();
  const Tokenizer tokenizer(vocab);
  // Lower-case pieces of the vocabulary: one token per word.
  std::vector<std::string> word_pool;
  for (TokenId id = vocab.first_piece_id(); id < vocab.size(); ++id) {
    const std::string& p = vocab.piece(id);
    if (p.size() >= 2 && std::all_of(p.begin(), p.end(), [](char c) {
          return c >= 'a' && c <= 'z';
        })) {
      word_pool.push_back(p);
    }
  }
  Rng rng(2024);
  const auto words = [&](int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += (i > 0 ? " " : "") + rng.pick(word_pool);
    return out;
  };

  constexpr int kModules = 8;
  constexpr int kModuleTokens = 32;
  constexpr int kRequests = 24;
  std::string schema = "<schema name=\"rw\">";
  for (int m = 0; m < kModules; ++m) {
    schema += "<module name=\"m" + std::to_string(m) + "\">" +
              words(kModuleTokens) + "</module>";
  }
  schema += "</schema>";
  std::vector<std::string> prompts;
  std::set<int> kept_imports;
  for (int p = 0; p < kRequests; ++p) {
    const int imports = static_cast<int>(rng.uniform_int(2, 4));
    std::vector<int> picked;
    while (static_cast<int>(picked.size()) < imports) {
      const int m = static_cast<int>(rng.next_below(kModules));
      if (std::find(picked.begin(), picked.end(), m) == picked.end()) {
        picked.push_back(m);
      }
    }
    std::sort(picked.begin(), picked.end());
    pml::PromptBuilder prompt("rw");
    for (int m : picked) prompt.import("m" + std::to_string(m));
    prompt.text(words(6));
    if (!kThreadSanitizer || p % 3 == 0) {
      prompts.push_back(prompt.str());
      kept_imports.insert(imports);
    }
  }
  ASSERT_EQ(kept_imports, (std::set<int>{2, 3, 4}));
  GenerateOptions opts;
  opts.max_new_tokens = 8;
  opts.stop_tokens.clear();  // fixed-length output

  for (const ModelConfig& config : {ModelConfig::llama_tiny(vocab.size(), 1024),
                                    ModelConfig::mpt_tiny(vocab.size(), 1024),
                                    ModelConfig::falcon_tiny(vocab.size(), 1024),
                                    ModelConfig::gpt2_tiny(vocab.size(), 1024)}) {
    const Model model = Model::random(config, 29);
    for (StorePrecision precision :
         {StorePrecision::kFp32, StorePrecision::kQ8, StorePrecision::kQ4}) {
      SCOPED_TRACE(config.name + " precision " +
                   std::to_string(static_cast<int>(precision)));
      EngineConfig zc;
      zc.precision = precision;
      zc.zero_copy = true;
      PromptCacheEngine reference(model, tokenizer, zc);
      reference.load_schema(schema);
      std::vector<std::vector<TokenId>> expected;
      for (const std::string& p : prompts) {
        expected.push_back(reference.serve(p, opts).tokens);
        ASSERT_EQ(expected.back().size(), 8u);
      }

      EngineConfig copy = zc;
      copy.zero_copy = false;
      PromptCacheEngine copier(model, tokenizer, copy);
      copier.load_schema(schema);
      for (size_t i = 0; i < prompts.size(); ++i) {
        EXPECT_EQ(copier.serve(prompts[i], opts).tokens, expected[i])
            << "copy engine, prompt " << i;
      }

      for (const bool zero_copy : {false, true}) {
        for (int max_batch : {1, 4}) {
          ServerConfig cfg;
          cfg.n_workers = 1;
          cfg.batch.max_batch = max_batch;
          cfg.engine.precision = precision;
          cfg.engine.zero_copy = zero_copy;
          cfg.schemas = {schema};
          Server server(model, tokenizer, cfg);
          for (const std::string& p : prompts) server.submit(p, opts);
          const auto responses = server.drain();
          ASSERT_EQ(responses.size(), prompts.size());
          for (size_t i = 0; i < prompts.size(); ++i) {
            EXPECT_EQ(responses[i].status, ServeStatus::kOk)
                << responses[i].detail;
            EXPECT_EQ(responses[i].result.tokens, expected[i])
                << "zero_copy " << zero_copy << " batch " << max_batch
                << " prompt " << i;
          }
        }
      }
    }
  }
}

// An argument that is given but empty adds no uncached token, so the
// prompt computes the kickoff, exactly like the same import without the
// argument, and generation starts one position after it on every path:
// serve(), a Server lane and (at fp32, where it is the reference) full
// prefill. Random weights, so a one-position shift flips tokens.
TEST_F(BatchServeTest, EmptyArgumentServesLikeNoArgument) {
  const Vocab& vocab = Vocab::basic_english();
  const Tokenizer tokenizer(vocab);
  const std::string schema =
      R"(<schema name="ea"><module name="m">the cat sat on the )"
      R"(<param name="x" len="4"/> and the dog ran home</module></schema>)";
  const std::string bare = R"(<prompt schema="ea"><m/></prompt>)";
  const std::string empty_arg = R"(<prompt schema="ea"><m x=""/></prompt>)";
  GenerateOptions opts;
  opts.max_new_tokens = 8;
  opts.stop_tokens.clear();  // fixed-length output

  for (const ModelConfig& config : {ModelConfig::llama_tiny(vocab.size(), 1024),
                                    ModelConfig::mpt_tiny(vocab.size(), 1024),
                                    ModelConfig::falcon_tiny(vocab.size(), 1024),
                                    ModelConfig::gpt2_tiny(vocab.size(), 1024)}) {
    const Model model = Model::random(config, 29);
    for (StorePrecision precision :
         {StorePrecision::kFp32, StorePrecision::kQ8, StorePrecision::kQ4}) {
      SCOPED_TRACE(config.name + " precision " +
                   std::to_string(static_cast<int>(precision)));
      EngineConfig ec;
      ec.precision = precision;
      PromptCacheEngine engine(model, tokenizer, ec);
      engine.load_schema(schema);
      const std::vector<TokenId> expected = engine.serve(bare, opts).tokens;
      ASSERT_EQ(expected.size(), 8u);
      EXPECT_EQ(engine.serve(empty_arg, opts).tokens, expected);
      if (precision == StorePrecision::kFp32) {
        EXPECT_EQ(engine.serve_full_prefill(empty_arg, opts).tokens, expected);
        EXPECT_EQ(engine.serve_full_prefill(bare, opts).tokens, expected);
      }

      ServerConfig cfg;
      cfg.n_workers = 1;
      cfg.engine.precision = precision;
      cfg.schemas = {schema};
      Server server(model, tokenizer, cfg);
      server.submit(empty_arg, opts);
      server.submit(bare, opts);
      for (const ServerResponse& r : server.drain()) {
        EXPECT_EQ(r.status, ServeStatus::kOk) << r.detail;
        EXPECT_EQ(r.result.tokens, expected) << "lane, id " << r.id;
      }
    }
  }
}

// Keys of every module resident in `store` (collected first: for_each's
// callback must not call back into the store).
std::vector<std::string> resident_keys(const SharedModuleStore& store) {
  std::vector<std::string> keys;
  store.for_each([&](const std::string& key, const EncodedModule&,
                     ModuleLocation) { keys.push_back(key); });
  return keys;
}

TEST_F(BatchServeTest, DrainedBatchHoldsNoModuleBytesOrPins) {
  // Eight distinct modules, two per request: once the batch drains, no
  // request is in flight, so nothing may stay live in the batch's KV
  // accounting and no module may stay pinned in the store.
  const std::string schema = footprint_schema();
  SharedModuleStore store(/*device=*/0, /*host=*/0);
  ServerConfig cfg;
  cfg.engine.zero_copy = true;
  cfg.batch.max_batch = 4;
  cfg.schemas = {schema};
  Server server(model_, workload_.tokenizer(), store, cfg);
  constexpr int kRequests = 16;
  for (int i = 0; i < kRequests; ++i) {
    const int a = i % 8;
    const int b = (i + 3) % 8;
    const std::string prompt =
        "<prompt schema=\"fp\"><m" + std::to_string(std::min(a, b)) +
        "/><m" + std::to_string(std::max(a, b)) + "/> question: q1" +
        std::to_string(a) + "</prompt>";
    server.submit(prompt, ask_options(workload_));
  }
  const auto responses = server.drain();
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (const auto& r : responses) {
    EXPECT_EQ(r.status, ServeStatus::kOk) << r.detail;
  }

  const ServerStats stats = server.stats();
  EXPECT_GT(stats.kv_peak_bytes, 0u);  // requests held KV while in flight
  EXPECT_EQ(stats.kv_live_bytes, 0u);
  const std::vector<std::string> keys = resident_keys(store);
  EXPECT_EQ(keys.size(), 8u);
  for (const std::string& key : keys) {
    EXPECT_EQ(store.pin_count(key), 0) << key;
  }
}

// ---------------------------------------------------------------------------
// Deadlines in batch mode

TEST_F(BatchServeTest, BatchDeadlineExpiryWhileQueuedSheds) {
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.batch.max_batch = 1;  // the second request must wait its turn
  cfg.schemas = {kSchema};
  Server server(model_, workload_.tokenizer(), cfg);

  GenerateOptions slow = ask_options(workload_);
  slow.max_new_tokens = 64;
  slow.stop_tokens.clear();
  server.submit(kPrompts[0], slow);
  server.submit(kPrompts[1], ask_options(workload_), /*deadline_ms=*/0.05);
  const auto responses = server.drain();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk) << responses[0].detail;
  EXPECT_EQ(responses[1].status, ServeStatus::kShed) << responses[1].detail;
  EXPECT_NE(responses[1].detail.find("shed at dequeue"), std::string::npos)
      << responses[1].detail;
  check_status_invariants(responses[0]);
  check_status_invariants(responses[1]);
  check_accounting(server.stats());
}

TEST_F(BatchServeTest, BatchDeadlineExpiryMidServiceTimesOut) {
  ServerConfig cfg;
  cfg.batch.max_batch = 2;
  cfg.schemas = {kSchema};
  // A 50 ms simulated host-link transfer guarantees the 10 ms deadline
  // expires after admission but before the first prefill chunk — the
  // machine-speed-independent way to hit the mid-service cancel path.
  cfg.link.latency_s = 0.05;
  Server server(model_, workload_.tokenizer(), cfg);

  server.submit(kPrompts[0], ask_options(workload_), /*deadline_ms=*/10);
  const auto responses = server.drain();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kTimeout)
      << responses[0].detail;
  check_status_invariants(responses[0]);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  check_accounting(stats);
}

// ---------------------------------------------------------------------------
// Submit-time shedding counts in-service requests (the bugfix)

TEST_F(BatchServeTest, SubmitShedCountsInServiceRequests) {
  // One lane serving one request at a time, 100 ms simulated link stall
  // per request.
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.schemas = {kSchema};
  cfg.link.latency_s = 0.1;
  Server server(model_, workload_.tokenizer(), cfg);
  const GenerateOptions opts = ask_options(workload_);

  // Prime the service-time EWMA (~100 ms).
  server.submit(kPrompts[0], opts);
  (void)server.drain();

  // Occupy the lane, give it time to dequeue — the queue is now EMPTY
  // but one request is in service. The old estimate looked only at
  // queue_.size(), predicted zero wait, and admitted the doomed requests.
  server.submit(kPrompts[1], opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::vector<uint64_t> doomed;
  for (int i = 0; i < 8; ++i) {
    doomed.push_back(
        server.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts], opts,
                      /*deadline_ms=*/5));
  }
  // drain() must return even though everything behind the blocker shed.
  const auto responses = server.drain();

  ASSERT_EQ(responses.size(), 9u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk) << responses[0].detail;
  for (size_t i = 1; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].status, ServeStatus::kShed)
        << "id " << responses[i].id << ": " << responses[i].detail;
    // Shed at submit, not at dequeue: never handed to a lane.
    EXPECT_EQ(responses[i].worker, -1) << responses[i].detail;
    EXPECT_NE(responses[i].detail.find("shed at submit"), std::string::npos)
        << responses[i].detail;
    check_status_invariants(responses[i]);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 8u);
  EXPECT_EQ(stats.completed, 2u);  // including the EWMA-priming request
  check_accounting(stats);
}

// ---------------------------------------------------------------------------
// Shutdown race

TEST_F(BatchServeTest, SubmitRacingStopRecordsEverySubmittedId) {
  ServerConfig cfg;
  cfg.batch.max_batch = 4;
  cfg.queue_capacity = 4;
  cfg.schemas = {kSchema};
  Server server(model_, workload_.tokenizer(), cfg);
  const GenerateOptions opts = ask_options(workload_);

  std::atomic<uint64_t> accepted{0};
  std::thread submitter([&] {
    for (int i = 0; i < 200; ++i) {
      try {
        server.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts], opts);
        accepted.fetch_add(1);
      } catch (const Error&) {
        return;  // stopped while (or before) blocking on the full queue
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.stop();
  submitter.join();

  // Every accepted request was recorded with exactly one status.
  const auto responses = server.drain();
  EXPECT_EQ(responses.size(), accepted.load());
  for (const auto& r : responses) {
    EXPECT_TRUE(is_served(r.status)) << r.detail;
    EXPECT_FALSE(r.result.tokens.empty());
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, accepted.load());
  check_accounting(stats);
}

// ---------------------------------------------------------------------------
// A request that cannot be served fails alone

std::string filler_schema(int n_tokens) {
  std::string pml = R"(<schema name="full"><module name="m">)";
  for (int i = 0; i < n_tokens; ++i) pml += " w00";
  return pml + "</module></schema>";
}

TEST_F(BatchServeTest, PromptPastMaxPosFailsAloneAndLanesKeepServing) {
  // Two prompts that bind but reach max_pos (256 here): free text that runs
  // past it, and a fully cached prompt on a schema filling the position
  // space, whose kickoff token lands at max_pos. serve() throws on both;
  // a lane must fail just that request and keep serving the rest.
  PromptCacheEngine reference(model_, workload_.tokenizer());
  reference.load_schema(kSchema);
  const int max_pos = model_.config().max_pos;
  const int overhead =
      reference.load_schema(filler_schema(8)).total_positions - 8;
  const std::string full = filler_schema(max_pos - overhead);
  ASSERT_EQ(reference.load_schema(full).total_positions, max_pos);

  std::string long_text;
  for (int i = 0; i < max_pos; ++i) long_text += " w00";
  const std::string too_long =
      R"(<prompt schema="bs"><d1/> question:)" + long_text + "</prompt>";
  const std::string kickoff_at_max_pos =
      R"(<prompt schema="full"><m/></prompt>)";
  const GenerateOptions opts = ask_options(workload_);
  EXPECT_THROW(reference.serve(too_long, opts), Error);
  EXPECT_THROW(reference.serve(kickoff_at_max_pos, opts), Error);

  std::vector<std::string> prompts(kPrompts, kPrompts + kNumPrompts);
  const size_t bad_text = 2;
  const size_t bad_kickoff = 5;
  prompts.insert(prompts.begin() + bad_text, too_long);
  prompts.insert(prompts.begin() + bad_kickoff, kickoff_at_max_pos);
  std::vector<std::vector<TokenId>> expected;
  for (const std::string& p : prompts) {
    const bool bad = p == too_long || p == kickoff_at_max_pos;
    expected.push_back(bad ? std::vector<TokenId>{}
                           : reference.serve(p, opts).tokens);
  }

  for (int max_batch : {1, 4}) {  // the default, and batched with the others
    ServerConfig cfg;
    cfg.batch.max_batch = max_batch;
    cfg.schemas = {kSchema, full};
    Server server(model_, workload_.tokenizer(), cfg);
    for (const std::string& p : prompts) server.submit(p, opts);
    const auto responses = server.drain();

    ASSERT_EQ(responses.size(), prompts.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      const ServerResponse& r = responses[i];
      if (i == bad_text || i == bad_kickoff) {
        EXPECT_EQ(r.status, ServeStatus::kFailed)
            << "batch " << max_batch << " id " << r.id << ": " << r.detail;
        EXPECT_NE(r.detail.find("max_pos"), std::string::npos) << r.detail;
        EXPECT_TRUE(r.result.tokens.empty());
      } else {
        EXPECT_EQ(r.status, ServeStatus::kOk)
            << "batch " << max_batch << " id " << r.id << ": " << r.detail;
        EXPECT_EQ(r.result.tokens, expected[i])
            << "batch " << max_batch << " id " << r.id;
      }
    }
    // The lanes are still serving.
    server.submit(kPrompts[0], opts);
    const auto after = server.drain();
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].status, ServeStatus::kOk) << after[0].detail;
    EXPECT_EQ(after[0].result.tokens, expected[0]);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.failed, 2u);
    EXPECT_EQ(stats.completed, prompts.size() - 2 + 1);  // and the one after
    check_accounting(stats);
  }
}

// A lane decodes through the same Decoder as serve(), so every way a decode
// ends matches the sequential engine: a stop sequence (trimmed), no token
// budget at all, the position budget, and seeded top-k sampling.
TEST_F(BatchServeTest, LaneDecodeRulesMatchSequentialServe) {
  const int max_pos = model_.config().max_pos;
  PromptCacheEngine reference(model_, workload_.tokenizer());
  reference.load_schema(kSchema);
  // A fully cached prompt whose kickoff sits at max_pos - 3: generation
  // starts at max_pos - 2, so its third token has no position left.
  const int overhead =
      reference.load_schema(filler_schema(8)).total_positions - 8;
  const std::string near_full = filler_schema(max_pos - 3 - overhead);
  ASSERT_EQ(reference.load_schema(near_full).total_positions, max_pos - 3);

  GenerateOptions plain;
  plain.max_new_tokens = 5;
  plain.stop_tokens.clear();
  const std::vector<TokenId> free_run =
      reference.serve(kPrompts[0], plain).tokens;
  ASSERT_EQ(free_run.size(), 5u);

  struct Case {
    std::string prompt;
    GenerateOptions options;
    FinishReason finish;
  };
  std::vector<Case> cases(4);
  cases[0] = {kPrompts[0], plain, FinishReason::kStopSequence};
  cases[0].options.stop_sequences = {{free_run[1], free_run[2]}};
  cases[1] = {kPrompts[1], plain, FinishReason::kLength};
  cases[1].options.max_new_tokens = 0;
  cases[2] = {R"(<prompt schema="full"><m/></prompt>)", plain,
              FinishReason::kPositionBudget};
  cases[2].options.max_new_tokens = 16;
  cases[3] = {kPrompts[2], plain, FinishReason::kLength};
  cases[3].options.temperature = 0.8f;
  cases[3].options.top_k = 3;
  cases[3].options.seed = 4242;

  std::vector<ServeResult> expected;
  for (const Case& c : cases) {
    expected.push_back(reference.serve(c.prompt, c.options));
    EXPECT_EQ(expected.back().finish_reason, c.finish) << c.prompt;
  }
  EXPECT_EQ(expected[0].tokens, std::vector<TokenId>{free_run[0]});
  EXPECT_TRUE(expected[1].tokens.empty());
  EXPECT_EQ(expected[2].tokens.size(), 3u);

  for (int max_batch : {1, 4}) {
    ServerConfig cfg;
    cfg.n_workers = 1;
    cfg.batch.max_batch = max_batch;
    cfg.schemas = {kSchema, near_full};
    Server server(model_, workload_.tokenizer(), cfg);
    for (const Case& c : cases) server.submit(c.prompt, c.options);
    const auto responses = server.drain();
    ASSERT_EQ(responses.size(), cases.size());
    for (size_t i = 0; i < cases.size(); ++i) {
      const ServerResponse& r = responses[i];
      EXPECT_EQ(r.status, ServeStatus::kOk)
          << "batch " << max_batch << " case " << i << ": " << r.detail;
      EXPECT_EQ(r.result.tokens, expected[i].tokens)
          << "batch " << max_batch << " case " << i;
      EXPECT_EQ(r.result.finish_reason, expected[i].finish_reason)
          << "batch " << max_batch << " case " << i;
    }
  }
}

TEST_F(BatchServeTest, UnloadableSchemaFailsServerConstruction) {
  // Every lane loads the schemas on its own thread; a schema that does not
  // parse, or does not fit max_pos, must throw from the constructor.
  for (const std::string& bad :
       {std::string(R"(<schema name="bad"><module name="m">w00</schema>)"),
        filler_schema(model_.config().max_pos + 1)}) {
    ServerConfig cfg;
    cfg.n_workers = 2;
    cfg.schemas = {kSchema, bad};
    EXPECT_THROW({ Server server(model_, workload_.tokenizer(), cfg); }, Error)
        << bad;
  }
}

// ---------------------------------------------------------------------------
// Chaos: availability 1.0 in batch mode

#if PC_FAULTS_ENABLED

TEST_F(BatchServeTest, BatchChaosKeepsFullAvailability) {
  constexpr int kRequests = 24;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    options.push_back(ask_options(workload_));
  }
  const auto expected = reference_tokens(prompts, options);

  const char* env = std::getenv("PC_FAULTS");
  const std::string spec =
      (env && *env)
          ? std::string(env)
          : "seed=1234,encode=0.3,link=0.25,evict=0.3,stall=0.15:5";
  FaultInjector::global().configure(spec);

  SharedModuleStore store(/*device=*/0, /*host=*/0);
  ServerConfig cfg;
  cfg.n_workers = 2;  // lanes race on one queue under faults
  cfg.engine.zero_copy = true;
  cfg.batch.max_batch = 4;
  cfg.schemas = {kSchema};
  cfg.engine.eager_encode = false;  // encode at serve time, under faults
  cfg.link.latency_s = 0.002;       // nonzero so link faults are polled
  {
    Server server(model_, workload_.tokenizer(), store, cfg);
    for (int i = 0; i < kRequests; ++i) {
      server.submit(prompts[static_cast<size_t>(i)],
                    options[static_cast<size_t>(i)]);
    }
    const auto responses = server.drain();
    FaultInjector::global().disable();

    ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const ServerResponse& r = responses[static_cast<size_t>(i)];
      EXPECT_TRUE(is_served(r.status))
          << "id " << r.id << " status " << to_string(r.status) << ": "
          << r.detail;
      // Faults may cost retries or degrade the path, never the tokens.
      EXPECT_EQ(r.result.tokens, expected[static_cast<size_t>(i)])
          << "id " << r.id << " status " << to_string(r.status);
      check_status_invariants(r);
    }

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_EQ(stats.failed, 0u);
    check_accounting(stats);
  }
  // Timeouts, retries and degrades released every borrow they took.
  for (const std::string& key : resident_keys(store)) {
    EXPECT_EQ(store.pin_count(key), 0) << key;
  }
}

#endif  // PC_FAULTS_ENABLED

}  // namespace
}  // namespace pc
