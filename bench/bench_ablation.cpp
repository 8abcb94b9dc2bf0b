// Micro-ablations (google-benchmark) for the design choices DESIGN.md calls
// out:
//   * buffered vs naive (PyTorch-style) KV concatenation — paper §4.2's
//     custom concat operator;
//   * fp32 vs fp16 module storage — the §5.5 memory/latency trade;
//   * borrowed module rows vs private copies for batched prompts — §3.4;
//   * module encode cost vs retrieve cost as module size grows — the
//     fundamental compute-once/copy-many asymmetry.
#include <benchmark/benchmark.h>

#include "core/engine.h"
#include "eval/workload.h"
#include "kv/kv_cache.h"
#include "model/model.h"

namespace {

using namespace pc;

constexpr int kLayers = 4;
constexpr int kKvDim = 96;

KVCache make_module_states(int tokens) {
  KVCache kv(kLayers, kKvDim);
  std::vector<int> pos(static_cast<size_t>(tokens));
  for (int i = 0; i < tokens; ++i) pos[static_cast<size_t>(i)] = i;
  kv.append_tokens(pos);
  return kv;
}

void BM_ConcatBuffered(benchmark::State& state) {
  const KVCache module = make_module_states(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    KVCache seq(kLayers, kKvDim, ConcatPolicy::kBuffered);
    seq.reserve(static_cast<int>(state.range(0)) * 8);
    for (int m = 0; m < 8; ++m) seq.append_copy(module);
    benchmark::DoNotOptimize(seq.k_row(0, 0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8 *
                          module.payload_bytes());
}
BENCHMARK(BM_ConcatBuffered)->Arg(128)->Arg(512);

void BM_ConcatNaive(benchmark::State& state) {
  const KVCache module = make_module_states(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    // PyTorch-style torch.cat: every append reallocates exact-fit.
    KVCache seq(kLayers, kKvDim, ConcatPolicy::kNaive);
    for (int m = 0; m < 8; ++m) seq.append_copy(module);
    benchmark::DoNotOptimize(seq.k_row(0, 0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8 *
                          module.payload_bytes());
}
BENCHMARK(BM_ConcatNaive)->Arg(128)->Arg(512);

// Engine-level retrieval with fp32 vs fp16 module storage.
struct RetrieveFixtureState {
  Tokenizer tokenizer{Vocab::basic_english()};
  Model model = Model::random(
      ModelConfig::llama_tiny(Vocab::basic_english().size(), 8192), 5);
};

RetrieveFixtureState& fixture() {
  static RetrieveFixtureState f;
  return f;
}

void run_retrieve(benchmark::State& state, StorePrecision precision) {
  auto& f = fixture();
  LatencyWorkload workload(3);
  const LatencySample sample = workload.make_sweep_sample(
      768, 4, "ret" + std::to_string(static_cast<int>(precision)));
  EngineConfig cfg;
  cfg.precision = precision;
  PromptCacheEngine engine(f.model, f.tokenizer, cfg);
  engine.load_schema(sample.schema_pml);
  const pml::PromptBinding binding = engine.bind(sample.prompt_pml);
  for (auto _ : state) {
    KVCache seq = f.model.make_cache();
    TtftBreakdown ttft;
    benchmark::DoNotOptimize(
        engine.assemble_and_prefill(binding, seq, &ttft));
  }
}

void BM_RetrieveFp32(benchmark::State& state) {
  run_retrieve(state, StorePrecision::kFp32);
}
void BM_RetrieveFp16(benchmark::State& state) {
  run_retrieve(state, StorePrecision::kFp16);
}
void BM_RetrieveQ8(benchmark::State& state) {
  run_retrieve(state, StorePrecision::kQ8);
}
BENCHMARK(BM_RetrieveFp32);
BENCHMARK(BM_RetrieveFp16);
BENCHMARK(BM_RetrieveQ8);

// Zero-copy vs memcpy assembly of the same prompt: borrowing module rows
// replaces the copy entirely (§6 shared-attention-states direction).
void BM_AssembleCopy(benchmark::State& state) {
  auto& f = fixture();
  LatencyWorkload workload(4);
  const LatencySample sample = workload.make_sweep_sample(1024, 4, "asmc");
  PromptCacheEngine engine(f.model, f.tokenizer);
  engine.load_schema(sample.schema_pml);
  const pml::PromptBinding binding = engine.bind(sample.prompt_pml);
  engine.ensure_encoded(binding);
  for (auto _ : state) {
    KVCache seq = f.model.make_cache();
    TtftBreakdown ttft;
    benchmark::DoNotOptimize(engine.assemble_and_prefill(binding, seq, &ttft));
  }
}
BENCHMARK(BM_AssembleCopy);

void BM_AssembleZeroCopy(benchmark::State& state) {
  auto& f = fixture();
  LatencyWorkload workload(4);
  const LatencySample sample = workload.make_sweep_sample(1024, 4, "asmz");
  PromptCacheEngine engine(f.model, f.tokenizer);
  engine.load_schema(sample.schema_pml);
  const pml::PromptBinding binding = engine.bind(sample.prompt_pml);
  engine.ensure_encoded(binding);
  const UncachedStream question =
      collect_uncached(binding, f.model.config().max_pos);
  for (auto _ : state) {
    TtftBreakdown ttft;
    SequenceKV kv = engine.assemble(binding, ModuleRows::kBorrow, 0, &ttft);
    benchmark::DoNotOptimize(
        f.model.forward(question.tokens, question.pos_ids, kv.cache));
  }
}
BENCHMARK(BM_AssembleZeroCopy);

// Decode-step cost over own rows vs borrowed module rows: reading rows
// through the row tables pays one pointer indirection per attended row.
void BM_DecodeStepContiguous(benchmark::State& state) {
  auto& f = fixture();
  const int ctx = 1024;
  std::vector<TokenId> toks(ctx, 300);
  std::vector<int> pos(ctx);
  for (int i = 0; i < ctx; ++i) pos[static_cast<size_t>(i)] = i;
  KVCache cache = f.model.make_cache();
  cache.reserve(ctx + 4);
  (void)f.model.forward(toks, pos, cache);
  const TokenId one = 300;
  int p = ctx;
  for (auto _ : state) {
    const int before = cache.size();
    benchmark::DoNotOptimize(
        f.model.forward({&one, 1}, {&p, 1}, cache));
    cache.truncate(before);
  }
}
BENCHMARK(BM_DecodeStepContiguous)->Unit(benchmark::kMillisecond);

void BM_DecodeStepBorrowed(benchmark::State& state) {
  auto& f = fixture();
  const int ctx = 1024;
  std::vector<TokenId> toks(ctx, 300);
  std::vector<int> pos(ctx);
  for (int i = 0; i < ctx; ++i) pos[static_cast<size_t>(i)] = i;
  KVCache encoded = f.model.make_cache();
  encoded.reserve(ctx);
  (void)f.model.forward(toks, pos, encoded);
  const TokenId one = 300;
  int p = ctx;
  for (auto _ : state) {
    KVCache cache = f.model.make_cache();
    cache.borrow_rows(encoded, 0, encoded.size());
    cache.reserve(4);
    benchmark::DoNotOptimize(f.model.forward({&one, 1}, {&p, 1}, cache));
  }
}
BENCHMARK(BM_DecodeStepBorrowed)->Unit(benchmark::kMillisecond);

// Batch assembly with borrowed module rows vs private copies (§3.4): 16
// requests over one 512-token module, each with 32 own rows.
// The counter reports the KV bytes the batch itself holds.
constexpr int kBatchRequests = 16;
constexpr int kBatchModuleTokens = 512;
constexpr int kBatchTailTokens = 32;

void BM_BatchBorrowedRows(benchmark::State& state) {
  const KVCache module = make_module_states(kBatchModuleTokens);
  const std::vector<int> tail_pos(kBatchTailTokens, kBatchModuleTokens);
  size_t held = 0;
  for (auto _ : state) {
    std::vector<KVCache> batch;
    batch.reserve(kBatchRequests);
    held = 0;
    for (int i = 0; i < kBatchRequests; ++i) {
      batch.emplace_back(kLayers, kKvDim);
      batch.back().borrow_rows(module, 0, module.size());
      batch.back().reserve(kBatchTailTokens);
      batch.back().append_tokens(tail_pos);
      held += batch.back().owned_bytes();
    }
    benchmark::DoNotOptimize(batch.back().k_row(0, 0));
    benchmark::ClobberMemory();
  }
  state.counters["batch_kv_bytes"] = static_cast<double>(held);
}
BENCHMARK(BM_BatchBorrowedRows);

void BM_BatchPrivateCopies(benchmark::State& state) {
  const KVCache module = make_module_states(kBatchModuleTokens);
  const std::vector<int> tail_pos(kBatchTailTokens, kBatchModuleTokens);
  size_t held = 0;
  for (auto _ : state) {
    std::vector<KVCache> batch;
    batch.reserve(kBatchRequests);
    held = 0;
    for (int i = 0; i < kBatchRequests; ++i) {
      batch.emplace_back(kLayers, kKvDim);
      batch.back().reserve(kBatchModuleTokens + kBatchTailTokens);
      batch.back().append_copy(module);  // private copy of the module
      batch.back().append_tokens(tail_pos);
      held += batch.back().payload_bytes();
    }
    benchmark::DoNotOptimize(batch.back().k_row(0, 0));
    benchmark::ClobberMemory();
  }
  state.counters["batch_kv_bytes"] = static_cast<double>(held);
}
BENCHMARK(BM_BatchPrivateCopies);

// Encode-once vs copy-many: module encoding runs the transformer, reuse is
// a memcpy. The gap is the entire premise of Prompt Cache.
void BM_ModuleEncode(benchmark::State& state) {
  auto& f = fixture();
  const int tokens = static_cast<int>(state.range(0));
  std::vector<TokenId> toks(static_cast<size_t>(tokens), 300);
  std::vector<int> pos(static_cast<size_t>(tokens));
  for (int i = 0; i < tokens; ++i) pos[static_cast<size_t>(i)] = i;
  for (auto _ : state) {
    KVCache kv = f.model.make_cache();
    kv.reserve(tokens);
    benchmark::DoNotOptimize(f.model.forward(toks, pos, kv));
  }
}
BENCHMARK(BM_ModuleEncode)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_ModuleReuse(benchmark::State& state) {
  auto& f = fixture();
  const int tokens = static_cast<int>(state.range(0));
  std::vector<TokenId> toks(static_cast<size_t>(tokens), 300);
  std::vector<int> pos(static_cast<size_t>(tokens));
  for (int i = 0; i < tokens; ++i) pos[static_cast<size_t>(i)] = i;
  KVCache encoded = f.model.make_cache();
  encoded.reserve(tokens);
  (void)f.model.forward(toks, pos, encoded);
  for (auto _ : state) {
    KVCache seq = f.model.make_cache();
    seq.reserve(tokens);
    seq.append_copy(encoded);
    benchmark::DoNotOptimize(seq.k_row(0, 0));
  }
}
BENCHMARK(BM_ModuleReuse)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
