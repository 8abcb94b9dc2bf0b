// The Prompt Cache engine (paper §3): schema registration + module
// encoding, scaffolds, and cached inference, with a regular KV-Cache
// baseline sharing the identical pipeline (§5: "Prompt Cache and KV Cache
// share the exact same inference pipeline except for attention state
// computation").
//
// serve() implements §3.4:
//   1. parse the prompt and verify it against its schema (bind_prompt),
//      and collect its uncached stream (collect_uncached), which fails a
//      prompt past max_pos before anything is encoded;
//   2. retrieve the encoded attention states of imported modules into the
//      sequence KV cache — a borrow in place (EngineConfig::zero_copy, the
//      default), or a pure memcpy of the stored bytes when zero_copy is
//      off (parameter-placeholder rows are skipped);
//   3. compute attention states for the uncached stream — parameter
//      arguments (at their placeholder position IDs) and free text
//      segments, or the kickoff — in one forward pass that attends over
//      the concatenated cache;
//   4. decode from the resulting logits (Model::generate's Decoder).
// TTFT = step 2 + step 3 (+ the first sample); module encoding is offline
// and reported separately.
//
// Threading contract: load schemas and scaffolds first (load_schema and
// add_scaffold change what the serving calls read, so they run alone);
// after that, serve, bind, ensure_encoded, assemble, complete_serve,
// serve_full_prefill and pin_module may run on any number of threads. They
// read the loaded schemas and scaffolds, count into registry cells
// (relaxed-atomic counters, mutexed histograms), and encode through the
// store's single-flight, so a module two threads miss at once is encoded
// once. Every engine serves from a SharedModuleStore
// (core/shared_module_store.h):
//
//   * A standalone engine (the constructor without a store) owns a store
//     sized by EngineConfig's capacity fields. Engines are
//     then fully isolated but encode and hold every module once *per
//     engine*; share encoded modules between processes via
//     save_modules()/load_modules().
//   * An engine built over a store (the SharedModuleStore& constructor)
//     serves from the caller's store, which may hold what other engines
//     encoded (a shard router copies modules between its shards' stores).
//     A Server (src/sys/server.h) builds one engine over its store and
//     serves every lane through it: each module is encoded once and held
//     once, and a borrowing cache holds the payloads it reads, so an
//     eviction triggered on one lane never frees rows a request on another
//     still reads.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "core/shared_module_store.h"
#include "model/model.h"
#include "pml/prompt.h"
#include "pml/schema.h"

namespace pc {

// Process default for EngineConfig::precision, from the PC_KV_FORMAT
// environment variable: "q4" selects Q4_0 (blocked 4-bit) module storage,
// "q8" Q8_0, "fp32" (or unset) the engine's native states. Read on every
// call so tests can flip the variable between engine constructions. Throws
// pc::ConfigError on any other value.
StorePrecision default_store_precision();

struct EngineConfig {
  size_t device_capacity_bytes = 0;  // 0 = unlimited (simulated GPU HBM tier)
  size_t host_capacity_bytes = 0;    // 0 = unlimited (host DRAM tier)
  // Module storage precision (§5.5): fp32, or int8 (q8), which quarters
  // the resident footprint, or blocked 4-bit (q4), which roughly eighths
  // it; any other value is a ConfigError at construction. Every format is
  // stored as it is served: retrieval copies or borrows the stored bytes,
  // and attention scores q8/q4 rows in the integer domain on every serving
  // path (copy, zero-copy, batched), so the three emit the same tokens. A
  // q4 engine on a model whose head geometry the q4 kernel cannot serve
  // (d_head not a multiple of 32 with several KV heads) falls back to q8 at
  // construction.
  StorePrecision precision = default_store_precision();
  bool eager_encode = true;  // encode all modules at schema load
  // Union-sibling prefetch (§3.2.3): after serving a prompt that used a
  // union member, promote the member's siblings into device memory — the
  // next request is likely to pick one of them.
  bool prefetch_union_siblings = false;
  // Zero-copy serving (§3.4's batch optimization, §6's shared attention
  // states): every assembly — serve(), the Server's lanes and
  // assemble_and_prefill — borrows module rows from the store instead of
  // copying them; only uncached and generated rows are owned. The cache
  // holds each borrowed payload alive (kv/kv_cache.h), so the store's LRU
  // still evicts freely. false copies the stored bytes instead: the
  // paper's per-request retrieval, and the host->device copy whose bytes
  // a LinkModel's bandwidth term charges. It chooses where the bytes live
  // and what the host link is charged, never the arithmetic: tokens are
  // the same at every format.
  bool zero_copy = true;
};

// The rows a request computes before its first token: the binding's
// parameter arguments and free texts, ordered by their assigned position
// IDs (layout order) so later segments causally see earlier ones, matching
// the baseline's reading order. A binding with no uncached token (none
// given, or every one empty) still needs one computed row for its logits:
// its stream is the kickoff, <s> at next_pos, and generation starts one
// position later. Every serving path reads this one rule: serve(), full
// prefill, sessions and a Server lane's chunked prefill (sys/batch.h).
struct UncachedStream {
  std::vector<TokenId> tokens;
  std::vector<int> pos_ids;
  int gen_start = 0;  // the first generated token's position id
};

// Throws pc::Error when a stream position reaches max_pos, before anything
// is encoded or computed.
UncachedStream collect_uncached(const pml::PromptBinding& binding,
                                int max_pos);

struct TtftBreakdown {
  double retrieve_ms = 0;  // module rows into the sequence cache
  double uncached_ms = 0;  // forward pass over uncached tokens (to logits)
  int cached_tokens = 0;
  int uncached_tokens = 0;
  int modules = 0;  // encoded modules/scaffolds whose states this serve reused
  // Stored bytes of the module rows, by where they came from. A copy moves
  // them (over the host link or within device memory); a borrow moves none.
  size_t bytes_from_host = 0;    // copied over the host link
  size_t bytes_from_device = 0;  // copied within device memory
  size_t bytes_zero_copy = 0;    // borrowed in place, nothing moved
  // Always 0: no serving path dequantizes module rows any more. Kept only
  // because the end-to-end benchmark reads it.
  uint64_t dequant_rows = 0;

  double total_ms() const { return retrieve_ms + uncached_ms; }
};

struct ServeResult {
  std::vector<TokenId> tokens;  // generated token ids
  std::string text;             // decoded
  FinishReason finish_reason = FinishReason::kLength;
  TtftBreakdown ttft;
  double encode_ms = 0;  // offline module encoding triggered by this call
  double decode_ms = 0;  // autoregressive steps after the first token
  int prompt_tokens = 0;
  // True when this result came from serve_full_prefill (the degradation
  // path): identical tokens, no cache reuse, degraded TTFT.
  bool degraded = false;
};

// Snapshot view of one engine's counters. Backed by the observability
// registry (obs/metrics.h): every engine owns cells in the pc_engine_*
// metric families, so a Prometheus scrape sums every engine in the process
// while stats() reads this engine's cells.
struct EngineStats {
  uint64_t serves = 0;
  uint64_t baseline_serves = 0;
  uint64_t degraded_serves = 0;   // full-prefill fallbacks (fault recovery)
  uint64_t modules_encoded = 0;
  uint64_t scaffolds_encoded = 0;
  uint64_t thrash_reencodes = 0;  // re-encodes inside the TTFT window
  uint64_t sibling_prefetches = 0;
  uint64_t kv_format_fallbacks = 0;  // q4 asked, q8 stored (model geometry)
};

// The registry cells behind EngineStats plus the TTFT histograms.
struct EngineCells {
  EngineCells();

  obs::Counter serves;
  obs::Counter baseline_serves;
  obs::Counter degraded_serves;
  obs::Counter modules_encoded;
  obs::Counter scaffolds_encoded;
  obs::Counter thrash_reencodes;
  obs::Counter sibling_prefetches;
  obs::Counter kv_format_fallbacks;
  obs::Histogram cached_ttft;    // pc_engine_ttft_cached_seconds
  obs::Histogram baseline_ttft;  // pc_engine_ttft_baseline_seconds
  obs::Histogram degraded_ttft;  // pc_engine_ttft_degraded_seconds

  EngineStats snapshot() const {
    EngineStats out;
    out.serves = serves.value();
    out.baseline_serves = baseline_serves.value();
    out.degraded_serves = degraded_serves.value();
    out.modules_encoded = modules_encoded.value();
    out.scaffolds_encoded = scaffolds_encoded.value();
    out.thrash_reencodes = thrash_reencodes.value();
    out.sibling_prefetches = sibling_prefetches.value();
    out.kv_format_fallbacks = kv_format_fallbacks.value();
    return out;
  }
};

class PromptCacheEngine {
 public:
  // Standalone engine: owns a store sized by the EngineConfig capacity
  // fields, with no disk tier (PC_DISK_DIR is not consulted).
  PromptCacheEngine(const Model& model, const TextTokenizer& tokenizer,
                    EngineConfig config = {});

  // Engine over `store`: encoded modules live in (and are served from) it,
  // and it must outlive the engine; the EngineConfig capacity fields are
  // ignored (the store was sized at construction).
  PromptCacheEngine(const Model& model, const TextTokenizer& tokenizer,
                    SharedModuleStore& store, EngineConfig config = {});

  // Parses, lays out, and (eagerly) encodes a schema. Returns it.
  const pml::Schema& load_schema(std::string_view schema_pml);

  const pml::Schema* find_schema(const std::string& name) const;

  // Registers a scaffold (§3.3): the named modules are additionally encoded
  // *jointly* (shared attention span); when a prompt imports all of them,
  // the joint states override the individual ones.
  void add_scaffold(const std::string& schema_name,
                    std::vector<std::string> module_names);

  // Parses and validates a prompt against its (loaded) schema.
  pml::PromptBinding bind(std::string_view prompt_pml) const;

  // Cached inference (§3.4).
  ServeResult serve(std::string_view prompt_pml,
                    const GenerateOptions& options = {});

  // Regular KV-Cache baseline: the same prompt content as one contiguous
  // prefill at positions 0..n-1.
  ServeResult serve_baseline(std::string_view prompt_pml,
                             const GenerateOptions& options = {});

  // Degradation path: serves the prompt WITHOUT touching the module store —
  // one blocked prefill (Model::forward_blocked) reproduces the exact
  // attention pattern of per-module encoding + concatenation, so the tokens
  // are bitwise-identical to serve()'s while the TTFT pays the full
  // forward pass. The server falls back to this when a module cannot be
  // obtained (encode fault, corrupt record, thrash under pin pressure).
  ServeResult serve_full_prefill(std::string_view prompt_pml,
                                 const GenerateOptions& options = {});
  // All three serve calls throw pc::CancelledError once options.cancel has
  // expired: serve() checks it before each module encode, the other two
  // before their prefill, and all three at each decode step. A call that
  // throws counts no serve and records no TTFT.

  // Building blocks, exposed for tests and benchmarks -----------------------

  // Steps 2-3 of serve() without generation: appends every module row of
  // `binding` to `sequence_cache`, borrowed or copied as
  // EngineConfig::zero_copy says, and returns the first-token logits.
  Tensor assemble_and_prefill(const pml::PromptBinding& binding,
                              KVCache& sequence_cache, TtftBreakdown* ttft);

  // Step 2 of serve(), without the prefill: a sequence cache holding every
  // module row of `binding`, borrowed in place or copied as stored as
  // EngineConfig::zero_copy says (serve() and the batch scheduler,
  // sys/batch.h, both assemble here), with own-row room for the uncached
  // tokens, the kickoff token, `max_new_tokens` generated tokens (at most
  // max_pos) and kTailSlack. Borrowed rows live as long as the returned
  // cache. A module evicted since the ensure pass is re-encoded here (a
  // thrash re-encode) and, like every encode, adds one to `*encodes` when
  // it is given.
  static constexpr int kTailSlack = 8;
  KVCache assemble(const pml::PromptBinding& binding, int max_new_tokens,
                   TtftBreakdown* ttft, int* encodes = nullptr);

  // serve()'s last step, which the batch scheduler also runs for every
  // request it finishes: counts the cached serve, records its TTFT, and
  // runs the union-sibling prefetch.
  void complete_serve(const pml::PromptBinding& binding,
                      const TtftBreakdown& ttft);

  // Ensures every module used by `binding` is encoded; returns ms spent.
  // `cancel` is polled before each module/scaffold encode: an expired token
  // throws pc::CancelledError instead of starting the next forward pass.
  // Each module or scaffold this call encodes adds one to `*encodes` as it
  // lands, so a call that throws still reports what it encoded; a module
  // another thread is encoding is waited for, not counted.
  double ensure_encoded(const pml::PromptBinding& binding,
                        const CancellationToken& cancel = {},
                        int* encodes = nullptr);

  // Persists every resident encoded module (and scaffold) to `path`, and
  // restores them on a fresh engine so serving can resume without
  // re-encoding. Returns the number of records written/read. Throws
  // pc::Error on I/O or corruption. Saving is crash-atomic
  // (write_store_file, core/serialize.h): a failed or interrupted save
  // leaves the previous file at `path` intact.
  size_t save_modules(const std::string& path) const;
  size_t load_modules(const std::string& path);

  // Recovery policy for load_modules: kStrict is the all-or-nothing
  // behavior above; kSkipCorrupt skips corrupt or truncated records
  // (resyncing on the record tag) and loads the rest — a missing module is
  // merely a cache miss, re-encoded lazily at serve time.
  enum class LoadPolicy { kStrict, kSkipCorrupt };
  struct LoadReport {
    size_t loaded = 0;
    size_t skipped = 0;  // corrupt/truncated records passed over
  };
  LoadReport load_modules(const std::string& path, LoadPolicy policy);

  // Pins a module's encoded states so the store never evicts them
  // (encodes first if needed). Throws if the schema/module is unknown.
  void pin_module(const std::string& schema_name,
                  const std::string& module_name);

  const Model& model() const { return model_; }
  const TextTokenizer& tokenizer() const { return tokenizer_; }
  // The configuration in effect (precision after any q4 -> q8 fallback).
  const EngineConfig& config() const { return config_; }
  // The store this engine serves from: its own, or the one it was built
  // over.
  SharedModuleStore& store() const { return store_; }
  // Counter snapshot (a view over this engine's registry cells).
  EngineStats stats() const { return cells_.snapshot(); }

  // Per-request TTFT distributions (serving telemetry). Snapshots of this
  // engine's histogram cells.
  LatencyHistogram cached_ttft_histogram() const {
    return cells_.cached_ttft.snapshot();
  }
  LatencyHistogram baseline_ttft_histogram() const {
    return cells_.baseline_ttft.snapshot();
  }

  // The store keys of `binding`'s blocks (modules, and active scaffolds in
  // place of their members), in concatenation order — the keys assembly
  // reads — WITHOUT touching any store or encoding anything. The prefetch
  // pipeline's lookahead (sys/prefetch.h) maps queued prompts to keys
  // through the serving engine so spilled payloads can fault in ahead of
  // admission; the shard router routes by them.
  std::vector<std::string> module_keys(const pml::PromptBinding& binding) const;

 private:
  struct Scaffold {
    std::string schema_name;
    std::vector<std::string> module_names;  // as registered
    std::vector<int> module_indices;        // resolved, sorted
    std::string key;
  };

  std::string module_key(const pml::Schema& schema, int mi) const {
    return schema.name + "::" + schema.module(mi).name;
  }

  // One store entry of a binding: a module, or an active scaffold standing
  // in for its members.
  struct Block {
    std::string key;
    int module = -1;                     // the module's index, or -1
    const Scaffold* scaffold = nullptr;  // set for a scaffold
    // The modules whose tokens the entry encodes, in layout order.
    std::span<const int> members() const {
      if (scaffold != nullptr) return scaffold->module_indices;
      return {&module, 1};
    }
  };

  // The block plan: `binding`'s store entries in concatenation order, each
  // active scaffold at its first member's place. A scaffold is active when
  // every member is imported and no earlier-registered active scaffold
  // covers one of them.
  std::vector<Block> blocks(const pml::PromptBinding& binding) const;

  // Encodes `block` into the store unless it is resident.
  void encode(const pml::Schema& schema, const Block& block, int* encodes);
  // Books one forward pass of `block` in the engine's counters and, when
  // given, in the caller's `*encodes`.
  void count_encode(const Block& block, int* encodes);
  // The forward pass + packaging: a module's tokens alone, or a scaffold's
  // members jointly (one shared attention span).
  EncodedModule build_payload(const pml::Schema& schema, const Block& block);

  // The decode tail of serve(), serve_full_prefill() and serve_baseline():
  // Model::generate from the first-token `logits` at position `gen_start`
  // (one "decode" span), filling `result`'s tokens, finish_reason,
  // decode_ms and text. A generation the options' token cancels throws
  // CancelledError("<caller>: deadline expired mid-decode"), so each caller
  // counts its serve and records its TTFT only after this returns.
  void decode_into(const char* caller, const Tensor& logits, int gen_start,
                   KVCache& cache, const GenerateOptions& options,
                   ServeResult* result) const;

  // Appends every module row of `binding` to `cache` in concatenation
  // order (see assemble()), after reserving `own_budget` own rows beyond
  // those fp32 copies fill. One store lookup per block; a module evicted
  // since the ensure pass is re-encoded here, counted as a thrash re-encode
  // and in `*encodes`.
  void append_modules(const pml::PromptBinding& binding, int own_budget,
                      KVCache& cache, TtftBreakdown* ttft, int* encodes);

  // The standalone constructor's target: `owned` becomes the store.
  PromptCacheEngine(const Model& model, const TextTokenizer& tokenizer,
                    std::unique_ptr<SharedModuleStore> owned,
                    EngineConfig config);

  const Model& model_;
  const TextTokenizer& tokenizer_;
  ChatTemplate chat_template_;
  EngineConfig config_;
  std::map<std::string, pml::Schema> schemas_;
  std::vector<Scaffold> scaffolds_;
  std::unique_ptr<SharedModuleStore> owned_store_;  // standalone engines only
  SharedModuleStore& store_;
  EngineCells cells_;
};

}  // namespace pc
