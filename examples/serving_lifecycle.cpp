// The serving-lifecycle walkthrough: what a production deployment of
// Prompt Cache does around the core algorithm.
//
//   1. offline: encode a schema's modules and persist them to disk;
//   2. "restart": a fresh engine loads the encoded states instead of
//      re-encoding (zero warmup);
//   3. steady state: zero-copy serving with a pinned system module and
//      union-sibling prefetch;
//   4. observability: TTFT percentiles and store statistics.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/string_util.h"
#include "core/engine.h"
#include "eval/workload.h"
#include "model/induction.h"
#include "pml/prompt_builder.h"

int main() {
  using namespace pc;

  AccuracyWorkload workload(99);
  const Model model = make_induction_model(
      {workload.vocab().size(), AccuracyWorkload::kMaxSchemaPositions + 64});

  const char* schema = R"(
    <schema name="support">
      <module name="sys">w00 w01 w02 w03 w04</module>
      <union>
        <module name="lang-en">w05 q01 a10 a11 . w06</module>
        <module name="lang-de">w07 q01 a12 a13 . w08</module>
        <module name="lang-fr">w09 q01 a14 a15 . w10</module>
      </union>
      <module name="faq">w11 q02 a16 a17 . w12 q03 a18 . w13</module>
    </schema>)";
  // Per-process file name, so concurrent runs never share a snapshot.
  const std::string snapshot =
      (std::filesystem::temp_directory_path() /
       ("pc_support_modules." + std::to_string(::getpid()) + ".bin"))
          .string();

  // ---- phase 1: offline encoding + persistence ----
  {
    PromptCacheEngine offline(model, workload.tokenizer());
    offline.load_schema(schema);
    const size_t saved = offline.save_modules(snapshot);
    std::printf("offline: encoded %llu modules, persisted %zu records (%s)\n",
                static_cast<unsigned long long>(
                    offline.stats().modules_encoded),
                saved,
                format_bytes(static_cast<double>(
                    offline.store()
                        .usage(ModuleLocation::kDeviceMemory)
                        .used_bytes))
                    .c_str());
  }

  // ---- phase 2: restart without re-encoding ----
  EngineConfig cfg;
  cfg.eager_encode = false;          // schema loads metadata only
  cfg.zero_copy = true;              // the default: borrow rows, copy none
  cfg.prefetch_union_siblings = true;
  PromptCacheEngine engine(model, workload.tokenizer(), cfg);
  engine.load_schema(schema);
  const size_t loaded = engine.load_modules(snapshot);
  engine.pin_module("support", "sys");  // the system prompt never evicts
  std::printf("restart: restored %zu modules from disk, re-encoded %llu\n\n",
              loaded,
              static_cast<unsigned long long>(
                  engine.stats().modules_encoded));

  // ---- phase 3: steady-state traffic ----
  GenerateOptions options;
  options.max_new_tokens = 4;
  options.stop_tokens = {workload.stop_token()};

  const struct Request {
    const char* lang;
    const char* key;
  } traffic[] = {
      {"lang-en", "q01"}, {"lang-de", "q01"}, {"lang-fr", "q01"},
      {"lang-en", "q02"}, {"lang-de", "q03"}, {"lang-en", "q01"},
  };
  std::printf("%-10s %-6s %-10s %10s %14s\n", "variant", "key", "answer",
              "ttft", "zero-copied");
  for (const Request& req : traffic) {
    pml::PromptBuilder prompt("support");
    prompt.import("sys").import(req.lang).import("faq");
    prompt.text(std::string("question: ") + req.key);
    const ServeResult r = engine.serve(prompt.str(), options);
    std::printf("%-10s %-6s %-10s %8.2fms %14s\n", req.lang, req.key,
                r.text.c_str(), r.ttft.total_ms(),
                format_bytes(static_cast<double>(r.ttft.bytes_zero_copy))
                    .c_str());
  }

  // ---- phase 4: observability ----
  const auto& stats = engine.stats();
  std::printf("\nTTFT:  %s\n", engine.cached_ttft_histogram().summary().c_str());
  std::printf(
      "store: %zu entries, %llu hits / %llu misses, %llu evictions, "
      "%llu sibling prefetches\n",
      engine.store().size(),
      static_cast<unsigned long long>(engine.store().stats().hits),
      static_cast<unsigned long long>(engine.store().stats().misses),
      static_cast<unsigned long long>(engine.store().stats().evictions),
      static_cast<unsigned long long>(stats.sibling_prefetches));
  std::remove(snapshot.c_str());
  return 0;
}
