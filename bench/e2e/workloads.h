// The benchmark's workloads and the seeded inputs each one sends.
//
// A workload is a traffic mix served through the public Server API, or,
// for paper_ttft, through one PromptCacheEngine. Its inputs -- one PML
// schema, a pool of prompts, a request order and an arrival schedule --
// are generated from the run's seed alone; the program under test sees
// only these generated strings. README.md says why each workload exists.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/encoded_module.h"
#include "pml/prompt_builder.h"
#include "tokenizer/tokenizer.h"

namespace pc::e2e {

struct WorkloadSpec {
  const char* name;
  StorePrecision precision;
  int n_modules;
  int module_tokens;
  int imports;          // modules per prompt, drawn Zipf(0.8) over modules
  int question_tokens;  // uncached text per prompt
  int output_tokens;    // fixed: generation has no stop tokens
  // Open-loop Poisson arrival rate of the traced run's Server probe; 0
  // means one engine and one closed-loop client, with no Server, in the
  // measured phase.
  double rate_rps;
  // SLO limits for slo_attainment.
  double slo_ttft_ms;
  double slo_tpot_ms;
  // RAM capped at 25% of the module working set, with the disk tier (real
  // file I/O, no simulated read latency) and the prefetcher at depth 4.
  bool tiered;
};

inline const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"rag_warm", StorePrecision::kFp32, 32, 256, 4, 32, 8, 40.0, 50.0, 2.0,
       false},
      {"short_unshared", StorePrecision::kFp32, 32, 32, 1, 128, 32, 30.0,
       60.0, 1.5, false},
      {"tiered_churn", StorePrecision::kQ4, 48, 256, 4, 32, 8, 30.0, 60.0, 2.0,
       true},
      // Every prompt imports all four modules: the sweep's 2048 point.
      {"paper_ttft", StorePrecision::kFp32, 4, 512, 4, 32, 8, 0.0, 100.0, 4.0,
       false},
  };
  return specs;
}

inline const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

inline uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Lower-case words of the built-in vocabulary: each is exactly one token,
// so a text of n words is n tokens.
inline const std::vector<std::string>& word_pool() {
  static const std::vector<std::string> words = [] {
    std::vector<std::string> out;
    const Vocab& v = Vocab::basic_english();
    for (TokenId id = v.first_piece_id(); id < v.size(); ++id) {
      const std::string& p = v.piece(id);
      if (p.size() >= 2 && std::all_of(p.begin(), p.end(), [](char c) {
            return c >= 'a' && c <= 'z';
          })) {
        out.push_back(p);
      }
    }
    PC_CHECK(out.size() > 100);
    return out;
  }();
  return words;
}

inline std::string words(Rng& rng, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ' ';
    out += rng.pick(word_pool());
  }
  return out;
}

inline std::string module_name(int i) {
  std::string name = "m";
  name += std::to_string(i);
  return name;
}

struct Inputs {
  std::string schema;
  std::vector<std::string> pool;
  // The Server probe's due times in seconds from its start (open loop
  // only).
  std::vector<double> arrivals_s;
  uint64_t pick_seed = 0;

  // Pool index of the i-th request of a phase (the traced replay sends the
  // first requests).
  size_t pick(uint64_t i) const {
    return static_cast<size_t>(mix64(pick_seed ^ mix64(i)) % pool.size());
  }
};

// `n_modules` is the workload's module count, or fewer for a smoke run
// (prompts keep their shape; fewer modules only shrink encoding).
inline Inputs make_inputs(const WorkloadSpec& spec, int n_modules,
                          uint64_t seed, size_t pool_size,
                          double arrival_seconds) {
  PC_CHECK(n_modules >= spec.imports && n_modules <= spec.n_modules);
  Inputs in;
  Rng text_rng(mix64(seed ^ 0x7465787473ULL));
  in.schema = "<schema name=\"" + std::string(spec.name) + "\">\n";
  for (int m = 0; m < n_modules; ++m) {
    in.schema += "  <module name=\"" + module_name(m) + "\">" +
                 words(text_rng, spec.module_tokens) + "</module>\n";
  }
  in.schema += "</schema>\n";

  // Zipf(0.8) module popularity: rank k has weight (k + 1)^-0.8.
  std::vector<double> cdf(static_cast<size_t>(n_modules));
  double total = 0;
  for (size_t k = 0; k < cdf.size(); ++k) {
    total += std::pow(static_cast<double>(k + 1), -0.8);
    cdf[k] = total;
  }
  Rng pool_rng(mix64(seed ^ 0x706f6f6cULL));
  for (size_t p = 0; p < pool_size; ++p) {
    std::vector<int> picked;
    while (static_cast<int>(picked.size()) < spec.imports) {
      const double u = pool_rng.next_double() * total;
      const int m = static_cast<int>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      if (m < n_modules &&
          std::find(picked.begin(), picked.end(), m) == picked.end()) {
        picked.push_back(m);
      }
    }
    // Schema order, so the question's positions follow every import.
    std::sort(picked.begin(), picked.end());
    pml::PromptBuilder prompt(spec.name);
    for (int m : picked) prompt.import(module_name(m));
    prompt.text(words(pool_rng, spec.question_tokens));
    in.pool.push_back(prompt.str());
  }

  if (spec.rate_rps > 0) {
    Rng arrival_rng(mix64(seed ^ 0x61727276ULL));
    for (double t = 0;;) {
      t += -std::log(1.0 - arrival_rng.next_double()) / spec.rate_rps;
      if (t >= arrival_seconds) break;
      in.arrivals_s.push_back(t);
    }
  }
  in.pick_seed = mix64(seed ^ 0x7069636bULL);
  return in;
}

// One point of the paper's TTFT sweep: a schema of 4 modules holding
// `cached_tokens` tokens together, and a prompt importing all of them plus
// a 32-token question (bench_fig5's make_sweep_sample shape).
struct SweepInput {
  std::string schema;
  std::string prompt;
};

inline SweepInput make_sweep_input(int cached_tokens, uint64_t seed) {
  Rng rng(mix64(seed ^ static_cast<uint64_t>(cached_tokens)));
  const std::string name = "sweep" + std::to_string(cached_tokens);
  SweepInput in;
  in.schema = "<schema name=\"" + name + "\">\n";
  pml::PromptBuilder prompt(name);
  for (int m = 0; m < 4; ++m) {
    in.schema += "  <module name=\"" + module_name(m) + "\">" +
                 words(rng, cached_tokens / 4) + "</module>\n";
    prompt.import(module_name(m));
  }
  in.schema += "</schema>\n";
  prompt.text(words(rng, 32));
  in.prompt = prompt.str();
  return in;
}

}  // namespace pc::e2e
