// Shared helpers for the benchmark harnesses.
//
// Every bench binary prints paper-shaped tables to stdout and finishes in
// tens of seconds by default. Environment knobs:
//   PC_FULL=1      run at full paper scale (longer contexts, more samples)
//   PC_SCALE=x     override the context-scale factor for measured runs
//   PC_SAMPLES=n   override the per-dataset sample count
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "eval/table.h"
#include "eval/workload.h"
#include "obs/trace.h"
#include "sys/fault.h"

// Stamped at build time (cmake/git_sha.cmake via bench/CMakeLists.txt);
// fall back for includers built without it.
#if __has_include("pc_git_sha.h")
#include "pc_git_sha.h"
#endif
#ifndef PC_GIT_SHA
#define PC_GIT_SHA "unknown"
#endif
#ifndef PC_BUILD_TYPE
#define PC_BUILD_TYPE "unknown"
#endif

namespace pc::bench {

inline bool full_mode() {
  const char* v = std::getenv("PC_FULL");
  return v != nullptr && std::string(v) != "0";
}

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

// Default context scale for measured (this-host) runs: PC_FULL uses the
// paper's LongBench-average ~5K contexts, the quick default shrinks them.
inline double context_scale() {
  return env_double("PC_SCALE", full_mode() ? 1.0 : 0.3);
}

inline int samples_per_dataset(int quick_default, int full_default) {
  return env_int("PC_SAMPLES", full_mode() ? full_default : quick_default);
}

// Figures subsample 8 datasets like the paper's body; PC_FULL runs the
// whole 21-dataset LongBench suite (the paper's appendix).
inline const std::vector<DatasetSpec>& figure_datasets() {
  return full_mode() ? DatasetSpec::longbench21() : DatasetSpec::longbench8();
}

inline void print_banner(const std::string& what, const std::string& note) {
  std::cout << "\n############################################################\n"
            << "# " << what << "\n";
  if (!note.empty()) std::cout << "# " << note << "\n";
  std::cout << "############################################################\n";
}

// Provenance block for BENCH_*.json: which commit/build/config produced the
// numbers, so the bench trajectory stays comparable across PRs. `indent` is
// the number of spaces before the closing key lines (the caller's JSON
// nesting depth).
inline std::string provenance_json(int indent = 2) {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string inner(static_cast<size_t>(indent) + 2, ' ');
  const char* threads = std::getenv("PC_THREADS");
  std::string out = "{\n";
  out += inner + "\"git_sha\": \"" + PC_GIT_SHA + "\",\n";
  out += inner + "\"build_type\": \"" + PC_BUILD_TYPE + "\",\n";
  out += inner + "\"pc_threads\": \"" +
         (threads != nullptr ? threads : "unset") + "\",\n";
  out += inner + "\"obs_enabled\": ";
  out += (PC_OBS_ENABLED ? "true" : "false");
  out += ",\n";
  out += inner + "\"tracing\": ";
  out += (obs::tracing_enabled() ? "true" : "false");
  out += ",\n";
  // Module storage format the process defaults to (PC_KV_FORMAT): q8
  // numbers are not comparable to fp32 numbers, so the JSON must say which
  // one produced them.
  const char* kv_format = std::getenv("PC_KV_FORMAT");
  out += inner + "\"pc_kv_format\": \"" +
         (kv_format != nullptr ? kv_format : "fp32") + "\",\n";
  // Active fault-injection spec ("" when disabled): numbers produced under
  // injected faults must say so.
  out += inner + "\"pc_faults\": \"" + FaultInjector::global().spec() + "\"\n";
  out += pad + "}";
  return out;
}

}  // namespace pc::bench
