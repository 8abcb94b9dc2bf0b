#include "capi/prompt_cache_c.h"

#include <cstdlib>
#include <cstring>
#include <string>

#include "core/engine.h"

namespace {

thread_local std::string g_last_error;

char* dup_string(const std::string& s) {
  char* out = static_cast<char*>(std::malloc(s.size() + 1));
  if (out != nullptr) std::memcpy(out, s.c_str(), s.size() + 1);
  return out;
}

template <typename Fn>
int guarded(Fn&& fn) {
  try {
    fn();
    g_last_error.clear();
    return 0;
  } catch (const std::exception& e) {
    g_last_error = e.what();
    return -1;
  } catch (...) {
    g_last_error = "unknown error";
    return -1;
  }
}

}  // namespace

// The opaque handle owns the whole stack: vocabulary-backed tokenizer,
// model, engine (which hold references into the handle).
struct pc_engine {
  pc::Tokenizer tokenizer;
  pc::Model model;
  pc::PromptCacheEngine engine;

  pc_engine(pc::ModelConfig config, unsigned long long seed,
            pc::EngineConfig engine_config)
      : tokenizer(pc::Vocab::basic_english()),
        model(pc::Model::random(config, seed)),
        engine(model, tokenizer, engine_config) {}
};

extern "C" {

pc_engine* pc_engine_create(pc_model_family family, unsigned long long seed,
                            int zero_copy) {
  pc_engine* out = nullptr;
  const int rc = guarded([&] {
    const int vocab = pc::Vocab::basic_english().size();
    pc::ModelConfig config;
    switch (family) {
      case PC_MODEL_LLAMA_TINY:
        config = pc::ModelConfig::llama_tiny(vocab);
        break;
      case PC_MODEL_MPT_TINY:
        config = pc::ModelConfig::mpt_tiny(vocab);
        break;
      case PC_MODEL_FALCON_TINY:
        config = pc::ModelConfig::falcon_tiny(vocab);
        break;
      case PC_MODEL_GPT2_TINY:
        config = pc::ModelConfig::gpt2_tiny(vocab);
        break;
      default:
        throw pc::Error("unknown model family");
    }
    pc::EngineConfig engine_config;
    engine_config.zero_copy = zero_copy != 0;
    out = new pc_engine(std::move(config), seed, engine_config);
  });
  return rc == 0 ? out : nullptr;
}

void pc_engine_destroy(pc_engine* engine) { delete engine; }

int pc_load_schema(pc_engine* engine, const char* schema_pml) {
  if (engine == nullptr || schema_pml == nullptr) {
    g_last_error = "null argument";
    return -1;
  }
  return guarded([&] { engine->engine.load_schema(schema_pml); });
}

namespace {

void fill_result(pc_serve_result* out, const pc::ServeResult& r,
                 pc_serve_status status) {
  out->text = dup_string(r.text);
  out->ttft_ms = r.ttft.total_ms();
  out->retrieve_ms = r.ttft.retrieve_ms;
  out->cached_tokens = r.ttft.cached_tokens;
  out->uncached_tokens = r.ttft.uncached_tokens;
  out->status = status;
}

int serve_impl(pc_engine* engine, const char* prompt_pml, int max_new_tokens,
               pc_serve_result* out, bool baseline) {
  if (engine == nullptr || prompt_pml == nullptr || out == nullptr) {
    g_last_error = "null argument";
    return -1;
  }
  const int rc = guarded([&] {
    pc::GenerateOptions options;
    options.max_new_tokens = max_new_tokens;
    const pc::ServeResult r =
        baseline ? engine->engine.serve_baseline(prompt_pml, options)
                 : engine->engine.serve(prompt_pml, options);
    fill_result(out, r, PC_SERVE_OK);
  });
  if (rc != 0) out->status = PC_SERVE_FAILED;
  return rc;
}

}  // namespace

int pc_serve(pc_engine* engine, const char* prompt_pml, int max_new_tokens,
             pc_serve_result* out) {
  return serve_impl(engine, prompt_pml, max_new_tokens, out, false);
}

int pc_serve_baseline(pc_engine* engine, const char* prompt_pml,
                      int max_new_tokens, pc_serve_result* out) {
  return serve_impl(engine, prompt_pml, max_new_tokens, out, true);
}

int pc_serve_deadline(pc_engine* engine, const char* prompt_pml,
                      int max_new_tokens, double deadline_ms,
                      pc_serve_result* out) {
  if (engine == nullptr || prompt_pml == nullptr || out == nullptr) {
    g_last_error = "null argument";
    return -1;
  }
  out->status = PC_SERVE_FAILED;
  return guarded([&] {
    pc::GenerateOptions options;
    options.max_new_tokens = max_new_tokens;
    if (deadline_ms > 0) {
      options.cancel = pc::CancellationToken::after_ms(deadline_ms);
    }
    try {
      const pc::ServeResult r = engine->engine.serve(prompt_pml, options);
      fill_result(out, r, PC_SERVE_OK);
      return;
    } catch (const pc::CancelledError&) {
      out->status = PC_SERVE_TIMEOUT;
      throw;
    } catch (const pc::TransientError&) {
      // Transient or structural cache failure: degrade below.
    } catch (const pc::CacheError&) {
    }
    // Degrade: re-serve as one full blocked prefill — identical text,
    // degraded TTFT (see PromptCacheEngine::serve_full_prefill).
    try {
      const pc::ServeResult r =
          engine->engine.serve_full_prefill(prompt_pml, options);
      fill_result(out, r, PC_SERVE_DEGRADED);
    } catch (const pc::CancelledError&) {
      out->status = PC_SERVE_TIMEOUT;
      throw;
    }
  });
}

long pc_save_modules(pc_engine* engine, const char* path) {
  if (engine == nullptr || path == nullptr) {
    g_last_error = "null argument";
    return -1;
  }
  long count = -1;
  const int rc = guarded(
      [&] { count = static_cast<long>(engine->engine.save_modules(path)); });
  return rc == 0 ? count : -1;
}

long pc_load_modules(pc_engine* engine, const char* path) {
  if (engine == nullptr || path == nullptr) {
    g_last_error = "null argument";
    return -1;
  }
  long count = -1;
  const int rc = guarded(
      [&] { count = static_cast<long>(engine->engine.load_modules(path)); });
  return rc == 0 ? count : -1;
}

long pc_load_modules_recover(pc_engine* engine, const char* path,
                             long* skipped) {
  if (engine == nullptr || path == nullptr) {
    g_last_error = "null argument";
    return -1;
  }
  long count = -1;
  const int rc = guarded([&] {
    const pc::PromptCacheEngine::LoadReport report =
        engine->engine.load_modules(path,
                                    pc::PromptCacheEngine::LoadPolicy::kSkipCorrupt);
    count = static_cast<long>(report.loaded);
    if (skipped != nullptr) *skipped = static_cast<long>(report.skipped);
  });
  return rc == 0 ? count : -1;
}

const char* pc_last_error(void) { return g_last_error.c_str(); }

void pc_string_free(char* s) { std::free(s); }

}  // extern "C"
