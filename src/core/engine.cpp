#include "core/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string_view>

#include "common/logging.h"
#include "common/timer.h"
#include "core/serialize.h"
#include "obs/trace.h"
#include "sys/fault.h"
#include "tensor/fp16.h"

namespace pc {

StorePrecision default_store_precision() {
  const char* fmt = std::getenv("PC_KV_FORMAT");
  if (fmt == nullptr) return StorePrecision::kFp32;
  const std::string_view v(fmt);
  if (v == "q4") return StorePrecision::kQ4;
  if (v == "q8") return StorePrecision::kQ8;
  if (v == "fp16") return StorePrecision::kFp16;
  PC_CHECK_MSG(v.empty() || v == "fp32",
               "PC_KV_FORMAT must be q4, q8, fp16, or fp32 (got '" << fmt
                                                                   << "')");
  return StorePrecision::kFp32;
}

EngineCells::EngineCells() {
  auto& reg = obs::MetricsRegistry::global();
  serves = reg.counter("pc_engine_serves_total", "cached serves completed");
  baseline_serves = reg.counter("pc_engine_baseline_serves_total",
                                "KV-cache baseline serves");
  modules_encoded =
      reg.counter("pc_engine_modules_encoded_total", "module forward passes");
  scaffolds_encoded = reg.counter("pc_engine_scaffolds_encoded_total",
                                  "joint scaffold forward passes");
  thrash_reencodes = reg.counter("pc_engine_thrash_reencodes_total",
                                 "cache misses inside the TTFT window");
  sibling_prefetches = reg.counter("pc_engine_sibling_prefetches_total",
                                   "union siblings promoted to device");
  degraded_serves = reg.counter("pc_engine_degraded_serves_total",
                                "full-prefill fallback serves");
  kv_format_fallbacks =
      reg.counter("pc_engine_kv_format_fallbacks_total",
                  "engines storing q8 because the model cannot store q4");
  cached_ttft = reg.histogram("pc_engine_ttft_cached_seconds",
                              "TTFT of cached serves");
  baseline_ttft = reg.histogram("pc_engine_ttft_baseline_seconds",
                                "TTFT of baseline serves");
  degraded_ttft = reg.histogram("pc_engine_ttft_degraded_seconds",
                                "TTFT of full-prefill fallback serves");
}

UncachedStream collect_uncached(const pml::PromptBinding& binding) {
  struct Seg {
    int start;
    int seq;
    const std::vector<TokenId>* tokens;
  };
  std::vector<Seg> segs;
  int seq = 0;
  for (const pml::BoundArg& a : binding.args) {
    if (!a.tokens.empty()) segs.push_back({a.start_pos, seq++, &a.tokens});
  }
  for (const pml::BoundText& t : binding.texts) {
    if (!t.tokens.empty()) segs.push_back({t.start_pos, seq++, &t.tokens});
  }
  std::sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
    return a.start != b.start ? a.start < b.start : a.seq < b.seq;
  });
  UncachedStream out;
  for (const Seg& s : segs) {
    for (size_t i = 0; i < s.tokens->size(); ++i) {
      out.tokens.push_back((*s.tokens)[i]);
      out.pos_ids.push_back(s.start + static_cast<int>(i));
    }
  }
  return out;
}

namespace {

// Q4_0 attention requires every head's K/V slice to start on a 32-value
// block boundary (head_off % 32 == 0): that holds when d_head is a multiple
// of kQ4BlockSize, or when the model has a single KV head (head_off is then
// always 0). A model outside that geometry falls back to Q8_0 at engine
// construction, counted in pc_engine_kv_format_fallbacks_total, instead of
// failing inside the attention kernel at serve time. Every preset model
// (sys/model_spec.h) satisfies the constraint, so this is a safety net for
// custom configs.
EngineConfig resolve_precision(const Model& model, EngineConfig config) {
  if (config.precision == StorePrecision::kQ4 &&
      model.config().d_head % kQ4BlockSize != 0 &&
      model.config().n_kv_heads != 1) {
    PC_LOG_WARN << "q4 module storage needs d_head % 32 == 0 or a single "
                   "KV head (d_head="
                << model.config().d_head
                << ", n_kv_heads=" << model.config().n_kv_heads
                << "); falling back to q8";
    config.precision = StorePrecision::kQ8;
  }
  return config;
}

}  // namespace

PromptCacheEngine::PromptCacheEngine(const Model& model,
                                     const TextTokenizer& tokenizer,
                                     EngineConfig config)
    : PromptCacheEngine(model, tokenizer,
                        std::make_unique<SharedModuleStore>(
                            config.device_capacity_bytes,
                            config.host_capacity_bytes, DiskTierConfig{},
                            /*n_shards=*/1),
                        config) {}

PromptCacheEngine::PromptCacheEngine(const Model& model,
                                     const TextTokenizer& tokenizer,
                                     std::unique_ptr<SharedModuleStore> owned,
                                     EngineConfig config)
    : PromptCacheEngine(model, tokenizer, *owned, std::move(config)) {
  owned_store_ = std::move(owned);
}

PromptCacheEngine::PromptCacheEngine(const Model& model,
                                     const TextTokenizer& tokenizer,
                                     SharedModuleStore& store,
                                     EngineConfig config)
    : model_(model),
      tokenizer_(tokenizer),
      chat_template_(model.config().chat_template),
      config_(resolve_precision(model, config)),
      store_(store) {
  if (config_.precision != config.precision) cells_.kv_format_fallbacks.inc();
}

const pml::Schema& PromptCacheEngine::load_schema(
    std::string_view schema_pml) {
  pml::Schema schema = pml::Schema::parse(schema_pml, tokenizer_,
                                          chat_template_);
  PC_CHECK_MSG(schema.total_positions <= model_.config().max_pos,
               "schema '" << schema.name << "' occupies "
                          << schema.total_positions
                          << " positions, model max_pos is "
                          << model_.config().max_pos);
  const std::string name = schema.name;

  // Runtime module updates (§1): replacing a schema invalidates every
  // encoded state derived from the old version — module contents or
  // positions may have changed while the keys stay the same.
  if (const pml::Schema* old = find_schema(name)) {
    for (size_t mi = 0; mi < old->modules.size(); ++mi) {
      store_.erase(module_key(*old, static_cast<int>(mi)));
    }
    for (auto it = scaffolds_.begin(); it != scaffolds_.end();) {
      if (it->schema_name == name) {
        store_.erase(it->key);
        it = scaffolds_.erase(it);
      } else {
        ++it;
      }
    }
  }

  auto [it, inserted] = schemas_.insert_or_assign(name, std::move(schema));
  if (config_.eager_encode) {
    for (size_t mi = 0; mi < it->second.modules.size(); ++mi) {
      encode_module(it->second, static_cast<int>(mi));
    }
  }
  return it->second;
}

const pml::Schema* PromptCacheEngine::find_schema(
    const std::string& name) const {
  auto it = schemas_.find(name);
  return it == schemas_.end() ? nullptr : &it->second;
}

void PromptCacheEngine::add_scaffold(const std::string& schema_name,
                                     std::vector<std::string> module_names) {
  const pml::Schema* schema = find_schema(schema_name);
  PC_CHECK_MSG(schema != nullptr, "scaffold references unloaded schema '"
                                      << schema_name << "'");
  Scaffold s;
  s.schema_name = schema_name;
  s.module_names = std::move(module_names);
  PC_CHECK_MSG(s.module_names.size() >= 2,
               "a scaffold needs at least two modules");
  for (const std::string& mn : s.module_names) {
    const int mi = schema->find_module(mn);
    PC_CHECK_MSG(mi != -1, "scaffold references unknown module '" << mn
                                                                  << "'");
    s.module_indices.push_back(mi);
  }
  // Joint encoding follows layout order.
  std::sort(s.module_indices.begin(), s.module_indices.end(),
            [&](int a, int b) {
              return schema->module(a).start_pos < schema->module(b).start_pos;
            });
  s.key = schema_name + "::scaffold";
  for (int mi : s.module_indices) s.key += ":" + schema->module(mi).name;
  if (config_.eager_encode) encode_scaffold(*schema, s);
  scaffolds_.push_back(std::move(s));
}

namespace {

// Re-encodes an fp32 payload in `precision` in place: fp16 halves, Q8_0
// and Q4_0 quantize (kv/quant.h). finalize_encoding's packaging, also
// applied to fp32 records loaded into a reduced-precision engine. Rows are
// contiguous in each layer's buffer, so a layer quantizes in one vectorized
// sweep.
void package(EncodedModule& m, StorePrecision precision) {
  PC_CHECK_MSG(m.precision == StorePrecision::kFp32 && m.kv32.has_value(),
               "package needs an fp32 payload");
  if (precision == StorePrecision::kFp32) return;
  const KVCache& kv = *m.kv32;
  m.pos_ids = kv.pos_ids();
  const int width = kv.kv_dim();
  const int n = kv.size();
  const size_t elems = static_cast<size_t>(n) * static_cast<size_t>(width);
  for (int l = 0; l < kv.n_layers(); ++l) {
    const float* k = n > 0 ? kv.k_row(l, 0) : nullptr;
    const float* v = n > 0 ? kv.v_row(l, 0) : nullptr;
    switch (precision) {
      case StorePrecision::kFp32:
        break;
      case StorePrecision::kFp16: {
        EncodedModule::F16Layer& layer = m.kv16_layers.emplace_back();
        layer.k.resize(elems);
        layer.v.resize(elems);
        for (size_t e = 0; e < elems; ++e) {
          layer.k[e] = float_to_half(k[e]);
          layer.v[e] = float_to_half(v[e]);
        }
        break;
      }
      case StorePrecision::kQ8: {
        Q8Layer& layer = m.kv8_layers.emplace_back();
        layer.k.resize(elems);
        layer.v.resize(elems);
        layer.k_scales.resize(static_cast<size_t>(n));
        layer.v_scales.resize(static_cast<size_t>(n));
        if (n > 0) {
          quantize_rows(k, n, width, layer.k.data(), layer.k_scales.data());
          quantize_rows(v, n, width, layer.v.data(), layer.v_scales.data());
        }
        break;
      }
      case StorePrecision::kQ4: {
        Q4Layer& layer = m.kv4_layers.emplace_back();
        layer.k.resize(static_cast<size_t>(n) * q4_row_bytes(width));
        layer.v.resize(layer.k.size());
        layer.k_scales.resize(static_cast<size_t>(n) * q4_blocks(width));
        layer.v_scales.resize(layer.k_scales.size());
        if (n > 0) {
          quantize_rows_q4(k, n, width, layer.k.data(), layer.k_scales.data());
          quantize_rows_q4(v, n, width, layer.v.data(), layer.v_scales.data());
        }
        break;
      }
    }
  }
  m.kv32.reset();
  m.precision = precision;
}

}  // namespace

EncodedModule PromptCacheEngine::finalize_encoding(
    KVCache kv, const std::vector<pml::TokenRun>& runs) {
  EncodedModule m;
  m.n_tokens = kv.size();
  m.kv_dim = kv.kv_dim();
  m.n_layers = kv.n_layers();

  int row = 0;
  for (const pml::TokenRun& run : runs) {
    const int n = static_cast<int>(run.tokens.size());
    if (run.is_param) {
      m.params.push_back({run.param_index, row, row + n});
    } else if (n > 0) {
      // Merge adjacent text ranges so serve-time copies are large memcpys.
      if (!m.text_row_ranges.empty() && m.text_row_ranges.back().second == row) {
        m.text_row_ranges.back().second = row + n;
      } else {
        m.text_row_ranges.emplace_back(row, row + n);
      }
    }
    row += n;
  }

  m.kv32 = std::move(kv);
  package(m, config_.precision);
  return m;
}

EncodedModule PromptCacheEngine::build_module_payload(const pml::Schema& schema,
                                                      int mi) {
  if (FaultInjector::global().should_fail(FaultPoint::kEncode)) {
    throw TransientError("injected fault: encode of module '" +
                         schema.module(mi).name + "' failed");
  }
  PC_SPAN("encode_module",
          {"tokens", static_cast<int64_t>(schema.module(mi).own_token_count())});
  const std::vector<pml::TokenRun> runs = schema.module_own_runs(mi);
  std::vector<TokenId> tokens;
  std::vector<int> pos_ids;
  for (const pml::TokenRun& run : runs) {
    for (size_t i = 0; i < run.tokens.size(); ++i) {
      tokens.push_back(run.tokens[i]);
      pos_ids.push_back(run.start_pos + static_cast<int>(i));
    }
  }

  KVCache kv = model_.make_cache();
  if (!tokens.empty()) {
    kv.reserve(static_cast<int>(tokens.size()));
    model_.encode(tokens, pos_ids, kv);  // module-local attention
  }
  return finalize_encoding(std::move(kv), runs);
}

EncodedModule PromptCacheEngine::build_scaffold_payload(
    const pml::Schema& schema, const Scaffold& scaffold) {
  if (FaultInjector::global().should_fail(FaultPoint::kEncode)) {
    throw TransientError("injected fault: encode of scaffold '" +
                         scaffold.key + "' failed");
  }
  PC_SPAN("encode_scaffold",
          {"modules", static_cast<int64_t>(scaffold.module_indices.size())});
  std::vector<pml::TokenRun> runs;
  for (int mi : scaffold.module_indices) {
    for (pml::TokenRun& run : schema.module_own_runs(mi)) {
      runs.push_back(std::move(run));
    }
  }
  std::vector<TokenId> tokens;
  std::vector<int> pos_ids;
  for (const pml::TokenRun& run : runs) {
    for (size_t i = 0; i < run.tokens.size(); ++i) {
      tokens.push_back(run.tokens[i]);
      pos_ids.push_back(run.start_pos + static_cast<int>(i));
    }
  }

  KVCache kv = model_.make_cache();
  if (!tokens.empty()) {
    kv.reserve(static_cast<int>(tokens.size()));
    model_.encode(tokens, pos_ids, kv);  // shared attention span
  }
  return finalize_encoding(std::move(kv), runs);
}

void PromptCacheEngine::encode_module(const pml::Schema& schema, int mi) {
  const std::string key = module_key(schema, mi);
  if (store_.contains(key)) return;
  bool encoded_here = false;
  (void)store_.ensure(
      key, [&] { return build_module_payload(schema, mi); }, &encoded_here);
  if (encoded_here) cells_.modules_encoded.inc();
}

void PromptCacheEngine::encode_scaffold(const pml::Schema& schema,
                                        const Scaffold& scaffold) {
  if (store_.contains(scaffold.key)) return;
  bool encoded_here = false;
  (void)store_.ensure(
      scaffold.key, [&] { return build_scaffold_payload(schema, scaffold); },
      &encoded_here);
  if (encoded_here) cells_.scaffolds_encoded.inc();
}

pml::PromptBinding PromptCacheEngine::bind(std::string_view prompt_pml) const {
  const pml::PromptAst ast = pml::parse_prompt(prompt_pml);
  const pml::Schema* schema = find_schema(ast.schema_name);
  if (schema == nullptr) {
    throw SchemaError("prompt references schema '" + ast.schema_name +
                      "' which has not been loaded");
  }
  return pml::bind_prompt(*schema, ast, tokenizer_);
}

std::vector<const PromptCacheEngine::Scaffold*>
PromptCacheEngine::active_scaffolds(const pml::PromptBinding& binding,
                                    std::vector<bool>* covered) const {
  covered->assign(binding.schema->modules.size(), false);
  std::vector<bool> included(binding.schema->modules.size(), false);
  for (int mi : binding.modules) included[static_cast<size_t>(mi)] = true;

  std::vector<const Scaffold*> active;
  for (const Scaffold& s : scaffolds_) {
    if (s.schema_name != binding.schema->name) continue;
    bool all = true;
    for (int mi : s.module_indices) {
      if (!included[static_cast<size_t>(mi)] ||
          (*covered)[static_cast<size_t>(mi)]) {
        all = false;
        break;
      }
    }
    if (!all) continue;
    for (int mi : s.module_indices) (*covered)[static_cast<size_t>(mi)] = true;
    active.push_back(&s);
  }
  return active;
}

double PromptCacheEngine::ensure_encoded(const pml::PromptBinding& binding,
                                         const CancellationToken& cancel) {
  PC_SPAN("ensure_encoded",
          {"modules", static_cast<int64_t>(binding.modules.size())});
  WallTimer timer;
  const auto check_cancel = [&] {
    if (cancel.expired()) {
      throw CancelledError(
          "ensure_encoded: deadline expired before module encode");
    }
  };
  std::vector<bool> covered;
  const auto active = active_scaffolds(binding, &covered);
  for (const Scaffold* s : active) {
    check_cancel();
    encode_scaffold(*binding.schema, *s);
  }
  for (int mi : binding.modules) {
    if (!covered[static_cast<size_t>(mi)]) {
      check_cancel();
      encode_module(*binding.schema, mi);
    }
  }
  return timer.elapsed_ms();
}

void PromptCacheEngine::for_each_encoded(
    const pml::PromptBinding& binding,
    const std::function<void(const std::string& key,
                             const EncodedModule& module,
                             ModuleLocation location)>& emit,
    ModuleBorrows* borrows) {
  std::vector<bool> covered;
  const auto active = active_scaffolds(binding, &covered);

  std::vector<bool> scaffold_done(active.size(), false);
  auto scaffold_of = [&](int mi) -> size_t {
    for (size_t si = 0; si < active.size(); ++si) {
      const auto& members = active[si]->module_indices;
      if (std::find(members.begin(), members.end(), mi) != members.end()) {
        return si;
      }
    }
    PC_CHECK_MSG(false, "covered module without scaffold");
    return 0;
  };

  for (int mi : binding.modules) {
    const bool is_scaffold = covered[static_cast<size_t>(mi)];
    std::string key;
    if (is_scaffold) {
      const size_t si = scaffold_of(mi);
      if (scaffold_done[si]) continue;
      scaffold_done[si] = true;
      key = active[si]->key;
    } else {
      key = module_key(*binding.schema, mi);
    }

    // One lookup-or-encode per module. With `borrows` (zero-copy), lookup
    // and pin are one atomic step and the holder keeps the ref past this
    // loop, so rows the view borrows can neither dangle (ref) nor be
    // evicted out from under other requests (pin).
    bool encoded_here = false;
    SharedModuleStore::ModuleRef ref = store_.ensure(
        key,
        [&]() -> EncodedModule {
          // Evicted since the ensure pass (cache thrash): re-encode.
          cells_.thrash_reencodes.inc();
          if (is_scaffold) {
            return build_scaffold_payload(*binding.schema,
                                          *active[scaffold_of(mi)]);
          }
          return build_module_payload(*binding.schema, mi);
        },
        &encoded_here, /*and_pin=*/borrows != nullptr);
    if (encoded_here) {
      (is_scaffold ? cells_.scaffolds_encoded : cells_.modules_encoded).inc();
    }
    if (borrows != nullptr) borrows->adopt(store_, key, ref);
    emit(key, *ref, ref.location());
  }
}

std::vector<std::string> PromptCacheEngine::module_keys(
    const pml::PromptBinding& binding) const {
  std::vector<bool> covered;
  const auto active = active_scaffolds(binding, &covered);
  std::vector<bool> scaffold_done(active.size(), false);

  std::vector<std::string> keys;
  keys.reserve(binding.modules.size());
  for (int mi : binding.modules) {
    if (covered[static_cast<size_t>(mi)]) {
      for (size_t si = 0; si < active.size(); ++si) {
        const auto& members = active[si]->module_indices;
        if (std::find(members.begin(), members.end(), mi) == members.end()) {
          continue;
        }
        if (!scaffold_done[si]) {
          scaffold_done[si] = true;
          keys.push_back(active[si]->key);
        }
        break;
      }
    } else {
      keys.push_back(module_key(*binding.schema, mi));
    }
  }
  return keys;
}

namespace {

// One module's text rows into a sequence cache, copied as stored or
// borrowed in place; attention reads both the same way, so the two differ
// only in where the bytes live and what they are charged as: a copy's
// stored bytes by the tier they came from, a borrow's as bytes_zero_copy.
// fp16 rows convert to fp32 own rows and cannot be borrowed.
void append_module_rows(const std::string& key, const EncodedModule& m,
                        ModuleLocation loc, ModuleRows how, KVCache& cache,
                        TtftBreakdown* ttft) {
  PC_CHECK_MSG(m.kv_dim == cache.kv_dim() && m.n_layers == cache.n_layers(),
               "module '" << key << "' does not match the cache's geometry");
  PC_CHECK_MSG(how == ModuleRows::kCopy ||
                   m.precision != StorePrecision::kFp16,
               "borrowing requires kFp32, kQ8, or kQ4 module storage (module '"
                   << key << "' is stored as fp16, which has no in-place "
                   << "attention kernel)");
  if (ttft != nullptr) ++ttft->modules;
  for (const auto& [begin, end] : m.text_row_ranges) {
    switch (m.precision) {
      case StorePrecision::kFp32:
        if (how == ModuleRows::kCopy) {
          cache.append_range(*m.kv32, begin, end);
        } else {
          cache.borrow_rows(*m.kv32, begin, end);
        }
        break;
      case StorePrecision::kFp16: {
        const int first = cache.append_tokens(std::span<const int>(
            m.pos_ids.data() + begin, static_cast<size_t>(end - begin)));
        const size_t row_elems = static_cast<size_t>(m.kv_dim);
        for (int l = 0; l < m.n_layers; ++l) {
          const auto& layer = m.kv16_layers[static_cast<size_t>(l)];
          for (int t = begin; t < end; ++t) {
            float* kd = cache.k_row(l, first + (t - begin));
            float* vd = cache.v_row(l, first + (t - begin));
            const size_t off = static_cast<size_t>(t) * row_elems;
            for (size_t e = 0; e < row_elems; ++e) {
              kd[e] = half_to_float(layer.k[off + e]);
              vd[e] = half_to_float(layer.v[off + e]);
            }
          }
        }
        break;
      }
      case StorePrecision::kQ8:
        cache.append_rows(m.kv8_layers, m.pos_ids, begin, end, how);
        break;
      case StorePrecision::kQ4:
        cache.append_rows(m.kv4_layers, m.pos_ids, begin, end, how);
        break;
    }
    if (ttft != nullptr) {
      const size_t bytes =
          m.bytes_per_token() * static_cast<size_t>(end - begin);
      ttft->cached_tokens += end - begin;
      if (how == ModuleRows::kBorrow) {
        ttft->bytes_zero_copy += bytes;
      } else if (loc == ModuleLocation::kHostMemory) {
        ttft->bytes_from_host += bytes;
      } else {
        ttft->bytes_from_device += bytes;
      }
    }
  }
}

// One forward pass over the uncached content. A fully cached prompt still
// needs one computed position to produce logits; we kick off with <s> at
// the next free position.
Tensor prefill_uncached(const Model& model, const pml::PromptBinding& binding,
                        KVCache& cache, TtftBreakdown* ttft) {
  WallTimer uncached_timer;
  UncachedStream stream = collect_uncached(binding);
  if (stream.tokens.empty()) {
    stream.tokens.push_back(Vocab::kBos);
    stream.pos_ids.push_back(binding.next_pos);
  }
  PC_SPAN("prefill", {"tokens", static_cast<int64_t>(stream.tokens.size())});
  Tensor logits = model.forward(stream.tokens, stream.pos_ids, cache);
  if (ttft != nullptr) {
    ttft->uncached_ms = uncached_timer.elapsed_ms();
    ttft->uncached_tokens = static_cast<int>(stream.tokens.size());
  }
  return logits;
}

}  // namespace

void PromptCacheEngine::append_modules(const pml::PromptBinding& binding,
                                       ModuleRows how, int own_budget,
                                       KVCache& cache, ModuleBorrows* borrows,
                                       TtftBreakdown* ttft) {
  WallTimer retrieve_timer;
  {
    PC_SPAN("kv_concat",
            {"modules", static_cast<int64_t>(binding.modules.size())},
            {"zero_copy", how == ModuleRows::kBorrow ? 1 : 0});
    // Copied fp32 and fp16 rows are own rows, so they are reserved too.
    const bool own_copies = how == ModuleRows::kCopy &&
                            (config_.precision == StorePrecision::kFp32 ||
                             config_.precision == StorePrecision::kFp16);
    cache.reserve(cache.own_rows() +
                  (own_copies ? binding.cached_token_count() : 0) +
                  own_budget);
    for_each_encoded(
        binding,
        [&](const std::string& key, const EncodedModule& m,
            ModuleLocation loc) {
          append_module_rows(key, m, loc, how, cache, ttft);
        },
        borrows);
  }
  if (ttft != nullptr) ttft->retrieve_ms = retrieve_timer.elapsed_ms();
}

Tensor PromptCacheEngine::assemble_and_prefill(
    const pml::PromptBinding& binding, KVCache& sequence_cache,
    TtftBreakdown* ttft) {
  append_modules(binding, ModuleRows::kCopy,
                 binding.uncached_token_count() + 64, sequence_cache,
                 nullptr, ttft);
  return prefill_uncached(model_, binding, sequence_cache, ttft);
}

SequenceKV PromptCacheEngine::assemble(const pml::PromptBinding& binding,
                                       ModuleRows how, int max_new_tokens,
                                       TtftBreakdown* ttft) {
  // Decoding stops at the position budget, so max_pos also bounds the
  // generated rows whatever max_new_tokens asks for.
  const int generated =
      std::clamp(max_new_tokens, 0, model_.config().max_pos);
  SequenceKV kv{ModuleBorrows{}, model_.make_cache()};
  append_modules(binding, how,
                 binding.uncached_token_count() + 1 + generated + kTailSlack,
                 kv.cache, how == ModuleRows::kBorrow ? &kv.borrows : nullptr,
                 ttft);
  return kv;
}

ServeResult PromptCacheEngine::serve(std::string_view prompt_pml,
                                     const GenerateOptions& options) {
  PC_SPAN("serve", {"zero_copy", config_.zero_copy ? 1 : 0});
  const pml::PromptBinding binding = [&] {
    PC_SPAN("tokenize_bind");
    return bind(prompt_pml);
  }();

  ServeResult result;
  result.encode_ms = ensure_encoded(binding, options.cancel);

  // The kickoff token (fully cached prompt) occupies next_pos itself.
  const bool kickoff = binding.args.empty() && binding.texts.empty();
  const int gen_start = binding.next_pos + (kickoff ? 1 : 0);

  // Borrowed modules stay pinned until `kv` leaves this scope, on every
  // exit path.
  SequenceKV kv = assemble(
      binding, config_.zero_copy ? ModuleRows::kBorrow : ModuleRows::kCopy,
      options.max_new_tokens, &result.ttft);
  const Tensor logits =
      prefill_uncached(model_, binding, kv.cache, &result.ttft);
  WallTimer decode_timer;
  Model::GenerateOutput gen = [&] {
    PC_SPAN("decode");
    return model_.generate(logits, gen_start, kv.cache, options);
  }();
  if (gen.finish_reason == FinishReason::kCancelled) {
    throw CancelledError("serve: deadline expired mid-decode");
  }
  result.tokens = std::move(gen.tokens);
  result.finish_reason = gen.finish_reason;
  result.prompt_tokens =
      result.ttft.cached_tokens + result.ttft.uncached_tokens;
  result.decode_ms = decode_timer.elapsed_ms();
  result.text = tokenizer_.decode(result.tokens);
  complete_serve(binding, result.ttft);
  return result;
}

void PromptCacheEngine::complete_serve(const pml::PromptBinding& binding,
                                       const TtftBreakdown& ttft) {
  cells_.serves.inc();
  cells_.cached_ttft.record_ms(ttft.total_ms());
  if (!config_.prefetch_union_siblings) return;
  // Off the latency path: warm the alternatives of every union member this
  // prompt used, so the next profile/locale/variant request finds them
  // already in device memory. The store's promotion counter is fleet-global
  // when it is shared, so count this engine's own moves.
  uint64_t moved_here = 0;
  for (int mi : binding.modules) {
    const pml::ModuleNode& m = binding.schema->module(mi);
    if (m.union_id < 0) continue;
    for (int sibling :
         binding.schema->unions[static_cast<size_t>(m.union_id)].members) {
      if (sibling == mi) continue;
      bool moved = false;
      (void)store_.promote(module_key(*binding.schema, sibling),
                           ModuleLocation::kDeviceMemory, &moved);
      if (moved) ++moved_here;
    }
  }
  cells_.sibling_prefetches.inc(moved_here);
}

ServeResult PromptCacheEngine::serve_full_prefill(
    std::string_view prompt_pml, const GenerateOptions& options) {
  cells_.degraded_serves.inc();
  PC_SPAN("serve_degraded");
  const pml::PromptBinding binding = [&] {
    PC_SPAN("tokenize_bind");
    return bind(prompt_pml);
  }();
  if (options.cancel.expired()) {
    throw CancelledError("serve_full_prefill: deadline expired before prefill");
  }

  // Rebuild, in one forward pass and without touching the module store, the
  // exact attention pattern that per-module encoding + concatenation
  // realizes (§3.1): each module — or jointly-encoded scaffold — is one
  // block, parameter-placeholder rows are attended inside their block but
  // hidden from global rows, and the uncached stream attends globally. The
  // blocks are emitted in for_each_encoded's concatenation order, so the
  // rows kept below land in the sequence cache exactly where assembly would
  // have put them.
  std::vector<TokenId> tokens;
  std::vector<int> pos_ids;
  std::vector<int> block_ids;
  std::vector<uint8_t> hidden;
  std::vector<std::pair<int, int>> keep;  // non-placeholder row ranges
  int block = 0;

  const auto emit_rows = [&](std::span<const TokenId> toks, int start_pos,
                             int block_id, bool is_hidden) {
    const int begin = static_cast<int>(tokens.size());
    for (size_t i = 0; i < toks.size(); ++i) {
      tokens.push_back(toks[i]);
      pos_ids.push_back(start_pos + static_cast<int>(i));
      block_ids.push_back(block_id);
      hidden.push_back(is_hidden ? 1 : 0);
    }
    const int end = static_cast<int>(tokens.size());
    if (!is_hidden && end > begin) {
      if (!keep.empty() && keep.back().second == begin) {
        keep.back().second = end;
      } else {
        keep.emplace_back(begin, end);
      }
    }
  };
  const auto emit_module = [&](int mi) {
    for (const pml::TokenRun& run : binding.schema->module_own_runs(mi)) {
      emit_rows(run.tokens, run.start_pos, block, run.is_param);
    }
  };

  std::vector<bool> covered;
  const auto active = active_scaffolds(binding, &covered);
  std::vector<bool> scaffold_done(active.size(), false);
  for (int mi : binding.modules) {
    if (covered[static_cast<size_t>(mi)]) {
      size_t si = 0;
      while (si < active.size()) {
        const auto& members = active[si]->module_indices;
        if (std::find(members.begin(), members.end(), mi) != members.end()) {
          break;
        }
        ++si;
      }
      if (scaffold_done[si]) continue;
      scaffold_done[si] = true;
      ++block;  // scaffold members share one attention block
      for (int mj : active[si]->module_indices) emit_module(mj);
    } else {
      ++block;
      emit_module(mi);
    }
  }

  UncachedStream stream = collect_uncached(binding);
  const bool kickoff = stream.tokens.empty();
  if (kickoff) {
    // Same kickoff rule as serve(): a fully cached prompt still needs one
    // computed position to produce logits.
    stream.tokens.push_back(Vocab::kBos);
    stream.pos_ids.push_back(binding.next_pos);
  }
  for (size_t i = 0; i < stream.tokens.size(); ++i) {
    emit_rows({&stream.tokens[i], 1}, stream.pos_ids[i], Model::kGlobalBlock,
              false);
  }

  ServeResult result;
  result.degraded = true;
  const int n = static_cast<int>(tokens.size());
  std::unique_ptr<bool[]> hidden_arr(new bool[static_cast<size_t>(n)]);
  for (int i = 0; i < n; ++i) {
    hidden_arr[static_cast<size_t>(i)] = hidden[static_cast<size_t>(i)] != 0;
  }

  WallTimer prefill_timer;
  KVCache scratch = model_.make_cache();
  scratch.reserve(n);
  const Tensor logits = [&] {
    PC_SPAN("prefill", {"tokens", static_cast<int64_t>(n)});
    return model_.forward_blocked(
        tokens, pos_ids, block_ids, scratch, false,
        std::span<const bool>(hidden_arr.get(), static_cast<size_t>(n)));
  }();

  // Decode continues from a fresh sequence cache holding exactly the rows
  // the cached path would have assembled (placeholder rows dropped).
  KVCache sequence_cache = model_.make_cache();
  int kept_rows = 0;
  for (const auto& [b, e] : keep) kept_rows += e - b;
  sequence_cache.reserve(kept_rows + options.max_new_tokens + 1);
  for (const auto& [b, e] : keep) sequence_cache.append_range(scratch, b, e);
  result.ttft.uncached_ms = prefill_timer.elapsed_ms();
  result.ttft.uncached_tokens = n;  // everything was recomputed

  const int gen_start = binding.next_pos + (kickoff ? 1 : 0);
  WallTimer decode_timer;
  Model::GenerateOutput gen = [&] {
    PC_SPAN("decode");
    return model_.generate(logits, gen_start, sequence_cache, options);
  }();
  if (gen.finish_reason == FinishReason::kCancelled) {
    throw CancelledError("serve_full_prefill: deadline expired mid-decode");
  }
  result.tokens = std::move(gen.tokens);
  result.finish_reason = gen.finish_reason;
  result.prompt_tokens = n;
  result.decode_ms = decode_timer.elapsed_ms();
  result.text = tokenizer_.decode(result.tokens);
  cells_.degraded_ttft.record_ms(result.ttft.total_ms());
  return result;
}

void PromptCacheEngine::pin_module(const std::string& schema_name,
                                   const std::string& module_name) {
  const pml::Schema* schema = find_schema(schema_name);
  PC_CHECK_MSG(schema != nullptr, "pin_module: unknown schema '"
                                      << schema_name << "'");
  const int mi = schema->find_module(module_name);
  PC_CHECK_MSG(mi != -1, "pin_module: unknown module '" << module_name
                                                        << "'");
  encode_module(*schema, mi);
  const std::string key = module_key(*schema, mi);
  PC_CHECK(store_.pin(key));
}

size_t PromptCacheEngine::save_modules(const std::string& path) const {
  // Crash atomicity: stream into a sibling temp file and rename over the
  // destination only after a successful flush. A crash mid-write leaves the
  // previous store intact and at most a stray .tmp behind — never a
  // truncated store the next load has to kSkipCorrupt through.
  const std::string tmp = path + ".tmp";
  size_t count = 0;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw Error("cannot open '" + tmp + "' for writing");
    try {
      write_store_header(os);
      store_.for_each([&](const std::string& key, const EncodedModule& module,
                          ModuleLocation) {
        write_module_record(os, key, module);
        ++count;
      });
      os.flush();
      if (!os) {
        throw Error("write failure persisting modules to '" + tmp + "'");
      }
    } catch (...) {
      os.close();
      std::remove(tmp.c_str());
      throw;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("cannot rename '" + tmp + "' over '" + path + "'");
  }
  return count;
}

size_t PromptCacheEngine::load_modules(const std::string& path) {
  return load_modules(path, LoadPolicy::kStrict).loaded;
}

PromptCacheEngine::LoadReport PromptCacheEngine::load_modules(
    const std::string& path, LoadPolicy policy) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open '" + path + "' for reading");
  LoadReport report;
  try {
    read_store_header(is);
  } catch (const Error&) {
    if (policy == LoadPolicy::kStrict) throw;
    // Header corrupt: resync on the first record tag and salvage the rest.
    ++report.skipped;
    if (!resync_to_next_record(is)) return report;
  }
  std::string key;
  EncodedModule module;
  for (;;) {
    bool have = false;
    try {
      have = read_module_record(is, &key, &module);
      if (have) {
        PC_CHECK_MSG(module.kv_dim == model_.config().kv_dim() &&
                         module.n_layers == model_.config().n_layers,
                     "persisted module '" << key
                                          << "' does not match this model's "
                                             "geometry");
      }
      // A store holds the engine's format, so one sequence cache never
      // mixes two: an fp32 record is packaged in it below; a record in
      // another reduced format cannot be used.
      if (have && module.precision != StorePrecision::kFp32 &&
          module.precision != config_.precision) {
        throw Error("persisted module '" + key +
                    "' is stored in another reduced format than this "
                    "engine's");
      }
    } catch (const Error&) {
      if (policy == LoadPolicy::kStrict) throw;
      // A skipped record is merely a cache miss: the module is re-encoded
      // lazily the first time a prompt imports it.
      ++report.skipped;
      module = EncodedModule{};
      if (!resync_to_next_record(is)) break;
      continue;
    }
    if (!have) break;
    // A legacy fp32 record is re-encoded in the engine's format on the way
    // in, so footprint accounting sees the engine's configured format.
    if (module.precision == StorePrecision::kFp32) {
      package(module, config_.precision);
    }
    store_.insert(key, std::move(module));
    module = EncodedModule{};
    ++report.loaded;
  }
  return report;
}

std::vector<ServeResult> PromptCacheEngine::serve_batch(
    const std::vector<std::string>& prompts, const GenerateOptions& options,
    BatchStats* stats) {
  std::vector<ServeResult> results;
  results.reserve(prompts.size());

  std::set<std::string> distinct_keys;
  size_t duplicate_bytes = 0;

  for (const std::string& prompt : prompts) {
    // Account module usage before serving (ensure_encoded makes the
    // lookups below hits).
    if (stats != nullptr) {
      const pml::PromptBinding binding = bind(prompt);
      (void)ensure_encoded(binding);
      for_each_encoded(binding, [&](const std::string& key,
                                    const EncodedModule& m, ModuleLocation) {
        if (distinct_keys.insert(key).second) {
          stats->shared_module_bytes += m.payload_bytes();
        } else {
          duplicate_bytes += m.payload_bytes();
        }
      });
    }
    results.push_back(serve(prompt, options));
    if (stats != nullptr) {
      // The copied module rows' stored bytes (none when borrowed) plus the
      // fp32 own rows of the uncached and generated tokens.
      const ServeResult& r = results.back();
      stats->owned_bytes +=
          r.ttft.bytes_from_host + r.ttft.bytes_from_device +
          model_.kv_bytes_per_token() *
              (static_cast<size_t>(r.ttft.uncached_tokens) + r.tokens.size());
    }
  }
  if (stats != nullptr) {
    stats->requests = static_cast<int>(prompts.size());
    stats->duplicate_module_bytes_avoided = duplicate_bytes;
  }
  return results;
}

ServeResult PromptCacheEngine::serve_baseline(std::string_view prompt_pml,
                                              const GenerateOptions& options) {
  cells_.baseline_serves.inc();
  PC_SPAN("serve_baseline");
  const pml::PromptBinding binding = [&] {
    PC_SPAN("tokenize_bind");
    return bind(prompt_pml);
  }();

  ServeResult result;
  const std::vector<TokenId>& tokens = binding.baseline_tokens;
  PC_CHECK_MSG(!tokens.empty(), "baseline prompt is empty");
  PC_CHECK_MSG(static_cast<int>(tokens.size()) < model_.config().max_pos,
               "baseline prompt exceeds max_pos");
  std::vector<int> pos_ids(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) pos_ids[i] = static_cast<int>(i);

  KVCache sequence_cache = model_.make_cache();
  sequence_cache.reserve(static_cast<int>(tokens.size()) +
                         options.max_new_tokens);

  WallTimer prefill_timer;
  const Tensor logits = [&] {
    PC_SPAN("prefill", {"tokens", static_cast<int64_t>(tokens.size())});
    return model_.forward(tokens, pos_ids, sequence_cache);
  }();
  result.ttft.uncached_ms = prefill_timer.elapsed_ms();
  result.ttft.uncached_tokens = static_cast<int>(tokens.size());
  result.prompt_tokens = static_cast<int>(tokens.size());

  WallTimer decode_timer;
  Model::GenerateOutput gen = [&] {
    PC_SPAN("decode");
    return model_.generate(logits, static_cast<int>(tokens.size()),
                           sequence_cache, options);
  }();
  result.tokens = std::move(gen.tokens);
  result.finish_reason = gen.finish_reason;
  result.decode_ms = decode_timer.elapsed_ms();
  result.text = tokenizer_.decode(result.tokens);
  cells_.baseline_ttft.record_ms(result.ttft.total_ms());
  return result;
}

}  // namespace pc
