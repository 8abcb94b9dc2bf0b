// Property-based tests over randomly generated schemas and prompts.
//
// A generator builds random PML schemas (nested modules, unions, params,
// anonymous text) and random conforming prompts (subset imports, union
// choices, arguments, interleaved text). For every (seed) instance we
// check:
//   * layout well-formedness: disjoint extents outside unions, shared
//     union starts, in-range positions;
//   * binding well-formedness: included modules unique, args within
//     budget, next_pos past every used position;
//   * the central equivalence: engine-assembled cached inference —
//     including parameter-argument substitution — is bitwise identical to
//     one block-masked prefill in which <unk> placeholder rows are hidden
//     from global tokens (§3.3);
//   * determinism of serve() and its agreement across copy and zero-copy
//     paths.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <utility>

#include "core/engine.h"
#include "model/model.h"
#include "tensor/ops.h"

namespace pc {
namespace {

struct GeneratedCase {
  std::string schema_pml;
  std::string prompt_pml;
  bool has_args = false;
};

class CaseGenerator {
 public:
  explicit CaseGenerator(uint64_t seed) : rng_(seed) {}

  GeneratedCase generate() {
    GeneratedCase out;
    module_counter_ = 0;
    importable_.clear();

    std::string schema = "<schema name=\"fuzz\">\n";
    const int n_items = static_cast<int>(rng_.uniform_int(2, 5));
    for (int i = 0; i < n_items; ++i) {
      schema += top_level_item();
    }
    schema += "</schema>\n";
    out.schema_pml = std::move(schema);

    // Prompt: a random subset of importable module trees, with text
    // sprinkled between them.
    std::string prompt = "<prompt schema=\"fuzz\">\n";
    bool any = false;
    for (const auto& tree : importable_) {
      if (!rng_.bernoulli(0.7)) continue;
      any = true;
      prompt += render_import(tree, out);
      if (rng_.bernoulli(0.5)) prompt += words(2) + "\n";
    }
    if (!any && !importable_.empty()) {
      prompt += render_import(importable_.front(), out);
    }
    prompt += words(3) + " ?\n</prompt>\n";
    out.prompt_pml = std::move(prompt);
    return out;
  }

 private:
  struct ImportTree {
    std::string name;
    std::vector<std::pair<std::string, int>> params;  // name, budget
    std::vector<std::vector<ImportTree>> unions;      // choose <= 1 each
    std::vector<ImportTree> children;                 // optional nested
  };

  std::string words(int n) {
    static const char* kWords[] = {"the", "cache", "prompt", "state",
                                   "module", "answer", "system", "work",
                                   "light", "water", "paper", "city"};
    std::string out;
    for (int i = 0; i < n; ++i) {
      if (i) out += ' ';
      out += kWords[rng_.next_below(sizeof(kWords) / sizeof(kWords[0]))];
    }
    return out;
  }

  std::string fresh_name() { return "m" + std::to_string(module_counter_++); }

  std::string top_level_item() {
    const double roll = rng_.next_double();
    if (roll < 0.2) {
      return "  " + words(static_cast<int>(rng_.uniform_int(2, 6))) + "\n";
    }
    if (roll < 0.35) {
      // Top-level union of 2-3 leaf modules.
      std::string s = "  <union>\n";
      std::vector<ImportTree> members;
      const int n = static_cast<int>(rng_.uniform_int(2, 3));
      for (int i = 0; i < n; ++i) {
        ImportTree t{fresh_name(), {}, {}, {}};
        s += "    <module name=\"" + t.name + "\">" +
             words(static_cast<int>(rng_.uniform_int(3, 8))) + "</module>\n";
        members.push_back(std::move(t));
      }
      s += "  </union>\n";
      unions_holder_.push_back(std::move(members));
      ImportTree group;  // represent the union via a synthetic chooser
      group.name = "";   // empty name = union choice at top level
      group.unions.push_back(unions_holder_.back());
      importable_.push_back(std::move(group));
      return s;
    }
    // A module, possibly with params and one nested module or union.
    ImportTree tree{fresh_name(), {}, {}, {}};
    std::string s = "  <module name=\"" + tree.name + "\">\n";
    s += "    " + words(static_cast<int>(rng_.uniform_int(3, 8))) + "\n";
    if (rng_.bernoulli(0.4)) {
      const std::string pname = "p" + std::to_string(module_counter_++);
      const int budget = static_cast<int>(rng_.uniform_int(2, 5));
      s += "    <param name=\"" + pname + "\" len=\"" +
           std::to_string(budget) + "\"/>\n";
      tree.params.emplace_back(pname, budget);
    }
    if (rng_.bernoulli(0.35)) {
      ImportTree child{fresh_name(), {}, {}, {}};
      s += "    <module name=\"" + child.name + "\">" +
           words(static_cast<int>(rng_.uniform_int(2, 6))) + "</module>\n";
      tree.children.push_back(std::move(child));
    } else if (rng_.bernoulli(0.3)) {
      std::vector<ImportTree> members;
      s += "    <union>\n";
      for (int i = 0; i < 2; ++i) {
        ImportTree m{fresh_name(), {}, {}, {}};
        s += "      <module name=\"" + m.name + "\">" + words(3) +
             "</module>\n";
        members.push_back(std::move(m));
      }
      s += "    </union>\n";
      tree.unions.push_back(std::move(members));
    }
    s += "    " + words(2) + "\n  </module>\n";
    importable_.push_back(std::move(tree));
    return s;
  }

  std::string render_import(const ImportTree& tree, GeneratedCase& out) {
    if (tree.name.empty()) {
      // Union group: pick at most one member.
      const auto& members = tree.unions.front();
      if (rng_.bernoulli(0.2)) return "";  // skip the union entirely
      const ImportTree& pick =
          members[rng_.next_below(members.size())];
      return render_import(pick, out);
    }
    std::string s = "<" + tree.name;
    for (const auto& [pname, budget] : tree.params) {
      if (!rng_.bernoulli(0.7)) continue;
      const int n = static_cast<int>(rng_.uniform_int(1, budget));
      s += " " + pname + "=\"" + words(n) + "\"";
      out.has_args = true;
    }
    std::string inner;
    for (const auto& child : tree.children) {
      if (rng_.bernoulli(0.6)) inner += render_import(child, out);
    }
    for (const auto& members : tree.unions) {
      if (rng_.bernoulli(0.3)) continue;
      inner += render_import(members[rng_.next_below(members.size())], out);
    }
    if (inner.empty()) return s + "/>\n";
    return s + ">\n" + inner + "</" + tree.name + ">\n";
  }

  Rng rng_;
  int module_counter_ = 0;
  std::vector<ImportTree> importable_;
  std::vector<std::vector<ImportTree>> unions_holder_;
};

class PropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  PropertyTest()
      : tokenizer_(Vocab::basic_english()),
        model_([] {
          ModelConfig c = ModelConfig::llama_tiny(
              Vocab::basic_english().size(), 1024);
          c.d_model = 96;
          c.n_layers = 2;
          c.n_heads = 4;
          c.n_kv_heads = 2;
          c.d_head = 24;
          c.d_ff = 128;
          return Model::random(c, 77);
        }()) {}

  Tokenizer tokenizer_;
  Model model_;
};

TEST_P(PropertyTest, LayoutAndBindingInvariants) {
  CaseGenerator gen(GetParam());
  const GeneratedCase c = gen.generate();

  PromptCacheEngine engine(model_, tokenizer_);
  const pml::Schema& schema = engine.load_schema(c.schema_pml);

  // Layout: every module's extent is in range and consistent.
  for (const auto& m : schema.modules) {
    EXPECT_GE(m.start_pos, 0);
    EXPECT_LE(m.start_pos, m.end_pos);
    EXPECT_LE(m.end_pos, schema.total_positions);
    for (const auto& piece : m.pieces) {
      EXPECT_GE(piece.start_pos, m.start_pos);
      EXPECT_LE(piece.start_pos + static_cast<int>(piece.tokens.size()),
                m.end_pos);
    }
  }
  // Union members share starts; non-union top-level siblings are disjoint.
  for (const auto& u : schema.unions) {
    for (int mi : u.members) {
      EXPECT_EQ(schema.module(mi).start_pos, u.start_pos);
      EXPECT_LE(schema.module(mi).end_pos, u.end_pos);
    }
  }

  const pml::PromptBinding binding = engine.bind(c.prompt_pml);
  // No module included twice.
  std::vector<int> mods = binding.modules;
  std::sort(mods.begin(), mods.end());
  EXPECT_TRUE(std::adjacent_find(mods.begin(), mods.end()) == mods.end());
  // At most one member per union.
  for (const auto& u : schema.unions) {
    int used = 0;
    for (int mi : u.members) {
      if (std::find(mods.begin(), mods.end(), mi) != mods.end()) ++used;
    }
    EXPECT_LE(used, 1);
  }
  // Args respect budgets; next_pos covers everything.
  for (const auto& a : binding.args) {
    const auto& p = schema.module(a.module_index)
                        .params[static_cast<size_t>(a.param_index)];
    EXPECT_LE(static_cast<int>(a.tokens.size()), p.max_len);
    EXPECT_LE(a.start_pos + static_cast<int>(a.tokens.size()),
              binding.next_pos);
  }
  for (const auto& t : binding.texts) {
    EXPECT_LE(t.start_pos + static_cast<int>(t.tokens.size()),
              binding.next_pos);
  }
  EXPECT_EQ(static_cast<int>(binding.baseline_tokens.size()),
            binding.cached_token_count() + binding.uncached_token_count());
}

TEST_P(PropertyTest, CachedEqualsBlockedPrefill) {
  CaseGenerator gen(GetParam());
  const GeneratedCase c = gen.generate();

  // Bitwise fp32 regression guard: must stay fp32 even when the suite runs
  // with PC_KV_FORMAT=q8 (quantized retrieval is covered by its own tests).
  EngineConfig fp32;
  fp32.precision = StorePrecision::kFp32;
  PromptCacheEngine engine(model_, tokenizer_, fp32);
  engine.load_schema(c.schema_pml);
  const pml::PromptBinding binding = engine.bind(c.prompt_pml);

  KVCache cached = model_.make_cache();
  const Tensor cached_logits =
      engine.assemble_and_prefill(binding, cached, nullptr);

  // Blocked reference in ONE forward. Module rows (including <unk>
  // placeholder rows) use per-module blocks; placeholder rows are
  // additionally hidden from global tokens — module encoding attends to
  // them, but they are never copied into the serving cache (§3.3).
  // Arguments and texts are global rows in position order, exactly as the
  // engine's uncached pass orders them.
  std::vector<TokenId> tokens;
  std::vector<int> pos;
  std::vector<int> blocks;
  std::vector<uint8_t> hidden;            // bool, vector<bool> has no data()
  std::vector<int> engine_row_of;         // reference row -> cached row
  int block = 0;
  int engine_rows = 0;
  for (int mi : binding.modules) {
    ++block;
    for (const pml::TokenRun& run : binding.schema->module_own_runs(mi)) {
      for (size_t i = 0; i < run.tokens.size(); ++i) {
        tokens.push_back(run.tokens[i]);
        pos.push_back(run.start_pos + static_cast<int>(i));
        blocks.push_back(block);
        hidden.push_back(run.is_param ? 1 : 0);
        engine_row_of.push_back(run.is_param ? -1 : engine_rows++);
      }
    }
  }
  struct Seg {
    int start;
    int seq;
    const std::vector<TokenId>* toks;
  };
  std::vector<Seg> segs;
  int seq = 0;
  for (const pml::BoundArg& a : binding.args) {
    segs.push_back({a.start_pos, seq++, &a.tokens});
  }
  for (const pml::BoundText& t : binding.texts) {
    segs.push_back({t.start_pos, seq++, &t.tokens});
  }
  std::sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
    return a.start != b.start ? a.start < b.start : a.seq < b.seq;
  });
  for (const Seg& s : segs) {
    for (size_t i = 0; i < s.toks->size(); ++i) {
      tokens.push_back((*s.toks)[i]);
      pos.push_back(s.start + static_cast<int>(i));
      blocks.push_back(Model::kGlobalBlock);
      hidden.push_back(0);
      engine_row_of.push_back(engine_rows++);
    }
  }
  if (tokens.empty()) GTEST_SKIP() << "degenerate empty prompt";

  // std::span<const bool> over vector<bool> is impossible; use a plain
  // bool array copy.
  std::unique_ptr<bool[]> hidden_arr(new bool[hidden.size()]);
  for (size_t i = 0; i < hidden.size(); ++i) hidden_arr[i] = hidden[i] != 0;

  KVCache reference = model_.make_cache();
  const Tensor ref_logits = model_.forward_blocked(
      tokens, pos, blocks, reference,
      std::span<const bool>(hidden_arr.get(), hidden.size()));

  ASSERT_EQ(cached.size(), engine_rows);
  EXPECT_EQ(max_abs_diff(cached_logits, ref_logits), 0.0f);
  // Row-level equality for every non-placeholder row.
  for (int rref = 0; rref < reference.size(); ++rref) {
    const int rcached = engine_row_of[static_cast<size_t>(rref)];
    if (rcached < 0) continue;
    ASSERT_EQ(reference.pos_id(rref), cached.pos_id(rcached));
    for (int l = 0; l < model_.config().n_layers; ++l) {
      for (int e = 0; e < model_.config().kv_dim(); ++e) {
        ASSERT_EQ(reference.k_row(l, rref)[e],
                  std::as_const(cached).k_row(l, rcached)[e])
            << "row " << rref;
        ASSERT_EQ(reference.v_row(l, rref)[e],
                  std::as_const(cached).v_row(l, rcached)[e]);
      }
    }
  }
}

TEST_P(PropertyTest, ServeIsDeterministicAndPathsAgree) {
  CaseGenerator gen(GetParam());
  const GeneratedCase c = gen.generate();

  GenerateOptions opts;
  opts.max_new_tokens = 4;
  opts.stop_tokens.clear();

  EngineConfig copy;
  copy.zero_copy = false;
  PromptCacheEngine engine(model_, tokenizer_, copy);
  engine.load_schema(c.schema_pml);
  const ServeResult a = engine.serve(c.prompt_pml, opts);
  const ServeResult b = engine.serve(c.prompt_pml, opts);
  EXPECT_EQ(a.tokens, b.tokens);

  PromptCacheEngine zero(model_, tokenizer_);
  zero.load_schema(c.schema_pml);
  const ServeResult z = zero.serve(c.prompt_pml, opts);
  EXPECT_EQ(z.tokens, a.tokens);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(1, 17));

}  // namespace
}  // namespace pc
