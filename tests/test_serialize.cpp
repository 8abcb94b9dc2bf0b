// Tests for module persistence: round trips at every storage precision,
// serving from restored state without re-encoding, and loud failure on
// corrupt input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/serialize.h"
#include "eval/workload.h"
#include "model/induction.h"

namespace pc {
namespace {

class SerializeTest : public ::testing::TestWithParam<StorePrecision> {
 protected:
  SerializeTest()
      : workload_(7),
        model_(make_induction_model({workload_.vocab().size(), 256})) {}

  EngineConfig config() const {
    EngineConfig cfg;
    cfg.precision = GetParam();
    return cfg;
  }

  GenerateOptions answer_options() const {
    GenerateOptions o;
    o.max_new_tokens = 6;
    o.stop_tokens = {workload_.stop_token()};
    return o;
  }

  std::string temp_path() const {
    return ::testing::TempDir() + "pc_modules_" +
           std::to_string(static_cast<int>(GetParam())) + ".bin";
  }

  static constexpr const char* kSchema = R"(
    <schema name="s">
      <module name="doc1">w00 w01 q05 a10 a11 . w02</module>
      <module name="doc2">w03 q06 a12 a13 . w04</module>
      <module name="plan">w05 <param name="x" len="3"/> w06</module>
    </schema>)";
  static constexpr const char* kPrompt =
      R"(<prompt schema="s"><doc1/><doc2/> question: q06</prompt>)";

  AccuracyWorkload workload_;
  Model model_;
};

TEST_P(SerializeTest, SaveThenLoadServesWithoutReencoding) {
  const std::string path = temp_path();
  {
    PromptCacheEngine writer(model_, workload_.tokenizer(), config());
    writer.load_schema(kSchema);
    EXPECT_EQ(writer.save_modules(path), 3u);
  }

  EngineConfig cfg = config();
  cfg.eager_encode = false;
  PromptCacheEngine reader(model_, workload_.tokenizer(), cfg);
  reader.load_schema(kSchema);  // schema metadata only, no encoding
  EXPECT_EQ(reader.stats().modules_encoded, 0u);
  EXPECT_EQ(reader.load_modules(path), 3u);

  const ServeResult r = reader.serve(kPrompt, answer_options());
  EXPECT_EQ(r.text, "a12 a13");
  EXPECT_EQ(reader.stats().modules_encoded, 0u)
      << "serving must use the restored states, not re-encode";
  std::remove(path.c_str());
}

TEST_P(SerializeTest, RestoredStatesAreBitwiseEquivalent) {
  PromptCacheEngine writer(model_, workload_.tokenizer(), config());
  writer.load_schema(kSchema);

  std::stringstream stream;
  write_store_header(stream);
  size_t written = 0;
  writer.store().for_each([&](const std::string& key,
                              const EncodedModule& module, ModuleLocation) {
    write_module_record(stream, key, module);
    ++written;
  });
  ASSERT_EQ(written, 3u);

  read_store_header(stream);
  std::string key;
  EncodedModule m;
  size_t read_count = 0;
  while (read_module_record(stream, &key, &m)) {
    ++read_count;
    const SharedModuleStore::ModuleRef orig = writer.store().find(key);
    ASSERT_TRUE(orig) << key;
    EXPECT_EQ(m.precision, orig->precision);
    EXPECT_EQ(m.n_tokens, orig->n_tokens);
    EXPECT_EQ(m.text_row_ranges, orig->text_row_ranges);
    EXPECT_EQ(m.payload_bytes(), orig->payload_bytes());
    if (m.precision == StorePrecision::kFp32) {
      for (int l = 0; l < m.n_layers; ++l) {
        for (int t = 0; t < m.n_tokens; ++t) {
          for (int e = 0; e < m.kv_dim; ++e) {
            ASSERT_EQ(m.kv32->k_row(l, t)[e], orig->kv32->k_row(l, t)[e]);
            ASSERT_EQ(m.kv32->v_row(l, t)[e], orig->kv32->v_row(l, t)[e]);
          }
        }
      }
    } else if (m.precision == StorePrecision::kQ8) {
      // Quantized records restore the exact int8 payload and per-row
      // scales — the int8-domain attention path then reproduces the
      // pre-save scores bit for bit.
      ASSERT_EQ(m.kv8_layers.size(), orig->kv8_layers.size());
      for (size_t l = 0; l < m.kv8_layers.size(); ++l) {
        EXPECT_EQ(m.kv8_layers[l].k, orig->kv8_layers[l].k) << "layer " << l;
        EXPECT_EQ(m.kv8_layers[l].v, orig->kv8_layers[l].v) << "layer " << l;
        EXPECT_EQ(m.kv8_layers[l].k_scales, orig->kv8_layers[l].k_scales);
        EXPECT_EQ(m.kv8_layers[l].v_scales, orig->kv8_layers[l].v_scales);
      }
    } else if (m.precision == StorePrecision::kQ4) {
      // Q4_0 records restore the exact packed nibbles and per-block scales.
      ASSERT_EQ(m.kv4_layers.size(), orig->kv4_layers.size());
      for (size_t l = 0; l < m.kv4_layers.size(); ++l) {
        EXPECT_EQ(m.kv4_layers[l].k, orig->kv4_layers[l].k) << "layer " << l;
        EXPECT_EQ(m.kv4_layers[l].v, orig->kv4_layers[l].v) << "layer " << l;
        EXPECT_EQ(m.kv4_layers[l].k_scales, orig->kv4_layers[l].k_scales);
        EXPECT_EQ(m.kv4_layers[l].v_scales, orig->kv4_layers[l].v_scales);
      }
    }
  }
  EXPECT_EQ(read_count, 3u);
}

TEST_P(SerializeTest, CorruptionIsDetected) {
  PromptCacheEngine writer(model_, workload_.tokenizer(), config());
  writer.load_schema(kSchema);
  const std::string path = temp_path();
  writer.save_modules(path);

  // Flip one payload byte near the end of the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    f.seekp(size - 32);
    char c;
    f.seekg(size - 32);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(size - 32);
    f.write(&c, 1);
  }
  PromptCacheEngine reader(model_, workload_.tokenizer(), config());
  EXPECT_THROW(reader.load_modules(path), Error);
  std::remove(path.c_str());
}

TEST_P(SerializeTest, TruncationAndBadHeaderAreDetected) {
  PromptCacheEngine writer(model_, workload_.tokenizer(), config());
  writer.load_schema(kSchema);
  const std::string path = temp_path();
  writer.save_modules(path);

  // Truncate the file in the middle of a record.
  std::string contents;
  {
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    contents = ss.str();
  }
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(contents.data(), static_cast<long>(contents.size() / 2));
  }
  PromptCacheEngine reader(model_, workload_.tokenizer(), config());
  EXPECT_THROW(reader.load_modules(path), Error);

  // Garbage header.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "not a module store";
  }
  EXPECT_THROW(reader.load_modules(path), Error);
  EXPECT_THROW(reader.load_modules(path + ".does-not-exist"), Error);
  std::remove(path.c_str());
}

// Fuzz the snapshot: random single-byte corruptions anywhere in the file
// must fail loudly (pc::Error) or — only when the flip lands outside every
// checked field AND the checksum (practically impossible since the checksum
// covers all payload bytes) — load cleanly. Never crash.
TEST_P(SerializeTest, RandomCorruptionFailsLoudly) {
  PromptCacheEngine writer(model_, workload_.tokenizer(), config());
  writer.load_schema(kSchema);
  const std::string path = temp_path();
  writer.save_modules(path);

  std::string contents;
  {
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    contents = ss.str();
  }

  Rng rng(static_cast<uint64_t>(GetParam()) + 99);
  int rejected = 0;
  for (int trial = 0; trial < 25; ++trial) {
    std::string mutated = contents;
    const size_t at = rng.next_below(mutated.size());
    mutated[at] = static_cast<char>(mutated[at] ^
                                    (1u << rng.next_below(8)));
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(mutated.data(), static_cast<long>(mutated.size()));
    }
    PromptCacheEngine reader(model_, workload_.tokenizer(), config());
    try {
      (void)reader.load_modules(path);
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 24);  // at most a bit flip in trailing slack survives
  std::remove(path.c_str());
}

// Recovery policy (LoadPolicy::kSkipCorrupt): a flipped bit in one record
// must cost exactly that record — the loader resyncs on the next record
// tag, loads the rest, and the skipped module is re-encoded lazily.
TEST_P(SerializeTest, RecoveryPolicySkipsBitFlippedRecord) {
  PromptCacheEngine writer(model_, workload_.tokenizer(), config());
  writer.load_schema(kSchema);
  const std::string path = temp_path();
  ASSERT_EQ(writer.save_modules(path), 3u);

  // Corrupt the first record's checksum: locate the second record tag
  // ("PDCM" on the wire) and flip a byte just before it.
  std::string contents;
  {
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    contents = ss.str();
  }
  const size_t first = contents.find("PDCM");
  ASSERT_NE(first, std::string::npos);
  const size_t second = contents.find("PDCM", first + 4);
  ASSERT_NE(second, std::string::npos);
  contents[second - 4] = static_cast<char>(contents[second - 4] ^ 0x5a);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(contents.data(), static_cast<long>(contents.size()));
  }

  EngineConfig cfg = config();
  cfg.eager_encode = false;
  {
    PromptCacheEngine strict(model_, workload_.tokenizer(), cfg);
    strict.load_schema(kSchema);
    EXPECT_THROW(strict.load_modules(path), Error);
  }

  PromptCacheEngine reader(model_, workload_.tokenizer(), cfg);
  reader.load_schema(kSchema);
  const PromptCacheEngine::LoadReport report =
      reader.load_modules(path, PromptCacheEngine::LoadPolicy::kSkipCorrupt);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.loaded, 2u);

  // The missing module is a cache miss, not an outage: serving re-encodes
  // it and the answer matches a fully fresh engine.
  PromptCacheEngine reference(model_, workload_.tokenizer(), config());
  reference.load_schema(kSchema);
  EXPECT_EQ(reader.serve(kPrompt, answer_options()).tokens,
            reference.serve(kPrompt, answer_options()).tokens);
  std::remove(path.c_str());
}

TEST_P(SerializeTest, RecoveryPolicySalvagesTruncatedFile) {
  PromptCacheEngine writer(model_, workload_.tokenizer(), config());
  writer.load_schema(kSchema);
  const std::string path = temp_path();
  ASSERT_EQ(writer.save_modules(path), 3u);

  std::string contents;
  {
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    contents = ss.str();
  }
  // Cut mid-file: the record under the cut is lost, everything before it
  // must still load.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(contents.data(), static_cast<long>(contents.size() / 2));
  }

  EngineConfig cfg = config();
  cfg.eager_encode = false;
  PromptCacheEngine reader(model_, workload_.tokenizer(), cfg);
  reader.load_schema(kSchema);
  const PromptCacheEngine::LoadReport report =
      reader.load_modules(path, PromptCacheEngine::LoadPolicy::kSkipCorrupt);
  EXPECT_GE(report.loaded, 1u);
  EXPECT_LE(report.loaded, 2u);
  EXPECT_GE(report.skipped, 1u);

  PromptCacheEngine reference(model_, workload_.tokenizer(), config());
  reference.load_schema(kSchema);
  EXPECT_EQ(reader.serve(kPrompt, answer_options()).tokens,
            reference.serve(kPrompt, answer_options()).tokens);
  std::remove(path.c_str());
}

// The encoded modules of a small schema (one with a parameter) at
// `precision`, as an engine stores them.
std::vector<std::pair<std::string, EncodedModule>> encoded_modules(
    StorePrecision precision) {
  AccuracyWorkload workload(7);
  const Model model = make_induction_model({workload.vocab().size(), 256});
  EngineConfig cfg;
  cfg.precision = precision;
  PromptCacheEngine engine(model, workload.tokenizer(), cfg);
  engine.load_schema(R"(
    <schema name="f">
      <module name="doc">w00 w01 q05 a10 a11 . w02 w03 w04 w05</module>
      <module name="plan">w05 <param name="x" len="3"/> w06 w07</module>
    </schema>)");
  std::vector<std::pair<std::string, EncodedModule>> out;
  engine.store().for_each(
      [&](const std::string& key, const EncodedModule& m, ModuleLocation) {
        out.emplace_back(key, m);
      });
  return out;
}

// Whether m's row ranges, position ids and payload sizes all agree with
// its n_tokens, kv_dim and n_layers.
bool consistent(const EncodedModule& m) {
  int floor = 0;
  for (const auto& [b, e] : m.text_row_ranges) {
    if (b < floor || b > e || e > m.n_tokens) return false;
    floor = e;
  }
  for (const auto& p : m.params) {
    if (p.row_begin < 0 || p.row_begin > p.row_end || p.row_end > m.n_tokens) {
      return false;
    }
  }
  const size_t n = static_cast<size_t>(m.n_tokens);
  const size_t layers = static_cast<size_t>(m.n_layers);
  const size_t elems = n * static_cast<size_t>(m.kv_dim);
  const auto sized = [&](const auto& layer_list, size_t rows, size_t scales) {
    if (m.pos_ids.size() != n || layer_list.size() != layers) return false;
    for (const auto& layer : layer_list) {
      if (layer.k.size() != rows || layer.v.size() != rows) return false;
      if constexpr (!std::is_same_v<std::decay_t<decltype(layer)>,
                                    EncodedModule::F16Layer>) {
        if (layer.k_scales.size() != scales ||
            layer.v_scales.size() != scales) {
          return false;
        }
      }
    }
    return true;
  };
  switch (m.precision) {
    case StorePrecision::kFp32:
      return m.kv32.has_value() && m.kv32->size() == m.n_tokens &&
             m.kv32->kv_dim() == m.kv_dim &&
             m.kv32->n_layers() == m.n_layers &&
             m.kv32->pos_ids().size() == n;
    case StorePrecision::kFp16:
      return sized(m.kv16_layers, elems, 0);
    case StorePrecision::kQ8:
      return sized(m.kv8_layers, elems, n);
    case StorePrecision::kQ4:
      return sized(m.kv4_layers, n * q4_row_bytes(m.kv_dim),
                   n * static_cast<size_t>(q4_blocks(m.kv_dim)));
  }
  return false;
}

// One structure-aware edit of a record's fields: the precision tag, a
// geometry field, a row range or param, the position ids, or the length of
// a per-layer vector, scale array or layer list.
void mutate(EncodedModule& m, Rng& rng) {
  // A value next to v, or one far off it (within int's range).
  const auto nudge = [&](int v) -> int {
    const int64_t wide = v;
    int64_t out = 0;
    switch (rng.next_below(6)) {
      case 0:
        out = wide + 1;
        break;
      case 1:
        out = wide - 1;
        break;
      case 2:
        out = 0;
        break;
      case 3:
        out = -1 - static_cast<int64_t>(rng.next_below(4));
        break;
      case 4:
        out = 2 * wide + static_cast<int64_t>(rng.next_below(4096));
        break;
      default:
        out = std::numeric_limits<int>::max() -
              static_cast<int64_t>(rng.next_below(8));
        break;
    }
    return static_cast<int>(
        std::clamp<int64_t>(out, std::numeric_limits<int>::min(),
                            std::numeric_limits<int>::max()));
  };
  const auto resize = [&](auto& v) {
    const size_t n = v.size();
    const size_t sizes[] = {n + 1, n > 0 ? n - 1 : 0, 0, 2 * n, n / 2};
    v.resize(sizes[rng.next_below(5)]);
  };
  const auto pick = [&](auto& list) -> auto& {
    return list[rng.next_below(list.size())];
  };
  switch (rng.next_below(9)) {
    case 0:  // includes two tags past the last format
      m.precision = static_cast<StorePrecision>(rng.next_below(6));
      break;
    case 1:
      m.n_tokens = nudge(m.n_tokens);
      break;
    case 2:
      m.kv_dim = nudge(m.kv_dim);
      break;
    case 3:
      m.n_layers = nudge(m.n_layers);
      break;
    case 4:
      if (m.text_row_ranges.empty() || rng.bernoulli(0.25)) {
        m.text_row_ranges.emplace_back(nudge(m.n_tokens), nudge(m.n_tokens));
      } else if (m.text_row_ranges.size() > 1 && rng.bernoulli(0.3)) {
        std::swap(m.text_row_ranges.front(), m.text_row_ranges.back());
      } else {
        auto& [b, e] = pick(m.text_row_ranges);
        (rng.bernoulli(0.5) ? b : e) = nudge(rng.bernoulli(0.5) ? b : e);
      }
      break;
    case 5:
      if (m.params.empty() || rng.bernoulli(0.25)) {
        m.params.push_back({0, nudge(m.n_tokens), nudge(m.n_tokens)});
      } else {
        EncodedModule::ParamSlot& p = pick(m.params);
        (rng.bernoulli(0.5) ? p.row_begin : p.row_end) = nudge(p.row_end);
      }
      break;
    case 6:
      if (m.kv32.has_value()) {
        const int n = m.kv32->size();
        if (n > 0 && rng.bernoulli(0.5)) {
          m.kv32->truncate(n - 1);
        } else {
          const int pos = n;
          m.kv32->append_tokens({&pos, 1});
        }
      } else {
        resize(m.pos_ids);
      }
      break;
    case 7:
      if (!m.kv8_layers.empty()) {
        Q8Layer& l = pick(m.kv8_layers);
        switch (rng.next_below(4)) {
          case 0: resize(l.k); break;
          case 1: resize(l.v); break;
          case 2: resize(l.k_scales); break;
          default: resize(l.v_scales); break;
        }
      } else if (!m.kv4_layers.empty()) {
        Q4Layer& l = pick(m.kv4_layers);
        switch (rng.next_below(4)) {
          case 0: resize(l.k); break;
          case 1: resize(l.v); break;
          case 2: resize(l.k_scales); break;
          default: resize(l.v_scales); break;
        }
      }
      break;
    default:
      if (!m.kv8_layers.empty()) {
        rng.bernoulli(0.5) ? m.kv8_layers.pop_back()
                           : m.kv8_layers.push_back(m.kv8_layers.front());
      } else if (!m.kv4_layers.empty()) {
        rng.bernoulli(0.5) ? m.kv4_layers.pop_back()
                           : m.kv4_layers.push_back(m.kv4_layers.front());
      }
      break;
  }
}

// The record parser's validators, reached with valid checksums: mutants of
// real fp32, q8 and q4 records are re-serialized with write_module_record,
// so only the structure can give them away. Every mutant must throw
// pc::Error or load as a module whose ranges, position ids and payload
// agree with its geometry. Seeded, with a fixed budget and no corpus; a
// mutant the writer itself refuses (an fp32 tag without an fp32 payload)
// is skipped.
TEST(SerializeFuzz, MutatedRecordsFailCleanlyOrLoadConsistent) {
  constexpr int kMutantsPerRecord = 300;
  Rng rng(0xf0220f);
  int loaded = 0, rejected = 0, unwritable = 0;
  for (StorePrecision precision :
       {StorePrecision::kFp32, StorePrecision::kQ8, StorePrecision::kQ4}) {
    for (const auto& [key, source] : encoded_modules(precision)) {
      ASSERT_TRUE(consistent(source)) << key;
      for (int i = 0; i < kMutantsPerRecord; ++i) {
        EncodedModule mutant = source;
        const int edits = 1 + static_cast<int>(rng.next_below(3));
        for (int e = 0; e < edits; ++e) mutate(mutant, rng);
        std::stringstream stream;
        try {
          write_module_record(stream, key, mutant);
        } catch (const Error&) {
          ++unwritable;
          continue;
        }
        std::string read_key;
        EncodedModule read;
        try {
          ASSERT_TRUE(read_module_record(stream, &read_key, &read));
        } catch (const Error&) {
          ++rejected;
          continue;
        }
        ++loaded;
        EXPECT_EQ(read_key, key);
        EXPECT_TRUE(consistent(read))
            << key << " mutant " << i << " loaded inconsistent";
      }
    }
  }
  // Most mutants break the structure; some edits keep it whole.
  EXPECT_GT(rejected, 10 * loaded);
  EXPECT_GT(loaded, 0);
  EXPECT_LT(unwritable, rejected / 4);
}

// The record that motivated the range checks: a q4 text range far past a
// 12-token payload, with a valid checksum, used to load and send
// retrieval past the payload.
TEST(SerializeFuzz, RangesPastThePayloadAreRejected) {
  for (auto& [key, module] : encoded_modules(StorePrecision::kQ4)) {
    for (auto ranges : {std::vector<std::pair<int, int>>{{0, 4108}},
                        std::vector<std::pair<int, int>>{{2, 1}},
                        std::vector<std::pair<int, int>>{{3, 5}, {0, 2}},
                        std::vector<std::pair<int, int>>{{0, 3}, {2, 4}}}) {
      EncodedModule bad = module;
      bad.text_row_ranges = ranges;
      std::stringstream stream;
      write_module_record(stream, key, bad);
      std::string read_key;
      EncodedModule read;
      EXPECT_THROW(read_module_record(stream, &read_key, &read), Error) << key;
    }
    EncodedModule bad = module;
    bad.params = {{0, 0, module.n_tokens + 1}};
    std::stringstream stream;
    write_module_record(stream, key, bad);
    std::string read_key;
    EncodedModule read;
    EXPECT_THROW(read_module_record(stream, &read_key, &read), Error) << key;
  }
}

// A snapshot written by an fp32 deployment must load into a quantized
// (PC_KV_FORMAT=q8) engine: records are converted to Q8_0 at load time, the
// store holds only int8 payloads, and serving works without re-encoding.
TEST(SerializeUpgrade, LegacyFp32SnapshotLoadsIntoQ8Engine) {
  AccuracyWorkload workload(7);
  Model model = make_induction_model({workload.vocab().size(), 256});
  constexpr const char* kSchema = R"(
    <schema name="s">
      <module name="doc1">w00 w01 q05 a10 a11 . w02</module>
      <module name="doc2">w03 q06 a12 a13 . w04</module>
    </schema>)";
  constexpr const char* kPrompt =
      R"(<prompt schema="s"><doc1/><doc2/> question: q06</prompt>)";
  GenerateOptions opts;
  opts.max_new_tokens = 6;
  opts.stop_tokens = {workload.stop_token()};

  const std::string path = ::testing::TempDir() + "pc_modules_legacy.bin";
  {
    EngineConfig fp32_cfg;
    fp32_cfg.precision = StorePrecision::kFp32;
    PromptCacheEngine writer(model, workload.tokenizer(), fp32_cfg);
    writer.load_schema(kSchema);
    ASSERT_EQ(writer.save_modules(path), 2u);
  }

  EngineConfig q8_cfg;
  q8_cfg.precision = StorePrecision::kQ8;
  q8_cfg.eager_encode = false;
  PromptCacheEngine reader(model, workload.tokenizer(), q8_cfg);
  reader.load_schema(kSchema);
  EXPECT_EQ(reader.load_modules(path), 2u);
  EXPECT_EQ(reader.stats().modules_encoded, 0u);

  // Every restored module was upgraded to the engine's resident format.
  size_t seen = 0;
  reader.store().for_each([&](const std::string&, const EncodedModule& m,
                              ModuleLocation) {
    ++seen;
    EXPECT_EQ(m.precision, StorePrecision::kQ8);
    EXPECT_FALSE(m.kv32.has_value()) << "no fp32 payload may stay resident";
    EXPECT_FALSE(m.kv8_layers.empty());
  });
  EXPECT_EQ(seen, 2u);
  EXPECT_GT(reader.store().resident_bytes_q8(), 0u);
  EXPECT_EQ(reader.store().resident_bytes_fp32(), 0u);

  const ServeResult r = reader.serve(kPrompt, opts);
  EXPECT_EQ(r.text, "a12 a13");
  EXPECT_EQ(reader.stats().modules_encoded, 0u)
      << "conversion must not trigger re-encoding";
  std::remove(path.c_str());
}

// The same upgrade path for the sub-byte format: an fp32 snapshot loads
// into a PC_KV_FORMAT=q4 engine, records are converted to Q4_0 at load
// time, and serving works without re-encoding.
TEST(SerializeUpgrade, LegacyFp32SnapshotLoadsIntoQ4Engine) {
  AccuracyWorkload workload(7);
  Model model = make_induction_model({workload.vocab().size(), 256});
  constexpr const char* kSchema = R"(
    <schema name="s">
      <module name="doc1">w00 w01 q05 a10 a11 . w02</module>
      <module name="doc2">w03 q06 a12 a13 . w04</module>
    </schema>)";
  constexpr const char* kPrompt =
      R"(<prompt schema="s"><doc1/><doc2/> question: q06</prompt>)";
  GenerateOptions opts;
  opts.max_new_tokens = 6;
  opts.stop_tokens = {workload.stop_token()};

  const std::string path = ::testing::TempDir() + "pc_modules_legacy_q4.bin";
  {
    EngineConfig fp32_cfg;
    fp32_cfg.precision = StorePrecision::kFp32;
    PromptCacheEngine writer(model, workload.tokenizer(), fp32_cfg);
    writer.load_schema(kSchema);
    ASSERT_EQ(writer.save_modules(path), 2u);
  }

  EngineConfig q4_cfg;
  q4_cfg.precision = StorePrecision::kQ4;
  q4_cfg.eager_encode = false;
  PromptCacheEngine reader(model, workload.tokenizer(), q4_cfg);
  reader.load_schema(kSchema);
  EXPECT_EQ(reader.load_modules(path), 2u);
  EXPECT_EQ(reader.stats().modules_encoded, 0u);

  size_t seen = 0;
  reader.store().for_each([&](const std::string&, const EncodedModule& m,
                              ModuleLocation) {
    ++seen;
    EXPECT_EQ(m.precision, StorePrecision::kQ4);
    EXPECT_FALSE(m.kv32.has_value()) << "no fp32 payload may stay resident";
    EXPECT_FALSE(m.kv4_layers.empty());
  });
  EXPECT_EQ(seen, 2u);
  EXPECT_GT(reader.store().resident_bytes_q4(), 0u);
  EXPECT_EQ(reader.store().resident_bytes_q8(), 0u);
  EXPECT_EQ(reader.store().resident_bytes_fp32(), 0u);

  const ServeResult r = reader.serve(kPrompt, opts);
  EXPECT_EQ(r.text, "a12 a13");
  EXPECT_EQ(reader.stats().modules_encoded, 0u)
      << "conversion must not trigger re-encoding";
  std::remove(path.c_str());
}

TEST_P(SerializeTest, GeometryMismatchRejected) {
  PromptCacheEngine writer(model_, workload_.tokenizer(), config());
  writer.load_schema(kSchema);
  const std::string path = temp_path();
  writer.save_modules(path);

  // A model with different geometry must refuse the file.
  Model other = make_induction_model({workload_.vocab().size(), 128});
  PromptCacheEngine reader(other, workload_.tokenizer(), config());
  EXPECT_THROW(reader.load_modules(path), Error);
  std::remove(path.c_str());
}

// save_modules and the disk tier's spill files share one crash-atomic
// writer: a write that fails leaves the file at `path` as it was and no
// .tmp behind.
TEST(StoreFileWriter, FailedWriteLeavesPathIntactAndRemovesTmp) {
  const std::string path = ::testing::TempDir() + "pc_store_writer.bin";
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "previous store";
  }
  EXPECT_THROW(write_store_file(path,
                                [](std::ostream& os) {
                                  os << "partial record";
                                  throw Error("record write failed");
                                }),
               Error);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream kept;
  kept << in.rdbuf();
  EXPECT_EQ(kept.str(), "previous store");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());

  // A .tmp that cannot be created fails before anything is written.
  EXPECT_THROW(write_store_file(::testing::TempDir() + "pc_no_such_dir/s.bin",
                                [](std::ostream&) {}),
               Error);
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, SerializeTest,
                         ::testing::Values(StorePrecision::kFp32,
                                           StorePrecision::kFp16,
                                           StorePrecision::kQ8,
                                           StorePrecision::kQ4),
                         [](const auto& info) {
                           switch (info.param) {
                             case StorePrecision::kFp32: return "Fp32";
                             case StorePrecision::kFp16: return "Fp16";
                             case StorePrecision::kQ8: return "Q8";
                             case StorePrecision::kQ4: return "Q4";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace pc
