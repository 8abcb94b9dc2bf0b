// Tests for module persistence: round trips at every storage precision,
// serving from restored state without re-encoding, and loud failure on
// corrupt input.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

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
