#include "core/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "common/error.h"
#include "sys/fault.h"

namespace pc {

namespace {

constexpr char kMagic[8] = {'P', 'C', 'M', 'O', 'D', '0', '2', '\n'};
constexpr uint32_t kRecordTag = 0x4d434450;  // "PDCM"
// No model has more layers or wider K/V rows; larger values are corruption,
// refused before anything is sized by them.
constexpr int32_t kMaxLayers = 1 << 12;
constexpr int32_t kMaxKvDim = 1 << 20;

// FNV-1a over a byte span, used as a corruption check (not security).
uint64_t fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    os_.write(reinterpret_cast<const char*>(&v), sizeof(T));
    hash_ = fnv1a(&v, sizeof(T), hash_);
  }

  void bytes(const void* data, size_t n) {
    os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    hash_ = fnv1a(data, n, hash_);
  }

  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(static_cast<uint64_t>(v.size()));
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }

  void str(const std::string& s) {
    pod(static_cast<uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }

  uint64_t hash() const { return hash_; }

  void check() {
    if (!os_) throw Error("module serialization: stream write failed");
  }

 private:
  std::ostream& os_;
  uint64_t hash_ = 1469598103934665603ULL;
};

class Reader {
 public:
  // Notes how many bytes the stream holds past this point, when it can
  // tell: no length read from the record may claim more, so a corrupt one
  // fails before it allocates.
  explicit Reader(std::istream& is) : is_(is) {
    const std::streamoff here = is.tellg();
    if (here < 0) return;
    is.seekg(0, std::ios::end);
    const std::streamoff end = is.tellg();
    is.clear();
    is.seekg(here);
    if (end >= here) remaining_ = static_cast<uint64_t>(end - here);
  }

  // Throws unless the stream can still hold n bytes.
  void need(uint64_t n) const {
    if (n > remaining_) {
      throw Error("module deserialization: truncated stream");
    }
  }
  uint64_t remaining() const { return remaining_; }

  template <typename T>
  T pod() {
    T v{};
    bytes(&v, sizeof(T));
    return v;
  }

  void bytes(void* data, size_t n) {
    need(n);
    is_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (!is_) throw Error("module deserialization: truncated stream");
    remaining_ -= n;
    hash_ = fnv1a(data, n, hash_);
  }

  template <typename T>
  std::vector<T> vec(uint64_t sanity_max = (1ULL << 32)) {
    const uint64_t n = pod<uint64_t>();
    if (n > sanity_max || n > remaining_ / sizeof(T)) {
      throw Error("module deserialization: implausible vector length");
    }
    std::vector<T> v(static_cast<size_t>(n));
    if (n > 0) bytes(v.data(), v.size() * sizeof(T));
    return v;
  }

  std::string str() {
    const uint64_t n = pod<uint64_t>();
    if (n > (1ULL << 20) || n > remaining_) {
      throw Error("module deserialization: implausible key length");
    }
    std::string s(static_cast<size_t>(n), '\0');
    if (n > 0) bytes(s.data(), s.size());
    return s;
  }

  uint64_t hash() const { return hash_; }

 private:
  std::istream& is_;
  uint64_t hash_ = 1469598103934665603ULL;
  uint64_t remaining_ = UINT64_MAX;  // unknown: bounded by sanity limits
};

}  // namespace

void write_store_header(std::ostream& os) {
  os.write(kMagic, sizeof(kMagic));
  if (!os) throw Error("module serialization: cannot write header");
}

void read_store_header(std::istream& is) {
  char magic[sizeof(kMagic)] = {};
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw Error("module deserialization: bad or missing header");
  }
}

void write_module_record(std::ostream& os, const std::string& key,
                         const EncodedModule& m) {
  Writer w(os);
  w.pod(kRecordTag);
  w.str(key);
  w.pod(static_cast<uint8_t>(m.precision));
  w.pod(static_cast<int32_t>(m.n_tokens));
  w.pod(static_cast<int32_t>(m.kv_dim));
  w.pod(static_cast<int32_t>(m.n_layers));

  std::vector<int32_t> ranges;
  for (const auto& [b, e] : m.text_row_ranges) {
    ranges.push_back(b);
    ranges.push_back(e);
  }
  w.vec(ranges);

  std::vector<int32_t> params;
  for (const auto& p : m.params) {
    params.push_back(p.param_index);
    params.push_back(p.row_begin);
    params.push_back(p.row_end);
  }
  w.vec(params);

  switch (m.precision) {
    case StorePrecision::kFp32: {
      // The payload as held (its rows are contiguous per layer: K then V
      // blocks); a header that disagrees with it fails on read.
      PC_CHECK(m.kv32.has_value());
      const KVCache& kv = *m.kv32;
      w.vec(kv.pos_ids());
      const size_t block =
          static_cast<size_t>(kv.size()) * kv.kv_dim() * sizeof(float);
      for (int l = 0; l < kv.n_layers() && block > 0; ++l) {
        w.bytes(kv.k_row(l, 0), block);
        w.bytes(kv.v_row(l, 0), block);
      }
      break;
    }
    case StorePrecision::kQ8:
      w.vec(m.pos_ids);
      for (const auto& layer : m.kv8_layers) {
        w.vec(layer.k);
        w.vec(layer.v);
        w.vec(layer.k_scales);
        w.vec(layer.v_scales);
      }
      break;
    case StorePrecision::kQ4:
      w.vec(m.pos_ids);
      for (const auto& layer : m.kv4_layers) {
        w.vec(layer.k);
        w.vec(layer.v);
        w.vec(layer.k_scales);
        w.vec(layer.v_scales);
      }
      break;
    default:  // no payload: read_module_record rejects the tag
      break;
  }

  const uint64_t checksum = w.hash();
  os.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  w.check();
}

bool read_module_record(std::istream& is, std::string* key,
                        EncodedModule* out) {
  // Clean EOF detection before committing to a record.
  if (is.peek() == std::char_traits<char>::eof()) return false;

  Reader r(is);
  const uint32_t tag = r.pod<uint32_t>();
  if (tag != kRecordTag) {
    throw Error("module deserialization: bad record tag");
  }
  *key = r.str();

  EncodedModule m;
  m.precision = static_cast<StorePrecision>(r.pod<uint8_t>());
  m.n_tokens = r.pod<int32_t>();
  m.kv_dim = r.pod<int32_t>();
  m.n_layers = r.pod<int32_t>();
  if (m.n_tokens < 0 || m.kv_dim <= 0 || m.kv_dim > kMaxKvDim ||
      m.n_layers <= 0 || m.n_layers > kMaxLayers) {
    throw Error("module deserialization: bad geometry");
  }

  // Every row range lies inside the payload — the rows retrieval copies or
  // borrows — and text ranges ascend without overlapping.
  const auto ranges = r.vec<int32_t>();
  if (ranges.size() % 2 != 0) {
    throw Error("module deserialization: odd range list");
  }
  for (size_t i = 0; i < ranges.size(); i += 2) {
    const int32_t floor = m.text_row_ranges.empty()
                              ? 0
                              : m.text_row_ranges.back().second;
    if (ranges[i] < floor || ranges[i] > ranges[i + 1] ||
        ranges[i + 1] > m.n_tokens) {
      throw Error("module deserialization: text range outside the payload");
    }
    m.text_row_ranges.emplace_back(ranges[i], ranges[i + 1]);
  }
  const auto params = r.vec<int32_t>();
  if (params.size() % 3 != 0) {
    throw Error("module deserialization: bad param list");
  }
  for (size_t i = 0; i < params.size(); i += 3) {
    if (params[i + 1] < 0 || params[i + 1] > params[i + 2] ||
        params[i + 2] > m.n_tokens) {
      throw Error("module deserialization: param rows outside the payload");
    }
    m.params.push_back({params[i], params[i + 1], params[i + 2]});
  }

  const size_t row_elems = static_cast<size_t>(m.kv_dim);
  const size_t layer_elems = row_elems * static_cast<size_t>(m.n_tokens);
  const auto read_pos_ids = [&] {
    std::vector<int> pos = r.vec<int>();
    if (static_cast<int64_t>(pos.size()) != m.n_tokens) {
      throw Error("module deserialization: pos id count mismatch");
    }
    return pos;
  };
  switch (m.precision) {
    case StorePrecision::kFp32: {
      const std::vector<int> pos = read_pos_ids();
      if (layer_elems * sizeof(float) >
          r.remaining() / (2 * static_cast<uint64_t>(m.n_layers))) {
        throw Error("module deserialization: truncated stream");
      }
      KVCache kv(m.n_layers, m.kv_dim);
      kv.reserve(m.n_tokens);
      kv.append_tokens(pos);
      for (int l = 0; l < m.n_layers && m.n_tokens > 0; ++l) {
        r.bytes(kv.k_row(l, 0), layer_elems * sizeof(float));
        r.bytes(kv.v_row(l, 0), layer_elems * sizeof(float));
      }
      m.kv32 = std::move(kv);
      break;
    }
    case StorePrecision::kQ8:
      m.pos_ids = read_pos_ids();
      m.kv8_layers.resize(static_cast<size_t>(m.n_layers));
      for (auto& layer : m.kv8_layers) {
        layer.k = r.vec<int8_t>();
        layer.v = r.vec<int8_t>();
        layer.k_scales = r.vec<float>();
        layer.v_scales = r.vec<float>();
        if (layer.k.size() != layer_elems || layer.v.size() != layer_elems ||
            layer.k_scales.size() != static_cast<size_t>(m.n_tokens) ||
            layer.v_scales.size() != static_cast<size_t>(m.n_tokens)) {
          throw Error("module deserialization: q8 payload size mismatch");
        }
      }
      break;
    case StorePrecision::kQ4: {
      m.pos_ids = read_pos_ids();
      const size_t packed_bytes =
          q4_row_bytes(m.kv_dim) * static_cast<size_t>(m.n_tokens);
      const size_t scale_elems = static_cast<size_t>(q4_blocks(m.kv_dim)) *
                                 static_cast<size_t>(m.n_tokens);
      m.kv4_layers.resize(static_cast<size_t>(m.n_layers));
      for (auto& layer : m.kv4_layers) {
        layer.k = r.vec<uint8_t>();
        layer.v = r.vec<uint8_t>();
        layer.k_scales = r.vec<float>();
        layer.v_scales = r.vec<float>();
        if (layer.k.size() != packed_bytes ||
            layer.v.size() != packed_bytes ||
            layer.k_scales.size() != scale_elems ||
            layer.v_scales.size() != scale_elems) {
          throw Error("module deserialization: q4 payload size mismatch");
        }
      }
      break;
    }
    default:
      throw Error("module deserialization: unknown precision");
  }

  const uint64_t computed = r.hash();
  uint64_t stored = 0;
  is.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!is || stored != computed ||
      FaultInjector::global().should_fail(FaultPoint::kCorrupt)) {
    throw Error("module deserialization: checksum mismatch");
  }
  *out = std::move(m);
  return true;
}

void write_store_file(const std::string& path,
                      const std::function<void(std::ostream&)>& write_records) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw Error("cannot open '" + tmp + "' for writing");
    try {
      write_store_header(os);
      write_records(os);
      os.flush();
      if (!os) throw Error("write failure persisting modules to '" + tmp + "'");
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
}

void write_module_file(const std::string& path, const std::string& key,
                       const EncodedModule& module) {
  write_store_file(path, [&](std::ostream& os) {
    write_module_record(os, key, module);
  });
}

EncodedModule read_module_file(const std::string& path,
                               const std::string& expected_key) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open '" + path + "' for reading");
  read_store_header(is);
  std::string key;
  EncodedModule module;
  if (!read_module_record(is, &key, &module)) {
    throw Error("module file '" + path + "' holds no record");
  }
  if (key != expected_key) {
    throw Error("module file '" + path + "' holds key '" + key +
                "', expected '" + expected_key + "'");
  }
  return module;
}

bool resync_to_next_record(std::istream& is) {
  is.clear();  // a truncated read leaves failbit set
  // kRecordTag little-endian on the wire: "PDCM".
  constexpr unsigned char kPattern[4] = {0x50, 0x44, 0x43, 0x4d};
  size_t matched = 0;
  for (int c = is.get(); c != std::char_traits<char>::eof(); c = is.get()) {
    const auto b = static_cast<unsigned char>(c);
    if (b == kPattern[matched]) {
      if (++matched == sizeof(kPattern)) {
        is.seekg(-static_cast<std::streamoff>(sizeof(kPattern)),
                 std::ios::cur);
        return true;
      }
    } else {
      matched = (b == kPattern[0]) ? 1 : 0;
    }
  }
  return false;
}

}  // namespace pc
