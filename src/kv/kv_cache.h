// Key-value attention-state cache for one sequence.
//
// Per layer, every token has one K and one V row of kv_dim = n_kv_heads *
// d_head values. The position ID of every cached token is retained (shared
// across layers) because Prompt Cache relocates modules: RoPE keys are
// cached post-rotation, but ALiBi biases must be recomputed from true key
// position IDs at attention time (paper §4.2).
//
// A cache holds two kinds of rows, in this order:
//
//   * Module rows (leading): an encoded module's rows in the store's format
//     — fp32, Q8_0 or Q4_0 (kv/quant.h) — either copied, a memcpy of the
//     stored bytes into storage the cache owns (§3.4), or borrowed in place,
//     in which case the source must stay alive and unmodified while the
//     cache is used (the engine pins it for the request).
//   * Own rows: fp32 rows the cache owns and the model writes — encoding,
//     prefill, generated tokens. Copying fp32 module rows (append_range) is
//     an own-row append.
//
// While every row is an own row, each layer is one dense [n_tokens, kv_dim]
// buffer and attention runs the contiguous kernel. Once module rows exist,
// attention reads every row through per-layer row tables (tables()), where
// quantized rows are scored in the integer domain; own-row entries are
// re-pointed whenever the own buffers grow.
//
// Growth policy implements the paper's buffered concatenation operator
// (§4.2): PyTorch-style concatenation reallocates and copies the whole
// buffer on every append; the buffered policy grows geometrically (and
// honors reserve()), so appending a module is a single memcpy into reserved
// space. Both policies are kept so the ablation benchmark can measure the
// difference; stats record every reallocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "kv/quant.h"

namespace pc {

enum class ConcatPolicy {
  kBuffered,  // geometric growth + reserve(): amortized O(1) appends
  kNaive,     // exact-fit reallocation on every append (PyTorch torch.cat)
};

// How module rows enter a cache.
enum class ModuleRows {
  kCopy,    // memcpy the stored bytes into storage the cache owns
  kBorrow,  // reference them in place; the source must outlive the cache
};

struct KVCacheStats {
  uint64_t reallocations = 0;   // buffer growth events (all layers summed)
  uint64_t bytes_moved = 0;     // bytes copied due to reallocation
  uint64_t bytes_appended = 0;  // payload bytes written by appends
};

class KVCache {
 public:
  // One layer's row tables for the gathered attention kernels
  // (tensor/ops.h), size() entries each. Slot t is quantized when k8[t]
  // (or k4[t]) is non-null; otherwise it reads the fp32 rows k[t], v[t].
  // The q8 (q4) tables are null when the cache holds no q8 (q4) rows.
  // Valid until the next append.
  struct RowTables {
    const float* const* k = nullptr;
    const float* const* v = nullptr;
    const int8_t* const* k8 = nullptr;
    const int8_t* const* v8 = nullptr;
    const float* k8_scales = nullptr;  // one scale per row
    const float* v8_scales = nullptr;
    const uint8_t* const* k4 = nullptr;
    const uint8_t* const* v4 = nullptr;
    const float* const* k4_scales = nullptr;  // per-row block-scale arrays
    const float* const* v4_scales = nullptr;
  };

  KVCache(int n_layers, int kv_dim,
          ConcatPolicy policy = ConcatPolicy::kBuffered)
      : n_layers_(n_layers), kv_dim_(kv_dim), policy_(policy) {
    PC_CHECK(n_layers > 0 && kv_dim > 0);
    layers_.resize(static_cast<size_t>(n_layers));
  }

  int n_layers() const { return n_layers_; }
  int kv_dim() const { return kv_dim_; }
  int size() const { return n_tokens_; }
  bool empty() const { return n_tokens_ == 0; }
  ConcatPolicy policy() const { return policy_; }
  const KVCacheStats& stats() const { return stats_; }
  // Leading rows in a module's stored format; 0 while every row is an own
  // fp32 row (the contiguous layout).
  int module_rows() const { return module_rows_; }
  int own_rows() const { return n_tokens_ - module_rows_; }

  const std::vector<int>& pos_ids() const { return pos_ids_; }
  int pos_id(int token) const {
    PC_CHECK(token >= 0 && token < n_tokens_);
    return pos_ids_[static_cast<size_t>(token)];
  }

  // Ensures capacity for at least n own rows without reallocation.
  void reserve(int n_rows) {
    if (n_rows <= capacity_) return;
    grow_to(n_rows);
  }

  // Own-row capacity.
  int capacity() const { return capacity_; }

  // Appends `count` own rows with the given position IDs; rows are
  // zero-initialized and writable via k_row()/v_row(). Returns the index of
  // the first new token.
  int append_tokens(std::span<const int> new_pos_ids) {
    const int count = static_cast<int>(new_pos_ids.size());
    ensure_capacity(own_rows() + count);
    const int first = n_tokens_;
    pos_ids_.insert(pos_ids_.end(), new_pos_ids.begin(), new_pos_ids.end());
    n_tokens_ += count;
    if (!tables_.layers.empty()) {
      resize_tables();
      point_own_rows(first);
    }
    stats_.bytes_appended += static_cast<uint64_t>(count) * kv_dim_ * 2 *
                             n_layers_ * sizeof(float);
    return first;
  }

  // Appends the entire contents of `src` (same geometry) — this is the
  // module-concatenation step of cached inference, a pure memcpy.
  int append_copy(const KVCache& src) { return append_range(src, 0, src.size()); }

  // Appends own rows [begin, end) of `src` as own rows. Used to copy a
  // module's fp32 text rows while skipping parameter placeholders (paper
  // §3.3/§3.4).
  int append_range(const KVCache& src, int begin, int end) {
    check_geometry(src.n_layers_, src.kv_dim_);
    PC_CHECK(begin >= src.module_rows_ && begin <= end &&
             end <= src.n_tokens_);
    const int count = end - begin;
    const int first = append_tokens(
        std::span<const int>(src.pos_ids_.data() + begin,
                             static_cast<size_t>(count)));
    const size_t bytes = static_cast<size_t>(count) * kv_dim_ * sizeof(float);
    if (count == 0) return first;
    for (int l = 0; l < n_layers_; ++l) {
      std::memcpy(k_row(l, first), src.k_row(l, begin), bytes);
      std::memcpy(v_row(l, first), src.v_row(l, begin), bytes);
    }
    return first;
  }

  // Borrows fp32 rows [begin, end) of `src` as module rows: no payload
  // moves.
  void borrow_rows(const KVCache& src, int begin, int end) {
    check_geometry(src.n_layers_, src.kv_dim_);
    PC_CHECK(begin >= 0 && begin <= end && end <= src.n_tokens_);
    const int first = begin_module_rows(std::span<const int>(
        src.pos_ids_.data() + begin, static_cast<size_t>(end - begin)));
    for (int l = 0; l < n_layers_; ++l) {
      LayerTables& t = tables_.layers[static_cast<size_t>(l)];
      for (int i = begin; i < end; ++i) {
        t.k[static_cast<size_t>(first + i - begin)] = src.k_row(l, i);
        t.v[static_cast<size_t>(first + i - begin)] = src.v_row(l, i);
      }
    }
  }

  // Appends tokens [begin, end) of a module's Q8_0 payload (one entry per
  // layer; src_pos holds every token's position) as module rows: int8 rows
  // plus per-row scales, copied as stored or borrowed in place. Attention
  // scores them in the int8 domain (attn_fused_q8_gather).
  void append_rows(const std::vector<Q8Layer>& src,
                   std::span<const int> src_pos, int begin, int end,
                   ModuleRows how) {
    check_module_source(src.size(), src_pos.size(), begin, end);
    PC_CHECK_MSG(!has_q4_, "a cache holds one quantized format");
    const size_t w = static_cast<size_t>(kv_dim_);
    const bool copy = how == ModuleRows::kCopy;
    const std::vector<Q8Layer>& rows =
        copy ? q8_copies_.emplace_back(copy_rows(src, begin, end, w, 1))
             : src;
    has_q8_ = true;
    const int first = begin_module_rows(src_pos.subspan(
        static_cast<size_t>(begin), static_cast<size_t>(end - begin)));
    for (int l = 0; l < n_layers_; ++l) {
      const Q8Layer& s = rows[static_cast<size_t>(l)];
      LayerTables& t = tables_.layers[static_cast<size_t>(l)];
      for (int i = 0; i < end - begin; ++i) {
        const size_t row = static_cast<size_t>(copy ? i : begin + i);
        const size_t slot = static_cast<size_t>(first + i);
        t.k8[slot] = s.k.data() + row * w;
        t.v8[slot] = s.v.data() + row * w;
        t.k8_scales[slot] = s.k_scales[row];
        t.v8_scales[slot] = s.v_scales[row];
      }
    }
  }

  // The Q4_0 sibling: packed nibble rows plus per-row block-scale arrays,
  // scored block-wise in the integer domain (attn_fused_q4_gather).
  void append_rows(const std::vector<Q4Layer>& src,
                   std::span<const int> src_pos, int begin, int end,
                   ModuleRows how) {
    check_module_source(src.size(), src_pos.size(), begin, end);
    PC_CHECK_MSG(!has_q8_, "a cache holds one quantized format");
    const size_t row_bytes = q4_row_bytes(kv_dim_);
    const size_t blocks = static_cast<size_t>(q4_blocks(kv_dim_));
    const bool copy = how == ModuleRows::kCopy;
    const std::vector<Q4Layer>& rows =
        copy ? q4_copies_.emplace_back(
                   copy_rows(src, begin, end, row_bytes, blocks))
             : src;
    has_q4_ = true;
    const int first = begin_module_rows(src_pos.subspan(
        static_cast<size_t>(begin), static_cast<size_t>(end - begin)));
    for (int l = 0; l < n_layers_; ++l) {
      const Q4Layer& s = rows[static_cast<size_t>(l)];
      LayerTables& t = tables_.layers[static_cast<size_t>(l)];
      for (int i = 0; i < end - begin; ++i) {
        const size_t row = static_cast<size_t>(copy ? i : begin + i);
        const size_t slot = static_cast<size_t>(first + i);
        t.k4[slot] = s.k.data() + row * row_bytes;
        t.v4[slot] = s.v.data() + row * row_bytes;
        t.k4_scales[slot] = s.k_scales.data() + row * blocks;
        t.v4_scales[slot] = s.v_scales.data() + row * blocks;
      }
    }
  }

  // Own rows only: module rows are read-only.
  float* k_row(int layer, int token) { return own_row(layer, token, true); }
  float* v_row(int layer, int token) { return own_row(layer, token, false); }
  // Own rows and fp32 module rows.
  const float* k_row(int layer, int token) const {
    return fp32_row(layer, token, true);
  }
  const float* v_row(int layer, int token) const {
    return fp32_row(layer, token, false);
  }

  // Layer `layer`'s row tables; requires module_rows() > 0.
  RowTables tables(int layer) const {
    PC_CHECK_MSG(!tables_.layers.empty(), "a contiguous cache has no tables");
    const LayerTables& t = tables_.layers[checked_layer(layer)];
    RowTables out{t.k.data(), t.v.data()};
    if (has_q8_) {
      out.k8 = t.k8.data();
      out.v8 = t.v8.data();
      out.k8_scales = t.k8_scales.data();
      out.v8_scales = t.v8_scales.data();
    }
    if (has_q4_) {
      out.k4 = t.k4.data();
      out.v4 = t.v4.data();
      out.k4_scales = t.k4_scales.data();
      out.v4_scales = t.v4_scales.data();
    }
    return out;
  }

  // Payload bytes the cache holds: its own rows at fp32 plus the stored
  // bytes of copied module rows (borrowed rows belong to their source).
  size_t payload_bytes() const {
    return static_cast<size_t>(own_rows()) * fp32_row_pair_bytes() +
           copied_bytes_;
  }
  // Bytes the cache has allocated for rows: its reserved own-row capacity
  // at fp32 plus the copied module bytes, however many own rows are
  // written yet.
  size_t owned_bytes() const {
    return static_cast<size_t>(capacity_) * fp32_row_pair_bytes() +
           copied_bytes_;
  }

  // Truncates to the first n_tokens (used to roll back speculative
  // appends); module rows stay.
  void truncate(int n_tokens) {
    PC_CHECK(n_tokens >= module_rows_ && n_tokens <= n_tokens_);
    n_tokens_ = n_tokens;
    pos_ids_.resize(static_cast<size_t>(n_tokens));
    if (!tables_.layers.empty()) resize_tables();
  }

 private:
  struct LayerBuffers {
    std::vector<float> k;  // own rows, [capacity, kv_dim]
    std::vector<float> v;
  };
  struct LayerTables {
    std::vector<const float*> k;  // fp32 rows; null for quantized slots
    std::vector<const float*> v;
    std::vector<const int8_t*> k8;  // q8 slots; null elsewhere
    std::vector<const int8_t*> v8;
    std::vector<float> k8_scales;
    std::vector<float> v8_scales;
    std::vector<const uint8_t*> k4;  // q4 slots; null elsewhere
    std::vector<const uint8_t*> v4;
    std::vector<const float*> k4_scales;
    std::vector<const float*> v4_scales;
  };
  // The tables of a cache with module rows point into its own buffers, so
  // only a cache without them may be copied.
  struct Tables {
    Tables() = default;
    Tables(const Tables& other) { check_copyable(other); }
    Tables& operator=(const Tables& other) {
      check_copyable(other);
      layers.clear();
      return *this;
    }
    Tables(Tables&&) noexcept = default;
    Tables& operator=(Tables&&) noexcept = default;
    static void check_copyable(const Tables& other) {
      PC_CHECK_MSG(other.layers.empty(),
                   "a cache holding module rows cannot be copied");
    }
    std::vector<LayerTables> layers;  // [n_layers] once module rows exist
  };

  // The stored bytes of rows [begin, end) of every layer of a quantized
  // payload whose rows hold `width` values and `scales` scales each.
  template <typename Layer>
  std::vector<Layer> copy_rows(const std::vector<Layer>& src, int begin,
                               int end, size_t width, size_t scales) {
    const auto slice = [&](const auto& v, size_t per_row) {
      return std::decay_t<decltype(v)>(
          v.begin() + static_cast<std::ptrdiff_t>(begin * per_row),
          v.begin() + static_cast<std::ptrdiff_t>(end * per_row));
    };
    std::vector<Layer> out(src.size());
    for (size_t l = 0; l < src.size(); ++l) {
      out[l] = {slice(src[l].k, width), slice(src[l].v, width),
                slice(src[l].k_scales, scales), slice(src[l].v_scales, scales)};
      const size_t bytes =
          out[l].k.size() + out[l].v.size() +
          (out[l].k_scales.size() + out[l].v_scales.size()) * sizeof(float);
      copied_bytes_ += bytes;
      stats_.bytes_appended += bytes;
    }
    return out;
  }

  size_t fp32_row_pair_bytes() const {
    return static_cast<size_t>(kv_dim_) * 2 * n_layers_ * sizeof(float);
  }

  size_t checked_layer(int layer) const {
    PC_CHECK_MSG(layer >= 0 && layer < n_layers_, "layer out of range");
    return static_cast<size_t>(layer);
  }

  void check_geometry(int n_layers, int kv_dim) const {
    PC_CHECK_MSG(n_layers == n_layers_ && kv_dim == kv_dim_,
                 "KV geometry mismatch");
  }

  void check_module_source(size_t layers, size_t n_pos, int begin,
                           int end) const {
    check_geometry(static_cast<int>(layers), kv_dim_);
    PC_CHECK(begin >= 0 && begin <= end && end <= static_cast<int>(n_pos));
    PC_CHECK_MSG(own_rows() == 0, "module rows must precede own rows");
  }

  // Publishes one module slot per position (null in every table) and
  // returns the first.
  int begin_module_rows(std::span<const int> pos) {
    PC_CHECK_MSG(own_rows() == 0, "module rows must precede own rows");
    if (tables_.layers.empty()) {
      tables_.layers.resize(static_cast<size_t>(n_layers_));
    }
    const int first = n_tokens_;
    const int count = static_cast<int>(pos.size());
    pos_ids_.insert(pos_ids_.end(), pos.begin(), pos.end());
    n_tokens_ += count;
    module_rows_ += count;
    resize_tables();
    return first;
  }

  // Sizes every table to n_tokens_ slots; new slots are null.
  void resize_tables() {
    const size_t n = static_cast<size_t>(n_tokens_);
    for (LayerTables& t : tables_.layers) {
      t.k.resize(n);
      t.v.resize(n);
      if (has_q8_) {
        t.k8.resize(n);
        t.v8.resize(n);
        t.k8_scales.resize(n);
        t.v8_scales.resize(n);
      }
      if (has_q4_) {
        t.k4.resize(n);
        t.v4.resize(n);
        t.k4_scales.resize(n);
        t.v4_scales.resize(n);
      }
    }
  }

  // Points the fp32 table entries of own rows [first, n_tokens_) at the own
  // buffers.
  void point_own_rows(int first) {
    for (int l = 0; l < n_layers_; ++l) {
      LayerTables& t = tables_.layers[static_cast<size_t>(l)];
      const LayerBuffers& b = layers_[static_cast<size_t>(l)];
      for (int i = first; i < n_tokens_; ++i) {
        const size_t off = static_cast<size_t>(i - module_rows_) * kv_dim_;
        t.k[static_cast<size_t>(i)] = b.k.data() + off;
        t.v[static_cast<size_t>(i)] = b.v.data() + off;
      }
    }
  }

  float* own_row(int layer, int token, bool key) {
    const size_t l = checked_layer(layer);
    PC_CHECK_MSG(token >= module_rows_ && token < n_tokens_,
                 "token " << token << " is not an own row of [" << module_rows_
                          << ", " << n_tokens_ << ")");
    auto& buf = key ? layers_[l].k : layers_[l].v;
    return buf.data() + static_cast<size_t>(token - module_rows_) * kv_dim_;
  }

  const float* fp32_row(int layer, int token, bool key) const {
    if (token >= module_rows_) {
      return const_cast<KVCache*>(this)->own_row(layer, token, key);
    }
    const size_t l = checked_layer(layer);
    PC_CHECK_MSG(token >= 0, "token " << token << " out of range");
    const LayerTables& t = tables_.layers[l];
    const float* row = (key ? t.k : t.v)[static_cast<size_t>(token)];
    PC_CHECK_MSG(row != nullptr, "token " << token << " is quantized");
    return row;
  }

  void ensure_capacity(int n_rows) {
    if (n_rows <= capacity_) return;
    int target = n_rows;
    if (policy_ == ConcatPolicy::kBuffered) {
      target = std::max(n_rows, capacity_ > 0 ? capacity_ * 2 : 64);
    }
    grow_to(target);
  }

  void grow_to(int target) {
    const size_t elems = static_cast<size_t>(target) * kv_dim_;
    for (auto& bufs : layers_) {
      // vector::resize preserves contents; count the move explicitly when
      // the allocation actually changes.
      const bool moved = bufs.k.capacity() < elems;
      if (moved) {
        stats_.reallocations += 2;  // k and v
        stats_.bytes_moved += static_cast<uint64_t>(own_rows()) * kv_dim_ *
                              2 * sizeof(float);
      }
      bufs.k.resize(elems, 0.0f);
      bufs.v.resize(elems, 0.0f);
      if (policy_ == ConcatPolicy::kNaive) {
        bufs.k.shrink_to_fit();
        bufs.v.shrink_to_fit();
      }
    }
    capacity_ = target;
    pos_ids_.reserve(static_cast<size_t>(module_rows_ + target));
    if (!tables_.layers.empty()) point_own_rows(module_rows_);
  }

  int n_layers_;
  int kv_dim_;
  ConcatPolicy policy_;
  int n_tokens_ = 0;
  int module_rows_ = 0;
  int capacity_ = 0;  // own rows
  bool has_q8_ = false;
  bool has_q4_ = false;
  std::vector<int> pos_ids_;
  std::vector<LayerBuffers> layers_;
  Tables tables_;
  // Copied quantized module rows, one slice of the source per append; the
  // slices never move, so their table entries stay valid.
  std::vector<std::vector<Q8Layer>> q8_copies_;
  std::vector<std::vector<Q4Layer>> q4_copies_;
  size_t copied_bytes_ = 0;
  KVCacheStats stats_;
};

}  // namespace pc
