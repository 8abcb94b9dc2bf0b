// Zero-copy composite KV cache.
//
// Cached inference normally memcpy-concatenates module states into a
// per-request cache (§3.4). SegmentedKVCache removes even that copy: it
// *borrows* rows from encoded modules (which stay resident in the module
// store) and owns only a small writable tail for uncached/generated
// tokens. This is the CPU analog of the paper's future-work direction of
// sharing attention states across concurrent requests (§6): N requests
// importing the same modules hold N pointer tables and N tails, but one
// copy of the module states.
//
// Row access goes through per-layer pointer tables, so the attention inner
// loop pays one extra indirection per row. The owned tail has fixed
// capacity (reserved up front) because growing it would invalidate the
// published row pointers; appending beyond the reservation is a contract
// violation, not a reallocation.
//
// Lifetime: borrowed sources must outlive the view. The engine hands each
// view out with the store pins and refs that keep its borrowed modules
// resident for the duration of one request (BorrowedKV, core/engine.h).
// Zero-copy serve() and every batched request use this view.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kv/kv_cache.h"
#include "kv/quant.h"

namespace pc {

class SegmentedKVCache {
 public:
  // tail_capacity bounds the owned (writable) tokens: uncached prompt
  // segments plus the generation budget.
  SegmentedKVCache(int n_layers, int kv_dim, int tail_capacity)
      : n_layers_(n_layers),
        kv_dim_(kv_dim),
        tail_capacity_(tail_capacity),
        tail_(n_layers, kv_dim) {
    PC_CHECK(tail_capacity >= 0);
    tail_.reserve(tail_capacity);
    k_rows_.resize(static_cast<size_t>(n_layers));
    v_rows_.resize(static_cast<size_t>(n_layers));
  }

  int n_layers() const { return n_layers_; }
  int kv_dim() const { return kv_dim_; }
  int size() const { return static_cast<int>(pos_ids_.size()); }
  bool empty() const { return pos_ids_.empty(); }
  int borrowed_tokens() const { return borrowed_tokens_; }
  int owned_tokens() const { return tail_.size(); }

  // Borrows rows [begin, end) of `src` by reference. No payload moves;
  // src must stay alive and unmodified while this view is used.
  void append_borrowed(const KVCache& src, int begin, int end) {
    PC_CHECK_MSG(src.n_layers() == n_layers_ && src.kv_dim() == kv_dim_,
                 "borrowed segment geometry mismatch");
    PC_CHECK(begin >= 0 && begin <= end && end <= src.size());
    PC_CHECK_MSG(tail_.size() == 0,
                 "segments must be borrowed before any owned appends");
    for (int l = 0; l < n_layers_; ++l) {
      auto& kt = k_rows_[static_cast<size_t>(l)];
      auto& vt = v_rows_[static_cast<size_t>(l)];
      for (int t = begin; t < end; ++t) {
        kt.push_back(src.k_row(l, t));
        vt.push_back(src.v_row(l, t));
      }
    }
    for (int t = begin; t < end; ++t) pos_ids_.push_back(src.pos_id(t));
    if (has_q8_) push_null_q8(static_cast<size_t>(end - begin));
    if (has_q4_) push_null_q4(static_cast<size_t>(end - begin));
    borrowed_tokens_ += end - begin;
  }

  // Borrows tokens [begin, end) of a module's Q8_0 payload by reference —
  // the quantized analog of append_borrowed. The int8 rows and their scales
  // stay exactly where the module store holds them (zero copy, no
  // dequantization); attention over these slots runs in the int8 domain via
  // attn_fused_q8_gather. `layers` must outlive the view, like any borrowed
  // source.
  void append_borrowed_q8(const std::vector<Q8Layer>& layers,
                          std::span<const int> src_pos, int begin, int end) {
    PC_CHECK_MSG(static_cast<int>(layers.size()) == n_layers_,
                 "borrowed q8 segment layer-count mismatch");
    PC_CHECK(begin >= 0 && begin <= end &&
             end <= static_cast<int>(src_pos.size()));
    PC_CHECK_MSG(tail_.size() == 0,
                 "segments must be borrowed before any owned appends");
    enable_q8();
    for (int l = 0; l < n_layers_; ++l) {
      const Q8Layer& src = layers[static_cast<size_t>(l)];
      auto& kt = k8_rows_[static_cast<size_t>(l)];
      auto& vt = v8_rows_[static_cast<size_t>(l)];
      auto& ks = k_scales_[static_cast<size_t>(l)];
      auto& vs = v_scales_[static_cast<size_t>(l)];
      for (int t = begin; t < end; ++t) {
        kt.push_back(src.k.data() + static_cast<size_t>(t) * kv_dim_);
        vt.push_back(src.v.data() + static_cast<size_t>(t) * kv_dim_);
        ks.push_back(src.k_scales[static_cast<size_t>(t)]);
        vs.push_back(src.v_scales[static_cast<size_t>(t)]);
      }
      k_rows_[static_cast<size_t>(l)].insert(
          k_rows_[static_cast<size_t>(l)].end(),
          static_cast<size_t>(end - begin), nullptr);
      v_rows_[static_cast<size_t>(l)].insert(
          v_rows_[static_cast<size_t>(l)].end(),
          static_cast<size_t>(end - begin), nullptr);
    }
    for (int t = begin; t < end; ++t) {
      pos_ids_.push_back(src_pos[static_cast<size_t>(t)]);
    }
    if (has_q4_) push_null_q4(static_cast<size_t>(end - begin));
    borrowed_tokens_ += end - begin;
  }

  // Borrows tokens [begin, end) of a module's Q4_0 payload by reference —
  // one format below append_borrowed_q8. The packed nibble rows and their
  // per-block scale arrays stay exactly where the module store holds them
  // (zero copy, no dequantization); attention over these slots runs in the
  // int4 domain via attn_fused_q4_gather. `layers` must outlive the view.
  void append_borrowed_q4(const std::vector<Q4Layer>& layers,
                          std::span<const int> src_pos, int begin, int end) {
    PC_CHECK_MSG(static_cast<int>(layers.size()) == n_layers_,
                 "borrowed q4 segment layer-count mismatch");
    PC_CHECK(begin >= 0 && begin <= end &&
             end <= static_cast<int>(src_pos.size()));
    PC_CHECK_MSG(tail_.size() == 0,
                 "segments must be borrowed before any owned appends");
    enable_q4();
    const size_t row_bytes = q4_row_bytes(kv_dim_);
    const size_t blocks = static_cast<size_t>(q4_blocks(kv_dim_));
    for (int l = 0; l < n_layers_; ++l) {
      const Q4Layer& src = layers[static_cast<size_t>(l)];
      auto& kt = k4_rows_[static_cast<size_t>(l)];
      auto& vt = v4_rows_[static_cast<size_t>(l)];
      auto& ks = k4_scales_[static_cast<size_t>(l)];
      auto& vs = v4_scales_[static_cast<size_t>(l)];
      for (int t = begin; t < end; ++t) {
        kt.push_back(src.k.data() + static_cast<size_t>(t) * row_bytes);
        vt.push_back(src.v.data() + static_cast<size_t>(t) * row_bytes);
        ks.push_back(src.k_scales.data() + static_cast<size_t>(t) * blocks);
        vs.push_back(src.v_scales.data() + static_cast<size_t>(t) * blocks);
      }
      k_rows_[static_cast<size_t>(l)].insert(
          k_rows_[static_cast<size_t>(l)].end(),
          static_cast<size_t>(end - begin), nullptr);
      v_rows_[static_cast<size_t>(l)].insert(
          v_rows_[static_cast<size_t>(l)].end(),
          static_cast<size_t>(end - begin), nullptr);
    }
    for (int t = begin; t < end; ++t) {
      pos_ids_.push_back(src_pos[static_cast<size_t>(t)]);
    }
    if (has_q8_) push_null_q8(static_cast<size_t>(end - begin));
    borrowed_tokens_ += end - begin;
  }

  // Appends owned writable token slots (the uncached/generated rows).
  // Returns the global index of the first new token.
  int append_tokens(std::span<const int> new_pos_ids) {
    PC_CHECK_MSG(tail_.size() + static_cast<int>(new_pos_ids.size()) <=
                     tail_capacity_,
                 "segmented cache tail overflow: reserve a larger "
                 "generation budget");
    const int first_tail = tail_.append_tokens(new_pos_ids);
    for (size_t i = 0; i < new_pos_ids.size(); ++i) {
      const int t = first_tail + static_cast<int>(i);
      for (int l = 0; l < n_layers_; ++l) {
        k_rows_[static_cast<size_t>(l)].push_back(tail_.k_row(l, t));
        v_rows_[static_cast<size_t>(l)].push_back(tail_.v_row(l, t));
      }
      pos_ids_.push_back(new_pos_ids[i]);
    }
    if (has_q8_) push_null_q8(new_pos_ids.size());
    if (has_q4_) push_null_q4(new_pos_ids.size());
    return size() - static_cast<int>(new_pos_ids.size());
  }

  const float* k_row(int layer, int token) const {
    return k_rows_[checked_layer(layer)][checked_token(token)];
  }
  const float* v_row(int layer, int token) const {
    return v_rows_[checked_layer(layer)][checked_token(token)];
  }

  // Raw per-layer row-pointer tables (size() entries), for the gathered
  // attention kernel: one bounds check per layer instead of one per row.
  // When has_q8(), entries for quantized tokens are null here and live in
  // the q8 tables below.
  const float* const* k_row_table(int layer) const {
    return k_rows_[checked_layer(layer)].data();
  }
  const float* const* v_row_table(int layer) const {
    return v_rows_[checked_layer(layer)].data();
  }

  // Whether any borrowed row is quantized; if so attention must use
  // attn_fused_q8_gather with the four tables below.
  bool has_q8() const { return has_q8_; }
  const int8_t* const* k8_row_table(int layer) const {
    PC_CHECK_MSG(has_q8_, "no q8 rows in this view");
    return k8_rows_[checked_layer(layer)].data();
  }
  const int8_t* const* v8_row_table(int layer) const {
    PC_CHECK_MSG(has_q8_, "no q8 rows in this view");
    return v8_rows_[checked_layer(layer)].data();
  }
  const float* k_scale_table(int layer) const {
    PC_CHECK_MSG(has_q8_, "no q8 rows in this view");
    return k_scales_[checked_layer(layer)].data();
  }
  const float* v_scale_table(int layer) const {
    PC_CHECK_MSG(has_q8_, "no q8 rows in this view");
    return v_scales_[checked_layer(layer)].data();
  }

  // Whether any borrowed row is Q4_0; if so attention must use
  // attn_fused_q4_gather with the four tables below. Unlike q8, the scale
  // tables hold POINTERS (each row has a per-block scale array).
  bool has_q4() const { return has_q4_; }
  const uint8_t* const* k4_row_table(int layer) const {
    PC_CHECK_MSG(has_q4_, "no q4 rows in this view");
    return k4_rows_[checked_layer(layer)].data();
  }
  const uint8_t* const* v4_row_table(int layer) const {
    PC_CHECK_MSG(has_q4_, "no q4 rows in this view");
    return v4_rows_[checked_layer(layer)].data();
  }
  const float* const* k4_scale_table(int layer) const {
    PC_CHECK_MSG(has_q4_, "no q4 rows in this view");
    return k4_scales_[checked_layer(layer)].data();
  }
  const float* const* v4_scale_table(int layer) const {
    PC_CHECK_MSG(has_q4_, "no q4 rows in this view");
    return v4_scales_[checked_layer(layer)].data();
  }

  // Writable access — owned tail rows only.
  float* k_row_mut(int layer, int token) {
    PC_CHECK_MSG(token >= borrowed_tokens_, "borrowed rows are read-only");
    return tail_.k_row(layer, token - borrowed_tokens_);
  }
  float* v_row_mut(int layer, int token) {
    PC_CHECK_MSG(token >= borrowed_tokens_, "borrowed rows are read-only");
    return tail_.v_row(layer, token - borrowed_tokens_);
  }

  int pos_id(int token) const {
    return pos_ids_[checked_token(token)];
  }

  // Payload bytes this view *owns* (the point of zero-copy: O(tail), not
  // O(prompt)).
  size_t owned_payload_bytes() const { return tail_.payload_bytes(); }
  // Bytes reserved for the owned tail: what the view holds in memory from
  // construction on, however many of its rows are written yet.
  size_t reserved_tail_bytes() const {
    return static_cast<size_t>(tail_capacity_) * kv_dim_ * 2 * n_layers_ *
           sizeof(float);
  }

 private:
  size_t checked_layer(int layer) const {
    PC_CHECK_MSG(layer >= 0 && layer < n_layers_, "layer out of range");
    return static_cast<size_t>(layer);
  }
  size_t checked_token(int token) const {
    PC_CHECK_MSG(token >= 0 && token < size(),
                 "token " << token << " out of range " << size());
    return static_cast<size_t>(token);
  }

  // Creates the q8 tables and backfills null/0 entries for every token
  // already published, so all tables stay index-aligned.
  void enable_q8() {
    if (has_q8_) return;
    has_q8_ = true;
    const size_t n = pos_ids_.size();
    k8_rows_.assign(static_cast<size_t>(n_layers_), {});
    v8_rows_.assign(static_cast<size_t>(n_layers_), {});
    k_scales_.assign(static_cast<size_t>(n_layers_), {});
    v_scales_.assign(static_cast<size_t>(n_layers_), {});
    for (int l = 0; l < n_layers_; ++l) {
      k8_rows_[static_cast<size_t>(l)].assign(n, nullptr);
      v8_rows_[static_cast<size_t>(l)].assign(n, nullptr);
      k_scales_[static_cast<size_t>(l)].assign(n, 0.0f);
      v_scales_[static_cast<size_t>(l)].assign(n, 0.0f);
    }
  }

  void push_null_q8(size_t n) {
    for (int l = 0; l < n_layers_; ++l) {
      k8_rows_[static_cast<size_t>(l)].insert(
          k8_rows_[static_cast<size_t>(l)].end(), n, nullptr);
      v8_rows_[static_cast<size_t>(l)].insert(
          v8_rows_[static_cast<size_t>(l)].end(), n, nullptr);
      k_scales_[static_cast<size_t>(l)].insert(
          k_scales_[static_cast<size_t>(l)].end(), n, 0.0f);
      v_scales_[static_cast<size_t>(l)].insert(
          v_scales_[static_cast<size_t>(l)].end(), n, 0.0f);
    }
  }

  // q4 analog of enable_q8/push_null_q8.
  void enable_q4() {
    if (has_q4_) return;
    has_q4_ = true;
    const size_t n = pos_ids_.size();
    k4_rows_.assign(static_cast<size_t>(n_layers_), {});
    v4_rows_.assign(static_cast<size_t>(n_layers_), {});
    k4_scales_.assign(static_cast<size_t>(n_layers_), {});
    v4_scales_.assign(static_cast<size_t>(n_layers_), {});
    for (int l = 0; l < n_layers_; ++l) {
      k4_rows_[static_cast<size_t>(l)].assign(n, nullptr);
      v4_rows_[static_cast<size_t>(l)].assign(n, nullptr);
      k4_scales_[static_cast<size_t>(l)].assign(n, nullptr);
      v4_scales_[static_cast<size_t>(l)].assign(n, nullptr);
    }
  }

  void push_null_q4(size_t n) {
    for (int l = 0; l < n_layers_; ++l) {
      k4_rows_[static_cast<size_t>(l)].insert(
          k4_rows_[static_cast<size_t>(l)].end(), n, nullptr);
      v4_rows_[static_cast<size_t>(l)].insert(
          v4_rows_[static_cast<size_t>(l)].end(), n, nullptr);
      k4_scales_[static_cast<size_t>(l)].insert(
          k4_scales_[static_cast<size_t>(l)].end(), n, nullptr);
      v4_scales_[static_cast<size_t>(l)].insert(
          v4_scales_[static_cast<size_t>(l)].end(), n, nullptr);
    }
  }

  int n_layers_;
  int kv_dim_;
  int tail_capacity_;
  int borrowed_tokens_ = 0;
  bool has_q8_ = false;
  bool has_q4_ = false;
  KVCache tail_;
  std::vector<std::vector<const float*>> k_rows_;  // [layer][token]
  std::vector<std::vector<const float*>> v_rows_;
  // Mixed-format tables, index-aligned with the fp32 tables when enabled:
  // exactly one of k_rows_[l][t] / k8_rows_[l][t] / k4_rows_[l][t] is
  // non-null per token.
  std::vector<std::vector<const int8_t*>> k8_rows_;
  std::vector<std::vector<const int8_t*>> v8_rows_;
  std::vector<std::vector<float>> k_scales_;  // [layer][token], 0 for fp32
  std::vector<std::vector<float>> v_scales_;
  std::vector<std::vector<const uint8_t*>> k4_rows_;   // packed Q4_0 rows
  std::vector<std::vector<const uint8_t*>> v4_rows_;
  std::vector<std::vector<const float*>> k4_scales_;   // per-block arrays
  std::vector<std::vector<const float*>> v4_scales_;
  std::vector<int> pos_ids_;
};

}  // namespace pc
