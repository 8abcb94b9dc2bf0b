// A minimal dense tensor: contiguous, row-major, fp32.
//
// The inference engine only ever needs contiguous fp32 buffers with explicit
// shapes; views and broadcasting are intentionally out of scope (Core
// Guidelines P.11 — keep the messy indexing encapsulated in the kernels that
// need it). Reduced-precision storage for cached attention states lives in
// kv/quant.h.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"

namespace pc {

class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
    data_.assign(checked_numel(shape_), 0.0f);
  }

  Tensor(std::initializer_list<int64_t> shape)
      : Tensor(std::vector<int64_t>(shape)) {}

  static Tensor zeros(std::vector<int64_t> shape) {
    return Tensor(std::move(shape));
  }

  static Tensor full(std::vector<int64_t> shape, float value) {
    Tensor t(std::move(shape));
    for (auto& x : t.data_) x = value;
    return t;
  }

  static Tensor from(std::vector<float> data, std::vector<int64_t> shape) {
    PC_CHECK_MSG(data.size() == checked_numel(shape),
                 "data size " << data.size() << " != shape numel");
    Tensor t;
    t.shape_ = std::move(shape);
    t.data_ = std::move(data);
    return t;
  }

  bool empty() const { return data_.empty(); }
  size_t numel() const { return data_.size(); }
  size_t ndim() const { return shape_.size(); }
  const std::vector<int64_t>& shape() const { return shape_; }

  int64_t dim(size_t i) const {
    PC_CHECK(i < shape_.size());
    return shape_[i];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  float& at(int64_t i) {
    PC_CHECK(ndim() == 1);
    return data_[checked_index(i, shape_[0])];
  }
  float at(int64_t i) const { return const_cast<Tensor*>(this)->at(i); }

  float& at(int64_t i, int64_t j) {
    PC_CHECK(ndim() == 2);
    return data_[checked_index(i, shape_[0]) * shape_[1] +
                 checked_index(j, shape_[1])];
  }
  float at(int64_t i, int64_t j) const {
    return const_cast<Tensor*>(this)->at(i, j);
  }

  float& at(int64_t i, int64_t j, int64_t k) {
    PC_CHECK(ndim() == 3);
    return data_[(checked_index(i, shape_[0]) * shape_[1] +
                  checked_index(j, shape_[1])) *
                     shape_[2] +
                 checked_index(k, shape_[2])];
  }
  float at(int64_t i, int64_t j, int64_t k) const {
    return const_cast<Tensor*>(this)->at(i, j, k);
  }

  // Pointer to row i of a 2-D tensor.
  float* row(int64_t i) {
    PC_CHECK(ndim() == 2);
    return data_.data() + checked_index(i, shape_[0]) * shape_[1];
  }
  const float* row(int64_t i) const { return const_cast<Tensor*>(this)->row(i); }

  std::span<float> row_span(int64_t i) {
    return {row(i), static_cast<size_t>(shape_[1])};
  }
  std::span<const float> row_span(int64_t i) const {
    return {row(i), static_cast<size_t>(shape_[1])};
  }

  // Returns a tensor with the same data and a new shape (numel must match).
  Tensor reshaped(std::vector<int64_t> new_shape) const {
    PC_CHECK_MSG(checked_numel(new_shape) == numel(),
                 "reshape numel mismatch");
    Tensor t;
    t.shape_ = std::move(new_shape);
    t.data_ = data_;
    return t;
  }

  void fill(float value) {
    for (auto& x : data_) x = value;
  }

  size_t byte_size() const { return data_.size() * sizeof(float); }

  std::string shape_str() const {
    std::string s = "[";
    for (size_t i = 0; i < shape_.size(); ++i) {
      if (i) s += ", ";
      s += std::to_string(shape_[i]);
    }
    return s + "]";
  }

 private:
  static size_t checked_numel(const std::vector<int64_t>& shape) {
    size_t n = 1;
    for (int64_t d : shape) {
      PC_CHECK_MSG(d >= 0, "negative dimension");
      n *= static_cast<size_t>(d);
    }
    return n;
  }

  static int64_t checked_index(int64_t i, int64_t bound) {
    PC_CHECK_MSG(i >= 0 && i < bound,
                 "index " << i << " out of bound " << bound);
    return i;
  }

  std::vector<int64_t> shape_;
  std::vector<float> data_;
};

}  // namespace pc
