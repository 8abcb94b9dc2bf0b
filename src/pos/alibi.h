// ALiBi positional biases (Press et al. 2022), MPT/Bloom style, adapted for
// arbitrary position IDs.
//
// ALiBi adds -slope_h * distance(query, key) to attention scores. Stock
// implementations derive distance from tensor indices; Prompt Cache (§4.2)
// instead keeps the true position ID of every cached key so the bias can be
// reconstructed after modules are relocated and concatenated.
#pragma once

#include <cmath>
#include <vector>

#include "common/error.h"

namespace pc {

class Alibi {
 public:
  explicit Alibi(int n_heads) : slopes_(make_slopes(n_heads)) {}

  int n_heads() const { return static_cast<int>(slopes_.size()); }

  float slope(int head) const {
    PC_CHECK(head >= 0 && head < n_heads());
    return slopes_[static_cast<size_t>(head)];
  }

  // All n_heads slopes, head-major (a GQA group's heads are consecutive).
  const float* slopes() const { return slopes_.data(); }

  // Additive attention bias for a (query position, key position) pair.
  float bias(int head, int q_pos, int k_pos) const {
    return -slope(head) * static_cast<float>(q_pos - k_pos);
  }

  // Geometric slope schedule 2^(-8/n), 2^(-16/n), ... For non-power-of-two
  // head counts we use the standard interleaving from the ALiBi paper.
  static std::vector<float> make_slopes(int n_heads) {
    PC_CHECK(n_heads > 0);
    auto pow2_slopes = [](int n) {
      std::vector<float> s(static_cast<size_t>(n));
      const double start = std::pow(2.0, -8.0 / n);
      double v = start;
      for (int i = 0; i < n; ++i) {
        s[static_cast<size_t>(i)] = static_cast<float>(v);
        v *= start;
      }
      return s;
    };
    // Largest power of two <= n_heads.
    int base = 1;
    while (base * 2 <= n_heads) base *= 2;
    std::vector<float> slopes = pow2_slopes(base);
    if (base < n_heads) {
      const std::vector<float> extra = pow2_slopes(2 * base);
      for (size_t i = 0; slopes.size() < static_cast<size_t>(n_heads);
           i += 2) {
        slopes.push_back(extra[i]);
      }
    }
    return slopes;
  }

 private:
  std::vector<float> slopes_;
};

}  // namespace pc
