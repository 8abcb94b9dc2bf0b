// Unit tests for the tensor library: kernels checked against naive
// references and shape contracts.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace pc {
namespace {

Tensor random_tensor(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (float& x : t.span()) x = rng.uniform(-1.0f, 1.0f);
  return t;
}

TEST(Tensor, ConstructionAndIndexing) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.ndim(), 2u);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
  EXPECT_EQ(t.shape_str(), "[2, 3]");
}

TEST(Tensor, OutOfBoundsThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at(2, 0), ContractViolation);
  EXPECT_THROW(t.at(0, 3), ContractViolation);
  EXPECT_THROW(t.at(5), ContractViolation);  // wrong ndim
}

TEST(Tensor, FromRejectsSizeMismatch) {
  EXPECT_THROW(Tensor::from({1.0f, 2.0f}, {3}), ContractViolation);
  const Tensor t = Tensor::from({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_FLOAT_EQ(t.at(1, 0), 4.0f);
}

TEST(Tensor, ReshapedSharesValues) {
  const Tensor t = Tensor::from({1, 2, 3, 4}, {2, 2});
  const Tensor r = t.reshaped({4});
  EXPECT_FLOAT_EQ(r.at(3), 4.0f);
  EXPECT_THROW(t.reshaped({3}), ContractViolation);
}

TEST(Ops, MatmulMatchesNaive) {
  const Tensor a = random_tensor({5, 7}, 1);
  const Tensor b = random_tensor({7, 4}, 2);
  const Tensor c = matmul(a, b);
  ASSERT_EQ(c.shape(), (std::vector<int64_t>{5, 4}));
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      float ref = 0;
      for (int64_t k = 0; k < 7; ++k) ref += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), ref, 1e-5f);
    }
  }
}

TEST(Ops, MatmulNtMatchesMatmul) {
  const Tensor a = random_tensor({6, 8}, 3);
  const Tensor bt = random_tensor({5, 8}, 4);  // B^T stored [n, k]
  Tensor b({8, 5});
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t k = 0; k < 8; ++k) b.at(k, i) = bt.at(i, k);
  }
  const Tensor via_nt = matmul_nt(a, bt);
  const Tensor via_mm = matmul(a, b);
  EXPECT_LE(max_abs_diff(via_nt, via_mm), 1e-5f);
}

TEST(Ops, MatmulShapeContracts) {
  const Tensor a = random_tensor({2, 3}, 5);
  const Tensor bad = random_tensor({4, 2}, 6);
  EXPECT_THROW(matmul(a, bad), ContractViolation);
  EXPECT_THROW(matmul_nt(a, random_tensor({4, 4}, 7)), ContractViolation);
}

TEST(Ops, SoftmaxNormalizesAndIsStable) {
  std::vector<float> row = {1000.0f, 1001.0f, 999.0f};
  softmax_inplace(row.data(), row.size());
  float sum = 0;
  for (float x : row) {
    EXPECT_TRUE(std::isfinite(x));
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_GT(row[1], row[0]);
  EXPECT_GT(row[0], row[2]);
}

TEST(Ops, SoftmaxHandlesMinusInfinity) {
  std::vector<float> row = {0.0f, -std::numeric_limits<float>::infinity(),
                            0.0f};
  softmax_inplace(row.data(), row.size());
  EXPECT_FLOAT_EQ(row[1], 0.0f);
  EXPECT_NEAR(row[0], 0.5f, 1e-6f);
}

TEST(Ops, RmsNormMatchesDefinition) {
  const size_t n = 8;
  std::vector<float> x(n), w(n, 2.0f), out(n);
  Rng rng(8);
  for (auto& v : x) v = rng.uniform(-2, 2);
  rmsnorm(x.data(), w.data(), out.data(), n, 1e-5f);
  float ss = 0;
  for (float v : x) ss += v * v;
  const float inv = 1.0f / std::sqrt(ss / n + 1e-5f);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(out[i], x[i] * inv * 2.0f, 1e-5f);
  }
}

TEST(Ops, LayerNormZeroMeanUnitVar) {
  const size_t n = 16;
  std::vector<float> x(n), w(n, 1.0f), out(n);
  Rng rng(9);
  for (auto& v : x) v = rng.uniform(-3, 3);
  layernorm(x.data(), w.data(), nullptr, out.data(), n, 1e-6f);
  float mean = 0, var = 0;
  for (float v : out) mean += v;
  mean /= n;
  for (float v : out) var += (v - mean) * (v - mean);
  var /= n;
  EXPECT_NEAR(mean, 0.0f, 1e-4f);
  EXPECT_NEAR(var, 1.0f, 1e-3f);
}

TEST(Ops, SiluAndGeluValues) {
  std::vector<float> x = {0.0f, 1.0f, -1.0f};
  auto y = x;
  silu_inplace(y.data(), y.size());
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_NEAR(y[1], 1.0f / (1.0f + std::exp(-1.0f)), 1e-6f);

  auto g = x;
  gelu_inplace(g.data(), g.size());
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_NEAR(g[1], 0.8412f, 1e-3f);
  EXPECT_NEAR(g[2], -0.1588f, 1e-3f);
}

TEST(Ops, ElementwiseHelpers) {
  Tensor a = Tensor::from({1, 2, 3}, {3});
  const Tensor b = Tensor::from({10, 20, 30}, {3});
  add_inplace(a, b);
  EXPECT_FLOAT_EQ(a.at(2), 33.0f);
  scale_inplace(a, 0.5f);
  EXPECT_FLOAT_EQ(a.at(0), 5.5f);
  Tensor c = Tensor::from({2, 2, 2}, {3});
  mul_inplace(c, b);
  EXPECT_FLOAT_EQ(c.at(1), 40.0f);
  EXPECT_THROW(add_inplace(a, Tensor({4})), ContractViolation);
}

}  // namespace
}  // namespace pc
