// Sparse CSR matrix + SparseMatMul tests, including the backward pass.
#include "nn/sparse.h"

#include <gtest/gtest.h>

#include "nn/tensor.h"
#include "util/random.h"

namespace poisonrec::nn {
namespace {

TEST(CsrTest, BuildsFromTriplets) {
  CsrMatrix m(2, 3, {{0, 1, 2.0f}, {1, 0, 3.0f}, {1, 2, 4.0f}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.row_offsets()[0], 0u);
  EXPECT_EQ(m.row_offsets()[1], 1u);
  EXPECT_EQ(m.row_offsets()[2], 3u);
}

TEST(CsrTest, CoalescesDuplicates) {
  CsrMatrix m(1, 1, {{0, 0, 1.0f}, {0, 0, 2.5f}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_FLOAT_EQ(m.values()[0], 3.5f);
}

TEST(SparseMatMulTest, MatchesDense) {
  // A = [[0, 2], [3, 0]], x = [[1, 1], [2, 2]] -> Ax = [[4, 4], [3, 3]]
  CsrMatrix a(2, 2, {{0, 1, 2.0f}, {1, 0, 3.0f}});
  Tensor x = Tensor::FromData(2, 2, {1, 1, 2, 2});
  Tensor y = SparseMatMul(a, x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 3.0f);
}

TEST(SparseMatMulTest, GradientMatchesNumerical) {
  Rng rng(1);
  CsrMatrix a(3, 3,
              {{0, 1, 1.5f}, {1, 2, -2.0f}, {2, 0, 0.5f}, {2, 2, 1.0f}});
  Tensor x = Tensor::Randn(3, 2, 0.5f, &rng, true);
  Tensor loss = Sum(Square(SparseMatMul(a, x)));
  loss.Backward();
  std::vector<float> numeric = NumericalGradient(
      [&a](const Tensor& t) {
        NoGradScope no_grad;
        return Sum(Square(SparseMatMul(a, t))).item();
      },
      x, 1e-2f);
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    EXPECT_NEAR(x.grad()[i], numeric[i], 0.02f + 0.05f * std::abs(numeric[i]));
  }
}

TEST(SparseMatMulTest, GatheredInputStaysDense) {
  // An embedding table that NGCF both gathers and propagates: its
  // gradient spans every row, so it must not turn row-sparse.
  CsrMatrix a(2, 2, {{0, 1, 1.0f}, {1, 0, 1.0f}});
  Tensor x = Tensor::FromData(2, 2, {1, 2, 3, 4}, true);
  Tensor loss = Add(Sum(Rows(x, {0})), Sum(SparseMatMul(a, x)));
  loss.Backward();
  EXPECT_FALSE(x.row_sparse_grad());
  EXPECT_TRUE(x.grad_rows().empty());
}

TEST(SparseMatMulTest, AgreesWithDenseMatMulRandomized) {
  Rng rng(2);
  const std::size_t n = 6;
  std::vector<CsrMatrix::Triplet> triplets;
  Tensor dense = Tensor::Zeros(n, n);
  for (int e = 0; e < 12; ++e) {
    const std::size_t r = rng.Index(n);
    const std::size_t c = rng.Index(n);
    const float v = static_cast<float>(rng.Normal());
    triplets.push_back({r, c, v});
    dense.set(r, c, dense.at(r, c) + v);
  }
  CsrMatrix sparse(n, n, triplets);
  Tensor x = Tensor::Randn(n, 3, 1.0f, &rng);
  Tensor ys = SparseMatMul(sparse, x);
  Tensor yd = MatMul(dense, x);
  for (std::size_t i = 0; i < ys.size(); ++i) {
    EXPECT_NEAR(ys.data()[i], yd.data()[i], 1e-4f);
  }
}

}  // namespace
}  // namespace poisonrec::nn
