// Optimizer tests: Adam mechanics and convergence, lazy Adam on
// row-sparse embedding gradients, gradient clipping.
#include "nn/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "bit_identity.h"
#include "nn/module.h"
#include "nn/tensor.h"
#include "util/random.h"

namespace poisonrec::nn {
namespace {

TEST(AdamTest, FirstStepIsLrSized) {
  // With bias correction, the first Adam step ~= lr * sign(grad).
  Tensor w = Tensor::FromData(1, 1, {0.0f}, true);
  Adam opt({w}, 0.01f);
  w.mutable_grad()[0] = 5.0f;
  opt.Step();
  EXPECT_NEAR(w.at(0, 0), -0.01f, 1e-4f);
}

TEST(AdamTest, ConvergesOnShiftedQuadratic) {
  Tensor w = Tensor::FromData(1, 3, {4.0f, -2.0f, 9.0f}, true);
  Tensor target = Tensor::FromData(1, 3, {1.0f, 2.0f, 3.0f});
  Adam opt({w}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    Tensor loss = Sum(Square(Sub(w, target)));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(w.at(0, c), target.at(0, c), 1e-2f);
  }
}

TEST(AdamTest, StepCountAdvances) {
  Tensor w = Tensor::FromData(1, 1, {1.0f}, true);
  Adam opt({w}, 0.01f);
  EXPECT_EQ(opt.step_count(), 0u);
  w.mutable_grad()[0] = 1.0f;
  opt.Step();
  opt.Step();
  EXPECT_EQ(opt.step_count(), 2u);
}

// Hyperparameters and reference math for the lazy-Adam tests: one Adam
// step from zero moments, written in the order Adam::Step evaluates it.
constexpr float kLr = 0.01f;
constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;
constexpr float kDecay = 0.1f;

float FirstAdamStep(float value, float grad) {
  const float bc1 = 1.0f - std::pow(kBeta1, 1.0f);
  const float bc2 = 1.0f - std::pow(kBeta2, 1.0f);
  const float g = grad + kDecay * value;
  const float m = kBeta1 * 0.0f + (1.0f - kBeta1) * g;
  const float v = kBeta2 * 0.0f + (1.0f - kBeta2) * g * g;
  return value - kLr * (m / bc1) / (std::sqrt(v / bc2) + kEps);
}

// Loss over a gather of rows {1, 4, 1}: row 1 is looked up twice.
Tensor GatherLoss(const Embedding& emb) {
  return Sum(Square(emb.Forward({1, 4, 1})));
}

TEST(AdamTest, GatherOnlyTableUpdatesOnlyGatheredRows) {
  Rng rng(7);
  Embedding emb(6, 3, &rng);
  Tensor table = emb.table();
  const std::vector<float> before = table.data();
  Adam opt(emb.Parameters(), kLr, kBeta1, kBeta2, kEps, kDecay);
  Tensor loss = GatherLoss(emb);
  opt.ZeroGrad();
  loss.Backward();
  ASSERT_TRUE(table.row_sparse_grad());
  EXPECT_EQ(table.grad_rows(), (std::vector<std::size_t>{1, 4}));
  opt.Step();

  const std::vector<float>& m = opt.first_moments()[0];
  const std::vector<float>& v = opt.second_moments()[0];
  for (std::size_t r : {0u, 2u, 3u, 5u}) {
    for (std::size_t c = 0; c < 3; ++c) {
      const std::size_t j = r * 3 + c;
      EXPECT_EQ(table.data()[j], before[j]) << "row " << r;
      EXPECT_EQ(m[j], 0.0f) << "row " << r;
      EXPECT_EQ(v[j], 0.0f) << "row " << r;
    }
  }
  // d/dx sum(x^2) = 2x per lookup; row 1's two lookups sum to 4x, and
  // the row is updated once with that sum.
  for (std::size_t c = 0; c < 3; ++c) {
    const std::size_t j1 = 3 + c;
    const std::size_t j4 = 12 + c;
    EXPECT_EQ(table.grad()[j1], 4.0f * before[j1]);
    EXPECT_EQ(table.grad()[j4], 2.0f * before[j4]);
    EXPECT_EQ(table.data()[j1], FirstAdamStep(before[j1], 4.0f * before[j1]));
    EXPECT_EQ(table.data()[j4], FirstAdamStep(before[j4], 2.0f * before[j4]));
  }
}

TEST(AdamTest, TableAlsoReadDenselyKeepsDenseUpdate) {
  Rng rng(7);
  Embedding emb(6, 3, &rng);
  Tensor table = emb.table();
  const std::vector<float> before = table.data();
  Adam opt(emb.Parameters(), kLr, kBeta1, kBeta2, kEps, kDecay);
  // One tape reads the table through Rows and through MatMul.
  Tensor loss = Add(GatherLoss(emb),
                    Sum(MatMul(Tensor::Ones(1, 6), emb.table())));
  opt.ZeroGrad();
  loss.Backward();
  EXPECT_FALSE(table.row_sparse_grad());
  EXPECT_TRUE(table.grad_rows().empty());
  const std::vector<float> grad = table.grad();
  opt.Step();
  for (std::size_t j = 0; j < before.size(); ++j) {
    EXPECT_EQ(table.data()[j], FirstAdamStep(before[j], grad[j]))
        << "element " << j;
  }
}

// Adam's scalar loop over elements [begin, end), written out as
// optimizer.h's update states it: the vectorized step must match it bit
// for bit.
void ReferenceAdamRange(std::vector<float>* data, const std::vector<float>& grad,
                        std::vector<float>* m, std::vector<float>* v,
                        std::size_t begin, std::size_t end, std::size_t step) {
  const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(step));
  const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(step));
  for (std::size_t j = begin; j < end; ++j) {
    const float g = grad[j] + kDecay * (*data)[j];
    (*m)[j] = kBeta1 * (*m)[j] + (1.0f - kBeta1) * g;
    (*v)[j] = kBeta2 * (*v)[j] + (1.0f - kBeta2) * g * g;
    (*data)[j] -= kLr * ((*m)[j] / bc1) / (std::sqrt((*v)[j] / bc2) + kEps);
  }
}

// Several steps with weight decay on a dense parameter whose size is
// not a multiple of the vector width, and on a row-sparse table whose
// gathered rows change every step.
TEST(AdamTest, StepMatchesTheScalarLoopBitForBit) {
  Rng rng(13);
  Tensor dense = Tensor::Rand(3, 7, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
  Embedding emb(9, 5, &rng);
  Tensor table = emb.table();
  Adam opt({dense, table}, kLr, kBeta1, kBeta2, kEps, kDecay);
  std::vector<float> dense_want = dense.data();
  std::vector<float> table_want = table.data();
  std::vector<float> dense_m(dense.size(), 0.0f), dense_v(dense.size(), 0.0f);
  std::vector<float> table_m(table.size(), 0.0f), table_v(table.size(), 0.0f);
  const std::vector<std::vector<std::size_t>> gathers = {
      {1, 4, 1}, {0, 8}, {4, 2, 7, 2}, {1}, {3, 4, 5, 6}};
  for (std::size_t step = 1; step <= gathers.size(); ++step) {
    SCOPED_TRACE(step);
    opt.ZeroGrad();
    Tensor loss = Add(Sum(Square(MatMul(dense, Tensor::Ones(7, 2)))),
                      Sum(Square(emb.Forward(gathers[step - 1]))));
    loss.Backward();
    ASSERT_TRUE(table.row_sparse_grad());
    ReferenceAdamRange(&dense_want, dense.grad(), &dense_m, &dense_v, 0,
                       dense.size(), step);
    for (std::size_t r : table.grad_rows()) {
      ReferenceAdamRange(&table_want, table.grad(), &table_m, &table_v,
                         r * 5, (r + 1) * 5, step);
    }
    opt.Step();
    EXPECT_TRUE(SameBits(dense.data(), dense_want));
    EXPECT_TRUE(SameBits(opt.first_moments()[0], dense_m));
    EXPECT_TRUE(SameBits(opt.second_moments()[0], dense_v));
    EXPECT_TRUE(SameBits(table.data(), table_want));
    EXPECT_TRUE(SameBits(opt.first_moments()[1], table_m));
    EXPECT_TRUE(SameBits(opt.second_moments()[1], table_v));
  }
}

TEST(AdamTest, ZeroGradClearsGatherOnlyTable) {
  Rng rng(7);
  Embedding emb(6, 3, &rng);
  Tensor table = emb.table();
  Adam opt(emb.Parameters(), kLr);
  const auto all_zero = [&table]() {
    for (float g : table.grad()) {
      if (g != 0.0f) return false;
    }
    return true;
  };

  // After a gather backward: only the listed rows were written.
  GatherLoss(emb).Backward();
  ASSERT_TRUE(table.row_sparse_grad());
  ASSERT_FALSE(all_zero());
  opt.ZeroGrad();
  EXPECT_TRUE(all_zero());
  EXPECT_TRUE(table.grad_rows().empty());

  // After a direct write outside any listed row, alone and on top of a
  // gather backward.
  table.mutable_grad()[2 * 3 + 1] = 5.0f;
  opt.ZeroGrad();
  EXPECT_TRUE(all_zero());
  GatherLoss(emb).Backward();
  table.mutable_grad()[5 * 3] = -1.0f;
  opt.ZeroGrad();
  EXPECT_TRUE(all_zero());

  // The table stays row-sparse and keeps listing rows afterwards.
  GatherLoss(emb).Backward();
  EXPECT_TRUE(table.row_sparse_grad());
  EXPECT_EQ(table.grad_rows(), (std::vector<std::size_t>{1, 4}));
}

TEST(OptimizerTest, ZeroGradClearsAll) {
  Tensor a = Tensor::FromData(1, 1, {1.0f}, true);
  Tensor b = Tensor::FromData(1, 2, {1.0f, 2.0f}, true);
  Adam opt({a, b}, 0.1f);
  a.mutable_grad()[0] = 3.0f;
  b.mutable_grad()[1] = 4.0f;
  opt.ZeroGrad();
  EXPECT_EQ(a.grad()[0], 0.0f);
  EXPECT_EQ(b.grad()[1], 0.0f);
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  Tensor w = Tensor::FromData(1, 2, {0.0f, 0.0f}, true);
  w.mutable_grad() = {3.0f, 4.0f};  // norm 5
  const float before = ClipGradNorm({w}, 1.0f);
  EXPECT_NEAR(before, 5.0f, 1e-5f);
  const float after = std::sqrt(w.grad()[0] * w.grad()[0] +
                                w.grad()[1] * w.grad()[1]);
  EXPECT_NEAR(after, 1.0f, 1e-5f);
  // Direction preserved.
  EXPECT_NEAR(w.grad()[0] / w.grad()[1], 0.75f, 1e-5f);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Tensor w = Tensor::FromData(1, 2, {0.0f, 0.0f}, true);
  w.mutable_grad() = {0.3f, 0.4f};  // norm 0.5
  ClipGradNorm({w}, 1.0f);
  EXPECT_FLOAT_EQ(w.grad()[0], 0.3f);
  EXPECT_FLOAT_EQ(w.grad()[1], 0.4f);
}

}  // namespace
}  // namespace poisonrec::nn
