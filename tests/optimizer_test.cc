// Optimizer tests: Adam mechanics and convergence, lazy Adam on
// row-sparse embedding gradients, gradient clipping.
#include "nn/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

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
