// Loss function tests: closed-form values, stability, gradient checks.
#include "nn/loss.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bit_identity.h"
#include "nn/tensor.h"
#include "util/random.h"

namespace poisonrec::nn {
namespace {

TEST(BceTest, MatchesClosedForm) {
  // BCE(logit=0, t) = log 2 regardless of t.
  Tensor logits = Tensor::FromData(2, 1, {0.0f, 0.0f});
  Tensor targets = Tensor::FromData(2, 1, {1.0f, 0.0f});
  Tensor loss = BceWithLogits(logits, targets);
  EXPECT_NEAR(loss.item(), std::log(2.0f), 1e-5f);
}

TEST(BceTest, ConfidentCorrectIsSmall) {
  Tensor logits = Tensor::FromData(2, 1, {8.0f, -8.0f});
  Tensor targets = Tensor::FromData(2, 1, {1.0f, 0.0f});
  EXPECT_LT(BceWithLogits(logits, targets).item(), 1e-3f);
}

TEST(BceTest, StableAtExtremeLogits) {
  Tensor logits = Tensor::FromData(2, 1, {60.0f, -60.0f});
  Tensor targets = Tensor::FromData(2, 1, {0.0f, 1.0f});
  const float v = BceWithLogits(logits, targets).item();
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_NEAR(v, 60.0f, 1e-3f);
}

TEST(BceTest, GradientCheck) {
  Rng rng(1);
  Tensor targets = Tensor::FromData(4, 1, {1, 0, 1, 0});
  Tensor logits = Tensor::Randn(4, 1, 1.0f, &rng, true);
  Tensor loss = BceWithLogits(logits, targets);
  loss.Backward();
  std::vector<float> numeric = NumericalGradient(
      [&targets](const Tensor& t) {
        NoGradScope no_grad;
        return BceWithLogits(t, targets).item();
      },
      logits, 1e-2f);
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    EXPECT_NEAR(logits.grad()[i], numeric[i], 1e-2f);
  }
}

TEST(MaskedMseTest, IgnoresUnmasked) {
  Tensor pred = Tensor::FromData(1, 3, {1.0f, 100.0f, 2.0f});
  Tensor target = Tensor::FromData(1, 3, {0.0f, 0.0f, 0.0f});
  Tensor mask = Tensor::FromData(1, 3, {1.0f, 0.0f, 1.0f});
  // (1 + 4) / 2 masked entries.
  EXPECT_NEAR(MaskedMseLoss(pred, target, mask).item(), 2.5f, 1e-5f);
}

TEST(BprTest, PositiveAboveNegativeGivesSmallLoss) {
  Tensor pos = Tensor::FromData(2, 1, {5.0f, 6.0f});
  Tensor neg = Tensor::FromData(2, 1, {-5.0f, -4.0f});
  EXPECT_LT(BprLoss(pos, neg).item(), 1e-3f);
}

TEST(BprTest, EqualScoresGiveLog2) {
  Tensor pos = Tensor::FromData(1, 1, {2.0f});
  Tensor neg = Tensor::FromData(1, 1, {2.0f});
  EXPECT_NEAR(BprLoss(pos, neg).item(), std::log(2.0f), 1e-5f);
}

TEST(BprTest, GradientPushesPosUpNegDown) {
  Tensor pos = Tensor::FromData(1, 1, {0.0f}, true);
  Tensor neg = Tensor::FromData(1, 1, {0.0f}, true);
  Tensor loss = BprLoss(pos, neg);
  loss.Backward();
  EXPECT_LT(pos.grad()[0], 0.0f);  // descending on loss raises pos
  EXPECT_GT(neg.grad()[0], 0.0f);
}

TEST(SoftmaxCeTest, UniformLogitsGiveLogN) {
  Tensor logits = Tensor::Zeros(2, 4);
  Tensor loss = SoftmaxCrossEntropy(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5f);
}

TEST(SoftmaxCeTest, CorrectConfidentIsSmall) {
  Tensor logits = Tensor::FromData(1, 3, {10.0f, 0.0f, 0.0f});
  EXPECT_LT(SoftmaxCrossEntropy(logits, {0}).item(), 1e-3f);
}

TEST(SoftmaxCeTest, GradientCheck) {
  Rng rng(2);
  Tensor logits = Tensor::Randn(3, 5, 1.0f, &rng, true);
  std::vector<std::size_t> targets = {1, 4, 0};
  Tensor loss = SoftmaxCrossEntropy(logits, targets);
  loss.Backward();
  std::vector<float> numeric = NumericalGradient(
      [&targets](const Tensor& t) {
        NoGradScope no_grad;
        return SoftmaxCrossEntropy(t, targets).item();
      },
      logits, 1e-2f);
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    EXPECT_NEAR(logits.grad()[i], numeric[i], 1e-2f);
  }
}

TEST(SoftmaxCeTest, FusedMatchesComposedChainBitwise) {
  // Against the same loss composed from public ops, under a non-unit
  // upstream gradient (the loss is scaled by 1.7).
  const std::vector<std::size_t> targets = {0, 3, 8, 1};
  const auto run = [&targets](const Tensor& logits0, bool fused) {
    Tensor logits = logits0.DeepCopy(/*requires_grad=*/true);
    Tensor loss;
    if (fused) {
      loss = SoftmaxCrossEntropy(logits, targets);
    } else {
      Tensor onehot = Tensor::Zeros(logits.rows(), logits.cols());
      for (std::size_t r = 0; r < targets.size(); ++r) {
        onehot.set(r, targets[r], 1.0f);
      }
      loss = Scale(Mean(RowSum(Mul(LogSoftmax(logits), onehot))), -1.0f);
    }
    Scale(loss, 1.7f).Backward();
    return std::vector<std::vector<float>>{loss.data(), logits.grad()};
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Tensor logits = Tensor::Randn(4, 9, 3.0f, &rng);
    const std::vector<std::vector<float>> fused = run(logits, true);
    const std::vector<std::vector<float>> composed = run(logits, false);
    EXPECT_TRUE(SameBits(fused[0], composed[0])) << "loss, seed " << seed;
    EXPECT_TRUE(SameBits(fused[1], composed[1]))
        << "logits grad, seed " << seed;
  }
}

}  // namespace
}  // namespace poisonrec::nn
