// Tests for nn modules: shapes, parameter plumbing, gradient flow,
// end-to-end gradient checks through LSTM/GRU cells, and the fused GRU
// gates' bit identity with the same formulas composed from public ops.
#include "nn/module.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bit_identity.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"

namespace poisonrec::nn {
namespace {

TEST(LinearTest, OutputShapeAndBias) {
  Rng rng(1);
  Linear layer(3, 2, &rng);
  Tensor x = Tensor::Ones(4, 3);
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  EXPECT_EQ(layer.NumParameters(), 3u * 2u + 2u);
}

TEST(LinearTest, GradientFlowsToWeightAndBias) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  Tensor x = Tensor::Ones(1, 3);
  Tensor loss = Sum(Square(layer.Forward(x)));
  loss.Backward();
  float wg = 0.0f;
  for (float g : layer.weight().grad()) wg += std::abs(g);
  float bg = 0.0f;
  for (float g : layer.bias().grad()) bg += std::abs(g);
  EXPECT_GT(wg, 0.0f);
  EXPECT_GT(bg, 0.0f);
}

TEST(EmbeddingTest, LookupShapes) {
  Rng rng(3);
  Embedding emb(10, 4, &rng);
  Tensor rows = emb.Forward({1, 7, 1});
  EXPECT_EQ(rows.rows(), 3u);
  EXPECT_EQ(rows.cols(), 4u);
  // Repeated id returns identical rows.
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(rows.at(0, c), rows.at(2, c));
  }
}

TEST(EmbeddingTest, OnlyTouchedRowsGetGradient) {
  Rng rng(4);
  Embedding emb(5, 3, &rng);
  Tensor loss = Sum(emb.Forward({2}));
  loss.Backward();
  const std::vector<float>& g = emb.table().grad();
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      if (r == 2) {
        EXPECT_FLOAT_EQ(g[r * 3 + c], 1.0f);
      } else {
        EXPECT_FLOAT_EQ(g[r * 3 + c], 0.0f);
      }
    }
  }
}

TEST(MlpTest, HiddenReluFinalLinear) {
  Rng rng(5);
  Mlp mlp({4, 8, 2}, &rng);
  Tensor x = Tensor::Ones(3, 4);
  Tensor y = mlp.Forward(x);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 2u);
  // Final layer is linear: outputs may be negative.
  EXPECT_EQ(mlp.Parameters().size(), 4u);
}

TEST(MlpTest, CopyParametersFrom) {
  Rng rng1(6);
  Rng rng2(7);
  Mlp a({3, 3}, &rng1);
  Mlp b({3, 3}, &rng2);
  b.CopyParametersFrom(a);
  Tensor x = Tensor::Ones(1, 3);
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(LstmTest, StepShapesAndStateEvolution) {
  Rng rng(8);
  LstmCell lstm(4, 6, &rng);
  auto state = lstm.InitialState(2);
  EXPECT_EQ(state.h.rows(), 2u);
  EXPECT_EQ(state.h.cols(), 6u);
  Tensor x = Tensor::Ones(2, 4);
  auto next = lstm.Step(x, state);
  float moved = 0.0f;
  for (float v : next.h.data()) moved += std::abs(v);
  EXPECT_GT(moved, 0.0f);  // state moved away from zero
  // Cell state bounded by tanh dynamics: |h| < 1.
  for (float v : next.h.data()) EXPECT_LT(std::abs(v), 1.0f);
}

TEST(LstmTest, GradientThroughThreeSteps) {
  Rng rng(9);
  LstmCell lstm(3, 3, &rng);
  Tensor x = Tensor::Randn(2, 3, 0.5f, &rng, /*requires_grad=*/true);
  auto state = lstm.InitialState(2);
  for (int t = 0; t < 3; ++t) state = lstm.Step(x, state);
  Tensor loss = Sum(Square(state.h));
  loss.Backward();
  // Check input gradient numerically.
  std::vector<float> analytic = x.grad();
  std::vector<float> numeric = NumericalGradient(
      [&lstm](const Tensor& t) {
        NoGradScope no_grad;
        auto s = lstm.InitialState(2);
        for (int i = 0; i < 3; ++i) s = lstm.Step(t, s);
        return Sum(Square(s.h)).item();
      },
      x, 1e-2f);
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    EXPECT_NEAR(analytic[i], numeric[i], 0.02f + 0.05f * std::abs(numeric[i]));
  }
}

TEST(LstmTest, ForgetBiasInitializedToOne) {
  Rng rng(10);
  LstmCell lstm(2, 4, &rng);
  // Parameters() returns by value; take a (shared-storage) copy instead
  // of a reference into the destroyed temporary vector.
  const Tensor bias = lstm.Parameters()[2];
  for (std::size_t c = 4; c < 8; ++c) {
    EXPECT_FLOAT_EQ(bias.at(0, c), 1.0f);
  }
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(bias.at(0, c), 0.0f);
  }
}

TEST(GruTest, StepShapes) {
  Rng rng(11);
  GruCell gru(4, 5, &rng);
  Tensor h = gru.InitialState(3);
  EXPECT_EQ(h.rows(), 3u);
  EXPECT_EQ(h.cols(), 5u);
  Tensor x = Tensor::Ones(3, 4);
  Tensor h2 = gru.Step(x, h);
  EXPECT_EQ(h2.rows(), 3u);
  EXPECT_EQ(h2.cols(), 5u);
}

TEST(GruTest, GradientThroughSteps) {
  Rng rng(12);
  GruCell gru(3, 3, &rng);
  Tensor x = Tensor::Randn(1, 3, 0.5f, &rng, true);
  Tensor h = gru.InitialState(1);
  for (int t = 0; t < 3; ++t) h = gru.Step(x, h);
  Tensor loss = Sum(Square(h));
  loss.Backward();
  std::vector<float> numeric = NumericalGradient(
      [&gru](const Tensor& t) {
        NoGradScope no_grad;
        Tensor s = gru.InitialState(1);
        for (int i = 0; i < 3; ++i) s = gru.Step(t, s);
        return Sum(Square(s)).item();
      },
      x, 1e-2f);
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    EXPECT_NEAR(x.grad()[i], numeric[i],
                0.02f + 0.05f * std::abs(numeric[i]));
  }
}

TEST(GruTest, InterpolatesBetweenStateAndCandidate) {
  // h' = (1-z) n + z h is a convex combination, so |h'| stays bounded by
  // max(|h|, 1) since |n| < 1.
  Rng rng(13);
  GruCell gru(2, 4, &rng);
  Tensor h = gru.InitialState(1);
  Tensor x = Tensor::Full(1, 2, 3.0f);
  for (int t = 0; t < 50; ++t) h = gru.Step(x, h);
  for (float v : h.data()) EXPECT_LE(std::abs(v), 1.0f + 1e-5f);
}

// The GRU gate formulas composed from public elementwise ops: the
// reference GruGates must reproduce bit for bit.
Tensor ComposedGruGates(const Tensor& gx, const Tensor& gh, const Tensor& h) {
  const std::size_t hs = h.cols();
  Tensor z = Sigmoid(Add(Cols(gx, 0, hs), Cols(gh, 0, hs)));
  Tensor r = Sigmoid(Add(Cols(gx, hs, hs), Cols(gh, hs, hs)));
  Tensor n = Tanh(Add(Cols(gx, 2 * hs, hs), Mul(r, Cols(gh, 2 * hs, hs))));
  Tensor one_minus_z = AddScalar(Scale(z, -1.0f), 1.0f);
  return Add(Mul(one_minus_z, n), Mul(z, h));
}

struct GruGatesRun {
  std::vector<float> out, gx_grad, gh_grad, h_grad;
};

/// One gate step under the loss Sum(out * w), fused or composed, on fresh
/// copies of the inputs.
GruGatesRun RunGruGates(bool fused, const Tensor& gx0, const Tensor& gh0,
                        const Tensor& h0, bool h_requires_grad,
                        const Tensor& w) {
  Tensor gx = gx0.DeepCopy(/*requires_grad=*/true);
  Tensor gh = gh0.DeepCopy(/*requires_grad=*/true);
  Tensor h = h0.DeepCopy(h_requires_grad);
  Tensor out = fused ? GruGates(gx, gh, h) : ComposedGruGates(gx, gh, h);
  Sum(Mul(out, w)).Backward();
  return {out.data(), gx.grad(), gh.grad(), h.grad()};
}

TEST(GruGatesTest, BitIdenticalToComposedChain) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Tensor gx = Tensor::Randn(7, 15, 2.0f, &rng);
    const Tensor gh = Tensor::Randn(7, 15, 2.0f, &rng);
    const Tensor h = Tensor::Randn(7, 5, 1.0f, &rng);
    const Tensor w = Tensor::Randn(7, 5, 1.0f, &rng);
    // The second case is GRU4Rec's first step: a zero initial state that
    // does not require grad.
    for (const bool initial_state : {false, true}) {
      const Tensor h0 = initial_state ? Tensor::Zeros(7, 5) : h;
      const GruGatesRun fused =
          RunGruGates(true, gx, gh, h0, !initial_state, w);
      const GruGatesRun composed =
          RunGruGates(false, gx, gh, h0, !initial_state, w);
      const std::string where = "seed " + std::to_string(seed) +
                                (initial_state ? ", initial state" : "");
      EXPECT_TRUE(SameBits(fused.out, composed.out)) << where;
      EXPECT_TRUE(SameBits(fused.gx_grad, composed.gx_grad)) << where;
      EXPECT_TRUE(SameBits(fused.gh_grad, composed.gh_grad)) << where;
      EXPECT_TRUE(SameBits(fused.h_grad, composed.h_grad)) << where;
      EXPECT_EQ(fused.h_grad.empty(), initial_state) << where;
    }
  }
}

TEST(GruGatesTest, NoGradScopeRecordsNothing) {
  Rng rng(21);
  const Tensor gx = Tensor::Randn(2, 6, 1.0f, &rng, /*requires_grad=*/true);
  const Tensor gh = Tensor::Randn(2, 6, 1.0f, &rng, /*requires_grad=*/true);
  const Tensor h = Tensor::Randn(2, 2, 1.0f, &rng, /*requires_grad=*/true);
  const Tensor recorded = GruGates(gx, gh, h);
  NoGradScope no_grad;
  const Tensor out = GruGates(gx, gh, h);
  EXPECT_FALSE(out.requires_grad());
  EXPECT_TRUE(out.impl()->parents.empty());
  EXPECT_TRUE(out.grad().empty());
  EXPECT_TRUE(SameBits(out.data(), recorded.data()));
}

// GRU4Rec's training graph in miniature: a cell unrolled over four
// embedded items, each new state scored against embedded candidates by a
// MatMul, like GRU4Rec's logits. Each state's gradient then collects
// three terms (the next step's z * h, its MatMul with W_h, and the
// scores), and the embedding and weight gradients sum over steps, so this
// pins the tape order as well as the per-element arithmetic.
TEST(GruGatesTest, UnrolledCellBitIdenticalToComposedChain) {
  const std::vector<std::size_t> items = {3, 1, 4, 1};
  const auto run = [&items](bool fused) {
    Rng rng(31);
    Embedding table(6, 4, &rng);
    GruCell cell(4, 4, &rng);
    const std::vector<Tensor> p = cell.Parameters();  // W_x, W_h, b_x, b_h
    Tensor h = cell.InitialState(1);
    Tensor loss;
    for (std::size_t item : items) {
      Tensor x = table.Forward({item});
      if (fused) {
        h = cell.Step(x, h);
      } else {
        Tensor gx = Add(MatMul(x, p[0]), p[2]);
        Tensor gh = Add(MatMul(h, p[1]), p[3]);
        h = ComposedGruGates(gx, gh, h);
      }
      Tensor scores = MatMul(h, Transpose(table.Forward({item + 1, 0, 5})));
      Tensor step_loss = Sum(Tanh(scores));
      loss = loss.defined() ? Add(loss, step_loss) : step_loss;
    }
    loss.Backward();
    std::vector<std::vector<float>> grads = {table.table().grad()};
    for (const Tensor& t : p) grads.push_back(t.grad());
    return grads;
  };
  const std::vector<std::vector<float>> fused = run(true);
  const std::vector<std::vector<float>> composed = run(false);
  ASSERT_EQ(fused.size(), composed.size());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_TRUE(SameBits(fused[i], composed[i])) << "gradient " << i;
  }
}

// The policy's recompute graph in miniature: an LSTM unrolled over
// embedded items, each new state scored into a loss folded in step
// order, as PpoLoss folds the decisions. The walk then queues h_{t-1}'s
// subgraph through step t-1's score before step t's affine node reaches
// it, which is what makes the one-node pre-activation (parents
// {x, W_x, h, W_h, b}) add each step's weight gradients in the composed
// chain's order. (With a loss on the last state alone, W_x's gradient
// sums the steps in the other order; see Affine in nn/tensor.h.)
TEST(LstmTest, UnrolledCellBitIdenticalToComposedChain) {
  const std::vector<std::size_t> items = {3, 1, 4, 1, 5};
  const auto run = [&items](bool fused) {
    Rng rng(41);
    Embedding table(6, 4, &rng);
    LstmCell cell(4, 4, &rng);
    const std::vector<Tensor> p = cell.Parameters();  // W_x, W_h, bias
    LstmCell::State state = cell.InitialState(2);
    Tensor loss;
    for (std::size_t item : items) {
      Tensor x = table.Forward({item, (item + 2) % 6});
      if (fused) {
        state = cell.Step(x, state);
      } else {
        const LstmGatesResult next = LstmGates(
            Add(Add(MatMul(x, p[0]), MatMul(state.h, p[1])), p[2]), state.c);
        state = {next.h, next.c};
      }
      Tensor scores = MatMul(state.h, Transpose(table.Forward({item, 0})));
      Tensor step_loss = Sum(Tanh(scores));
      loss = loss.defined() ? Add(loss, step_loss) : step_loss;
    }
    loss.Backward();
    std::vector<std::vector<float>> grads = {table.table().grad()};
    for (const Tensor& t : p) grads.push_back(t.grad());
    return grads;
  };
  const std::vector<std::vector<float>> fused = run(true);
  const std::vector<std::vector<float>> composed = run(false);
  ASSERT_EQ(fused.size(), composed.size());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_TRUE(SameBits(fused[i], composed[i])) << "gradient " << i;
  }
}

TEST(ModuleTest, ZeroGradClears) {
  Rng rng(14);
  Linear layer(2, 2, &rng);
  Tensor loss = Sum(layer.Forward(Tensor::Ones(1, 2)));
  loss.Backward();
  layer.ZeroGrad();
  for (float g : layer.weight().grad()) EXPECT_EQ(g, 0.0f);
}

// Training property: a 2-layer MLP learns XOR with Adam.
TEST(ModuleTest, MlpLearnsXor) {
  Rng rng(15);
  Mlp mlp({2, 8, 1}, &rng);
  Adam opt(mlp.Parameters(), 0.05f);
  Tensor x = Tensor::FromData(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor y = Tensor::FromData(4, 1, {0, 1, 1, 0});
  float final_loss = 1.0f;
  for (int step = 0; step < 400; ++step) {
    Tensor pred = Sigmoid(mlp.Forward(x));
    Tensor loss = Mean(Square(Sub(pred, y)));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 0.05f);
}

}  // namespace
}  // namespace poisonrec::nn
