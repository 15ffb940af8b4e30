// Autograd correctness: forward values and gradient checks against
// numerical differentiation for every op, the backward walk's visited
// marks, and the fused Affine and TreeDecisionLogProb nodes bit for bit
// against the composed chains they replace.
#include "nn/tensor.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <latch>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bit_identity.h"
#include "nn/kernels.h"
#include "util/random.h"

namespace poisonrec::nn {
namespace {

constexpr float kTol = 2e-2f;   // numerical-gradient tolerance (float math)
constexpr float kEps = 1e-2f;   // finite-difference step

// Checks d(loss(x))/dx against central differences, where graph(x) must
// return a scalar tensor built from x.
void CheckGradient(Tensor x, const std::function<Tensor(const Tensor&)>& graph) {
  Tensor loss = graph(x);
  ASSERT_TRUE(loss.is_scalar());
  loss.Backward();
  std::vector<float> analytic = x.grad();
  std::vector<float> numeric = NumericalGradient(
      [&graph](const Tensor& t) {
        NoGradScope no_grad;
        return graph(t).item();
      },
      x, kEps);
  ASSERT_EQ(analytic.size(), numeric.size());
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    EXPECT_NEAR(analytic[i], numeric[i],
                kTol * (1.0f + std::abs(numeric[i])))
        << "component " << i;
  }
}

Tensor RandomTensor(std::size_t rows, std::size_t cols, std::uint64_t seed,
                    bool requires_grad = true) {
  Rng rng(seed);
  return Tensor::Randn(rows, cols, 0.5f, &rng, requires_grad);
}

TEST(TensorBasics, FactoriesAndShape) {
  Tensor z = Tensor::Zeros(2, 3);
  EXPECT_EQ(z.rows(), 2u);
  EXPECT_EQ(z.cols(), 3u);
  EXPECT_EQ(z.size(), 6u);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);

  Tensor o = Tensor::Ones(3, 1);
  for (float v : o.data()) EXPECT_EQ(v, 1.0f);

  Tensor f = Tensor::Full(1, 4, 2.5f);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);

  Tensor d = Tensor::FromData(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(d.at(0, 0), 1.0f);
  EXPECT_EQ(d.at(1, 1), 4.0f);
}

TEST(TensorBasics, DeepCopyDetaches) {
  Tensor a = Tensor::FromData(1, 2, {1, 2}, /*requires_grad=*/true);
  Tensor b = a.DeepCopy();
  b.set(0, 0, 99.0f);
  EXPECT_EQ(a.at(0, 0), 1.0f);
  EXPECT_FALSE(b.requires_grad());
}

TEST(TensorBasics, CopyAliases) {
  Tensor a = Tensor::FromData(1, 2, {1, 2});
  Tensor b = a;  // aliasing copy
  b.set(0, 0, 7.0f);
  EXPECT_EQ(a.at(0, 0), 7.0f);
}

TEST(TensorBasics, ItemRequiresScalar) {
  Tensor a = Tensor::Zeros(1, 1);
  EXPECT_EQ(a.item(), 0.0f);
}

TEST(TensorForward, MatMulValues) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorForward, AddBroadcastRow) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor bias = Tensor::FromData(1, 2, {10, 20});
  Tensor c = Add(a, bias);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 24.0f);
}

TEST(TensorForward, MulBroadcastColumn) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor col = Tensor::FromData(2, 1, {2, 10});
  Tensor c = Mul(a, col);
  EXPECT_FLOAT_EQ(c.at(0, 2), 6.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 40.0f);
}

TEST(TensorForward, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = RandomTensor(3, 5, 12, false);
  Tensor ls = LogSoftmax(a);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double denom = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) denom += std::exp(a.at(r, c));
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(ls.at(r, c), std::log(std::exp(a.at(r, c)) / denom), 1e-5);
    }
  }
}

TEST(TensorForward, TransposeRoundTrip) {
  Tensor a = RandomTensor(3, 4, 13, false);
  Tensor t = Transpose(Transpose(a));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], t.data()[i]);
  }
}

TEST(TensorForward, RowsGathers) {
  Tensor table = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor picked = Rows(table, {2, 0, 2});
  EXPECT_FLOAT_EQ(picked.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(picked.at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(picked.at(2, 1), 6.0f);
}

TEST(TensorForward, ColsSlices) {
  Tensor a = Tensor::FromData(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor mid = Cols(a, 1, 2);
  EXPECT_EQ(mid.cols(), 2u);
  EXPECT_FLOAT_EQ(mid.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(mid.at(1, 1), 7.0f);
}

TEST(TensorForward, ConcatColsAndRows) {
  Tensor a = Tensor::FromData(2, 1, {1, 2});
  Tensor b = Tensor::FromData(2, 2, {3, 4, 5, 6});
  Tensor cc = ConcatCols(a, b);
  EXPECT_EQ(cc.cols(), 3u);
  EXPECT_FLOAT_EQ(cc.at(1, 2), 6.0f);

  Tensor c = Tensor::FromData(1, 2, {7, 8});
  Tensor cr = ConcatRows(b, c);
  EXPECT_EQ(cr.rows(), 3u);
  EXPECT_FLOAT_EQ(cr.at(2, 1), 8.0f);
}

TEST(TensorForward, NoGradScopeSkipsTape) {
  Tensor a = RandomTensor(2, 2, 14);
  NoGradScope no_grad;
  Tensor b = Relu(a);
  EXPECT_FALSE(b.requires_grad());
}

// The logistic calls exp once for x < 0; exp of the same float returns
// the same bits, so it must equal the two-call form exp(x) / (1 + exp(x))
// bit for bit (x ≥ 0 keeps 1 / (1 + exp(-x))). NaN takes the x < 0 form.
TEST(TensorForward, SigmoidMatchesTheTwoExpForm) {
  std::vector<float> xs = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           1e-40f,
                           -1e-40f,
                           1e-3f,
                           -1e-3f,
                           10.0f,
                           -10.0f,
                           88.0f,
                           -88.0f,
                           100.0f,
                           -100.0f,
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN()};
  // A dense sweep of negative floats: 2^16 of them, every 2^15-th bit
  // pattern from -0 down to -inf (plus NaN payloads past it).
  for (std::uint32_t bits = 0x80000000u; bits >= 0x80000000u;
       bits += 1u << 15) {
    float x;
    std::memcpy(&x, &bits, sizeof(x));
    xs.push_back(x);
  }
  std::vector<float> want(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const float x = xs[i];
    want[i] = x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                        : std::exp(x) / (1.0f + std::exp(x));
  }
  const Tensor y = Sigmoid(Tensor::FromData(1, xs.size(), xs));
  EXPECT_TRUE(SameBits(y.data(), want));
}

// -- Gradient checks --------------------------------------------------------

TEST(TensorGrad, MatMulLeft) {
  Tensor b = RandomTensor(3, 2, 21, false);
  CheckGradient(RandomTensor(2, 3, 20),
                [&b](const Tensor& x) { return Sum(MatMul(x, b)); });
}

TEST(TensorGrad, MatMulRight) {
  Tensor a = RandomTensor(2, 3, 22, false);
  CheckGradient(RandomTensor(3, 2, 23),
                [&a](const Tensor& x) { return Sum(MatMul(a, x)); });
}

TEST(TensorGrad, AddSameShape) {
  Tensor b = RandomTensor(2, 3, 24, false);
  CheckGradient(RandomTensor(2, 3, 25), [&b](const Tensor& x) {
    return Sum(Mul(Add(x, b), Add(x, b)));
  });
}

TEST(TensorGrad, AddBroadcastBias) {
  Tensor a = RandomTensor(4, 3, 26, false);
  CheckGradient(RandomTensor(1, 3, 27), [&a](const Tensor& x) {
    return Sum(Square(Add(a, x)));
  });
}

TEST(TensorGrad, SubBroadcast) {
  Tensor a = RandomTensor(4, 3, 28, false);
  CheckGradient(RandomTensor(1, 3, 29), [&a](const Tensor& x) {
    return Sum(Square(Sub(a, x)));
  });
}

TEST(TensorGrad, MulElementwise) {
  Tensor b = RandomTensor(3, 3, 30, false);
  CheckGradient(RandomTensor(3, 3, 31),
                [&b](const Tensor& x) { return Sum(Mul(x, b)); });
}

TEST(TensorGrad, MulBroadcastColumn) {
  Tensor a = RandomTensor(3, 4, 32, false);
  CheckGradient(RandomTensor(3, 1, 33),
                [&a](const Tensor& x) { return Sum(Mul(a, x)); });
}

TEST(TensorGrad, Sigmoid) {
  CheckGradient(RandomTensor(2, 4, 34),
                [](const Tensor& x) { return Sum(Sigmoid(x)); });
}

TEST(TensorGrad, TanhOp) {
  CheckGradient(RandomTensor(2, 4, 35),
                [](const Tensor& x) { return Sum(Tanh(x)); });
}

TEST(TensorGrad, Softplus) {
  CheckGradient(RandomTensor(2, 4, 36),
                [](const Tensor& x) { return Sum(Softplus(x)); });
}

TEST(TensorGrad, ExpAddScalar) {
  CheckGradient(RandomTensor(2, 3, 37), [](const Tensor& x) {
    return Sum(Square(AddScalar(Exp(x), 1.0f)));
  });
}

TEST(TensorGrad, LeakyReluGrad) {
  CheckGradient(RandomTensor(3, 3, 38),
                [](const Tensor& x) { return Sum(LeakyRelu(x, 0.2f)); });
}

// Every (x, g, starting gradient) triple over special values, through
// `op`'s backward with g handed in as the output's gradient, against
// start + g·(x > 0 ? 1 : slope), the scalar formula the select replaces.
void CheckReluBackwardBits(const std::function<Tensor(const Tensor&)>& op,
                           float slope) {
  const float sub = std::numeric_limits<float>::denorm_min() * 3.0f;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> specials = {0.0f, -0.0f, sub, -sub, 1.0f,
                                       -1.0f, inf,  -inf, nan};
  std::vector<float> xs, gs, starts, want;
  for (const float start : {0.0f, -0.0f, 0.375f}) {
    for (const float x : specials) {
      for (const float g : specials) {
        xs.push_back(x);
        gs.push_back(g);
        starts.push_back(start);
        want.push_back(start + g * (x > 0.0f ? 1.0f : slope));
      }
    }
  }
  // Odd lengths too, so the zero-padded last lanes run.
  for (const std::size_t n : {xs.size(), std::size_t{7}, std::size_t{1}}) {
    Tensor x = Tensor::FromData(1, n, {xs.begin(), xs.begin() + n}, true);
    x.mutable_grad().assign(starts.begin(), starts.begin() + n);
    Tensor y = op(x);
    y.mutable_grad().assign(gs.begin(), gs.begin() + n);
    y.impl()->backward_fn();
    EXPECT_TRUE(SameBits(x.grad(), {want.begin(), want.begin() + n}))
        << n << " elements";
  }
}

TEST(TensorGrad, ReluBackwardMatchesTheScalarFormulaBitForBit) {
  CheckReluBackwardBits([](const Tensor& x) { return Relu(x); }, 0.0f);
}

TEST(TensorGrad, LeakyReluBackwardMatchesTheScalarFormulaBitForBit) {
  CheckReluBackwardBits([](const Tensor& x) { return LeakyRelu(x, 0.2f); },
                        0.2f);
}

TEST(TensorGrad, SquareScale) {
  CheckGradient(RandomTensor(2, 2, 39), [](const Tensor& x) {
    return Mean(Scale(Square(x), 3.0f));
  });
}

TEST(TensorGrad, LogSoftmaxWeighted) {
  Tensor w = RandomTensor(2, 5, 42, false);
  CheckGradient(RandomTensor(2, 5, 43), [&w](const Tensor& x) {
    return Sum(Mul(LogSoftmax(x), w));
  });
}

TEST(TensorGrad, RowSumWeighted) {
  Tensor w = RandomTensor(3, 1, 44, false);
  CheckGradient(RandomTensor(3, 4, 45), [&w](const Tensor& x) {
    return Sum(Mul(RowSum(x), w));
  });
}

TEST(TensorGrad, TransposeChain) {
  Tensor b = RandomTensor(2, 3, 46, false);
  CheckGradient(RandomTensor(3, 2, 47), [&b](const Tensor& x) {
    return Sum(Mul(Transpose(x), b));
  });
}

TEST(TensorGrad, ConcatColsBoth) {
  Tensor b = RandomTensor(2, 2, 48, false);
  CheckGradient(RandomTensor(2, 3, 49), [&b](const Tensor& x) {
    return Sum(Square(ConcatCols(x, b)));
  });
}

TEST(TensorGrad, ConcatRowsBoth) {
  Tensor b = RandomTensor(2, 3, 50, false);
  CheckGradient(RandomTensor(4, 3, 51), [&b](const Tensor& x) {
    return Sum(Square(ConcatRows(b, x)));
  });
}

TEST(TensorGrad, RowsScatterAccumulates) {
  // The same row gathered twice must receive twice the gradient.
  Tensor table = Tensor::FromData(2, 2, {1, 2, 3, 4}, true);
  Tensor picked = Rows(table, {0, 0, 1});
  Tensor loss = Sum(picked);
  loss.Backward();
  EXPECT_FLOAT_EQ(table.grad()[0], 2.0f);  // row 0 twice
  EXPECT_FLOAT_EQ(table.grad()[2], 1.0f);  // row 1 once
}

TEST(TensorGrad, RowsNumerical) {
  CheckGradient(RandomTensor(4, 3, 52), [](const Tensor& x) {
    return Sum(Square(Rows(x, {1, 3, 1})));
  });
}

TEST(TensorGrad, ColsNumerical) {
  CheckGradient(RandomTensor(3, 6, 53), [](const Tensor& x) {
    return Sum(Square(Cols(x, 2, 3)));
  });
}

TEST(TensorGrad, RowDotBoth) {
  Tensor b = RandomTensor(3, 4, 54, false);
  CheckGradient(RandomTensor(3, 4, 55), [&b](const Tensor& x) {
    return Sum(Square(RowDot(x, b)));
  });
}

TEST(TensorGrad, ReusedNodeAccumulates) {
  // x used twice in the graph: d(x*x + 3x)/dx = 2x + 3.
  Tensor x = Tensor::FromData(1, 1, {2.0f}, true);
  Tensor loss = Add(Mul(x, x), Scale(x, 3.0f));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 7.0f);
}

TEST(TensorGrad, DeepChainStaysFinite) {
  // A 100-step chain exercises the iterative topological sort.
  Tensor x = RandomTensor(1, 8, 56);
  Tensor h = x;
  for (int i = 0; i < 100; ++i) {
    h = Tanh(h);
  }
  Tensor loss = Sum(h);
  loss.Backward();
  for (float g : x.grad()) {
    EXPECT_TRUE(std::isfinite(g));
  }
}

// -- The backward walk ---------------------------------------------------

TEST(TensorGrad, TwoLossesShareASubgraph) {
  // Two losses read one interior subgraph (m -> s). Walking the second
  // after the first must traverse the subgraph again: a visited mark that
  // leaked from the first walk would skip it. Interior gradients persist
  // across walks, so the shared nodes are cleared in between, as a
  // training loop clears its parameters. Each walk adds to each leaf
  // gradient element once, so the sums compare bitwise.
  const Tensor a0 = RandomTensor(3, 4, 61, false);
  const Tensor b0 = RandomTensor(3, 4, 62, false);
  const auto first = [](const Tensor& s) { return Sum(Tanh(s)); };
  const auto second = [](const Tensor& s) { return Sum(Square(s)); };

  Tensor a = a0.DeepCopy(true);
  Tensor b = b0.DeepCopy(true);
  Tensor m = Mul(a, b);
  Tensor s = Relu(m);
  first(s).Backward();
  m.ZeroGrad();
  s.ZeroGrad();
  second(s).Backward();

  // The same two losses, each on a graph of its own.
  Tensor a1 = a0.DeepCopy(true);
  Tensor b1 = b0.DeepCopy(true);
  first(Relu(Mul(a1, b1))).Backward();
  Tensor a2 = a0.DeepCopy(true);
  Tensor b2 = b0.DeepCopy(true);
  second(Relu(Mul(a2, b2))).Backward();
  std::vector<float> a_sum = a1.grad();
  for (std::size_t i = 0; i < a_sum.size(); ++i) a_sum[i] += a2.grad()[i];
  std::vector<float> b_sum = b1.grad();
  for (std::size_t i = 0; i < b_sum.size(); ++i) b_sum[i] += b2.grad()[i];
  EXPECT_TRUE(SameBits(a.grad(), a_sum));
  EXPECT_TRUE(SameBits(b.grad(), b_sum));
}

TEST(TensorGrad, BackwardFromALeaf) {
  // A leaf root seeds its own gradient and nothing else: the op built on
  // it is never walked.
  Tensor x = Tensor::FromData(1, 1, {2.0f}, /*requires_grad=*/true);
  Tensor y = Scale(x, 3.0f);
  x.Backward();
  EXPECT_EQ(x.grad(), std::vector<float>{1.0f});
  EXPECT_EQ(y.grad(), std::vector<float>{0.0f});
  x.Backward();
  EXPECT_EQ(x.grad(), std::vector<float>{2.0f});
}

TEST(TensorGrad, ConcurrentWalksOverSharedConstants) {
  // Threads build their own graphs over one shared constant leaf, then
  // walk them at once. The walk stamps only interior nodes, so the shared
  // leaf is never written; under ThreadSanitizer (tools/ci_check.sh) a
  // walk that stamped it would be reported as a race. The latch orders
  // every graph's construction before every walk, and nothing orders the
  // walks among themselves.
  constexpr std::size_t kThreads = 4;
  const Tensor shared = RandomTensor(4, 4, 71, /*requires_grad=*/false);
  std::latch built(kThreads);
  const auto walk = [&shared](std::latch* start, std::vector<float>* grad) {
    Tensor w = RandomTensor(2, 4, 72);
    Tensor h = Tanh(MatMul(Add(w, Rows(shared, {0, 2})), shared));
    Tensor loss = Sum(Mul(h, MatMul(w, shared)));
    if (start != nullptr) start->arrive_and_wait();
    loss.Backward();
    *grad = w.grad();
  };
  std::vector<float> expected;
  walk(nullptr, &expected);
  std::vector<std::vector<float>> grads(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(walk, &built, &grads[t]);
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(SameBits(grads[t], expected)) << "thread " << t;
  }
}

// -- Fused nodes against their composed chains ----------------------------

// Restores the default kernel thread budget when a test ends.
struct ThreadGuard {
  ~ThreadGuard() { SetNumThreads(0); }
};

struct AffineRun {
  std::vector<float> out, x1_grad, w1_grad, x2_grad, w2_grad, b_grad;
};

/// One affine map under the loss Sum(out * w), fused or composed, on
/// fresh copies of the inputs; x2 is empty in the one-pair form.
AffineRun RunAffine(bool fused, const Tensor& x10, const Tensor& w10,
                    const Tensor& x20, bool x2_requires_grad,
                    const Tensor& w20, const Tensor& b0, const Tensor& w) {
  Tensor x1 = x10.DeepCopy(/*requires_grad=*/true);
  Tensor w1 = w10.DeepCopy(/*requires_grad=*/true);
  Tensor b = b0.DeepCopy(/*requires_grad=*/true);
  Tensor x2;
  Tensor w2;
  Tensor out;
  if (!x20.defined()) {
    out = fused ? Affine(x1, w1, b) : Add(MatMul(x1, w1), b);
  } else {
    x2 = x20.DeepCopy(x2_requires_grad);
    w2 = w20.DeepCopy(/*requires_grad=*/true);
    out = fused ? Affine(x1, w1, x2, w2, b)
                : Add(Add(MatMul(x1, w1), MatMul(x2, w2)), b);
  }
  Sum(Mul(out, w)).Backward();
  AffineRun run{out.data(), x1.grad(), w1.grad(), {}, {}, b.grad()};
  if (x2.defined()) {
    run.x2_grad = x2.grad();
    run.w2_grad = w2.grad();
  }
  return run;
}

TEST(AffineTest, BitIdenticalToComposedChain) {
  ThreadGuard guard;
  // At 4 threads pair 1's GEMMs (2048x24x48: the forward, and its
  // backward's NT and TN) split rows; pair 2's (2048x16x48) stay on the
  // calling thread.
  const std::size_t m = 2048, k1 = 24, k2 = 16, n = 48;
  ASSERT_GE(m * k1 * n, kernels::kParallelMinWork);
  ASSERT_LT(m * k2 * n, kernels::kParallelMinWork);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SetNumThreads(threads);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Rng rng(seed);
      const Tensor x1 = Tensor::Randn(m, k1, 1.0f, &rng);
      const Tensor w1 = Tensor::Randn(k1, n, 0.5f, &rng);
      const Tensor x2 = Tensor::Randn(m, k2, 1.0f, &rng);
      const Tensor w2 = Tensor::Randn(k2, n, 0.5f, &rng);
      const Tensor b = Tensor::Randn(1, n, 1.0f, &rng);
      const Tensor w = Tensor::Randn(m, n, 1.0f, &rng);
      // One pair (Linear, the GRU pre-activations); two pairs (the LSTM),
      // once with x2 the zero initial state that does not require grad.
      const struct {
        const char* form;
        Tensor x2;
        bool x2_grad;
      } cases[] = {{"one pair", Tensor(), false},
                   {"two pairs", x2, true},
                   {"two pairs, initial state", Tensor::Zeros(m, k2), false}};
      for (const auto& c : cases) {
        const AffineRun fused = RunAffine(true, x1, w1, c.x2, c.x2_grad, w2,
                                          b, w);
        const AffineRun composed = RunAffine(false, x1, w1, c.x2, c.x2_grad,
                                             w2, b, w);
        const std::string where = std::string(c.form) + ", seed " +
                                  std::to_string(seed) + ", " +
                                  std::to_string(threads) + " threads";
        EXPECT_TRUE(SameBits(fused.out, composed.out)) << where;
        EXPECT_TRUE(SameBits(fused.x1_grad, composed.x1_grad)) << where;
        EXPECT_TRUE(SameBits(fused.w1_grad, composed.w1_grad)) << where;
        EXPECT_TRUE(SameBits(fused.x2_grad, composed.x2_grad)) << where;
        EXPECT_TRUE(SameBits(fused.w2_grad, composed.w2_grad)) << where;
        EXPECT_TRUE(SameBits(fused.b_grad, composed.b_grad)) << where;
        EXPECT_EQ(fused.x2_grad.empty(), !c.x2_grad) << where;
      }
    }
  }
}

struct DecisionRun {
  std::vector<float> lp, dht_grad, feats_grad;
  std::vector<std::size_t> dht_rows, feats_rows;
};

/// One decision batch under the loss Sum(lp * w), fused or composed as
/// Policy::RecomputeLogProbs used to record it. With `interior`, dht and
/// feats are interior nodes (as in the policy), else row-sparse leaves.
DecisionRun RunDecisions(bool fused, bool interior, const Tensor& dht0,
                         const std::vector<std::size_t>& row_idx,
                         const Tensor& feats0,
                         const std::vector<std::size_t>& chosen,
                         const std::vector<std::size_t>& other,
                         const Tensor& w) {
  Tensor dht_leaf = dht0.DeepCopy(/*requires_grad=*/true);
  Tensor feats_leaf = feats0.DeepCopy(/*requires_grad=*/true);
  const Tensor dht = interior ? Scale(dht_leaf, 1.0f) : dht_leaf;
  const Tensor feats = interior ? Scale(feats_leaf, 1.0f) : feats_leaf;
  Tensor lp;
  if (fused) {
    lp = TreeDecisionLogProb(dht, row_idx, feats, chosen, other);
  } else {
    const Tensor q = Rows(dht, row_idx);
    const Tensor ch = Rows(feats, chosen);
    const Tensor ot = Rows(feats, other);
    lp = Scale(Softplus(Sub(RowDot(q, ot), RowDot(q, ch))), -1.0f);
  }
  Sum(Mul(lp, w)).Backward();
  return {lp.data(), dht_leaf.grad(), feats_leaf.grad(),
          dht_leaf.grad_rows(), feats_leaf.grad_rows()};
}

TEST(TreeDecisionLogProbTest, BitIdenticalToComposedChain) {
  ThreadGuard guard;
  const std::size_t count = 12, dim = 16, dht_rows = 5, feat_rows = 6;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SetNumThreads(threads);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed);
      const Tensor dht = Tensor::Randn(dht_rows, dim, 1.0f, &rng);
      const Tensor feats = Tensor::Randn(feat_rows, dim, 1.0f, &rng);
      const Tensor w = Tensor::Randn(count, 1, 1.0f, &rng);
      std::vector<std::size_t> row_idx(count), chosen(count), other(count);
      for (std::size_t k = 0; k < count; ++k) {
        row_idx[k] = rng.Index(dht_rows);
        chosen[k] = rng.Index(feat_rows);
        other[k] = (chosen[k] + 1 + rng.Index(feat_rows - 1)) % feat_rows;
      }
      // dht row 1 is gathered twice, and feature row 2 is the chosen row
      // of two decisions and the other row of two more, so its gradient
      // sums depend on the scatter order.
      row_idx[3] = row_idx[8] = 1;
      chosen[0] = chosen[6] = 2;
      other[4] = other[9] = 2;
      chosen[4] = chosen[9] = 3;
      other[0] = other[6] = 4;
      for (const bool interior : {false, true}) {
        const DecisionRun fused = RunDecisions(true, interior, dht, row_idx,
                                               feats, chosen, other, w);
        const DecisionRun composed = RunDecisions(false, interior, dht,
                                                  row_idx, feats, chosen,
                                                  other, w);
        const std::string where = "seed " + std::to_string(seed) + ", " +
                                  std::to_string(threads) + " threads" +
                                  (interior ? ", interior" : ", leaves");
        EXPECT_TRUE(SameBits(fused.lp, composed.lp)) << where;
        EXPECT_TRUE(SameBits(fused.dht_grad, composed.dht_grad)) << where;
        EXPECT_TRUE(SameBits(fused.feats_grad, composed.feats_grad))
            << where;
        EXPECT_EQ(fused.dht_rows, composed.dht_rows) << where;
        EXPECT_EQ(fused.feats_rows, composed.feats_rows) << where;
      }
    }
  }
}

TEST(TreeDecisionLogProbTest, GradientsMatchNumerical) {
  const std::vector<std::size_t> row_idx = {0, 2, 2, 1};
  const std::vector<std::size_t> chosen = {0, 3, 1, 2};
  const std::vector<std::size_t> other = {1, 2, 0, 3};
  const Tensor feats = RandomTensor(4, 3, 81, false);
  CheckGradient(RandomTensor(3, 3, 82), [&](const Tensor& dht) {
    return Sum(TreeDecisionLogProb(dht, row_idx, feats, chosen, other));
  });
  const Tensor dht = RandomTensor(3, 3, 83, false);
  CheckGradient(RandomTensor(4, 3, 84), [&](const Tensor& f) {
    return Sum(TreeDecisionLogProb(dht, row_idx, f, chosen, other));
  });
}

TEST(FusedNodesTest, NoGradScopeRecordsNothing) {
  const Tensor x = RandomTensor(3, 4, 91);
  const Tensor w = RandomTensor(4, 2, 92);
  const Tensor b = RandomTensor(1, 2, 93);
  const Tensor recorded_affine = Affine(x, w, x, w, b);
  const Tensor recorded_tree = TreeDecisionLogProb(x, {0, 2}, x, {1, 0},
                                                   {2, 1});
  NoGradScope no_grad;
  for (const auto& [out, recorded] :
       {std::pair{Affine(x, w, x, w, b), recorded_affine},
        std::pair{TreeDecisionLogProb(x, {0, 2}, x, {1, 0}, {2, 1}),
                  recorded_tree}}) {
    EXPECT_FALSE(out.requires_grad());
    EXPECT_TRUE(out.impl()->parents.empty());
    EXPECT_TRUE(SameBits(out.data(), recorded.data()));
  }
}

// Property sweep: random graphs of mixed ops gradient-check cleanly.
class MixedGraphGradTest : public ::testing::TestWithParam<int> {};

TEST_P(MixedGraphGradTest, NumericalAgreement) {
  const int seed = GetParam();
  Tensor w = RandomTensor(4, 4, seed * 1000 + 1, false);
  CheckGradient(RandomTensor(2, 4, seed * 1000), [&w](const Tensor& x) {
    Tensor h = Tanh(MatMul(x, w));
    h = Add(h, x);
    h = Relu(h);
    return Mean(Square(h));
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedGraphGradTest,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace poisonrec::nn
