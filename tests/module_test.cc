// Tests for nn modules: shapes, parameter plumbing, gradient flow,
// end-to-end gradient checks through LSTM cells, GRU4Rec's session node
// and NeuMF's batch node, and those nodes' and their tape-free forwards'
// bit identity with the same graphs composed from public ops.
#include "nn/module.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bit_identity.h"
#include "nn/kernels.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "obs/metrics.h"

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

// The GRU gate formulas composed from public elementwise ops: the test
// oracle for the gates inside GruSessionLoss and GruEncode.
Tensor ComposedGruGates(const Tensor& gx, const Tensor& gh, const Tensor& h) {
  const std::size_t hs = h.cols();
  Tensor z = Sigmoid(Add(Cols(gx, 0, hs), Cols(gh, 0, hs)));
  Tensor r = Sigmoid(Add(Cols(gx, hs, hs), Cols(gh, hs, hs)));
  Tensor n = Tanh(Add(Cols(gx, 2 * hs, hs), Mul(r, Cols(gh, 2 * hs, hs))));
  Tensor one_minus_z = AddScalar(Scale(z, -1.0f), 1.0f);
  return Add(Mul(one_minus_z, n), Mul(z, h));
}

// GRU4Rec's embedding table and GRU weights, as leaves that require grad.
struct GruLeaves {
  Tensor table, w_x, b_x, w_h, b_h;

  static GruLeaves Random(std::size_t items, std::size_t dim,
                          std::uint64_t seed) {
    Rng rng(seed);
    return {Tensor::Randn(items, dim, 0.5f, &rng, true),
            Tensor::Randn(dim, 3 * dim, 0.4f, &rng, true),
            Tensor::Randn(1, 3 * dim, 0.3f, &rng, true),
            Tensor::Randn(dim, 3 * dim, 0.4f, &rng, true),
            Tensor::Randn(1, 3 * dim, 0.3f, &rng, true)};
  }
  GruLeaves Copy() const {
    return {table.DeepCopy(true), w_x.DeepCopy(true), b_x.DeepCopy(true),
            w_h.DeepCopy(true), b_h.DeepCopy(true)};
  }
};

// GRU4Rec's per-click training graph for one session, composed from
// public ops: the oracle GruSessionLoss must match bit for bit.
Tensor ComposedSessionLoss(const GruLeaves& l,
                           const std::vector<std::size_t>& inputs,
                           const std::vector<std::size_t>& cands) {
  const std::size_t steps = inputs.size();
  const std::size_t nc = cands.size() / steps;
  Tensor h = Tensor::Zeros(1, l.w_h.rows());
  Tensor loss;
  for (std::size_t t = 0; t < steps; ++t) {
    Tensor x = Rows(l.table, {inputs[t]});
    Tensor gx = Affine(x, l.w_x, l.b_x);
    Tensor gh = Affine(h, l.w_h, l.b_h);
    h = ComposedGruGates(gx, gh, h);
    const std::vector<std::size_t> row(
        cands.begin() + static_cast<std::ptrdiff_t>(t * nc),
        cands.begin() + static_cast<std::ptrdiff_t>((t + 1) * nc));
    Tensor logits = MatMul(h, Transpose(Rows(l.table, row)));
    Tensor step_loss = SoftmaxCrossEntropy(logits, {0});
    loss = t == 0 ? step_loss : Add(loss, step_loss);
  }
  return Scale(loss, 1.0f / static_cast<float>(steps));
}

// The GRU forward composed from public ops: GruEncode's oracle.
Tensor ComposedEncode(const GruLeaves& l,
                      const std::vector<std::size_t>& inputs) {
  Tensor h = Tensor::Zeros(1, l.w_h.rows());
  for (std::size_t id : inputs) {
    h = ComposedGruGates(Affine(Rows(l.table, {id}), l.w_x, l.b_x),
                         Affine(h, l.w_h, l.b_h), h);
  }
  return h;
}

// The GEMM counters: NN, TN and NT calls, then flops.
std::vector<std::uint64_t> GemmCounters() {
  std::vector<std::uint64_t> counts;
  for (const char* name :
       {"poisonrec_gemm_nn_calls_total", "poisonrec_gemm_tn_calls_total",
        "poisonrec_gemm_nt_calls_total", "poisonrec_gemm_flops_total"}) {
    counts.push_back(obs::MetricsRegistry::Global().GetCounter(name)->Value());
  }
  return counts;
}

std::vector<std::uint64_t> CounterDelta(const std::vector<std::uint64_t>& a,
                                        const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> delta(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) delta[i] = b[i] - a[i];
  return delta;
}

// One session: T input ids and T candidate rows of 9 ids (GRU4Rec's
// positive and 8 negatives). The first row's positive is the first input,
// and every row repeats its first negative.
struct Session {
  std::vector<std::size_t> inputs;
  std::vector<std::size_t> cands;
};

Session RandomSession(std::size_t steps, std::size_t items, Rng* rng) {
  constexpr std::size_t kCands = 9;
  Session s;
  for (std::size_t t = 0; t <= steps; ++t) s.inputs.push_back(rng->Index(items));
  for (std::size_t t = 0; t < steps; ++t) {
    s.cands.push_back(t == 0 ? s.inputs[0] : s.inputs[t + 1]);
    for (std::size_t n = 1; n < kCands; ++n) {
      s.cands.push_back(n == 2 ? s.cands.back() : rng->Index(items));
    }
  }
  s.inputs.pop_back();
  return s;
}

struct SessionRun {
  std::vector<std::vector<float>> losses;
  std::vector<std::vector<float>> grads;  // table, W_x, b_x, W_h, b_h
  std::vector<std::size_t> grad_rows;
  bool row_sparse = false;
  std::vector<std::uint64_t> gemm;
};

// Forward and backward of each session in turn on fresh copies of the
// leaves, the gradients summing across sessions.
SessionRun RunSessions(bool fused, const GruLeaves& leaves,
                       const std::vector<Session>& sessions) {
  const GruLeaves l = leaves.Copy();
  SessionRun run;
  const std::vector<std::uint64_t> before = GemmCounters();
  for (const Session& s : sessions) {
    Tensor loss = fused ? GruSessionLoss(l.table, l.w_x, l.b_x, l.w_h, l.b_h,
                                         s.inputs, s.cands)
                        : ComposedSessionLoss(l, s.inputs, s.cands);
    loss.Backward();
    run.losses.push_back(loss.data());
  }
  run.gemm = CounterDelta(before, GemmCounters());
  for (const Tensor* t : {&l.table, &l.w_x, &l.b_x, &l.w_h, &l.b_h}) {
    run.grads.push_back(t->grad());
  }
  run.grad_rows = l.table.grad_rows();
  run.row_sparse = l.table.row_sparse_grad();
  return run;
}

TEST(GruSessionLossTest, BitIdenticalToComposedGraph) {
  struct KernelThreads {
    ~KernelThreads() { SetNumThreads(0); }
  } restore;
  const char* const kGrads[] = {"table", "W_x", "b_x", "W_h", "b_h"};
  for (const std::size_t threads : {1, 4}) {
    SetNumThreads(threads);
    for (const std::size_t dim : {16, 5}) {
      for (const std::size_t steps : {1, 2, 7, 29}) {
        const std::string where = std::to_string(threads) + " threads, d " +
                                  std::to_string(dim) + ", T " +
                                  std::to_string(steps);
        Rng rng(steps * 100 + dim);
        const GruLeaves leaves = GruLeaves::Random(12, dim, rng.Fork());
        // Two sessions, so the second backward adds to nonzero gradients.
        const std::vector<Session> sessions = {
            RandomSession(steps, 12, &rng), RandomSession(steps, 12, &rng)};
        const SessionRun fused = RunSessions(true, leaves, sessions);
        const SessionRun composed = RunSessions(false, leaves, sessions);
        for (std::size_t i = 0; i < sessions.size(); ++i) {
          EXPECT_TRUE(SameBits(fused.losses[i], composed.losses[i]))
              << where << ", loss " << i;
        }
        for (std::size_t i = 0; i < fused.grads.size(); ++i) {
          EXPECT_TRUE(SameBits(fused.grads[i], composed.grads[i]))
              << where << ", " << kGrads[i] << " gradient";
        }
        EXPECT_TRUE(fused.row_sparse) << where;
        EXPECT_TRUE(composed.row_sparse) << where;
        EXPECT_EQ(fused.grad_rows, composed.grad_rows) << where;
        EXPECT_EQ(fused.gemm, composed.gemm) << where;
      }
    }
  }
}

TEST(GruSessionLossTest, GradientMatchesNumerical) {
  const GruLeaves l = GruLeaves::Random(6, 3, 12);
  const Session s = {{1, 4, 2, 4}, {2, 0, 5, 4, 1, 3, 3, 0, 2, 0, 5, 1}};
  const auto loss_of = [&]() {
    return GruSessionLoss(l.table, l.w_x, l.b_x, l.w_h, l.b_h, s.inputs,
                          s.cands);
  };
  loss_of().Backward();
  for (const Tensor* param : {&l.table, &l.w_x, &l.b_x, &l.w_h, &l.b_h}) {
    const std::vector<float> numeric = NumericalGradient(
        [&](const Tensor&) {
          NoGradScope no_grad;
          return loss_of().item();
        },
        *param, 1e-2f);
    for (std::size_t i = 0; i < numeric.size(); ++i) {
      EXPECT_NEAR(param->grad()[i], numeric[i],
                  0.02f + 0.05f * std::abs(numeric[i]))
          << param->ShapeString() << " element " << i;
    }
  }
}

TEST(GruSessionLossTest, MarksTheTableGatheredAndKeepsADenseMark) {
  const Session s = {{3, 1, 4}, {1, 5, 5, 4, 1, 0, 2, 2, 3}};
  {
    const GruLeaves l = GruLeaves::Random(6, 4, 13);
    GruSessionLoss(l.table, l.w_x, l.b_x, l.w_h, l.b_h, s.inputs, s.cands)
        .Backward();
    EXPECT_TRUE(l.table.row_sparse_grad());
    for (const Tensor* w : {&l.w_x, &l.b_x, &l.w_h, &l.b_h}) {
      EXPECT_TRUE(w->impl()->read_densely);
      EXPECT_FALSE(w->impl()->gathered);
    }
  }
  {
    // A table some other op read densely stays dense.
    const GruLeaves l = GruLeaves::Random(6, 4, 13);
    Sum(l.table);
    GruSessionLoss(l.table, l.w_x, l.b_x, l.w_h, l.b_h, s.inputs, s.cands)
        .Backward();
    EXPECT_FALSE(l.table.row_sparse_grad());
  }
  {
    const GruLeaves l = GruLeaves::Random(6, 4, 13);
    NoGradScope no_grad;
    const Tensor loss =
        GruSessionLoss(l.table, l.w_x, l.b_x, l.w_h, l.b_h, s.inputs, s.cands);
    EXPECT_FALSE(loss.requires_grad());
    EXPECT_TRUE(loss.impl()->parents.empty());
    EXPECT_FALSE(l.table.impl()->gathered);
    EXPECT_FALSE(l.w_x.impl()->read_densely);
  }
}

TEST(GruEncodeTest, BitIdenticalToComposedForwardAndRecordsNoTape) {
  for (const std::size_t steps : {0, 1, 2, 7, 29}) {
    Rng rng(steps + 7);
    const GruLeaves l = GruLeaves::Random(12, 16, rng.Fork());
    const Session s = RandomSession(steps, 12, &rng);
    const std::vector<std::uint64_t> before = GemmCounters();
    const Tensor composed = ComposedEncode(l, s.inputs);
    const std::vector<std::uint64_t> mid = GemmCounters();
    // Grad mode is on, and every input requires grad.
    const Tensor encoded =
        GruEncode(l.table, l.w_x, l.b_x, l.w_h, l.b_h, s.inputs);
    const std::string where = "T " + std::to_string(steps);
    EXPECT_TRUE(SameBits(encoded.data(), composed.data())) << where;
    EXPECT_EQ(CounterDelta(mid, GemmCounters()), CounterDelta(before, mid))
        << where;
    EXPECT_FALSE(encoded.requires_grad()) << where;
    EXPECT_TRUE(encoded.impl()->parents.empty()) << where;
    EXPECT_TRUE(encoded.grad().empty()) << where;
    const GruLeaves fresh = l.Copy();
    GruEncode(fresh.table, fresh.w_x, fresh.b_x, fresh.w_h, fresh.b_h,
              s.inputs);
    EXPECT_FALSE(fresh.table.impl()->gathered) << where;
    EXPECT_FALSE(fresh.table.impl()->read_densely) << where;
    EXPECT_FALSE(fresh.w_h.impl()->read_densely) << where;
  }
}

TEST(GruEncodeTest, StateStaysWithinTheUnitBound) {
  // h' = (1-z) n + z h is a convex combination, so |h'| stays bounded by
  // max(|h|, 1) since |n| < 1.
  Rng rng(13);
  GruCell gru(2, 4, &rng);
  const Tensor table = Tensor::Full(1, 2, 3.0f);
  const Tensor h = GruEncode(table, gru.w_x(), gru.b_x(), gru.w_h(),
                             gru.b_h(), std::vector<std::size_t>(50, 0));
  EXPECT_EQ(h.rows(), 1u);
  EXPECT_EQ(h.cols(), 4u);
  for (float v : h.data()) EXPECT_LE(std::abs(v), 1.0f + 1e-5f);
}

// NeuMF's modules as rec::NeuMf builds them: four d-column tables, the
// tower 2d -> d -> max(1, d/2) and the fuse layer.
struct NeuMfNet {
  static constexpr std::size_t kUsers = 7;
  static constexpr std::size_t kItems = 11;

  NeuMfNet(std::size_t dim, Rng* rng)
      : gmf_user(kUsers, dim, rng),
        gmf_item(kItems, dim, rng),
        mlp_user(kUsers, dim, rng),
        mlp_item(kItems, dim, rng),
        mlp({2 * dim, dim, std::max<std::size_t>(1, dim / 2)}, rng),
        fuse(dim + std::max<std::size_t>(1, dim / 2), 1, rng) {}

  NeuMfParams Params() const {
    NeuMfParams p{gmf_user.table(), gmf_item.table(), mlp_user.table(),
                  mlp_item.table(), {}, {fuse.weight(), fuse.bias()}};
    for (const Linear& layer : mlp.layers()) {
      p.tower.push_back({layer.weight(), layer.bias()});
    }
    return p;
  }
  // The tables, each tower layer's W and b, then the fuse layer's.
  std::vector<Tensor> Parameters() const {
    std::vector<Tensor> params = {gmf_user.table(), gmf_item.table(),
                                  mlp_user.table(), mlp_item.table()};
    for (const Tensor& p : mlp.Parameters()) params.push_back(p);
    for (const Tensor& p : fuse.Parameters()) params.push_back(p);
    return params;
  }

  Embedding gmf_user, gmf_item, mlp_user, mlp_item;
  Mlp mlp;
  Linear fuse;
};

// NeuMF's logits composed from public ops, the graph rec::NeuMf trained
// and scored with before NeuMfLoss: the oracle NeuMfLoss and NeuMfLogits
// must match bit for bit.
Tensor ComposedNeuMfLogits(const NeuMfNet& net,
                           const std::vector<std::size_t>& users,
                           const std::vector<std::size_t>& items) {
  Tensor gmf = Mul(net.gmf_user.Forward(users), net.gmf_item.Forward(items));
  Tensor mlp = Relu(net.mlp.Forward(
      ConcatCols(net.mlp_user.Forward(users), net.mlp_item.Forward(items))));
  return net.fuse.Forward(ConcatCols(gmf, mlp));
}

// One training batch as rec::NeuMf draws it: each positive row followed
// by two negatives of the same user, so every user's gradient row sums
// three or more terms. Users come from a pool of 7, and the second
// positive's first negative is the first positive's item.
struct NeuMfBatch {
  std::vector<std::size_t> users;
  std::vector<std::size_t> items;
  std::vector<float> targets;
};

NeuMfBatch RandomNeuMfBatch(std::size_t positives, Rng* rng) {
  NeuMfBatch b;
  for (std::size_t k = 0; k < positives; ++k) {
    const std::size_t user = rng->Index(NeuMfNet::kUsers);
    for (std::size_t n = 0; n < 3; ++n) {
      b.users.push_back(user);
      b.items.push_back(k == 1 && n == 1 ? b.items[0]
                                         : rng->Index(NeuMfNet::kItems));
      b.targets.push_back(n == 0 ? 1.0f : 0.0f);
    }
  }
  return b;
}

struct NeuMfRun {
  std::vector<std::vector<float>> losses;
  std::vector<std::vector<float>> grads;  // NeuMfNet::Parameters() order
  std::vector<std::vector<std::size_t>> grad_rows;  // the four tables
  std::vector<bool> row_sparse;
  std::vector<std::uint64_t> gemm;
};

// Forward and backward of each batch in turn on a copy of the net, with
// no ZeroGrad between, so the second backward adds to nonzero gradients.
NeuMfRun RunNeuMf(bool fused, const NeuMfNet& net,
                  const std::vector<NeuMfBatch>& batches) {
  const NeuMfNet copy = net;
  NeuMfRun run;
  const std::vector<std::uint64_t> before = GemmCounters();
  for (const NeuMfBatch& b : batches) {
    Tensor loss =
        fused ? NeuMfLoss(copy.Params(), b.users, b.items, b.targets)
              : BceWithLogits(
                    ComposedNeuMfLogits(copy, b.users, b.items),
                    Tensor::FromData(b.targets.size(), 1, b.targets));
    loss.Backward();
    run.losses.push_back(loss.data());
  }
  run.gemm = CounterDelta(before, GemmCounters());
  const std::vector<Tensor> params = copy.Parameters();
  for (const Tensor& p : params) run.grads.push_back(p.grad());
  for (std::size_t t = 0; t < 4; ++t) {
    run.grad_rows.push_back(params[t].grad_rows());
    run.row_sparse.push_back(params[t].row_sparse_grad());
  }
  return run;
}

TEST(NeuMfLossTest, BitIdenticalToComposedGraph) {
  struct KernelThreads {
    ~KernelThreads() { SetNumThreads(0); }
  } restore;
  const char* const kGrads[] = {"P_g", "Q_g", "P_m", "Q_m", "W_1",
                                "b_1", "W_2", "b_2", "W_f", "b_f"};
  for (const std::size_t threads : {1, 4}) {
    SetNumThreads(threads);
    for (const std::size_t dim : {16, 5}) {
      for (const std::size_t positives : {21, 1}) {
        const std::string where = std::to_string(threads) + " threads, d " +
                                  std::to_string(dim) + ", " +
                                  std::to_string(3 * positives) + " rows";
        Rng rng(dim * 100 + positives);
        NeuMfNet net(dim, &rng);
        // User 0's GMF row is zero, so its GMF products are +0 or -0;
        // W_1's first column is zero, so that pre-activation is exactly
        // +0 on every row and its ReLU passes no gradient.
        std::vector<float>& pu = net.gmf_user.mutable_table().mutable_data();
        std::fill_n(pu.begin(), dim, 0.0f);
        Tensor w1 = net.mlp.layers()[0].weight();
        for (std::size_t r = 0; r < 2 * dim; ++r) w1.set(r, 0, 0.0f);
        std::vector<NeuMfBatch> batches = {RandomNeuMfBatch(positives, &rng),
                                           RandomNeuMfBatch(positives, &rng)};
        batches[0].users[0] = 0;
        const NeuMfRun fused = RunNeuMf(true, net, batches);
        const NeuMfRun composed = RunNeuMf(false, net, batches);
        for (std::size_t i = 0; i < batches.size(); ++i) {
          EXPECT_TRUE(SameBits(fused.losses[i], composed.losses[i]))
              << where << ", loss " << i;
        }
        ASSERT_EQ(fused.grads.size(), std::size(kGrads));
        for (std::size_t i = 0; i < fused.grads.size(); ++i) {
          EXPECT_TRUE(SameBits(fused.grads[i], composed.grads[i]))
              << where << ", " << kGrads[i] << " gradient";
        }
        for (std::size_t t = 0; t < 4; ++t) {
          EXPECT_TRUE(fused.row_sparse[t]) << where << ", " << kGrads[t];
          EXPECT_TRUE(composed.row_sparse[t]) << where << ", " << kGrads[t];
          EXPECT_EQ(fused.grad_rows[t], composed.grad_rows[t])
              << where << ", " << kGrads[t];
        }
        EXPECT_EQ(fused.gemm, composed.gemm) << where;
      }
    }
  }
}

TEST(NeuMfLossTest, GradientMatchesNumerical) {
  Rng rng(17);
  const NeuMfNet net(3, &rng);
  // Nonzero biases: with zero ones, a row whose hidden units are all dead
  // has a pre-activation of exactly 0, ReLU's kink, where a central
  // difference is half the one-sided slope.
  for (const Linear& layer : net.mlp.layers()) {
    Tensor bias = layer.bias();
    std::fill(bias.mutable_data().begin(), bias.mutable_data().end(), 0.1f);
  }
  const NeuMfBatch b = RandomNeuMfBatch(3, &rng);
  const auto loss_of = [&]() {
    return NeuMfLoss(net.Params(), b.users, b.items, b.targets);
  };
  loss_of().Backward();
  for (const Tensor& param : net.Parameters()) {
    const std::vector<float> numeric = NumericalGradient(
        [&](const Tensor&) {
          NoGradScope no_grad;
          return loss_of().item();
        },
        param, 1e-3f);
    for (std::size_t i = 0; i < numeric.size(); ++i) {
      EXPECT_NEAR(param.grad()[i], numeric[i],
                  0.02f + 0.05f * std::abs(numeric[i]))
          << param.ShapeString() << " element " << i;
    }
  }
}

TEST(NeuMfLossTest, MarksTablesGatheredAndWeightsDense) {
  Rng rng(18);
  const NeuMfNet seed_net(4, &rng);
  const NeuMfBatch b = RandomNeuMfBatch(2, &rng);
  {
    const NeuMfNet net = seed_net;
    NeuMfLoss(net.Params(), b.users, b.items, b.targets).Backward();
    const std::vector<Tensor> params = net.Parameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(params[i].row_sparse_grad(), i < 4) << "parameter " << i;
      EXPECT_EQ(params[i].impl()->gathered, i < 4) << "parameter " << i;
      EXPECT_EQ(params[i].impl()->read_densely, i >= 4) << "parameter " << i;
    }
  }
  {
    // A table some other op read densely stays dense.
    const NeuMfNet net = seed_net;
    Sum(net.mlp_item.table());
    NeuMfLoss(net.Params(), b.users, b.items, b.targets).Backward();
    EXPECT_FALSE(net.mlp_item.table().row_sparse_grad());
    EXPECT_TRUE(net.gmf_item.table().row_sparse_grad());
  }
  {
    const NeuMfNet net = seed_net;
    NoGradScope no_grad;
    const Tensor loss = NeuMfLoss(net.Params(), b.users, b.items, b.targets);
    EXPECT_FALSE(loss.requires_grad());
    EXPECT_TRUE(loss.impl()->parents.empty());
    for (const Tensor& p : net.Parameters()) {
      EXPECT_FALSE(p.impl()->gathered);
      EXPECT_FALSE(p.impl()->read_densely);
    }
  }
}

TEST(NeuMfLogitsTest, BitIdenticalToComposedForwardAndRecordsNoTape) {
  for (const std::size_t dim : {16, 5}) {
    for (const std::size_t rows : {100, 3}) {
      const std::string where =
          "d " + std::to_string(dim) + ", " + std::to_string(rows) + " rows";
      Rng rng(dim + rows);
      const NeuMfNet net(dim, &rng);
      // One user against `rows` items, as NeuMf::Score asks.
      const std::vector<std::size_t> users(rows, rng.Index(NeuMfNet::kUsers));
      std::vector<std::size_t> items;
      for (std::size_t i = 0; i < rows; ++i) {
        items.push_back(rng.Index(NeuMfNet::kItems));
      }
      const std::vector<std::uint64_t> before = GemmCounters();
      Tensor composed;
      {
        NoGradScope no_grad;
        composed = ComposedNeuMfLogits(net, users, items);
      }
      const std::vector<std::uint64_t> mid = GemmCounters();
      // Grad mode is on, and every parameter requires grad.
      const NeuMfNet fresh = net;
      const Tensor logits = NeuMfLogits(fresh.Params(), users, items);
      EXPECT_TRUE(SameBits(logits.data(), composed.data())) << where;
      EXPECT_EQ(logits.rows(), rows) << where;
      EXPECT_EQ(logits.cols(), 1u) << where;
      EXPECT_EQ(CounterDelta(mid, GemmCounters()), CounterDelta(before, mid))
          << where;
      EXPECT_FALSE(logits.requires_grad()) << where;
      EXPECT_TRUE(logits.impl()->parents.empty()) << where;
      EXPECT_TRUE(logits.grad().empty()) << where;
      for (const Tensor& p : fresh.Parameters()) {
        EXPECT_FALSE(p.impl()->gathered) << where;
        EXPECT_FALSE(p.impl()->read_densely) << where;
      }
    }
  }
}

// The policy's recompute graph in miniature: an LSTM unrolled over
// embedded items, each new state scored into a loss folded in step
// order, as PpoUpdate folds the decisions. The walk then queues h_{t-1}'s
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
