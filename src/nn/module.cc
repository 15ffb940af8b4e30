#include "nn/module.h"

#include <cmath>

namespace poisonrec::nn {

namespace {

// Glorot/Xavier uniform bound for a (fan_in x fan_out) weight.
float GlorotBound(std::size_t fan_in, std::size_t fan_out) {
  return std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
}

// A module copy's parameter (see Module).
Tensor CopyOf(const Tensor& param) {
  return param.DeepCopy(param.requires_grad());
}

}  // namespace

std::size_t Module::NumParameters() const {
  std::size_t total = 0;
  for (const Tensor& p : Parameters()) total += p.size();
  return total;
}

void Module::ZeroGrad() {
  for (Tensor p : Parameters()) p.ZeroGrad();
}

void Module::CopyParametersFrom(const Module& other) {
  std::vector<Tensor> mine = Parameters();
  std::vector<Tensor> theirs = other.Parameters();
  POISONREC_CHECK_EQ(mine.size(), theirs.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    mine[i].CopyDataFrom(theirs[i]);
  }
}

// -- Linear -----------------------------------------------------------------

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng* rng) {
  const float bound = GlorotBound(in_features, out_features);
  weight_ = Tensor::Rand(in_features, out_features, -bound, bound, rng,
                         /*requires_grad=*/true);
  bias_ = Tensor::Zeros(1, out_features, /*requires_grad=*/true);
}

Linear::Linear(const Linear& other)
    : weight_(CopyOf(other.weight_)), bias_(CopyOf(other.bias_)) {}

Tensor Linear::Forward(const Tensor& x) const {
  return Affine(x, weight_, bias_);
}

std::vector<Tensor> Linear::Parameters() const { return {weight_, bias_}; }

// -- Embedding ----------------------------------------------------------------

Embedding::Embedding(std::size_t count, std::size_t dim, Rng* rng,
                     float stddev) {
  table_ = Tensor::Randn(count, dim, stddev, rng, /*requires_grad=*/true);
}

Embedding::Embedding(const Embedding& other)
    : table_(CopyOf(other.table_)) {}

Tensor Embedding::Forward(const std::vector<std::size_t>& ids) const {
  return Rows(table_, ids);
}

std::vector<Tensor> Embedding::Parameters() const { return {table_}; }

// -- Mlp ----------------------------------------------------------------------

Mlp::Mlp(const std::vector<std::size_t>& sizes, Rng* rng) {
  POISONREC_CHECK_GE(sizes.size(), 2u);
  layers_.reserve(sizes.size() - 1);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    layers_.emplace_back(sizes[i], sizes[i + 1], rng);
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) h = Relu(h);
  }
  return h;
}

std::vector<Tensor> Mlp::Parameters() const {
  std::vector<Tensor> params;
  for (const Linear& layer : layers_) {
    for (const Tensor& p : layer.Parameters()) params.push_back(p);
  }
  return params;
}

// -- LstmCell -------------------------------------------------------------

LstmCell::LstmCell(std::size_t input_size, std::size_t hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  const float bx = GlorotBound(input_size, 4 * hidden_size);
  const float bh = GlorotBound(hidden_size, 4 * hidden_size);
  w_x_ = Tensor::Rand(input_size, 4 * hidden_size, -bx, bx, rng,
                      /*requires_grad=*/true);
  w_h_ = Tensor::Rand(hidden_size, 4 * hidden_size, -bh, bh, rng,
                      /*requires_grad=*/true);
  bias_ = Tensor::Zeros(1, 4 * hidden_size, /*requires_grad=*/true);
  // Forget-gate bias = 1 (standard trick for gradient flow).
  for (std::size_t c = hidden_size; c < 2 * hidden_size; ++c) {
    bias_.set(0, c, 1.0f);
  }
}

LstmCell::LstmCell(const LstmCell& other)
    : input_size_(other.input_size_),
      hidden_size_(other.hidden_size_),
      w_x_(CopyOf(other.w_x_)),
      w_h_(CopyOf(other.w_h_)),
      bias_(CopyOf(other.bias_)) {}

LstmCell::State LstmCell::InitialState(std::size_t batch) const {
  return {Tensor::Zeros(batch, hidden_size_),
          Tensor::Zeros(batch, hidden_size_)};
}

LstmCell::State LstmCell::Step(const Tensor& x, const State& state) const {
  POISONREC_CHECK_EQ(x.cols(), input_size_);
  // One affine node for the pre-activations (two GEMMs and the bias),
  // one fused pass for the eight elementwise gate ops over (B x 4h).
  Tensor gates = Affine(x, w_x_, state.h, w_h_, bias_);
  LstmGatesResult next = LstmGates(gates, state.c);
  return {next.h, next.c};
}

std::vector<Tensor> LstmCell::Parameters() const {
  return {w_x_, w_h_, bias_};
}

// -- GruCell --------------------------------------------------------------

GruCell::GruCell(std::size_t input_size, std::size_t hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  const float bx = GlorotBound(input_size, 3 * hidden_size);
  const float bh = GlorotBound(hidden_size, 3 * hidden_size);
  w_x_ = Tensor::Rand(input_size, 3 * hidden_size, -bx, bx, rng,
                      /*requires_grad=*/true);
  w_h_ = Tensor::Rand(hidden_size, 3 * hidden_size, -bh, bh, rng,
                      /*requires_grad=*/true);
  b_x_ = Tensor::Zeros(1, 3 * hidden_size, /*requires_grad=*/true);
  b_h_ = Tensor::Zeros(1, 3 * hidden_size, /*requires_grad=*/true);
}

GruCell::GruCell(const GruCell& other)
    : input_size_(other.input_size_),
      hidden_size_(other.hidden_size_),
      w_x_(CopyOf(other.w_x_)),
      w_h_(CopyOf(other.w_h_)),
      b_x_(CopyOf(other.b_x_)),
      b_h_(CopyOf(other.b_h_)) {}

std::vector<Tensor> GruCell::Parameters() const {
  return {w_x_, w_h_, b_x_, b_h_};
}

}  // namespace poisonrec::nn
