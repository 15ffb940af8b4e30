// Neural-net building blocks: Linear, Embedding, MLP, LSTMCell, GRUCell.
// Each module owns parameter Tensors and exposes them via Parameters() so
// optimizers can update them and models can clone/serialize.
#ifndef POISONREC_NN_MODULE_H_
#define POISONREC_NN_MODULE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "util/random.h"

namespace poisonrec::nn {

/// Base class for parameterized modules. Copying a module copies its
/// parameters: the copy owns new leaves with the same values and
/// requires_grad, so training one never moves the other. (Tensor copies
/// alias; a module's do not.)
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters (aliases; mutating them updates the module).
  virtual std::vector<Tensor> Parameters() const = 0;

  /// Total scalar parameter count.
  std::size_t NumParameters() const;

  /// Zeroes every parameter gradient (row-sparse ones clear only the rows
  /// their last backward wrote; see Tensor::ZeroGrad).
  void ZeroGrad();

  /// Copies parameter values from `other` (must have identical topology).
  void CopyParametersFrom(const Module& other);
};

/// Affine map y = x W + b with W: (in x out), b: (1 x out).
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng* rng);
  Linear(const Linear& other);
  Linear(Linear&&) = default;

  Tensor Forward(const Tensor& x) const;
  std::vector<Tensor> Parameters() const override;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  Tensor weight_;
  Tensor bias_;
};

/// Embedding table (n x dim); lookup by index list. While the tape reads
/// the table only through Forward (a Rows gather), its gradient is
/// row-sparse: backward lists the looked-up rows, and Adam moves only
/// those (lazy Adam, see nn/optimizer.h). Reading table() into any other
/// recorded op makes the gradient dense from then on.
class Embedding : public Module {
 public:
  Embedding(std::size_t count, std::size_t dim, Rng* rng,
            float stddev = 0.1f);
  Embedding(const Embedding& other);
  Embedding(Embedding&&) = default;

  /// Rows of the table for the given ids -> (|ids| x dim).
  Tensor Forward(const std::vector<std::size_t>& ids) const;
  std::vector<Tensor> Parameters() const override;

  const Tensor& table() const { return table_; }
  Tensor& mutable_table() { return table_; }
  std::size_t count() const { return table_.rows(); }
  std::size_t dim() const { return table_.cols(); }

 private:
  Tensor table_;
};

/// Multi-layer perceptron with ReLU between layers (none after the last).
class Mlp : public Module {
 public:
  /// `sizes` = {in, hidden..., out}; at least 2 entries.
  Mlp(const std::vector<std::size_t>& sizes, Rng* rng);

  Tensor Forward(const Tensor& x) const;
  std::vector<Tensor> Parameters() const override;

  const std::vector<Linear>& layers() const { return layers_; }

 private:
  std::vector<Linear> layers_;
};

/// Single LSTM cell. Gate order in the fused weight matrices: input,
/// forget, cell (g), output. Weights: W_x (in x 4h), W_h (h x 4h),
/// bias (1 x 4h) with forget-gate bias initialized to 1.
class LstmCell : public Module {
 public:
  LstmCell(std::size_t input_size, std::size_t hidden_size, Rng* rng);
  LstmCell(const LstmCell& other);
  LstmCell(LstmCell&&) = default;

  struct State {
    Tensor h;  // (batch x hidden)
    Tensor c;  // (batch x hidden)
  };

  /// Zero initial state for a batch.
  State InitialState(std::size_t batch) const;

  /// One step: consumes x (batch x in) and the previous state.
  State Step(const Tensor& x, const State& state) const;

  std::vector<Tensor> Parameters() const override;

  std::size_t hidden_size() const { return hidden_size_; }
  std::size_t input_size() const { return input_size_; }

 private:
  std::size_t input_size_;
  std::size_t hidden_size_;
  Tensor w_x_;
  Tensor w_h_;
  Tensor bias_;
};

/// Single GRU cell (update z, reset r, candidate n). Weights: W_x
/// (in x 3h), W_h (h x 3h), biases b_x, b_h (1 x 3h). The cell runs inside
/// nn::GruSessionLoss (a whole session's training loss as one tape node)
/// and nn::GruEncode (its forward, no tape); see nn/tensor.h.
class GruCell : public Module {
 public:
  GruCell(std::size_t input_size, std::size_t hidden_size, Rng* rng);
  GruCell(const GruCell& other);
  GruCell(GruCell&&) = default;

  std::vector<Tensor> Parameters() const override;

  std::size_t hidden_size() const { return hidden_size_; }
  std::size_t input_size() const { return input_size_; }
  const Tensor& w_x() const { return w_x_; }
  const Tensor& w_h() const { return w_h_; }
  const Tensor& b_x() const { return b_x_; }
  const Tensor& b_h() const { return b_h_; }

 private:
  std::size_t input_size_;
  std::size_t hidden_size_;
  Tensor w_x_;
  Tensor w_h_;
  Tensor b_x_;
  Tensor b_h_;
};

}  // namespace poisonrec::nn

#endif  // POISONREC_NN_MODULE_H_
