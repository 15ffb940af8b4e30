// Adam over Tensor parameters, plus global-norm gradient clipping.
// Parameters are registered once; Step() reads their gradient buffers and
// updates the values in place. Callers zero gradients between steps.
//
// A row-sparse parameter (Tensor::row_sparse_grad(): an embedding table
// the tape reads only through Rows) gets lazy Adam, as in TF's
// LazyAdamOptimizer: only the rows its step gathered move. An untouched
// row keeps its value and moments and takes no weight decay; bias
// correction still uses the global step count. Every other parameter
// gets the dense per-element update.
#ifndef POISONREC_NN_OPTIMIZER_H_
#define POISONREC_NN_OPTIMIZER_H_

#include <cstddef>
#include <vector>

#include "nn/tensor.h"

namespace poisonrec::nn {

/// Adam (Kingma & Ba, 2015) with bias correction and optional L2 weight
/// decay folded into the gradient.
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  /// Applies one update using the currently-accumulated gradients.
  void Step();

  /// Zeroes the gradients of every registered parameter.
  void ZeroGrad();

  const std::vector<Tensor>& parameters() const { return params_; }

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }
  std::size_t step_count() const { return step_count_; }

  /// Optimizer state, exposed for checkpointing (see
  /// core::PoisonRecAttacker::SaveCheckpoint).
  const std::vector<std::vector<float>>& first_moments() const { return m_; }
  const std::vector<std::vector<float>>& second_moments() const { return v_; }

  /// Restores checkpointed state. Moment shapes must match the registered
  /// parameters exactly.
  Status RestoreState(std::size_t step_count,
                      std::vector<std::vector<float>> m,
                      std::vector<std::vector<float>> v);

 private:
  std::vector<Tensor> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  std::size_t step_count_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// Global-norm gradient clipping across a parameter set; returns the norm
/// observed before clipping.
float ClipGradNorm(const std::vector<Tensor>& params, float max_norm);

/// Global gradient norm across a parameter set without modifying any
/// gradient (the observability half of ClipGradNorm; NaN/Inf gradients
/// propagate into the returned norm).
float GradNorm(const std::vector<Tensor>& params);

}  // namespace poisonrec::nn

#endif  // POISONREC_NN_OPTIMIZER_H_
