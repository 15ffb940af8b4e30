#include "nn/optimizer.h"

#include <cmath>

namespace poisonrec::nn {

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    POISONREC_CHECK(params_[i].requires_grad())
        << "optimizer parameter does not require grad";
    m_[i].assign(params_[i].size(), 0.0f);
    v_[i].assign(params_[i].size(), 0.0f);
  }
}

void Adam::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

namespace {

// One Adam update of elements [0, n). The pointers never alias, which
// __restrict tells GCC; with -fno-math-errno on this file (see
// CMakeLists.txt) sqrtf needs no errno branch, so the loop vectorizes.
// SIMD square root and division are correctly rounded like their scalar
// forms, so every element gets the same bits at any vector width.
void AdamRange(float* __restrict data, const float* __restrict grad,
               float* __restrict m, float* __restrict v, std::size_t n,
               float lr, float beta1, float beta2, float eps,
               float weight_decay, float bc1, float bc2) {
  for (std::size_t j = 0; j < n; ++j) {
    const float g = grad[j] + weight_decay * data[j];
    m[j] = beta1 * m[j] + (1.0f - beta1) * g;
    v[j] = beta2 * v[j] + (1.0f - beta2) * g * g;
    data[j] -= lr * (m[j] / bc1) / (std::sqrt(v[j] / bc2) + eps);
  }
}

}  // namespace

void Adam::Step() {
  ++step_count_;
  const float bc1 =
      1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bc2 =
      1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (p.grad().empty()) continue;
    float* data = p.mutable_data().data();
    const float* grad = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const auto update = [&](std::size_t begin, std::size_t end) {
      AdamRange(data + begin, grad + begin, m + begin, v + begin,
                end - begin, lr_, beta1_, beta2_, eps_, weight_decay_, bc1,
                bc2);
    };
    if (p.row_sparse_grad()) {
      const std::size_t cols = p.cols();
      for (std::size_t r : p.grad_rows()) update(r * cols, (r + 1) * cols);
    } else {
      update(0, p.size());
    }
  }
}

Status Adam::RestoreState(std::size_t step_count,
                          std::vector<std::vector<float>> m,
                          std::vector<std::vector<float>> v) {
  if (m.size() != params_.size() || v.size() != params_.size()) {
    return Status::InvalidArgument(
        "Adam state has " + std::to_string(m.size()) + "/" +
        std::to_string(v.size()) + " moment vectors, model has " +
        std::to_string(params_.size()) + " parameters");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (m[i].size() != params_[i].size() || v[i].size() != params_[i].size()) {
      return Status::InvalidArgument("Adam moment size mismatch at parameter " +
                                     std::to_string(i));
    }
  }
  step_count_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::OK();
}

float GradNorm(const std::vector<Tensor>& params) {
  double sq = 0.0;
  for (const Tensor& p : params) {
    for (float g : p.grad()) sq += static_cast<double>(g) * g;
  }
  return static_cast<float>(std::sqrt(sq));
}

float ClipGradNorm(const std::vector<Tensor>& params, float max_norm) {
  const float norm = GradNorm(params);
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (const Tensor& p : params) {
      // grad buffers are mutable through the shared impl
      auto& grad = const_cast<Tensor&>(p).mutable_grad();
      for (float& g : grad) g *= scale;
    }
  }
  return norm;
}

}  // namespace poisonrec::nn
