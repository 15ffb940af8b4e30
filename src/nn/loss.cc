#include "nn/loss.h"

#include <vector>

#include "nn/kernels.h"

namespace poisonrec::nn {

Tensor BceWithLogits(const Tensor& logits, const Tensor& targets) {
  POISONREC_CHECK_EQ(logits.rows(), targets.rows());
  POISONREC_CHECK_EQ(logits.cols(), targets.cols());
  // loss = mean( log(1 + e^x) - x*t ), with the softplus computed stably.
  return Mean(Sub(Softplus(logits), Mul(logits, targets)));
}

Tensor MaskedMseLoss(const Tensor& pred, const Tensor& target,
                     const Tensor& mask) {
  POISONREC_CHECK_EQ(pred.rows(), mask.rows());
  POISONREC_CHECK_EQ(pred.cols(), mask.cols());
  float mask_sum = 0.0f;
  for (float m : mask.data()) mask_sum += m;
  POISONREC_CHECK_GT(mask_sum, 0.0f) << "empty mask";
  Tensor masked = Mul(Square(Sub(pred, target)), mask);
  return Scale(Sum(masked), 1.0f / mask_sum);
}

Tensor BprLoss(const Tensor& pos, const Tensor& neg) {
  POISONREC_CHECK_EQ(pos.rows(), neg.rows());
  POISONREC_CHECK_EQ(pos.cols(), 1u);
  POISONREC_CHECK_EQ(neg.cols(), 1u);
  // -log sigmoid(pos - neg) == softplus(neg - pos)
  return Mean(Softplus(Sub(neg, pos)));
}

Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<std::size_t>& targets) {
  POISONREC_CHECK_EQ(logits.rows(), targets.size());
  Tensor logp;  // saved for the backward, off the tape
  {
    NoGradScope no_grad;
    logp = LogSoftmax(logits);
  }
  // Summed, divided by m and negated as RowSum, Mean and Scale would.
  float picked = 0.0f;
  for (std::size_t r = 0; r < targets.size(); ++r) {
    POISONREC_CHECK_LT(targets[r], logits.cols());
    picked += logp.at(r, targets[r]);
  }
  const float m = static_cast<float>(logits.rows());
  Tensor loss = Tensor::Full(1, 1, picked / m * -1.0f);
  if (!internal::TrackGrad({&logits})) return loss;
  internal::TensorImpl* li = logits.impl().get();
  internal::TensorImpl* oi = loss.impl().get();
  internal::Attach(loss.impl(), {&logits}, [li, oi, logp, targets, m]() {
    // g is what Scale(-1) then Mean pass down to each target log-prob;
    // each row then takes LogSoftmax's backward of a one-hot gradient.
    const float g = oi->grad[0] * -1.0f * (1.0f / m);
    std::vector<float> p(logp.size());
    kernels::Exp(logp.data().data(), p.data(), p.size());
    for (std::size_t r = 0; r < li->rows; ++r) {
      for (std::size_t c = 0; c < li->cols; ++c) {
        li->gat(r, c) +=
            (c == targets[r] ? g : 0.0f) - p[r * li->cols + c] * g;
      }
    }
  });
  return loss;
}

}  // namespace poisonrec::nn
