// Loss functions shared by the recommenders and the policy trainer.
#ifndef POISONREC_NN_LOSS_H_
#define POISONREC_NN_LOSS_H_

#include <cstddef>
#include <vector>

#include "nn/tensor.h"

namespace poisonrec::nn {

/// Numerically stable binary cross-entropy from raw logits.
/// logits, targets: (m x 1) (targets in {0,1}). Returns the mean loss.
Tensor BceWithLogits(const Tensor& logits, const Tensor& targets);

/// Mean squared error between predictions and targets of equal shape,
/// masked (mask 1 = contributes; normalized by mask sum).
Tensor MaskedMseLoss(const Tensor& pred, const Tensor& target,
                     const Tensor& mask);

/// BPR pairwise loss: mean softplus(neg - pos) == -mean log sigmoid(pos-neg).
/// pos, neg: (m x 1) score columns.
Tensor BprLoss(const Tensor& pos, const Tensor& neg);

/// Cross-entropy of row-wise class logits against integer targets.
/// logits: (m x n), targets[i] in [0, n). Returns the mean NLL as one
/// tape node, bit-identical in value and gradient to the composed
/// -Mean(RowSum(LogSoftmax(logits) * onehot)) on finite inputs.
Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<std::size_t>& targets);

}  // namespace poisonrec::nn

#endif  // POISONREC_NN_LOSS_H_
