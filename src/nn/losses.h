// Loss functions of the DeepTune Model: L = L_CCE + L_Reg + L_Cham.
//
//   * L_CCE  — categorical cross-entropy over the crash/no-crash logits.
//   * L_Reg  — heteroscedastic regression (Kendall & Gal, NeurIPS'17):
//              0.5 exp(-s) (y - yhat)^2 + 0.5 s, where s = log sigma^2. The
//              model both fits the performance target and learns to widen
//              its own error bars where it misfits.
//   * L_Cham — Chamfer regularizer on RBF centroids, implemented inside
//              RbfLayer::AccumulateChamferGradient.
//
// Every loss returns the (mean) loss and writes the gradient w.r.t. the
// network outputs into caller-owned matrices, so the trunk's warm training
// loop allocates nothing per step.
#ifndef WAYFINDER_SRC_NN_LOSSES_H_
#define WAYFINDER_SRC_NN_LOSSES_H_

#include <vector>

#include "src/nn/matrix.h"

namespace wayfinder {

// Softmax + categorical cross-entropy. `logits` is N x C, `target_class`
// has N entries in [0, C). Gradient is (softmax - onehot)/N. The softmax
// probabilities land in `probs_scratch`.
double SoftmaxCrossEntropy(const Matrix& logits, const std::vector<int>& target_class,
                           Matrix* dlogits, Matrix& probs_scratch);

// Row-wise softmax probabilities into `probs`; returns `probs` growths.
size_t SoftmaxInto(const Matrix& logits, Matrix& probs);

// Heteroscedastic regression over K targets (one column per head; K = 1 is
// the paper's single-objective DTM, K > 1 the multi-metric extension of
// §3.2). `yhat` and `s` are N x K predicted means and log-variances, `y` is
// the N x K target matrix. Writes d/dyhat and d/ds. `mask[i] == false`
// excludes row i (e.g. crashed trials have no metric). The loss is the mean
// over active rows and all K columns, so metrics contribute equally
// regardless of K.
double HeteroscedasticLossMulti(const Matrix& yhat, const Matrix& s, const Matrix& y,
                                const std::vector<bool>& mask, Matrix* dyhat, Matrix* ds);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_NN_LOSSES_H_
