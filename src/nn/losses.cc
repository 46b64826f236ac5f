#include "src/nn/losses.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wayfinder {

// wf-hot-path: workspace-arena — row-wise softmax into the caller's
// reshaped `probs`; the inference tail of every PredictRows.
size_t SoftmaxInto(const Matrix& logits, Matrix& probs) {
  size_t grew = probs.Reshape(logits.rows(), logits.cols()) ? 1 : 0;
  for (size_t i = 0; i < logits.rows(); ++i) {
    const double* row = logits.Row(i);
    double max_logit = row[0];
    for (size_t j = 1; j < logits.cols(); ++j) {
      max_logit = std::max(max_logit, row[j]);
    }
    double sum = 0.0;
    for (size_t j = 0; j < logits.cols(); ++j) {
      double e = std::exp(row[j] - max_logit);
      probs.At(i, j) = e;
      sum += e;
    }
    for (size_t j = 0; j < logits.cols(); ++j) {
      probs.At(i, j) /= sum;
    }
  }
  return grew;
}

// wf-hot-path: workspace-arena — probabilities in the caller's scratch and
// the gradient in the caller's `dlogits`, both reused across steps.
double SoftmaxCrossEntropy(const Matrix& logits, const std::vector<int>& target_class,
                           Matrix* dlogits, Matrix& probs_scratch) {
  assert(logits.rows() == target_class.size());
  SoftmaxInto(logits, probs_scratch);
  const Matrix& probs = probs_scratch;
  double loss = 0.0;
  dlogits->Resize(logits.rows(), logits.cols());
  double inv_n = 1.0 / static_cast<double>(std::max<size_t>(1, logits.rows()));
  for (size_t i = 0; i < logits.rows(); ++i) {
    int target = target_class[i];
    double p = std::max(probs.At(i, static_cast<size_t>(target)), 1e-12);
    loss += -std::log(p);
    for (size_t j = 0; j < logits.cols(); ++j) {
      double indicator = (static_cast<int>(j) == target) ? 1.0 : 0.0;
      dlogits->At(i, j) = (probs.At(i, j) - indicator) * inv_n;
    }
  }
  return loss * inv_n;
}

// wf-hot-path: workspace-arena — reads the staged N x K target matrix and
// writes both gradients into the caller's reused matrices.
double HeteroscedasticLossMulti(const Matrix& yhat, const Matrix& s, const Matrix& y,
                                const std::vector<bool>& mask, Matrix* dyhat, Matrix* ds) {
  assert(yhat.rows() == y.rows() && s.rows() == y.rows());
  const size_t targets = yhat.cols();
  assert(y.cols() == targets);
  dyhat->Resize(yhat.rows(), targets);
  ds->Resize(s.rows(), targets);
  size_t active = 0;
  for (bool m : mask) {
    active += m ? 1 : 0;
  }
  if (active == 0 || targets == 0) {
    return 0.0;
  }
  double inv_n = 1.0 / static_cast<double>(active * targets);
  double loss = 0.0;
  for (size_t i = 0; i < y.rows(); ++i) {
    if (!mask[i]) {
      continue;
    }
    for (size_t k = 0; k < targets; ++k) {
      double err = yhat.At(i, k) - y.At(i, k);
      double sik = std::clamp(s.At(i, k), -10.0, 10.0);
      double precision = std::exp(-sik);
      loss += (0.5 * precision * err * err + 0.5 * sik) * inv_n;
      dyhat->At(i, k) = precision * err * inv_n;
      ds->At(i, k) = 0.5 * (1.0 - precision * err * err) * inv_n;
    }
  }
  return loss;
}

}  // namespace wayfinder
