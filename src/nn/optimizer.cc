#include "src/nn/optimizer.h"

#include <cmath>

#include "src/nn/kernels.h"

namespace wayfinder {

Adam::Adam(std::vector<ParamBlock*> params, const AdamOptions& options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (ParamBlock* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols(), 0.0);
    v_.emplace_back(p->value.rows(), p->value.cols(), 0.0);
  }
}

// wf-hot-path: workspace-arena — clips and updates every block in place;
// the moments were sized once, at construction.
void Adam::Step(const KernelOps* ops) {
  ++step_;
  const KernelOps& k_ops = ResolveKernels(ops);
  // Optional global-norm gradient clipping for stability on small batches.
  // The norm is reduced over every block before any block is updated.
  if (options_.grad_clip > 0.0) {
    double sq = 0.0;
    for (ParamBlock* p : params_) {
      sq += k_ops.sqnorm(p->grad.data().data(), p->grad.size());
    }
    double norm = std::sqrt(sq);
    if (norm > options_.grad_clip) {
      double scale = options_.grad_clip / norm;
      for (ParamBlock* p : params_) {
        k_ops.scal(scale, p->grad.data().data(), p->grad.size());
      }
    }
  }
  AdamScalars scalars;
  scalars.beta1 = options_.beta1;
  scalars.beta2 = options_.beta2;
  scalars.learning_rate = options_.learning_rate;
  scalars.epsilon = options_.epsilon;
  scalars.weight_decay = options_.weight_decay;
  scalars.bias1 = 1.0 - std::pow(options_.beta1, static_cast<double>(step_));
  scalars.bias2 = 1.0 - std::pow(options_.beta2, static_cast<double>(step_));
  for (size_t p = 0; p < params_.size(); ++p) {
    k_ops.adam_update(params_[p]->value.data().data(), params_[p]->grad.data().data(),
                      m_[p].data().data(), v_[p].data().data(), params_[p]->value.size(),
                      scalars);
  }
}

}  // namespace wayfinder
