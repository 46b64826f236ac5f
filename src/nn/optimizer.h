// Adam optimizer over parameter blocks.
//
// Step() runs on the dispatched kernel backend (src/nn/kernels.h): the
// global-norm clip factor is computed once up front, then each parameter
// block is updated in order.
#ifndef WAYFINDER_SRC_NN_OPTIMIZER_H_
#define WAYFINDER_SRC_NN_OPTIMIZER_H_

#include <vector>

#include "src/nn/layers.h"

namespace wayfinder {

struct AdamOptions {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 0.0;   // Decoupled (AdamW-style) when non-zero.
  double grad_clip = 5.0;      // Global-norm clip; <= 0 disables.
};

class Adam {
 public:
  explicit Adam(std::vector<ParamBlock*> params, const AdamOptions& options = {});

  // Applies one update from the accumulated gradients, then zeroes them.
  // `ops` selects the kernel backend (nullptr = DefaultKernels()).
  void Step(const KernelOps* ops = nullptr);

 private:
  std::vector<ParamBlock*> params_;
  AdamOptions options_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  size_t step_ = 0;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_NN_OPTIMIZER_H_
