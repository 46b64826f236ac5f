// Neural-network building blocks for the DeepTune Model: dense layers,
// ReLU, dropout, and the Gaussian RBF layer of the uncertainty branch.
//
// Layers are stateful for one forward/backward round: the forward pass
// caches what the backward pass needs, and the backward pass accumulates
// parameter gradients and writes the gradient w.r.t. the input. Parameters
// are exposed as (value, grad) blocks consumed by the Adam optimizer.
//
// Every pass (`ForwardInto` / `ForwardInPlace`, `BackwardInto` /
// `BackwardInPlace`) writes into caller-owned workspace matrices and caches
// its activations *by pointer*, so a forward/backward round does no heap
// allocation once the workspace is warm. The referenced inputs must stay
// alive (and unmodified where noted) until the backward pass: a temporary
// passed to a forward leaves the backward reading a dead object.
#ifndef WAYFINDER_SRC_NN_LAYERS_H_
#define WAYFINDER_SRC_NN_LAYERS_H_

#include <vector>

#include "src/nn/matrix.h"
#include "src/util/rng.h"

namespace wayfinder {

// One trainable tensor with its gradient accumulator.
struct ParamBlock {
  Matrix value;
  Matrix grad;

  void ZeroGrad() { grad.Fill(0.0); }
};

// Fully connected layer: Y = X W + b (bias add fused into the matmul).
class DenseLayer {
 public:
  DenseLayer(size_t in_dim, size_t out_dim, Rng& rng);

  // Caches `x` by pointer; returns `y` buffer growths.
  size_t ForwardInto(const Matrix& x, Matrix& y, const KernelOps* ops = nullptr);
  // Accumulates dL/dW, dL/db; writes dL/dX into `dx` unless null.
  size_t BackwardInto(const Matrix& dy, Matrix* dx, const KernelOps* ops = nullptr);
  // BackwardInto for a layer whose input came out of a ReLU: writes dL/dX
  // only in the input columns `live_inputs` (ascending) and 0 in the rest,
  // whose gradient the ReLU's backward pass zeroes anyway
  // (MatMulBtColsInto).
  size_t BackwardLiveInto(const Matrix& dy, const std::vector<size_t>& live_inputs,
                          Matrix& dx, const KernelOps* ops = nullptr);
  // Both backward passes return the growths of `dx` and of the layer's
  // scratch, which is sized on the first backward pass.

  std::vector<ParamBlock*> Params() { return {&weight_, &bias_}; }
  size_t in_dim() const { return weight_.value.rows(); }
  size_t out_dim() const { return weight_.value.cols(); }

  ParamBlock& weight() { return weight_; }
  ParamBlock& bias() { return bias_; }

  // Bytes held by the backward scratch.
  size_t ScratchBytes() const { return scratch_.size() * sizeof(double); }

 private:
  // dW += X^T dY and db += colsum(dY), shared by both backward passes.
  // Returns scratch growths.
  size_t AccumulateParamGrads(const Matrix& dy, const KernelOps* ops);

  ParamBlock weight_;  // in x out
  ParamBlock bias_;    // 1 x out
  const Matrix* last_input_ = nullptr;
  // MatMulAtAccum's staged gradient columns, then BackwardLiveInto's copy
  // of the live weight rows.
  Matrix scratch_;
};

// Elementwise max(0, x).
class ReluLayer {
 public:
  // Clips in place and caches `x` by pointer. The backward pass masks on
  // the *output* (y > 0 ⟺ pre-activation > 0), so callers may keep mutating
  // zero entries (e.g. dropout) without breaking the mask.
  void ForwardInPlace(Matrix& x, const KernelOps* ops = nullptr);
  // dy is masked in place.
  void BackwardInPlace(Matrix& dy);

 private:
  const Matrix* mask_source_ = nullptr;  // Entries <= 0 gate the gradient.
};

// Inverted dropout; identity when `training` is false.
class DropoutLayer {
 public:
  explicit DropoutLayer(double rate) : rate_(rate) {}

  // Scales in place (no-op when inactive).
  void ForwardInPlace(Matrix& x, Rng& rng, bool training);
  void BackwardInPlace(Matrix& dy);

  double rate() const { return rate_; }
  // Bytes held by the cached mask (batch x width doubles once trained).
  size_t ScratchBytes() const;

 private:
  double rate_;
  Matrix last_mask_;
  bool active_ = false;
};

// Gaussian Radial Basis Function layer (Eq. 1 of the paper):
//   phi_k(z) = exp(-||z - c_k||^2 / (2 gamma^2)).
// Centroids are trainable "prototypes"; far-from-data inputs produce near-
// zero activations, which is what makes the uncertainty branch outlier-
// aware. Inputs are expected to be roughly z-score normalized; the paper
// finds gamma = 0.1 appropriate in that regime, and we default to a wider
// kernel that works across our latent widths.
class RbfLayer {
 public:
  RbfLayer(size_t in_dim, size_t centroids, double gamma, Rng& rng);

  // Caches `z` and `phi` by pointer; returns `phi` growths.
  // `z` and `phi` must stay unmodified until BackwardInto /
  // AccumulateChamferGradient runs.
  size_t ForwardInto(const Matrix& z, Matrix& phi, const KernelOps* ops = nullptr);
  // Accumulates the centroid gradient; unless `dz` is null, writes (or with
  // `accumulate`, adds) dL/dZ into it. Every gradient element receives the
  // adds of the per-(n, c) loop in its order: a centroid's row adds over the
  // batch rows n ascending, a batch row's dz over the centroids c ascending,
  // skipping the pairs whose scale dphi * phi / gamma^2 is 0. Each sum runs
  // as one axpy_diff_rows call, its tile held in registers. Returns `dz`
  // and scale-table growths.
  size_t BackwardInto(const Matrix& dphi, Matrix* dz, bool accumulate = false,
                      const KernelOps* ops = nullptr);

  std::vector<ParamBlock*> Params() { return {&centroids_}; }
  const Matrix& centroid_values() const { return centroids_.value; }
  ParamBlock& centroids() { return centroids_; }
  double gamma() const { return gamma_; }

  // Adds the Chamfer regularizer gradient (dL_cham/dC) for the cached batch
  // to the centroid gradient and returns the loss value. Call between
  // ForwardInto and the optimizer step. The gradient is not propagated into
  // the batch (the regularizer shapes centroids, not the trunk).
  double AccumulateChamferGradient(double weight, const KernelOps* ops = nullptr);

  // Bytes held by the reused scratch: centroid norms, the Chamfer table and
  // the backward pass's scale table.
  size_t ScratchBytes() const;

 private:
  ParamBlock centroids_;  // K x in_dim
  double gamma_;
  const Matrix* last_input_ = nullptr;
  const Matrix* last_phi_ = nullptr;
  std::vector<double> centroid_sq_norms_;  // Forward scratch.
  Matrix chamfer_dist_;                    // K x N centroid-to-batch distances.
  Matrix scale_;                           // N x K backward scales.
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_NN_LAYERS_H_
