#include "src/nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/nn/kernels.h"

namespace wayfinder {

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, Rng& rng) {
  weight_.value = Matrix::Xavier(in_dim, out_dim, rng);
  weight_.grad.Resize(in_dim, out_dim);
  bias_.value.Resize(1, out_dim);
  bias_.grad.Resize(1, out_dim);
}

// wf-hot-path: workspace-arena — one fused x W + b into the caller's `y`;
// the input is cached by pointer, not copied.
size_t DenseLayer::ForwardInto(const Matrix& x, Matrix& y, const KernelOps* ops) {
  assert(x.cols() == weight_.value.rows());
  last_input_ = &x;
  return MatMulAddBiasInto(x, weight_.value, bias_.value, y, ops);
}

// wf-hot-path: workspace-arena — dW and db accumulate into the parameter
// blocks' own gradients, through the member scratch.
size_t DenseLayer::AccumulateParamGrads(const Matrix& dy, const KernelOps* ops) {
  // dW += X^T dY ; db += colsum(dY).
  assert(last_input_ != nullptr);
  size_t grew = MatMulAtAccum(*last_input_, dy, weight_.grad, scratch_, ops);
  ColSumAccum(dy, bias_.grad, ops);
  return grew;
}

// wf-hot-path: workspace-arena — dX = dY W^T lands in the caller's `dx`.
size_t DenseLayer::BackwardInto(const Matrix& dy, Matrix* dx, const KernelOps* ops) {
  size_t grew = AccumulateParamGrads(dy, ops);
  if (dx == nullptr) {
    return grew;
  }
  return grew + MatMulBtInto(dy, weight_.value, *dx, ops);
}

// wf-hot-path: workspace-arena — dX in the caller's `dx`, the live weight
// rows in the member scratch.
size_t DenseLayer::BackwardLiveInto(const Matrix& dy, const std::vector<size_t>& live_inputs,
                                    Matrix& dx, const KernelOps* ops) {
  size_t grew = AccumulateParamGrads(dy, ops);
  return grew + MatMulBtColsInto(dy, weight_.value, live_inputs, scratch_, dx, ops);
}

// wf-hot-path: workspace-arena — clamps the caller's matrix in place; the
// mask is a pointer into it, never a copy.
void ReluLayer::ForwardInPlace(Matrix& x, const KernelOps* ops) {
  ReluInPlace(x, ops);
  mask_source_ = &x;
}

// wf-hot-path: workspace-arena — gradient masked against the forward
// activation pointer, in place.
void ReluLayer::BackwardInPlace(Matrix& dy) {
  assert(mask_source_ != nullptr && mask_source_->size() == dy.size());
  for (size_t i = 0; i < dy.size(); ++i) {
    if (mask_source_->data()[i] <= 0.0) {
      dy.data()[i] = 0.0;
    }
  }
}

// wf-hot-path: workspace-arena — the mask is a member reshaped in place and
// the activation is scaled in place.
void DropoutLayer::ForwardInPlace(Matrix& x, Rng& rng, bool training) {
  active_ = training && rate_ > 0.0;
  if (!active_) {
    return;
  }
  last_mask_.Reshape(x.rows(), x.cols());
  double keep = 1.0 - rate_;
  for (size_t i = 0; i < x.size(); ++i) {
    bool kept = rng.Uniform() < keep;
    last_mask_.data()[i] = kept ? 1.0 / keep : 0.0;
    x.data()[i] *= last_mask_.data()[i];
  }
}

// wf-hot-path: workspace-arena — scales by the cached mask, in place.
void DropoutLayer::BackwardInPlace(Matrix& dy) {
  if (!active_) {
    return;
  }
  for (size_t i = 0; i < dy.size(); ++i) {
    dy.data()[i] *= last_mask_.data()[i];
  }
}

size_t DropoutLayer::ScratchBytes() const { return last_mask_.size() * sizeof(double); }

RbfLayer::RbfLayer(size_t in_dim, size_t centroids, double gamma, Rng& rng)
    : gamma_(gamma) {
  // Centroids start as a small cloud around the origin (inputs are roughly
  // normalized); the Chamfer regularizer spreads them over the data.
  centroids_.value.Resize(centroids, in_dim);
  for (double& v : centroids_.value.data()) {
    v = rng.Normal(0.0, 0.3);
  }
  centroids_.grad.Resize(centroids, in_dim);
}

// wf-hot-path: workspace-arena — phi is the caller's buffer; the centroid
// norms reuse a member vector sized once per centroid count.
size_t RbfLayer::ForwardInto(const Matrix& z, Matrix& phi, const KernelOps* ops) {
  assert(z.cols() == centroids_.value.cols());
  assert(&z != &phi);
  last_input_ = &z;
  last_phi_ = &phi;
  size_t k = centroids_.value.rows();
  size_t d = centroids_.value.cols();
  // ||z - c||^2 = ||z||^2 + ||c||^2 - 2 z·c: the cross term is a fast
  // matmul instead of K x N scalar distance loops. Rounding can push a
  // near-zero distance slightly negative, hence the max with 0.
  size_t grew = MatMulBtInto(z, centroids_.value, phi, ops);
  const KernelOps& k_ops = ResolveKernels(ops);
  if (centroid_sq_norms_.size() != k) {
    centroid_sq_norms_.resize(k);
  }
  for (size_t c = 0; c < k; ++c) {
    centroid_sq_norms_[c] = k_ops.sqnorm(centroids_.value.Row(c), d);
  }
  double inv = 1.0 / (2.0 * gamma_ * gamma_);
  for (size_t n = 0; n < z.rows(); ++n) {
    double z_sq = k_ops.sqnorm(z.Row(n), d);
    double* phirow = phi.Row(n);
    for (size_t c = 0; c < k; ++c) {
      double dist = std::max(0.0, z_sq + centroid_sq_norms_[c] - 2.0 * phirow[c]);
      phirow[c] = std::exp(-dist * inv);
    }
  }
  return grew;
}

// wf-hot-path: workspace-arena — the scale table is a member reshaped in
// place; axpy_diff_rows adds straight into the centroid gradient and the
// caller's `dz`, its row lists on the stack.
size_t RbfLayer::BackwardInto(const Matrix& dphi, Matrix* dz, bool accumulate,
                              const KernelOps* ops) {
  // dphi/dz_n   = phi_nc * (c - z_n) / gamma^2
  // dphi/dc     = phi_nc * (z_n - c) / gamma^2
  assert(last_input_ != nullptr && last_phi_ != nullptr);
  const Matrix& z = *last_input_;
  const Matrix& phi = *last_phi_;
  const KernelOps& k_ops = ResolveKernels(ops);
  const size_t rows = z.rows();
  const size_t k = centroids_.value.rows();
  const size_t d = centroids_.value.cols();
  size_t grew = scale_.Reshape(rows, k) ? 1 : 0;
  if (dz != nullptr && !accumulate) {
    grew += dz->Reshape(rows, d) ? 1 : 0;
    dz->Fill(0.0);
  }
  const double inv = 1.0 / (gamma_ * gamma_);
  for (size_t n = 0; n < rows; ++n) {
    for (size_t c = 0; c < k; ++c) {
      scale_.At(n, c) = dphi.At(n, c) * phi.At(n, c) * inv;
    }
  }
  // The nonzero-scale rows of one sum, flushed to axpy_diff_rows in order
  // every kRows entries.
  constexpr size_t kRows = 64;
  double s[kRows];
  const double* x_rows[kRows];
  size_t count = 0;
  auto add = [&](double scale, const double* x, const double* y, double* acc) {
    s[count] = scale;
    x_rows[count] = x;
    if (++count == kRows) {
      k_ops.axpy_diff_rows(s, x_rows, count, y, acc, d);
      count = 0;
    }
  };
  auto flush = [&](const double* y, double* acc) {
    if (count > 0) {
      k_ops.axpy_diff_rows(s, x_rows, count, y, acc, d);
      count = 0;
    }
  };
  // dc += scale * (z - c), over the batch: the centroid's gradient tile and
  // its own tile stay in registers while the rows stream past.
  for (size_t c = 0; c < k; ++c) {
    const double* crow = centroids_.value.Row(c);
    double* grad_row = centroids_.grad.Row(c);
    for (size_t n = 0; n < rows; ++n) {
      if (scale_.At(n, c) != 0.0) {
        add(scale_.At(n, c), z.Row(n), crow, grad_row);
      }
    }
    flush(crow, grad_row);
  }
  if (dz == nullptr) {
    return grew;
  }
  // dz += scale * (c - z), over the centroids: the row's dz tile stays in
  // registers.
  for (size_t n = 0; n < rows; ++n) {
    const double* zrow = z.Row(n);
    double* dzrow = dz->Row(n);
    for (size_t c = 0; c < k; ++c) {
      if (scale_.At(n, c) != 0.0) {
        add(scale_.At(n, c), centroids_.value.Row(c), zrow, dzrow);
      }
    }
    flush(zrow, dzrow);
  }
  return grew;
}

size_t RbfLayer::ScratchBytes() const {
  return (centroid_sq_norms_.size() + chamfer_dist_.size() + scale_.size()) * sizeof(double);
}

// wf-hot-path: workspace-arena — the K x N distance table is a member
// reshaped in place; gradients go straight into the centroid block.
double RbfLayer::AccumulateChamferGradient(double weight, const KernelOps* ops) {
  // Chamfer distance between the centroid set C and the cached batch Z:
  //   L = 1/K sum_c min_n ||c - z_n||^2  +  1/N sum_n min_c ||z_n - c||^2.
  // Gradient w.r.t. C only (prototypes chase the data distribution).
  assert(last_input_ != nullptr);
  const Matrix& z = *last_input_;
  Matrix& c = centroids_.value;
  if (z.rows() == 0) {
    return 0.0;
  }
  const KernelOps& k_ops = ResolveKernels(ops);
  size_t k = c.rows();
  size_t n = z.rows();
  size_t d = c.cols();
  double loss = 0.0;

  // Both terms read one K x N distance table, filled one centroid row per
  // sqdist_rows call. The distance is symmetric bit for bit (a - b is
  // exactly -(b - a)), so this is the two-pass result.
  chamfer_dist_.Reshape(k, n);
  for (size_t ci = 0; ci < k; ++ci) {
    k_ops.sqdist_rows(c.Row(ci), z.Row(0), d, n, d, chamfer_dist_.Row(ci));
  }

  // Term 1: every centroid is pulled toward its nearest batch point.
  for (size_t ci = 0; ci < k; ++ci) {
    const double* row = chamfer_dist_.Row(ci);
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::max();
    for (size_t ni = 0; ni < n; ++ni) {
      double dist = row[ni];
      if (dist < best_dist) {
        best_dist = dist;
        best = ni;
      }
    }
    loss += best_dist / static_cast<double>(k);
    double scale = weight * 2.0 / static_cast<double>(k);
    k_ops.axpy_diff(scale, c.Row(ci), z.Row(best), centroids_.grad.Row(ci), d);
  }
  // Term 2: every batch point pulls its nearest centroid toward itself.
  for (size_t ni = 0; ni < n; ++ni) {
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::max();
    for (size_t ci = 0; ci < k; ++ci) {
      double dist = chamfer_dist_.At(ci, ni);
      if (dist < best_dist) {
        best_dist = dist;
        best = ci;
      }
    }
    loss += best_dist / static_cast<double>(n);
    double scale = weight * 2.0 / static_cast<double>(n);
    k_ops.axpy_diff(scale, c.Row(best), z.Row(ni), centroids_.grad.Row(best), d);
  }
  return loss;
}

}  // namespace wayfinder
