#include "src/nn/matrix.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "src/nn/kernels.h"

namespace wayfinder {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::Fill(double value) {
  for (double& v : data_) {
    v = value;
  }
}

void Matrix::Resize(size_t rows, size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

bool Matrix::Reshape(size_t rows, size_t cols) {
  size_t capacity_before = data_.capacity();
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
  return data_.capacity() != capacity_before;
}

Matrix Matrix::Xavier(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& v : m.data_) {
    v = rng.Uniform(-limit, limit);
  }
  return m;
}

namespace {

// Shared body of MatMulInto / MatMulAddBiasInto: one fused gemm_rows call
// for the whole product (4x k-unrolled inside, bias init fused, b rows
// streamed once per block of output rows) on the dispatched backend.
size_t MatMulImpl(const Matrix& a, const Matrix& b, const double* bias, Matrix& out,
                  const KernelOps* ops) {
  assert(a.cols() == b.rows());
  assert(&out != &a && &out != &b);
  size_t grew = out.Reshape(a.rows(), b.cols()) ? 1 : 0;
  ResolveKernels(ops).gemm_rows(a.Row(0), a.rows(), a.cols(), b.Row(0), b.cols(), bias,
                                out.Row(0), b.cols());
  return grew;
}

}  // namespace

// wf-hot-path: workspace-arena — MatMulAddBiasInto without the bias: one
// gemm_rows call into the caller's reshaped `out`.
size_t MatMulInto(const Matrix& a, const Matrix& b, Matrix& out, const KernelOps* ops) {
  return MatMulImpl(a, b, /*bias=*/nullptr, out, ops);
}

// wf-hot-path: workspace-arena — the fused x W + b of DenseLayer::ForwardInto,
// straight into the caller's reshaped `out`.
size_t MatMulAddBiasInto(const Matrix& a, const Matrix& b, const Matrix& bias, Matrix& out,
                         const KernelOps* ops) {
  assert(bias.rows() == 1 && bias.cols() == b.cols());
  return MatMulImpl(a, b, bias.Row(0), out, ops);
}

// wf-hot-path: workspace-arena — one dot_rows call per output row into the
// caller's reshaped `out` (dense dX, RBF cross terms).
size_t MatMulBtInto(const Matrix& a, const Matrix& b, Matrix& out, const KernelOps* ops) {
  assert(a.cols() == b.cols());
  assert(&out != &a && &out != &b);
  size_t grew = out.Reshape(a.rows(), b.rows()) ? 1 : 0;
  // Row i of out is a_i against every row of b: one dot_rows call, which
  // shares each load of a_i across several rows of b.
  const KernelOps& k_ops = ResolveKernels(ops);
  for (size_t i = 0; i < a.rows(); ++i) {
    k_ops.dot_rows(a.Row(i), b.Row(0), b.cols(), b.rows(), a.cols(), out.Row(i));
  }
  return grew;
}

// wf-hot-path: workspace-arena — accumulates dW into the parameter block's
// own gradient, one gemm_at_row call per row; no temporary product.
void MatMulAtAccum(const Matrix& a, const Matrix& b, Matrix& acc, const KernelOps* ops) {
  assert(a.rows() == b.rows());
  assert(acc.rows() == a.cols() && acc.cols() == b.cols());
  if (a.rows() == 0) {
    return;  // An empty a has no row 0 to take column pointers from.
  }
  // Row i of acc is column i of a against all of b: one gemm_at_row call
  // keeps a tile of acc row i in registers across the k (batch) loop, where
  // a k-outer loop would stream the whole of acc through memory per k.
  const KernelOps& k_ops = ResolveKernels(ops);
  for (size_t i = 0; i < a.cols(); ++i) {
    k_ops.gemm_at_row(a.Row(0) + i, a.cols(), a.rows(), b.Row(0), b.cols(), acc.Row(i),
                      b.cols());
  }
}

// wf-hot-path: workspace-arena — db accumulated row by row into the bias
// gradient with vadd.
void ColSumAccum(const Matrix& m, Matrix& acc, const KernelOps* ops) {
  assert(acc.rows() == 1 && acc.cols() == m.cols());
  const KernelOps& k_ops = ResolveKernels(ops);
  double* out = acc.Row(0);
  for (size_t i = 0; i < m.rows(); ++i) {
    k_ops.vadd(m.Row(i), out, m.cols());
  }
}

// wf-hot-path: workspace-arena — clamps the activation buffer in place.
void ReluInPlace(Matrix& m, const KernelOps* ops) {
  ResolveKernels(ops).relu(m.data().data(), m.size());
}

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) {
        sum += a.At(i, k) * b.At(k, j);
      }
      out.At(i, j) = sum;
    }
  }
  return out;
}

Matrix NaiveMatMulBt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix out(a.rows(), b.rows(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) {
        sum += a.At(i, k) * b.At(j, k);
      }
      out.At(i, j) = sum;
    }
  }
  return out;
}

Matrix NaiveMatMulAt(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols(), 0.0);
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.rows(); ++k) {
        sum += a.At(k, i) * b.At(k, j);
      }
      out.At(i, j) = sum;
    }
  }
  return out;
}

void AddRowInPlace(Matrix& m, const Matrix& bias) {
  assert(bias.rows() == 1 && bias.cols() == m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    double* row = m.Row(i);
    const double* brow = bias.Row(0);
    for (size_t j = 0; j < m.cols(); ++j) {
      row[j] += brow[j];
    }
  }
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    double* orow = out.Row(i);
    std::memcpy(orow, a.Row(i), a.cols() * sizeof(double));
    std::memcpy(orow + a.cols(), b.Row(i), b.cols() * sizeof(double));
  }
  return out;
}

// wf-hot-path: workspace-arena — joins the three RBF activations with
// memcpy into the caller's reshaped `out`.
size_t ConcatCols3Into(const Matrix& a, const Matrix& b, const Matrix& c, Matrix& out) {
  assert(a.rows() == b.rows() && b.rows() == c.rows());
  size_t grew = out.Reshape(a.rows(), a.cols() + b.cols() + c.cols()) ? 1 : 0;
  for (size_t i = 0; i < a.rows(); ++i) {
    double* orow = out.Row(i);
    std::memcpy(orow, a.Row(i), a.cols() * sizeof(double));
    std::memcpy(orow + a.cols(), b.Row(i), b.cols() * sizeof(double));
    std::memcpy(orow + a.cols() + b.cols(), c.Row(i), c.cols() * sizeof(double));
  }
  return grew;
}

// wf-hot-path: workspace-arena — splits the uncertainty head's dphi with
// memcpy into the caller's reshaped `out`.
size_t SliceColsInto(const Matrix& m, size_t begin, size_t end, Matrix& out) {
  assert(begin <= end && end <= m.cols());
  assert(&out != &m);
  size_t grew = out.Reshape(m.rows(), end - begin) ? 1 : 0;
  for (size_t i = 0; i < m.rows(); ++i) {
    std::memcpy(out.Row(i), m.Row(i) + begin, (end - begin) * sizeof(double));
  }
  return grew;
}

double RowSqDist(const Matrix& a, size_t r, const Matrix& b, size_t s) {
  assert(a.cols() == b.cols());
  return SqDist(a.Row(r), b.Row(s), a.cols());
}

double SqDist(const double* a, const double* b, size_t n) {
  // Deliberately the textbook serial sum, NOT a dispatched kernel: it is the
  // reference that the naive forward path (ForwardNaive) builds on and that
  // the tests compare the kernels against, so it must stay independent of
  // the backend under test. Candidate scoring computes these same serial
  // sums on KernelOps::nearest_sqdist; the Chamfer table uses sqdist_rows.
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    double d = a[k] - b[k];
    sum += d * d;
  }
  return sum;
}

}  // namespace wayfinder
