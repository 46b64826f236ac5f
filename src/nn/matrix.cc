#include "src/nn/matrix.h"

#include <algorithm>
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

// Entries of x[0 .. n) that are not ±0.
size_t CountNonzero(const double* x, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += x[i] != 0.0 ? 1 : 0;
  }
  return count;
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

// wf-hot-path: workspace-arena — the selected rows of b are copied into the
// caller's `scratch`, sized to all of b once; the dot products of one output
// row go through a stack buffer.
size_t MatMulBtColsInto(const Matrix& a, const Matrix& b, const std::vector<size_t>& cols,
                        Matrix& scratch, Matrix& out, const KernelOps* ops) {
  assert(a.cols() == b.cols());
  assert(cols.size() <= b.rows());
  assert(&out != &a && &out != &b && &scratch != &b);
  size_t grew = out.Reshape(a.rows(), b.rows()) ? 1 : 0;
  grew += scratch.Reshape(b.rows(), b.cols()) ? 1 : 0;
  for (size_t t = 0; t < cols.size(); ++t) {
    assert(cols[t] < b.rows() && (t == 0 || cols[t - 1] < cols[t]));
    std::memcpy(scratch.Row(t), b.Row(cols[t]), b.cols() * sizeof(double));
  }
  const KernelOps& k_ops = ResolveKernels(ops);
  constexpr size_t kDotChunk = 64;
  double dots[kDotChunk];
  for (size_t i = 0; i < a.rows(); ++i) {
    double* orow = out.Row(i);
    std::fill(orow, orow + b.rows(), 0.0);
    for (size_t t0 = 0; t0 < cols.size(); t0 += kDotChunk) {
      const size_t count = std::min(kDotChunk, cols.size() - t0);
      k_ops.dot_rows(a.Row(i), scratch.Row(t0), b.cols(), count, a.cols(), dots);
      for (size_t t = 0; t < count; ++t) {
        orow[cols[t0 + t]] = dots[t];
      }
    }
  }
  return grew;
}

// wf-hot-path: workspace-arena — accumulates dW into the parameter block's
// own gradient; the b-sparse form stages acc's live columns in the caller's
// `scratch`, sized on the first call.
size_t MatMulAtAccum(const Matrix& a, const Matrix& b, Matrix& acc, Matrix& scratch,
                     const KernelOps* ops) {
  assert(a.rows() == b.rows());
  assert(acc.rows() == a.cols() && acc.cols() == b.cols());
  assert(&scratch != &a && &scratch != &b && &scratch != &acc);
  constexpr size_t kLiveChunk = 64;
  const size_t n = a.cols();
  const size_t m = b.cols();
  // Reshaped whichever form runs, so a later switch of form never grows it.
  const size_t grew = scratch.Reshape(std::min(m, kLiveChunk), n) ? 1 : 0;
  if (a.rows() == 0) {
    return grew;  // An empty a has no row 0 to take column pointers from.
  }
  const KernelOps& k_ops = ResolveKernels(ops);
  // The form that multiplies fewer products: nnz(a) * m for the a-sparse
  // form, nnz(b) * n for the b-sparse one. Counting a stops once its cost
  // passes b's, which does not change the choice.
  const size_t b_cost = CountNonzero(b.Row(0), b.size()) * n;
  size_t a_cost = 0;
  for (size_t k = 0; k < a.rows() && a_cost <= b_cost; ++k) {
    a_cost += CountNonzero(a.Row(k), n) * m;
  }
  if (a_cost <= b_cost) {
    // a-sparse: row i of acc is column i of a against all of b. One
    // gemm_at_row call keeps a tile of acc row i in registers across the k
    // (batch) loop, where a k-outer loop would stream the whole of acc
    // through memory per k.
    for (size_t i = 0; i < n; ++i) {
      k_ops.gemm_at_row(a.Row(0) + i, n, a.rows(), b.Row(0), m, acc.Row(i), m);
    }
    return grew;
  }
  // b-sparse: column j of acc is column j of b against all of a, the same
  // gemm_at_row with the operands' roles swapped. A column of b that is all
  // ±0 adds nothing and is skipped. Up to kLiveChunk live columns of acc at
  // a time are staged as rows of `scratch`, read and written back one acc
  // row at a time, so the products run on contiguous rows and acc is
  // streamed twice rather than once per live column.
  size_t live[kLiveChunk];
  for (size_t j = 0; j < m;) {
    size_t count = 0;
    for (; j < m && count < kLiveChunk; ++j) {
      for (size_t k = 0; k < b.rows(); ++k) {
        if (b.At(k, j) != 0.0) {
          live[count++] = j;
          break;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const double* acc_row = acc.Row(i);
      for (size_t t = 0; t < count; ++t) {
        scratch.At(t, i) = acc_row[live[t]];
      }
    }
    for (size_t t = 0; t < count; ++t) {
      k_ops.gemm_at_row(b.Row(0) + live[t], m, b.rows(), a.Row(0), n, scratch.Row(t), n);
    }
    for (size_t i = 0; i < n; ++i) {
      double* acc_row = acc.Row(i);
      for (size_t t = 0; t < count; ++t) {
        acc_row[live[t]] = scratch.At(t, i);
      }
    }
  }
  return grew;
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
