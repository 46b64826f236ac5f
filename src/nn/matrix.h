// Dense row-major matrix and the kernels the DeepTune Model needs.
//
// Two kernel tiers:
//   * fast `*Into` kernels — 4x k-unrolled, row-streaming, writing into a
//     caller-provided output so the hot path (DTM forward/backward rounds)
//     never allocates after warmup. Their inner loops run on the dispatched
//     SIMD backend (src/nn/kernels.h: portable or AVX2, selected at runtime;
//     backends are bit-identical by construction). Every fast kernel takes
//     an optional `const KernelOps* ops` (nullptr = DefaultKernels()).
//   * `Naive*` reference kernels — textbook triple loops, kept as the
//     correctness baseline for tests and the `--naive` benchmark fallback.
// The allocating wrappers (MatMul &c.) call the fast kernels and remain the
// convenient API for cold paths.
#ifndef WAYFINDER_SRC_NN_MATRIX_H_
#define WAYFINDER_SRC_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "src/util/rng.h"

namespace wayfinder {

struct KernelOps;

class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool Empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* Row(size_t r) { return data_.data() + r * cols_; }
  const double* Row(size_t r) const { return data_.data() + r * cols_; }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  void Fill(double value);
  void Resize(size_t rows, size_t cols, double fill = 0.0);

  // Re-shapes without initializing the contents, reusing the existing
  // allocation when capacity suffices. Returns true when the underlying
  // buffer had to grow — workspace arenas count these to prove the hot
  // path stops allocating after warmup.
  bool Reshape(size_t rows, size_t cols);

  // Xavier/Glorot-uniform initialization for a (fan_in x fan_out) weight.
  static Matrix Xavier(size_t rows, size_t cols, Rng& rng);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

// --- fast kernels (write into `out`, reshaping it as needed) ---------------
// Each returns the number of buffer growths `out` needed (0 after warmup).

// out = a * b              (a: NxK, b: KxM)
size_t MatMulInto(const Matrix& a, const Matrix& b, Matrix& out,
                  const KernelOps* ops = nullptr);
// out = a * b + bias       (bias: 1 x M broadcast over rows) — fused.
size_t MatMulAddBiasInto(const Matrix& a, const Matrix& b, const Matrix& bias, Matrix& out,
                         const KernelOps* ops = nullptr);
// out = a * b^T            (a: NxK, b: MxK)
size_t MatMulBtInto(const Matrix& a, const Matrix& b, Matrix& out,
                    const KernelOps* ops = nullptr);
// out = a^T * b            (a: KxN, b: KxM)
size_t MatMulAtInto(const Matrix& a, const Matrix& b, Matrix& out);
// acc += a^T * b — gradient accumulation without a temporary (acc: NxM).
void MatMulAtAccum(const Matrix& a, const Matrix& b, Matrix& acc,
                   const KernelOps* ops = nullptr);
// acc += column-wise sums of m (acc: 1 x M).
void ColSumAccum(const Matrix& m, Matrix& acc, const KernelOps* ops = nullptr);

// --- in-place elementwise helpers ------------------------------------------
// m = max(0, m).
void ReluInPlace(Matrix& m, const KernelOps* ops = nullptr);

// --- allocating wrappers (call the fast kernels) ---------------------------
Matrix MatMul(const Matrix& a, const Matrix& b);
Matrix MatMulBt(const Matrix& a, const Matrix& b);

// --- naive reference kernels (textbook loops, correctness baseline) --------
Matrix NaiveMatMul(const Matrix& a, const Matrix& b);
Matrix NaiveMatMulBt(const Matrix& a, const Matrix& b);
Matrix NaiveMatMulAt(const Matrix& a, const Matrix& b);

// Adds `bias` (1 x M) to every row of `m` in place.
void AddRowInPlace(Matrix& m, const Matrix& bias);
// Column-wise sums into a 1 x M matrix.
Matrix ColSum(const Matrix& m);
// Concatenates two matrices with equal row counts side by side.
Matrix ConcatCols(const Matrix& a, const Matrix& b);
// Writes [a | b | c] into `out`; returns `out` buffer growths.
size_t ConcatCols3Into(const Matrix& a, const Matrix& b, const Matrix& c, Matrix& out);
// Splits off columns [begin, end) into a new matrix.
Matrix SliceCols(const Matrix& m, size_t begin, size_t end);
// Writes columns [begin, end) of m into `out`; returns `out` buffer growths.
size_t SliceColsInto(const Matrix& m, size_t begin, size_t end, Matrix& out);
// Squared Euclidean distance between row r of a and row s of b.
double RowSqDist(const Matrix& a, size_t r, const Matrix& b, size_t s);
// Same, over raw pointers.
double SqDist(const double* a, const double* b, size_t n);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_NN_MATRIX_H_
