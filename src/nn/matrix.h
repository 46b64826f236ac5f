// Dense row-major matrix and the kernels the DeepTune Model needs.
//
// Two kernel tiers:
//   * fast kernels (`*Into` / `*Accum` / `*InPlace`) — row-streaming, writing
//     into a caller-provided output so the hot path (DTM forward/backward
//     rounds) never allocates after warmup. Their inner loops run on the
//     dispatched SIMD backend (src/nn/kernels.h: portable or AVX2, selected
//     at runtime; backends are bit-identical by construction). Every fast
//     kernel takes an optional `const KernelOps* ops` (nullptr =
//     DefaultKernels()). These are the only kernels the trunk runs.
//   * reference helpers (`Naive*`, `ConcatCols`, `AddRowInPlace`,
//     `RowSqDist`/`SqDist`) — textbook loops returning fresh matrices, kept
//     as the correctness baseline for tests, the trunk's naive forward, and
//     the `--naive` benchmark fallback.
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
// out = a * b^T in the columns `cols` (ascending, each < M) and 0 in every
// other column. Each computed element is MatMulBtInto's, bit for bit (the
// same dot_rows tree). The selected rows of b are copied into `scratch`,
// which is reshaped to b's full shape, so a warm call never grows it. For a
// layer whose input passed a ReLU: the columns that are 0 in every row of
// the ReLU's output get their gradient zeroed anyway.
size_t MatMulBtColsInto(const Matrix& a, const Matrix& b, const std::vector<size_t>& cols,
                        Matrix& scratch, Matrix& out, const KernelOps* ops = nullptr);
// acc += a^T * b — gradient accumulation without a temporary (acc: NxM).
// Every acc[i][j] adds the products a[k][i] * b[k][j] in ascending k, in one
// of two forms chosen by cost, min(nnz(a) * M, nnz(b) * N) (a property of
// the operands, not a setting; ties take the a-sparse form):
//   * a-sparse — skips the k where a[k][i] == ±0 (one gemm_at_row per row
//     of acc);
//   * b-sparse — skips the k where b[k][j] == ±0 and the columns of b that
//     are all ±0 (one gemm_at_row per live column of acc, with the roles of
//     a and b swapped, on the live columns staged as rows of `scratch`).
//     Dense-1's weight gradient takes it: most of dH1 is 0 behind dead ReLU
//     units.
// Both add every product whose factors are both nonzero, in the same k
// order, so they differ only in which ±0 terms they add. Adding ±0 changes
// nothing unless the running sum is -0 (then +0 + -0 = +0), or a factor is
// infinite or NaN (then inf * 0 = NaN). So the two forms agree bit for bit
// whenever every operand is finite and no acc entry is -0 on entry (a sum
// that starts at +0 or a nonzero never reaches -0). The trunk satisfies
// both: inputs and activations are finite, and every gradient starts at +0
// (Adam stores +0 after each step). `scratch` is reshaped to
// min(M, 64) x N on every call, whichever form runs, so a warm call never
// grows it. Returns its growths.
size_t MatMulAtAccum(const Matrix& a, const Matrix& b, Matrix& acc, Matrix& scratch,
                     const KernelOps* ops = nullptr);
// acc += column-wise sums of m (acc: 1 x M).
void ColSumAccum(const Matrix& m, Matrix& acc, const KernelOps* ops = nullptr);
// Writes [a | b | c] into `out`.
size_t ConcatCols3Into(const Matrix& a, const Matrix& b, const Matrix& c, Matrix& out);
// Writes columns [begin, end) of m into `out`.
size_t SliceColsInto(const Matrix& m, size_t begin, size_t end, Matrix& out);

// --- in-place elementwise helpers ------------------------------------------
// m = max(0, m).
void ReluInPlace(Matrix& m, const KernelOps* ops = nullptr);

// --- reference helpers (textbook loops, correctness baseline) --------------
Matrix NaiveMatMul(const Matrix& a, const Matrix& b);
Matrix NaiveMatMulBt(const Matrix& a, const Matrix& b);
Matrix NaiveMatMulAt(const Matrix& a, const Matrix& b);

// Adds `bias` (1 x M) to every row of `m` in place.
void AddRowInPlace(Matrix& m, const Matrix& bias);
// Concatenates two matrices with equal row counts side by side.
Matrix ConcatCols(const Matrix& a, const Matrix& b);
// Squared Euclidean distance between row r of a and row s of b.
double RowSqDist(const Matrix& a, size_t r, const Matrix& b, size_t s);
// Same, over raw pointers.
double SqDist(const double* a, const double* b, size_t n);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_NN_MATRIX_H_
