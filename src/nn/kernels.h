// Runtime-dispatched SIMD kernel backend.
//
// Every inner loop the DTM hot path runs — the streamed matmul, the
// weight-gradient rows, dot products, the RBF and Chamfer distance loops,
// ReLU, the per-block Adam update, and the nearest-point scan of candidate
// scoring — is reached through a `KernelOps` vtable of raw pointer kernels.
// Two backends implement the table:
//
//   * portable — plain C++, compiled with the base flags, runs anywhere;
//   * avx2     — 256-bit vector implementations, compiled in a separate
//     translation unit with `-mavx2 -mfma` (gated per-file in CMake so the
//     rest of the build stays portable), selected only when CPUID reports
//     AVX2 support.
//
// The process default is resolved once, on first use: CPUID picks AVX2 when
// both the CPU and the build have it, portable otherwise. Models can pin a
// backend per-instance via `DtmOptions::kernels`, which reaches the kernels
// as the `const KernelOps* ops` argument every matrix and layer call takes.
//
// Bit-exactness contract: both backends evaluate the *same* floating-point
// expression tree for every output. The portable kernels are written in the
// lane structure the vector units want (4-way strided accumulators, paired
// reduction), the AVX2 kernels use explicit mul/add intrinsics in that same
// order, and FMA contraction is disabled in the AVX2 translation unit
// (`-ffp-contract=off`) so the compiler cannot fuse them. Backend choice
// therefore changes speed, never results — which is what makes "identical
// search trajectories across backends" a testable invariant rather than a
// hope. kernel_backend_test also pins every multi-output kernel to scalar
// per-element loops written in the trees stated below, so both backends
// cannot drift together.
#ifndef WAYFINDER_SRC_NN_KERNELS_H_
#define WAYFINDER_SRC_NN_KERNELS_H_

#include <cstddef>

namespace wayfinder {

enum class KernelBackend {
  kAuto = 0,  // The process default: AVX2 when CPUID reports it, else portable.
  kPortable,
  kAvx2,
};

// Subnormal flush thresholds of `adam_update`. Units whose gradient stops
// (dead ReLUs) have first moments that decay as beta1^t into the subnormal
// range after ~6.5k steps, where every multiply and divide on them takes a
// microcode assist and the Adam step runs ~9x slower. So the kernel treats a
// gradient with |g| < kAdamGradFloor as 0 and stores a moment whose
// magnitude is below kAdamMomentFloor as 0. Then no operand or result of the
// update's multiplies and divides is subnormal. The weights do not change:
// what the floors drop moves a weight by less than 1e-140, far below half an
// ulp of any weight with |w| >= 1e-6 (pinned against an unflushed reference
// by KernelBackend.AdamFlushKeepsMomentsNormal). The flush is written into
// the kernels rather than set through MXCSR FTZ/DAZ, which is x86-only,
// thread-global state that would also flush the simulator's math.
inline constexpr double kAdamGradFloor = 0x1p-500;
inline constexpr double kAdamMomentFloor = 0x1p-1000;

// Scalar constants of one Adam step, precomputed once per Step() call so the
// per-block kernel is pure elementwise math.
struct AdamScalars {
  double beta1 = 0.9;
  double beta2 = 0.999;
  double learning_rate = 1e-3;
  double epsilon = 1e-8;
  double weight_decay = 0.0;  // Decoupled (AdamW); 0 disables.
  double bias1 = 1.0;         // 1 - beta1^t; exactly 1.0 after ~350 steps.
  double bias2 = 1.0;         // 1 - beta2^t
};

// The dispatched inner loops. All pointers are to dense double arrays; no
// kernel allocates or assumes alignment (loads are unaligned).
//
// The kernels that produce several outputs per call (`gemm_rows`,
// `gemm_at_row`, `axpy_diff_rows`, `dot_rows`, `sqdist_rows`,
// `nearest_sqdist`) block across independent outputs only: an output's adds
// happen in the order its own expression tree below states, whichever other
// outputs share its loads, its vector, or its call. Both backends must
// reproduce each tree.
struct KernelOps {
  const char* name;  // "portable" | "avx2"

  // The streamed matmul, `rows` output rows at once. Row i of `a` is
  // a + i*k_dim and row i of `out` is out + i*m; `b` is row-major with
  // stride `b_stride` (>= m). Every element is
  //   out[i][j] = (bias ? bias[j] : 0) + sum over k-blocks-of-4 of
  //               (a[i][k]*b[k][j] + a[i][k+1]*b[k+1][j] +
  //                a[i][k+2]*b[k+2][j] + a[i][k+3]*b[k+3][j]),
  // each k-block's four products summed first, then added to the running
  // sum, with the <4 remainder k rows appended per k (skipping
  // a[i][k] == 0). The AVX2 backend accumulates a 4-row x 8-column tile
  // across the whole k loop, so four rows share every `b` load.
  void (*gemm_rows)(const double* a, size_t rows, size_t k_dim, const double* b,
                    size_t b_stride, const double* bias, double* out, size_t m);
  // One row of a transposed-A gradient product:
  //   acc[j] += a[k*a_stride] * b[k*b_stride + j]   for k = 0 .. k_dim-1,
  // added per k in ascending order, skipping a[k*a_stride] == 0. Each acc[j]
  // therefore sees the same sequence of adds as in a k-outer loop, while a
  // 32-wide tile of acc (eight add chains), then a 16-wide one, stays in
  // registers across the whole k loop. The AVX2 backend finds the nonzero
  // a[k] once per chunk of k, without a branch, instead of once per tile.
  // MatMulAtAccum (src/nn/matrix.h) runs it in two roles: down a column of
  // its `a` (skipping zero inputs), or, in its b-sparse form, down a column
  // of the output gradient (skipping the zeros dead ReLU units leave). The
  // widened skip drops only ±0 products, which is exact when every operand
  // is finite and no acc entry is -0; matrix.h states the precondition.
  void (*gemm_at_row)(const double* a, size_t a_stride, size_t k_dim, const double* b,
                      size_t b_stride, double* acc, size_t m);
  // out[j] += a * (x[j] - y[j]) — RBF centroid/input gradient body.
  void (*axpy_diff)(double a, const double* x, const double* y, double* out, size_t n);
  // `count` axpy_diff calls into one output row, in order:
  //   acc[j] += s[r] * (x_rows[r][j] - y[j])   for r = 0 .. count-1,
  // so every acc[j] sees the same adds as the loop of calls. The AVX2
  // backend holds a 16-wide tile of acc and of y in registers across all
  // `count` rows, where the loop of calls streams acc through memory once
  // per row. The RBF backward pass runs it once per centroid (rows: the
  // batch) and once per batch row (rows: the centroids).
  void (*axpy_diff_rows)(const double* s, const double* const* x_rows, size_t count,
                         const double* y, double* acc, size_t n);
  // y[j] += x[j].
  void (*vadd)(const double* x, double* y, size_t n);
  // out[r] = a . b[r] for the `rows` rows b[r] = b + r*b_stride, each a
  // 4-lane strided dot product: lane l accumulates the products of k % 4 ==
  // l in ascending k, the lanes reduce as (l0 + l1) + (l2 + l3), and the
  // remainder k are appended serially. Four rows share every `a` load, each
  // with its own accumulator.
  void (*dot_rows)(const double* a, const double* b, size_t b_stride, size_t rows,
                   size_t n, double* out);
  // out[r] = sum of (a[k] - b[r][k])^2, same rows and lane tree as dot_rows.
  void (*sqdist_rows)(const double* a, const double* b, size_t b_stride, size_t rows,
                      size_t n, double* out);
  // Sum of x[k]^2, same lane tree as dot_rows.
  double (*sqnorm)(const double* x, size_t n);
  // min over r < rows of sum over k < dim of (x[k] - cols[k*col_stride + r])^2:
  // the nearest of `rows` points stored as the columns of a feature-major
  // (dim x col_stride) matrix. Each sum is SqDist's serial chain (src/nn/
  // matrix.h: from 0.0, ascending k, no lanes within a point); SIMD lanes run
  // across points. The minimum is std::min's from DBL_MAX, so a NaN sum never
  // wins and the result does not depend on the order points are visited.
  // Returns DBL_MAX for rows == 0.
  double (*nearest_sqdist)(const double* x, size_t dim, const double* cols,
                           size_t col_stride, size_t rows);
  // x[j] *= a.
  void (*scal)(double a, double* x, size_t n);
  // x[j] = max(0, x[j]).
  void (*relu)(double* x, size_t n);
  // One Adam update over a parameter block; zeroes the gradient. Elementwise
  // and independent per index, so any vector width is bit-identical.
  // Gradients with |g| < kAdamGradFloor count as 0 and moments below
  // kAdamMomentFloor are stored as 0 (NaN passes through unflushed); the
  // m / bias1 division is skipped once bias1 == 1.0, which is exact.
  void (*adam_update)(double* value, double* grad, double* m, double* v, size_t n,
                      const AdamScalars& k);
};

// The table for a backend. kAuto resolves the process default; kAvx2 falls
// back to portable when the CPU or build lacks AVX2.
const KernelOps& KernelsFor(KernelBackend backend);

// Process default: resolved once from CPUID on first call.
const KernelOps& DefaultKernels();
KernelBackend DefaultKernelBackend();

// True when `backend` has a real implementation on this CPU and build.
bool KernelBackendAvailable(KernelBackend backend);

const char* KernelBackendName(KernelBackend backend);

// Defined in kernels_avx2.cc: the AVX2 table, or nullptr when that TU was
// compiled without AVX2 support.
const KernelOps* Avx2KernelOps();

// The one resolution rule for the optional `ops` argument of the matrix and
// layer kernels: an explicit table wins, nullptr means the process default.
inline const KernelOps& ResolveKernels(const KernelOps* ops) {
  return ops != nullptr ? *ops : DefaultKernels();
}

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_NN_KERNELS_H_
