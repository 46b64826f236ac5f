// AVX2 backend of the kernel dispatch layer (see kernels.h).
//
// This translation unit is the only one compiled with `-mavx2 -mfma`; CMake
// adds the flags per-file (plus `-ffp-contract=off`) and defines
// WF_KERNELS_AVX2, so the base build stays portable and the compiler cannot
// contract the explicit mul/add intrinsics into FMAs. Every kernel evaluates
// the exact expression tree of its portable twin in kernels.cc, per output:
// vector lanes are either independent outputs (matmul columns, the points of
// nearest_sqdist) or the 4-way strided accumulators of one reduction,
// reduced as (l0 + l1) + (l2 + l3). Tiles that hold several outputs in
// registers share loads between them and never reorder one output's adds,
// so AVX2 results are bit-identical to portable ones. Selection is still
// guarded by CPUID at runtime (kernels.cc), so a binary carrying this TU
// runs unchanged on pre-AVX2 hardware.
#include "src/nn/kernels.h"

#if defined(WF_KERNELS_AVX2) && defined(__AVX2__)

#include <algorithm>
#include <cmath>
#include <immintrin.h>
#include <limits>

namespace wayfinder {
namespace {

inline double ReduceLanes(__m256d acc) {
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// One R-row x 4V-column tile of gemm_rows: the R*V accumulators live across
// the whole k loop, and each `b` load serves all R rows.
// Per element the tree is the portable one: each k-block's four products
// summed first, then added; remainder k appended per row, skipping zeros.
template <size_t R, size_t V>
inline void GemmTile(const double* a, size_t k_dim, const double* b, size_t b_stride,
                     const double* bias, double* out, size_t m, size_t j) {
  __m256d acc[R][V];
  for (size_t v = 0; v < V; ++v) {
    const __m256d init =
        bias != nullptr ? _mm256_loadu_pd(bias + j + 4 * v) : _mm256_setzero_pd();
    for (size_t r = 0; r < R; ++r) {
      acc[r][v] = init;
    }
  }
  size_t k = 0;
  for (; k + 4 <= k_dim; k += 4) {
    const double* b0 = b + k * b_stride + j;
    for (size_t v = 0; v < V; ++v) {
      const __m256d vb0 = _mm256_loadu_pd(b0 + 4 * v);
      const __m256d vb1 = _mm256_loadu_pd(b0 + b_stride + 4 * v);
      const __m256d vb2 = _mm256_loadu_pd(b0 + 2 * b_stride + 4 * v);
      const __m256d vb3 = _mm256_loadu_pd(b0 + 3 * b_stride + 4 * v);
      for (size_t r = 0; r < R; ++r) {
        const double* ar = a + r * k_dim + k;
        __m256d t = _mm256_mul_pd(_mm256_set1_pd(ar[0]), vb0);
        t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_set1_pd(ar[1]), vb1));
        t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_set1_pd(ar[2]), vb2));
        t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_set1_pd(ar[3]), vb3));
        acc[r][v] = _mm256_add_pd(acc[r][v], t);
      }
    }
  }
  for (; k < k_dim; ++k) {
    const double* brow = b + k * b_stride + j;
    for (size_t r = 0; r < R; ++r) {
      const double ak = a[r * k_dim + k];
      if (ak == 0.0) {
        continue;
      }
      const __m256d vak = _mm256_set1_pd(ak);
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(vak, _mm256_loadu_pd(brow + 4 * v)));
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < V; ++v) {
      _mm256_storeu_pd(out + r * m + j + 4 * v, acc[r][v]);
    }
  }
}

// R rows of gemm_rows over the columns the 8- and 4-wide tiles cover.
template <size_t R>
void GemmRowBlock(const double* a, size_t k_dim, const double* b, size_t b_stride,
                  const double* bias, double* out, size_t m) {
  size_t j = 0;
  for (; j + 8 <= m; j += 8) {
    GemmTile<R, 2>(a, k_dim, b, b_stride, bias, out, m, j);
  }
  if (j + 4 <= m) {
    GemmTile<R, 1>(a, k_dim, b, b_stride, bias, out, m, j);
  }
}

void Avx2GemmRows(const double* a, size_t rows, size_t k_dim, const double* b,
                  size_t b_stride, const double* bias, double* out, size_t m) {
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    GemmRowBlock<4>(a + i * k_dim, k_dim, b, b_stride, bias, out + i * m, m);
  }
  for (; i < rows; ++i) {
    GemmRowBlock<1>(a + i * k_dim, k_dim, b, b_stride, bias, out + i * m, m);
  }
  // The < 4 columns no tile covers, one element at a time in the same tree.
  for (size_t j = m - m % 4; j < m; ++j) {
    for (i = 0; i < rows; ++i) {
      const double* ar = a + i * k_dim;
      double s = bias != nullptr ? bias[j] : 0.0;
      size_t k = 0;
      for (; k + 4 <= k_dim; k += 4) {
        const double* b0 = b + k * b_stride + j;
        s += ar[k] * b0[0] + ar[k + 1] * b0[b_stride] + ar[k + 2] * b0[2 * b_stride] +
             ar[k + 3] * b0[3 * b_stride];
      }
      for (; k < k_dim; ++k) {
        if (ar[k] != 0.0) {
          s += ar[k] * b[k * b_stride + j];
        }
      }
      out[i * m + j] = s;
    }
  }
}

// A 4V-wide tile of gemm_at_row: V add chains held in registers across the
// n nonzero a[k] of a chunk (`ak`, with their b rows `brow`, ascending k).
template <size_t V>
inline void GemmAtTile(const double* ak, const double* const* brow, size_t n, double* acc,
                       size_t j) {
  __m256d t[V];
  for (size_t v = 0; v < V; ++v) {
    t[v] = _mm256_loadu_pd(acc + j + 4 * v);
  }
  for (size_t i = 0; i < n; ++i) {
    const __m256d vak = _mm256_set1_pd(ak[i]);
    for (size_t v = 0; v < V; ++v) {
      t[v] = _mm256_add_pd(t[v], _mm256_mul_pd(vak, _mm256_loadu_pd(brow[i] + j + 4 * v)));
    }
  }
  for (size_t v = 0; v < V; ++v) {
    _mm256_storeu_pd(acc + j + 4 * v, t[v]);
  }
}

// The zero skip runs once per chunk of k, not once per tile: the nonzero a[k]
// are compacted, in ascending k, without a branch. Inputs are often exactly
// 0 (boolean features, dead ReLUs) in no pattern a branch predictor can
// follow, and a mispredicted skip per tile cost more than the product it
// saved. The tiles then add exactly what the skipping loop adds, in order.
void Avx2GemmAtRow(const double* a, size_t a_stride, size_t k_dim, const double* b,
                   size_t b_stride, double* acc, size_t m) {
  constexpr size_t kChunk = 64;
  double ak[kChunk];
  const double* brow[kChunk];
  for (size_t k0 = 0; k0 < k_dim; k0 += kChunk) {
    const size_t k_end = std::min(k_dim, k0 + kChunk);
    size_t n = 0;
    for (size_t k = k0; k < k_end; ++k) {
      ak[n] = a[k * a_stride];
      brow[n] = b + k * b_stride;
      n += ak[n] != 0.0 ? size_t{1} : size_t{0};
    }
    size_t j = 0;
    for (; j + 32 <= m; j += 32) {
      GemmAtTile<8>(ak, brow, n, acc, j);
    }
    for (; j + 16 <= m; j += 16) {
      GemmAtTile<4>(ak, brow, n, acc, j);
    }
    for (; j + 4 <= m; j += 4) {
      GemmAtTile<1>(ak, brow, n, acc, j);
    }
    for (; j < m; ++j) {
      double s = acc[j];
      for (size_t i = 0; i < n; ++i) {
        s += ak[i] * brow[i][j];
      }
      acc[j] = s;
    }
  }
}

void Avx2AxpyDiff(double a, const double* x, const double* y, double* out, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + j), _mm256_loadu_pd(y + j));
    __m256d t = _mm256_mul_pd(va, d);
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j), t));
  }
  for (; j < n; ++j) {
    out[j] += a * (x[j] - y[j]);
  }
}

// A 4V-wide tile of axpy_diff_rows: V accumulators of acc and V vectors of
// y stay in registers while the `count` rows stream past, ascending r.
template <size_t V>
inline void AxpyDiffRowsTile(const double* s, const double* const* x_rows, size_t count,
                             const double* y, double* acc, size_t j) {
  __m256d t[V];
  __m256d vy[V];
  for (size_t v = 0; v < V; ++v) {
    t[v] = _mm256_loadu_pd(acc + j + 4 * v);
    vy[v] = _mm256_loadu_pd(y + j + 4 * v);
  }
  for (size_t r = 0; r < count; ++r) {
    const __m256d vs = _mm256_set1_pd(s[r]);
    const double* x = x_rows[r] + j;
    for (size_t v = 0; v < V; ++v) {
      const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + 4 * v), vy[v]);
      t[v] = _mm256_add_pd(t[v], _mm256_mul_pd(vs, d));
    }
  }
  for (size_t v = 0; v < V; ++v) {
    _mm256_storeu_pd(acc + j + 4 * v, t[v]);
  }
}

// wf-hot-path: no scratch — register tiles only, into the caller's row.
void Avx2AxpyDiffRows(const double* s, const double* const* x_rows, size_t count,
                      const double* y, double* acc, size_t n) {
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    AxpyDiffRowsTile<4>(s, x_rows, count, y, acc, j);
  }
  for (; j + 4 <= n; j += 4) {
    AxpyDiffRowsTile<1>(s, x_rows, count, y, acc, j);
  }
  for (; j < n; ++j) {
    double t = acc[j];
    for (size_t r = 0; r < count; ++r) {
      t += s[r] * (x_rows[r][j] - y[j]);
    }
    acc[j] = t;
  }
}

void Avx2Vadd(const double* x, double* y, size_t n) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(y + j, _mm256_add_pd(_mm256_loadu_pd(y + j), _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) {
    y[j] += x[j];
  }
}

// R rows of dot_rows (kDiff = false) or sqdist_rows (kDiff = true): one
// 4-lane accumulator per row, every `a` load shared by the R rows, then the
// portable (l0 + l1) + (l2 + l3) reduction and serial remainder per row.
template <size_t R, bool kDiff>
inline void ReduceRows(const double* a, const double* b, size_t b_stride, size_t n,
                       double* out) {
  __m256d acc[R];
  for (size_t r = 0; r < R; ++r) {
    acc[r] = _mm256_setzero_pd();
  }
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d va = _mm256_loadu_pd(a + k);
    for (size_t r = 0; r < R; ++r) {
      const __m256d vb = _mm256_loadu_pd(b + r * b_stride + k);
      if constexpr (kDiff) {
        const __m256d d = _mm256_sub_pd(va, vb);
        acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(d, d));
      } else {
        acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(va, vb));
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    const double* br = b + r * b_stride;
    double sum = ReduceLanes(acc[r]);
    for (size_t kk = k; kk < n; ++kk) {
      if constexpr (kDiff) {
        const double d = a[kk] - br[kk];
        sum += d * d;
      } else {
        sum += a[kk] * br[kk];
      }
    }
    out[r] = sum;
  }
}

template <bool kDiff>
void ReduceRowsAll(const double* a, const double* b, size_t b_stride, size_t rows, size_t n,
                   double* out) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    ReduceRows<4, kDiff>(a, b + r * b_stride, b_stride, n, out + r);
  }
  for (; r < rows; ++r) {
    ReduceRows<1, kDiff>(a, b + r * b_stride, b_stride, n, out + r);
  }
}

void Avx2DotRows(const double* a, const double* b, size_t b_stride, size_t rows, size_t n,
                 double* out) {
  ReduceRowsAll<false>(a, b, b_stride, rows, n, out);
}

void Avx2SqDistRows(const double* a, const double* b, size_t b_stride, size_t rows,
                    size_t n, double* out) {
  ReduceRowsAll<true>(a, b, b_stride, rows, n, out);
}

double Avx2SqNorm(const double* x, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d v = _mm256_loadu_pd(x + k);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  double sum = ReduceLanes(acc);
  for (; k < n; ++k) {
    sum += x[k] * x[k];
  }
  return sum;
}

// 4V points of nearest_sqdist, one per lane: each lane is the serial chain
// sum += (x[k] - c[k])^2 over ascending k. _mm256_min_pd(s, nearest) is
// (s < nearest ? s : nearest), the chain min of the portable kernel.
template <size_t V>
inline __m256d NearestBlock(const double* x, size_t dim, const double* cols,
                            size_t col_stride, __m256d nearest) {
  __m256d s[V];
  for (size_t v = 0; v < V; ++v) {
    s[v] = _mm256_setzero_pd();
  }
  for (size_t k = 0; k < dim; ++k) {
    const __m256d vx = _mm256_set1_pd(x[k]);
    const double* c = cols + k * col_stride;
    for (size_t v = 0; v < V; ++v) {
      const __m256d d = _mm256_sub_pd(vx, _mm256_loadu_pd(c + 4 * v));
      s[v] = _mm256_add_pd(s[v], _mm256_mul_pd(d, d));
    }
  }
  for (size_t v = 0; v < V; ++v) {
    nearest = _mm256_min_pd(s[v], nearest);
  }
  return nearest;
}

double Avx2NearestSqDist(const double* x, size_t dim, const double* cols, size_t col_stride,
                         size_t rows) {
  __m256d lanes_min = _mm256_set1_pd(std::numeric_limits<double>::max());
  size_t r = 0;
  for (; r + 16 <= rows; r += 16) {
    lanes_min = NearestBlock<4>(x, dim, cols + r, col_stride, lanes_min);
  }
  for (; r + 4 <= rows; r += 4) {
    lanes_min = NearestBlock<1>(x, dim, cols + r, col_stride, lanes_min);
  }
  // No lane ever holds NaN (min_pd keeps `nearest` when s is NaN), so the
  // minimum over lanes is the same in any order.
  double lanes[4];
  _mm256_storeu_pd(lanes, lanes_min);
  double nearest = std::min(std::min(lanes[0], lanes[1]), std::min(lanes[2], lanes[3]));
  for (; r < rows; ++r) {
    double sum = 0.0;
    for (size_t k = 0; k < dim; ++k) {
      const double d = x[k] - cols[k * col_stride + r];
      sum += d * d;
    }
    nearest = std::min(nearest, sum);
  }
  return nearest;
}

void Avx2Scal(double a, double* x, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(x + j, _mm256_mul_pd(va, _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) {
    x[j] *= a;
  }
}

void Avx2Relu(double* x, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    // max(0, x) with 0 as the first operand: NaN and -0.0 propagate exactly
    // like the portable `if (x < 0) x = 0`.
    _mm256_storeu_pd(x + j, _mm256_max_pd(zero, _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) {
    if (x[j] < 0.0) {
      x[j] = 0.0;
    }
  }
}

// The portable FlushBelow on four lanes: |x| < floor -> +0.0. NaN compares
// unordered, which _CMP_NLT_UQ counts as "not below", so it passes through.
inline __m256d FlushBelow(__m256d x, __m256d floor) {
  const __m256d abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
  return _mm256_and_pd(x, _mm256_cmp_pd(abs, floor, _CMP_NLT_UQ));
}

inline double FlushBelow(double x, double floor) { return std::abs(x) < floor ? 0.0 : x; }

void Avx2AdamUpdate(double* value, double* grad, double* m, double* v, size_t n,
                    const AdamScalars& k) {
  const __m256d beta1 = _mm256_set1_pd(k.beta1);
  const __m256d beta2 = _mm256_set1_pd(k.beta2);
  const __m256d one_minus_beta1 = _mm256_set1_pd(1.0 - k.beta1);
  const __m256d one_minus_beta2 = _mm256_set1_pd(1.0 - k.beta2);
  const __m256d bias1 = _mm256_set1_pd(k.bias1);
  const __m256d bias2 = _mm256_set1_pd(k.bias2);
  const __m256d eps = _mm256_set1_pd(k.epsilon);
  const __m256d lr = _mm256_set1_pd(k.learning_rate);
  const __m256d wd = _mm256_set1_pd(k.weight_decay);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d grad_floor = _mm256_set1_pd(kAdamGradFloor);
  const __m256d moment_floor = _mm256_set1_pd(kAdamMomentFloor);
  const bool use_wd = k.weight_decay > 0.0;
  const bool unbiased1 = k.bias1 == 1.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d g = FlushBelow(_mm256_loadu_pd(grad + i), grad_floor);
    __m256d vm = _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + i)),
                               _mm256_mul_pd(one_minus_beta1, g));
    vm = FlushBelow(vm, moment_floor);
    // (1 - beta2) * g * g is left-associative in the portable kernel.
    __m256d g2 = _mm256_mul_pd(_mm256_mul_pd(one_minus_beta2, g), g);
    __m256d vv = _mm256_add_pd(_mm256_mul_pd(beta2, _mm256_loadu_pd(v + i)), g2);
    vv = FlushBelow(vv, moment_floor);
    _mm256_storeu_pd(m + i, vm);
    _mm256_storeu_pd(v + i, vv);
    __m256d m_hat = unbiased1 ? vm : _mm256_div_pd(vm, bias1);
    __m256d v_hat = _mm256_div_pd(vv, bias2);
    __m256d update = _mm256_div_pd(m_hat, _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps));
    __m256d val = _mm256_loadu_pd(value + i);
    if (use_wd) {
      update = _mm256_add_pd(update, _mm256_mul_pd(wd, val));
    }
    _mm256_storeu_pd(value + i, _mm256_sub_pd(val, _mm256_mul_pd(lr, update)));
    _mm256_storeu_pd(grad + i, zero);
  }
  for (; i < n; ++i) {
    const double gi = FlushBelow(grad[i], kAdamGradFloor);
    m[i] = FlushBelow(k.beta1 * m[i] + (1.0 - k.beta1) * gi, kAdamMomentFloor);
    v[i] = FlushBelow(k.beta2 * v[i] + (1.0 - k.beta2) * gi * gi, kAdamMomentFloor);
    double m_hat = unbiased1 ? m[i] : m[i] / k.bias1;
    double v_hat = v[i] / k.bias2;
    double update = m_hat / (std::sqrt(v_hat) + k.epsilon);
    if (use_wd) {
      update += k.weight_decay * value[i];
    }
    value[i] -= k.learning_rate * update;
    grad[i] = 0.0;
  }
}

constexpr KernelOps kAvx2Ops = {
    "avx2",           Avx2GemmRows,      Avx2GemmAtRow, Avx2AxpyDiff,
    Avx2AxpyDiffRows, Avx2Vadd,          Avx2DotRows,   Avx2SqDistRows,
    Avx2SqNorm,       Avx2NearestSqDist, Avx2Scal,      Avx2Relu,
    Avx2AdamUpdate,
};

}  // namespace

const KernelOps* Avx2KernelOps() { return &kAvx2Ops; }

}  // namespace wayfinder

#else  // !(WF_KERNELS_AVX2 && __AVX2__)

namespace wayfinder {

const KernelOps* Avx2KernelOps() { return nullptr; }

}  // namespace wayfinder

#endif
