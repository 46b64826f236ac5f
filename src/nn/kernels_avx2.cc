// AVX2 backend of the kernel dispatch layer (see kernels.h).
//
// This translation unit is the only one compiled with `-mavx2 -mfma`; CMake
// adds the flags per-file (plus `-ffp-contract=off`) and defines
// WF_KERNELS_AVX2, so the base build stays portable and the compiler cannot
// contract the explicit mul/add intrinsics into FMAs. Every kernel evaluates
// the exact expression tree of its portable twin in kernels.cc — vector
// lanes are the 4-way strided accumulators, reduced as (l0 + l1) + (l2 + l3)
// — so AVX2 results are bit-identical to portable ones. Selection is still
// guarded by CPUID at runtime (kernels.cc), so a binary carrying this TU
// runs unchanged on pre-AVX2 hardware.
#include "src/nn/kernels.h"

#if defined(WF_KERNELS_AVX2) && defined(__AVX2__)

#include <cmath>
#include <immintrin.h>

namespace wayfinder {
namespace {

inline double ReduceLanes(__m256d acc) {
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// One k-block-of-4 contribution to a 4-wide j tile:
// acc += a0*b0 + a1*b1 + a2*b2 + a3*b3 with the four products summed first
// (the portable expression tree).
static inline __m256d GemmBlock(__m256d acc, __m256d va0, __m256d va1, __m256d va2,
                                __m256d va3, const double* b0, const double* b1,
                                const double* b2, const double* b3, size_t j) {
  __m256d t = _mm256_mul_pd(va0, _mm256_loadu_pd(b0 + j));
  t = _mm256_add_pd(t, _mm256_mul_pd(va1, _mm256_loadu_pd(b1 + j)));
  t = _mm256_add_pd(t, _mm256_mul_pd(va2, _mm256_loadu_pd(b2 + j)));
  t = _mm256_add_pd(t, _mm256_mul_pd(va3, _mm256_loadu_pd(b3 + j)));
  return _mm256_add_pd(acc, t);
}

void Avx2GemmRow(const double* a, size_t k_dim, const double* b, size_t b_stride,
                 const double* bias, double* out, size_t m) {
  const __m256d zero = _mm256_setzero_pd();
  size_t j = 0;
  // 16-wide j tiles: four accumulators live in registers across the entire
  // k loop — no out[] load/store per k-block.
  for (; j + 16 <= m; j += 16) {
    __m256d acc0 = bias != nullptr ? _mm256_loadu_pd(bias + j) : zero;
    __m256d acc1 = bias != nullptr ? _mm256_loadu_pd(bias + j + 4) : zero;
    __m256d acc2 = bias != nullptr ? _mm256_loadu_pd(bias + j + 8) : zero;
    __m256d acc3 = bias != nullptr ? _mm256_loadu_pd(bias + j + 12) : zero;
    size_t k = 0;
    for (; k + 4 <= k_dim; k += 4) {
      const double* b0 = b + k * b_stride;
      const double* b1 = b0 + b_stride;
      const double* b2 = b1 + b_stride;
      const double* b3 = b2 + b_stride;
      const __m256d va0 = _mm256_set1_pd(a[k]);
      const __m256d va1 = _mm256_set1_pd(a[k + 1]);
      const __m256d va2 = _mm256_set1_pd(a[k + 2]);
      const __m256d va3 = _mm256_set1_pd(a[k + 3]);
      acc0 = GemmBlock(acc0, va0, va1, va2, va3, b0, b1, b2, b3, j);
      acc1 = GemmBlock(acc1, va0, va1, va2, va3, b0, b1, b2, b3, j + 4);
      acc2 = GemmBlock(acc2, va0, va1, va2, va3, b0, b1, b2, b3, j + 8);
      acc3 = GemmBlock(acc3, va0, va1, va2, va3, b0, b1, b2, b3, j + 12);
    }
    for (; k < k_dim; ++k) {
      const double ak = a[k];
      if (ak == 0.0) {
        continue;
      }
      const __m256d vak = _mm256_set1_pd(ak);
      const double* brow = b + k * b_stride;
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(vak, _mm256_loadu_pd(brow + j)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(vak, _mm256_loadu_pd(brow + j + 4)));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(vak, _mm256_loadu_pd(brow + j + 8)));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(vak, _mm256_loadu_pd(brow + j + 12)));
    }
    _mm256_storeu_pd(out + j, acc0);
    _mm256_storeu_pd(out + j + 4, acc1);
    _mm256_storeu_pd(out + j + 8, acc2);
    _mm256_storeu_pd(out + j + 12, acc3);
  }
  // 4-wide tiles.
  for (; j + 4 <= m; j += 4) {
    __m256d acc = bias != nullptr ? _mm256_loadu_pd(bias + j) : zero;
    size_t k = 0;
    for (; k + 4 <= k_dim; k += 4) {
      const double* b0 = b + k * b_stride;
      acc = GemmBlock(acc, _mm256_set1_pd(a[k]), _mm256_set1_pd(a[k + 1]),
                      _mm256_set1_pd(a[k + 2]), _mm256_set1_pd(a[k + 3]), b0,
                      b0 + b_stride, b0 + 2 * b_stride, b0 + 3 * b_stride, j);
    }
    for (; k < k_dim; ++k) {
      const double ak = a[k];
      if (ak == 0.0) {
        continue;
      }
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_set1_pd(ak), _mm256_loadu_pd(b + k * b_stride + j)));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  // Scalar tail, same expression tree.
  for (; j < m; ++j) {
    double s = bias != nullptr ? bias[j] : 0.0;
    size_t k = 0;
    for (; k + 4 <= k_dim; k += 4) {
      const double* b0 = b + k * b_stride;
      const double* b1 = b0 + b_stride;
      const double* b2 = b1 + b_stride;
      const double* b3 = b2 + b_stride;
      s += a[k] * b0[j] + a[k + 1] * b1[j] + a[k + 2] * b2[j] + a[k + 3] * b3[j];
    }
    for (; k < k_dim; ++k) {
      const double ak = a[k];
      if (ak == 0.0) {
        continue;
      }
      s += ak * (b + k * b_stride)[j];
    }
    out[j] = s;
  }
}

void Avx2GemmAtRow(const double* a, size_t a_stride, size_t k_dim, const double* b,
                   size_t b_stride, double* acc, size_t m) {
  size_t j = 0;
  // 16-wide j tiles: four accumulators live in registers across the entire
  // k loop, so acc[] is loaded and stored once instead of once per k.
  for (; j + 16 <= m; j += 16) {
    __m256d acc0 = _mm256_loadu_pd(acc + j);
    __m256d acc1 = _mm256_loadu_pd(acc + j + 4);
    __m256d acc2 = _mm256_loadu_pd(acc + j + 8);
    __m256d acc3 = _mm256_loadu_pd(acc + j + 12);
    for (size_t k = 0; k < k_dim; ++k) {
      const double ak = a[k * a_stride];
      if (ak == 0.0) {
        continue;
      }
      const __m256d vak = _mm256_set1_pd(ak);
      const double* brow = b + k * b_stride + j;
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(vak, _mm256_loadu_pd(brow)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(vak, _mm256_loadu_pd(brow + 4)));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(vak, _mm256_loadu_pd(brow + 8)));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(vak, _mm256_loadu_pd(brow + 12)));
    }
    _mm256_storeu_pd(acc + j, acc0);
    _mm256_storeu_pd(acc + j + 4, acc1);
    _mm256_storeu_pd(acc + j + 8, acc2);
    _mm256_storeu_pd(acc + j + 12, acc3);
  }
  // 4-wide tiles.
  for (; j + 4 <= m; j += 4) {
    __m256d acc0 = _mm256_loadu_pd(acc + j);
    for (size_t k = 0; k < k_dim; ++k) {
      const double ak = a[k * a_stride];
      if (ak == 0.0) {
        continue;
      }
      acc0 = _mm256_add_pd(
          acc0, _mm256_mul_pd(_mm256_set1_pd(ak), _mm256_loadu_pd(b + k * b_stride + j)));
    }
    _mm256_storeu_pd(acc + j, acc0);
  }
  // Scalar tail, same sequence of adds.
  for (; j < m; ++j) {
    double s = acc[j];
    for (size_t k = 0; k < k_dim; ++k) {
      const double ak = a[k * a_stride];
      if (ak == 0.0) {
        continue;
      }
      s += ak * b[k * b_stride + j];
    }
    acc[j] = s;
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

void Avx2Vadd(const double* x, double* y, size_t n) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(y + j, _mm256_add_pd(_mm256_loadu_pd(y + j), _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) {
    y[j] += x[j];
  }
}

double Avx2Dot(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k)));
  }
  double sum = ReduceLanes(acc);
  for (; k < n; ++k) {
    sum += a[k] * b[k];
  }
  return sum;
}

double Avx2SqDist(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double sum = ReduceLanes(acc);
  for (; k < n; ++k) {
    double d = a[k] - b[k];
    sum += d * d;
  }
  return sum;
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
    "avx2",     Avx2GemmRow, Avx2GemmAtRow, Avx2AxpyDiff, Avx2Vadd,       Avx2Dot,
    Avx2SqDist, Avx2SqNorm,  Avx2Scal,      Avx2Relu,     Avx2AdamUpdate,
};

}  // namespace

const KernelOps* Avx2KernelOps() { return &kAvx2Ops; }

}  // namespace wayfinder

#else  // !(WF_KERNELS_AVX2 && __AVX2__)

namespace wayfinder {

const KernelOps* Avx2KernelOps() { return nullptr; }

}  // namespace wayfinder

#endif
