#include "src/nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace wayfinder {
namespace {

// --- portable backend -------------------------------------------------------
// Written in the canonical lane structure (see kernels.h): 4-way strided
// accumulators for reductions, independent per-index elementwise loops. The
// AVX2 backend mirrors these expression trees exactly.

void PortableGemmRows(const double* a, size_t rows, size_t k_dim, const double* b,
                      size_t b_stride, const double* bias, double* out, size_t m) {
  for (size_t i = 0; i < rows; ++i) {
    const double* arow = a + i * k_dim;
    double* orow = out + i * m;
    if (bias != nullptr) {
      std::memcpy(orow, bias, m * sizeof(double));
    } else {
      std::memset(orow, 0, m * sizeof(double));
    }
    size_t k = 0;
    for (; k + 4 <= k_dim; k += 4) {
      const double a0 = arow[k];
      const double a1 = arow[k + 1];
      const double a2 = arow[k + 2];
      const double a3 = arow[k + 3];
      const double* b0 = b + k * b_stride;
      const double* b1 = b0 + b_stride;
      const double* b2 = b1 + b_stride;
      const double* b3 = b2 + b_stride;
      for (size_t j = 0; j < m; ++j) {
        orow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; k < k_dim; ++k) {
      const double ak = arow[k];
      if (ak == 0.0) {
        continue;
      }
      const double* brow = b + k * b_stride;
      for (size_t j = 0; j < m; ++j) {
        orow[j] += ak * brow[j];
      }
    }
  }
}

void PortableGemmAtRow(const double* a, size_t a_stride, size_t k_dim, const double* b,
                       size_t b_stride, double* acc, size_t m) {
  for (size_t k = 0; k < k_dim; ++k) {
    const double ak = a[k * a_stride];
    if (ak == 0.0) {
      continue;
    }
    const double* brow = b + k * b_stride;
    for (size_t j = 0; j < m; ++j) {
      acc[j] += ak * brow[j];
    }
  }
}

void PortableAxpyDiff(double a, const double* x, const double* y, double* out, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    out[j] += a * (x[j] - y[j]);
  }
}

// wf-hot-path: no scratch — the RBF backward's loop of axpy_diff calls into
// the caller's row.
void PortableAxpyDiffRows(const double* s, const double* const* x_rows, size_t count,
                          const double* y, double* acc, size_t n) {
  for (size_t r = 0; r < count; ++r) {
    PortableAxpyDiff(s[r], x_rows[r], y, acc, n);
  }
}

void PortableVadd(const double* x, double* y, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    y[j] += x[j];
  }
}

double PortableDot(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    s0 += a[k] * b[k];
    s1 += a[k + 1] * b[k + 1];
    s2 += a[k + 2] * b[k + 2];
    s3 += a[k + 3] * b[k + 3];
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; k < n; ++k) {
    sum += a[k] * b[k];
  }
  return sum;
}

double PortableSqDist(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    double d0 = a[k] - b[k];
    double d1 = a[k + 1] - b[k + 1];
    double d2 = a[k + 2] - b[k + 2];
    double d3 = a[k + 3] - b[k + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; k < n; ++k) {
    double d = a[k] - b[k];
    sum += d * d;
  }
  return sum;
}

void PortableDotRows(const double* a, const double* b, size_t b_stride, size_t rows,
                     size_t n, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = PortableDot(a, b + r * b_stride, n);
  }
}

void PortableSqDistRows(const double* a, const double* b, size_t b_stride, size_t rows,
                        size_t n, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = PortableSqDist(a, b + r * b_stride, n);
  }
}

double PortableSqNorm(const double* x, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    s0 += x[k] * x[k];
    s1 += x[k + 1] * x[k + 1];
    s2 += x[k + 2] * x[k + 2];
    s3 += x[k + 3] * x[k + 3];
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; k < n; ++k) {
    sum += x[k] * x[k];
  }
  return sum;
}

// Four points per pass, each its own serial chain (SqDist's sum): the lanes
// run across points, never within one.
double PortableNearestSqDist(const double* x, size_t dim, const double* cols,
                             size_t col_stride, size_t rows) {
  double nearest = std::numeric_limits<double>::max();
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t k = 0; k < dim; ++k) {
      const double* c = cols + k * col_stride + r;
      double d0 = x[k] - c[0];
      double d1 = x[k] - c[1];
      double d2 = x[k] - c[2];
      double d3 = x[k] - c[3];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    nearest = std::min(nearest, s0);
    nearest = std::min(nearest, s1);
    nearest = std::min(nearest, s2);
    nearest = std::min(nearest, s3);
  }
  for (; r < rows; ++r) {
    double sum = 0.0;
    for (size_t k = 0; k < dim; ++k) {
      double d = x[k] - cols[k * col_stride + r];
      sum += d * d;
    }
    nearest = std::min(nearest, sum);
  }
  return nearest;
}

void PortableScal(double a, double* x, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    x[j] *= a;
  }
}

void PortableRelu(double* x, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    if (x[j] < 0.0) {
      x[j] = 0.0;
    }
  }
}

// |x| < floor -> +0.0; NaN compares false and passes through.
inline double FlushBelow(double x, double floor) { return std::abs(x) < floor ? 0.0 : x; }

void PortableAdamUpdate(double* value, double* grad, double* m, double* v, size_t n,
                        const AdamScalars& k) {
  const bool unbiased1 = k.bias1 == 1.0;
  for (size_t i = 0; i < n; ++i) {
    const double g = FlushBelow(grad[i], kAdamGradFloor);
    m[i] = FlushBelow(k.beta1 * m[i] + (1.0 - k.beta1) * g, kAdamMomentFloor);
    v[i] = FlushBelow(k.beta2 * v[i] + (1.0 - k.beta2) * g * g, kAdamMomentFloor);
    double m_hat = unbiased1 ? m[i] : m[i] / k.bias1;
    double v_hat = v[i] / k.bias2;
    double update = m_hat / (std::sqrt(v_hat) + k.epsilon);
    if (k.weight_decay > 0.0) {
      update += k.weight_decay * value[i];
    }
    value[i] -= k.learning_rate * update;
    grad[i] = 0.0;
  }
}

constexpr KernelOps kPortableOps = {
    "portable",           PortableGemmRows,      PortableGemmAtRow,  PortableAxpyDiff,
    PortableAxpyDiffRows, PortableVadd,          PortableDotRows,    PortableSqDistRows,
    PortableSqNorm,       PortableNearestSqDist, PortableScal,       PortableRelu,
    PortableAdamUpdate,
};

// --- dispatch ---------------------------------------------------------------

bool CpuHasAvx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

KernelBackend ResolveAuto() {
  return KernelBackendAvailable(KernelBackend::kAvx2) ? KernelBackend::kAvx2
                                                      : KernelBackend::kPortable;
}

}  // namespace

bool KernelBackendAvailable(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
    case KernelBackend::kPortable:
      return true;
    case KernelBackend::kAvx2:
      return Avx2KernelOps() != nullptr && CpuHasAvx2();
  }
  return false;
}

const KernelOps& KernelsFor(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
      return DefaultKernels();
    case KernelBackend::kPortable:
      return kPortableOps;
    case KernelBackend::kAvx2:
      if (KernelBackendAvailable(KernelBackend::kAvx2)) {
        return *Avx2KernelOps();
      }
      return kPortableOps;  // Requested but unavailable: safe fallback.
  }
  return kPortableOps;
}

KernelBackend DefaultKernelBackend() {
  static const KernelBackend resolved = ResolveAuto();
  return resolved;
}

const KernelOps& DefaultKernels() { return KernelsFor(DefaultKernelBackend()); }

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
      return "auto";
    case KernelBackend::kPortable:
      return "portable";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace wayfinder
