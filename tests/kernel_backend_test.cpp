// Tests for the runtime-dispatched SIMD kernel backend (src/nn/kernels.h):
// primitive-level and matrix-level equivalence between the portable and AVX2
// backends, and the end-to-end invariant the design buys — a fixed-seed
// DeepTune search trajectory is unchanged by the backend choice.
//
// The backends are built to be *bit-identical* (same expression trees, same
// lane-structured reductions, FMA contraction off), so these tests assert
// exact equality — stronger than the 1e-12 the design requires. On hardware
// without AVX2 the avx2 table falls back to portable and everything here
// passes trivially.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/configspace/linux_space.h"
#include "src/core/deeptune.h"
#include "src/core/dtm.h"
#include "src/nn/kernels.h"
#include "src/nn/layers.h"
#include "src/nn/matrix.h"
#include "src/platform/session.h"
#include "src/simos/testbench.h"
#include "src/util/rng.h"

namespace wayfinder {
namespace {

std::vector<double> RandomArray(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.Normal();
  }
  return v;
}

Matrix RandomMatrix(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    v = rng.Normal();
  }
  return m;
}

// Bit-for-bit equality, which unlike operator== also holds for NaN.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Both backends, portable first. Without AVX2 the second is portable again.
std::vector<const KernelOps*> BothBackends() {
  return {&KernelsFor(KernelBackend::kPortable), &KernelsFor(KernelBackend::kAvx2)};
}

// --- scalar references, in the expression trees kernels.h documents --------
// Independent of both backends: each output is computed alone, by a plain
// loop, so a change both backends make the same way still shows.

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// EXPECT_EQ on bit patterns: exact, and unlike == it tells -0.0 from 0.0 and
// matches a NaN with the same NaN.
void ExpectSameBits(const std::vector<double>& got, const std::vector<double>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " [" << i << "]: " << got[i] << " vs " << want[i];
  }
}

// One gemm_rows element: the bias, then each k-block's four products summed
// first and added, then the remainder k appended one by one, skipping
// a[k] == 0.
double RefGemmElement(const double* arow, size_t k_dim, const double* b, size_t b_stride,
                      const double* bias, size_t j) {
  double s = bias != nullptr ? bias[j] : 0.0;
  size_t k = 0;
  for (; k + 4 <= k_dim; k += 4) {
    double block = arow[k] * b[k * b_stride + j];
    block += arow[k + 1] * b[(k + 1) * b_stride + j];
    block += arow[k + 2] * b[(k + 2) * b_stride + j];
    block += arow[k + 3] * b[(k + 3) * b_stride + j];
    s += block;
  }
  for (; k < k_dim; ++k) {
    if (arow[k] != 0.0) {
      s += arow[k] * b[k * b_stride + j];
    }
  }
  return s;
}

// The 4-lane strided sum of term(0..n-1): lane l adds the terms with
// k % 4 == l in ascending k, the lanes reduce as (l0 + l1) + (l2 + l3), and
// the remainder terms are appended one by one.
template <typename Term>
double RefLaneSum(size_t n, Term term) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    for (size_t l = 0; l < 4; ++l) {
      lane[l] += term(k + l);
    }
  }
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; k < n; ++k) {
    sum += term(k);
  }
  return sum;
}

double RefDot(const double* a, const double* b, size_t n) {
  return RefLaneSum(n, [&](size_t k) { return a[k] * b[k]; });
}

double RefSqDist(const double* a, const double* b, size_t n) {
  return RefLaneSum(n, [&](size_t k) {
    double d = a[k] - b[k];
    return d * d;
  });
}

// One gemm_at_row element: acc[j] plus a[k] * b[k][j] for ascending k,
// skipping a[k] == 0.
double RefGemmAtElement(const double* a, size_t a_stride, size_t k_dim, const double* b,
                        size_t b_stride, double acc, size_t j) {
  for (size_t k = 0; k < k_dim; ++k) {
    if (a[k * a_stride] != 0.0) {
      acc += a[k * a_stride] * b[k * b_stride + j];
    }
  }
  return acc;
}

// nearest_sqdist: each column gathered into a point, SqDist (the serial
// reference in matrix.h), and a std::min chain from DBL_MAX.
double RefNearestSqDist(const double* x, size_t dim, const double* cols, size_t col_stride,
                        size_t rows) {
  double nearest = std::numeric_limits<double>::max();
  std::vector<double> point(dim);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t k = 0; k < dim; ++k) {
      point[k] = cols[k * col_stride + r];
    }
    nearest = std::min(nearest, SqDist(x, point.data(), dim));
  }
  return nearest;
}

TEST(KernelBackend, DispatchResolvesToARealBackend) {
  // CPUID alone picks the process default: the widest available backend.
  KernelBackend backend = DefaultKernelBackend();
  EXPECT_EQ(backend, KernelBackendAvailable(KernelBackend::kAvx2) ? KernelBackend::kAvx2
                                                                  : KernelBackend::kPortable);
  EXPECT_STREQ(KernelsFor(KernelBackend::kPortable).name, "portable");
  if (KernelBackendAvailable(KernelBackend::kAvx2)) {
    EXPECT_STREQ(KernelsFor(KernelBackend::kAvx2).name, "avx2");
  } else {
    // Unavailable backends fall back to portable instead of crashing.
    EXPECT_STREQ(KernelsFor(KernelBackend::kAvx2).name, "portable");
  }
}

// Every primitive of the AVX2 backend, at sizes that exercise the wide main
// loops and every remainder lane. On hardware without AVX2, the table falls
// back and the comparison passes trivially.
TEST(KernelBackend, PrimitivesMatchPortableBitwise) {
  const KernelOps& portable = KernelsFor(KernelBackend::kPortable);
  const KernelOps& simd = KernelsFor(KernelBackend::kAvx2);
  Rng rng(71);
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u, 33u, 67u}) {
    std::vector<double> a = RandomArray(rng, n);
    std::vector<double> b = RandomArray(rng, n);

    EXPECT_EQ(portable.sqnorm(a.data(), n), simd.sqnorm(a.data(), n)) << n;

    // dot_rows / sqdist_rows of `a` against 1..9 rows of stride n + 1, which
    // covers the 4-row blocks and every leftover row.
    for (size_t rows = 1; rows <= 9; ++rows) {
      std::vector<double> bmat = RandomArray(rng, rows * (n + 1));
      std::vector<double> o1(rows), o2(rows);
      portable.dot_rows(a.data(), bmat.data(), n + 1, rows, n, o1.data());
      simd.dot_rows(a.data(), bmat.data(), n + 1, rows, n, o2.data());
      EXPECT_EQ(o1, o2) << "dot_rows rows=" << rows << " n=" << n;
      portable.sqdist_rows(a.data(), bmat.data(), n + 1, rows, n, o1.data());
      simd.sqdist_rows(a.data(), bmat.data(), n + 1, rows, n, o2.data());
      EXPECT_EQ(o1, o2) << "sqdist_rows rows=" << rows << " n=" << n;
    }

    // gemm_at_row down column 1 of a 3-wide row-major `a` (a_stride 3), into
    // a b with row stride n + 2, across k_dim with zeros in a to hit the
    // skip. The n sweep covers every j tile (32-, 16- and 4-wide, scalar
    // tail).
    for (size_t k_dim : {1u, 5u, 32u}) {
      std::vector<double> amat = RandomArray(rng, 3 * k_dim);
      for (size_t k = 1; k < k_dim; k += 3) {
        amat[3 * k + 1] = 0.0;
      }
      std::vector<double> bmat = RandomArray(rng, k_dim * (n + 2));
      std::vector<double> acc1 = RandomArray(rng, n);
      std::vector<double> acc2 = acc1;
      portable.gemm_at_row(amat.data() + 1, 3, k_dim, bmat.data(), n + 2, acc1.data(), n);
      simd.gemm_at_row(amat.data() + 1, 3, k_dim, bmat.data(), n + 2, acc2.data(), n);
      EXPECT_EQ(acc1, acc2) << "gemm_at_row k=" << k_dim << " m=" << n;
    }

    std::vector<double> y1 = b, y2 = b;
    portable.axpy_diff(-0.9, a.data(), b.data(), y1.data(), n);
    simd.axpy_diff(-0.9, a.data(), b.data(), y2.data(), n);
    EXPECT_EQ(y1, y2) << "axpy_diff n=" << n;

    y1 = b;
    y2 = b;
    portable.vadd(a.data(), y1.data(), n);
    simd.vadd(a.data(), y2.data(), n);
    EXPECT_EQ(y1, y2) << "vadd n=" << n;

    y1 = a;
    y2 = a;
    portable.scal(0.37, y1.data(), n);
    simd.scal(0.37, y2.data(), n);
    EXPECT_EQ(y1, y2) << "scal n=" << n;

    y1 = a;
    y2 = a;
    portable.relu(y1.data(), n);
    simd.relu(y2.data(), n);
    EXPECT_EQ(y1, y2) << "relu n=" << n;

    // gemm_rows across k remainders (including a zero a[k] to hit the skip),
    // every j tile width (8-wide, 4-wide, scalar tail) and 4-row blocks with
    // leftover rows.
    for (size_t k_dim : {1u, 4u, 6u, 9u}) {
      for (size_t rows : {1u, 4u, 7u}) {
        std::vector<double> amat = RandomArray(rng, rows * k_dim);
        if (k_dim > 4) {
          amat[k_dim - 1] = 0.0;  // Remainder-k zero skip in row 0.
        }
        std::vector<double> bmat = RandomArray(rng, k_dim * n);
        std::vector<double> bias = RandomArray(rng, n);
        std::vector<double> o1(rows * n), o2(rows * n);
        portable.gemm_rows(amat.data(), rows, k_dim, bmat.data(), n, bias.data(), o1.data(),
                           n);
        simd.gemm_rows(amat.data(), rows, k_dim, bmat.data(), n, bias.data(), o2.data(), n);
        EXPECT_EQ(o1, o2) << "gemm_rows k=" << k_dim << " m=" << n << " rows=" << rows;
        portable.gemm_rows(amat.data(), rows, k_dim, bmat.data(), n, nullptr, o1.data(), n);
        simd.gemm_rows(amat.data(), rows, k_dim, bmat.data(), n, nullptr, o2.data(), n);
        EXPECT_EQ(o1, o2) << "gemm_rows nobias k=" << k_dim << " m=" << n << " rows=" << rows;
      }
    }

    AdamScalars scalars;
    scalars.bias1 = 0.19;
    scalars.bias2 = 0.002;
    scalars.weight_decay = 1e-5;
    std::vector<double> v1 = RandomArray(rng, n);
    std::vector<double> g = RandomArray(rng, n);
    std::vector<double> m = RandomArray(rng, n);
    std::vector<double> vv = a;
    for (double& x : vv) {
      x = std::abs(x);  // Second moments are non-negative.
    }
    std::vector<double> v2 = v1, g2 = g, m2 = m, vv2 = vv;
    portable.adam_update(v1.data(), g.data(), m.data(), vv.data(), n, scalars);
    simd.adam_update(v2.data(), g2.data(), m2.data(), vv2.data(), n, scalars);
    EXPECT_EQ(v1, v2) << "adam value n=" << n;
    EXPECT_EQ(m, m2) << "adam m n=" << n;
    EXPECT_EQ(vv, vv2) << "adam v n=" << n;
    for (double x : g2) {
      EXPECT_EQ(x, 0.0);  // Gradients zeroed by the update.
    }
  }

  // Adam at the flush thresholds: gradients at +-kAdamGradFloor and one ulp
  // below, moments at +-kAdamMomentFloor and one ulp below, -0.0 and NaN, in
  // every combination (395 lanes: vector body plus a scalar tail). Run with
  // the usual scalars and with beta1 = beta2 = 1, bias1 = 1, where moments
  // pass through unchanged and the m / bias1 division is skipped.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double g_below = std::nextafter(kAdamGradFloor, 0.0);
  const double m_below = std::nextafter(kAdamMomentFloor, 0.0);
  const std::vector<double> g_values = {kAdamGradFloor, -kAdamGradFloor, g_below, -g_below,
                                        -0.0,           nan,             0.7};
  const std::vector<double> m_values = {kAdamMomentFloor, -kAdamMomentFloor, m_below, -m_below,
                                        -0.0,             nan,               0.3};
  const std::vector<double> v_values = {kAdamMomentFloor, m_below, -0.0, nan, 0.2};
  std::vector<double> g0, m0, v0;
  for (double gv : g_values) {
    for (double mv : m_values) {
      for (double vv : v_values) {
        g0.push_back(gv);
        m0.push_back(mv);
        v0.push_back(vv);
      }
    }
  }
  for (size_t tail = 0; tail < 3; ++tail) {
    g0.push_back(g_values[tail]);
    m0.push_back(m_values[tail + 2]);
    v0.push_back(v_values[tail]);
  }
  const std::vector<double> w0 = RandomArray(rng, g0.size());
  AdamScalars usual;
  usual.bias1 = 0.19;
  usual.bias2 = 0.002;
  usual.weight_decay = 1e-5;
  AdamScalars pass_through = usual;
  pass_through.beta1 = 1.0;
  pass_through.beta2 = 1.0;
  pass_through.bias1 = 1.0;
  for (const AdamScalars& scalars : {usual, pass_through}) {
    std::vector<double> w1 = w0, g1 = g0, m1 = m0, v1 = v0;
    std::vector<double> w2 = w0, g2 = g0, m2 = m0, v2 = v0;
    portable.adam_update(w1.data(), g1.data(), m1.data(), v1.data(), w1.size(), scalars);
    simd.adam_update(w2.data(), g2.data(), m2.data(), v2.data(), w2.size(), scalars);
    EXPECT_TRUE(SameBits(w1, w2)) << "adam threshold value beta1=" << scalars.beta1;
    EXPECT_TRUE(SameBits(m1, m2)) << "adam threshold m beta1=" << scalars.beta1;
    EXPECT_TRUE(SameBits(v1, v2)) << "adam threshold v beta1=" << scalars.beta1;
    for (size_t i = 0; i < m1.size(); ++i) {
      EXPECT_NE(std::fpclassify(m1[i]), FP_SUBNORMAL) << i;
      EXPECT_NE(std::fpclassify(v1[i]), FP_SUBNORMAL) << i;
    }
  }
  // Under pass-through the floors act on the inputs directly: a moment at
  // the floor is kept, one ulp below is stored as +0.0, NaN passes.
  std::vector<double> w = w0, g = g0, m = m0, v = v0;
  portable.adam_update(w.data(), g.data(), m.data(), v.data(), w.size(), pass_through);
  for (size_t i = 0; i < m0.size(); ++i) {
    if (std::isnan(m0[i]) || std::isnan(g0[i])) {
      EXPECT_TRUE(std::isnan(m[i])) << i;
    } else if (std::abs(m0[i]) < kAdamMomentFloor) {
      EXPECT_TRUE(m[i] == 0.0 && !std::signbit(m[i])) << i;
    } else {
      EXPECT_EQ(m[i], m0[i]) << i;
    }
  }
}

// The unflushed Adam update, written out in scalar code: what adam_update
// computed before the subnormal floors.
void UnflushedAdam(std::vector<double>& value, const std::vector<double>& grad,
                   std::vector<double>& m, std::vector<double>& v, const AdamScalars& k) {
  for (size_t i = 0; i < value.size(); ++i) {
    m[i] = k.beta1 * m[i] + (1.0 - k.beta1) * grad[i];
    v[i] = k.beta2 * v[i] + (1.0 - k.beta2) * grad[i] * grad[i];
    double update = (m[i] / k.bias1) / (std::sqrt(v[i] / k.bias2) + k.epsilon);
    if (k.weight_decay > 0.0) {
      update += k.weight_decay * value[i];
    }
    value[i] -= k.learning_rate * update;
  }
}

size_t CountSubnormal(const std::vector<double>& xs) {
  size_t count = 0;
  for (double x : xs) {
    count += std::fpclassify(x) == FP_SUBNORMAL ? 1 : 0;
  }
  return count;
}

// The subnormal cliff. A dead unit's gradient stops, and its first moment
// decays as beta1^t into the subnormal range after ~6.5k steps. Fed through
// adam_update on caller-owned arrays, no moment may ever be subnormal, and the
// weights (|w| >= 1e-6) must equal the unflushed update bit for bit, with and
// without weight decay. The unflushed reference must really reach subnormal
// moments, or the case would pin nothing.
TEST(KernelBackend, AdamFlushKeepsMomentsNormal) {
  struct Case {
    const char* name;
    size_t live_steps;    // Steps fed `scale`-sized random gradients...
    size_t dead_steps;    // ...then steps fed zero gradients.
    double scale;
  };
  const Case cases[] = {
      {"stops-after-50", 50, 8000, 1.0},
      {"tiny-gradients", 3000, 0, 1e-160},
  };
  const size_t n = 39;  // Vector body and scalar tail.
  for (const KernelOps* ops : BothBackends()) {
    for (const Case& c : cases) {
      for (double weight_decay : {0.0, 1e-5}) {
        SCOPED_TRACE(std::string(ops->name) + " " + c.name + " wd=" +
                     std::to_string(weight_decay));
        Rng rng(83);
        // |w| in [0.5, 1.5] outlives ~0.1 of Adam travel; a second group
        // sits just above 1e-6 and only ever gets tiny gradients.
        std::vector<double> w(n);
        for (size_t i = 0; i < n; ++i) {
          double magnitude = c.scale < 1e-100 && i % 2 == 0 ? 1e-6 * (1.0 + rng.Uniform())
                                                           : 0.5 + rng.Uniform();
          w[i] = rng.Bernoulli(0.5) ? magnitude : -magnitude;
        }
        std::vector<double> ref_w = w, ref_m(n, 0.0), ref_v(n, 0.0);
        std::vector<double> m(n, 0.0), v(n, 0.0), grad(n), ref_grad(n);
        // Per-lane gradient scales (1 to 1e-6) stagger when each lane's first
        // moment crosses the floor, over ~130 steps.
        std::vector<double> lane_scale(n);
        for (size_t i = 0; i < n; ++i) {
          lane_scale[i] = c.scale * std::pow(10.0, -static_cast<double>(i % 7));
        }
        size_t ref_subnormal_steps = 0;
        AdamScalars k;
        k.learning_rate = 2e-3;
        k.weight_decay = weight_decay;
        for (size_t t = 1; t <= c.live_steps + c.dead_steps; ++t) {
          for (size_t i = 0; i < n; ++i) {
            grad[i] = t <= c.live_steps ? rng.Normal() * lane_scale[i] : 0.0;
          }
          ref_grad = grad;
          k.bias1 = 1.0 - std::pow(k.beta1, static_cast<double>(t));
          k.bias2 = 1.0 - std::pow(k.beta2, static_cast<double>(t));
          ops->adam_update(w.data(), grad.data(), m.data(), v.data(), n, k);
          UnflushedAdam(ref_w, ref_grad, ref_m, ref_v, k);
          ASSERT_EQ(CountSubnormal(m), 0u) << "step " << t;
          ASSERT_EQ(CountSubnormal(v), 0u) << "step " << t;
          if (c.scale < kAdamGradFloor) {  // Every gradient counts as 0.
            ASSERT_EQ(m, std::vector<double>(n, 0.0)) << "step " << t;
            ASSERT_EQ(v, std::vector<double>(n, 0.0)) << "step " << t;
          }
          ref_subnormal_steps += CountSubnormal(ref_m) + CountSubnormal(ref_v) > 0 ? 1 : 0;
          ASSERT_EQ(w, ref_w) << "step " << t;
        }
        EXPECT_GT(ref_subnormal_steps, 0u);
        for (double x : w) {
          EXPECT_GE(std::abs(x), 1e-6);
        }
      }
    }
  }
}

// MatMulAtAccum (acc += a^T b) must add, per acc element, a[k][i] * b[k][j]
// for k ascending and skip a[k][i] == 0: the k-ordered scalar loop below.
TEST(KernelBackend, MatMulAtAccumMatchesKOrderedLoop) {
  Rng rng(79);
  const size_t k_dim = 32;
  const size_t n = 7;
  for (const KernelOps* ops : BothBackends()) {
    for (size_t m : {1u, 3u, 4u, 5u, 16u, 17u, 64u}) {
      Matrix a = RandomMatrix(rng, k_dim, n);
      for (size_t idx = 0; idx < a.size(); idx += 3) {
        a.data()[idx] = 0.0;
      }
      Matrix b = RandomMatrix(rng, k_dim, m);
      Matrix acc = RandomMatrix(rng, n, m);
      Matrix expected = acc;
      for (size_t k = 0; k < k_dim; ++k) {
        for (size_t i = 0; i < n; ++i) {
          if (a.At(k, i) == 0.0) {
            continue;
          }
          for (size_t j = 0; j < m; ++j) {
            expected.At(i, j) += a.At(k, i) * b.At(k, j);
          }
        }
      }
      Matrix scratch;
      MatMulAtAccum(a, b, acc, scratch, ops);
      EXPECT_EQ(acc.data(), expected.data()) << ops->name << " m=" << m;
    }
  }
}

// Entries of v that are not ±0.
size_t Nonzeros(const Matrix& v) {
  size_t count = 0;
  for (double x : v.data()) {
    count += x != 0.0 ? 1 : 0;
  }
  return count;
}

// MatMulAtAccum's b-sparse form against the same k-ordered loop: a b that
// is over 90% zeros with whole zero columns (a dead unit's gradient), -0.0
// entries in a and b, acc starting at +0 and at random values, widths
// around every gemm_at_row tile, and an m = 200 whose live columns take
// more than one 64-column staging chunk.
// Both forms add the same nonzero products in the same k order, so the
// result is the reference's bit for bit.
TEST(KernelBackend, MatMulAtAccumBSparseMatchesKOrderedLoop) {
  Rng rng(83);
  const size_t k_dim = 32;
  for (const KernelOps* ops : BothBackends()) {
    for (size_t n : {7u, 37u, 298u}) {
      for (size_t m : {1u, 2u, 5u, 15u, 16u, 17u, 64u, 200u}) {
        for (bool zero_acc : {true, false}) {
          SCOPED_TRACE(std::string(ops->name) + " n=" + std::to_string(n) +
                       " m=" + std::to_string(m) + (zero_acc ? " acc=+0" : " acc=random"));
          Matrix a = RandomMatrix(rng, k_dim, n);
          for (double& v : a.data()) {
            if (rng.Bernoulli(0.3)) {
              v = rng.Bernoulli(0.5) ? 0.0 : -0.0;
            }
          }
          // At most 5% live entries (at least one), plus as many -0.0, none
          // in the columns j % 3 == 1 when m > 1.
          Matrix b(k_dim, m, 0.0);
          auto random_entry = [&]() -> double& {
            size_t j = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(m) - 1));
            if (m > 1 && j % 3 == 1) {
              j -= 1;
            }
            return b.At(static_cast<size_t>(rng.UniformInt(0, k_dim - 1)), j);
          };
          for (size_t t = 0; t < std::max<size_t>(1, b.size() / 20); ++t) {
            random_entry() = rng.Normal();
            double& zero = random_entry();
            if (zero == 0.0) {
              zero = -0.0;
            }
          }
          ASSERT_GT(Nonzeros(b), 0u);
          ASSERT_LE(Nonzeros(b) * 10, b.size());
          // The b-sparse form is the cheaper one, so it is the one tested.
          ASSERT_LT(Nonzeros(b) * n, Nonzeros(a) * m);
          Matrix acc = zero_acc ? Matrix(n, m, 0.0) : RandomMatrix(rng, n, m);
          Matrix expected = acc;
          for (size_t k = 0; k < k_dim; ++k) {
            for (size_t i = 0; i < n; ++i) {
              if (a.At(k, i) == 0.0) {
                continue;
              }
              for (size_t j = 0; j < m; ++j) {
                expected.At(i, j) += a.At(k, i) * b.At(k, j);
              }
            }
          }
          Matrix scratch;
          MatMulAtAccum(a, b, acc, scratch, ops);
          ExpectSameBits(acc.data(), expected.data(), "MatMulAtAccum b-sparse");
        }
      }
    }
  }
}

// MatMulBtColsInto: the selected columns are MatMulBtInto's bit for bit,
// every other column is +0, across dot_rows' 4-row blocks and tails and
// past its 64-row chunk.
TEST(KernelBackend, MatMulBtColsIntoMatchesFullProductOnItsColumns) {
  Rng rng(85);
  for (const KernelOps* ops : BothBackends()) {
    for (size_t rows_b : {1u, 5u, 64u, 70u}) {
      for (size_t every : {1u, 3u, 4u}) {
        Matrix a = RandomMatrix(rng, 9, 33);
        Matrix b = RandomMatrix(rng, rows_b, 33);
        std::vector<size_t> cols;
        for (size_t c = every - 1; c < rows_b; c += every) {
          cols.push_back(c);
        }
        Matrix full;
        MatMulBtInto(a, b, full, ops);
        Matrix want(a.rows(), rows_b, 0.0);
        for (size_t i = 0; i < a.rows(); ++i) {
          for (size_t c : cols) {
            want.At(i, c) = full.At(i, c);
          }
        }
        Matrix scratch;
        Matrix got(a.rows(), rows_b, 7.0);  // Stale values must be overwritten.
        MatMulBtColsInto(a, b, cols, scratch, got, ops);
        ExpectSameBits(got.data(), want.data(),
                       std::string(ops->name) + " MatMulBtColsInto rows_b=" +
                           std::to_string(rows_b) + " every=" + std::to_string(every));
      }
    }
  }
}

// axpy_diff_rows against a loop of axpy_diff calls (which the scalar
// reference below writes out) on both backends: count 0 leaves acc
// untouched, n around the 16- and 4-wide tiles with scalar tails, and the
// RBF shapes (a batch of 32 rows at 298 wide, 12 centroids at 64 and 32).
TEST(KernelBackend, AxpyDiffRowsMatchesLoopOfAxpyDiff) {
  Rng rng(87);
  struct Shape {
    size_t count, n;
  };
  std::vector<Shape> shapes;
  for (size_t count : {0u, 1u, 2u, 5u}) {
    for (size_t n : {0u, 1u, 3u, 4u, 6u, 15u, 16u, 17u, 21u, 33u}) {
      shapes.push_back({count, n});
    }
  }
  shapes.push_back({32, 298});
  shapes.push_back({12, 64});
  shapes.push_back({12, 32});
  for (const Shape& shape : shapes) {
    std::vector<std::vector<double>> x(shape.count);
    std::vector<const double*> x_rows(shape.count);
    std::vector<double> s = RandomArray(rng, shape.count);
    for (size_t r = 0; r < shape.count; ++r) {
      x[r] = RandomArray(rng, shape.n);
      x_rows[r] = x[r].data();
    }
    const std::vector<double> y = RandomArray(rng, shape.n);
    const std::vector<double> acc0 = RandomArray(rng, shape.n);
    std::vector<double> want = acc0;
    for (size_t r = 0; r < shape.count; ++r) {
      for (size_t j = 0; j < shape.n; ++j) {
        want[j] += s[r] * (x[r][j] - y[j]);
      }
    }
    for (const KernelOps* ops : BothBackends()) {
      const std::string what = std::string(ops->name) + " count=" +
                               std::to_string(shape.count) + " n=" + std::to_string(shape.n);
      std::vector<double> got = acc0;
      ops->axpy_diff_rows(s.data(), x_rows.data(), shape.count, y.data(), got.data(),
                          shape.n);
      ExpectSameBits(got, want, "axpy_diff_rows " + what);
      std::vector<double> looped = acc0;
      for (size_t r = 0; r < shape.count; ++r) {
        ops->axpy_diff(s[r], x_rows[r], y.data(), looped.data(), shape.n);
      }
      ExpectSameBits(got, looped, "axpy_diff loop " + what);
    }
  }
}

// gemm_rows against RefGemmElement on both backends. Rows 1-9 cover the
// 4-row blocks and every leftover row, m the 8-wide and 4-wide tiles and
// the scalar tail, k_dim % 4 != 0 the remainder with a zero a[k] (its b row
// holds an infinity, so a missing skip turns the element into NaN). Then
// the real shapes: dense-1 forward at the minibatch (32) and the pool (128),
// and dense-2.
TEST(KernelBackend, GemmRowsMatchesScalarTree) {
  struct Shape {
    size_t rows, k_dim, m;
  };
  std::vector<Shape> shapes;
  for (size_t rows = 1; rows <= 9; ++rows) {
    for (size_t m : {1u, 2u, 6u, 23u, 65u}) {
      for (size_t k_dim : {1u, 3u, 6u, 13u}) {
        shapes.push_back({rows, k_dim, m});
      }
    }
  }
  shapes.push_back({32, 298, 64});
  shapes.push_back({128, 298, 64});
  shapes.push_back({32, 64, 32});
  Rng rng(97);
  for (const Shape& shape : shapes) {
    const size_t b_stride = shape.m + 3;
    Matrix a = RandomMatrix(rng, shape.rows, shape.k_dim);
    Matrix b = RandomMatrix(rng, shape.k_dim, b_stride);
    std::vector<double> bias = RandomArray(rng, shape.m);
    if (shape.k_dim % 4 != 0) {
      const size_t last = shape.k_dim - 1;
      b.At(last, 0) = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < shape.rows; i += 2) {
        a.At(i, last) = 0.0;
      }
    }
    for (const double* bias_ptr : {static_cast<const double*>(bias.data()),
                                   static_cast<const double*>(nullptr)}) {
      std::vector<double> want(shape.rows * shape.m);
      for (size_t i = 0; i < shape.rows; ++i) {
        for (size_t j = 0; j < shape.m; ++j) {
          want[i * shape.m + j] =
              RefGemmElement(a.Row(i), shape.k_dim, b.Row(0), b_stride, bias_ptr, j);
        }
      }
      for (const KernelOps* ops : BothBackends()) {
        std::vector<double> got(shape.rows * shape.m);
        ops->gemm_rows(a.Row(0), shape.rows, shape.k_dim, b.Row(0), b_stride, bias_ptr,
                       got.data(), shape.m);
        ExpectSameBits(got, want,
                       std::string(ops->name) + " gemm_rows " + std::to_string(shape.rows) +
                           "x" + std::to_string(shape.k_dim) + "x" +
                           std::to_string(shape.m) + (bias_ptr ? " bias" : ""));
      }
    }
  }
}

// dot_rows and sqdist_rows against the 4-lane references on both backends:
// rows 1-9 x every n tail, then the real shapes: the RBF-0 cross term (a
// 298-wide input row against 12 centroids), the dense-2 input gradient (a
// 32-wide row against 64 weight rows), and a Chamfer table row (a centroid
// against a 32-row batch, at 298, 64 and 32 wide).
TEST(KernelBackend, DotAndSqDistRowsMatchLaneTree) {
  struct Shape {
    size_t rows, n;
  };
  std::vector<Shape> shapes;
  for (size_t rows = 1; rows <= 9; ++rows) {
    for (size_t n : {1u, 2u, 6u, 23u, 65u}) {
      shapes.push_back({rows, n});
    }
  }
  for (Shape real : {Shape{12, 298}, Shape{64, 32}, Shape{32, 298}, Shape{32, 64},
                     Shape{32, 32}}) {
    shapes.push_back(real);
  }
  Rng rng(101);
  for (const Shape& shape : shapes) {
    const size_t b_stride = shape.n + 1;
    std::vector<double> a = RandomArray(rng, shape.n);
    std::vector<double> b = RandomArray(rng, shape.rows * b_stride);
    std::vector<double> want_dot(shape.rows), want_sq(shape.rows);
    for (size_t r = 0; r < shape.rows; ++r) {
      want_dot[r] = RefDot(a.data(), b.data() + r * b_stride, shape.n);
      want_sq[r] = RefSqDist(a.data(), b.data() + r * b_stride, shape.n);
    }
    for (const KernelOps* ops : BothBackends()) {
      const std::string what = std::string(ops->name) + " rows=" +
                               std::to_string(shape.rows) + " n=" + std::to_string(shape.n);
      std::vector<double> got(shape.rows);
      ops->dot_rows(a.data(), b.data(), b_stride, shape.rows, shape.n, got.data());
      ExpectSameBits(got, want_dot, "dot_rows " + what);
      ops->sqdist_rows(a.data(), b.data(), b_stride, shape.rows, shape.n, got.data());
      ExpectSameBits(got, want_sq, "sqdist_rows " + what);
    }
  }
}

// gemm_at_row against the k-ordered scalar element on both backends: m
// around the 32-, 16- and 4-wide tiles, with zeros in `a` (some over an
// infinity in `b`, so a missing skip shows as NaN), then dense-1 backward's
// real shape (a 298-wide input's column against a 32 x 64 dY).
TEST(KernelBackend, GemmAtRowMatchesKOrderedElement) {
  struct Shape {
    size_t k_dim, m, a_stride;
  };
  std::vector<Shape> shapes;
  for (size_t m : {1u, 2u, 6u, 23u, 31u, 32u, 33u, 47u, 48u, 65u}) {
    for (size_t k_dim : {1u, 5u, 32u}) {
      shapes.push_back({k_dim, m, 3});
    }
  }
  shapes.push_back({32, 64, 298});
  Rng rng(103);
  for (const Shape& shape : shapes) {
    const size_t b_stride = shape.m + 2;
    std::vector<double> a = RandomArray(rng, shape.k_dim * shape.a_stride);
    std::vector<double> b = RandomArray(rng, shape.k_dim * b_stride);
    for (size_t k = 0; k < shape.k_dim; k += 3) {
      a[k * shape.a_stride] = 0.0;
      b[k * b_stride + shape.m - 1] = std::numeric_limits<double>::infinity();
    }
    std::vector<double> acc0 = RandomArray(rng, shape.m);
    std::vector<double> want(shape.m);
    for (size_t j = 0; j < shape.m; ++j) {
      want[j] =
          RefGemmAtElement(a.data(), shape.a_stride, shape.k_dim, b.data(), b_stride, acc0[j], j);
    }
    for (const KernelOps* ops : BothBackends()) {
      std::vector<double> got = acc0;
      ops->gemm_at_row(a.data(), shape.a_stride, shape.k_dim, b.data(), b_stride, got.data(),
                       shape.m);
      ExpectSameBits(got, want,
                     std::string(ops->name) + " gemm_at_row k=" + std::to_string(shape.k_dim) +
                         " m=" + std::to_string(shape.m));
    }
  }
}

// nearest_sqdist against SqDist plus a std::min chain on both backends, for
// ring sizes around the 16- and 4-point blocks (0, 1, 15, 16, 17, ...), a
// full 128-entry ring at the Linux space's width, and a column stride wider
// than the points scanned. Exact ties (a repeated point) and a point equal
// to the query (distance 0) are included.
TEST(KernelBackend, NearestSqDistMatchesSqDistMinChain) {
  Rng rng(107);
  for (size_t dim : {1u, 6u, 298u}) {
    for (size_t rows : {0u, 1u, 3u, 4u, 15u, 16u, 17u, 31u, 32u, 33u, 127u, 128u}) {
      for (size_t col_stride : {std::max<size_t>(rows, 1), size_t{128} + 5}) {
        std::vector<double> cols = RandomArray(rng, dim * col_stride);
        std::vector<double> x = RandomArray(rng, dim);
        if (rows >= 4) {
          for (size_t k = 0; k < dim; ++k) {
            cols[k * col_stride + 2] = cols[k * col_stride + 1];  // A tie.
          }
        }
        if (rows >= 17 && dim == 6) {
          for (size_t k = 0; k < dim; ++k) {
            cols[k * col_stride + 16] = x[k];  // The query itself.
          }
        }
        double want = RefNearestSqDist(x.data(), dim, cols.data(), col_stride, rows);
        for (const KernelOps* ops : BothBackends()) {
          double got = ops->nearest_sqdist(x.data(), dim, cols.data(), col_stride, rows);
          EXPECT_EQ(Bits(got), Bits(want)) << ops->name << " dim=" << dim << " rows=" << rows
                                           << " stride=" << col_stride << ": " << got
                                           << " vs " << want;
        }
      }
    }
  }
}

// The textbook two-pass Chamfer loop: each term computes its own distances
// (centroid-to-point, then point-to-centroid) with the scalar sqdist_rows
// reference.
double TwoPassChamfer(const Matrix& c, const Matrix& z, double weight, Matrix& grad) {
  const size_t k = c.rows();
  const size_t n = z.rows();
  const size_t d = c.cols();
  double loss = 0.0;
  for (size_t ci = 0; ci < k; ++ci) {
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::max();
    for (size_t ni = 0; ni < n; ++ni) {
      double dist = RefSqDist(c.Row(ci), z.Row(ni), d);
      if (dist < best_dist) {
        best_dist = dist;
        best = ni;
      }
    }
    loss += best_dist / static_cast<double>(k);
    double scale = weight * 2.0 / static_cast<double>(k);
    for (size_t j = 0; j < d; ++j) {
      grad.At(ci, j) += scale * (c.At(ci, j) - z.At(best, j));
    }
  }
  for (size_t ni = 0; ni < n; ++ni) {
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::max();
    for (size_t ci = 0; ci < k; ++ci) {
      double dist = RefSqDist(z.Row(ni), c.Row(ci), d);
      if (dist < best_dist) {
        best_dist = dist;
        best = ci;
      }
    }
    loss += best_dist / static_cast<double>(n);
    double scale = weight * 2.0 / static_cast<double>(n);
    for (size_t j = 0; j < d; ++j) {
      grad.At(best, j) += scale * (c.At(best, j) - z.At(ni, j));
    }
  }
  return loss;
}

// AccumulateChamferGradient reads one shared distance table; its loss and
// every centroid-gradient entry must equal the two-pass loop bit for bit.
// The tied batch makes both argmins see exact ties whose winner changes the
// gradient, so the lowest index must win, as in the two-pass loop:
// centroid 0 sits at the origin between batch points +u and -u, and two
// equal centroids both sit on two batch points.
TEST(KernelBackend, ChamferTableMatchesTwoPassLoop) {
  const size_t d = 13;
  const size_t centroids = 6;
  for (const KernelOps* ops : BothBackends()) {
    for (bool tied : {false, true}) {
      Rng rng(89);
      RbfLayer layer(d, centroids, 0.7, rng);
      Matrix z = RandomMatrix(rng, 9, d);
      if (tied) {
        Matrix& c = layer.centroids().value;
        for (size_t j = 0; j < d; ++j) {
          c.At(0, j) = 0.0;
          z.At(7, j) = 0.01 * z.At(0, j);
          z.At(8, j) = -z.At(7, j);
          c.At(4, j) = c.At(1, j);
          z.At(2, j) = c.At(1, j);
          z.At(6, j) = c.At(1, j);
        }
      }
      Matrix phi;
      layer.ForwardInto(z, phi, ops);
      Matrix expected_grad(centroids, d, 0.25);
      layer.centroids().grad = expected_grad;
      double expected_loss =
          TwoPassChamfer(layer.centroid_values(), z, 0.05, expected_grad);
      double loss = layer.AccumulateChamferGradient(0.05, ops);
      EXPECT_EQ(loss, expected_loss) << ops->name << " tied=" << tied;
      EXPECT_EQ(layer.centroids().grad.data(), expected_grad.data())
          << ops->name << " tied=" << tied;
    }
  }
}

// The matrix kernels routed through either backend agree within 1e-12 (the
// design tolerance) — and in fact exactly.
TEST(KernelBackend, MatrixKernelsMatchAcrossBackends) {
  Rng rng(73);
  const KernelOps* portable = &KernelsFor(KernelBackend::kPortable);
  const KernelOps* simd = &KernelsFor(KernelBackend::kAvx2);
  // Odd sizes exercise the unroll remainders.
  for (size_t n : {1u, 5u, 17u}) {
    for (size_t k : {3u, 8u, 37u}) {
      for (size_t m : {1u, 6u, 23u}) {
        Matrix a = RandomMatrix(rng, n, k);
        Matrix b = RandomMatrix(rng, k, m);
        Matrix bias = RandomMatrix(rng, 1, m);
        Matrix out_p, out_s;
        MatMulAddBiasInto(a, b, bias, out_p, portable);
        MatMulAddBiasInto(a, b, bias, out_s, simd);
        ASSERT_EQ(out_p.size(), out_s.size());
        for (size_t i = 0; i < out_p.size(); ++i) {
          EXPECT_NEAR(out_p.data()[i], out_s.data()[i], 1e-12);
          EXPECT_EQ(out_p.data()[i], out_s.data()[i]) << n << "x" << k << "x" << m;
        }

        Matrix bt = RandomMatrix(rng, m, k);
        Matrix bt_p, bt_s;
        MatMulBtInto(a, bt, bt_p, portable);
        MatMulBtInto(a, bt, bt_s, simd);
        for (size_t i = 0; i < bt_p.size(); ++i) {
          EXPECT_EQ(bt_p.data()[i], bt_s.data()[i]);
        }

        Matrix c = RandomMatrix(rng, n, m);
        Matrix acc_p(k, m, 0.25), acc_s(k, m, 0.25);
        Matrix scratch;
        MatMulAtAccum(a, c, acc_p, scratch, portable);
        MatMulAtAccum(a, c, acc_s, scratch, simd);
        for (size_t i = 0; i < acc_p.size(); ++i) {
          EXPECT_EQ(acc_p.data()[i], acc_s.data()[i]);
        }
      }
    }
  }
}

void TrainAndCompareModels(DeepTuneModel& a, DeepTuneModel& b) {
  Rng rng(5);
  size_t dim = a.input_dim();
  for (size_t i = 0; i < 48; ++i) {
    std::vector<double> x(dim);
    for (double& v : x) {
      v = rng.Uniform();
    }
    bool crashed = rng.Bernoulli(0.25);
    double objective = rng.Normal(0.0, 1.0);
    a.AddSample(x, crashed, {objective});
    b.AddSample(x, crashed, {objective});
  }
  a.Update();
  b.Update();
  Rng pool_rng(9);
  Matrix pool(64, dim);
  for (double& v : pool.data()) {
    v = pool_rng.Uniform();
  }
  ASSERT_EQ(a.PredictRows(pool), pool.rows());
  ASSERT_EQ(b.PredictRows(pool), pool.rows());
  for (size_t i = 0; i < pool.rows(); ++i) {
    DtmPrediction pred_a = a.Prediction(i);
    DtmPrediction pred_b = b.Prediction(i);
    EXPECT_EQ(pred_a.crash_prob, pred_b.crash_prob) << i;
    EXPECT_EQ(pred_a.objective, pred_b.objective) << i;
    EXPECT_EQ(pred_a.sigma, pred_b.sigma) << i;
  }
}

// Training (gather + forward/backward + losses + Chamfer + Adam) computes
// identical weights on either backend.
TEST(KernelBackend, DtmTrainingUnchangedByBackend) {
  DtmOptions portable_options;
  portable_options.kernels = KernelBackend::kPortable;
  DtmOptions simd_options;
  simd_options.kernels = KernelBackend::kAvx2;
  DeepTuneModel portable(31, portable_options);
  DeepTuneModel simd(31, simd_options);
  TrainAndCompareModels(portable, simd);
}

// The end-to-end invariant (acceptance criterion): a fixed-seed 60-iteration
// DeepTune session proposes the exact same configuration sequence and finds
// the same best, whichever kernel backend the model runs on.
TEST(KernelBackend, SixtyIterationTrajectoryUnchangedByBackend) {
  ConfigSpace space = BuildLinuxSearchSpace();
  SessionOptions options;
  options.max_iterations = 60;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 0x60d;

  DeepTuneOptions portable_options;
  portable_options.model.kernels = KernelBackend::kPortable;
  Testbench bench_portable(&space, AppId::kRedis);
  DeepTuneSearcher portable(&space, portable_options);
  SessionResult portable_result = RunSearch(&bench_portable, &portable, options);

  DeepTuneOptions simd_options;
  simd_options.model.kernels = KernelBackend::kAvx2;
  Testbench bench_simd(&space, AppId::kRedis);
  DeepTuneSearcher simd(&space, simd_options);
  SessionResult simd_result = RunSearch(&bench_simd, &simd, options);

  ASSERT_EQ(portable_result.history.size(), simd_result.history.size());
  for (size_t i = 0; i < portable_result.history.size(); ++i) {
    EXPECT_EQ(portable_result.history[i].config.Hash(), simd_result.history[i].config.Hash())
        << "trajectories diverged at iteration " << i;
    if (portable_result.history[i].HasObjective()) {
      EXPECT_EQ(portable_result.history[i].objective, simd_result.history[i].objective) << i;
    }
  }
  EXPECT_EQ(portable_result.best_index, simd_result.best_index);
}

}  // namespace
}  // namespace wayfinder
