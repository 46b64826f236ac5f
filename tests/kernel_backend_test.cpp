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

#include <cmath>
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

    EXPECT_EQ(portable.dot(a.data(), b.data(), n), simd.dot(a.data(), b.data(), n)) << n;
    EXPECT_EQ(portable.sqdist(a.data(), b.data(), n), simd.sqdist(a.data(), b.data(), n))
        << n;
    EXPECT_EQ(portable.sqnorm(a.data(), n), simd.sqnorm(a.data(), n)) << n;

    // gemm_at_row down column 1 of a 3-wide row-major `a` (a_stride 3), into
    // a b with row stride n + 2, across k_dim with zeros in a to hit the
    // skip. The n sweep covers every j tile (16-wide, 4-wide, scalar tail).
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

    // gemm_row across k remainders (including a zero a[k] to hit the skip)
    // and every j tile width (16-wide, 4-wide, scalar tail).
    for (size_t k_dim : {1u, 4u, 6u, 9u}) {
      std::vector<double> arow = RandomArray(rng, k_dim);
      if (k_dim > 4) {
        arow[k_dim - 1] = 0.0;  // Remainder-k zero skip.
      }
      std::vector<double> bmat = RandomArray(rng, k_dim * n);
      std::vector<double> bias = RandomArray(rng, n);
      std::vector<double> o1(n), o2(n);
      portable.gemm_row(arow.data(), k_dim, bmat.data(), n, bias.data(), o1.data(), n);
      simd.gemm_row(arow.data(), k_dim, bmat.data(), n, bias.data(), o2.data(), n);
      EXPECT_EQ(o1, o2) << "gemm_row k=" << k_dim << " m=" << n;
      portable.gemm_row(arow.data(), k_dim, bmat.data(), n, nullptr, o1.data(), n);
      simd.gemm_row(arow.data(), k_dim, bmat.data(), n, nullptr, o2.data(), n);
      EXPECT_EQ(o1, o2) << "gemm_row nobias k=" << k_dim << " m=" << n;
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
      MatMulAtAccum(a, b, acc, ops);
      EXPECT_EQ(acc.data(), expected.data()) << ops->name << " m=" << m;
    }
  }
}

// The textbook two-pass Chamfer loop: each term computes its own distances
// (centroid-to-point, then point-to-centroid) on the backend's sqdist.
double TwoPassChamfer(const Matrix& c, const Matrix& z, double weight, Matrix& grad,
                      const KernelOps& ops) {
  const size_t k = c.rows();
  const size_t n = z.rows();
  const size_t d = c.cols();
  double loss = 0.0;
  for (size_t ci = 0; ci < k; ++ci) {
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::max();
    for (size_t ni = 0; ni < n; ++ni) {
      double dist = ops.sqdist(c.Row(ci), z.Row(ni), d);
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
      double dist = ops.sqdist(z.Row(ni), c.Row(ci), d);
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
          TwoPassChamfer(layer.centroid_values(), z, 0.05, expected_grad, *ops);
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
        MatMulAtAccum(a, c, acc_p, portable);
        MatMulAtAccum(a, c, acc_s, simd);
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
    a.AddSample(x, crashed, objective);
    b.AddSample(x, crashed, objective);
  }
  a.Update();
  b.Update();
  Rng pool_rng(9);
  Matrix pool(64, dim);
  for (double& v : pool.data()) {
    v = pool_rng.Uniform();
  }
  auto pred_a = a.PredictBatch(pool);
  auto pred_b = b.PredictBatch(pool);
  ASSERT_EQ(pred_a.size(), pred_b.size());
  for (size_t i = 0; i < pred_a.size(); ++i) {
    EXPECT_EQ(pred_a[i].crash_prob, pred_b[i].crash_prob) << i;
    EXPECT_EQ(pred_a[i].objective, pred_b[i].objective) << i;
    EXPECT_EQ(pred_a[i].sigma, pred_b[i].sigma) << i;
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
