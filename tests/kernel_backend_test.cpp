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
#include <vector>

#include "src/configspace/linux_space.h"
#include "src/core/deeptune.h"
#include "src/core/dtm.h"
#include "src/nn/kernels.h"
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

    std::vector<double> y1 = b, y2 = b;
    portable.axpy(1.7, a.data(), y1.data(), n);
    simd.axpy(1.7, a.data(), y2.data(), n);
    EXPECT_EQ(y1, y2) << "axpy n=" << n;

    y1 = b;
    y2 = b;
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
