// Tests for the NN building blocks: matrix kernels, layers (including
// gradient checks against finite differences), losses, Adam, serialization,
// and the DTM trunk's zero-allocation hot path (counted via a global
// operator new hook).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>

#include "src/core/dtm.h"
#include "src/nn/kernels.h"
#include "src/nn/layers.h"
#include "src/nn/losses.h"
#include "src/nn/matrix.h"
#include "src/nn/optimizer.h"
#include "src/nn/serialize.h"

// Global operator new replacement so the zero-alloc test can count heap
// activity on the trunk's hot path. Counting is relaxed-atomic; the hook is
// live for the whole binary, which is fine — every other test ignores it.
namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wayfinder {
namespace {

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int v = 1;
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = v++;
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = v++;
  }
  Matrix c;
  MatMulInto(a, b, c);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  EXPECT_DOUBLE_EQ(c.At(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 154.0);
}

TEST(MatrixTest, TransposedProductsAgree) {
  Rng rng(3);
  Matrix a(4, 5);
  Matrix b(6, 5);
  for (double& v : a.data()) {
    v = rng.Normal();
  }
  for (double& v : b.data()) {
    v = rng.Normal();
  }
  // a * b^T via MatMulBtInto must equal explicit transpose multiplication.
  Matrix bt(5, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      bt.At(j, i) = b.At(i, j);
    }
  }
  Matrix direct;
  MatMulInto(a, bt, direct);
  Matrix fused;
  MatMulBtInto(a, b, fused);
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.data()[i], fused.data()[i], 1e-12);
  }
}

TEST(MatrixTest, ConcatAndSliceRoundTrip) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 3, 2.0);
  Matrix c = ConcatCols(a, b);
  ASSERT_EQ(c.cols(), 5u);
  Matrix back;
  SliceColsInto(c, 2, 5, back);
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.data()[i], 2.0);
  }
}

TEST(MatrixTest, ColSumAndAddRow) {
  Matrix m(3, 2);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<double>(i);
  }
  Matrix sums(1, 2, 0.0);
  ColSumAccum(m, sums);
  EXPECT_DOUBLE_EQ(sums.At(0, 0), 0.0 + 2.0 + 4.0);
  EXPECT_DOUBLE_EQ(sums.At(0, 1), 1.0 + 3.0 + 5.0);
  Matrix bias(1, 2);
  bias.At(0, 0) = 10.0;
  bias.At(0, 1) = 20.0;
  AddRowInPlace(m, bias);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 25.0);
}

// Finite-difference gradient check for a Dense+ReLU stack against a scalar
// loss L = sum(relu(xW+b)).
TEST(GradCheck, DenseRelu) {
  Rng rng(11);
  DenseLayer dense(4, 3, rng);
  ReluLayer relu;
  Matrix x(2, 4);
  for (double& v : x.data()) {
    v = rng.Normal();
  }
  // The layers cache their activations by pointer, so the forward output
  // outlives the lambda.
  Matrix y;
  auto loss_fn = [&]() {
    dense.ForwardInto(x, y);
    relu.ForwardInPlace(y);
    double loss = 0.0;
    for (double v : y.data()) {
      loss += v;
    }
    return loss;
  };
  // Analytic gradient.
  double base = loss_fn();
  (void)base;
  Matrix dy(2, 3, 1.0);
  dense.weight().ZeroGrad();
  dense.bias().ZeroGrad();
  relu.BackwardInPlace(dy);
  Matrix dx;
  dense.BackwardInto(dy, &dx);

  const double eps = 1e-6;
  for (size_t i = 0; i < dense.weight().value.size(); ++i) {
    double saved = dense.weight().value.data()[i];
    dense.weight().value.data()[i] = saved + eps;
    double up = loss_fn();
    dense.weight().value.data()[i] = saved - eps;
    double down = loss_fn();
    dense.weight().value.data()[i] = saved;
    double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(dense.weight().grad.data()[i], numeric, 1e-4) << "weight " << i;
  }
}

// Gradient check for the RBF layer (both input and centroid gradients).
TEST(GradCheck, RbfLayer) {
  Rng rng(13);
  RbfLayer rbf(3, 4, /*gamma=*/0.9, rng);
  Matrix z(2, 3);
  for (double& v : z.data()) {
    v = rng.Normal(0.0, 0.5);
  }
  // The layer caches `input` and `phi` by pointer, so `phi` outlives the
  // lambda and the backward pass below reads the forward over `z`.
  Matrix phi;
  auto loss_fn = [&](const Matrix& input) {
    rbf.ForwardInto(input, phi);
    double loss = 0.0;
    for (double v : phi.data()) {
      loss += v * v;
    }
    return 0.5 * loss;
  };
  loss_fn(z);
  Matrix dphi = phi;  // dL/dphi = phi for L = 0.5 sum phi^2.
  rbf.centroids().ZeroGrad();
  Matrix dz;
  rbf.BackwardInto(dphi, &dz);

  const double eps = 1e-6;
  for (size_t i = 0; i < z.size(); ++i) {
    Matrix zp = z;
    zp.data()[i] += eps;
    Matrix zm = z;
    zm.data()[i] -= eps;
    double numeric = (loss_fn(zp) - loss_fn(zm)) / (2.0 * eps);
    EXPECT_NEAR(dz.data()[i], numeric, 1e-5) << "input " << i;
  }
  for (size_t i = 0; i < rbf.centroids().value.size(); ++i) {
    double saved = rbf.centroids().value.data()[i];
    rbf.centroids().value.data()[i] = saved + eps;
    double up = loss_fn(z);
    rbf.centroids().value.data()[i] = saved - eps;
    double down = loss_fn(z);
    rbf.centroids().value.data()[i] = saved;
    double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(rbf.centroids().grad.data()[i], numeric, 1e-5) << "centroid " << i;
  }
}

// The RBF backward pass as a per-(n, c) loop: each pair with a nonzero
// scale adds into the row's dz, then into the centroid's gradient. Every
// element of both therefore adds in the order BackwardInto must keep.
void RbfBackwardReference(const RbfLayer& layer, const Matrix& z, const Matrix& phi,
                          const Matrix& dphi, Matrix& centroid_grad, Matrix* dz) {
  const Matrix& c = layer.centroid_values();
  const double inv = 1.0 / (layer.gamma() * layer.gamma());
  for (size_t n = 0; n < z.rows(); ++n) {
    for (size_t ci = 0; ci < c.rows(); ++ci) {
      double scale = dphi.At(n, ci) * phi.At(n, ci) * inv;
      if (scale == 0.0) {
        continue;
      }
      for (size_t j = 0; j < c.cols(); ++j) {
        if (dz != nullptr) {
          dz->At(n, j) += scale * (c.At(ci, j) - z.At(n, j));
        }
        centroid_grad.At(ci, j) += scale * (z.At(n, j) - c.At(ci, j));
      }
    }
  }
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

// RbfLayer::BackwardInto equals the per-(n, c) loop bit for bit on both
// backends: without dz (RBF-0), writing dz, and adding into a prefilled dz
// (RBF-1 and -2), with zero scales from zero upstream gradients and from a
// far-away row whose activations underflow to 0, at widths around the
// kernel tiles and with a batch longer than the 64-row flush.
TEST(RbfLayerTest, BackwardMatchesPerPairLoop) {
  const KernelOps* backends[] = {&KernelsFor(KernelBackend::kPortable),
                                 &KernelsFor(KernelBackend::kAvx2)};
  for (const KernelOps* ops : backends) {
    for (size_t d : {3u, 17u, 298u}) {
      for (size_t rows : {1u, 32u, 100u}) {
        for (int mode = 0; mode < 3; ++mode) {  // No dz, write dz, add into dz.
          SCOPED_TRACE(std::string(ops->name) + " d=" + std::to_string(d) +
                       " rows=" + std::to_string(rows) + " mode=" + std::to_string(mode));
          Rng rng(41 + d + rows);
          RbfLayer rbf(d, 12, 0.7 * std::sqrt(static_cast<double>(d)), rng);
          Matrix z(rows, d);
          for (double& v : z.data()) {
            v = rng.Normal(0.0, 0.5);
          }
          for (size_t j = 0; j < d; ++j) {
            z.At(rows - 1, j) = 1e3;  // Far from every centroid: phi underflows.
          }
          Matrix phi;
          rbf.ForwardInto(z, phi, ops);
          Matrix dphi(rows, 12);
          for (double& v : dphi.data()) {
            v = rng.Bernoulli(0.3) ? 0.0 : rng.Normal();
          }
          Matrix start_grad(12, d);
          for (double& v : start_grad.data()) {
            v = rng.Normal();
          }
          Matrix want_grad = start_grad;
          Matrix want_dz(rows, d, 0.0);
          if (mode == 2) {
            for (double& v : want_dz.data()) {
              v = rng.Normal();
            }
          }
          Matrix got_dz = want_dz;
          RbfBackwardReference(rbf, z, phi, dphi, want_grad, mode == 0 ? nullptr : &want_dz);
          rbf.centroids().grad = start_grad;
          rbf.BackwardInto(dphi, mode == 0 ? nullptr : &got_dz, /*accumulate=*/mode == 2, ops);
          EXPECT_TRUE(SameBits(rbf.centroids().grad, want_grad));
          if (mode != 0) {
            EXPECT_TRUE(SameBits(got_dz, want_dz));
          }
        }
      }
    }
  }
}

TEST(RbfLayerTest, OutlierActivationsVanish) {
  Rng rng(17);
  RbfLayer rbf(4, 3, 0.5, rng);
  Matrix near(1, 4, 0.0);
  Matrix far(1, 4, 50.0);
  double near_max = 0.0;
  double far_max = 0.0;
  Matrix near_phi;
  rbf.ForwardInto(near, near_phi);
  for (double v : near_phi.data()) {
    near_max = std::max(near_max, v);
  }
  Matrix far_phi;
  rbf.ForwardInto(far, far_phi);
  for (double v : far_phi.data()) {
    far_max = std::max(far_max, v);
  }
  EXPECT_GT(near_max, 1e-3);
  EXPECT_LT(far_max, 1e-10);
}

TEST(ChamferTest, PullsCentroidsTowardData) {
  Rng rng(19);
  RbfLayer rbf(2, 2, 1.0, rng);
  // Batch clustered at (5, 5); centroids start near the origin.
  Matrix z(8, 2, 5.0);
  Matrix phi;
  for (int step = 0; step < 200; ++step) {
    rbf.centroids().ZeroGrad();
    rbf.ForwardInto(z, phi);
    double loss = rbf.AccumulateChamferGradient(1.0);
    (void)loss;
    for (size_t i = 0; i < rbf.centroids().value.size(); ++i) {
      rbf.centroids().value.data()[i] -= 0.05 * rbf.centroids().grad.data()[i];
    }
  }
  for (double v : rbf.centroids().value.data()) {
    EXPECT_NEAR(v, 5.0, 0.2);
  }
}

TEST(DropoutTest, IdentityWhenEvaluating) {
  DropoutLayer dropout(0.5);
  Rng rng(23);
  Matrix x(4, 4, 1.0);
  dropout.ForwardInPlace(x, rng, /*training=*/false);
  for (double v : x.data()) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

TEST(DropoutTest, InvertedScalingPreservesExpectation) {
  DropoutLayer dropout(0.25);
  Rng rng(29);
  Matrix x(64, 64, 1.0);
  double sum = 0.0;
  dropout.ForwardInPlace(x, rng, /*training=*/true);
  for (double v : x.data()) {
    sum += v;
  }
  EXPECT_NEAR(sum / static_cast<double>(x.size()), 1.0, 0.05);
}

TEST(LossTest, SoftmaxCrossEntropyKnown) {
  Matrix logits(1, 2);
  logits.At(0, 0) = 0.0;
  logits.At(0, 1) = 0.0;
  Matrix dlogits;
  Matrix probs;
  double loss = SoftmaxCrossEntropy(logits, {1}, &dlogits, probs);
  EXPECT_NEAR(loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(probs.At(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(probs.At(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(dlogits.At(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(dlogits.At(0, 1), -0.5, 1e-12);
}

TEST(LossTest, HeteroscedasticGradientSigns) {
  Matrix yhat(2, 1);
  Matrix s(2, 1, 0.0);
  yhat.At(0, 0) = 2.0;  // Over-prediction of y=1.
  yhat.At(1, 0) = 0.0;  // Masked row.
  Matrix y(2, 1);
  y.At(0, 0) = 1.0;
  y.At(1, 0) = 5.0;
  Matrix dyhat;
  Matrix ds;
  double loss = HeteroscedasticLossMulti(yhat, s, y, {true, false}, &dyhat, &ds);
  EXPECT_GT(loss, 0.0);
  EXPECT_GT(dyhat.At(0, 0), 0.0);   // Push prediction down.
  EXPECT_DOUBLE_EQ(dyhat.At(1, 0), 0.0);  // Masked: no gradient.
  // Error (1.0) matches exp(-s)=1 -> ds = 0.5(1-1) = 0.
  EXPECT_NEAR(ds.At(0, 0), 0.0, 1e-12);
}

TEST(LossTest, HeteroscedasticLearnsVariance) {
  // With fixed yhat != y, minimizing over s should settle near log(err^2).
  double y = 0.0;
  double yhat = 2.0;
  double s = 0.0;
  for (int step = 0; step < 4000; ++step) {
    double precision = std::exp(-s);
    double grad_s = 0.5 * (1.0 - precision * (yhat - y) * (yhat - y));
    s -= 0.01 * grad_s;
  }
  EXPECT_NEAR(s, std::log(4.0), 0.01);
}

TEST(AdamTest, MinimizesQuadratic) {
  ParamBlock p;
  p.value.Resize(1, 2);
  p.value.At(0, 0) = 5.0;
  p.value.At(0, 1) = -3.0;
  p.grad.Resize(1, 2);
  AdamOptions options;
  options.learning_rate = 0.05;
  Adam adam({&p}, options);
  for (int step = 0; step < 500; ++step) {
    p.grad.At(0, 0) = 2.0 * (p.value.At(0, 0) - 1.0);
    p.grad.At(0, 1) = 2.0 * (p.value.At(0, 1) - 2.0);
    adam.Step();
  }
  EXPECT_NEAR(p.value.At(0, 0), 1.0, 0.05);
  EXPECT_NEAR(p.value.At(0, 1), 2.0, 0.05);
}

TEST(AdamTest, GradClipBoundsUpdate) {
  ParamBlock p;
  p.value.Resize(1, 1);
  p.grad.Resize(1, 1);
  p.grad.At(0, 0) = 1e9;
  AdamOptions options;
  options.grad_clip = 1.0;
  options.learning_rate = 0.1;
  Adam adam({&p}, options);
  adam.Step();
  EXPECT_LT(std::abs(p.value.At(0, 0)), 1.0);
}

// --- fast-kernel vs reference equivalence -----------------------------------

Matrix RandomMatrix(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    v = rng.Normal();
  }
  return m;
}

TEST(KernelEquivalence, FastMatMulMatchesNaive) {
  Rng rng(101);
  // Odd sizes exercise the 4x-unroll remainders.
  for (size_t n : {1u, 3u, 17u}) {
    for (size_t k : {1u, 5u, 37u}) {
      for (size_t m : {1u, 7u, 23u}) {
        Matrix a = RandomMatrix(rng, n, k);
        Matrix b = RandomMatrix(rng, k, m);
        Matrix fast;
        MatMulInto(a, b, fast);
        Matrix naive = NaiveMatMul(a, b);
        ASSERT_EQ(fast.rows(), naive.rows());
        ASSERT_EQ(fast.cols(), naive.cols());
        for (size_t i = 0; i < fast.size(); ++i) {
          EXPECT_NEAR(fast.data()[i], naive.data()[i], 1e-9)
              << n << "x" << k << "x" << m << " element " << i;
        }
      }
    }
  }
}

TEST(KernelEquivalence, FastTransposedProductsMatchNaive) {
  Rng rng(103);
  Matrix a = RandomMatrix(rng, 9, 13);
  Matrix b = RandomMatrix(rng, 11, 13);  // For Bt: b is M x K.
  Matrix fast_bt;
  MatMulBtInto(a, b, fast_bt);
  Matrix naive_bt = NaiveMatMulBt(a, b);
  for (size_t i = 0; i < fast_bt.size(); ++i) {
    EXPECT_NEAR(fast_bt.data()[i], naive_bt.data()[i], 1e-9);
  }
  Matrix c = RandomMatrix(rng, 9, 11);  // For At: shares rows with a.
  Matrix fast_at(a.cols(), c.cols(), 0.0);  // MatMulAtAccum adds into it.
  Matrix scratch;
  MatMulAtAccum(a, c, fast_at, scratch);
  Matrix naive_at = NaiveMatMulAt(a, c);
  for (size_t i = 0; i < fast_at.size(); ++i) {
    EXPECT_NEAR(fast_at.data()[i], naive_at.data()[i], 1e-9);
  }
}

TEST(KernelEquivalence, FusedBiasMatchesSeparateOps) {
  Rng rng(107);
  Matrix a = RandomMatrix(rng, 6, 19);
  Matrix b = RandomMatrix(rng, 19, 8);
  Matrix bias = RandomMatrix(rng, 1, 8);
  Matrix fused;
  MatMulAddBiasInto(a, b, bias, fused);
  Matrix separate = NaiveMatMul(a, b);
  AddRowInPlace(separate, bias);
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused.data()[i], separate.data()[i], 1e-9);
  }
}

// An n x dim candidate pool, one configuration per row.
Matrix RandomPool(Rng& rng, size_t n, size_t dim) {
  Matrix pool(n, dim);
  for (double& v : pool.data()) {
    v = rng.Uniform();
  }
  return pool;
}

// In place (a DeepTuneModel is not safely movable: Adam holds pointers into
// the layers' parameter blocks).
void TrainModel(DeepTuneModel& model) {
  size_t dim = model.input_dim();
  Rng rng(5);
  for (size_t i = 0; i < 48; ++i) {
    std::vector<double> x(dim);
    for (double& v : x) {
      v = rng.Uniform();
    }
    model.AddSample(x, rng.Bernoulli(0.25), {rng.Normal(0.0, 1.0)});
  }
  model.Update();
}

TEST(DtmEquivalence, FastPredictRowsMatchesNaiveReference) {
  const size_t dim = 33;
  DtmOptions fast_options;
  DtmOptions naive_options;
  naive_options.naive = true;
  DeepTuneModel fast(dim, fast_options);
  DeepTuneModel naive(dim, naive_options);
  TrainModel(fast);
  TrainModel(naive);

  Rng rng(9);
  Matrix pool = RandomPool(rng, 64, dim);
  ASSERT_EQ(fast.PredictRows(pool), pool.rows());
  ASSERT_EQ(naive.PredictRows(pool), pool.rows());
  for (size_t i = 0; i < pool.rows(); ++i) {
    DtmPrediction f = fast.Prediction(i);
    DtmPrediction n = naive.Prediction(i);
    EXPECT_NEAR(f.crash_prob, n.crash_prob, 1e-9);
    EXPECT_NEAR(f.objective, n.objective, 1e-9);
    EXPECT_NEAR(f.sigma, n.sigma, 1e-9);
  }
}

TEST(DtmEquivalence, SinglePredictMatchesBatchRow) {
  const size_t dim = 21;
  DeepTuneModel model(dim, {});
  TrainModel(model);
  Rng rng(13);
  Matrix pool = RandomPool(rng, 8, dim);
  // Predict() reuses the workspace the batch results live in, so copy the
  // batch rows out first.
  std::vector<DtmPrediction> batch(model.PredictRows(pool));
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i] = model.Prediction(i);
  }
  for (size_t i = 0; i < pool.rows(); ++i) {
    DtmPrediction single = model.Predict(std::vector<double>(pool.Row(i), pool.Row(i) + dim));
    EXPECT_EQ(single.crash_prob, batch[i].crash_prob);
    EXPECT_EQ(single.objective, batch[i].objective);
    EXPECT_EQ(single.sigma, batch[i].sigma);
  }
}

// Order-sensitive hash of the bit patterns of `values`, chained onto `h`.
uint64_t HashBits(uint64_t h, const double* values, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof(bits));
    h = HashCombine(h, bits);
  }
  return h;
}

// Holds dense-1's units with c % 4 != 0 dead: a -1e3 bias keeps x W1 + b1
// below 0 for every input in [0, 1]^width, through any short training.
void KillDense1Units(DtmTrunk& trunk) {
  Matrix& bias1 = trunk.Params()[1]->value;
  for (size_t c = 0; c < bias1.cols(); ++c) {
    if (c % 4 != 0) {
      bias1.At(0, c) = -1e3;
    }
  }
}

// A trunk at the Linux job space's width (298 features, 30% of them 0) whose
// dense-1 units with c % 4 != 0 carry a -1e3 bias: x W1 + b1 stays below 0
// there for every input in [0, 1]^298, so 48 of the 64 units are dead on
// every minibatch (asserted below, so the pin cannot hold vacuously) and the
// backward pass runs its live-unit forms. Twenty Updates on a fixed replay,
// then one PredictRows pass. The digest of every Params() value and every
// prediction was recorded before the backward pass skipped dead units, and
// both kernel backends must reproduce it bit for bit.
TEST(DtmGolden, DeadUnitTrunkKeepsItsBits) {
  const size_t dim = 298;
  Rng rng(0x601d);
  Matrix replay(64, dim);
  for (double& v : replay.data()) {
    v = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform();
  }
  std::vector<bool> crashed(replay.rows());
  std::vector<double> objective(replay.rows());
  for (size_t i = 0; i < replay.rows(); ++i) {
    crashed[i] = rng.Bernoulli(0.2);
    objective[i] = rng.Normal(100.0, 10.0);
  }
  Matrix pool(16, dim);
  for (double& v : pool.data()) {
    v = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform();
  }
  for (KernelBackend backend : {KernelBackend::kPortable, KernelBackend::kAvx2}) {
    SCOPED_TRACE(KernelBackendName(backend));
    DtmOptions options;
    options.kernels = backend;
    DtmTrunk trunk(dim, 1, options);
    std::vector<ParamBlock*> params = trunk.Params();
    ASSERT_EQ(params[1]->value.cols(), 64u);
    KillDense1Units(trunk);
    for (size_t i = 0; i < replay.rows(); ++i) {
      trunk.AddSample(std::vector<double>(replay.Row(i), replay.Row(i) + dim), crashed[i],
                      &objective[i]);
    }
    for (int update = 0; update < 20; ++update) {
      trunk.Update();
    }

    // The 48 units are still dead for every replay row after training.
    Matrix h1 = NaiveMatMul(replay, params[0]->value);
    AddRowInPlace(h1, params[1]->value);
    size_t dead = 0;
    for (size_t c = 0; c < h1.cols(); ++c) {
      bool any_live = false;
      for (size_t n = 0; n < h1.rows(); ++n) {
        any_live = any_live || h1.At(n, c) > 0.0;
      }
      dead += any_live ? 0 : 1;
    }
    EXPECT_GE(dead, 48u);

    uint64_t digest = StableHash("dtm-golden");
    for (ParamBlock* p : params) {
      digest = HashBits(digest, p->value.data().data(), p->value.size());
    }
    ASSERT_EQ(trunk.PredictRows(pool), pool.rows());
    for (size_t i = 0; i < pool.rows(); ++i) {
      const double out[3] = {trunk.CrashProb(i), trunk.Objective(i, 0), trunk.Sigma(i, 0)};
      digest = HashBits(digest, out, 3);
    }
    EXPECT_EQ(digest, 0xa6198a23bcd19b7dULL) << std::hex << digest;
  }
}

TEST(DtmWorkspace, NoAllocationAfterWarmup) {
  const size_t dim = 25;
  DeepTuneModel model(dim, {});
  TrainModel(model);
  Rng rng(17);
  Matrix pool = RandomPool(rng, 96, dim);
  const std::vector<double> probe(pool.Row(0), pool.Row(0) + dim);

  // Warm the workspace: one predict round at this pool shape, one staged
  // single-row predict, and one training round at the configured batch size.
  model.PredictRows(pool);
  model.Predict(probe);
  model.Update();
  model.PredictRows(pool);
  size_t warm = model.workspace_grow_count();

  // Steady state: repeated same-shaped forwards must not grow any buffer.
  for (int round = 0; round < 5; ++round) {
    model.PredictRows(pool);
    model.Predict(probe);
    model.Update();
  }
  EXPECT_EQ(model.workspace_grow_count(), warm);

  // The same contract, counted at operator new: a warm model's training
  // round, its pool-ranking inference (PredictRows, read back through
  // Prediction) and its single-row staging path (Predict, which
  // PredictConfig and ParameterImpacts use) make no heap allocation at all.
  Matrix candidates(128, dim);
  for (double& v : candidates.data()) {
    v = rng.Uniform();
  }
  model.PredictRows(candidates);
  uint64_t update_news = 0;
  uint64_t predict_news = 0;
  uint64_t single_news = 0;
  double checksum = 0.0;
  for (int round = 0; round < 3; ++round) {
    uint64_t before = g_news.load(std::memory_order_relaxed);
    model.Update();
    uint64_t after_update = g_news.load(std::memory_order_relaxed);
    size_t rows = model.PredictRows(candidates);
    for (size_t i = 0; i < rows; ++i) {
      checksum += model.Prediction(i).sigma;
    }
    uint64_t after_predict = g_news.load(std::memory_order_relaxed);
    checksum += model.Predict(probe).sigma;
    single_news += g_news.load(std::memory_order_relaxed) - after_predict;
    predict_news += after_predict - after_update;
    update_news += after_update - before;
  }
  EXPECT_GT(checksum, 0.0);
  EXPECT_EQ(update_news, 0u) << "warm Update() allocated " << update_news << " times";
  EXPECT_EQ(predict_news, 0u) << "warm PredictRows() allocated " << predict_news
                              << " times";
  EXPECT_EQ(single_news, 0u) << "warm Predict() allocated " << single_news << " times";

  // The same at the Linux job space's width with 48 of 64 dense-1 units
  // dead, where Update runs the live-unit backward: dW1 in MatMulAtAccum's
  // b-sparse form, dense-2's dh1 in the live columns only, and the RBF
  // scale tables.
  DtmTrunk dead(298, 1, DtmOptions{});
  KillDense1Units(dead);
  for (size_t i = 0; i < 64; ++i) {
    std::vector<double> x(298);
    for (double& v : x) {
      v = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform();
    }
    const double objective = rng.Normal(0.0, 1.0);
    dead.AddSample(x, rng.Bernoulli(0.25), &objective);
  }
  dead.Update();
  const size_t dead_warm = dead.workspace_grow_count();
  const uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int round = 0; round < 3; ++round) {
    dead.Update();
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u)
      << "warm dead-unit Update() allocated";
  EXPECT_EQ(dead.workspace_grow_count(), dead_warm);
}

TEST(MatrixTest, ReshapeReportsGrowthOnlyWhenBufferGrows) {
  Matrix m;
  EXPECT_TRUE(m.Reshape(8, 8));
  EXPECT_FALSE(m.Reshape(4, 4));   // Shrink within capacity.
  EXPECT_FALSE(m.Reshape(8, 8));   // Back to the high-water mark.
  EXPECT_TRUE(m.Reshape(16, 16));  // Genuine growth.
}

TEST(SerializeTest, RoundTripsAndRejectsMismatch) {
  Rng rng(31);
  DenseLayer a(3, 2, rng);
  DenseLayer b(3, 2, rng);
  std::stringstream buffer;
  std::vector<ParamBlock*> a_params = a.Params();
  SaveParams(a_params, buffer);
  std::vector<ParamBlock*> b_params = b.Params();
  ASSERT_TRUE(LoadParams(b_params, buffer));
  for (size_t i = 0; i < a.weight().value.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.weight().value.data()[i], b.weight().value.data()[i]);
  }
  // Shape mismatch must be rejected without touching the target.
  DenseLayer c(4, 2, rng);
  std::stringstream buffer2;
  SaveParams(a_params, buffer2);
  std::vector<ParamBlock*> c_params = c.Params();
  double before = c.weight().value.data()[0];
  EXPECT_FALSE(LoadParams(c_params, buffer2));
  EXPECT_DOUBLE_EQ(c.weight().value.data()[0], before);
}

}  // namespace
}  // namespace wayfinder
