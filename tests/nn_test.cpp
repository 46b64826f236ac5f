// Tests for the NN building blocks: matrix kernels, layers (including
// gradient checks against finite differences), losses, Adam, serialization,
// and the DTM trunk's zero-allocation hot path (counted via a global
// operator new hook).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>

#include "src/core/dtm.h"
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
  MatMulAtAccum(a, c, fast_at);
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
