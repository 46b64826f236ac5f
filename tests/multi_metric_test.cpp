// Tests for the multi-metric extension (§3.2): the K-target heteroscedastic
// loss, the DeepTuneModel with K objective heads + K uncertainty heads, and
// the DeepTuneSearcher given a metric list, which aggregates per-metric
// Eq. 3 scores.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "src/configspace/linux_space.h"
#include "src/configspace/unikraft_space.h"
#include "src/core/deeptune.h"
#include "src/nn/losses.h"
#include "src/platform/session.h"
#include "src/simos/testbench.h"

namespace wayfinder {
namespace {

// ---------------------------------------------------------------------------
// HeteroscedasticLossMulti.

// Fills an N x K target matrix row by row.
Matrix Targets(const std::vector<std::vector<double>>& rows) {
  Matrix y(rows.size(), rows.empty() ? 0 : rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t k = 0; k < rows[i].size(); ++k) {
      y.At(i, k) = rows[i][k];
    }
  }
  return y;
}

// K = 1 is the paper's single-objective L_Reg (Kendall & Gal): per row,
// 0.5 exp(-s) (yhat - y)^2 + 0.5 s, averaged over the rows, with gradients
// exp(-s) (yhat - y) / N and 0.5 (1 - exp(-s) (yhat - y)^2) / N.
TEST(MultiLossTest, SingleColumnMatchesScalarLoss) {
  Matrix yhat(3, 1);
  Matrix s(3, 1);
  Matrix y = Targets({{1.0}, {-0.5}, {2.0}});
  std::vector<bool> mask = {true, true, true};
  yhat.At(0, 0) = 0.8;
  yhat.At(1, 0) = 0.0;
  yhat.At(2, 0) = 2.5;
  s.At(0, 0) = 0.1;
  s.At(1, 0) = -0.2;
  s.At(2, 0) = 0.3;

  Matrix dy, ds;
  double loss = HeteroscedasticLossMulti(yhat, s, y, mask, &dy, &ds);
  double expected = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    double err = yhat.At(i, 0) - y.At(i, 0);
    double precision = std::exp(-s.At(i, 0));
    expected += (0.5 * precision * err * err + 0.5 * s.At(i, 0)) / 3.0;
    EXPECT_NEAR(dy.At(i, 0), precision * err / 3.0, 1e-12) << i;
    EXPECT_NEAR(ds.At(i, 0), 0.5 * (1.0 - precision * err * err) / 3.0, 1e-12) << i;
  }
  EXPECT_NEAR(loss, expected, 1e-12);
}

TEST(MultiLossTest, MaskedRowsContributeNothing) {
  Matrix yhat(2, 2);
  Matrix s(2, 2);
  Matrix y = Targets({{1.0, 2.0}, {100.0, -100.0}});
  std::vector<bool> mask = {true, false};
  yhat.At(0, 0) = 1.0;
  yhat.At(0, 1) = 2.0;
  yhat.At(1, 0) = 0.0;
  yhat.At(1, 1) = 0.0;

  Matrix dy, ds;
  double loss = HeteroscedasticLossMulti(yhat, s, y, mask, &dy, &ds);
  // Row 0 predicts perfectly (err = 0, s = 0): loss is exactly 0.
  EXPECT_NEAR(loss, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(dy.At(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(dy.At(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(ds.At(1, 0), 0.0);
}

TEST(MultiLossTest, AllMaskedIsZero) {
  Matrix yhat(2, 3);
  Matrix s(2, 3);
  Matrix y = Targets({{1, 2, 3}, {4, 5, 6}});
  std::vector<bool> mask = {false, false};
  Matrix dy, ds;
  EXPECT_DOUBLE_EQ(HeteroscedasticLossMulti(yhat, s, y, mask, &dy, &ds), 0.0);
}

TEST(MultiLossTest, GradientMatchesFiniteDifference) {
  Matrix yhat(2, 2);
  Matrix s(2, 2);
  Matrix y = Targets({{0.5, -1.0}, {1.5, 0.2}});
  std::vector<bool> mask = {true, true};
  yhat.At(0, 0) = 0.2;
  yhat.At(0, 1) = -0.6;
  yhat.At(1, 0) = 1.1;
  yhat.At(1, 1) = 0.0;
  s.At(0, 0) = 0.3;
  s.At(0, 1) = -0.1;
  s.At(1, 0) = 0.0;
  s.At(1, 1) = 0.5;

  Matrix dy, ds;
  HeteroscedasticLossMulti(yhat, s, y, mask, &dy, &ds);

  const double eps = 1e-6;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t k = 0; k < 2; ++k) {
      Matrix y_hi = yhat;
      Matrix y_lo = yhat;
      y_hi.At(i, k) += eps;
      y_lo.At(i, k) -= eps;
      Matrix tmp1, tmp2;
      double hi = HeteroscedasticLossMulti(y_hi, s, y, mask, &tmp1, &tmp2);
      double lo = HeteroscedasticLossMulti(y_lo, s, y, mask, &tmp1, &tmp2);
      EXPECT_NEAR(dy.At(i, k), (hi - lo) / (2 * eps), 1e-5) << i << "," << k;

      Matrix s_hi = s;
      Matrix s_lo = s;
      s_hi.At(i, k) += eps;
      s_lo.At(i, k) -= eps;
      hi = HeteroscedasticLossMulti(yhat, s_hi, y, mask, &tmp1, &tmp2);
      lo = HeteroscedasticLossMulti(yhat, s_lo, y, mask, &tmp1, &tmp2);
      EXPECT_NEAR(ds.At(i, k), (hi - lo) / (2 * eps), 1e-5) << i << "," << k;
    }
  }
}

// ---------------------------------------------------------------------------
// DeepTuneModel with one head per metric.

TEST(MultiHeadDtmTest, EveryHeadPredictsFromOneForwardPass) {
  DeepTuneModel model(6, {}, /*head_count=*/3);
  EXPECT_EQ(model.head_count(), 3u);
  Matrix x(1, 6);
  for (size_t j = 0; j < 6; ++j) {
    x.At(0, j) = 0.1 * static_cast<double>(j + 1);
  }
  ASSERT_EQ(model.PredictRows(x), 1u);
  for (size_t k = 0; k < 3; ++k) {
    DtmPrediction prediction = model.Prediction(0, k);
    // One crash head serves every metric head.
    EXPECT_EQ(prediction.crash_prob, model.Prediction(0, 0).crash_prob);
    EXPECT_GE(prediction.crash_prob, 0.0);
    EXPECT_LE(prediction.crash_prob, 1.0);
    EXPECT_TRUE(std::isfinite(prediction.objective)) << k;
    EXPECT_GT(prediction.sigma, 0.0) << k;
  }
}

TEST(MultiHeadDtmTest, PerMetricNormalizersAreIndependent) {
  DtmOptions options;
  options.steps_per_update = 1;
  DeepTuneModel model(2, options, /*head_count=*/2);
  // Metric 0 ranges around 1000, metric 1 around 1.
  Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    double a = rng.Uniform(900, 1100);
    double b = rng.Uniform(0.5, 1.5);
    model.AddSample({rng.Uniform(), rng.Uniform()}, false, {a, b});
  }
  model.Update();
  // Round trips through each normalizer recover the raw values.
  EXPECT_NEAR(model.DenormalizeObjective(model.NormalizeObjective(1000.0, 0), 0), 1000.0,
              1e-9);
  EXPECT_NEAR(model.DenormalizeObjective(model.NormalizeObjective(1.0, 1), 1), 1.0, 1e-9);
  // Scales differ by ~3 orders of magnitude.
  double z_a = model.NormalizeObjective(1100.0, 0);
  double z_b = model.NormalizeObjective(1.5, 1);
  EXPECT_LT(std::abs(z_a), 10.0);
  EXPECT_LT(std::abs(z_b), 10.0);
}

TEST(MultiHeadDtmTest, TrainingReducesLossOnSeparableTargets) {
  DtmOptions options;
  options.steps_per_update = 16;
  options.seed = 7;
  DeepTuneModel model(3, options, /*head_count=*/2);
  Rng rng(32);
  // Metric 0 = x0, metric 1 = -x1 (plus noise); crash when x2 > 0.8.
  for (int i = 0; i < 120; ++i) {
    double x0 = rng.Uniform();
    double x1 = rng.Uniform();
    double x2 = rng.Uniform();
    bool crashed = x2 > 0.8;
    model.AddSample({x0, x1, x2}, crashed, {x0 + 0.01 * rng.Normal(), -x1});
  }
  double first = model.Update();
  double last = 0.0;
  for (int epoch = 0; epoch < 30; ++epoch) {
    last = model.Update();
  }
  EXPECT_LT(last, first);
}

TEST(MultiHeadDtmTest, SaveLoadRoundTripPreservesPredictions) {
  DtmOptions options;
  options.seed = 11;
  DeepTuneModel model(4, options, /*head_count=*/2);
  Rng rng(33);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform(), rng.Uniform(), rng.Uniform()};
    model.AddSample(x, rng.Bernoulli(0.2), std::vector<double>{x[0], x[1]});
  }
  for (int epoch = 0; epoch < 5; ++epoch) {
    model.Update();
  }

  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "wf_multi_head_model_test.wfnn";
  ASSERT_TRUE(model.Save(path.string()));

  DeepTuneModel restored(4, options, /*head_count=*/2);
  ASSERT_TRUE(restored.Load(path.string()));
  // The head count is part of the architecture: a one-head model is refused.
  DeepTuneModel one_head(4, options);
  EXPECT_FALSE(one_head.Load(path.string()));
  std::filesystem::remove(path);

  std::vector<double> probe = {0.3, 0.7, 0.1, 0.9};
  for (size_t k = 0; k < 2; ++k) {
    DtmPrediction a = model.Predict(probe, k);
    DtmPrediction b = restored.Predict(probe, k);
    EXPECT_NEAR(a.crash_prob, b.crash_prob, 1e-9);
    EXPECT_NEAR(a.objective, b.objective, 1e-9);
    EXPECT_NEAR(a.sigma, b.sigma, 1e-9);
  }
}

// Feeds the same fixed sample stream to a model (shared by the fast-path
// equivalence tests below).
void FeedSamples(DeepTuneModel& model, size_t count) {
  Rng rng(34);
  for (size_t i = 0; i < count; ++i) {
    std::vector<double> x(model.input_dim());
    for (double& v : x) {
      v = rng.Uniform();
    }
    std::vector<double> objectives(model.head_count());
    for (double& o : objectives) {
      o = rng.Normal(0.0, 1.0);
    }
    model.AddSample(x, rng.Bernoulli(0.25), objectives);
  }
}

// The K > 1 twin of DtmWorkspace.NoAllocationAfterWarmup (nn_test).
TEST(MultiHeadDtmTest, NoAllocationAfterWarmup) {
  DtmOptions options;
  options.seed = 13;
  DeepTuneModel model(7, options, /*head_count=*/2);
  FeedSamples(model, 48);
  Rng rng(35);
  std::vector<double> probe(7);
  for (double& v : probe) {
    v = rng.Uniform();
  }
  Matrix staged(96, 7);
  for (double& v : staged.data()) {
    v = rng.Uniform();
  }

  // Warm the workspace: one single-row predict, one predict round at this
  // pool shape, and one training round at the configured batch size.
  model.Predict(probe, 1);
  model.PredictRows(staged);
  model.Update();
  model.Predict(probe, 1);
  size_t warm = model.workspace_grow_count();

  // Steady state: repeated same-shaped rounds, through both the single-row
  // staging and the pool-ranking entry points, must not grow any buffer —
  // two heads share the one-head model's zero-alloc-after-warmup guarantee.
  for (int round = 0; round < 5; ++round) {
    model.Predict(probe, 1);
    model.PredictRows(staged);
    model.Update();
  }
  EXPECT_EQ(model.workspace_grow_count(), warm);
}

TEST(MultiHeadDtmTest, TrainingUnchangedByKernelBackend) {
  DtmOptions portable_options;
  portable_options.seed = 19;
  portable_options.kernels = KernelBackend::kPortable;
  DtmOptions simd_options;
  simd_options.seed = 19;
  simd_options.kernels = KernelBackend::kAvx2;
  DeepTuneModel portable(5, portable_options, /*head_count=*/2);
  DeepTuneModel simd(5, simd_options, /*head_count=*/2);
  FeedSamples(portable, 40);
  FeedSamples(simd, 40);
  portable.Update();
  simd.Update();

  std::vector<double> probe = {0.2, 0.4, 0.6, 0.8, 0.5};
  // Backends are bit-identical by construction (falls back to portable on
  // hardware without AVX2, where this holds trivially).
  for (size_t k = 0; k < 2; ++k) {
    DtmPrediction a = portable.Predict(probe, k);
    DtmPrediction b = simd.Predict(probe, k);
    EXPECT_EQ(a.crash_prob, b.crash_prob);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.sigma, b.sigma);
  }
}

TEST(MultiHeadDtmTest, PoolRankingFormMatchesSingleRowApi) {
  DtmOptions options;
  options.seed = 23;
  DeepTuneModel model(4, options, /*head_count=*/2);
  FeedSamples(model, 32);
  model.Update();
  Matrix staged(9, 4);
  Rng rng(37);
  for (double& v : staged.data()) {
    v = rng.Uniform();
  }
  for (size_t k = 0; k < 2; ++k) {
    // Predict() reuses the workspace the pool results live in, so copy the
    // pool rows out first.
    std::vector<DtmPrediction> in_place(model.PredictRows(staged));
    ASSERT_EQ(in_place.size(), staged.rows());
    for (size_t i = 0; i < in_place.size(); ++i) {
      in_place[i] = model.Prediction(i, k);
    }
    for (size_t i = 0; i < in_place.size(); ++i) {
      DtmPrediction single =
          model.Predict(std::vector<double>(staged.Row(i), staged.Row(i) + 4), k);
      EXPECT_EQ(single.crash_prob, in_place[i].crash_prob) << i;
      EXPECT_EQ(single.objective, in_place[i].objective) << i;
      EXPECT_EQ(single.sigma, in_place[i].sigma) << i;
    }
  }
}

TEST(MultiHeadDtmTest, MemoryGrowsWithReplayBuffer) {
  DeepTuneModel model(3, {}, /*head_count=*/2);
  size_t empty = model.MemoryBytes();
  for (int i = 0; i < 64; ++i) {
    model.AddSample({0.1, 0.2, 0.3}, false, {1.0, 2.0});
  }
  EXPECT_GT(model.MemoryBytes(), empty);
}

// ---------------------------------------------------------------------------
// MetricSpec.

TEST(MetricSpecTest, BuiltinExtractorsAndPolarity) {
  TrialOutcome outcome;
  outcome.metric = 15000.0;
  outcome.memory_mb = 210.0;

  MetricSpec throughput = MetricSpec::AppThroughput(2.0);
  EXPECT_EQ(throughput.name, "throughput");
  EXPECT_TRUE(throughput.higher_is_better);
  EXPECT_DOUBLE_EQ(throughput.weight, 2.0);
  EXPECT_DOUBLE_EQ(throughput.extract(outcome), 15000.0);

  MetricSpec memory = MetricSpec::MemoryFootprint();
  EXPECT_FALSE(memory.higher_is_better);
  EXPECT_DOUBLE_EQ(memory.extract(outcome), 210.0);
}

// ---------------------------------------------------------------------------
// DeepTuneSearcher with a metric list.

TEST(MultiMetricDeepTuneTest, AggregateScorePrefersDominatingOutcomes) {
  ConfigSpace space = BuildUnikraftSpace();
  DeepTuneSearcher searcher(
      &space, {}, {MetricSpec::AppThroughput(), MetricSpec::MemoryFootprint()});

  // Feed some history so the z-scores are meaningful.
  std::vector<TrialRecord> history;
  Rng rng(41);
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  for (int i = 0; i < 20; ++i) {
    TrialRecord trial;
    trial.config = space.RandomConfiguration(rng);
    trial.outcome.status = TrialOutcome::Status::kOk;
    trial.outcome.metric = rng.Uniform(10000, 20000);
    trial.outcome.memory_mb = rng.Uniform(150, 250);
    trial.objective = trial.outcome.metric;
    searcher.Observe(trial, context);
  }

  TrialOutcome dominator;
  dominator.metric = 25000.0;  // More throughput...
  dominator.memory_mb = 100.0;  // ...and less memory.
  TrialOutcome dominated;
  dominated.metric = 9000.0;
  dominated.memory_mb = 300.0;
  EXPECT_GT(searcher.AggregateScore(dominator), searcher.AggregateScore(dominated));
}

TEST(MultiMetricDeepTuneTest, WeightsShiftTheTradeoff) {
  ConfigSpace space = BuildUnikraftSpace();
  // All weight on memory: a slow-but-tiny outcome must outrank a
  // fast-but-huge one.
  DeepTuneSearcher searcher(
      &space, {}, {MetricSpec::AppThroughput(0.0), MetricSpec::MemoryFootprint(1.0)});
  std::vector<TrialRecord> history;
  Rng rng(42);
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  for (int i = 0; i < 20; ++i) {
    TrialRecord trial;
    trial.config = space.RandomConfiguration(rng);
    trial.outcome.status = TrialOutcome::Status::kOk;
    trial.outcome.metric = rng.Uniform(10000, 20000);
    trial.outcome.memory_mb = rng.Uniform(150, 250);
    trial.objective = trial.outcome.metric;
    searcher.Observe(trial, context);
  }

  TrialOutcome tiny;
  tiny.metric = 5000.0;
  tiny.memory_mb = 120.0;
  TrialOutcome fast;
  fast.metric = 30000.0;
  fast.memory_mb = 280.0;
  EXPECT_GT(searcher.AggregateScore(tiny), searcher.AggregateScore(fast));
}

TEST(MultiMetricDeepTuneTest, SessionProposalsStayValid) {
  ConfigSpace space = BuildLinuxSearchSpace();
  DeepTuneOptions options;
  options.warmup = 5;
  options.pool_size = 32;
  options.model.steps_per_update = 4;
  DeepTuneSearcher searcher(
      &space, options, {MetricSpec::AppThroughput(), MetricSpec::MemoryFootprint()});

  Testbench bench(&space, AppId::kNginx);
  SessionOptions session;
  session.max_iterations = 25;
  session.sample_options = SampleOptions::FavorRuntime();
  session.seed = 43;
  SearchSession run(&bench, &searcher, session);
  while (run.Step()) {
    ASSERT_TRUE(space.IsValid(run.history().back().config));
  }
  EXPECT_EQ(run.history().size(), 25u);
}

TEST(MultiMetricDeepTuneTest, TransferLearningRoundTrip) {
  ConfigSpace space = BuildUnikraftSpace();
  std::vector<MetricSpec> metrics = {MetricSpec::AppThroughput(),
                                     MetricSpec::MemoryFootprint()};
  DeepTuneOptions options;
  options.model.steps_per_update = 2;
  DeepTuneSearcher donor(&space, options, metrics);

  // Train the donor a little so the weights are distinctive.
  std::vector<TrialRecord> history;
  Rng rng(44);
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  for (int i = 0; i < 15; ++i) {
    TrialRecord trial;
    trial.config = space.RandomConfiguration(rng);
    trial.outcome.status = TrialOutcome::Status::kOk;
    trial.outcome.metric = rng.Uniform(10000, 20000);
    trial.outcome.memory_mb = rng.Uniform(150, 250);
    trial.objective = trial.outcome.metric;
    donor.Observe(trial, context);
  }

  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "wf_multi_tl_test.wfnn";
  ASSERT_TRUE(donor.SaveModel(path.string()));

  DeepTuneSearcher adopter(&space, options, metrics);
  EXPECT_FALSE(adopter.transferred());
  ASSERT_TRUE(adopter.LoadModel(path.string()));
  EXPECT_TRUE(adopter.transferred());
  // A single-target searcher has one head: the two-head model is refused.
  DeepTuneSearcher single(&space, options);
  EXPECT_FALSE(single.LoadModel(path.string()));
  EXPECT_FALSE(single.transferred());
  std::filesystem::remove(path);

  Configuration probe = space.DefaultConfiguration();
  for (size_t k = 0; k < 2; ++k) {
    DtmPrediction a = donor.PredictConfig(probe, k);
    DtmPrediction b = adopter.PredictConfig(probe, k);
    EXPECT_NEAR(a.crash_prob, b.crash_prob, 1e-9);
    EXPECT_NEAR(a.objective, b.objective, 1e-9);
  }
}

// Propose ranks the pool by the weighted average of each head's Eq. 3 score
// on that head's σ̂ max-scaled over the pool (NormalizeSigmas). With the
// dissimilarity term off (alpha 0), that ranking is a function of the
// model's last inference alone, so the proposal must be its best row.
TEST(MultiMetricDeepTuneTest, ProposeRanksByPoolScaledSigmas) {
  ConfigSpace space = BuildUnikraftSpace();
  DeepTuneOptions options;
  options.warmup = 4;
  options.pool_size = 32;
  options.scoring.alpha = 0.0;
  const std::vector<double> weights = {1.0, 3.0};
  DeepTuneSearcher searcher(&space, options,
                            {MetricSpec::AppThroughput(weights[0]),
                             MetricSpec::MemoryFootprint(weights[1])});
  std::vector<TrialRecord> history;
  Rng rng(47);
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  for (int i = 0; i < 12; ++i) {
    TrialRecord trial;
    trial.config = space.RandomConfiguration(rng);
    trial.outcome.status = TrialOutcome::Status::kOk;
    trial.outcome.metric = rng.Uniform(10000, 20000);
    trial.outcome.memory_mb = rng.Uniform(150, 250);
    trial.objective = trial.outcome.metric;
    searcher.Observe(trial, context);
    history.push_back(trial);
  }
  Configuration proposed = searcher.Propose(context);

  const DeepTuneModel& model = searcher.model();
  std::vector<double> max_sigma(2, 1e-12);
  for (size_t i = 0; i < options.pool_size; ++i) {
    for (size_t k = 0; k < 2; ++k) {
      max_sigma[k] = std::max(max_sigma[k], model.Prediction(i, k).sigma);
    }
  }
  auto best_row = [&](bool scaled) {
    size_t best = 0;
    double best_score = 0.0;
    for (size_t i = 0; i < options.pool_size; ++i) {
      double score = 0.0;
      for (size_t k = 0; k < 2; ++k) {
        DtmPrediction prediction = model.Prediction(i, k);
        double sigma = scaled ? prediction.sigma / max_sigma[k] : prediction.sigma;
        score += weights[k] * RankScore(prediction, 0.0, sigma, options.scoring);
      }
      if (i == 0 || score > best_score) {
        best = i;
        best_score = score;
      }
    }
    return best;
  };
  const size_t best = best_row(true);
  // Unscaled σ̂ would rank another row first, so the check below sees a
  // missing scaling.
  ASSERT_NE(best_row(false), best);
  const DtmPrediction expected[2] = {model.Prediction(best, 0), model.Prediction(best, 1)};
  for (size_t k = 0; k < 2; ++k) {
    DtmPrediction actual = searcher.PredictConfig(proposed, k);
    EXPECT_EQ(actual.objective, expected[k].objective) << k;
    EXPECT_EQ(actual.sigma, expected[k].sigma) << k;
  }
}

TEST(MultiMetricDeepTuneTest, OneHeadPerMetric) {
  ConfigSpace space = BuildUnikraftSpace();
  DeepTuneSearcher searcher(
      &space, {}, {MetricSpec::AppThroughput(), MetricSpec::MemoryFootprint()});
  EXPECT_EQ(searcher.Name(), "deeptune-multi");
  EXPECT_EQ(searcher.model().head_count(), 2u);
  DeepTuneSearcher single(&space);
  EXPECT_EQ(single.Name(), "deeptune");
  EXPECT_EQ(single.model().head_count(), 1u);
  for (size_t k = 0; k < 2; ++k) {
    DtmPrediction prediction = searcher.PredictConfig(space.DefaultConfiguration(), k);
    EXPECT_GT(prediction.sigma, 0.0) << k;
  }
}

}  // namespace
}  // namespace wayfinder
