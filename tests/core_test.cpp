// Tests for DeepTune: the DTM, the scoring function, the searcher, and
// transfer learning.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "src/configspace/linux_space.h"
#include "src/core/deeptune.h"
#include "src/core/scoring.h"
#include "src/core/wayfinder_api.h"
#include "src/platform/random_search.h"
#include "src/util/stats.h"

namespace wayfinder {
namespace {

// A learnable toy problem: objective = 3*x0 - 2*x1, crash iff x2 > 0.8.
struct ToyProblem {
  static double Objective(const std::vector<double>& x) { return 3.0 * x[0] - 2.0 * x[1]; }
  static bool Crashes(const std::vector<double>& x) { return x[2] > 0.8; }
};

DeepTuneModel TrainToyModel(size_t samples, uint64_t seed) {
  DtmOptions options;
  options.seed = seed;
  DeepTuneModel model(4, options);
  Rng rng(seed);
  for (size_t i = 0; i < samples; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform(), rng.Uniform(), rng.Uniform()};
    bool crashed = ToyProblem::Crashes(x);
    model.AddSample(x, crashed, {crashed ? 0.0 : ToyProblem::Objective(x)});
    if (i % 4 == 3) {
      model.Update();
    }
  }
  for (int extra = 0; extra < 20; ++extra) {
    model.Update();
  }
  return model;
}

TEST(Dtm, LearnsCrashBoundary) {
  DeepTuneModel model = TrainToyModel(300, 0x70f);
  Rng rng(99);
  size_t correct = 0;
  const size_t kEval = 200;
  for (size_t i = 0; i < kEval; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform(), rng.Uniform(), rng.Uniform()};
    DtmPrediction p = model.Predict(x);
    bool predicted = p.crash_prob > 0.5;
    correct += predicted == ToyProblem::Crashes(x) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / kEval, 0.8);
}

TEST(Dtm, LearnsObjectiveOrdering) {
  DeepTuneModel model = TrainToyModel(300, 0x71f);
  std::vector<double> good = {0.95, 0.05, 0.2, 0.5};
  std::vector<double> bad = {0.05, 0.95, 0.2, 0.5};
  EXPECT_GT(model.Predict(good).objective, model.Predict(bad).objective);
}

TEST(Dtm, PredictionRegressionQuality) {
  DeepTuneModel model = TrainToyModel(400, 0x72f);
  Rng rng(7);
  double err_sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < 200; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform(), rng.Uniform() * 0.8, rng.Uniform()};
    double actual = ToyProblem::Objective(x);
    double predicted = model.DenormalizeObjective(model.Predict(x).objective);
    err_sum += std::abs(predicted - actual);
    ++count;
  }
  // Objective range is [-2, 3]; mean error well under a unit is "learned".
  EXPECT_LT(err_sum / static_cast<double>(count), 0.8);
}

TEST(Dtm, UncertaintyHigherOffDistribution) {
  DtmOptions options;
  options.seed = 0x73f;
  DeepTuneModel model(4, options);
  Rng rng(0x73f);
  // Train only inside [0, 0.4]^4.
  for (size_t i = 0; i < 200; ++i) {
    std::vector<double> x = {rng.Uniform(0, 0.4), rng.Uniform(0, 0.4), rng.Uniform(0, 0.4),
                             rng.Uniform(0, 0.4)};
    model.AddSample(x, false, {x[0]});
    if (i % 4 == 3) {
      model.Update();
    }
  }
  // Compare average sigma inside vs far outside the training support.
  double inside = 0.0;
  double outside = 0.0;
  for (int i = 0; i < 20; ++i) {
    double t = static_cast<double>(i) / 19.0;
    inside += model.Predict({0.2 * t, 0.2, 0.2, 0.2}).sigma;
    outside += model.Predict({0.9, 0.9 + 0.005 * t, 0.95, 0.9}).sigma;
  }
  // The RBF branch's activations collapse off-distribution, so sigma falls
  // back to the head bias — it must not be *lower* than in-distribution.
  EXPECT_GE(outside, inside * 0.75);
}

TEST(Dtm, UpdateCostDoesNotGrowWithHistory) {
  DtmOptions options;
  DeepTuneModel model(32, options);
  Rng rng(5);
  auto add = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> x(32);
      for (double& v : x) {
        v = rng.Uniform();
      }
      model.AddSample(x, rng.Bernoulli(0.3), {rng.Normal(0.0, 1.0)});
    }
  };
  add(50);
  WallTimer t1;
  model.Update();
  double small = t1.ElapsedSeconds();
  add(500);
  WallTimer t2;
  model.Update();
  double big = t2.ElapsedSeconds();
  // Constant steps per update: cost should not scale with the buffer.
  EXPECT_LT(big, small * 5.0 + 0.05);
}

TEST(Dtm, SaveLoadRoundTrip) {
  DeepTuneModel a = TrainToyModel(100, 0x74f);
  std::string path = "/tmp/wf_dtm_test.wfnn";
  ASSERT_TRUE(a.Save(path));
  DtmOptions options;
  options.seed = 0x999;  // Different init; load must overwrite.
  DeepTuneModel b(4, options);
  ASSERT_TRUE(b.Load(path));
  std::vector<double> x = {0.3, 0.7, 0.2, 0.9};
  DtmPrediction pa = a.Predict(x);
  DtmPrediction pb = b.Predict(x);
  EXPECT_NEAR(pa.crash_prob, pb.crash_prob, 1e-9);
  EXPECT_NEAR(pa.objective, pb.objective, 1e-9);
  std::remove(path.c_str());
}

TEST(Scoring, DissimilarityProperties) {
  std::vector<std::vector<double>> known = {{0.5, 0.5}, {0.1, 0.1}};
  // Empty set: maximal novelty.
  EXPECT_DOUBLE_EQ(Dissimilarity({0.5, 0.5}, {}), 1.0);
  // A known point has zero novelty.
  EXPECT_NEAR(Dissimilarity({0.5, 0.5}, known), 0.0, 1e-12);
  // Farther points are more novel (monotonicity).
  double near = Dissimilarity({0.55, 0.5}, known);
  double far = Dissimilarity({1.0, 1.0}, known);
  EXPECT_GT(far, near);
  EXPECT_LE(far, 1.0);
}

TEST(Scoring, RankScorePenalizesPredictedCrashes) {
  ScoreOptions options;
  DtmPrediction safe{0.1, 1.0, 0.5};
  DtmPrediction crashy{0.9, 1.0, 0.5};
  EXPECT_GT(RankScore(safe, 0.5, 0.5, options), RankScore(crashy, 0.5, 0.5, options));
}

TEST(Scoring, AlphaBlendsExplorationTerms) {
  DtmPrediction p{0.0, 0.0, 1.0};
  ScoreOptions pure_ds;
  pure_ds.alpha = 1.0;
  pure_ds.predict_weight = 0.0;
  EXPECT_DOUBLE_EQ(RankScore(p, 0.7, 0.2, pure_ds), 0.7);
  ScoreOptions pure_sigma;
  pure_sigma.alpha = 0.0;
  pure_sigma.predict_weight = 0.0;
  EXPECT_DOUBLE_EQ(RankScore(p, 0.7, 0.2, pure_sigma), 0.2);
}

TEST(Scoring, NormalizeSigmasMaxIsOne) {
  std::vector<double> sigmas = {1.0, 4.0, 2.0};
  NormalizeSigmas(&sigmas);
  EXPECT_DOUBLE_EQ(sigmas[1], 1.0);
  EXPECT_DOUBLE_EQ(sigmas[0], 0.25);
  EXPECT_DOUBLE_EQ(sigmas[2], 0.5);
}

// The scale never falls below 1e-12: a pool whose σ̂ all sit below it is
// scaled by 1e12, and an all-zero pool stays finite at 0.
TEST(Scoring, NormalizeSigmasFloorsTheScale) {
  std::vector<double> tiny = {2.5e-13, 5e-13};
  NormalizeSigmas(&tiny);
  EXPECT_DOUBLE_EQ(tiny[0], 0.25);
  EXPECT_DOUBLE_EQ(tiny[1], 0.5);
  std::vector<double> zeros = {0.0, 0.0};
  NormalizeSigmas(&zeros);
  EXPECT_EQ(zeros, (std::vector<double>{0.0, 0.0}));
}

TEST(DeepTuneSearcherTest, WarmupProposesWithoutModel) {
  ConfigSpace space = BuildLinuxSearchSpace();
  DeepTuneSearcher searcher(&space);
  std::vector<TrialRecord> history;
  Rng rng(1);
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  Configuration config = searcher.Propose(context);
  EXPECT_TRUE(space.IsValid(config));
}

TEST(DeepTuneSearcherTest, BeatsRandomOnNginx) {
  ConfigSpace space = BuildLinuxSearchSpace();
  SessionOptions options;
  options.max_iterations = 150;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 0xbea7;

  Testbench bench_random(&space, AppId::kNginx);
  RandomSearcher random;
  SessionResult random_result = RunSearch(&bench_random, &random, options);

  Testbench bench_dt(&space, AppId::kNginx);
  DeepTuneSearcher deeptune(&space);
  SessionResult dt_result = RunSearch(&bench_dt, &deeptune, options);

  ASSERT_NE(dt_result.best(), nullptr);
  ASSERT_NE(random_result.best(), nullptr);
  // DeepTune's crash rate must be clearly below random's ~1/3.
  EXPECT_LT(dt_result.CrashRate(), random_result.CrashRate() * 0.6);
  // And its best found should not be worse (usually far better); a small
  // slack absorbs seed-to-seed variance at this reduced scale.
  EXPECT_GE(dt_result.best()->outcome.metric, random_result.best()->outcome.metric * 0.95);
}

TEST(DeepTuneSearcherTest, TransferLearningReducesEarlyCrashes) {
  ConfigSpace space = BuildLinuxSearchSpace();
  SessionOptions options;
  options.max_iterations = 100;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 0x71a;

  // Donor trained on redis.
  Testbench donor_bench(&space, AppId::kRedis);
  DeepTuneSearcher donor(&space);
  RunSearch(&donor_bench, &donor, options);
  std::string path = "/tmp/wf_tl_test.wfnn";
  ASSERT_TRUE(donor.SaveModel(path));

  // Fresh vs transferred on nginx: compare crashes in the first 40 trials.
  auto early_crashes = [&](bool transfer) {
    Testbench bench(&space, AppId::kNginx);
    DeepTuneSearcher searcher(&space);
    if (transfer) {
      EXPECT_TRUE(searcher.LoadModel(path));
      EXPECT_TRUE(searcher.transferred());
    }
    SessionOptions o = options;
    o.max_iterations = 40;
    o.seed = 0x3344;
    SessionResult result = RunSearch(&bench, &searcher, o);
    return result.crashes;
  };
  size_t cold = early_crashes(false);
  size_t warm = early_crashes(true);
  EXPECT_LE(warm, cold);
  std::remove(path.c_str());
}

TEST(DeepTuneSearcherTest, ParameterImpactsFlagDocumentedParams) {
  // After a session, the model's top impactful parameters should include
  // curated high-impact ones (§4.1) well above the median synthetic knob.
  // Asserted over the documented set as a whole: any single parameter's
  // learned impact is seed-noisy, but the set's mean is stably above the
  // median across seeds.
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);
  DeepTuneSearcher searcher(&space);
  SessionOptions options;
  options.max_iterations = 150;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 0x88;
  RunSearch(&bench, &searcher, options);

  std::vector<TrialRecord> history;
  Rng rng(1);
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  std::vector<double> impacts = searcher.ParameterImpacts(context);
  double documented_mean = 0.0;
  size_t documented_count = 0;
  for (const std::string& name : DocumentedHighImpactParams()) {
    auto index = space.Find(name);
    ASSERT_TRUE(index.has_value()) << name;
    documented_mean += impacts[*index];
    ++documented_count;
  }
  documented_mean /= static_cast<double>(documented_count);
  double median = Quantile(impacts, 0.5);
  EXPECT_GT(documented_mean, median);
}

TEST(WayfinderApi, MakeSearcherKnowsAllAlgorithms) {
  ConfigSpace space = BuildLinuxSearchSpace();
  for (const char* name : {"random", "grid", "bayesopt", "causal", "deeptune"}) {
    std::unique_ptr<Searcher> searcher = MakeSearcher(name, &space);
    ASSERT_NE(searcher, nullptr) << name;
    EXPECT_EQ(searcher->Name(), name);
  }
  EXPECT_EQ(MakeSearcher("simulated-annealing", &space), nullptr);
}

TEST(WayfinderApi, RunJobTextEndToEnd) {
  const char* job = R"(name: api-test
os: linux
application: nginx
metric: performance
budget:
  iterations: 25
search:
  algorithm: random
  favor: runtime
  seed: 5
freeze:
  - name: kernel.randomize_va_space
    value: 2
)";
  JobRunResult result = RunJobText(job);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.session.history.size(), 25u);
  // The frozen security parameter was never varied (§3.5).
  auto index = result.space->Find("kernel.randomize_va_space");
  ASSERT_TRUE(index.has_value());
  for (const TrialRecord& trial : result.session.history) {
    EXPECT_EQ(trial.config.Raw(*index), 2);
  }
}

std::string TransferJob(const std::string& metric_block, const std::string& algorithm) {
  return "name: transfer\nos: unikraft\napplication: nginx\n" + metric_block +
         "budget:\n  iterations: 16\nsearch:\n  algorithm: " + algorithm +
         "\n  seed: 9\n";
}

// `metric: multi` jobs reach the model the way deeptune jobs do (§3.3): one
// multi job saves its trained model, a second warm-starts from it, and a
// model_out that the searcher cannot honor fails before the run starts.
TEST(WayfinderApi, MultiMetricJobsTransferModels) {
  const std::string multi_job = TransferJob(
      "metric: multi\nmetrics:\n  - name: throughput\n    weight: 1.0\n"
      "  - name: memory\n    weight: 0.5\n",
      "deeptune");
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "wf_core_test_multi_job.wfnn").string();
  const std::string random_path = (dir / "wf_core_test_random_job.wfnn").string();
  std::filesystem::remove(path);
  std::filesystem::remove(random_path);

  JobRunResult donor = RunJobText(multi_job, "", path);
  ASSERT_TRUE(donor.ok) << donor.error;
  ASSERT_TRUE(std::filesystem::exists(path)) << "model_out wrote no model";

  JobRunResult adopter = RunJobText(multi_job, path);
  EXPECT_TRUE(adopter.ok) << adopter.error;
  EXPECT_EQ(adopter.session.history.size(), 16u);

  // The job's searcher takes the model and reports the transfer.
  JobParseResult parsed = ParseJobText(multi_job);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ConfigSpace space = BuildJobSpace(parsed.spec);
  std::string error;
  std::unique_ptr<Searcher> searcher = MakeJobSearcher(parsed.spec, &space, &error);
  auto* deeptune = dynamic_cast<DeepTuneSearcher*>(searcher.get());
  ASSERT_NE(deeptune, nullptr) << error;
  EXPECT_FALSE(deeptune->transferred());
  ASSERT_TRUE(deeptune->LoadModel(path));
  EXPECT_TRUE(deeptune->transferred());

  // A single-target job's model has one head, so the two-head model is
  // refused.
  JobRunResult one_head = RunJobText(TransferJob("metric: performance\n", "deeptune"), path);
  EXPECT_FALSE(one_head.ok);

  // Random search has no model to save: an error, and no trial runs.
  JobRunResult random =
      RunJobText(TransferJob("metric: performance\n", "random"), "", random_path);
  EXPECT_FALSE(random.ok);
  EXPECT_TRUE(random.session.history.empty());
  EXPECT_FALSE(std::filesystem::exists(random_path));
  std::filesystem::remove(path);
  std::filesystem::remove(random_path);
}

TEST(WayfinderApi, RejectsUnknownAlgorithmAndBadYaml) {
  JobRunResult bad_algo = RunJobText("name: x\nsearch:\n  algorithm: nope\n");
  EXPECT_FALSE(bad_algo.ok);
  JobRunResult bad_yaml = RunJobText("a:\n\tb: tabs\n");
  EXPECT_FALSE(bad_yaml.ok);
}

}  // namespace
}  // namespace wayfinder
