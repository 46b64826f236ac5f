// Cross-feature integration tests: the new subsystems composed the way a
// real deployment would use them — frozen security parameters, deployment
// checks, checkpoints/resume, multi-metric search, fault injection, and the
// extra searchers, all in one session at a time.
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "src/configspace/linux_space.h"
#include "src/configspace/unikraft_space.h"
#include "src/core/deeptune.h"
#include "src/core/wayfinder_api.h"
#include "src/platform/checkpoint.h"
#include "src/simos/testbench.h"

namespace wayfinder {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(CrossFeature, ResumedDeepTuneSessionKeepsFreezeAndFinishes) {
  ConfigSpace space = BuildLinuxSearchSpace();
  ASSERT_TRUE(space.Freeze("kernel.randomize_va_space", 2));

  // First half with DeepTune, checkpointed to disk and loaded back.
  std::string path = TempPath("wf_cross_freeze_resume.txt");
  {
    auto searcher = MakeSearcher("deeptune", &space, 0xc3);
    Testbench bench(&space, AppId::kNginx);
    SessionOptions options;
    options.max_iterations = 12;
    options.sample_options = SampleOptions::FavorRuntime();
    options.seed = 203;
    SessionResult half = RunSearch(&bench, searcher.get(), options);
    ASSERT_TRUE(SaveCheckpoint(half.history, path));
  }
  CheckpointLoadResult loaded = LoadCheckpoint(space, path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  std::vector<TrialRecord> prior = std::move(loaded.history);

  auto searcher = MakeSearcher("deeptune", &space, 0xc4);
  Testbench bench(&space, AppId::kNginx);
  SessionOptions options;
  options.max_iterations = 24;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 204;
  SearchSession session(&bench, searcher.get(), options);
  session.Resume(prior);
  SessionResult result = session.Run();
  EXPECT_EQ(result.history.size(), 24u);
  for (const TrialRecord& trial : result.history) {
    ASSERT_EQ(trial.config.Get("kernel.randomize_va_space"), 2);
  }
}

TEST(CrossFeature, MultiMetricSearchRespectsFrozenParams) {
  ConfigSpace space = BuildLinuxSearchSpace();
  ASSERT_TRUE(space.Freeze("selinux", 1));

  DeepTuneOptions options;
  options.warmup = 4;
  options.pool_size = 24;
  options.model.steps_per_update = 2;
  DeepTuneSearcher searcher(
      &space, options, {MetricSpec::AppThroughput(), MetricSpec::MemoryFootprint()});
  Testbench bench(&space, AppId::kNginx);
  SessionOptions session;
  session.max_iterations = 20;
  session.sample_options = SampleOptions::FavorRuntime();
  session.seed = 205;
  SessionResult result = RunSearch(&bench, &searcher, session);
  EXPECT_EQ(result.history.size(), 20u);
  for (const TrialRecord& trial : result.history) {
    ASSERT_EQ(trial.config.Get("selinux"), 1);
  }
}

TEST(CrossFeature, DeployCheckComposesWithDeepTune) {
  ConfigSpace space = BuildLinuxSearchSpace();
  auto searcher = MakeSearcher("deeptune", &space, 0xc5);
  Testbench bench(&space, AppId::kNginx);
  SessionOptions options;
  options.max_iterations = 30;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 206;
  options.deploy_check = [](const Configuration& config, const TrialOutcome&) {
    return config.Get("vm.swappiness") <= 80;  // "Production" requirement.
  };
  SessionResult result = RunSearch(&bench, searcher.get(), options);
  EXPECT_EQ(result.history.size(), 30u);
  for (const TrialRecord& trial : result.history) {
    if (trial.HasObjective()) {
      EXPECT_LE(trial.config.Get("vm.swappiness"), 80);
    }
  }
}

TEST(CrossFeature, FlakyTestbenchDoesNotDerailNewSearchers) {
  ConfigSpace space = BuildUnikraftSpace();
  TestbenchOptions bench_options;
  bench_options.substrate = Substrate::kUnikraftKvm;
  bench_options.faults.flake_prob = 0.25;
  for (const char* algorithm : {"annealing", "genetic", "smac"}) {
    Testbench bench(&space, AppId::kNginx, bench_options);
    auto searcher = MakeSearcher(algorithm, &space, 0xc6);
    SessionOptions options;
    options.max_iterations = 40;
    options.seed = 207;
    SessionResult result = RunSearch(&bench, searcher.get(), options);
    EXPECT_EQ(result.history.size(), 40u) << algorithm;
    EXPECT_NE(result.best(), nullptr) << algorithm;
  }
}

TEST(CrossFeature, MultiMetricJobWithFreezeEndToEnd) {
  JobParseResult parsed = ParseJobText(
      "name: cross-multi\n"
      "application: nginx\n"
      "metric: multi\n"
      "metrics:\n"
      "  - name: throughput\n"
      "    weight: 1.0\n"
      "  - name: memory\n"
      "    weight: 1.0\n"
      "budget:\n"
      "  iterations: 15\n"
      "search:\n"
      "  algorithm: deeptune\n"
      "  favor: runtime\n"
      "  seed: 9\n"
      "freeze:\n"
      "  - name: kernel.randomize_va_space\n"
      "    value: 2\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  JobRunResult run = RunJob(parsed.spec);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.session.history.size(), 15u);
  for (const TrialRecord& trial : run.session.history) {
    ASSERT_EQ(trial.config.Get("kernel.randomize_va_space"), 2);
  }
}

TEST(CrossFeature, MakeJobSearcherSelectsTheMultiMetricVariant) {
  ConfigSpace space = BuildLinuxSearchSpace();
  JobSpec spec;
  spec.algorithm = "deeptune";
  spec.metrics.push_back({"throughput", 1.0});
  spec.metrics.push_back({"memory", 0.5});
  std::string error;
  auto searcher = MakeJobSearcher(spec, &space, &error);
  ASSERT_NE(searcher, nullptr) << error;
  EXPECT_EQ(searcher->Name(), "deeptune-multi");

  spec.metrics.clear();
  searcher = MakeJobSearcher(spec, &space, &error);
  ASSERT_NE(searcher, nullptr) << error;
  EXPECT_EQ(searcher->Name(), "deeptune");
}

// Session-completion sweep: every new searcher on every application.
struct SweepCase {
  const char* algorithm;
  AppId app;
};

class NewSearcherAppSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(NewSearcherAppSweep, SessionCompletesWithValidConfigs) {
  ConfigSpace space = BuildUnikraftSpace();
  auto searcher = MakeSearcher(GetParam().algorithm, &space, 0xc7);
  ASSERT_NE(searcher, nullptr);
  Testbench bench(&space, GetParam().app,
                  TestbenchOptions{.substrate = Substrate::kUnikraftKvm, .seed = 208});
  SessionOptions options;
  options.max_iterations = 25;
  options.seed = 209;
  SearchSession session(&bench, searcher.get(), options);
  while (session.Step()) {
    ASSERT_TRUE(space.IsValid(session.history().back().config));
  }
  EXPECT_EQ(session.history().size(), 25u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NewSearcherAppSweep,
    ::testing::Values(SweepCase{"annealing", AppId::kNginx},
                      SweepCase{"annealing", AppId::kRedis},
                      SweepCase{"annealing", AppId::kSqlite},
                      SweepCase{"annealing", AppId::kNpb},
                      SweepCase{"genetic", AppId::kNginx},
                      SweepCase{"genetic", AppId::kRedis},
                      SweepCase{"genetic", AppId::kSqlite},
                      SweepCase{"genetic", AppId::kNpb},
                      SweepCase{"hillclimb", AppId::kNginx},
                      SweepCase{"hillclimb", AppId::kRedis},
                      SweepCase{"hillclimb", AppId::kSqlite},
                      SweepCase{"hillclimb", AppId::kNpb},
                      SweepCase{"smac", AppId::kNginx},
                      SweepCase{"smac", AppId::kRedis},
                      SweepCase{"smac", AppId::kSqlite},
                      SweepCase{"smac", AppId::kNpb}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return std::string(info.param.algorithm) + "_" +
             std::string(GetApp(info.param.app).name);
    });

}  // namespace
}  // namespace wayfinder
