// End-to-end integration tests: full search sessions across modules, the
// paper's headline claims at reduced scale, and determinism of whole runs.
#include <gtest/gtest.h>

#include <cmath>

#include "src/configspace/linux_space.h"
#include "src/configspace/unikraft_space.h"
#include "src/core/wayfinder_api.h"
#include "src/simos/cozart.h"

namespace wayfinder {
namespace {

TEST(Integration, FullSessionIsDeterministic) {
  auto run_once = [] {
    ConfigSpace space = BuildLinuxSearchSpace();
    Testbench bench(&space, AppId::kNginx);
    std::unique_ptr<Searcher> searcher = MakeSearcher("deeptune", &space, 1234);
    SessionOptions options;
    options.max_iterations = 40;
    options.sample_options = SampleOptions::FavorRuntime();
    options.seed = 99;
    return RunSearch(&bench, searcher.get(), options);
  };
  SessionResult a = run_once();
  SessionResult b = run_once();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].config.Hash(), b.history[i].config.Hash()) << i;
    EXPECT_EQ(a.history[i].crashed(), b.history[i].crashed()) << i;
    if (a.history[i].HasObjective() && b.history[i].HasObjective()) {
      EXPECT_DOUBLE_EQ(a.history[i].objective, b.history[i].objective) << i;
    }
  }
}

TEST(Integration, HeadlineClaimReducedScale) {
  // C1 at reduced scale: DeepTune finds a configuration well above the
  // default baseline for Nginx, with a crash rate well under random's.
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);
  std::unique_ptr<Searcher> searcher = MakeSearcher("deeptune", &space);
  SessionOptions options;
  options.max_iterations = 150;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 21;
  SessionResult result = RunSearch(&bench, searcher.get(), options);
  ASSERT_NE(result.best(), nullptr);
  EXPECT_GT(result.best()->outcome.metric, 15731.0 * 1.05);
  EXPECT_LT(result.CrashRate(), 0.2);
}

TEST(Integration, MemorySearchReducesFootprint) {
  // Figure 10's claim at reduced scale: compile-time search shrinks the
  // image below the 210 MB default.
  ConfigSpace space = BuildLinuxSearchSpace();
  TestbenchOptions bench_options;
  bench_options.substrate = Substrate::kLinuxRiscvQemu;
  Testbench bench(&space, AppId::kNginx, bench_options);
  std::unique_ptr<Searcher> searcher = MakeSearcher("deeptune", &space);
  SessionOptions options;
  options.max_iterations = 80;
  options.objective = ObjectiveKind::kMemoryFootprint;
  options.sample_options = SampleOptions::FavorCompileTime();
  options.seed = 31;
  SessionResult result = RunSearch(&bench, searcher.get(), options);
  ASSERT_NE(result.best(), nullptr);
  EXPECT_LT(result.best()->outcome.memory_mb, 205.0);
}

TEST(Integration, CozartThenWayfinderScoreSearch) {
  // Figure 11's pipeline: debloat, freeze, then co-optimize the score.
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench probe(&space, AppId::kNginx);
  CozartDebloater cozart(&space, &probe.crash_model());
  DebloatResult debloat = cozart.Debloat(AppId::kNginx);
  ASSERT_GT(debloat.disabled.size(), 0u);
  CozartDebloater::FreezeDisabled(&space, debloat);

  Testbench bench(&space, AppId::kNginx);
  std::unique_ptr<Searcher> searcher = MakeSearcher("deeptune", &space);
  SessionOptions options;
  options.max_iterations = 60;
  options.objective = ObjectiveKind::kScore;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 41;
  SessionResult result = RunSearch(&bench, searcher.get(), options);
  ASSERT_NE(result.best(), nullptr);
  // Every explored configuration keeps the debloated options off.
  for (const TrialRecord& trial : result.history) {
    for (size_t index : debloat.disabled) {
      ASSERT_EQ(trial.config.Raw(index), 0);
    }
  }
  EXPECT_GT(result.best()->objective, 0.0);
}

TEST(Integration, UnikraftSessionOutperformsBaseline) {
  ConfigSpace space = BuildUnikraftSpace();
  TestbenchOptions bench_options;
  bench_options.substrate = Substrate::kUnikraftKvm;
  Testbench bench(&space, AppId::kNginx, bench_options);
  std::unique_ptr<Searcher> searcher = MakeSearcher("deeptune", &space);
  SessionOptions options;
  options.max_iterations = 120;
  options.seed = 51;
  SessionResult result = RunSearch(&bench, searcher.get(), options);
  ASSERT_NE(result.best(), nullptr);
  // Unikernel configuration headroom is large (§4.4): 1.5x is conservative.
  EXPECT_GT(result.best()->outcome.metric, 12000.0 * 1.5);
}

// Property sweep: every algorithm completes a session on every app without
// invalid configurations.
struct AlgoApp {
  const char* algorithm;
  AppId app;
};

class AllPairsTest : public ::testing::TestWithParam<AlgoApp> {};

TEST_P(AllPairsTest, SessionCompletesWithValidConfigs) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, GetParam().app);
  std::unique_ptr<Searcher> searcher = MakeSearcher(GetParam().algorithm, &space);
  ASSERT_NE(searcher, nullptr);
  SessionOptions options;
  options.max_iterations = 25;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = StableHash(GetParam().algorithm);
  SessionResult result = RunSearch(&bench, searcher.get(), options);
  EXPECT_EQ(result.history.size(), 25u);
  for (const TrialRecord& trial : result.history) {
    ASSERT_TRUE(space.IsValid(trial.config));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllPairsTest,
    ::testing::Values(AlgoApp{"random", AppId::kNginx}, AlgoApp{"random", AppId::kSqlite},
                      AlgoApp{"grid", AppId::kNginx}, AlgoApp{"bayesopt", AppId::kRedis},
                      AlgoApp{"causal", AppId::kNpb}, AlgoApp{"deeptune", AppId::kRedis},
                      AlgoApp{"deeptune", AppId::kNpb}),
    [](const ::testing::TestParamInfo<AlgoApp>& info) {
      return std::string(info.param.algorithm) + "_" + GetApp(info.param.app).name;
    });

}  // namespace
}  // namespace wayfinder
