// Tests for the simulated substrate: performance, crash, and memory models,
// the testbench, and the Cozart-style debloater. Several tests check the
// *calibration* claims DESIGN.md makes against the paper.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/configspace/linux_space.h"
#include "src/configspace/unikraft_space.h"
#include "src/simos/cozart.h"
#include "src/simos/testbench.h"
#include "src/util/stats.h"

namespace wayfinder {
namespace {

class SimosFixture : public ::testing::Test {
 protected:
  // Same seeds a default-constructed Testbench derives, so the fixture
  // tests the exact models the search experiments run against.
  SimosFixture()
      : space_(BuildLinuxSearchSpace()),
        perf_(&space_),
        crash_(&space_, HashCombine(0xbe27c4, 0xc4a5)),
        memory_(&space_) {}

  ConfigSpace space_;
  PerfModel perf_;
  CrashModel crash_;
  MemoryModel memory_;
};

TEST_F(SimosFixture, DefaultConfigHitsBaselines) {
  Configuration def = space_.DefaultConfiguration();
  for (const AppProfile& app : AllApps()) {
    EXPECT_NEAR(perf_.MeanMetric(app.id, def), app.baseline, app.baseline * 1e-9) << app.name;
    EXPECT_NEAR(perf_.Goodness(app.id, def), 0.0, 1e-9) << app.name;
  }
}

TEST_F(SimosFixture, PerfModelIsDeterministic) {
  Rng rng(4);
  Configuration config = space_.RandomConfiguration(rng);
  double a = perf_.MeanMetric(AppId::kNginx, config);
  double b = perf_.MeanMetric(AppId::kNginx, config);
  EXPECT_DOUBLE_EQ(a, b);
  PerfModel other(&space_);
  EXPECT_DOUBLE_EQ(other.MeanMetric(AppId::kNginx, config), a);
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// A Testbench builds the PerfModel tables of its own app only. Every app's
// tables derive from (seed, parameter name, app), so the one-app model's
// metrics equal the four-app model's bit for bit, on every substrate and
// under a drifted seed; asking it about another app aborts.
TEST(PerfModelOneApp, MatchesTheFourAppModelBitForBit) {
  ConfigSpace linux_space = BuildLinuxSearchSpace();
  ConfigSpace unikraft_space = BuildUnikraftSpace();
  struct Case {
    const ConfigSpace* space;
    Substrate substrate;
    uint64_t seed;
  };
  const Case cases[] = {
      {&linux_space, Substrate::kLinuxKvm, 0xbe27c4},
      {&linux_space, Substrate::kLinuxRiscvQemu, 0xbe27c4},
      {&linux_space, Substrate::kLinuxKvm, HashCombine(0xbe27c4, 0xd21f7)},
      {&unikraft_space, Substrate::kUnikraftKvm, 0x5eedf00d},
  };
  for (const Case& c : cases) {
    const PerfModel all(c.space, c.substrate, c.seed);
    for (const AppProfile& app : AllApps()) {
      SCOPED_TRACE(app.name);
      const PerfModel one(c.space, c.substrate, c.seed, app.id);
      EXPECT_EQ(Bits(one.BaselineMetric(app.id)), Bits(all.BaselineMetric(app.id)));
      Rng config_rng(7);
      for (int i = 0; i < 20; ++i) {
        Configuration config = c.space->RandomConfiguration(config_rng);
        EXPECT_EQ(Bits(one.MeanMetric(app.id, config)), Bits(all.MeanMetric(app.id, config)));
        Rng run_one(100 + i);
        Rng run_all(100 + i);
        EXPECT_EQ(Bits(one.SampleMetric(app.id, config, run_one)),
                  Bits(all.SampleMetric(app.id, config, run_all)));
      }
    }
  }
}

TEST(PerfModelOneApp, AnotherAppAborts) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kRedis);
  EXPECT_GT(bench.perf_model().BaselineMetric(AppId::kRedis), 0.0);
  EXPECT_DEATH(bench.perf_model().BaselineMetric(AppId::kNginx), "no tables");
}

TEST_F(SimosFixture, SampleNoiseMatchesAppCv) {
  Configuration def = space_.DefaultConfiguration();
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 2000; ++i) {
    stats.Add(std::log(perf_.SampleMetric(AppId::kNginx, def, rng)));
  }
  EXPECT_NEAR(stats.StdDev(), GetApp(AppId::kNginx).noise_cv, 0.005);
}

TEST_F(SimosFixture, DocumentedParamsImproveNginx) {
  // §4.1: somaxconn, rmem_default, keepalive — raising them toward their
  // tuned values must beat the default for Nginx.
  Configuration tuned = space_.DefaultConfiguration();
  tuned.Set("net.core.somaxconn", 8192);
  tuned.Set("net.core.rmem_default", 4 * 1024 * 1024);
  tuned.Set("net.ipv4.tcp_keepalive_time", 300);
  EXPECT_GT(perf_.MeanMetric(AppId::kNginx, tuned), GetApp(AppId::kNginx).baseline * 1.02);
}

TEST_F(SimosFixture, DebugKnobsHurtNginx) {
  // §4.1 negative parameters: verbosity, printk delay, block dump.
  Configuration noisy = space_.DefaultConfiguration();
  noisy.Set("kernel.printk", 7);
  noisy.Set("kernel.printk_delay", 5000);
  noisy.Set("vm.block_dump", 1);
  EXPECT_LT(perf_.MeanMetric(AppId::kNginx, noisy), GetApp(AppId::kNginx).baseline * 0.97);
}

TEST_F(SimosFixture, NpbBarelyReactsToOsConfig) {
  // MaxHeadroom sums the whole space (the runtime-anchored target plus the
  // rarely-explored boot/compile tail), so the bound is a little above the
  // calibrated log(1.025) runtime target.
  EXPECT_LT(perf_.MaxHeadroom(AppId::kNpb), 0.07);
  EXPECT_GT(perf_.MaxHeadroom(AppId::kNginx), 5.0 * perf_.MaxHeadroom(AppId::kNpb));
}

TEST_F(SimosFixture, SqliteDefaultNearOptimal) {
  EXPECT_LT(perf_.MaxHeadroom(AppId::kSqlite), 0.03);
}

TEST_F(SimosFixture, TrueImportanceCorrelatesAcrossNetApps) {
  // The Figure 5 premise: Nginx and Redis share impactful parameters; NPB
  // does not.
  std::vector<double> nginx = perf_.TrueImportance(AppId::kNginx);
  std::vector<double> redis = perf_.TrueImportance(AppId::kRedis);
  std::vector<double> npb = perf_.TrueImportance(AppId::kNpb);
  double nginx_redis = PearsonCorrelation(nginx, redis);
  double nginx_npb = PearsonCorrelation(nginx, npb);
  EXPECT_GT(nginx_redis, 0.7);
  EXPECT_LT(nginx_npb, nginx_redis - 0.2);
}

TEST_F(SimosFixture, RandomCrashRateAboutOneThird) {
  // §2.2: "about a third of randomly generated configurations crash".
  Rng rng(6);
  size_t crashes = 0;
  const size_t kTrials = 1500;
  for (size_t i = 0; i < kTrials; ++i) {
    Configuration config = space_.RandomConfiguration(rng, SampleOptions::FavorRuntime());
    crashes += crash_.CheckDeterministic(AppId::kNginx, config).crashed ? 1 : 0;
  }
  double rate = static_cast<double>(crashes) / static_cast<double>(kTrials);
  EXPECT_GT(rate, 0.22);
  EXPECT_LT(rate, 0.45);
}

TEST_F(SimosFixture, DefaultConfigurationNeverCrashes) {
  Configuration def = space_.DefaultConfiguration();
  for (const AppProfile& app : AllApps()) {
    EXPECT_FALSE(crash_.CheckDeterministic(app.id, def).crashed) << app.name;
  }
}

TEST_F(SimosFixture, CrashIsDeterministicInConfig) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Configuration config = space_.RandomConfiguration(rng);
    CrashOutcome a = crash_.CheckDeterministic(AppId::kRedis, config);
    CrashOutcome b = crash_.CheckDeterministic(AppId::kRedis, config);
    ASSERT_EQ(a.crashed, b.crashed);
    ASSERT_EQ(a.reason, b.reason);
  }
}

TEST_F(SimosFixture, FragileZoneTriggersWithReason) {
  ASSERT_FALSE(crash_.fragile_zones().empty());
  const auto& zone = crash_.fragile_zones().front();
  Configuration config = space_.DefaultConfiguration();
  double inside = zone.high_side ? 1.0 : 0.0;
  config.SetRaw(zone.param, space_.DecodeParam(zone.param, inside));
  CrashOutcome outcome = crash_.CheckDeterministic(AppId::kNginx, config);
  EXPECT_TRUE(outcome.crashed);
  EXPECT_NE(outcome.reason.find(space_.Param(zone.param).name), std::string::npos);
}

TEST_F(SimosFixture, CuratedRules) {
  Configuration config = space_.DefaultConfiguration();
  config.Set("CONFIG_NR_CPUS", 2);  // Nginx runs on 16 cores.
  CrashOutcome outcome = crash_.CheckDeterministic(AppId::kNginx, config);
  EXPECT_TRUE(outcome.crashed);
  // Boots fine; fails when the multicore workload starts.
  EXPECT_EQ(outcome.stage, ParamPhase::kRuntime);
  // SQLite runs on 1 core: same config boots fine.
  EXPECT_FALSE(crash_.CheckDeterministic(AppId::kSqlite, config).crashed);
}

TEST_F(SimosFixture, EssentialPairCrashOnlyWhenBothDisabled) {
  const auto& pairs = crash_.essential_pairs();
  ASSERT_GE(pairs.size(), 2u);
  Configuration config = space_.DefaultConfiguration();
  config.SetRaw(pairs[0], 0);
  EXPECT_FALSE(crash_.CheckDeterministic(AppId::kNginx, config).crashed);
  config.SetRaw(pairs[1], 0);
  CrashOutcome outcome = crash_.CheckDeterministic(AppId::kNginx, config);
  EXPECT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.stage, ParamPhase::kBootTime);
}

TEST_F(SimosFixture, MemoryModelAnchoredAt210) {
  Configuration def = space_.DefaultConfiguration();
  EXPECT_NEAR(memory_.FootprintMb(def), 210.0, 1e-6);
}

TEST_F(SimosFixture, DisablingFeaturesShrinksFootprint) {
  Configuration config = space_.DefaultConfiguration();
  config.Set("CONFIG_MODULES", 0);
  config.Set("CONFIG_FTRACE", 0);
  double smaller = memory_.FootprintMb(config);
  EXPECT_LT(smaller, 210.0 - 8.0);
  // Figure 10 needs ~18 MB of removable mass in the compile-time subset.
  EXPECT_LT(memory_.MinFootprintMb(), 192.0);
}

TEST_F(SimosFixture, EnablingDebugGrowsFootprint) {
  Configuration config = space_.DefaultConfiguration();
  config.Set("CONFIG_KASAN", 1);
  EXPECT_GT(memory_.FootprintMb(config), 240.0);
}

TEST_F(SimosFixture, LogBufShiftScalesExponentially) {
  Configuration a = space_.DefaultConfiguration();
  Configuration b = a;
  a.Set("CONFIG_LOG_BUF_SHIFT", 12);
  b.Set("CONFIG_LOG_BUF_SHIFT", 25);
  EXPECT_GT(memory_.FootprintMb(b) - memory_.FootprintMb(a), 25.0);
}

// --- Testbench ---------------------------------------------------------------

TEST(TestbenchTest, SuccessfulTrialAdvancesClockThroughAllPhases) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);
  Rng rng(8);
  SimClock clock;
  TrialOutcome outcome = bench.Evaluate(space.DefaultConfiguration(), rng, &clock);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome.build_seconds, 0.0);
  EXPECT_GT(outcome.boot_seconds, 0.0);
  EXPECT_GT(outcome.run_seconds, 0.0);
  EXPECT_NEAR(clock.Now(), outcome.TotalSeconds(), 1e-9);
  EXPECT_GT(outcome.metric, 0.0);
  EXPECT_GT(outcome.memory_mb, 100.0);
}

TEST(TestbenchTest, SkipBuildSkipsBuildTime) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);
  Rng rng(9);
  SimClock clock;
  TrialOutcome outcome =
      bench.Evaluate(space.DefaultConfiguration(), rng, &clock, /*skip_build=*/true);
  EXPECT_TRUE(outcome.build_skipped);
  EXPECT_DOUBLE_EQ(outcome.build_seconds, 0.0);
}

TEST(TestbenchTest, RunCrashReportsStageAndReason) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);
  Rng rng(10);
  Configuration config = space.DefaultConfiguration();
  config.Set("CONFIG_SMP", 0);  // Boots, but the 16-core workload fails.
  TrialOutcome outcome = bench.Evaluate(config, rng, nullptr);
  EXPECT_EQ(outcome.status, TrialOutcome::Status::kRunCrashed);
  EXPECT_FALSE(outcome.failure_reason.empty());
}

TEST(TestbenchTest, BootFailureFromEssentialTristate) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);
  auto essential = bench.crash_model().essential_tristate();
  ASSERT_TRUE(essential.has_value());
  Configuration config = space.DefaultConfiguration();
  config.SetRaw(*essential, 0);
  Rng rng(12);
  TrialOutcome outcome = bench.Evaluate(config, rng, nullptr);
  EXPECT_EQ(outcome.status, TrialOutcome::Status::kBootFailed);
  // "m" (module) still boots.
  config.SetRaw(*essential, 1);
  EXPECT_FALSE(bench.crash_model().CheckDeterministic(AppId::kNginx, config).crashed);
}

TEST(TestbenchTest, UnikraftBuildsFaster) {
  ConfigSpace linux_space = BuildLinuxSearchSpace();
  ConfigSpace uk_space = BuildUnikraftSpace();
  Testbench linux_bench(&linux_space, AppId::kNginx);
  TestbenchOptions uk_options;
  uk_options.substrate = Substrate::kUnikraftKvm;
  Testbench uk_bench(&uk_space, AppId::kNginx, uk_options);
  Rng rng(11);
  RunningStats linux_build;
  RunningStats uk_build;
  for (int i = 0; i < 50; ++i) {
    linux_build.Add(linux_bench.SampleBuildSeconds(rng));
    uk_build.Add(uk_bench.SampleBuildSeconds(rng));
  }
  EXPECT_GT(linux_build.Mean(), 2.0 * uk_build.Mean());
}

// --- Cozart ---------------------------------------------------------------------

TEST(CozartTest, DisablesOnlyUnusedNonEssentialOptions) {
  ConfigSpace space = BuildLinuxSearchSpace();
  CrashModel crash(&space, HashCombine(0xbe27c4, 0xc4a5));
  CozartDebloater cozart(&space, &crash);
  DebloatResult result = cozart.Debloat(AppId::kNginx);
  EXPECT_GT(result.disabled.size(), 0u);
  const AppProfile& nginx = GetApp(AppId::kNginx);
  for (size_t index : result.disabled) {
    const ParamSpec& spec = space.Param(index);
    EXPECT_EQ(spec.phase, ParamPhase::kCompileTime);
    EXPECT_LT(nginx.weights.For(spec.subsystem), 0.06) << spec.name;
    EXPECT_FALSE(crash.IsEssentialCompileOption(index)) << spec.name;
    EXPECT_EQ(result.baseline.Raw(index), 0);
  }
}

TEST(CozartTest, BaselineStillBootsAndShrinksMemory) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);
  CozartDebloater cozart(&space, &bench.crash_model());
  DebloatResult result = cozart.Debloat(AppId::kNginx);
  EXPECT_FALSE(bench.crash_model().CheckDeterministic(AppId::kNginx, result.baseline).crashed);
  EXPECT_LT(bench.memory_model().FootprintMb(result.baseline),
            bench.memory_model().FootprintMb(space.DefaultConfiguration()));
  // Debloating also helps performance a little (the bloat-drag term).
  EXPECT_GT(bench.perf_model().MeanMetric(AppId::kNginx, result.baseline),
            bench.perf_model().BaselineMetric(AppId::kNginx));
}

TEST(CozartTest, FreezeDisabledShrinksSearchSpace) {
  ConfigSpace space = BuildLinuxSearchSpace();
  CrashModel crash(&space, 1);
  CozartDebloater cozart(&space, &crash);
  DebloatResult result = cozart.Debloat(AppId::kNginx);
  size_t frozen = CozartDebloater::FreezeDisabled(&space, result);
  EXPECT_EQ(frozen, result.disabled.size());
  EXPECT_EQ(space.FrozenCount(), frozen);
}

// Property: per-app crash rates all land in the paper's band.
class CrashRateTest : public ::testing::TestWithParam<AppId> {};

TEST_P(CrashRateTest, AboutOneThirdForRandomConfigs) {
  ConfigSpace space = BuildLinuxSearchSpace();
  CrashModel crash(&space, HashCombine(0xbe27c4, 0xc4a5));
  Rng rng(StableHash(GetApp(GetParam()).name));
  size_t crashes = 0;
  for (int i = 0; i < 1000; ++i) {
    Configuration config = space.RandomConfiguration(rng, SampleOptions::FavorRuntime());
    crashes += crash.CheckDeterministic(GetParam(), config).crashed ? 1 : 0;
  }
  double rate = static_cast<double>(crashes) / 1000.0;
  EXPECT_GT(rate, 0.18) << GetApp(GetParam()).name;
  EXPECT_LT(rate, 0.48) << GetApp(GetParam()).name;
}

INSTANTIATE_TEST_SUITE_P(Apps, CrashRateTest,
                         ::testing::Values(AppId::kNginx, AppId::kRedis, AppId::kSqlite,
                                           AppId::kNpb),
                         [](const ::testing::TestParamInfo<AppId>& info) {
                           return GetApp(info.param).name;
                         });

}  // namespace
}  // namespace wayfinder
