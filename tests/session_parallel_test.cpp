// Determinism contract of the batch session executor:
//
//   * parallel_evaluations = 1 is the serial loop, bit for bit (StepBatch
//     dispatches straight to Step);
//   * at fixed parallel_evaluations, two runs give bit-identical histories,
//     pinned for DeepTune, random, and multi-metric sessions under lock-step
//     and for DeepTune and random under the sliding schedule;
//   * rounds commit in virtual-time order with ties broken by batch index;
//   * Resume() at a round boundary followed by batched Step()s reproduces
//     the uninterrupted batched run, also right after a drift re-validation
//     trial (lock-step keys its entropy on trials committed).
#include <gtest/gtest.h>

#include <cmath>

#include "src/configspace/linux_space.h"
#include "src/configspace/unikraft_space.h"
#include "src/core/deeptune.h"
#include "src/core/wayfinder_api.h"
#include "src/platform/random_search.h"
#include "src/platform/session.h"

namespace wayfinder {
namespace {

// Bitwise history equality over everything deterministic (searcher_seconds
// is wall clock and excluded by design).
void ExpectSameHistory(const std::vector<TrialRecord>& a,
                       const std::vector<TrialRecord>& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].config.Hash(), b[i].config.Hash()) << label << " trial " << i;
    ASSERT_EQ(a[i].iteration, b[i].iteration) << label << " trial " << i;
    ASSERT_EQ(static_cast<int>(a[i].outcome.status), static_cast<int>(b[i].outcome.status))
        << label << " trial " << i;
    if (std::isnan(a[i].objective)) {
      ASSERT_TRUE(std::isnan(b[i].objective)) << label << " trial " << i;
    } else {
      ASSERT_EQ(a[i].objective, b[i].objective) << label << " trial " << i;
    }
    ASSERT_EQ(a[i].sim_time_end, b[i].sim_time_end) << label << " trial " << i;
    ASSERT_EQ(a[i].outcome.metric, b[i].outcome.metric) << label << " trial " << i;
    ASSERT_EQ(a[i].outcome.memory_mb, b[i].outcome.memory_mb) << label << " trial " << i;
  }
}

SessionResult RunLinuxSession(const std::string& algorithm, size_t parallel,
                              size_t iterations = 24) {
  ConfigSpace space = BuildLinuxSearchSpace();
  TestbenchOptions bench_options;
  bench_options.seed = 0x7e57;
  Testbench bench(&space, AppId::kNginx, bench_options);
  auto searcher = MakeSearcher(algorithm, &space, 0xabc);
  SessionOptions options;
  options.max_iterations = iterations;
  options.seed = 0x90;
  options.parallel_evaluations = parallel;
  return RunSearch(&bench, searcher.get(), options);
}

TEST(SessionParallel, ParallelOneIsExactlyTheSerialLoop) {
  // Run() at parallel_evaluations=1 vs a manual Step() loop: the batch
  // dispatcher must route through the identical serial path.
  ConfigSpace space = BuildLinuxSearchSpace();
  SessionOptions options;
  options.max_iterations = 20;
  options.seed = 0x51;

  Testbench bench_a(&space, AppId::kNginx);
  RandomSearcher searcher_a;
  SearchSession manual(&bench_a, &searcher_a, options);
  while (manual.Step()) {
  }
  SessionResult stepped = manual.Finish();

  Testbench bench_b(&space, AppId::kNginx);
  RandomSearcher searcher_b;
  options.parallel_evaluations = 1;
  SessionResult batched = RunSearch(&bench_b, &searcher_b, options);

  ExpectSameHistory(stepped.history, batched.history, "serial-vs-dispatch");
  EXPECT_EQ(stepped.builds, batched.builds);
  EXPECT_EQ(stepped.builds_skipped, batched.builds_skipped);
  EXPECT_EQ(stepped.crashes, batched.crashes);
  EXPECT_EQ(stepped.total_sim_seconds, batched.total_sim_seconds);
}

// At parallel_evaluations=4, two lock-step runs produce bit-identical
// histories for DeepTune, random, and multi-metric sessions.
class LockStepDeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LockStepDeterminismTest, TwoRunsAreBitIdentical) {
  SessionResult first = RunLinuxSession(GetParam(), 4);
  SessionResult second = RunLinuxSession(GetParam(), 4);
  ExpectSameHistory(first.history, second.history, std::string(GetParam()) + " repeat");
  EXPECT_EQ(first.builds, second.builds) << GetParam();
  EXPECT_EQ(first.crashes, second.crashes) << GetParam();
  EXPECT_EQ(first.total_sim_seconds, second.total_sim_seconds) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Searchers, LockStepDeterminismTest,
                         ::testing::Values("deeptune", "random"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(SessionParallel, MultiMetricHistoryIsDeterministic) {
  auto run = [] {
    ConfigSpace space = BuildLinuxSearchSpace();
    TestbenchOptions bench_options;
    bench_options.seed = 0x7e58;
    Testbench bench(&space, AppId::kNginx, bench_options);
    DeepTuneSearcher searcher(
        &space, {}, {MetricSpec::AppThroughput(1.0), MetricSpec::MemoryFootprint(0.5)});
    SessionOptions options;
    options.max_iterations = 20;
    options.seed = 0x91;
    options.objective = ObjectiveKind::kScore;
    options.parallel_evaluations = 4;
    return RunSearch(&bench, &searcher, options);
  };
  SessionResult first = run();
  SessionResult second = run();
  ExpectSameHistory(first.history, second.history, "multi repeat");
}

TEST(SessionParallel, RoundsCommitInVirtualTimeOrder) {
  SessionResult result = RunLinuxSession("random", 4, 24);
  ASSERT_EQ(result.history.size(), 24u);
  for (size_t round = 0; round < 24; round += 4) {
    double previous = -1.0;
    for (size_t i = round; i < round + 4; ++i) {
      EXPECT_EQ(result.history[i].iteration, i);
      // Within a round, commit order is ascending virtual finish time.
      EXPECT_GE(result.history[i].sim_time_end, previous) << "trial " << i;
      previous = result.history[i].sim_time_end;
    }
  }
  // Rounds stack in time: each round starts where the previous one ended.
  EXPECT_EQ(result.total_sim_seconds, result.history.back().sim_time_end);
}

TEST(SessionParallel, BatchBudgetIsExact) {
  // A budget that is not a multiple of the batch width still lands exactly.
  SessionResult result = RunLinuxSession("random", 4, 22);
  EXPECT_EQ(result.history.size(), 22u);
  size_t builds_accounted = result.builds + result.builds_skipped;
  EXPECT_EQ(builds_accounted, 22u);
}

TEST(SessionParallel, ResumeAtRoundBoundaryReproducesUninterruptedRun) {
  // Uninterrupted batched run vs Resume(first 2 rounds) + batched Step()s:
  // identical histories. Batch rounds draw counter-derived entropy, so the
  // continuation does not depend on how many draws the replayed prefix's
  // proposals once consumed.
  ConfigSpace space = BuildLinuxSearchSpace();
  SessionOptions options;
  options.max_iterations = 24;
  options.seed = 0x77;
  options.parallel_evaluations = 4;

  TestbenchOptions bench_options;
  bench_options.seed = 0x7e59;
  Testbench bench_a(&space, AppId::kNginx, bench_options);
  RandomSearcher searcher_a;
  SessionResult uninterrupted = RunSearch(&bench_a, &searcher_a, options);
  ASSERT_EQ(uninterrupted.history.size(), 24u);

  std::vector<TrialRecord> prefix(uninterrupted.history.begin(),
                                  uninterrupted.history.begin() + 8);
  Testbench bench_b(&space, AppId::kNginx, bench_options);
  RandomSearcher searcher_b;
  SearchSession resumed(&bench_b, &searcher_b, options);
  resumed.Resume(prefix);
  while (resumed.StepBatch() > 0) {
  }
  SessionResult continued = resumed.Finish();

  ExpectSameHistory(uninterrupted.history, continued.history, "resume-continuation");
  EXPECT_EQ(uninterrupted.builds, continued.builds);
  EXPECT_EQ(uninterrupted.builds_skipped, continued.builds_skipped);
  EXPECT_EQ(uninterrupted.total_sim_seconds, continued.total_sim_seconds);
}

TEST(SessionParallel, ResumeThenBatchedStepsIsReproducible) {
  // Model-based searchers carry proposal-side state a replay cannot clone,
  // so their continuation is not required to equal the uninterrupted run —
  // but resume + batched stepping must be fully deterministic.
  ConfigSpace space = BuildUnikraftSpace();
  TestbenchOptions bench_options;
  bench_options.substrate = Substrate::kUnikraftKvm;
  bench_options.seed = 0x7e60;
  SessionOptions options;
  options.max_iterations = 30;
  options.seed = 0x78;
  options.parallel_evaluations = 4;

  std::vector<TrialRecord> prefix = [&] {
    Testbench bench(&space, AppId::kNginx, bench_options);
    auto searcher = MakeSearcher("deeptune", &space, 0xd7);
    SessionOptions prior = options;
    prior.max_iterations = 12;
    return RunSearch(&bench, searcher.get(), prior).history;
  }();
  ASSERT_EQ(prefix.size(), 12u);

  auto continue_from_prefix = [&] {
    Testbench bench(&space, AppId::kNginx, bench_options);
    auto searcher = MakeSearcher("deeptune", &space, 0xd7);
    SearchSession session(&bench, searcher.get(), options);
    session.Resume(prefix);
    while (session.StepBatch() > 0) {
    }
    return session.Finish();
  };
  SessionResult first = continue_from_prefix();
  SessionResult second = continue_from_prefix();
  ASSERT_EQ(first.history.size(), 30u);
  ExpectSameHistory(first.history, second.history, "deeptune resume determinism");
}

// ---------------------------------------------------------------------------
// Sliding-window executor (SessionOptions::sliding_window).

SessionResult RunSliding(const std::string& algorithm, bool sliding,
                         double fixed_trial_seconds, size_t iterations = 24) {
  ConfigSpace space = BuildLinuxSearchSpace();
  TestbenchOptions bench_options;
  bench_options.seed = 0x7e80;
  bench_options.fixed_trial_seconds = fixed_trial_seconds;
  Testbench bench(&space, AppId::kNginx, bench_options);
  auto searcher = MakeSearcher(algorithm, &space, 0xabd);
  SessionOptions options;
  options.max_iterations = iterations;
  options.seed = 0x92;
  options.parallel_evaluations = 4;
  options.sliding_window = sliding;
  return RunSearch(&bench, searcher.get(), options);
}

// The satellite's pin: with equal-duration trials every in-flight window
// finishes as one wave, and the sliding executor must reproduce the
// lock-step schedule bit for bit — proposals, commit order, timestamps.
class SlidingLockStepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SlidingLockStepTest, EqualDurationTrialsMatchLockStepBitForBit) {
  SessionResult lock_step = RunSliding(GetParam(), /*sliding=*/false, 10.0);
  SessionResult sliding = RunSliding(GetParam(), /*sliding=*/true, 10.0);
  ExpectSameHistory(lock_step.history, sliding.history,
                    std::string(GetParam()) + " sliding-vs-lockstep");
  EXPECT_EQ(lock_step.builds, sliding.builds) << GetParam();
  EXPECT_EQ(lock_step.builds_skipped, sliding.builds_skipped) << GetParam();
  EXPECT_EQ(lock_step.crashes, sliding.crashes) << GetParam();
  EXPECT_EQ(lock_step.total_sim_seconds, sliding.total_sim_seconds) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Searchers, SlidingLockStepTest,
                         ::testing::Values("random", "deeptune"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(SlidingWindow, VariedDurationsFillTheBudgetInVirtualTimeOrder) {
  // Realistic (varying) durations: waves are mostly singletons. The full
  // budget still lands, commits are monotone in virtual time, and the
  // window refills from the commit clock (no trial finishes before it
  // could have started).
  SessionResult result = RunSliding("random", /*sliding=*/true, 0.0, 22);
  ASSERT_EQ(result.history.size(), 22u);
  double previous = 0.0;
  for (const TrialRecord& trial : result.history) {
    EXPECT_GE(trial.sim_time_end, previous);
    previous = trial.sim_time_end;
  }
  EXPECT_EQ(result.builds + result.builds_skipped, 22u);
  EXPECT_EQ(result.total_sim_seconds, result.history.back().sim_time_end);
}

TEST(SlidingWindow, DeepTuneHistoryIsDeterministic) {
  // Same pin as LockStepDeterminismTest, under the sliding schedule.
  SessionResult first = RunSliding("deeptune", true, 0.0);
  SessionResult second = RunSliding("deeptune", true, 0.0);
  ExpectSameHistory(first.history, second.history, "sliding deeptune repeat");
}

TEST(SlidingWindow, DeterministicAcrossRuns) {
  SessionResult first = RunSliding("random", true, 0.0);
  SessionResult second = RunSliding("random", true, 0.0);
  ExpectSameHistory(first.history, second.history, "sliding repeat");
}

TEST(SlidingWindow, KeepsTheWindowFullerThanLockStep) {
  // With varying durations the sliding schedule never idles a slot waiting
  // for the round's straggler, so the same trial count finishes in no more
  // virtual time than lock-step gives it. (Same proposals cannot be
  // guaranteed — the schedules diverge — so compare makespan, not content.)
  SessionResult lock_step = RunSliding("random", false, 0.0, 32);
  SessionResult sliding = RunSliding("random", true, 0.0, 32);
  ASSERT_EQ(lock_step.history.size(), 32u);
  ASSERT_EQ(sliding.history.size(), 32u);
  EXPECT_LE(sliding.total_sim_seconds, lock_step.total_sim_seconds * 1.05);
}

TEST(SessionParallel, DedupAppliesWithinABatch) {
  // A degenerate one-parameter space forces duplicate proposals; dedup must
  // retry within the round (at most 8 times) and still complete.
  ConfigSpace space;
  space.Add(ParamSpec::Bool("a", ParamPhase::kRuntime, "net", false));
  Testbench bench(&space, AppId::kNginx);
  RandomSearcher searcher;
  SessionOptions options;
  options.max_iterations = 8;
  options.seed = 0x79;
  options.parallel_evaluations = 4;
  SessionResult result = RunSearch(&bench, &searcher, options);
  EXPECT_EQ(result.history.size(), 8u);
  for (const TrialRecord& trial : result.history) {
    EXPECT_TRUE(space.IsValid(trial.config));
  }
}

TEST(SessionParallel, DeployCheckRunsAtCommitTime) {
  // The deploy check executes during the commit wave and demotes a failed
  // deployment to a run crash.
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);
  RandomSearcher searcher;
  SessionOptions options;
  options.max_iterations = 12;
  options.seed = 0x7a;
  options.parallel_evaluations = 4;
  options.deploy_check = [](const Configuration&, const TrialOutcome& outcome) {
    return outcome.metric >= 60000.0;  // Demote the slower half.
  };
  SessionResult result = RunSearch(&bench, &searcher, options);
  EXPECT_GT(result.crashes, 0u);
  for (const TrialRecord& trial : result.history) {
    if (trial.crashed() && trial.outcome.failure_reason == "deployment check failed") {
      EXPECT_EQ(trial.outcome.status, TrialOutcome::Status::kRunCrashed);
    }
  }
}

TEST(SessionParallel, LockStepRoundAfterDriftKeysOnCommittedTrials) {
  // A drift re-validation trial commits without being proposed, so trials
  // committed and proposals launched differ by one after it. Lock-step keys
  // its round entropy on trials committed, which is all a Resume()d session
  // knows: the round after the drift must be the same whether the session
  // ran on or was resumed from the history at that commit boundary.
  ConfigSpace space = BuildLinuxSearchSpace();
  TestbenchOptions bench_options;
  bench_options.seed = 0x5ef1;
  bench_options.faults.drift_at = 720.0;
  SessionOptions options;
  options.max_iterations = 48;
  options.seed = 0x91c;
  options.objective = ObjectiveKind::kMemoryFootprint;
  options.parallel_evaluations = 4;
  options.drift_detection = true;
  options.drift_window = 4;

  Testbench bench_a(&space, AppId::kNginx, bench_options);
  auto searcher_a = MakeSearcher("random", &space, 0xabc);
  SearchSession uninterrupted(&bench_a, searcher_a.get(), options);
  while (uninterrupted.drift_events() == 0 || !uninterrupted.AtCommitBoundary()) {
    ASSERT_GT(uninterrupted.StepBatch(), 0u) << "drift never fired";
  }
  std::vector<TrialRecord> prefix = uninterrupted.history();
  ASSERT_EQ(uninterrupted.StepBatch(), 4u);
  const std::vector<TrialRecord>& ran_on = uninterrupted.history();

  Testbench bench_b(&space, AppId::kNginx, bench_options);
  auto searcher_b = MakeSearcher("random", &space, 0xabc);
  SearchSession resumed(&bench_b, searcher_b.get(), options);
  resumed.Resume(prefix);
  ASSERT_EQ(resumed.StepBatch(), 4u);
  const std::vector<TrialRecord>& continued = resumed.history();

  ASSERT_EQ(continued.size(), ran_on.size());
  for (size_t i = prefix.size(); i < ran_on.size(); ++i) {
    EXPECT_EQ(continued[i].config.Hash(), ran_on[i].config.Hash()) << "trial " << i;
    EXPECT_EQ(continued[i].sim_time_end, ran_on[i].sim_time_end) << "trial " << i;
  }
}

}  // namespace
}  // namespace wayfinder
