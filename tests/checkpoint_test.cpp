// Tests for session checkpoint/resume, the §3.5 deployment check, and
// transient-fault injection in the testbench.
#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "src/configspace/linux_space.h"
#include "src/configspace/unikraft_space.h"
#include "src/core/deeptune.h"
#include "src/core/wayfinder_api.h"
#include "src/platform/checkpoint.h"
#include "src/platform/random_search.h"
#include "src/platform/session.h"
#include "src/simos/testbench.h"

namespace wayfinder {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<TrialRecord> RunSome(const ConfigSpace& space, size_t iterations,
                                 uint64_t seed) {
  Testbench bench(&space, AppId::kNginx);
  RandomSearcher searcher;
  SessionOptions options;
  options.max_iterations = iterations;
  options.seed = seed;
  return RunSearch(&bench, &searcher, options).history;
}

// ---------------------------------------------------------------------------
// Checkpoint save/load.

TEST(CheckpointTest, RoundTripsAFullHistory) {
  ConfigSpace space = BuildLinuxSearchSpace();
  std::vector<TrialRecord> history = RunSome(space, 30, 61);
  std::string path = TempPath("wf_checkpoint_roundtrip.txt");
  ASSERT_TRUE(SaveCheckpoint(history, path));

  CheckpointLoadResult loaded = LoadCheckpoint(space, path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_EQ(loaded.history.size(), history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    const TrialRecord& a = history[i];
    const TrialRecord& b = loaded.history[i];
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.outcome.status, b.outcome.status);
    EXPECT_EQ(a.outcome.build_skipped, b.outcome.build_skipped);
    EXPECT_DOUBLE_EQ(a.outcome.metric, b.outcome.metric);
    EXPECT_DOUBLE_EQ(a.outcome.memory_mb, b.outcome.memory_mb);
    EXPECT_DOUBLE_EQ(a.sim_time_end, b.sim_time_end);
    EXPECT_EQ(a.HasObjective(), b.HasObjective());
    if (a.HasObjective()) {
      EXPECT_DOUBLE_EQ(a.objective, b.objective);
    }
    EXPECT_EQ(a.config.values(), b.config.values());
  }
}

TEST(CheckpointTest, CrashedTrialsKeepNanObjectives) {
  ConfigSpace space = BuildLinuxSearchSpace();
  std::vector<TrialRecord> history = RunSome(space, 60, 62);
  bool any_crash = false;
  for (const TrialRecord& trial : history) {
    any_crash |= trial.crashed();
  }
  ASSERT_TRUE(any_crash) << "random search at 60 iterations should hit crashes";

  std::string path = TempPath("wf_checkpoint_nan.txt");
  ASSERT_TRUE(SaveCheckpoint(history, path));
  CheckpointLoadResult loaded = LoadCheckpoint(space, path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  for (size_t i = 0; i < history.size(); ++i) {
    if (history[i].crashed()) {
      EXPECT_FALSE(loaded.history[i].HasObjective());
    }
  }
}

TEST(CheckpointTest, EmptyHistoryRoundTrips) {
  ConfigSpace space = BuildUnikraftSpace();
  std::string path = TempPath("wf_checkpoint_empty.txt");
  ASSERT_TRUE(SaveCheckpoint({}, path));
  CheckpointLoadResult loaded = LoadCheckpoint(space, path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_TRUE(loaded.history.empty());
}

TEST(CheckpointTest, MissingFileFails) {
  ConfigSpace space = BuildUnikraftSpace();
  CheckpointLoadResult loaded = LoadCheckpoint(space, TempPath("wf_no_such_file.txt"));
  EXPECT_FALSE(loaded.ok);
}

TEST(CheckpointTest, WrongSpaceSizeFails) {
  ConfigSpace linux_space = BuildLinuxSearchSpace();
  std::vector<TrialRecord> history = RunSome(linux_space, 5, 63);
  std::string path = TempPath("wf_checkpoint_wrong_space.txt");
  ASSERT_TRUE(SaveCheckpoint(history, path));

  ConfigSpace unikraft_space = BuildUnikraftSpace();
  CheckpointLoadResult loaded = LoadCheckpoint(unikraft_space, path);
  std::filesystem::remove(path);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("parameters"), std::string::npos);
}

TEST(CheckpointTest, CorruptHeaderFails) {
  ConfigSpace space = BuildUnikraftSpace();
  std::string path = TempPath("wf_checkpoint_corrupt.txt");
  {
    std::ofstream out(path);
    out << "definitely not a checkpoint\n";
  }
  CheckpointLoadResult loaded = LoadCheckpoint(space, path);
  std::filesystem::remove(path);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("header"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Checkpoint v2: live RNG / searcher state.

void ExpectSameTrials(const std::vector<TrialRecord>& a, const std::vector<TrialRecord>& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].config.values(), b[i].config.values()) << label << " trial " << i;
    ASSERT_EQ(static_cast<int>(a[i].outcome.status), static_cast<int>(b[i].outcome.status))
        << label << " trial " << i;
    ASSERT_EQ(a[i].sim_time_end, b[i].sim_time_end) << label << " trial " << i;
    if (std::isnan(a[i].objective)) {
      ASSERT_TRUE(std::isnan(b[i].objective)) << label << " trial " << i;
    } else {
      ASSERT_EQ(a[i].objective, b[i].objective) << label << " trial " << i;
    }
  }
}

TEST(CheckpointV2Test, LiveStateRoundTrips) {
  ConfigSpace space = BuildLinuxSearchSpace();
  std::vector<TrialRecord> history = RunSome(space, 10, 80);
  CheckpointLiveState live;
  Rng session_rng(81);
  Rng searcher_rng(82);
  session_rng.Normal();  // Populate the Box-Muller cache so it round-trips too.
  live.session_rng = session_rng.SerializeState();
  live.searcher_rng = searcher_rng.SerializeState();
  live.searcher_state = "pool-iteration 17";

  std::string text = CheckpointToText(history, &live);
  CheckpointLoadResult loaded = LoadCheckpointText(space, text);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.live.session_rng, live.session_rng);
  EXPECT_EQ(loaded.live.searcher_rng, live.searcher_rng);
  EXPECT_EQ(loaded.live.searcher_state, live.searcher_state);
  ASSERT_EQ(loaded.history.size(), history.size());

  // The restored RNG continues exactly where the serialized one stood.
  Rng restored(0);
  ASSERT_TRUE(restored.DeserializeState(loaded.live.session_rng));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(restored.Next(), session_rng.Next());
  }
  EXPECT_EQ(restored.Normal(), session_rng.Normal());
}

TEST(CheckpointV2Test, V1FilesStillLoad) {
  // A v1 writer's output: same trial/values body, old header, no live-state
  // lines.
  ConfigSpace space = BuildLinuxSearchSpace();
  std::vector<TrialRecord> history = RunSome(space, 8, 83);
  std::string text = CheckpointToText(history);
  ASSERT_EQ(text.find("wayfinder-checkpoint v2"), 0u);
  text.replace(0, std::string("wayfinder-checkpoint v2").size(), "wayfinder-checkpoint v1");

  CheckpointLoadResult loaded = LoadCheckpointText(space, text);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_EQ(loaded.history.size(), history.size());
  EXPECT_FALSE(loaded.live.Any());
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(loaded.history[i].outcome.status, history[i].outcome.status) << i;
  }
}

// Older v2 writers put a `failures` taxonomy aggregate in the header area.
// The taxonomy is derived from the trial statuses; such files still load, to
// the same trials and live state.
TEST(CheckpointV2Test, FailuresLineFromOlderWritersStillLoads) {
  ConfigSpace space = BuildLinuxSearchSpace();
  std::vector<TrialRecord> history = RunSome(space, 8, 84);
  CheckpointLiveState live;
  live.session_rng = Rng(85).SerializeState();
  std::string text = CheckpointToText(history, &live);
  std::string old_text = text;
  old_text.insert(old_text.find("\ntrial ") + 1, "failures run-crashed 2 timeout 1\n");

  CheckpointLoadResult loaded = LoadCheckpointText(space, old_text);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.live.session_rng, live.session_rng);
  EXPECT_EQ(CheckpointToText(loaded.history, &loaded.live), text);
}

TEST(CheckpointV2Test, LiveStateLinesRejectedUnderV1Header) {
  ConfigSpace space = BuildLinuxSearchSpace();
  CheckpointLiveState live;
  live.session_rng = Rng(84).SerializeState();
  std::string text = CheckpointToText({}, &live);
  text.replace(0, std::string("wayfinder-checkpoint v2").size(), "wayfinder-checkpoint v1");
  CheckpointLoadResult loaded = LoadCheckpointText(space, text);
  EXPECT_FALSE(loaded.ok);
}

// Forward compatibility: a FUTURE writer may add optional header-area
// sections in the spirit of the live-state lines. This
// reader must load such a file — skipping what it cannot parse — rather
// than refuse a checkpoint that is otherwise perfectly usable.
TEST(CheckpointV2Test, UnknownHeaderSectionsAreSkipped) {
  ConfigSpace space = BuildLinuxSearchSpace();
  std::vector<TrialRecord> history = RunSome(space, 6, 85);
  CheckpointLiveState live;
  live.session_rng = Rng(86).SerializeState();
  std::string text = CheckpointToText(history, &live);

  // Splice two future sections between the header area and the first trial.
  size_t first_trial = text.find("\ntrial ");
  ASSERT_NE(first_trial, std::string::npos);
  text.insert(first_trial + 1,
              "wall-clock-budget 3600\n"
              "annotations key=value other=thing\n");

  CheckpointLoadResult loaded = LoadCheckpointText(space, text);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.history.size(), history.size());
  EXPECT_EQ(loaded.live.session_rng, live.session_rng);  // Known lines kept.
}

TEST(CheckpointV2Test, UnknownKeywordsStillRejectedWhereTheyBreakStructure) {
  ConfigSpace space = BuildLinuxSearchSpace();
  std::vector<TrialRecord> history = RunSome(space, 4, 87);
  std::string text = CheckpointToText(history);

  // Between trial records an unknown keyword would detach a trial from its
  // values line — structural damage, not a future section.
  size_t second_trial = text.find("\ntrial ", text.find("\ntrial ") + 1);
  ASSERT_NE(second_trial, std::string::npos);
  std::string damaged = text;
  damaged.insert(second_trial + 1, "future-line in the trial body\n");
  EXPECT_FALSE(LoadCheckpointText(space, damaged).ok);

  // A stray `values` in the header area is damage too, never skipped.
  size_t first_trial = text.find("\ntrial ");
  damaged = text;
  damaged.insert(first_trial + 1, "values 1 2 3\n");
  EXPECT_FALSE(LoadCheckpointText(space, damaged).ok);

  // v1 files get no forward-compat leniency: the vocabulary was closed.
  std::string v1 = "wayfinder-checkpoint v1\nparams 0\nfuture-section x\n";
  EXPECT_FALSE(LoadCheckpointText(space, v1).ok);
}

TEST(CheckpointV2Test, MalformedRngStateFailsResume) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);
  RandomSearcher searcher;
  SessionOptions options;
  options.max_iterations = 5;
  CheckpointLiveState live;
  live.session_rng = "definitely not hex words";
  SearchSession session(&bench, &searcher, options);
  EXPECT_FALSE(session.Resume({}, live));
}

// The satellite's pin: with the v2 live state, Resume() reproduces the
// uninterrupted run bit-for-bit — for the serial loop, where proposal
// randomness flows from the (now persisted) searcher RNG stream, and for
// model-based searchers, whose pool-seed counter rides in searcher-state.
class LiveResumeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LiveResumeTest, SerialResumeWithLiveStateIsExact) {
  ConfigSpace space = BuildLinuxSearchSpace();
  TestbenchOptions bench_options;
  bench_options.seed = 0x7e70;
  SessionOptions options;
  options.max_iterations = 30;
  options.seed = 0x85;

  Testbench bench_a(&space, AppId::kNginx, bench_options);
  auto searcher_a = MakeSearcher(GetParam(), &space, 0xd8);
  SessionResult uninterrupted = RunSearch(&bench_a, searcher_a.get(), options);
  ASSERT_EQ(uninterrupted.history.size(), 30u);

  // Interrupt at 18: run the prefix, checkpoint with live state (through
  // text, like the real flow), resume a fresh session+searcher from it.
  std::string checkpoint_text = [&] {
    Testbench bench(&space, AppId::kNginx, bench_options);
    auto searcher = MakeSearcher(GetParam(), &space, 0xd8);
    SessionOptions prefix = options;
    prefix.max_iterations = 18;
    SearchSession session(&bench, searcher.get(), prefix);
    while (session.Step()) {
    }
    CheckpointLiveState live = session.ExportLiveState();
    return CheckpointToText(session.history(), &live);
  }();

  CheckpointLoadResult loaded = LoadCheckpointText(space, checkpoint_text);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_TRUE(loaded.live.Any());
  Testbench bench_b(&space, AppId::kNginx, bench_options);
  auto searcher_b = MakeSearcher(GetParam(), &space, 0xd8);
  SearchSession resumed(&bench_b, searcher_b.get(), options);
  ASSERT_TRUE(resumed.Resume(loaded.history, loaded.live));
  while (resumed.Step()) {
  }
  ExpectSameTrials(uninterrupted.history, resumed.Finish().history,
                   std::string(GetParam()) + " serial live resume");
}

TEST_P(LiveResumeTest, BatchedResumeWithLiveStateIsExact) {
  // Same pin for the batch-concurrent executor at a round boundary. Before
  // v2 this held only for stateless searchers; the persisted searcher-state
  // (DeepTune's pool-seed counter) extends it to model-based ones.
  ConfigSpace space = BuildLinuxSearchSpace();
  TestbenchOptions bench_options;
  bench_options.seed = 0x7e71;
  SessionOptions options;
  options.max_iterations = 28;
  options.seed = 0x86;
  options.parallel_evaluations = 4;

  Testbench bench_a(&space, AppId::kNginx, bench_options);
  auto searcher_a = MakeSearcher(GetParam(), &space, 0xd9);
  SessionResult uninterrupted = RunSearch(&bench_a, searcher_a.get(), options);
  ASSERT_EQ(uninterrupted.history.size(), 28u);

  std::string checkpoint_text = [&] {
    Testbench bench(&space, AppId::kNginx, bench_options);
    auto searcher = MakeSearcher(GetParam(), &space, 0xd9);
    SessionOptions prefix = options;
    prefix.max_iterations = 16;
    SearchSession session(&bench, searcher.get(), prefix);
    while (session.StepBatch() > 0) {
    }
    CheckpointLiveState live = session.ExportLiveState();
    return CheckpointToText(session.history(), &live);
  }();

  CheckpointLoadResult loaded = LoadCheckpointText(space, checkpoint_text);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  Testbench bench_b(&space, AppId::kNginx, bench_options);
  auto searcher_b = MakeSearcher(GetParam(), &space, 0xd9);
  SearchSession resumed(&bench_b, searcher_b.get(), options);
  ASSERT_TRUE(resumed.Resume(loaded.history, loaded.live));
  while (resumed.StepBatch() > 0) {
  }
  ExpectSameTrials(uninterrupted.history, resumed.Finish().history,
                   std::string(GetParam()) + " batched live resume");
}

INSTANTIATE_TEST_SUITE_P(Searchers, LiveResumeTest,
                         ::testing::Values("random", "deeptune"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// Eq. 4 score objectives are min-max normalized over the history, so they
// change as trials commit. The serial loop hands Observe each trial's score
// over the trials up to it; a resume must replay the same values, not the
// scores over the whole checkpointed prefix.
TEST(CheckpointV2Test, SerialScoreResumeWithLiveStateIsExact) {
  ConfigSpace space = BuildLinuxSearchSpace();
  TestbenchOptions bench_options;
  bench_options.seed = 0x7ef9;
  SessionOptions options;
  options.max_iterations = 40;
  options.seed = 0x87;
  options.objective = ObjectiveKind::kScore;

  Testbench bench_a(&space, AppId::kNginx, bench_options);
  auto searcher_a = MakeSearcher("deeptune", &space, 0xda);
  SessionResult uninterrupted = RunSearch(&bench_a, searcher_a.get(), options);
  ASSERT_EQ(uninterrupted.history.size(), 40u);

  std::string checkpoint_text = [&] {
    Testbench bench(&space, AppId::kNginx, bench_options);
    auto searcher = MakeSearcher("deeptune", &space, 0xda);
    SessionOptions prefix = options;
    prefix.max_iterations = 24;
    SearchSession session(&bench, searcher.get(), prefix);
    while (session.Step()) {
    }
    CheckpointLiveState live = session.ExportLiveState();
    return CheckpointToText(session.history(), &live);
  }();

  CheckpointLoadResult loaded = LoadCheckpointText(space, checkpoint_text);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  Testbench bench_b(&space, AppId::kNginx, bench_options);
  auto searcher_b = MakeSearcher("deeptune", &space, 0xda);
  SearchSession resumed(&bench_b, searcher_b.get(), options);
  ASSERT_TRUE(resumed.Resume(loaded.history, loaded.live));
  while (resumed.Step()) {
  }
  ExpectSameTrials(uninterrupted.history, resumed.Finish().history, "serial score resume");
}

// A serial drift event changes what follows it: OnDrift retrains DeepTune,
// the event count seeds the next elite re-validation, and the cooldown
// gates the next firing. The replay must rebuild all three from the prior
// trials, so each cell checkpoints after a firing (asserted, so the pin is
// never vacuous) and resumes into the uninterrupted run.
TEST(CheckpointV2Test, SerialDriftResumeWithLiveStateIsExact) {
  ConfigSpace space = BuildUnikraftSpace();
  TestbenchOptions clean_options;
  clean_options.substrate = Substrate::kUnikraftKvm;
  clean_options.seed = 0xfa17;
  const double clean_span = [&] {
    Testbench bench(&space, AppId::kNginx, clean_options);
    RandomSearcher searcher;
    SessionOptions options;
    options.max_iterations = 40;
    options.seed = 0x90;
    return RunSearch(&bench, &searcher, options).total_sim_seconds;
  }();

  struct Cell {
    const char* algorithm;
    uint64_t seed;
    size_t cut;  // Step() calls before the checkpoint.
  };
  for (const Cell& cell : {Cell{"random", 2, 35}, Cell{"deeptune", 6, 20}}) {
    const std::string label =
        std::string(cell.algorithm) + " seed " + std::to_string(cell.seed);
    TestbenchOptions bench_options = clean_options;
    bench_options.seed = 0xfa17 + cell.seed;
    bench_options.faults.drift_at = 0.3 * clean_span;
    bench_options.faults.drift_magnitude = 1.0;
    SessionOptions options;
    options.max_iterations = 60;
    options.seed = 0x90 + cell.seed;
    options.drift_detection = true;
    options.drift_window = 4;
    options.drift_threshold = 0.1;

    Testbench bench_a(&space, AppId::kNginx, bench_options);
    auto searcher_a = MakeSearcher(cell.algorithm, &space, 0xabc + cell.seed);
    SearchSession live_run(&bench_a, searcher_a.get(), options);
    for (size_t i = 0; i < cell.cut; ++i) {
      ASSERT_TRUE(live_run.Step()) << label;
    }
    const size_t events_at_cut = live_run.drift_events();
    ASSERT_GT(events_at_cut, 0u) << label;
    CheckpointLiveState live = live_run.ExportLiveState();
    const std::string checkpoint_text = CheckpointToText(live_run.history(), &live);
    while (live_run.Step()) {
    }
    SessionResult uninterrupted = live_run.Finish();

    CheckpointLoadResult loaded = LoadCheckpointText(space, checkpoint_text);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    Testbench bench_b(&space, AppId::kNginx, bench_options);
    auto searcher_b = MakeSearcher(cell.algorithm, &space, 0xabc + cell.seed);
    SearchSession resumed(&bench_b, searcher_b.get(), options);
    ASSERT_TRUE(resumed.Resume(loaded.history, loaded.live));
    EXPECT_EQ(resumed.drift_events(), events_at_cut) << label;
    while (resumed.Step()) {
    }
    SessionResult result = resumed.Finish();
    ExpectSameTrials(uninterrupted.history, result.history, label + " drift resume");
    EXPECT_EQ(result.drift_events, uninterrupted.drift_events) << label;
  }
}

// ---------------------------------------------------------------------------
// Session resume.

TEST(ResumeTest, ResumedSessionContinuesCountersAndClock) {
  ConfigSpace space = BuildLinuxSearchSpace();

  // First half.
  Testbench bench1(&space, AppId::kNginx);
  RandomSearcher searcher1;
  SessionOptions options;
  options.max_iterations = 20;
  options.seed = 64;
  SearchSession first(&bench1, &searcher1, options);
  SessionResult half = first.Run();
  ASSERT_EQ(half.history.size(), 20u);

  // Second half, resumed into a fresh session with a larger budget.
  Testbench bench2(&space, AppId::kNginx);
  RandomSearcher searcher2;
  options.max_iterations = 40;
  SearchSession second(&bench2, &searcher2, options);
  second.Resume(half.history);
  SessionResult full = second.Run();

  EXPECT_EQ(full.history.size(), 40u);
  // The prior history is intact at the front.
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(full.history[i].config.values(), half.history[i].config.values());
  }
  // The clock continued rather than restarting.
  EXPECT_GT(full.total_sim_seconds, half.total_sim_seconds);
  // Crash accounting covers both halves.
  size_t crashes = 0;
  for (const TrialRecord& trial : full.history) {
    crashes += trial.crashed() ? 1 : 0;
  }
  EXPECT_EQ(full.crashes, crashes);
}

TEST(ResumeTest, ReplayWarmsTheSearcherModel) {
  ConfigSpace space = BuildUnikraftSpace();
  std::vector<TrialRecord> prior =
      [&] {
        Testbench bench(&space, AppId::kNginx,
                        TestbenchOptions{.substrate = Substrate::kUnikraftKvm});
        RandomSearcher searcher;
        SessionOptions options;
        options.max_iterations = 25;
        options.seed = 65;
        return RunSearch(&bench, &searcher, options).history;
      }();

  Testbench bench(&space, AppId::kNginx,
                  TestbenchOptions{.substrate = Substrate::kUnikraftKvm});
  DeepTuneOptions dt;
  dt.model.steps_per_update = 2;
  DeepTuneSearcher searcher(&space, dt);
  SessionOptions options;
  options.max_iterations = 25;  // Already exhausted by the resumed history.
  options.seed = 66;
  SearchSession session(&bench, &searcher, options);
  session.Resume(prior);
  EXPECT_EQ(searcher.model().sample_count(), 25u);
  // Budget is already spent: stepping refuses.
  EXPECT_FALSE(session.Step());
}

TEST(ResumeTest, CheckpointThenResumeEndToEnd) {
  ConfigSpace space = BuildLinuxSearchSpace();
  std::vector<TrialRecord> prior = RunSome(space, 15, 67);
  std::string path = TempPath("wf_resume_e2e.txt");
  ASSERT_TRUE(SaveCheckpoint(prior, path));
  CheckpointLoadResult loaded = LoadCheckpoint(space, path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;

  Testbench bench(&space, AppId::kNginx);
  RandomSearcher searcher;
  SessionOptions options;
  options.max_iterations = 30;
  options.seed = 68;
  SearchSession session(&bench, &searcher, options);
  session.Resume(loaded.history);
  SessionResult result = session.Run();
  EXPECT_EQ(result.history.size(), 30u);
}

// ---------------------------------------------------------------------------
// Deployment check (§3.5).

TEST(DeployCheckTest, FailingCheckDemotesTrialsToCrashes) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);
  RandomSearcher searcher;
  SessionOptions options;
  options.max_iterations = 15;
  options.seed = 69;
  options.deploy_check = [](const Configuration&, const TrialOutcome&) { return false; };
  SessionResult result = RunSearch(&bench, &searcher, options);
  EXPECT_EQ(result.crashes, result.history.size());
  EXPECT_EQ(result.best(), nullptr);
  for (const TrialRecord& trial : result.history) {
    if (trial.outcome.failure_reason == "deployment check failed") {
      return;  // At least one trial was demoted by the check (not the model).
    }
  }
  FAIL() << "no trial carries the deployment-check failure reason";
}

TEST(DeployCheckTest, SelectiveCheckOnlyDemotesMatchingConfigs) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);
  RandomSearcher searcher;
  SessionOptions options;
  options.max_iterations = 40;
  options.seed = 70;
  // Production requires ASLR: configurations that disable it fail review.
  options.deploy_check = [](const Configuration& config, const TrialOutcome&) {
    return config.Get("kernel.randomize_va_space") != 0;
  };
  SessionResult result = RunSearch(&bench, &searcher, options);
  for (const TrialRecord& trial : result.history) {
    if (trial.HasObjective()) {
      EXPECT_NE(trial.config.Get("kernel.randomize_va_space"), 0);
    }
  }
}

TEST(DeployCheckTest, PassingCheckChangesNothing) {
  ConfigSpace space = BuildLinuxSearchSpace();
  SessionOptions options;
  options.max_iterations = 15;
  options.seed = 71;

  Testbench bench_a(&space, AppId::kNginx);
  RandomSearcher searcher_a;
  SessionResult baseline = RunSearch(&bench_a, &searcher_a, options);

  options.deploy_check = [](const Configuration&, const TrialOutcome&) { return true; };
  Testbench bench_b(&space, AppId::kNginx);
  RandomSearcher searcher_b;
  SessionResult checked = RunSearch(&bench_b, &searcher_b, options);

  // Identical seeds: the two sessions are deterministic twins, and a check
  // that always passes must not perturb anything.
  ASSERT_EQ(baseline.history.size(), checked.history.size());
  EXPECT_EQ(baseline.crashes, checked.crashes);
  ASSERT_EQ(baseline.best() != nullptr, checked.best() != nullptr);
  if (baseline.best() != nullptr) {
    EXPECT_DOUBLE_EQ(baseline.best()->objective, checked.best()->objective);
  }
  // Fully random sampling (compile phase included) crashes often; use the
  // runtime-favored mode to guarantee some successes for the comparison.
  options.sample_options = SampleOptions::FavorRuntime();
  Testbench bench_c(&space, AppId::kNginx);
  RandomSearcher searcher_c;
  SessionResult runtime_checked = RunSearch(&bench_c, &searcher_c, options);
  EXPECT_NE(runtime_checked.best(), nullptr);
}

// ---------------------------------------------------------------------------
// Transient fault injection.

TEST(FaultInjectionTest, CertainFlakeFailsEveryTrial) {
  ConfigSpace space = BuildLinuxSearchSpace();
  TestbenchOptions bench_options;
  bench_options.faults.flake_prob = 1.0;
  Testbench bench(&space, AppId::kNginx, bench_options);
  Rng rng(72);
  SimClock clock;
  for (int i = 0; i < 10; ++i) {
    TrialOutcome outcome = bench.Evaluate(space.DefaultConfiguration(), rng, &clock);
    EXPECT_FALSE(outcome.ok());
    EXPECT_NE(outcome.failure_reason.find("transient"), std::string::npos);
  }
}

TEST(FaultInjectionTest, ZeroFlakeProbIsNoise_Free) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Testbench bench(&space, AppId::kNginx);  // Default: no injection.
  Rng rng(73);
  SimClock clock;
  // The default configuration never crashes on its own.
  for (int i = 0; i < 10; ++i) {
    TrialOutcome outcome = bench.Evaluate(space.DefaultConfiguration(), rng, &clock);
    EXPECT_TRUE(outcome.ok()) << outcome.failure_reason;
  }
}

TEST(FaultInjectionTest, ModerateFlakeRateRaisesCrashRateProportionally) {
  ConfigSpace space = BuildLinuxSearchSpace();
  TestbenchOptions bench_options;
  bench_options.faults.flake_prob = 0.5;
  Testbench bench(&space, AppId::kNginx, bench_options);
  Rng rng(74);
  SimClock clock;
  size_t failures = 0;
  const int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    TrialOutcome outcome = bench.Evaluate(space.DefaultConfiguration(), rng, &clock);
    failures += outcome.ok() ? 0 : 1;
  }
  EXPECT_NEAR(static_cast<double>(failures) / kTrials, 0.5, 0.12);
}

TEST(FaultInjectionTest, SearchSurvivesAFlakyTestbench) {
  ConfigSpace space = BuildLinuxSearchSpace();
  TestbenchOptions bench_options;
  bench_options.faults.flake_prob = 0.3;
  Testbench bench(&space, AppId::kNginx, bench_options);
  RandomSearcher searcher;
  SessionOptions options;
  options.max_iterations = 50;
  options.seed = 75;
  SessionResult result = RunSearch(&bench, &searcher, options);
  EXPECT_EQ(result.history.size(), 50u);
  EXPECT_NE(result.best(), nullptr);  // Some trials still succeed.
  EXPECT_GT(result.crashes, 5u);      // And many were flaked.
}

}  // namespace
}  // namespace wayfinder
