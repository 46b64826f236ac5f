// Hostile-world robustness: the fault-injection scenario matrix and the
// outcome-aware policies it exercises.
//
//   * An empty FaultPlan is a strict no-op: sessions are bit-identical to a
//     bench constructed without one (the contract every pre-existing
//     trajectory pin rests on), even with the retry policy armed.
//   * Scenario matrix: every registry searcher survives every fault class
//     (timeout, hang, flake, heteroscedastic noise, mid-search drift) —
//     completes its budget, never poisons its model with NaN, still finds a
//     finite best.
//   * Unit pins: the watchdog charges its full window; retries are
//     deterministic, budget-charged, and clear transients; median-of-k
//     repeats charge the budget; the drift detector fires and re-validates
//     the elite; warm start skips transient (timeout and flake) and
//     drift-stale prior records;
//     checkpoints round-trip the failure taxonomy and per-trial reasons.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/configspace/unikraft_space.h"
#include "src/core/wayfinder_api.h"
#include "src/platform/checkpoint.h"
#include "src/platform/job_file.h"
#include "src/platform/searcher_registry.h"
#include "src/platform/session.h"
#include "src/service/binary_codec.h"
#include "src/service/session_manager.h"
#include "src/simos/fault_plan.h"

namespace wayfinder {
namespace {

void ExpectSameHistory(const std::vector<TrialRecord>& a,
                       const std::vector<TrialRecord>& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].config.values(), b[i].config.values()) << label << " trial " << i;
    ASSERT_EQ(static_cast<int>(a[i].outcome.status), static_cast<int>(b[i].outcome.status))
        << label << " trial " << i;
    ASSERT_EQ(a[i].outcome.metric, b[i].outcome.metric) << label << " trial " << i;
    ASSERT_EQ(a[i].outcome.memory_mb, b[i].outcome.memory_mb) << label << " trial " << i;
    ASSERT_EQ(a[i].sim_time_end, b[i].sim_time_end) << label << " trial " << i;
    if (std::isnan(a[i].objective)) {
      ASSERT_TRUE(std::isnan(b[i].objective)) << label << " trial " << i;
    } else {
      ASSERT_EQ(a[i].objective, b[i].objective) << label << " trial " << i;
    }
  }
}

struct FaultRun {
  FaultPlan plan;
  size_t retries = 0;
  size_t repeats = 1;
  bool drift_detection = false;
  size_t drift_window = 8;
  double drift_threshold = 0.25;
  size_t iterations = 20;
  uint64_t bench_seed = 0xfa17;
  uint64_t session_seed = 0x90;
  uint64_t searcher_seed = 0xabc;
};

SessionResult RunFaultSession(const std::string& algorithm, const FaultRun& run) {
  ConfigSpace space = BuildUnikraftSpace();
  TestbenchOptions bench_options;
  bench_options.substrate = Substrate::kUnikraftKvm;
  bench_options.seed = run.bench_seed;
  bench_options.faults = run.plan;
  Testbench bench(&space, AppId::kNginx, bench_options);
  auto searcher = MakeSearcher(algorithm, &space, run.searcher_seed);
  SessionOptions options;
  options.max_iterations = run.iterations;
  options.seed = run.session_seed;
  options.retry_transient = run.retries;
  options.measure_repeats = run.repeats;
  options.drift_detection = run.drift_detection;
  options.drift_window = run.drift_window;
  options.drift_threshold = run.drift_threshold;
  return RunSearch(&bench, searcher.get(), options);
}

TEST(FaultPlan, EmptyPlanIsStrictNoOp) {
  // Inert knobs (nonzero watchdog window / blend weight but zero
  // probabilities) plus an armed retry policy: still bit-identical to a
  // bench that has never heard of fault plans — zero extra RNG draws.
  for (const char* algorithm : {"random", "deeptune"}) {
    FaultRun clean;
    SessionResult baseline = RunFaultSession(algorithm, clean);

    FaultRun inert;
    inert.plan.timeout_seconds = 120.0;
    inert.plan.drift_magnitude = 0.7;
    inert.retries = 3;  // No transients can occur, so no retry stream draws.
    SessionResult armed = RunFaultSession(algorithm, inert);

    ExpectSameHistory(baseline.history, armed.history, algorithm);
    EXPECT_EQ(armed.transient_retries, 0u) << algorithm;
    EXPECT_EQ(armed.drift_events, 0u) << algorithm;
  }
}

TEST(FaultPlan, ScenarioMatrixEverySearcherSurvivesEveryFaultClass) {
  // Drift is scheduled mid-run: probe a clean session for its total
  // simulated span and drift a third of the way in.
  FaultRun probe;
  double clean_span = RunFaultSession("random", probe).total_sim_seconds;
  ASSERT_GT(clean_span, 0.0);

  struct Scenario {
    const char* name;
    FaultRun run;
  };
  std::vector<Scenario> scenarios;
  {
    Scenario timeout{"timeout", {}};
    timeout.run.plan.timeout_prob = 0.3;
    timeout.run.plan.timeout_seconds = 120.0;
    timeout.run.retries = 2;
    scenarios.push_back(timeout);

    Scenario hang{"hang", {}};
    hang.run.plan.hang_prob = 0.3;
    hang.run.plan.timeout_seconds = 180.0;
    hang.run.retries = 2;
    scenarios.push_back(hang);

    Scenario flake{"flake", {}};
    flake.run.plan.flake_prob = 0.5;
    flake.run.retries = 3;
    scenarios.push_back(flake);

    Scenario noise{"noise", {}};
    noise.run.plan.noise_sigma = 0.4;
    noise.run.repeats = 3;
    scenarios.push_back(noise);

    Scenario drift{"drift", {}};
    drift.run.plan.drift_at = clean_span / 3.0;
    drift.run.plan.drift_magnitude = 1.0;
    drift.run.drift_detection = true;
    drift.run.drift_window = 4;
    drift.run.drift_threshold = 0.2;
    scenarios.push_back(drift);
  }

  size_t total_retries = 0;
  for (const std::string& algorithm : RegisteredSearcherNames()) {
    for (const Scenario& scenario : scenarios) {
      SessionResult result = RunFaultSession(algorithm, scenario.run);
      const std::string label = algorithm + "/" + scenario.name;
      // The session completes its full budget: no searcher wedges, throws,
      // or drains the budget early under any fault class.
      EXPECT_EQ(result.history.size(), scenario.run.iterations) << label;
      // No NaN poisoning: every committed objective is NaN (crash) or
      // finite, and every successful metric is finite.
      for (const TrialRecord& trial : result.history) {
        if (trial.HasObjective()) {
          EXPECT_TRUE(std::isfinite(trial.objective)) << label;
        }
        if (trial.outcome.ok()) {
          EXPECT_TRUE(std::isfinite(trial.outcome.metric)) << label;
        }
      }
      // Convergence in the weak, robust sense: something succeeded and the
      // best is finite (stronger per-scenario pins live below).
      ASSERT_NE(result.best(), nullptr) << label;
      EXPECT_TRUE(std::isfinite(result.best()->objective)) << label;
      total_retries += result.transient_retries;
    }
  }
  // The retry policy actually engaged somewhere in the matrix.
  EXPECT_GT(total_retries, 0u);
}

TEST(FaultPlan, WatchdogChargesItsFullWindow) {
  ConfigSpace space = BuildUnikraftSpace();
  TestbenchOptions options;
  options.substrate = Substrate::kUnikraftKvm;
  options.faults.timeout_prob = 1.0;
  options.faults.timeout_seconds = 77.0;
  Testbench bench(&space, AppId::kNginx, options);
  Rng rng(11);
  SimClock clock;
  // Every trial that reaches the benchmark phase must time out; crashes
  // earlier in the pipeline are the only other possibility.
  bool saw_timeout = false;
  for (int i = 0; i < 12 && !saw_timeout; ++i) {
    Configuration config = space.RandomConfiguration(rng);
    double before = clock.Now();
    TrialOutcome outcome = bench.Evaluate(config, rng, &clock);
    if (outcome.status == TrialOutcome::Status::kTimeout) {
      saw_timeout = true;
      EXPECT_EQ(outcome.run_seconds, 77.0);
      EXPECT_TRUE(outcome.transient());
      EXPECT_EQ(outcome.failure_reason, "transient: benchmark exceeded watchdog");
      EXPECT_GE(clock.Now() - before, 77.0);  // Budget-charged.
    } else {
      EXPECT_FALSE(outcome.ok()) << "with timeout_prob=1 a success is impossible";
    }
  }
  EXPECT_TRUE(saw_timeout);
}

TEST(FaultPlan, HangsAreDistinguishedByReason) {
  ConfigSpace space = BuildUnikraftSpace();
  TestbenchOptions options;
  options.substrate = Substrate::kUnikraftKvm;
  options.faults.hang_prob = 1.0;
  Testbench bench(&space, AppId::kNginx, options);
  Rng rng(12);
  SimClock clock;
  for (int i = 0; i < 12; ++i) {
    TrialOutcome outcome = bench.Evaluate(space.RandomConfiguration(rng), rng, &clock);
    if (outcome.status == TrialOutcome::Status::kTimeout) {
      EXPECT_EQ(outcome.failure_reason, "transient: hang killed by watchdog");
      EXPECT_EQ(outcome.run_seconds, 600.0);  // The default watchdog window.
      return;
    }
  }
  FAIL() << "no trial reached the benchmark phase in 12 attempts";
}

TEST(FaultPlan, RetryPolicyIsDeterministicAndClearsTransients) {
  FaultRun flaky;
  flaky.plan.flake_prob = 0.6;
  flaky.iterations = 24;

  FaultRun retried = flaky;
  retried.retries = 3;

  SessionResult without = RunFaultSession("random", flaky);
  SessionResult with_a = RunFaultSession("random", retried);
  SessionResult with_b = RunFaultSession("random", retried);

  // Counter-derived retry streams: the whole policy is deterministic.
  ExpectSameHistory(with_a.history, with_b.history, "retry determinism");
  EXPECT_EQ(with_a.transient_retries, with_b.transient_retries);
  EXPECT_GT(with_a.transient_retries, 0u);

  auto transients = [](const SessionResult& result) {
    size_t n = 0;
    for (const TrialRecord& trial : result.history) {
      n += trial.outcome.transient() ? 1 : 0;
    }
    return n;
  };
  // Three retries against p=0.6 clear most transients.
  EXPECT_LT(transients(with_a), transients(without));
  // Every attempt was budget-charged: the retried run consumed more
  // simulated time per committed trial.
  EXPECT_GT(with_a.total_sim_seconds, without.total_sim_seconds);
}

TEST(FaultPlan, MedianRepeatsAreDeterministicAndBudgetCharged) {
  FaultRun noisy;
  noisy.plan.noise_sigma = 0.5;

  FaultRun repeated = noisy;
  repeated.repeats = 3;

  SessionResult once = RunFaultSession("random", noisy);
  SessionResult med_a = RunFaultSession("random", repeated);
  SessionResult med_b = RunFaultSession("random", repeated);

  ExpectSameHistory(med_a.history, med_b.history, "median determinism");
  // The k-1 extra measurements cost simulated time.
  EXPECT_GT(med_a.total_sim_seconds, once.total_sim_seconds);
  EXPECT_EQ(med_a.history.size(), once.history.size());
}

TEST(FaultPlan, NoiseSigmaIsHeteroscedastic) {
  FaultPlan plan;
  plan.noise_sigma = 0.3;
  // Config-dependent: different hashes map to different sigmas inside
  // [0.5, 1.5) x noise_sigma.
  double lo = plan.NoiseSigmaFor(0);
  double hi = plan.NoiseSigmaFor(511);
  EXPECT_NE(lo, hi);
  for (uint64_t hash : {0ull, 17ull, 511ull, 1023ull, 0xdeadbeefull}) {
    double sigma = plan.NoiseSigmaFor(hash);
    EXPECT_GE(sigma, 0.5 * plan.noise_sigma);
    EXPECT_LT(sigma, 1.5 * plan.noise_sigma);
  }
}

TEST(FaultPlan, DriftDetectorFiresAndRevalidatesTheElite) {
  // A full-magnitude drift scheduled ~60% into the run: long enough before
  // it for the search to lock in a strong elite, long enough after it for a
  // window of post-drift successes. Whether the drifted landscape actually
  // regresses the elite is seed-dependent, so scan seeds and searchers;
  // everything is deterministic, so once one fires it always fires.
  FaultRun probe;
  probe.iterations = 40;
  double clean_span = RunFaultSession("random", probe).total_sim_seconds;

  size_t fired = 0;
  for (const char* algorithm : {"deeptune", "hillclimb", "random"}) {
    for (uint64_t seed = 1; seed <= 8 && fired == 0; ++seed) {
      FaultRun drift;
      drift.iterations = 40;
      drift.bench_seed = 0xfa17 + seed;
      drift.session_seed = 0x90 + seed;
      drift.plan.drift_at = 0.6 * clean_span;
      drift.plan.drift_magnitude = 1.0;
      drift.drift_detection = true;
      drift.drift_window = 4;
      drift.drift_threshold = 0.1;
      SessionResult result = RunFaultSession(algorithm, drift);
      if (result.drift_events == 0) {
        continue;
      }
      ++fired;
      // The detector fired and the session still completed at least its
      // budget (the elite re-validation trial may add one) with a finite
      // best: OnDrift invalidated elites instead of wedging the model.
      EXPECT_GE(result.history.size(), drift.iterations);
      ASSERT_NE(result.best(), nullptr);
      EXPECT_TRUE(std::isfinite(result.best()->objective));
      EXPECT_GT(result.drift_events, 0u);
    }
    if (fired > 0) {
      break;
    }
  }
  EXPECT_GT(fired, 0u) << "no seed in the scan produced a drift event";
}

TEST(FaultPlan, JobFileCarriesTheFaultMapping) {
  JobParseResult parsed = ParseJobText(
      "name: hostile\n"
      "os: unikraft\n"
      "application: nginx\n"
      "metric: performance\n"
      "budget:\n"
      "  iterations: 10\n"
      "search:\n"
      "  algorithm: random\n"
      "  seed: 7\n"
      "faults:\n"
      "  flake_prob: 0.1\n"
      "  timeout_prob: 0.05\n"
      "  hang_prob: 0.02\n"
      "  timeout_s: 300\n"
      "  noise_sigma: 0.25\n"
      "  drift_at: 5000\n"
      "  drift_magnitude: 0.8\n"
      "  retries: 2\n"
      "  repeats: 3\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const JobSpec& spec = parsed.spec;
  EXPECT_EQ(spec.faults.flake_prob, 0.1);
  EXPECT_EQ(spec.faults.timeout_prob, 0.05);
  EXPECT_EQ(spec.faults.hang_prob, 0.02);
  EXPECT_EQ(spec.faults.timeout_seconds, 300.0);
  EXPECT_EQ(spec.faults.noise_sigma, 0.25);
  EXPECT_EQ(spec.faults.drift_at, 5000.0);
  EXPECT_EQ(spec.faults.drift_magnitude, 0.8);
  EXPECT_EQ(spec.fault_retries, 2u);
  EXPECT_EQ(spec.measure_repeats, 3u);

  // The plan reaches both halves of the stack: testbench and session.
  TestbenchOptions bench_options = spec.ToTestbenchOptions();
  EXPECT_EQ(bench_options.faults.flake_prob, 0.1);
  SessionOptions session_options = spec.ToSessionOptions();
  EXPECT_EQ(session_options.retry_transient, 2u);
  EXPECT_EQ(session_options.measure_repeats, 3u);
  EXPECT_TRUE(session_options.drift_detection);  // drift_at > 0 arms it.

  // Validation: probabilities outside [0, 1] are rejected.
  JobParseResult bad = ParseJobText(
      "name: bad\nfaults:\n  flake_prob: 1.5\n");
  EXPECT_FALSE(bad.ok);
}

TEST(FaultPlan, CheckpointRoundTripsTaxonomyAndReasons) {
  ConfigSpace space = BuildUnikraftSpace();
  Rng rng(5);
  std::vector<TrialRecord> history;
  auto push = [&](TrialOutcome::Status status, const char* reason, double objective) {
    TrialRecord trial;
    trial.iteration = history.size();
    trial.config = space.RandomConfiguration(rng);
    trial.outcome.status = status;
    trial.outcome.failure_reason = reason;
    trial.outcome.metric = status == TrialOutcome::Status::kOk ? 100.0 : 0.0;
    trial.objective = objective;
    trial.sim_time_end = 10.0 * (history.size() + 1);
    history.push_back(std::move(trial));
  };
  push(TrialOutcome::Status::kOk, "", 1.0);
  push(TrialOutcome::Status::kBuildFailed, "transient: infrastructure flake",
       std::nan(""));
  push(TrialOutcome::Status::kTimeout, "transient: benchmark exceeded watchdog",
       std::nan(""));
  push(TrialOutcome::Status::kRunCrashed, "workload segfault", std::nan(""));
  push(TrialOutcome::Status::kOk, "", 2.0);

  std::string text = CheckpointToText(history);
  CheckpointLoadResult loaded = LoadCheckpointText(space, text);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_EQ(loaded.history.size(), history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(static_cast<int>(loaded.history[i].outcome.status),
              static_cast<int>(history[i].outcome.status)) << i;
    EXPECT_EQ(loaded.history[i].outcome.failure_reason,
              history[i].outcome.failure_reason) << i;
  }
  // The taxonomy is derived from the per-trial statuses; no aggregate is
  // stored beside them.
  FailureTally tally;
  for (const TrialRecord& trial : loaded.history) {
    tally.Add(trial.outcome.status);
  }
  EXPECT_EQ(tally.build_failed, 1u);
  EXPECT_EQ(tally.boot_failed, 0u);
  EXPECT_EQ(tally.run_crashed, 1u);
  EXPECT_EQ(tally.timeouts, 1u);
  EXPECT_EQ(text.find("\nfailures"), std::string::npos);
  // And the transient markers survive the round trip.
  EXPECT_TRUE(loaded.history[1].outcome.transient());
  EXPECT_TRUE(loaded.history[2].outcome.transient());
  EXPECT_FALSE(loaded.history[3].outcome.transient());

  // Files from older writers carry a `failures` aggregate in the header
  // area: they still load, to the same trials.
  std::string old_text = text;
  old_text.insert(old_text.find("\ntrial ") + 1,
                  "failures build-failed 1 run-crashed 1 timeout 1\n");
  CheckpointLoadResult old_loaded = LoadCheckpointText(space, old_text);
  ASSERT_TRUE(old_loaded.ok) << old_loaded.error;
  EXPECT_EQ(CheckpointToText(old_loaded.history), text);
}

// The taxonomy counters ride the wire only when non-zero: a hostile
// session decodes with every counter, and a clean one carries none of the
// six fields (each a 13-byte u64 field: tag, length, 8 value bytes) and
// decodes back to zeros.
TEST(FaultPlan, StatusCarriesFaultCountersOnlyWhenNonZero) {
  SessionStatus hostile;
  hostile.id = "s1";
  hostile.name = "hostile";
  hostile.algorithm = "deeptune";
  hostile.state = "running";
  hostile.trials = 30;
  hostile.iterations = 40;
  hostile.build_failed = 2;
  hostile.boot_failed = 1;
  hostile.run_crashed = 4;
  hostile.timeouts = 3;
  hostile.retries = 7;
  hostile.drift_events = 1;
  SessionStatus clean = hostile;
  clean.build_failed = clean.boot_failed = clean.run_crashed = 0;
  clean.timeouts = clean.retries = clean.drift_events = 0;
  ServiceResponse hostile_response;
  hostile_response.ok = true;
  hostile_response.sessions = {hostile};
  ServiceResponse clean_response;
  clean_response.ok = true;
  clean_response.sessions = {clean};

  std::string error;
  ServiceResponse decoded;
  ASSERT_TRUE(
      DecodeResponseBinary(EncodeResponseBinary(hostile_response), &decoded, &error))
      << error;
  ASSERT_EQ(decoded.sessions.size(), 1u);
  EXPECT_EQ(decoded.sessions[0].build_failed, 2u);
  EXPECT_EQ(decoded.sessions[0].boot_failed, 1u);
  EXPECT_EQ(decoded.sessions[0].run_crashed, 4u);
  EXPECT_EQ(decoded.sessions[0].timeouts, 3u);
  EXPECT_EQ(decoded.sessions[0].retries, 7u);
  EXPECT_EQ(decoded.sessions[0].drift_events, 1u);

  std::string clean_wire = EncodeResponseBinary(clean_response);
  EXPECT_EQ(clean_wire.size() + 6 * 13, EncodeResponseBinary(hostile_response).size());
  ASSERT_TRUE(DecodeResponseBinary(clean_wire, &decoded, &error)) << error;
  ASSERT_EQ(decoded.sessions.size(), 1u);
  EXPECT_EQ(decoded.sessions[0].build_failed, 0u);
  EXPECT_EQ(decoded.sessions[0].boot_failed, 0u);
  EXPECT_EQ(decoded.sessions[0].run_crashed, 0u);
  EXPECT_EQ(decoded.sessions[0].timeouts, 0u);
  EXPECT_EQ(decoded.sessions[0].retries, 0u);
  EXPECT_EQ(decoded.sessions[0].drift_events, 0u);
}

// A 16-trial random unikraft/nginx job with an optional `faults:` block.
std::string WarmJob(const std::string& name, const std::string& fault_block) {
  std::string yaml;
  yaml += "name: " + name + "\n";
  yaml += "os: unikraft\n";
  yaml += "application: nginx\n";
  yaml += "metric: performance\n";
  yaml += "budget:\n  iterations: 16\n";
  yaml += "search:\n  algorithm: random\n  seed: 77\n";
  yaml += fault_block;
  return yaml;
}

TEST(FaultPlan, WarmStartSkipsTransientAndDriftStaleTrials) {
  std::string store_dir =
      (std::filesystem::temp_directory_path() / "wf_faultplan_store").string();
  std::filesystem::remove_all(store_dir);

  SessionManagerOptions options;
  options.store_dir = store_dir;
  SessionManager manager(options);

  // Seed the prior with a hostile run: timeouts commit with kTimeout
  // status, so they are identifiable as transient (no retries, so they
  // commit instead of being cleared).
  std::string seed_id, error;
  ASSERT_TRUE(manager.Submit(
      WarmJob("hostile-seed", "faults:\n  timeout_prob: 0.6\n  timeout_s: 60\n"),
      false, &seed_id, &error))
      << error;
  ASSERT_TRUE(manager.WaitDone(seed_id, 60000));
  SessionStatus seeded;
  ASSERT_TRUE(manager.Status(seed_id, &seeded));
  ASSERT_GT(seeded.timeouts, 0u) << "scenario produced no timeouts; bump the seed";
  EXPECT_EQ(seeded.trials, 16u);

  // A clean warm start observes everything EXCEPT the transient records.
  std::string warm_id;
  ASSERT_TRUE(manager.Submit(WarmJob("clean-warm", ""), true, &warm_id, &error)) << error;
  SessionStatus warm;
  ASSERT_TRUE(manager.Status(warm_id, &warm));
  EXPECT_EQ(warm.warm_started, seeded.trials - seeded.timeouts);

  // A job that schedules drift far in the future treats every prior trial
  // as stale: nothing warm-starts.
  std::string stale_id;
  ASSERT_TRUE(manager.Submit(
      WarmJob("drift-warm", "faults:\n  drift_at: 1000000000\n"), true, &stale_id, &error))
      << error;
  SessionStatus stale;
  ASSERT_TRUE(manager.Status(stale_id, &stale));
  EXPECT_EQ(stale.warm_started, 0u);

  ASSERT_TRUE(manager.WaitDone(warm_id, 60000));
  ASSERT_TRUE(manager.WaitDone(stale_id, 60000));

  // The filters run before the first-record-per-configuration rule: a clean
  // re-run of the hostile seed measures its timed-out configurations again,
  // and those later clean records enter the prior.
  std::string rerun_id;
  ASSERT_TRUE(manager.Submit(WarmJob("clean-rerun", ""), false, &rerun_id, &error)) << error;
  ASSERT_TRUE(manager.WaitDone(rerun_id, 60000));
  ConfigSpace space = BuildJobSpace(ParseJobText(WarmJob("space", "")).spec);
  auto history = [&](const std::string& id) {
    std::string text, result_error;
    EXPECT_TRUE(manager.Result(id, &text, &result_error)) << result_error;
    CheckpointLoadResult loaded = LoadCheckpointText(space, text);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    return loaded.history;
  };
  std::unordered_set<uint64_t> clean, rerun_clean;
  for (const std::string& id : {seed_id, warm_id, stale_id, rerun_id}) {
    for (const TrialRecord& trial : history(id)) {
      if (!trial.outcome.transient()) {
        clean.insert(trial.config.Hash());
        if (id == rerun_id) {
          rerun_clean.insert(trial.config.Hash());
        }
      }
    }
  }
  size_t revived = 0;
  for (const TrialRecord& trial : history(seed_id)) {
    revived += trial.outcome.transient() && rerun_clean.count(trial.config.Hash()) ? 1 : 0;
  }
  ASSERT_GT(revived, 0u) << "the re-run measured no timed-out configuration again";
  std::string rewarm_id;
  ASSERT_TRUE(manager.Submit(WarmJob("rewarm", ""), true, &rewarm_id, &error)) << error;
  SessionStatus rewarm;
  ASSERT_TRUE(manager.Status(rewarm_id, &rewarm));
  EXPECT_EQ(rewarm.warm_started, clean.size());

  ASSERT_TRUE(manager.WaitDone(rewarm_id, 60000));
  manager.Shutdown();
  std::filesystem::remove_all(store_dir);
}

// Flakes commit as build, boot or run failures whose reason starts with
// "transient:"; only the reason marks them transient. A warm start must
// skip every one, which needs the prior to keep the reasons.
TEST(FaultPlan, WarmStartSkipsFlakes) {
  std::string store_dir =
      (std::filesystem::temp_directory_path() / "wf_faultplan_flake_store").string();
  std::filesystem::remove_all(store_dir);
  SessionManagerOptions options;
  options.store_dir = store_dir;
  SessionManager manager(options);

  const std::string seed_yaml = WarmJob("flaky-seed", "faults:\n  flake_prob: 0.5\n");
  std::string seed_id, error;
  ASSERT_TRUE(manager.Submit(seed_yaml, false, &seed_id, &error)) << error;
  ASSERT_TRUE(manager.WaitDone(seed_id, 60000));
  std::string text;
  ASSERT_TRUE(manager.Result(seed_id, &text, &error)) << error;
  ConfigSpace space = BuildJobSpace(ParseJobText(seed_yaml).spec);
  CheckpointLoadResult seeded = LoadCheckpointText(space, text);
  ASSERT_TRUE(seeded.ok) << seeded.error;
  ASSERT_EQ(seeded.history.size(), 16u);
  size_t flakes = 0;
  for (const TrialRecord& trial : seeded.history) {
    flakes += trial.outcome.transient() ? 1 : 0;
  }
  ASSERT_GT(flakes, 0u) << "scenario produced no flakes; bump the seed";

  std::string warm_id;
  ASSERT_TRUE(manager.Submit(WarmJob("clean-warm", ""), true, &warm_id, &error)) << error;
  SessionStatus warm;
  ASSERT_TRUE(manager.Status(warm_id, &warm));
  EXPECT_EQ(warm.warm_started, seeded.history.size() - flakes);

  ASSERT_TRUE(manager.WaitDone(warm_id, 60000));
  manager.Shutdown();
  std::filesystem::remove_all(store_dir);
}

}  // namespace
}  // namespace wayfinder
