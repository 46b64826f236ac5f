#include "src/simos/testbench.h"

#include <algorithm>
#include <cmath>

namespace wayfinder {

const char* TrialStatusName(TrialOutcome::Status status) {
  switch (status) {
    case TrialOutcome::Status::kOk:
      return "ok";
    case TrialOutcome::Status::kBuildFailed:
      return "build-failed";
    case TrialOutcome::Status::kBootFailed:
      return "boot-failed";
    case TrialOutcome::Status::kRunCrashed:
      return "run-crashed";
    case TrialOutcome::Status::kTimeout:
      return "timeout";
  }
  return "?";
}

bool TrialStatusFromName(const std::string& name, TrialOutcome::Status* status) {
  if (name == "ok") {
    *status = TrialOutcome::Status::kOk;
  } else if (name == "build-failed") {
    *status = TrialOutcome::Status::kBuildFailed;
  } else if (name == "boot-failed") {
    *status = TrialOutcome::Status::kBootFailed;
  } else if (name == "run-crashed") {
    *status = TrialOutcome::Status::kRunCrashed;
  } else if (name == "timeout") {
    *status = TrialOutcome::Status::kTimeout;
  } else {
    return false;
  }
  return true;
}

Testbench::Testbench(const ConfigSpace* space, AppId app, const TestbenchOptions& options)
    : space_(space),
      app_(app),
      options_(options),
      perf_model_(space, options.substrate, options.seed, app),
      crash_model_(space, HashCombine(options.seed, 0xc4a5)),
      memory_model_(space, options.default_footprint_mb, HashCombine(options.seed, 0x3e30)) {
  if (options_.faults.drift_at > 0.0) {
    drifted_perf_ = std::make_shared<PerfModel>(space, options.substrate,
                                                HashCombine(options.seed, 0xd21f7), app);
  }
}

double Testbench::SampleBuildSeconds(Rng& rng) const {
  // Full kernel builds dominate; unikernels build much faster. Lognormal-ish
  // spread mimics ccache hits and varying option counts.
  double mean = options_.substrate == Substrate::kUnikraftKvm ? 35.0 : 180.0;
  if (options_.substrate == Substrate::kLinuxRiscvQemu) {
    mean = 90.0;  // Slim embedded configs cross-compile faster.
  }
  double s = mean * std::exp(rng.Normal(0.0, 0.25));
  return std::max(5.0, s);
}

double Testbench::SampleBootSeconds(Rng& rng) const {
  double mean = options_.substrate == Substrate::kUnikraftKvm ? 0.5 : 9.0;
  if (options_.substrate == Substrate::kLinuxRiscvQemu) {
    mean = 25.0;  // Full-system emulation boots slowly.
  }
  return std::max(0.05, mean * std::exp(rng.Normal(0.0, 0.2)));
}

double Testbench::SampleRunSeconds(Rng& rng) const {
  const AppProfile& profile = GetApp(app_);
  double s = rng.Normal(profile.test_seconds_mean, profile.test_seconds_spread / 2.0);
  return std::clamp(s, profile.test_seconds_mean * 0.4, profile.test_seconds_mean * 2.5);
}

TrialOutcome Testbench::Evaluate(const Configuration& config, Rng& rng, SimClock* clock,
                                 bool skip_build, bool boot_only) {
  if (options_.fixed_trial_seconds <= 0.0) {
    return EvaluateImpl(config, rng, clock, skip_build, boot_only);
  }
  // Equal-duration mode: compute the outcome off-clock, then charge every
  // phase the fixed cost regardless of status so all trials take the same
  // total simulated time.
  TrialOutcome outcome = EvaluateImpl(config, rng, /*clock=*/nullptr, skip_build, boot_only);
  double f = options_.fixed_trial_seconds;
  outcome.build_seconds = skip_build ? 0.0 : f;
  outcome.boot_seconds = f;
  outcome.run_seconds = boot_only ? 0.0 : f;
  if (clock != nullptr) {
    clock->Advance(outcome.TotalSeconds());
  }
  return outcome;
}

TrialOutcome Testbench::EvaluateImpl(const Configuration& config, Rng& rng, SimClock* clock,
                                     bool skip_build, bool boot_only) {
  TrialOutcome outcome;
  const FaultPlan& faults = options_.faults;
  // Global simulated time at which this trial starts (batch slots carry
  // their launch time as the origin); decides whether scheduled drift
  // applies.
  const double trial_start = sim_time_origin_ + (clock != nullptr ? clock->Now() : 0.0);
  CrashOutcome crash = crash_model_.Check(app_, config, rng);

  // Transient infrastructure flakes (fault injection): label noise for the
  // searchers, a trial failing at a uniformly chosen stage whatever its
  // configuration. A zero probability draws nothing.
  if (faults.flake_prob > 0.0 && rng.Bernoulli(faults.flake_prob)) {
    crash.crashed = true;
    crash.reason = "transient: infrastructure flake";
    double stage = rng.Uniform();
    crash.stage = stage < 0.34   ? ParamPhase::kCompileTime
                  : stage < 0.67 ? ParamPhase::kBootTime
                                 : ParamPhase::kRuntime;
    if (skip_build && crash.stage == ParamPhase::kCompileTime) {
      crash.stage = ParamPhase::kBootTime;  // No build phase to fail in.
    }
  }

  // --- Build phase ---------------------------------------------------------
  if (skip_build) {
    outcome.build_skipped = true;
  } else {
    if (crash.crashed && crash.stage == ParamPhase::kCompileTime) {
      // Builds fail part-way through.
      outcome.status = TrialOutcome::Status::kBuildFailed;
      outcome.failure_reason = crash.reason;
      outcome.build_seconds = 0.35 * SampleBuildSeconds(rng);
      if (clock != nullptr) {
        clock->Advance(outcome.build_seconds);
      }
      return outcome;
    }
    outcome.build_seconds = SampleBuildSeconds(rng);
    if (clock != nullptr) {
      clock->Advance(outcome.build_seconds);
    }
  }
  outcome.memory_mb = memory_model_.SampleFootprintMb(config, rng);

  // --- Boot phase -----------------------------------------------------------
  outcome.boot_seconds = SampleBootSeconds(rng);
  if (clock != nullptr) {
    clock->Advance(outcome.boot_seconds);
  }
  if (crash.crashed && crash.stage == ParamPhase::kBootTime) {
    outcome.status = TrialOutcome::Status::kBootFailed;
    outcome.failure_reason = crash.reason;
    return outcome;
  }
  // A compile-stage crash with the build skipped can't happen: skip_build
  // requires identical compile/boot parameters to a previously built image.
  // Treat it as a boot failure defensively.
  if (crash.crashed && crash.stage == ParamPhase::kCompileTime) {
    outcome.status = TrialOutcome::Status::kBootFailed;
    outcome.failure_reason = crash.reason;
    return outcome;
  }

  // --- Benchmark phase --------------------------------------------------------
  if (boot_only) {
    // No workload runs: runtime-stage failures cannot surface. The image
    // booted; its footprint is the measurement.
    return outcome;
  }
  // Watchdog faults: the benchmark exceeds its budget, or hangs until the
  // watchdog kills it. Either way the trial is charged the full watchdog
  // window — the expensive failure mode a re-measurement policy must
  // distinguish from config-caused crashes. One Bernoulli per active knob,
  // so the per-trial draw count is constant under a fixed plan.
  if (faults.timeout_prob > 0.0 || faults.hang_prob > 0.0) {
    bool timed_out = faults.timeout_prob > 0.0 && rng.Bernoulli(faults.timeout_prob);
    bool hung = faults.hang_prob > 0.0 && rng.Bernoulli(faults.hang_prob);
    if (timed_out || hung) {
      outcome.run_seconds = faults.timeout_seconds;
      if (clock != nullptr) {
        clock->Advance(outcome.run_seconds);
      }
      outcome.status = TrialOutcome::Status::kTimeout;
      outcome.failure_reason = timed_out ? "transient: benchmark exceeded watchdog"
                                         : "transient: hang killed by watchdog";
      return outcome;
    }
  }
  outcome.run_seconds = SampleRunSeconds(rng);
  if (crash.crashed) {
    // Runtime crashes/hangs surface part-way through the benchmark (hangs
    // cost the full watchdog window).
    outcome.run_seconds *= rng.Uniform(0.3, 1.2);
    if (clock != nullptr) {
      clock->Advance(outcome.run_seconds);
    }
    outcome.status = TrialOutcome::Status::kRunCrashed;
    outcome.failure_reason = crash.reason;
    return outcome;
  }
  if (clock != nullptr) {
    clock->Advance(outcome.run_seconds);
  }
  outcome.metric = perf_model_.SampleMetric(app_, config, rng);
  // Scheduled workload drift: trials starting after drift_at sample from a
  // shifted landscape, blended at drift_magnitude.
  if (drifted_perf_ != nullptr && trial_start >= faults.drift_at) {
    double shifted = drifted_perf_->SampleMetric(app_, config, rng);
    double blend = faults.drift_magnitude;
    outcome.metric = (1.0 - blend) * outcome.metric + blend * shifted;
  }
  // Heteroscedastic measurement noise: config-dependent variance on top of
  // the app's intrinsic noise_cv.
  if (faults.noise_sigma > 0.0) {
    outcome.metric *= std::exp(rng.Normal(0.0, faults.NoiseSigmaFor(config.Hash())));
  }
  return outcome;
}

}  // namespace wayfinder
