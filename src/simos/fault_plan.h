// Deterministic hostile-world scenario description for the Testbench.
//
// A FaultPlan models the failure classes a physical tuning fleet sees
// (§3.5's "the testbench must tolerate failures"): benchmark timeouts,
// hangs killed by a watchdog, transient infrastructure flakes, noisy repeat
// measurements, and the workload itself shifting mid-search. Each class is
// injected from the trial's own RNG stream, so injection is a pure function
// of (plan, trial seed) — two runs with the same plan and seeds produce the
// same faults, and the session's counter-derived retry streams can clear a
// transient fault deterministically.
//
// An EMPTY plan is a strict no-op: the Testbench makes zero extra RNG draws
// when every knob is at its default, so all pre-existing trajectory pins
// stay bit-identical (pinned by fault_plan_test).
#ifndef WAYFINDER_SRC_SIMOS_FAULT_PLAN_H_
#define WAYFINDER_SRC_SIMOS_FAULT_PLAN_H_

#include <cstdint>

namespace wayfinder {

struct FaultPlan {
  // Probability a trial fails at a uniformly chosen stage for reasons
  // unrelated to the configuration (host hiccup, QEMU flake).
  double flake_prob = 0.0;
  // Probability the benchmark phase exceeds the watchdog budget; the trial
  // is charged `timeout_seconds` of simulated run time and reports
  // TrialOutcome::Status::kTimeout.
  double timeout_prob = 0.0;
  // Probability the workload hangs and the watchdog kills it — same charge
  // and status as a timeout, distinguished by failure_reason.
  double hang_prob = 0.0;
  // The watchdog window (simulated seconds) charged by a timeout or hang.
  double timeout_seconds = 600.0;
  // Heteroscedastic measurement noise: a successful trial's metric is
  // multiplied by exp(Normal(0, sigma_c)) where sigma_c depends on the
  // configuration (NoiseSigmaFor), modeling configs whose measurements are
  // intrinsically noisier. 0 disables.
  double noise_sigma = 0.0;
  // Mid-search workload drift: once a trial STARTS at simulated time >=
  // drift_at, its metric is sampled from a shifted PerfModel (same space
  // and substrate, drifted seed) blended at drift_magnitude. 0 = never.
  double drift_at = 0.0;
  // Blend weight of the drifted landscape in [0, 1]; 1 = full shift.
  double drift_magnitude = 1.0;

  // Config-dependent noise level: noise_sigma scaled into [0.5x, 1.5x] by
  // the configuration hash, so variance is a deterministic property of the
  // configuration — the heteroscedastic part.
  double NoiseSigmaFor(uint64_t config_hash) const;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SIMOS_FAULT_PLAN_H_
