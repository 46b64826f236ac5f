// The simulated build/boot/benchmark testbench.
//
// One Wayfinder iteration evaluates a configuration by (1) building an OS
// image, (2) booting it in a VM, and (3) running the application benchmark
// (§3.1). This class simulates those phases: each consumes simulated seconds
// on the caller's SimClock with realistic durations, and the outcome comes
// from the deterministic performance/crash/memory models. The build phase
// can be skipped when only runtime parameters changed since the previously
// built image — the platform layer decides that (the paper's build-skip
// optimization).
#ifndef WAYFINDER_SRC_SIMOS_TESTBENCH_H_
#define WAYFINDER_SRC_SIMOS_TESTBENCH_H_

#include <memory>
#include <string>

#include "src/configspace/config_space.h"
#include "src/simos/apps.h"
#include "src/simos/crash_model.h"
#include "src/simos/fault_plan.h"
#include "src/simos/memory_model.h"
#include "src/simos/perf_model.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"

namespace wayfinder {

// Result of evaluating one configuration end to end.
struct TrialOutcome {
  // kTimeout is the transient watchdog class (benchmark exceeded its budget
  // or hung and was killed); unlike the other failures it says nothing
  // about the configuration — the same config would likely succeed retried.
  enum class Status { kOk, kBuildFailed, kBootFailed, kRunCrashed, kTimeout };

  Status status = Status::kOk;
  bool ok() const { return status == Status::kOk; }
  // Transient-class failure: infrastructure noise a re-measurement policy
  // may retry, as opposed to a config-caused crash a searcher should learn.
  // Timeouts are transient by status; flakes carry a "transient:" reason.
  bool transient() const {
    return status == Status::kTimeout ||
           (status != Status::kOk && failure_reason.rfind("transient:", 0) == 0);
  }

  double metric = 0.0;        // App metric (valid when ok()).
  double memory_mb = 0.0;     // Boot footprint (valid unless build failed).
  double build_seconds = 0.0;  // 0 when the build was skipped.
  double boot_seconds = 0.0;
  double run_seconds = 0.0;
  bool build_skipped = false;
  std::string failure_reason;

  double TotalSeconds() const { return build_seconds + boot_seconds + run_seconds; }
};

// Stable text names for TrialOutcome::Status — the vocabulary of the
// checkpoint format's trial and `failures` lines (one list, so the two
// cannot drift apart).
const char* TrialStatusName(TrialOutcome::Status status);
bool TrialStatusFromName(const std::string& name, TrialOutcome::Status* status);

struct TestbenchOptions {
  Substrate substrate = Substrate::kLinuxKvm;
  uint64_t seed = 0xbe27c4;
  double default_footprint_mb = 210.0;
  // When positive, every phase of every evaluation costs exactly this many
  // simulated seconds (crashes included), so all trials have equal total
  // duration. A testing seam for executor-equivalence pins that need the
  // sliding-window schedule to degenerate to lock-step rounds; outcomes
  // (crash/metric/memory) are computed normally. 0 = realistic durations.
  double fixed_trial_seconds = 0.0;
  // Hostile-world scenario: timeouts, hangs, flakes, heteroscedastic noise,
  // and scheduled workload drift. The default (inactive) plan is a strict
  // no-op — zero extra RNG draws — so existing trajectory pins stay
  // bit-identical.
  FaultPlan faults;
};

class Testbench {
 public:
  Testbench(const ConfigSpace* space, AppId app, const TestbenchOptions& options = {});

  // Evaluates `config`. When `skip_build` is set the compile/boot image is
  // reused (the caller must have verified compile/boot params are unchanged)
  // and build failures cannot occur. When `boot_only` is set the application
  // benchmark is skipped: the trial measures boot memory only (the Figure 10
  // memory-footprint experiments boot images without running a workload).
  // Advances `clock` by each phase's cost.
  TrialOutcome Evaluate(const Configuration& config, Rng& rng, SimClock* clock,
                        bool skip_build = false, bool boot_only = false);

  AppId app() const { return app_; }
  const ConfigSpace& space() const { return *space_; }
  // Built for app() only: asking it about another app aborts.
  const PerfModel& perf_model() const { return perf_model_; }
  const CrashModel& crash_model() const { return crash_model_; }
  const MemoryModel& memory_model() const { return memory_model_; }
  Substrate substrate() const { return options_.substrate; }

  // Duration models, exposed for the Figure 8 loop breakdown.
  double SampleBuildSeconds(Rng& rng) const;
  double SampleBootSeconds(Rng& rng) const;
  double SampleRunSeconds(Rng& rng) const;

  // Where this bench's clock sits in the session's global simulated
  // timeline. A serial session evaluates on the global clock directly
  // (origin 0). The batch executor evaluates each slot on a local clock
  // starting at 0, sets the slots' launch time here so scheduled faults
  // (FaultPlan::drift_at) see global time, and resets it to 0 afterwards.
  void SetSimTimeOrigin(double t) { sim_time_origin_ = t; }

 private:
  // The realistic-duration evaluation; the public Evaluate overrides its
  // durations when options_.fixed_trial_seconds is set.
  TrialOutcome EvaluateImpl(const Configuration& config, Rng& rng, SimClock* clock,
                            bool skip_build, bool boot_only);
  const ConfigSpace* space_;
  AppId app_;
  TestbenchOptions options_;
  PerfModel perf_model_;
  CrashModel crash_model_;
  MemoryModel memory_model_;
  // The post-drift landscape (FaultPlan::drift_at > 0 only). Shared and
  // immutable, so copies of a Testbench stay cheap.
  std::shared_ptr<const PerfModel> drifted_perf_;
  double sim_time_origin_ = 0.0;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SIMOS_TESTBENCH_H_
