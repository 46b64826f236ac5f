// Record of one evaluated configuration — the unit of the exploration
// history that search algorithms learn from.
#ifndef WAYFINDER_SRC_PLATFORM_TRIAL_H_
#define WAYFINDER_SRC_PLATFORM_TRIAL_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "src/configspace/config_space.h"
#include "src/simos/testbench.h"

namespace wayfinder {

struct TrialRecord {
  size_t iteration = 0;
  Configuration config;
  TrialOutcome outcome;

  // Session-defined objective (higher is always better after polarity
  // normalization); NaN for crashed trials.
  double objective = std::nan("");

  // Simulated clock when the trial finished.
  double sim_time_end = 0.0;

  // Wall-clock seconds the search algorithm spent deciding on / learning
  // from this trial (the Figure 8 "DeepTune update time").
  double searcher_seconds = 0.0;

  bool crashed() const { return !outcome.ok(); }
  bool HasObjective() const { return !std::isnan(objective); }
};

// The failure taxonomy: crashed trials counted by class. One tally type for
// the session and the daemon's status mirror, so the classes are counted in
// one place.
struct FailureTally {
  size_t build_failed = 0;
  size_t boot_failed = 0;
  size_t run_crashed = 0;
  size_t timeouts = 0;

  void Add(TrialOutcome::Status status) {
    switch (status) {
      case TrialOutcome::Status::kBuildFailed:
        ++build_failed;
        break;
      case TrialOutcome::Status::kBootFailed:
        ++boot_failed;
        break;
      case TrialOutcome::Status::kRunCrashed:
        ++run_crashed;
        break;
      case TrialOutcome::Status::kTimeout:
        ++timeouts;
        break;
      case TrialOutcome::Status::kOk:
        break;
    }
  }
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_PLATFORM_TRIAL_H_
