// Configuration crash model.
//
// The paper observes that about one third of random Linux configurations
// fail: they do not build, do not boot, or crash/hang at runtime (§2.2,
// grouped as "crashes"). This model decides deterministically (plus a small
// flake probability) whether a configuration fails and at which stage:
//
//   * fragile numeric parameters: a hashed subset of int/hex parameters has
//     a danger zone at one extreme of its domain — values inside it crash
//     (the undocumented-validity problem of §3.4);
//   * essential compile-time options: a hashed subset of default-on
//     bool/tristate compile options cannot be disabled without breaking the
//     boot (what Undertaker/Cozart must learn to keep);
//   * curated rules: a few real failure modes (memory over-reservation,
//     overcommit strictness vs. allocator-heavy apps, undersized unikernel
//     heaps, NR_CPUS below the application's core count).
//
// Being mostly deterministic in the configuration is what makes crashes
// *learnable* — DeepTune's crash head exploits exactly this structure.
#ifndef WAYFINDER_SRC_SIMOS_CRASH_MODEL_H_
#define WAYFINDER_SRC_SIMOS_CRASH_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/configspace/config_space.h"
#include "src/simos/apps.h"
#include "src/util/rng.h"

namespace wayfinder {

struct CrashOutcome {
  bool crashed = false;
  ParamPhase stage = ParamPhase::kRuntime;  // Build / boot / run failure.
  std::string reason;
};

class CrashModel {
 public:
  explicit CrashModel(const ConfigSpace* space, uint64_t seed = 0xdeadc0de);

  // Deterministic verdict plus a small random flake (0.5%).
  CrashOutcome Check(AppId app, const Configuration& config, Rng& run_rng) const;

  // Deterministic part only (no flake); used by tests and by the analysis
  // of prediction accuracy.
  CrashOutcome CheckDeterministic(AppId app, const Configuration& config) const;

  // True when disabling this compile-time option breaks the boot. The
  // Cozart-style debloater consults this: dynamic analysis sees these
  // options' code execute during boot and keeps them.
  bool IsEssentialCompileOption(size_t param_index) const;

  // Indices of fragile numeric parameters with their danger-zone start in
  // encoded [0,1] (crash when encoded value >= threshold or <= threshold,
  // per `high_side`). Exposed for tests.
  struct FragileZone {
    size_t param = 0;
    double threshold = 0.0;
    bool high_side = true;
  };
  const std::vector<FragileZone>& fragile_zones() const { return fragile_zones_; }

  // Essential options, as consecutive pairs (crash requires both of a pair
  // disabled). Exposed for tests.
  const std::vector<size_t>& essential_pairs() const { return essential_pairs_; }

  // The essential tristate option ("n" fails to boot), if the space has one.
  std::optional<size_t> essential_tristate() const { return essential_tristate_; }

 private:
  const ConfigSpace* space_;
  std::vector<FragileZone> fragile_zones_;
  std::vector<bool> essential_;
  std::vector<size_t> essential_pairs_;
  std::optional<size_t> essential_tristate_;
  static constexpr double kFlakeProbability = 0.005;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SIMOS_CRASH_MODEL_H_
