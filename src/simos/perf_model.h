// Deterministic application-performance model over OS configurations.
//
// This is the substitution for the paper's physical testbed (Xeon server,
// KVM guests, wrk/redis-benchmark/db_bench/NPB): a seeded, deterministic
// function from (application, configuration) to the application's metric,
// calibrated against every observable statistic the paper reports:
//
//   * the default configuration reproduces the Table 2 baselines exactly;
//   * ~100 curated real parameters carry hand-modeled response curves that
//     match published tuning knowledge (net.core.somaxconn helps, printk
//     verbosity hurts, KASAN is catastrophic, ...), so the "high-impact
//     parameters" Wayfinder reports in §4.1 are discoverable here too;
//   * every synthetic parameter gets a small hashed effect shared across
//     applications and scaled by the app's subsystem sensitivity, plus an
//     app-specific residual — which reproduces the Figure 5 cross-similarity
//     structure (Nginx/Redis/SQLite correlated, NPB not);
//   * per-application totals are rescaled so the best reachable improvement
//     and the worst random downside match Figure 2 / Figure 6 / Table 2;
//   * a handful of pairwise interaction terms make the landscape
//     non-additive, so learning-based search has an edge over random.
#ifndef WAYFINDER_SRC_SIMOS_PERF_MODEL_H_
#define WAYFINDER_SRC_SIMOS_PERF_MODEL_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "src/configspace/config_space.h"
#include "src/simos/apps.h"
#include "src/util/rng.h"

namespace wayfinder {

// Which substrate the configurations drive; affects baselines and the
// magnitude of reachable improvement (a unikernel's configuration moves its
// performance far more than Linux's, §4.4).
enum class Substrate { kLinuxKvm, kUnikraftKvm, kLinuxRiscvQemu };

class PerfModel {
 public:
  // Builds the tables of all four apps.
  PerfModel(const ConfigSpace* space, Substrate substrate = Substrate::kLinuxKvm,
            uint64_t seed = 0x5eedf00d);
  // Builds the tables of `only_app` alone, a quarter of the work (Testbench
  // holds one of these per bench). Each app's effects, rescale and
  // interactions derive from (seed, parameter name, app) alone, so its
  // values keep the four-app model's bits. Asking about another app aborts.
  PerfModel(const ConfigSpace* space, Substrate substrate, uint64_t seed, AppId only_app);

  const ConfigSpace& space() const { return *space_; }
  Substrate substrate() const { return substrate_; }

  // Metric for the app under this configuration: the deterministic model
  // value, without run-to-run noise. Higher-is-better apps get
  // baseline*exp(goodness); lower-is-better apps baseline*exp(-goodness).
  double MeanMetric(AppId app, const Configuration& config) const;

  // One benchmark-run sample: MeanMetric with multiplicative noise drawn
  // from `run_rng` at the app's noise_cv.
  double SampleMetric(AppId app, const Configuration& config, Rng& run_rng) const;

  // The metric of the default configuration (== the app baseline for this
  // substrate).
  double BaselineMetric(AppId app) const;

  // Log-space "goodness" relative to the default configuration (0 for the
  // default; positive is better for the app regardless of metric polarity).
  double Goodness(AppId app, const Configuration& config) const;

  // Ground-truth per-parameter impact magnitude (max |log response| over the
  // domain), used by the Figure 5 similarity analysis and by tests.
  std::vector<double> TrueImportance(AppId app) const;

  // Upper bound on reachable improvement: sum of per-parameter positive
  // headroom in log space.
  double MaxHeadroom(AppId app) const;

 private:
  enum class Shape { kLinearUp, kLinearDown, kPeak, kValley, kStepHigh };

  struct ParamEffect {
    double magnitude = 0.0;  // Log-space amplitude after all scaling.
    Shape shape = Shape::kLinearUp;
    double peak = 0.5;          // Peak/threshold position in encoded [0,1].
    double default_code = 0.0;  // Encoded default (response anchors to 0 here).
  };

  struct Interaction {
    size_t a = 0;
    size_t b = 0;
    double coefficient = 0.0;  // Applied to the product of deviations.
  };

  // Builds the shared bloat mass, then the tables of each app in `apps`.
  PerfModel(const ConfigSpace* space, Substrate substrate, uint64_t seed,
            std::initializer_list<AppId> apps);
  // The table index of `app`; aborts when its tables were not built.
  size_t Index(AppId app) const;

  static double ShapeValue(const ParamEffect& effect, double x);
  // Response anchored at the default (0 there), before pos/neg rescale.
  static double RawResponse(const ParamEffect& effect, double x);
  double Response(AppId app, size_t param, double x) const;

  void BuildEffects(AppId app, uint64_t seed);
  void RescaleEffects(AppId app);
  void BuildInteractions(AppId app, uint64_t seed);

  const ConfigSpace* space_;
  Substrate substrate_;
  std::array<bool, 4> built_{};  // Apps whose tables were built.
  std::array<std::vector<ParamEffect>, 4> effects_;
  std::array<std::vector<Interaction>, 4> interactions_;
  std::array<double, 4> pos_scale_{1.0, 1.0, 1.0, 1.0};
  std::array<double, 4> neg_scale_{1.0, 1.0, 1.0, 1.0};
  std::array<double, 4> baseline_{};
  // Global "kernel bloat drag": enabled compile-time mass slows the app
  // down slightly; this is the effect Cozart-style debloating recovers.
  std::array<double, 4> bloat_drag_{};
  double default_bloat_ = 0.0;
  std::vector<double> compile_mass_;  // Per-param bloat contribution weight.
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SIMOS_PERF_MODEL_H_
