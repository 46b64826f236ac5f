// The configuration space: an ordered set of ParamSpecs plus sampling,
// validity enforcement, and the numeric encoding consumed by the optimizers.
#ifndef WAYFINDER_SRC_CONFIGSPACE_CONFIG_SPACE_H_
#define WAYFINDER_SRC_CONFIGSPACE_CONFIG_SPACE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/configspace/parameter.h"
#include "src/util/rng.h"

namespace wayfinder {

class ConfigSpace;

// One point of the space: a raw value per parameter, aligned with the
// owning ConfigSpace's parameter order. Configurations are plain values so
// the search history can store thousands of them cheaply.
class Configuration {
 public:
  Configuration() = default;
  Configuration(const ConfigSpace* space, std::vector<int64_t> values);

  const ConfigSpace* space() const { return space_; }
  size_t Size() const { return values_.size(); }

  int64_t Raw(size_t index) const { return values_[index]; }
  void SetRaw(size_t index, int64_t value);

  // Name-based access; aborts on unknown names (programming error).
  int64_t Get(const std::string& name) const;
  void Set(const std::string& name, int64_t value);

  bool operator==(const Configuration& other) const { return values_ == other.values_; }

  // Stable content hash for dedup across a search session and across
  // warm-start priors.
  uint64_t Hash() const;

  // "NAME=value" lines for the parameters that differ from the default.
  std::string DiffString() const;

  const std::vector<int64_t>& values() const { return values_; }

 private:
  const ConfigSpace* space_ = nullptr;
  std::vector<int64_t> values_;
};

// Knobs for random sampling. `mutation_prob[phase]` is the probability that
// a parameter of that phase is randomized away from its default; 1.0 for all
// phases reproduces the paper's fully random search, and the evaluation's
// "favor runtime/compile-time options" modes lower the other phases.
struct SampleOptions {
  double compile_prob = 1.0;
  double boot_prob = 1.0;
  double runtime_prob = 1.0;

  static SampleOptions FavorRuntime() { return SampleOptions{0.001, 0.001, 1.0}; }
  static SampleOptions FavorCompileTime() { return SampleOptions{1.0, 0.10, 0.02}; }

  double ProbFor(ParamPhase phase) const {
    switch (phase) {
      case ParamPhase::kCompileTime:
        return compile_prob;
      case ParamPhase::kBootTime:
        return boot_prob;
      case ParamPhase::kRuntime:
        return runtime_prob;
    }
    return 1.0;
  }
};

// Ordered collection of parameters.
class ConfigSpace {
 public:
  ConfigSpace() = default;

  // Adds a parameter; duplicate names abort.
  size_t Add(ParamSpec spec);

  size_t Size() const { return params_.size(); }
  const ParamSpec& Param(size_t index) const { return params_[index]; }
  const std::vector<ParamSpec>& Params() const { return params_; }

  // Index lookup by name, nullopt when absent.
  std::optional<size_t> Find(const std::string& name) const;

  // Marks a parameter as fixed: sampling and mutation never move it away
  // from `value` (§3.5, security-aware search). Unknown names are ignored
  // and reported as false.
  bool Freeze(const std::string& name, int64_t value);
  bool IsFrozen(size_t index) const;
  size_t FrozenCount() const;

  // The OS's default configuration (frozen values applied).
  Configuration DefaultConfiguration() const;

  // Fully or phase-biased random sample; always satisfies dependency
  // constraints and frozen values.
  //
  // Thread-safety: RandomConfiguration, Neighbor, RandomValue,
  // ApplyConstraints, IsValid, Encode/EncodeInto/EncodeParam/DecodeParam and
  // the *Into variants below are pure over the space's immutable members
  // (params_, frozen_, index_by_name_), so concurrent calls on one space are
  // safe as long as each caller owns its Rng and output Configuration.
  Configuration RandomConfiguration(Rng& rng, const SampleOptions& opts = SampleOptions()) const;
  // In-place variant for hot proposal loops: overwrites `out`, which must
  // already belong to this space, instead of building a fresh Configuration.
  // Draw-for-draw identical to RandomConfiguration.
  void RandomConfigurationInto(Rng& rng, const SampleOptions& opts, Configuration* out) const;

  // Mutates `mutations` randomly chosen non-frozen parameters of `base`.
  Configuration Neighbor(const Configuration& base, Rng& rng, size_t mutations,
                         const SampleOptions& opts = SampleOptions()) const;
  // In-place variant: copies `base` into `out` (reusing its buffer) and
  // mutates there. `weights` must be the per-parameter mutation weights
  // MutationWeights() returns for `opts`; hoisting them out lets a pool
  // loop share one weight vector across thousands of candidates.
  void NeighborInto(const Configuration& base, Rng& rng, size_t mutations,
                    const std::vector<double>& weights, Configuration* out) const;
  // Per-parameter mutation weights for `opts`: 0 for frozen parameters,
  // else the phase's sampling probability.
  std::vector<double> MutationWeights(const SampleOptions& opts) const;

  // Draws a random in-domain value for one parameter (log-aware for numeric
  // domains spanning decades).
  int64_t RandomValue(size_t index, Rng& rng) const;

  // Enforces `depends_on` and `selects` edges: selected symbols are raised
  // to their strongest selector's level (overriding their own dependencies,
  // as in Kconfig), any other parameter whose dependency chain is not fully
  // enabled is reset to its default, then frozen values are applied.
  // Returns the number of values it had to change.
  size_t ApplyConstraints(Configuration* config) const;

  // True when all dependencies hold and all values are in-domain.
  bool IsValid(const Configuration& config) const;

  // --- ML encoding -------------------------------------------------------
  // Each parameter maps to one feature in [0, 1]: booleans to {0,1},
  // tristates to {0, .5, 1}, categoricals to index/(n-1), numerics to their
  // (log-scaled, if flagged) position within [min, max].
  size_t FeatureDimension() const { return params_.size(); }
  std::vector<double> Encode(const Configuration& config) const;
  // Writes the feature vector into `out` (FeatureDimension() doubles) —
  // the allocation-free form the batched proposal path uses to fill one
  // row of the candidate matrix per configuration.
  void EncodeInto(const Configuration& config, double* out) const;
  double EncodeParam(size_t index, int64_t value) const;
  // Inverse of EncodeParam (rounds to the nearest domain value).
  int64_t DecodeParam(size_t index, double feature) const;

  // Number of parameters per phase / kind, for the census experiments.
  size_t CountPhase(ParamPhase phase) const;
  size_t CountKind(ParamKind kind) const;

  // log10 of the number of distinct configurations (sum of log10 domain
  // sizes); the Unikraft space of Figure 9 reports ~13.6 (3.7e13).
  double Log10SpaceSize() const;

 private:
  std::vector<ParamSpec> params_;
  std::unordered_map<std::string, size_t> index_by_name_;
  std::vector<bool> frozen_;
  std::vector<int64_t> frozen_value_;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CONFIGSPACE_CONFIG_SPACE_H_
