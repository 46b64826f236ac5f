// The configuration space: an ordered set of ParamSpecs plus sampling,
// validity enforcement, and the numeric encoding consumed by the optimizers.
#ifndef WAYFINDER_SRC_CONFIGSPACE_CONFIG_SPACE_H_
#define WAYFINDER_SRC_CONFIGSPACE_CONFIG_SPACE_H_

#include <algorithm>
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
  // Stores `value` clamped into the parameter's domain.
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
//
// Add and Freeze also compile each parameter into a compact record (its clamp
// bounds, sampling and encoding rule with their precomputed constants, phase,
// default and frozen value) and resolve every `depends_on`/`selects` name to
// an index, so the sampling, clamping, encoding and constraint loops below
// read a few cache lines of flat arrays instead of hashing names and walking
// ParamSpecs. Each compiled value is the same expression on the same operands
// the ParamSpec form computes, so every result keeps its bits.
class ConfigSpace {
 public:
  ConfigSpace() = default;

  // Adds a parameter; duplicate names abort. A `depends_on`/`selects` name
  // that no parameter has yet resolves when a parameter of that name is added.
  size_t Add(ParamSpec spec);

  // Releases the growth slack of the parameter list and the compiled table;
  // call once a space is fully built (BuildJobSpace does).
  void ShrinkToFit();

  size_t Size() const { return params_.size(); }
  const ParamSpec& Param(size_t index) const { return params_[index]; }
  const std::vector<ParamSpec>& Params() const { return params_; }

  // Index lookup by name, nullopt when absent.
  std::optional<size_t> Find(const std::string& name) const;

  // Marks a parameter as fixed: sampling and mutation never move it away
  // from `value` (§3.5, security-aware search). Unknown names are ignored
  // and reported as false.
  bool Freeze(const std::string& name, int64_t value);
  bool IsFrozen(size_t index) const { return table_[index].frozen; }
  size_t FrozenCount() const { return frozen_.size(); }

  // Param(index).Clamp(value), read from the compiled table.
  int64_t Clamp(size_t index, int64_t value) const;

  // The OS's default configuration (frozen values applied).
  Configuration DefaultConfiguration() const;

  // Fully or phase-biased random sample; always satisfies dependency
  // constraints and frozen values.
  //
  // Thread-safety: the compiled table is built by Add and Freeze and is
  // read-only afterwards. RandomConfiguration, Neighbor, RandomValue,
  // Clamp, ApplyConstraints, IsValid, Encode/EncodeInto/EncodeParam/
  // DecodeParam and the *Into variants below only read it (ApplyConstraints'
  // select-floor scratch is per thread), so concurrent calls on one space
  // are safe as long as each caller owns its Rng and output Configuration
  // and no thread is adding or freezing parameters.
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
  // MutationWeights() writes for `opts`; hoisting them out lets a pool
  // loop share one weight vector across thousands of candidates.
  void NeighborInto(const Configuration& base, Rng& rng, size_t mutations,
                    const std::vector<double>& weights, Configuration* out) const;
  // Writes the per-parameter mutation weights for `opts` into `weights`
  // (resized to Size(), reusing its buffer): 0 for frozen parameters, else
  // the phase's sampling probability.
  void MutationWeights(const SampleOptions& opts, std::vector<double>* weights) const;

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

  // Number of parameters per phase, for the census experiments.
  size_t CountPhase(ParamPhase phase) const;

  // log10 of the number of distinct configurations (sum of log10 domain
  // sizes); the Unikraft space of Figure 9 reports ~13.6 (3.7e13).
  double Log10SpaceSize() const;

 private:
  // How a parameter is clamped, sampled and encoded.
  enum class Rule : uint8_t {
    kBool,      // Clamp to [lo, hi] = [0, 1]; uniform draw; feature v != 0.
    kRange,     // Clamp to [lo, hi]; uniform draw; feature (v - lo) / (hi - lo).
    kLog,       // Clamp to [lo, hi]; log-uniform draw; log1p-scaled feature.
    kValueSet,  // Nearest member of the set; uniform member; member index / (n - 1).
  };

  // One parameter's hot-path record (40 bytes), compiled from its ParamSpec.
  struct CompiledParam {
    // Clamp bounds, which are also the uniform draw's bounds. For kValueSet
    // they are [0, n - 1], the indices into the parameter's set. Tristates
    // and strings are [0, 2] and [0, choices - 1]; a feature is 0 when
    // lo == hi.
    int64_t lo = 0;
    int64_t hi = 0;
    int64_t default_value = 0;
    int64_t frozen_value = 0;  // Meaningful when `frozen`.
    // kLog: index into log_scales_. kValueSet: offset of the set in
    // value_sets_.
    uint32_t aux = 0;
    Rule rule = Rule::kRange;
    ParamPhase phase = ParamPhase::kRuntime;
    bool frozen = false;
    bool boolish = false;  // kBool or kTristate: the kinds `selects` reaches.
  };

  // A kLog parameter's precomputed constants.
  struct LogScale {
    double encode_base = 0.0;  // log1p(lo).
    double encode_span = 0.0;  // log1p(hi) - log1p(lo).
    double sample_lo = 0.0;    // log(max(1, lo)).
    double sample_hi = 0.0;    // log(max(1, hi)).
  };

  // `param` depends on `dep`. Sorted by param (the constraint pass visits
  // parameters in ascending order).
  struct DependsEdge {
    uint32_t param;
    uint32_t dep;
  };
  // `selector` selects the bool/tristate `target`, whose max_value is `cap`.
  struct SelectEdge {
    uint32_t selector;
    uint32_t target;
    int64_t cap;
  };
  // A `depends_on` (is_select false) or `selects` name of `param` that no
  // parameter had when `param` was added.
  struct PendingEdge {
    uint32_t param;
    bool is_select;
  };

  int64_t ClampToValueSet(const CompiledParam& record, int64_t value) const;
  size_t ValueSetIndex(const CompiledParam& record, int64_t value) const;
  // Records the edge from `param` to the parameter at `target`.
  void AddEdge(uint32_t param, size_t target, bool is_select);

  std::vector<ParamSpec> params_;
  std::unordered_map<std::string, size_t> index_by_name_;

  std::vector<CompiledParam> table_;  // One record per parameter.
  std::vector<LogScale> log_scales_;  // One per kLog parameter.
  std::vector<int64_t> value_sets_;   // Every kValueSet parameter's set.
  std::vector<DependsEdge> depends_;
  std::vector<SelectEdge> selects_;
  std::vector<uint32_t> frozen_;      // Frozen parameters, ascending.
  std::unordered_map<std::string, std::vector<PendingEdge>> unresolved_;
};

inline int64_t ConfigSpace::Clamp(size_t index, int64_t value) const {
  const CompiledParam& record = table_[index];
  if (record.rule == Rule::kValueSet) {
    return ClampToValueSet(record, value);
  }
  return std::clamp(value, record.lo, record.hi);
}

inline void Configuration::SetRaw(size_t index, int64_t value) {
  values_[index] = space_->Clamp(index, value);
}

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CONFIGSPACE_CONFIG_SPACE_H_
