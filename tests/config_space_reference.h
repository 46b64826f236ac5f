// The ParamSpec-walking, name-resolving forms of ConfigSpace's hot loops, as
// the space computed them before it compiled its parameters into a table.
// The equivalence tests (configspace_test, kconfig_select_test) compare the
// compiled forms against these bit for bit: values, change counts, encoded
// doubles and the Rng state after sampling.
#ifndef WAYFINDER_TESTS_CONFIG_SPACE_REFERENCE_H_
#define WAYFINDER_TESTS_CONFIG_SPACE_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/configspace/config_space.h"
#include "src/util/rng.h"

namespace wayfinder {
namespace reference {

// Configurations are plain value vectors here, so every clamp goes through
// ParamSpec::Clamp rather than the compiled table.
class ReferenceSpace {
 public:
  explicit ReferenceSpace(const ConfigSpace& space) : space_(space) {
    Configuration defaults = space.DefaultConfiguration();
    for (size_t i = 0; i < space.Size(); ++i) {
      frozen_.push_back(space.IsFrozen(i));
      frozen_value_.push_back(defaults.Raw(i));
    }
  }

  int64_t Clamp(size_t index, int64_t value) const { return space_.Param(index).Clamp(value); }

  int64_t RandomValue(size_t index, Rng& rng) const {
    const ParamSpec& spec = space_.Param(index);
    if (!spec.value_set.empty()) {
      return spec.value_set[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(spec.value_set.size()) - 1))];
    }
    switch (spec.kind) {
      case ParamKind::kBool:
        return rng.UniformInt(0, 1);
      case ParamKind::kTristate:
        return rng.UniformInt(0, 2);
      case ParamKind::kString:
        return rng.UniformInt(0, static_cast<int64_t>(spec.choices.size()) - 1);
      case ParamKind::kInt:
      case ParamKind::kHex: {
        if (spec.log_scale && spec.min_value >= 0) {
          double lo = std::log(static_cast<double>(std::max<int64_t>(1, spec.min_value)));
          double hi = std::log(static_cast<double>(std::max<int64_t>(1, spec.max_value)));
          double v = std::exp(rng.Uniform(lo, hi));
          int64_t value = static_cast<int64_t>(std::llround(v));
          return spec.Clamp(value);
        }
        return rng.UniformInt(spec.min_value, spec.max_value);
      }
    }
    return spec.default_value;
  }

  void RandomConfigurationInto(Rng& rng, const SampleOptions& opts,
                               std::vector<int64_t>* values) const {
    values->assign(space_.Size(), 0);
    for (size_t i = 0; i < space_.Size(); ++i) {
      const ParamSpec& spec = space_.Param(i);
      if (frozen_[i]) {
        (*values)[i] = Clamp(i, frozen_value_[i]);
      } else if (rng.Bernoulli(opts.ProbFor(spec.phase))) {
        (*values)[i] = Clamp(i, RandomValue(i, rng));
      } else {
        (*values)[i] = Clamp(i, spec.default_value);
      }
    }
    ApplyConstraints(values);
  }

  std::vector<double> MutationWeights(const SampleOptions& opts) const {
    std::vector<double> weights(space_.Size());
    for (size_t i = 0; i < space_.Size(); ++i) {
      weights[i] = frozen_[i] ? 0.0 : opts.ProbFor(space_.Param(i).phase);
    }
    return weights;
  }

  void NeighborInto(const std::vector<int64_t>& base, Rng& rng, size_t mutations,
                    const std::vector<double>& weights, std::vector<int64_t>* out) const {
    *out = base;
    if (space_.Size() == 0) {
      return;
    }
    double total = 0.0;
    for (double w : weights) {
      total += w;
    }
    if (total <= 0.0) {
      return;
    }
    for (size_t m = 0; m < mutations; ++m) {
      size_t index = rng.WeightedIndex(weights);
      (*out)[index] = Clamp(index, RandomValue(index, rng));
    }
    ApplyConstraints(out);
  }

  size_t ApplyConstraints(std::vector<int64_t>* values) const {
    std::vector<int64_t>& v = *values;
    const size_t n = space_.Size();
    size_t changed = 0;
    for (int pass = 0; pass < 8; ++pass) {
      size_t pass_changed = 0;
      std::vector<int64_t> select_floor(n, 0);
      for (size_t i = 0; i < n; ++i) {
        int64_t level = v[i];
        if (level == 0 || space_.Param(i).selects.empty()) {
          continue;
        }
        for (const std::string& target : space_.Param(i).selects) {
          auto target_index = space_.Find(target);
          if (!target_index.has_value()) {
            continue;
          }
          const ParamSpec& target_spec = space_.Param(*target_index);
          bool boolish = target_spec.kind == ParamKind::kBool ||
                         target_spec.kind == ParamKind::kTristate;
          if (!boolish) {
            continue;
          }
          int64_t wanted = std::min(level, target_spec.max_value);
          select_floor[*target_index] = std::max(select_floor[*target_index], wanted);
        }
      }
      for (size_t i = 0; i < n; ++i) {
        if (select_floor[i] > v[i]) {
          v[i] = Clamp(i, select_floor[i]);
          ++pass_changed;
        }
      }
      for (size_t i = 0; i < n; ++i) {
        const ParamSpec& spec = space_.Param(i);
        if (select_floor[i] > 0) {
          continue;
        }
        bool satisfied = true;
        for (const std::string& dep : spec.depends_on) {
          auto dep_index = space_.Find(dep);
          if (!dep_index.has_value()) {
            continue;
          }
          if (v[*dep_index] == 0) {
            satisfied = false;
            break;
          }
        }
        if (!satisfied) {
          bool boolish = spec.kind == ParamKind::kBool || spec.kind == ParamKind::kTristate;
          int64_t forced = boolish ? 0 : spec.default_value;
          if (v[i] != forced) {
            v[i] = Clamp(i, forced);
            ++pass_changed;
          }
        }
      }
      changed += pass_changed;
      if (pass_changed == 0) {
        break;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (frozen_[i] && v[i] != frozen_value_[i]) {
        v[i] = Clamp(i, frozen_value_[i]);
        ++changed;
      }
    }
    return changed;
  }

  double EncodeParam(size_t index, int64_t value) const {
    const ParamSpec& spec = space_.Param(index);
    if (!spec.value_set.empty()) {
      size_t n = spec.value_set.size();
      return n <= 1 ? 0.0
                    : static_cast<double>(spec.ValueSetIndex(value)) /
                          static_cast<double>(n - 1);
    }
    switch (spec.kind) {
      case ParamKind::kBool:
        return value != 0 ? 1.0 : 0.0;
      case ParamKind::kTristate:
        return static_cast<double>(value) / 2.0;
      case ParamKind::kString: {
        int64_t n = static_cast<int64_t>(spec.choices.size());
        return n <= 1 ? 0.0 : static_cast<double>(value) / static_cast<double>(n - 1);
      }
      case ParamKind::kInt:
      case ParamKind::kHex: {
        if (spec.max_value == spec.min_value) {
          return 0.0;
        }
        if (spec.log_scale && spec.min_value >= 0) {
          double lo = std::log1p(static_cast<double>(spec.min_value));
          double hi = std::log1p(static_cast<double>(spec.max_value));
          double v = std::log1p(static_cast<double>(spec.Clamp(value)));
          return (v - lo) / (hi - lo);
        }
        return static_cast<double>(value - spec.min_value) /
               static_cast<double>(spec.max_value - spec.min_value);
      }
    }
    return 0.0;
  }

  int64_t DecodeParam(size_t index, double feature) const {
    const ParamSpec& spec = space_.Param(index);
    feature = std::clamp(feature, 0.0, 1.0);
    if (!spec.value_set.empty()) {
      size_t n = spec.value_set.size();
      size_t i = static_cast<size_t>(std::llround(feature * static_cast<double>(n - 1)));
      return spec.value_set[std::min(i, n - 1)];
    }
    switch (spec.kind) {
      case ParamKind::kBool:
        return feature >= 0.5 ? 1 : 0;
      case ParamKind::kTristate:
        return static_cast<int64_t>(std::llround(feature * 2.0));
      case ParamKind::kString: {
        int64_t n = static_cast<int64_t>(spec.choices.size());
        return n <= 1 ? 0 : std::clamp<int64_t>(std::llround(feature * (n - 1)), 0, n - 1);
      }
      case ParamKind::kInt:
      case ParamKind::kHex: {
        if (spec.log_scale && spec.min_value >= 0) {
          double lo = std::log1p(static_cast<double>(spec.min_value));
          double hi = std::log1p(static_cast<double>(spec.max_value));
          double v = std::expm1(lo + feature * (hi - lo));
          return spec.Clamp(static_cast<int64_t>(std::llround(v)));
        }
        double span = static_cast<double>(spec.max_value - spec.min_value);
        return spec.Clamp(spec.min_value + static_cast<int64_t>(std::llround(feature * span)));
      }
    }
    return spec.default_value;
  }

 private:
  const ConfigSpace& space_;
  std::vector<bool> frozen_;
  std::vector<int64_t> frozen_value_;
};

// A raw configuration that reaches every branch: in-domain samples, defaults,
// and values a few steps outside either bound (negative ones included), which
// exercise the clamps and the select floor's raise of negative values.
inline std::vector<int64_t> RandomRaw(const ConfigSpace& space, const ReferenceSpace& ref,
                                      Rng& rng) {
  std::vector<int64_t> values(space.Size());
  for (size_t i = 0; i < space.Size(); ++i) {
    const ParamSpec& spec = space.Param(i);
    double draw = rng.Uniform();
    if (draw < 0.6) {
      values[i] = ref.RandomValue(i, rng);
    } else if (draw < 0.8) {
      values[i] = spec.default_value;
    } else {
      int64_t bound = draw < 0.9 ? spec.min_value : spec.max_value;
      values[i] = bound + rng.UniformInt(-3, 3);
    }
  }
  return values;
}

inline bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Checks the compiled space against the reference on `rounds` random raw
// configurations and on what sampling and mutation make of them: Clamp,
// EncodeParam and EncodeInto (bit for bit), DecodeParam, ApplyConstraints
// (values and change count), RandomValue, RandomConfigurationInto,
// MutationWeights and NeighborInto (values and the Rng state afterwards).
inline void ExpectMatchesReference(const ConfigSpace& space, uint64_t seed, int rounds,
                                   const std::string& what) {
  ReferenceSpace ref(space);
  const size_t n = space.Size();
  Rng rng(seed);
  std::vector<double> row(n);
  std::vector<double> weights;
  for (int round = 0; round < rounds; ++round) {
    const std::string at = what + " round " + std::to_string(round);
    std::vector<int64_t> raw = RandomRaw(space, ref, rng);
    Configuration config(&space, raw);

    space.EncodeInto(config, row.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(space.Clamp(i, raw[i]), ref.Clamp(i, raw[i])) << at << " param " << i;
      double expected = ref.EncodeParam(i, raw[i]);
      ASSERT_TRUE(SameBits(space.EncodeParam(i, raw[i]), expected)) << at << " param " << i;
      ASSERT_TRUE(SameBits(row[i], expected)) << at << " row, param " << i;
      double feature = rng.Uniform();
      for (double f : {0.0, 0.25, 0.5, 0.75, 1.0, feature}) {
        ASSERT_EQ(space.DecodeParam(i, f), ref.DecodeParam(i, f)) << at << " param " << i;
      }
    }

    std::vector<int64_t> constrained = raw;
    size_t expected_changes = ref.ApplyConstraints(&constrained);
    ASSERT_EQ(space.ApplyConstraints(&config), expected_changes) << at;
    ASSERT_EQ(config.values(), constrained) << at;

    for (size_t i = 0; i < n; ++i) {
      Rng a(seed + i), b(seed + i);
      ASSERT_EQ(space.RandomValue(i, a), ref.RandomValue(i, b)) << at << " param " << i;
      ASSERT_EQ(a.SerializeState(), b.SerializeState()) << at << " param " << i;
    }

    for (const SampleOptions& opts : {SampleOptions(), SampleOptions::FavorRuntime(),
                                      SampleOptions::FavorCompileTime()}) {
      Rng a(seed ^ static_cast<uint64_t>(round)), b(seed ^ static_cast<uint64_t>(round));
      Configuration sampled = config;
      std::vector<int64_t> expected;
      space.RandomConfigurationInto(a, opts, &sampled);
      ref.RandomConfigurationInto(b, opts, &expected);
      ASSERT_EQ(sampled.values(), expected) << at;
      ASSERT_EQ(a.SerializeState(), b.SerializeState()) << at;

      space.MutationWeights(opts, &weights);
      ASSERT_EQ(weights, ref.MutationWeights(opts)) << at;
      for (size_t mutations = 1; mutations <= 4; ++mutations) {
        // From the constrained configuration and from the raw one.
        for (const std::vector<int64_t>* base : {&constrained, &raw}) {
          Configuration from(&space, *base);
          Configuration neighbor;
          std::vector<int64_t> expected_neighbor;
          space.NeighborInto(from, a, mutations, weights, &neighbor);
          ref.NeighborInto(*base, b, mutations, weights, &expected_neighbor);
          ASSERT_EQ(neighbor.values(), expected_neighbor) << at;
          ASSERT_EQ(a.SerializeState(), b.SerializeState()) << at;
          space.EncodeInto(neighbor, row.data());
          for (size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(SameBits(row[i], ref.EncodeParam(i, neighbor.Raw(i))))
                << at << " neighbor, param " << i;
          }
        }
      }
    }
  }
}

}  // namespace reference
}  // namespace wayfinder

#endif  // WAYFINDER_TESTS_CONFIG_SPACE_REFERENCE_H_
