#include "src/configspace/config_space.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace wayfinder {

Configuration::Configuration(const ConfigSpace* space, std::vector<int64_t> values)
    : space_(space), values_(std::move(values)) {
  assert(space_ != nullptr);
  assert(values_.size() == space_->Size());
}

void Configuration::SetRaw(size_t index, int64_t value) {
  values_[index] = space_->Param(index).Clamp(value);
}

int64_t Configuration::Get(const std::string& name) const {
  auto index = space_->Find(name);
  if (!index.has_value()) {
    std::abort();
  }
  return values_[*index];
}

void Configuration::Set(const std::string& name, int64_t value) {
  auto index = space_->Find(name);
  if (!index.has_value()) {
    std::abort();
  }
  SetRaw(*index, value);
}

uint64_t Configuration::Hash() const {
  uint64_t hash = 0x243f6a8885a308d3ULL;
  for (int64_t v : values_) {
    hash = HashCombine(hash, static_cast<uint64_t>(v));
  }
  return hash;
}

std::string Configuration::DiffString() const {
  std::ostringstream oss;
  for (size_t i = 0; i < values_.size(); ++i) {
    const ParamSpec& spec = space_->Param(i);
    if (values_[i] != spec.default_value) {
      oss << spec.name << "=" << spec.FormatValue(values_[i]) << "\n";
    }
  }
  return oss.str();
}

size_t ConfigSpace::Add(ParamSpec spec) {
  assert(index_by_name_.find(spec.name) == index_by_name_.end());
  size_t index = params_.size();
  index_by_name_.emplace(spec.name, index);
  params_.push_back(std::move(spec));
  frozen_.push_back(false);
  frozen_value_.push_back(0);
  return index;
}

std::optional<size_t> ConfigSpace::Find(const std::string& name) const {
  auto it = index_by_name_.find(name);
  if (it == index_by_name_.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool ConfigSpace::Freeze(const std::string& name, int64_t value) {
  auto index = Find(name);
  if (!index.has_value()) {
    return false;
  }
  frozen_[*index] = true;
  frozen_value_[*index] = params_[*index].Clamp(value);
  return true;
}

bool ConfigSpace::IsFrozen(size_t index) const { return frozen_[index]; }

size_t ConfigSpace::FrozenCount() const {
  size_t count = 0;
  for (bool f : frozen_) {
    count += f ? 1 : 0;
  }
  return count;
}

Configuration ConfigSpace::DefaultConfiguration() const {
  std::vector<int64_t> values(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    values[i] = frozen_[i] ? frozen_value_[i] : params_[i].default_value;
  }
  return Configuration(this, std::move(values));
}

int64_t ConfigSpace::RandomValue(size_t index, Rng& rng) const {
  const ParamSpec& spec = params_[index];
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
        // Sample uniformly in log space over [max(1,min), max]; this matches
        // how humans sweep buffer sizes and avoids drowning small values.
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

Configuration ConfigSpace::RandomConfiguration(Rng& rng, const SampleOptions& opts) const {
  Configuration config(this, std::vector<int64_t>(params_.size()));
  RandomConfigurationInto(rng, opts, &config);
  return config;
}

void ConfigSpace::RandomConfigurationInto(Rng& rng, const SampleOptions& opts,
                                          Configuration* out) const {
  assert(out->space() == this && out->Size() == params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    const ParamSpec& spec = params_[i];
    if (frozen_[i]) {
      out->SetRaw(i, frozen_value_[i]);
    } else if (rng.Bernoulli(opts.ProbFor(spec.phase))) {
      out->SetRaw(i, RandomValue(i, rng));
    } else {
      out->SetRaw(i, spec.default_value);
    }
  }
  ApplyConstraints(out);
}

std::vector<double> ConfigSpace::MutationWeights(const SampleOptions& opts) const {
  std::vector<double> weights(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    weights[i] = frozen_[i] ? 0.0 : opts.ProbFor(params_[i].phase);
  }
  return weights;
}

Configuration ConfigSpace::Neighbor(const Configuration& base, Rng& rng, size_t mutations,
                                    const SampleOptions& opts) const {
  Configuration config = base;
  if (params_.empty()) {
    return config;
  }
  // `config` doubles as base and output: NeighborInto's out == &base fast
  // path skips the second copy.
  NeighborInto(config, rng, mutations, MutationWeights(opts), &config);
  return config;
}

void ConfigSpace::NeighborInto(const Configuration& base, Rng& rng, size_t mutations,
                               const std::vector<double>& weights,
                               Configuration* out) const {
  if (out != &base) {
    *out = base;  // vector assignment reuses `out`'s buffer when warm.
  }
  if (params_.empty()) {
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
    out->SetRaw(index, RandomValue(index, rng));
  }
  ApplyConstraints(out);
}

size_t ConfigSpace::ApplyConstraints(Configuration* config) const {
  size_t changed = 0;
  // Dependencies form a DAG in practice; a bounded number of passes reaches
  // the fixed point. Each pass first computes the select floor (Kconfig
  // "select" raises a symbol to at least the selector's level and overrides
  // the selected symbol's own dependencies), then disables non-selected
  // symbols whose dependency chain is broken.
  for (int pass = 0; pass < 8; ++pass) {
    size_t pass_changed = 0;

    // Select floor: selected[j] holds the strongest selector level seen.
    std::vector<int64_t> select_floor(params_.size(), 0);
    for (size_t i = 0; i < params_.size(); ++i) {
      int64_t level = config->Raw(i);
      if (level == 0 || params_[i].selects.empty()) {
        continue;
      }
      for (const std::string& target : params_[i].selects) {
        auto target_index = Find(target);
        if (!target_index.has_value()) {
          continue;  // Unknown symbols are ignored, like Kconfig warnings.
        }
        const ParamSpec& target_spec = params_[*target_index];
        bool boolish = target_spec.kind == ParamKind::kBool ||
                       target_spec.kind == ParamKind::kTristate;
        if (!boolish) {
          continue;  // Kconfig only selects bool/tristate symbols.
        }
        int64_t wanted = std::min(level, target_spec.max_value);
        select_floor[*target_index] = std::max(select_floor[*target_index], wanted);
      }
    }
    for (size_t i = 0; i < params_.size(); ++i) {
      if (select_floor[i] > config->Raw(i)) {
        config->SetRaw(i, select_floor[i]);
        ++pass_changed;
      }
    }

    for (size_t i = 0; i < params_.size(); ++i) {
      const ParamSpec& spec = params_[i];
      if (select_floor[i] > 0) {
        continue;  // "select" overrides "depends on" for its target.
      }
      bool satisfied = true;
      for (const std::string& dep : spec.depends_on) {
        auto dep_index = Find(dep);
        if (!dep_index.has_value()) {
          continue;  // Unknown symbols are treated as satisfied, like Kconfig.
        }
        if (config->Raw(*dep_index) == 0) {
          satisfied = false;
          break;
        }
      }
      if (!satisfied) {
        // Kconfig semantics: an unsatisfied dependency forces the symbol to
        // "n"; non-boolean symbols fall back to their default.
        bool boolish = spec.kind == ParamKind::kBool || spec.kind == ParamKind::kTristate;
        int64_t forced = boolish ? 0 : spec.default_value;
        if (config->Raw(i) != forced) {
          config->SetRaw(i, forced);
          ++pass_changed;
        }
      }
    }
    changed += pass_changed;
    if (pass_changed == 0) {
      break;
    }
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    if (frozen_[i] && config->Raw(i) != frozen_value_[i]) {
      config->SetRaw(i, frozen_value_[i]);
      ++changed;
    }
  }
  return changed;
}

bool ConfigSpace::IsValid(const Configuration& config) const {
  if (config.Size() != params_.size()) {
    return false;
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i].InDomain(config.Raw(i))) {
      return false;
    }
  }
  Configuration copy = config;
  return ApplyConstraints(&copy) == 0;
}

double ConfigSpace::EncodeParam(size_t index, int64_t value) const {
  const ParamSpec& spec = params_[index];
  if (!spec.value_set.empty()) {
    size_t n = spec.value_set.size();
    return n <= 1 ? 0.0
                  : static_cast<double>(spec.ValueSetIndex(value)) / static_cast<double>(n - 1);
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

int64_t ConfigSpace::DecodeParam(size_t index, double feature) const {
  const ParamSpec& spec = params_[index];
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

std::vector<double> ConfigSpace::Encode(const Configuration& config) const {
  std::vector<double> features(params_.size());
  EncodeInto(config, features.data());
  return features;
}

void ConfigSpace::EncodeInto(const Configuration& config, double* out) const {
  for (size_t i = 0; i < params_.size(); ++i) {
    out[i] = EncodeParam(i, config.Raw(i));
  }
}

size_t ConfigSpace::CountPhase(ParamPhase phase) const {
  size_t count = 0;
  for (const auto& spec : params_) {
    count += spec.phase == phase ? 1 : 0;
  }
  return count;
}

size_t ConfigSpace::CountKind(ParamKind kind) const {
  size_t count = 0;
  for (const auto& spec : params_) {
    count += spec.kind == kind ? 1 : 0;
  }
  return count;
}

double ConfigSpace::Log10SpaceSize() const {
  double log_size = 0.0;
  for (const auto& spec : params_) {
    log_size += std::log10(static_cast<double>(spec.DomainSize()));
  }
  return log_size;
}

}  // namespace wayfinder
