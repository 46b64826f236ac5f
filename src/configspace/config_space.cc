#include "src/configspace/config_space.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace wayfinder {
namespace {

// ApplyConstraints' select-floor scratch. Per thread, so concurrent calls on
// one space share nothing; it grows to the largest space the thread
// constrains, then every call reuses it.
thread_local std::vector<int64_t> t_select_floor;

}  // namespace

Configuration::Configuration(const ConfigSpace* space, std::vector<int64_t> values)
    : space_(space), values_(std::move(values)) {
  assert(space_ != nullptr);
  assert(values_.size() == space_->Size());
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
  const size_t index = params_.size();
  const bool named = index_by_name_.emplace(spec.name, index).second;

  CompiledParam record;
  record.default_value = spec.default_value;
  record.phase = spec.phase;
  record.boolish = spec.kind == ParamKind::kBool || spec.kind == ParamKind::kTristate;
  if (!spec.value_set.empty()) {
    record.rule = Rule::kValueSet;
    record.hi = static_cast<int64_t>(spec.value_set.size()) - 1;
    record.aux = static_cast<uint32_t>(value_sets_.size());
    value_sets_.insert(value_sets_.end(), spec.value_set.begin(), spec.value_set.end());
  } else {
    switch (spec.kind) {
      case ParamKind::kBool:
        record.rule = Rule::kBool;
        record.hi = 1;
        break;
      case ParamKind::kTristate:
        record.hi = 2;
        break;
      case ParamKind::kString:
        // A string without choices (no constructor or parser builds one)
        // clamps and draws 0.
        record.hi = std::max<int64_t>(0, static_cast<int64_t>(spec.choices.size()) - 1);
        break;
      case ParamKind::kInt:
      case ParamKind::kHex:
        record.lo = spec.min_value;
        record.hi = spec.max_value;
        if (spec.log_scale && spec.min_value >= 0) {
          record.rule = Rule::kLog;
          record.aux = static_cast<uint32_t>(log_scales_.size());
          LogScale scale;
          scale.encode_base = std::log1p(static_cast<double>(spec.min_value));
          scale.encode_span =
              std::log1p(static_cast<double>(spec.max_value)) - scale.encode_base;
          scale.sample_lo = std::log(static_cast<double>(std::max<int64_t>(1, spec.min_value)));
          scale.sample_hi = std::log(static_cast<double>(std::max<int64_t>(1, spec.max_value)));
          log_scales_.push_back(scale);
        }
        break;
    }
  }
  table_.push_back(record);
  params_.push_back(std::move(spec));

  // Resolve the new parameter's edges, and the edges that were waiting for
  // its name.
  const uint32_t param = static_cast<uint32_t>(index);
  for (bool is_select : {false, true}) {
    const ParamSpec& added = params_.back();
    for (const std::string& name : is_select ? added.selects : added.depends_on) {
      auto target = index_by_name_.find(name);
      if (target != index_by_name_.end()) {
        AddEdge(param, target->second, is_select);
      } else {
        unresolved_[name].push_back({param, is_select});
      }
    }
  }
  auto waiting = named ? unresolved_.find(params_.back().name) : unresolved_.end();
  if (waiting != unresolved_.end()) {
    for (const PendingEdge& edge : waiting->second) {
      AddEdge(edge.param, index, edge.is_select);
    }
    unresolved_.erase(waiting);
  }
  return index;
}

void ConfigSpace::AddEdge(uint32_t param, size_t target, bool is_select) {
  if (!is_select) {
    auto at = std::upper_bound(
        depends_.begin(), depends_.end(), param,
        [](uint32_t p, const DependsEdge& edge) { return p < edge.param; });
    depends_.insert(at, DependsEdge{param, static_cast<uint32_t>(target)});
  } else if (table_[target].boolish) {  // Kconfig only selects bool/tristate symbols.
    selects_.push_back(
        SelectEdge{param, static_cast<uint32_t>(target), params_[target].max_value});
  }
}

void ConfigSpace::ShrinkToFit() {
  params_.shrink_to_fit();
  table_.shrink_to_fit();
  log_scales_.shrink_to_fit();
  value_sets_.shrink_to_fit();
  depends_.shrink_to_fit();
  selects_.shrink_to_fit();
  frozen_.shrink_to_fit();
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
  CompiledParam& record = table_[*index];
  record.frozen_value = Clamp(*index, value);
  if (!record.frozen) {
    record.frozen = true;
    frozen_.insert(std::upper_bound(frozen_.begin(), frozen_.end(), *index),
                   static_cast<uint32_t>(*index));
  }
  return true;
}

size_t ConfigSpace::ValueSetIndex(const CompiledParam& record, int64_t value) const {
  const int64_t* set = value_sets_.data() + record.aux;
  size_t best = 0;
  uint64_t best_distance = UINT64_MAX;
  for (size_t i = 0; i <= static_cast<size_t>(record.hi); ++i) {
    uint64_t distance = set[i] > value ? static_cast<uint64_t>(set[i] - value)
                                       : static_cast<uint64_t>(value - set[i]);
    if (distance < best_distance) {
      best_distance = distance;
      best = i;
    }
  }
  return best;
}

int64_t ConfigSpace::ClampToValueSet(const CompiledParam& record, int64_t value) const {
  return value_sets_[record.aux + ValueSetIndex(record, value)];
}

Configuration ConfigSpace::DefaultConfiguration() const {
  std::vector<int64_t> values(table_.size());
  for (size_t i = 0; i < table_.size(); ++i) {
    values[i] = table_[i].frozen ? table_[i].frozen_value : table_[i].default_value;
  }
  return Configuration(this, std::move(values));
}

int64_t ConfigSpace::RandomValue(size_t index, Rng& rng) const {
  const CompiledParam& record = table_[index];
  switch (record.rule) {
    case Rule::kBool:
    case Rule::kRange:
      return rng.UniformInt(record.lo, record.hi);
    case Rule::kLog: {
      // Uniform in log space over [max(1,lo), max(1,hi)]; this matches how
      // humans sweep buffer sizes and avoids drowning small values.
      const LogScale& scale = log_scales_[record.aux];
      double v = std::exp(rng.Uniform(scale.sample_lo, scale.sample_hi));
      return std::clamp(static_cast<int64_t>(std::llround(v)), record.lo, record.hi);
    }
    case Rule::kValueSet:
      return value_sets_[record.aux + static_cast<size_t>(rng.UniformInt(0, record.hi))];
  }
  return record.default_value;
}

Configuration ConfigSpace::RandomConfiguration(Rng& rng, const SampleOptions& opts) const {
  Configuration config(this, std::vector<int64_t>(params_.size()));
  RandomConfigurationInto(rng, opts, &config);
  return config;
}

void ConfigSpace::RandomConfigurationInto(Rng& rng, const SampleOptions& opts,
                                          Configuration* out) const {
  assert(out->space() == this && out->Size() == table_.size());
  for (size_t i = 0; i < table_.size(); ++i) {
    const CompiledParam& record = table_[i];
    if (record.frozen) {
      out->SetRaw(i, record.frozen_value);
    } else if (rng.Bernoulli(opts.ProbFor(record.phase))) {
      out->SetRaw(i, RandomValue(i, rng));
    } else {
      out->SetRaw(i, record.default_value);
    }
  }
  ApplyConstraints(out);
}

void ConfigSpace::MutationWeights(const SampleOptions& opts,
                                  std::vector<double>* weights) const {
  weights->resize(table_.size());
  for (size_t i = 0; i < table_.size(); ++i) {
    (*weights)[i] = table_[i].frozen ? 0.0 : opts.ProbFor(table_[i].phase);
  }
}

Configuration ConfigSpace::Neighbor(const Configuration& base, Rng& rng, size_t mutations,
                                    const SampleOptions& opts) const {
  Configuration config = base;
  if (params_.empty()) {
    return config;
  }
  std::vector<double> weights;
  MutationWeights(opts, &weights);
  // `config` doubles as base and output: NeighborInto's out == &base fast
  // path skips the second copy.
  NeighborInto(config, rng, mutations, weights, &config);
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
  // The select floor of every parameter, zero between calls; only select
  // targets ever leave zero, and each pass puts them back.
  std::vector<int64_t>& select_floor = t_select_floor;
  if (select_floor.size() < table_.size()) {
    select_floor.resize(table_.size(), 0);
  }
  size_t changed = 0;
  // Dependencies form a DAG in practice; a bounded number of passes reaches
  // the fixed point. Each pass first computes the select floor (Kconfig
  // "select" raises a symbol to at least the selector's level and overrides
  // the selected symbol's own dependencies), then disables non-selected
  // symbols whose dependency chain is broken.
  for (int pass = 0; pass < 8; ++pass) {
    size_t pass_changed = 0;

    // Select floor: the strongest level an enabled selector asks of each
    // target, from the values at the start of the pass. Every parameter is
    // raised to its floor (0 for the unselected ones).
    for (const SelectEdge& edge : selects_) {
      int64_t level = config->Raw(edge.selector);
      if (level != 0) {
        int64_t& floor = select_floor[edge.target];
        floor = std::max(floor, std::min(level, edge.cap));
      }
    }
    for (size_t i = 0; i < table_.size(); ++i) {
      if (select_floor[i] > config->Raw(i)) {
        config->SetRaw(i, select_floor[i]);
        ++pass_changed;
      }
    }

    // Dependencies, parameter by parameter in ascending order, so a forced
    // value is what later parameters of the same pass see.
    for (size_t e = 0; e < depends_.size();) {
      const uint32_t i = depends_[e].param;
      bool satisfied = true;
      for (; e < depends_.size() && depends_[e].param == i; ++e) {
        satisfied = satisfied && config->Raw(depends_[e].dep) != 0;
      }
      if (satisfied || select_floor[i] > 0) {
        continue;  // "select" overrides "depends on" for its target.
      }
      // Kconfig semantics: an unsatisfied dependency forces the symbol to
      // "n"; non-boolean symbols fall back to their default.
      int64_t forced = table_[i].boolish ? 0 : table_[i].default_value;
      if (config->Raw(i) != forced) {
        config->SetRaw(i, forced);
        ++pass_changed;
      }
    }
    for (const SelectEdge& edge : selects_) {
      select_floor[edge.target] = 0;
    }
    changed += pass_changed;
    if (pass_changed == 0) {
      break;
    }
  }
  for (uint32_t i : frozen_) {
    if (config->Raw(i) != table_[i].frozen_value) {
      config->SetRaw(i, table_[i].frozen_value);
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
  const CompiledParam& record = table_[index];
  if (record.rule == Rule::kBool) {
    return value != 0 ? 1.0 : 0.0;
  }
  if (record.hi == record.lo) {
    return 0.0;  // A one-value domain.
  }
  switch (record.rule) {
    case Rule::kRange:
      return static_cast<double>(value - record.lo) / static_cast<double>(record.hi - record.lo);
    case Rule::kLog: {
      const LogScale& scale = log_scales_[record.aux];
      double v = std::log1p(static_cast<double>(std::clamp(value, record.lo, record.hi)));
      return (v - scale.encode_base) / scale.encode_span;
    }
    case Rule::kValueSet:
      return static_cast<double>(ValueSetIndex(record, value)) / static_cast<double>(record.hi);
    case Rule::kBool:
      break;
  }
  return 0.0;
}

int64_t ConfigSpace::DecodeParam(size_t index, double feature) const {
  const CompiledParam& record = table_[index];
  feature = std::clamp(feature, 0.0, 1.0);
  switch (record.rule) {
    case Rule::kBool:
      return feature >= 0.5 ? 1 : 0;
    case Rule::kRange: {
      double span = static_cast<double>(record.hi - record.lo);
      return std::clamp(record.lo + static_cast<int64_t>(std::llround(feature * span)),
                        record.lo, record.hi);
    }
    case Rule::kLog: {
      const LogScale& scale = log_scales_[record.aux];
      double v = std::expm1(scale.encode_base + feature * scale.encode_span);
      return std::clamp(static_cast<int64_t>(std::llround(v)), record.lo, record.hi);
    }
    case Rule::kValueSet: {
      size_t i = static_cast<size_t>(std::llround(feature * static_cast<double>(record.hi)));
      return value_sets_[record.aux + std::min(i, static_cast<size_t>(record.hi))];
    }
  }
  return record.default_value;
}

std::vector<double> ConfigSpace::Encode(const Configuration& config) const {
  std::vector<double> features(params_.size());
  EncodeInto(config, features.data());
  return features;
}

void ConfigSpace::EncodeInto(const Configuration& config, double* out) const {
  for (size_t i = 0; i < table_.size(); ++i) {
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

double ConfigSpace::Log10SpaceSize() const {
  double log_size = 0.0;
  for (const auto& spec : params_) {
    log_size += std::log10(static_cast<double>(spec.DomainSize()));
  }
  return log_size;
}

}  // namespace wayfinder
