#include "src/configspace/parameter.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>

namespace wayfinder {

const char* ParamKindName(ParamKind kind) {
  switch (kind) {
    case ParamKind::kBool:
      return "bool";
    case ParamKind::kTristate:
      return "tristate";
    case ParamKind::kInt:
      return "int";
    case ParamKind::kHex:
      return "hex";
    case ParamKind::kString:
      return "string";
  }
  return "?";
}

int64_t ParamSpec::DomainSize() const {
  if (!value_set.empty()) {
    return static_cast<int64_t>(value_set.size());
  }
  switch (kind) {
    case ParamKind::kBool:
      return 2;
    case ParamKind::kTristate:
      return 3;
    case ParamKind::kString:
      return static_cast<int64_t>(choices.size());
    case ParamKind::kInt:
    case ParamKind::kHex: {
      // Guard against overflow for full-width domains.
      uint64_t span = static_cast<uint64_t>(max_value) - static_cast<uint64_t>(min_value);
      if (span == std::numeric_limits<uint64_t>::max()) {
        return std::numeric_limits<int64_t>::max();
      }
      uint64_t size = span + 1;
      if (size > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
        return std::numeric_limits<int64_t>::max();
      }
      return static_cast<int64_t>(size);
    }
  }
  return 0;
}

bool ParamSpec::InDomain(int64_t value) const {
  if (!value_set.empty()) {
    for (int64_t v : value_set) {
      if (v == value) {
        return true;
      }
    }
    return false;
  }
  switch (kind) {
    case ParamKind::kBool:
      return value == 0 || value == 1;
    case ParamKind::kTristate:
      return value >= 0 && value <= 2;
    case ParamKind::kString:
      return value >= 0 && value < static_cast<int64_t>(choices.size());
    case ParamKind::kInt:
    case ParamKind::kHex:
      return value >= min_value && value <= max_value;
  }
  return false;
}

size_t ParamSpec::ValueSetIndex(int64_t value) const {
  size_t best = 0;
  uint64_t best_distance = UINT64_MAX;
  for (size_t i = 0; i < value_set.size(); ++i) {
    uint64_t distance = value_set[i] > value ? static_cast<uint64_t>(value_set[i] - value)
                                             : static_cast<uint64_t>(value - value_set[i]);
    if (distance < best_distance) {
      best_distance = distance;
      best = i;
    }
  }
  return best;
}

int64_t ParamSpec::Clamp(int64_t value) const {
  if (!value_set.empty()) {
    return value_set[ValueSetIndex(value)];
  }
  switch (kind) {
    case ParamKind::kBool:
      return std::clamp<int64_t>(value, 0, 1);
    case ParamKind::kTristate:
      return std::clamp<int64_t>(value, 0, 2);
    case ParamKind::kString:
      return choices.empty() ? 0
                             : std::clamp<int64_t>(value, 0,
                                                   static_cast<int64_t>(choices.size()) - 1);
    case ParamKind::kInt:
    case ParamKind::kHex:
      return std::clamp(value, min_value, max_value);
  }
  return value;
}

std::string ParamSpec::FormatValue(int64_t value) const {
  switch (kind) {
    case ParamKind::kBool:
      return value != 0 ? "y" : "n";
    case ParamKind::kTristate:
      return value == 2 ? "y" : (value == 1 ? "m" : "n");
    case ParamKind::kString:
      if (value >= 0 && value < static_cast<int64_t>(choices.size())) {
        return choices[static_cast<size_t>(value)];
      }
      return "?";
    case ParamKind::kHex: {
      std::ostringstream oss;
      oss << "0x" << std::hex << value;
      return oss.str();
    }
    case ParamKind::kInt:
      return std::to_string(value);
  }
  return "?";
}

ParamSpec ParamSpec::Bool(std::string name, ParamPhase phase, std::string subsystem,
                          bool default_on) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.kind = ParamKind::kBool;
  spec.phase = phase;
  spec.subsystem = std::move(subsystem);
  spec.min_value = 0;
  spec.max_value = 1;
  spec.default_value = default_on ? 1 : 0;
  return spec;
}

ParamSpec ParamSpec::Tristate(std::string name, std::string subsystem, int64_t default_value) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.kind = ParamKind::kTristate;
  spec.phase = ParamPhase::kCompileTime;
  spec.subsystem = std::move(subsystem);
  spec.min_value = 0;
  spec.max_value = 2;
  spec.default_value = std::clamp<int64_t>(default_value, 0, 2);
  return spec;
}

ParamSpec ParamSpec::Int(std::string name, ParamPhase phase, std::string subsystem,
                         int64_t min_value, int64_t max_value, int64_t default_value,
                         bool log_scale) {
  assert(min_value <= max_value);
  ParamSpec spec;
  spec.name = std::move(name);
  spec.kind = ParamKind::kInt;
  spec.phase = phase;
  spec.subsystem = std::move(subsystem);
  spec.min_value = min_value;
  spec.max_value = max_value;
  spec.default_value = std::clamp(default_value, min_value, max_value);
  spec.log_scale = log_scale;
  return spec;
}

ParamSpec ParamSpec::Hex(std::string name, std::string subsystem, int64_t min_value,
                         int64_t max_value, int64_t default_value) {
  ParamSpec spec = Int(std::move(name), ParamPhase::kCompileTime, std::move(subsystem), min_value,
                       max_value, default_value, /*log_scale=*/true);
  spec.kind = ParamKind::kHex;
  return spec;
}

ParamSpec ParamSpec::IntSet(std::string name, ParamPhase phase, std::string subsystem,
                            std::vector<int64_t> values, int64_t default_value) {
  assert(!values.empty());
  std::sort(values.begin(), values.end());
  ParamSpec spec;
  spec.name = std::move(name);
  spec.kind = ParamKind::kInt;
  spec.phase = phase;
  spec.subsystem = std::move(subsystem);
  spec.min_value = values.front();
  spec.max_value = values.back();
  spec.value_set = std::move(values);
  spec.default_value = spec.Clamp(default_value);
  return spec;
}

ParamSpec ParamSpec::String(std::string name, ParamPhase phase, std::string subsystem,
                            std::vector<std::string> choices, int64_t default_index) {
  assert(!choices.empty());
  ParamSpec spec;
  spec.name = std::move(name);
  spec.kind = ParamKind::kString;
  spec.phase = phase;
  spec.subsystem = std::move(subsystem);
  spec.choices = std::move(choices);
  spec.min_value = 0;
  spec.max_value = static_cast<int64_t>(spec.choices.size()) - 1;
  spec.default_value = std::clamp<int64_t>(default_index, 0, spec.max_value);
  return spec;
}

}  // namespace wayfinder
