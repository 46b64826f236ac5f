#include "src/configspace/cmdline.h"

#include <sstream>

namespace wayfinder {

namespace {

// One "name=value" (or bare-flag) assignment for a parameter.
std::string RenderAssignment(const ParamSpec& spec, int64_t value) {
  if (spec.kind == ParamKind::kBool) {
    return value != 0 ? spec.name : spec.name + "=0";
  }
  return spec.name + "=" + spec.FormatValue(value);
}

}  // namespace

std::string RenderCmdline(const Configuration& config) {
  const ConfigSpace& space = *config.space();
  Configuration defaults = space.DefaultConfiguration();
  std::ostringstream oss;
  bool first = true;
  for (size_t i = 0; i < space.Size(); ++i) {
    const ParamSpec& spec = space.Param(i);
    if (spec.phase != ParamPhase::kBootTime || config.Raw(i) == defaults.Raw(i)) {
      continue;
    }
    oss << (first ? "" : " ") << RenderAssignment(spec, config.Raw(i));
    first = false;
  }
  return oss.str();
}

std::string RenderSysctlConf(const Configuration& config) {
  const ConfigSpace& space = *config.space();
  Configuration defaults = space.DefaultConfiguration();
  std::ostringstream oss;
  for (size_t i = 0; i < space.Size(); ++i) {
    const ParamSpec& spec = space.Param(i);
    if (spec.phase != ParamPhase::kRuntime || config.Raw(i) == defaults.Raw(i)) {
      continue;
    }
    // sysctl renders booleans numerically, unlike the kernel command line.
    std::string value = spec.kind == ParamKind::kBool
                            ? std::to_string(config.Raw(i))
                            : spec.FormatValue(config.Raw(i));
    oss << spec.name << " = " << value << "\n";
  }
  return oss.str();
}

}  // namespace wayfinder
