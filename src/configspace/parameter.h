// Typed OS configuration parameters.
//
// A parameter mirrors one Linux/Unikraft option: a Kconfig compile-time
// symbol (bool / tristate / int / hex / string), a kernel command-line
// boot parameter, or a runtime pseudo-file under /proc/sys or /sys.
#ifndef WAYFINDER_SRC_CONFIGSPACE_PARAMETER_H_
#define WAYFINDER_SRC_CONFIGSPACE_PARAMETER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wayfinder {

// Value kind, matching the Kconfig type system (Table 1 of the paper).
enum class ParamKind {
  kBool,      // 0 / 1
  kTristate,  // n=0 / m=1 / y=2
  kInt,       // arbitrary integer within [min_value, max_value]
  kHex,       // like kInt but rendered in hex
  kString,    // categorical: one of `choices`
};

// When the parameter takes effect. Drives the build-skip optimization
// (runtime-only changes need no rebuild) and phase-biased sampling.
enum class ParamPhase : uint8_t {
  kCompileTime,
  kBootTime,
  kRuntime,
};

const char* ParamKindName(ParamKind kind);

// Static description of one configuration parameter.
struct ParamSpec {
  std::string name;
  ParamKind kind = ParamKind::kBool;
  ParamPhase phase = ParamPhase::kRuntime;

  // Subsystem tag ("net", "vm", "sched", "block", "fs", "debug", "kernel",
  // ...). The simulated substrate keys application sensitivity and the
  // Cozart-style debloater on this tag.
  std::string subsystem = "kernel";

  // Numeric domain (kInt / kHex). For kBool the domain is {0,1}; for
  // kTristate {0,1,2}; for kString [0, choices.size()).
  int64_t min_value = 0;
  int64_t max_value = 1;
  // If true, numeric sampling and ML encoding use a log scale — typical for
  // sizes/backlogs whose reasonable values span decades.
  bool log_scale = false;

  // Default raw value (choice index for kString).
  int64_t default_value = 0;

  // Categorical values for kString (e.g. {"pfifo_fast", "fq", "fq_codel"}).
  std::vector<std::string> choices;

  // Optional quantized domain for kInt/kHex: when non-empty, the parameter
  // only takes these values (sorted ascending). This is how job files
  // discretize wide numeric knobs into a handful of candidate settings —
  // the Unikraft space of Figure 9 is built this way.
  std::vector<int64_t> value_set;

  // Optional one-line documentation (many real options have none, which is
  // exactly the problem §3.4 works around).
  std::string help;

  // Names of boolean/tristate symbols this parameter depends on. When any is
  // disabled in a configuration, this parameter is forced to its default.
  std::vector<std::string> depends_on;

  // Names of boolean/tristate symbols this parameter force-enables when it
  // is itself enabled (Kconfig "select"). Per Kconfig semantics, a selected
  // symbol is raised to at least the selector's own level even when its own
  // dependencies are unsatisfied ("select" overrides "depends on").
  std::vector<std::string> selects;

  // Domain size (number of representable values); saturates at INT64_MAX.
  int64_t DomainSize() const;

  // True if `value` lies in this parameter's domain.
  bool InDomain(int64_t value) const;

  // Clamps into the domain.
  int64_t Clamp(int64_t value) const;

  // Renders a raw value ("y"/"n"/"m", decimal, 0x-hex, or the choice string).
  std::string FormatValue(int64_t value) const;

  // Convenience constructors.
  static ParamSpec Bool(std::string name, ParamPhase phase, std::string subsystem,
                        bool default_on);
  static ParamSpec Tristate(std::string name, std::string subsystem, int64_t default_value);
  static ParamSpec Int(std::string name, ParamPhase phase, std::string subsystem,
                       int64_t min_value, int64_t max_value, int64_t default_value,
                       bool log_scale = false);
  static ParamSpec Hex(std::string name, std::string subsystem, int64_t min_value,
                       int64_t max_value, int64_t default_value);
  static ParamSpec String(std::string name, ParamPhase phase, std::string subsystem,
                          std::vector<std::string> choices, int64_t default_index);
  // Quantized integer: the domain is exactly `values` (sorted internally).
  static ParamSpec IntSet(std::string name, ParamPhase phase, std::string subsystem,
                          std::vector<int64_t> values, int64_t default_value);

  // Index of `value` in value_set (nearest element when absent). Only valid
  // for quantized parameters.
  size_t ValueSetIndex(int64_t value) const;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CONFIGSPACE_PARAMETER_H_
