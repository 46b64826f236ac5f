// Synthetic Linux configuration spaces.
//
// The paper works on the real Linux Kconfig tree (~20k compile-time options
// for v6.0, Table 1) plus boot-time and runtime parameters. We cannot ship
// the kernel sources, so this module generates a *synthetic population* with
// the same observable structure: the Table 1 type mix, the Figure 1 growth
// curve across versions, subsystem clustering, Kconfig-style dependency
// gates, and a curated core of ~100 real, documented parameters (the ones
// tuning guides argue about: net.core.somaxconn, vm.stat_interval,
// kernel.printk, CONFIG_HZ, mitigations=, ...) that the simulated substrate
// keys its behaviour on.
#ifndef WAYFINDER_SRC_CONFIGSPACE_LINUX_SPACE_H_
#define WAYFINDER_SRC_CONFIGSPACE_LINUX_SPACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/configspace/config_space.h"

namespace wayfinder {

// The thirteen kernel versions plotted in Figure 1.
std::vector<std::string> LinuxVersionTimeline();

// Approximate number of Kconfig compile-time options for a version on the
// Figure 1 curve ("2.6.13" -> ~5300 ... "6.0" -> ~20400). Unknown versions
// interpolate on the release index.
size_t LinuxCompileOptionCount(const std::string& version);

// Per-kind compile-time census fractions calibrated on Table 1 (v6.0):
// bool .357, tristate .472, string .007, hex .004, int .160.
double LinuxKindFraction(ParamKind kind);

struct LinuxSpaceOptions {
  std::string version = "4.19";
  // Fraction of the full synthetic population to generate. The curated core
  // is always included; 1.0 reproduces the Table 1 census, while search
  // experiments use a small scale for tractable model inputs.
  double scale = 1.0;
  // Compile-time options are always generated; these drop the other phases.
  bool include_boot = true;
  bool include_runtime = true;
  uint64_t seed = 0x1105c0de;
};

// Builds the synthetic Linux space. Deterministic for a given options value.
ConfigSpace BuildLinuxSpace(const LinuxSpaceOptions& options);

// The space used by the §4.1 search experiments: the curated core plus a
// thin synthetic tail (~250 parameters, runtime-heavy), matching the paper's
// configuration of Wayfinder to favor runtime parameters for Linux v4.19.
ConfigSpace BuildLinuxSearchSpace(uint64_t seed = 0x1105c0de);

// Only the curated, real-named parameters (used in tests and docs).
std::vector<ParamSpec> CuratedLinuxParams();

// Names of curated parameters the paper calls out as high-impact for Nginx
// (§4.1 "High-Impact Configuration Parameters").
std::vector<std::string> DocumentedHighImpactParams();

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CONFIGSPACE_LINUX_SPACE_H_
