#include "src/simos/crash_model.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace wayfinder {

namespace {

bool IsNumeric(const ParamSpec& spec) {
  return spec.kind == ParamKind::kInt || spec.kind == ParamKind::kHex;
}

// Parameters governed by curated crash rules are excluded from the hashed
// fragile-zone lottery so the two mechanisms do not overlap.
bool HasCuratedRule(const std::string& name) {
  return name == "vm.min_free_kbytes" || name == "net.ipv4.tcp_rmem_max" ||
         name == "CONFIG_NR_CPUS" || name == "CONFIG_SMP" || name == "CONFIG_UK_HEAP_MB";
}

}  // namespace

CrashModel::CrashModel(const ConfigSpace* space, uint64_t seed) : space_(space) {
  essential_.assign(space_->Size(), false);

  // Fragile numeric parameters: ~10% of numeric options hide a danger zone
  // at one extreme of their (undocumented) range.
  for (size_t i = 0; i < space_->Size(); ++i) {
    const ParamSpec& spec = space_->Param(i);
    if (!IsNumeric(spec) || HasCuratedRule(spec.name)) {
      continue;
    }
    // Narrow or quantized domains would put entire values inside the zone,
    // inflating the random crash rate far beyond the calibrated ~4%/zone.
    if (spec.DomainSize() < 64 || !spec.value_set.empty()) {
      continue;
    }
    uint64_t h = HashCombine(seed, StableHash(spec.name));
    uint64_t s = h;
    if (SplitMix64(s) % 100 >= 12) {
      continue;
    }
    double zone = 0.02 + 0.03 * (static_cast<double>(SplitMix64(s) % 1000) / 1000.0);
    double default_code = space_->EncodeParam(i, spec.default_value);
    FragileZone fragile;
    fragile.param = i;
    fragile.high_side = default_code < 0.7;
    fragile.threshold = fragile.high_side ? 1.0 - zone : zone;
    // Never place the default inside the danger zone: the stock kernel boots.
    bool default_inside = fragile.high_side ? default_code >= fragile.threshold
                                            : default_code <= fragile.threshold;
    if (!default_inside) {
      fragile_zones_.push_back(fragile);
    }
  }

  // Essential compile options, in redundant pairs: the boot fails only when
  // both halves of a pair are disabled (e.g. neither console driver left).
  std::vector<size_t> candidates;
  for (size_t i = 0; i < space_->Size(); ++i) {
    const ParamSpec& spec = space_->Param(i);
    if (spec.phase == ParamPhase::kCompileTime && spec.kind == ParamKind::kBool &&
        spec.default_value == 1 && !HasCuratedRule(spec.name)) {
      candidates.push_back(i);
    }
  }
  // Deterministic selection: sort candidates by hash, take the first four.
  std::sort(candidates.begin(), candidates.end(), [&](size_t a, size_t b) {
    return HashCombine(seed ^ 0xabcd, StableHash(space_->Param(a).name)) <
           HashCombine(seed ^ 0xabcd, StableHash(space_->Param(b).name));
  });
  size_t take = std::min<size_t>(candidates.size(), 2);
  take -= take % 2;  // Whole pairs only.
  for (size_t k = 0; k < take; ++k) {
    essential_[candidates[k]] = true;
    essential_pairs_.push_back(candidates[k]);
  }

  // One essential tristate: the hashed-first default-enabled compile
  // tristate cannot be fully disabled (built-in console/rootfs driver class;
  // "m" still boots from an initramfs). Single-feature and thus learnable.
  std::vector<size_t> tristates;
  for (size_t i = 0; i < space_->Size(); ++i) {
    const ParamSpec& spec = space_->Param(i);
    if (spec.phase == ParamPhase::kCompileTime && spec.kind == ParamKind::kTristate &&
        spec.default_value >= 1) {
      tristates.push_back(i);
    }
  }
  std::sort(tristates.begin(), tristates.end(), [&](size_t a, size_t b) {
    return HashCombine(seed ^ 0x7357, StableHash(space_->Param(a).name)) <
           HashCombine(seed ^ 0x7357, StableHash(space_->Param(b).name));
  });
  if (!tristates.empty()) {
    essential_tristate_ = tristates.front();
    essential_[*essential_tristate_] = true;
  }
}

bool CrashModel::IsEssentialCompileOption(size_t param_index) const {
  return essential_[param_index];
}

CrashOutcome CrashModel::CheckDeterministic(AppId app, const Configuration& config) const {
  const AppProfile& profile = GetApp(app);

  // --- Curated rules ------------------------------------------------------
  auto value_of = [&](const char* name) -> std::optional<int64_t> {
    auto index = space_->Find(name);
    if (!index.has_value()) {
      return std::nullopt;
    }
    return config.Raw(*index);
  };
  // The kernel boots with too few CPUs; the failure surfaces when the
  // multicore workload starts (runtime stage — boot-only memory probes
  // never see it, as in the Figure 10 setup).
  if (auto cpus = value_of("CONFIG_NR_CPUS");
      cpus.has_value() && *cpus < profile.cores) {
    return {true, ParamPhase::kRuntime, "CONFIG_NR_CPUS below application core count"};
  }
  if (auto smp = value_of("CONFIG_SMP"); smp.has_value() && *smp == 0 && profile.cores > 1) {
    return {true, ParamPhase::kRuntime, "CONFIG_SMP disabled on multicore workload"};
  }
  if (auto heap = value_of("CONFIG_UK_HEAP_MB"); heap.has_value() && *heap <= 16) {
    return {true, ParamPhase::kRuntime, "unikernel heap too small for nginx"};
  }
  if (auto mfk = space_->Find("vm.min_free_kbytes"); mfk.has_value()) {
    if (space_->EncodeParam(*mfk, config.Raw(*mfk)) > 0.95) {
      return {true, ParamPhase::kRuntime, "vm.min_free_kbytes reserves nearly all memory"};
    }
  }
  if (auto rmem = space_->Find("net.ipv4.tcp_rmem_max"); rmem.has_value()) {
    bool net_app = app == AppId::kNginx || app == AppId::kRedis;
    if (net_app && space_->EncodeParam(*rmem, config.Raw(*rmem)) < 0.05) {
      return {true, ParamPhase::kRuntime, "tcp receive buffer starved; benchmark hangs"};
    }
  }

  // --- Essential compile options ---------------------------------------------
  if (essential_tristate_.has_value() && config.Raw(*essential_tristate_) == 0) {
    return {true, ParamPhase::kBootTime,
            space_->Param(*essential_tristate_).name + " fully disabled; no boot device"};
  }
  for (size_t k = 0; k + 1 < essential_pairs_.size(); k += 2) {
    if (config.Raw(essential_pairs_[k]) == 0 && config.Raw(essential_pairs_[k + 1]) == 0) {
      return {true, ParamPhase::kBootTime,
              "both redundant essential options disabled: " +
                  space_->Param(essential_pairs_[k]).name + ", " +
                  space_->Param(essential_pairs_[k + 1]).name};
    }
  }

  // --- Fragile numeric zones -----------------------------------------------
  for (const FragileZone& zone : fragile_zones_) {
    double code = space_->EncodeParam(zone.param, config.Raw(zone.param));
    bool inside = zone.high_side ? code >= zone.threshold : code <= zone.threshold;
    if (inside) {
      const ParamSpec& spec = space_->Param(zone.param);
      ParamPhase stage = spec.phase;
      return {true, stage, spec.name + " outside its undocumented valid range"};
    }
  }
  return {};
}

CrashOutcome CrashModel::Check(AppId app, const Configuration& config, Rng& run_rng) const {
  CrashOutcome outcome = CheckDeterministic(app, config);
  if (outcome.crashed) {
    return outcome;
  }
  if (run_rng.Bernoulli(kFlakeProbability)) {
    return {true, ParamPhase::kRuntime, "transient benchmark failure"};
  }
  return {};
}

}  // namespace wayfinder
