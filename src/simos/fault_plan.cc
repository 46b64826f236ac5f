#include "src/simos/fault_plan.h"

namespace wayfinder {

bool FaultPlan::Active() const {
  return flake_prob > 0.0 || timeout_prob > 0.0 || hang_prob > 0.0 ||
         noise_sigma > 0.0 || drift_at > 0.0;
}

double FaultPlan::NoiseSigmaFor(uint64_t config_hash) const {
  // Map the hash into [0.5, 1.5): configurations deterministically differ in
  // how noisy their measurements are.
  double unit = static_cast<double>(config_hash % 1024u) / 1024.0;
  return noise_sigma * (0.5 + unit);
}

}  // namespace wayfinder
