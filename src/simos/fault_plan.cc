#include "src/simos/fault_plan.h"

namespace wayfinder {

double FaultPlan::NoiseSigmaFor(uint64_t config_hash) const {
  // Map the hash into [0.5, 1.5): configurations deterministically differ in
  // how noisy their measurements are.
  double unit = static_cast<double>(config_hash % 1024u) / 1024.0;
  return noise_sigma * (0.5 + unit);
}

}  // namespace wayfinder
