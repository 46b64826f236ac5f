// Pareto-front extraction for multi-metric histories (§3.2 extension).
//
// A weighted average collapses metrics into one number before the search; a
// Pareto front answers the complementary question after it: which evaluated
// configurations are not dominated on any weighting? Harnesses use this to
// report the achievable trade-off curve (throughput vs memory in Figure 11
// / Table 4 terms) rather than a single point.
#ifndef WAYFINDER_SRC_CORE_PARETO_H_
#define WAYFINDER_SRC_CORE_PARETO_H_

#include <vector>

#include "src/core/deeptune.h"
#include "src/platform/trial.h"

namespace wayfinder {

// Indices of the non-dominated rows of `points`, where every coordinate is
// maximized. Row a dominates row b when a >= b everywhere and a > b
// somewhere. Duplicate rows are all kept (none dominates the other).
// O(n^2); histories are hundreds of points.
std::vector<size_t> ParetoFrontIndices(const std::vector<std::vector<double>>& points);

// Indices into `history` of the successful trials on the Pareto front under
// `metrics` (polarity handled: lower-is-better metrics are negated).
// Crashed trials never appear.
std::vector<size_t> ParetoFront(const std::vector<TrialRecord>& history,
                                const std::vector<MetricSpec>& metrics);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_PARETO_H_
