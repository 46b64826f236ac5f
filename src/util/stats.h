// Small statistics helpers shared by the optimizer, the simulated substrate,
// and the benchmark harnesses: streaming moments, quantiles, normalization,
// and series smoothing (the paper smooths all evolution figures).
#ifndef WAYFINDER_SRC_UTIL_STATS_H_
#define WAYFINDER_SRC_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace wayfinder {

// Welford streaming mean/variance.
class RunningStats {
 public:
  void Add(double value);
  size_t Count() const { return count_; }
  double Mean() const;
  double Variance() const;  // Sample variance (n-1 denominator).
  double StdDev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Mean of a vector; 0 for empty input.
double Mean(const std::vector<double>& values);

// Sample standard deviation; 0 for fewer than two values.
double StdDev(const std::vector<double>& values);

// Linear-interpolation quantile, q in [0, 1]. Input need not be sorted.
double Quantile(std::vector<double> values, double q);

// Pearson correlation; 0 when either side is constant.
double PearsonCorrelation(const std::vector<double>& xs, const std::vector<double>& ys);

// Maps values affinely into [0, 1]; constant inputs map to 0.5. This is the
// paper's mXNorm used by the throughput-memory score (Eq. 4).
std::vector<double> MinMaxNormalize(const std::vector<double>& values);

// Trailing moving average with the given window; used to smooth the
// evolution series plotted in Figures 6, 9, 10, and 11.
std::vector<double> SmoothSeries(const std::vector<double>& values, size_t window);

// Two-sided confidence interval of the mean via the normal approximation
// (z = 1.96 for the default 95%). With n < 2 the half-width is 0 — callers
// must not read precision into a single sample. Used by the seed-stability
// harness to substantiate the artifact appendix's "trends and averages of
// multiple executions should be consistent" claim.
struct MeanCi {
  double mean = 0.0;
  double half_width = 0.0;
  double lo() const { return mean - half_width; }
  double hi() const { return mean + half_width; }
};
MeanCi MeanConfidenceInterval(const std::vector<double>& values, double z = 1.96);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_UTIL_STATS_H_
