// Small statistics helpers shared by the optimizer, the simulated substrate,
// and the benchmark harnesses: streaming moments, quantiles, normalizers,
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
  double Min() const;
  double Max() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
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

// Per-feature z-score normalizer fitted on a dataset, applied to new points.
class ZScoreNormalizer {
 public:
  // Fits per-column mean/std over rows (all rows must share one width).
  void Fit(const std::vector<std::vector<double>>& rows);
  // Applies (x - mean) / std per column; columns with ~zero spread pass
  // through centered only.
  std::vector<double> Transform(const std::vector<double>& row) const;
  bool IsFitted() const { return !means_.empty(); }
  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stds() const { return stds_; }

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
};

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

// Running best: out[i] = max (or min) of values[0..i].
std::vector<double> RunningBest(const std::vector<double>& values, bool maximize);

// Index of the best element (max if maximize, else min); SIZE_MAX for empty.
size_t ArgBest(const std::vector<double>& values, bool maximize);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_UTIL_STATS_H_
