#include "src/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wayfinder {

void RunningStats::Add(double value) {
  ++count_;
  double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningStats::Mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::Variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) {
    return 0.0;
  }
  double mean = Mean(values);
  double sum_sq = 0.0;
  for (double v : values) {
    sum_sq += (v - mean) * (v - mean);
  }
  return std::sqrt(sum_sq / static_cast<double>(values.size() - 1));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double PearsonCorrelation(const std::vector<double>& xs, const std::vector<double>& ys) {
  assert(xs.size() == ys.size());
  size_t n = xs.size();
  if (n < 2) {
    return 0.0;
  }
  double mx = Mean(xs);
  double my = Mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double dx = xs[i] - mx;
    double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) {
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> MinMaxNormalize(const std::vector<double>& values) {
  std::vector<double> out(values.size(), 0.5);
  if (values.empty()) {
    return out;
  }
  double lo = *std::min_element(values.begin(), values.end());
  double hi = *std::max_element(values.begin(), values.end());
  if (hi - lo <= 0.0) {
    return out;
  }
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = (values[i] - lo) / (hi - lo);
  }
  return out;
}

std::vector<double> SmoothSeries(const std::vector<double>& values, size_t window) {
  std::vector<double> out(values.size());
  if (window == 0) {
    window = 1;
  }
  double sum = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    sum += values[i];
    if (i >= window) {
      sum -= values[i - window];
    }
    size_t count = std::min(i + 1, window);
    out[i] = sum / static_cast<double>(count);
  }
  return out;
}

MeanCi MeanConfidenceInterval(const std::vector<double>& values, double z) {
  MeanCi ci;
  if (values.empty()) {
    return ci;
  }
  RunningStats stats;
  for (double v : values) {
    stats.Add(v);
  }
  ci.mean = stats.Mean();
  if (stats.Count() >= 2) {
    ci.half_width = z * stats.StdDev() / std::sqrt(static_cast<double>(stats.Count()));
  }
  return ci;
}

}  // namespace wayfinder
