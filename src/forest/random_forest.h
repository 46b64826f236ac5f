// Regression random forest with impurity-based feature importance
// (Breiman 2001) — the feature-importance algorithm §3.3 uses to build the
// Figure 5 cross-similarity matrix between applications.
#ifndef WAYFINDER_SRC_FOREST_RANDOM_FOREST_H_
#define WAYFINDER_SRC_FOREST_RANDOM_FOREST_H_

#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace wayfinder {

struct ForestOptions {
  size_t trees = 60;
  size_t max_depth = 9;
  size_t min_samples_leaf = 4;
  uint64_t seed = 0xf02e57;
};

class RandomForestRegressor {
 public:
  explicit RandomForestRegressor(const ForestOptions& options = {});

  // Fits on rows `xs` with targets `ys`.
  void Fit(const std::vector<std::vector<double>>& xs, const std::vector<double>& ys);

  double Predict(const std::vector<double>& x) const;

  // Mean and (sample) variance of the per-tree predictions. SMAC-style
  // Bayesian optimization uses the ensemble spread as a posterior-variance
  // proxy when computing expected improvement. {0, 0} before Fit.
  struct PredictionStats {
    double mean = 0.0;
    double variance = 0.0;
  };
  PredictionStats PredictStats(const std::vector<double>& x) const;

  // Total variance reduction attributed to each feature, normalized to sum
  // to 1 (all-zero when the forest never split).
  std::vector<double> FeatureImportance() const;

  bool IsFitted() const { return !trees_.empty(); }

  // Bytes of node storage across all trees (Figure-7-style accounting).
  size_t MemoryBytes() const;

 private:
  struct Node {
    int feature = -1;       // -1 = leaf.
    double threshold = 0.0;
    double value = 0.0;     // Leaf prediction.
    int left = -1;
    int right = -1;
  };
  struct Tree {
    std::vector<Node> nodes;
  };

  int BuildNode(Tree& tree, const std::vector<std::vector<double>>& xs,
                const std::vector<double>& ys, std::vector<size_t>& indices, size_t begin,
                size_t end, size_t depth, Rng& rng);

  ForestOptions options_;
  std::vector<Tree> trees_;
  std::vector<double> importance_;
  size_t feature_count_ = 0;
};

// Cosine similarity between two non-negative importance vectors (0 when
// either is all-zero). Figure 5's "cross-similarity".
double ImportanceSimilarity(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_FOREST_RANDOM_FOREST_H_
