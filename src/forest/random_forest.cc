#include "src/forest/random_forest.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace wayfinder {

RandomForestRegressor::RandomForestRegressor(const ForestOptions& options) : options_(options) {}

namespace {

struct SplitResult {
  bool found = false;
  size_t feature = 0;
  double threshold = 0.0;
  double gain = 0.0;
  size_t split_point = 0;  // Index into the (reordered) range.
};

double RangeMean(const std::vector<double>& ys, const std::vector<size_t>& indices, size_t begin,
                 size_t end) {
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) {
    sum += ys[indices[i]];
  }
  return sum / static_cast<double>(end - begin);
}

double RangeSse(const std::vector<double>& ys, const std::vector<size_t>& indices, size_t begin,
                size_t end, double mean) {
  double sse = 0.0;
  for (size_t i = begin; i < end; ++i) {
    double d = ys[indices[i]] - mean;
    sse += d * d;
  }
  return sse;
}

}  // namespace

int RandomForestRegressor::BuildNode(Tree& tree, const std::vector<std::vector<double>>& xs,
                                     const std::vector<double>& ys,
                                     std::vector<size_t>& indices, size_t begin, size_t end,
                                     size_t depth, Rng& rng) {
  Node node;
  double mean = RangeMean(ys, indices, begin, end);
  node.value = mean;
  size_t count = end - begin;
  if (depth >= options_.max_depth || count < 2 * options_.min_samples_leaf) {
    tree.nodes.push_back(node);
    return static_cast<int>(tree.nodes.size() - 1);
  }
  double parent_sse = RangeSse(ys, indices, begin, end, mean);
  if (parent_sse <= 1e-12) {
    tree.nodes.push_back(node);
    return static_cast<int>(tree.nodes.size() - 1);
  }

  size_t mtry = std::max<size_t>(
      1, static_cast<size_t>(std::sqrt(static_cast<double>(feature_count_))));
  SplitResult best;
  for (size_t trial = 0; trial < mtry; ++trial) {
    size_t feature = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(feature_count_) - 1));
    // Random threshold between the range's min and max of this feature
    // (extremely-randomized-trees style: fast and unbiased enough).
    double lo = xs[indices[begin]][feature];
    double hi = lo;
    for (size_t i = begin; i < end; ++i) {
      lo = std::min(lo, xs[indices[i]][feature]);
      hi = std::max(hi, xs[indices[i]][feature]);
    }
    if (hi - lo < 1e-12) {
      continue;
    }
    double threshold = rng.Uniform(lo, hi);
    // Partition (stable counting first to check leaf sizes).
    size_t left_count = 0;
    double left_sum = 0.0;
    double right_sum = 0.0;
    for (size_t i = begin; i < end; ++i) {
      if (xs[indices[i]][feature] <= threshold) {
        ++left_count;
        left_sum += ys[indices[i]];
      } else {
        right_sum += ys[indices[i]];
      }
    }
    size_t right_count = count - left_count;
    if (left_count < options_.min_samples_leaf || right_count < options_.min_samples_leaf) {
      continue;
    }
    double left_mean = left_sum / static_cast<double>(left_count);
    double right_mean = right_sum / static_cast<double>(right_count);
    // Gain = parent SSE - child SSE, computed with the mean-shift identity.
    double child_sse = 0.0;
    for (size_t i = begin; i < end; ++i) {
      double y = ys[indices[i]];
      double m = xs[indices[i]][feature] <= threshold ? left_mean : right_mean;
      child_sse += (y - m) * (y - m);
    }
    double gain = parent_sse - child_sse;
    if (gain > best.gain) {
      best.found = true;
      best.feature = feature;
      best.threshold = threshold;
      best.gain = gain;
    }
  }
  if (!best.found) {
    tree.nodes.push_back(node);
    return static_cast<int>(tree.nodes.size() - 1);
  }

  // Reorder the range around the winning split.
  auto middle = std::partition(indices.begin() + static_cast<long>(begin),
                               indices.begin() + static_cast<long>(end), [&](size_t idx) {
                                 return xs[idx][best.feature] <= best.threshold;
                               });
  size_t split = static_cast<size_t>(middle - indices.begin());
  importance_[best.feature] += best.gain;

  node.feature = static_cast<int>(best.feature);
  node.threshold = best.threshold;
  tree.nodes.push_back(node);
  int my_index = static_cast<int>(tree.nodes.size() - 1);
  int left = BuildNode(tree, xs, ys, indices, begin, split, depth + 1, rng);
  int right = BuildNode(tree, xs, ys, indices, split, end, depth + 1, rng);
  tree.nodes[static_cast<size_t>(my_index)].left = left;
  tree.nodes[static_cast<size_t>(my_index)].right = right;
  return my_index;
}

void RandomForestRegressor::Fit(const std::vector<std::vector<double>>& xs,
                                const std::vector<double>& ys) {
  assert(xs.size() == ys.size());
  trees_.clear();
  if (xs.empty()) {
    importance_.clear();
    return;
  }
  feature_count_ = xs.front().size();
  importance_.assign(feature_count_, 0.0);
  Rng rng(options_.seed);
  trees_.resize(options_.trees);
  for (Tree& tree : trees_) {
    // Bootstrap sample.
    std::vector<size_t> indices(xs.size());
    for (size_t& idx : indices) {
      idx = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(xs.size()) - 1));
    }
    Rng tree_rng = rng.Fork();
    BuildNode(tree, xs, ys, indices, 0, indices.size(), 0, tree_rng);
  }
}

double RandomForestRegressor::Predict(const std::vector<double>& x) const {
  return PredictStats(x).mean;
}

RandomForestRegressor::PredictionStats RandomForestRegressor::PredictStats(
    const std::vector<double>& x) const {
  PredictionStats stats;
  if (trees_.empty()) {
    return stats;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const Tree& tree : trees_) {
    // Parents are pushed before their children, so the root is node 0.
    int node_index = 0;
    double leaf = 0.0;
    while (true) {
      const Node& node = tree.nodes[static_cast<size_t>(node_index)];
      if (node.feature < 0 || node.left < 0 || node.right < 0) {
        leaf = node.value;
        break;
      }
      node_index = x[static_cast<size_t>(node.feature)] <= node.threshold ? node.left : node.right;
    }
    sum += leaf;
    sum_sq += leaf * leaf;
  }
  double n = static_cast<double>(trees_.size());
  stats.mean = sum / n;
  if (trees_.size() > 1) {
    stats.variance = std::max(0.0, (sum_sq - sum * sum / n) / (n - 1.0));
  }
  return stats;
}

size_t RandomForestRegressor::MemoryBytes() const {
  size_t bytes = sizeof(*this) + importance_.size() * sizeof(double);
  for (const Tree& tree : trees_) {
    bytes += tree.nodes.size() * sizeof(Node);
  }
  return bytes;
}

std::vector<double> RandomForestRegressor::FeatureImportance() const {
  std::vector<double> importance = importance_;
  double total = std::accumulate(importance.begin(), importance.end(), 0.0);
  if (total > 0.0) {
    for (double& v : importance) {
      v /= total;
    }
  }
  return importance;
}

double ImportanceSimilarity(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) {
    return 0.0;
  }
  return dot / std::sqrt(na * nb);
}

}  // namespace wayfinder
