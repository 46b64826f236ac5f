#include "src/core/scoring.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace wayfinder {

namespace {

double DissimilarityFromNearest(double nearest, size_t dim) {
  // Per-dimension normalization keeps ds in a useful range regardless of
  // the space's width.
  double normalized = nearest / static_cast<double>(std::max<size_t>(1, dim)) * 16.0;
  return 1.0 - 1.0 / (1.0 + normalized);
}

}  // namespace

double Dissimilarity(const std::vector<double>& x,
                     const std::vector<std::vector<double>>& known) {
  if (known.empty()) {
    return 1.0;
  }
  double nearest = std::numeric_limits<double>::max();
  for (const auto& sample : known) {
    double sq = 0.0;
    size_t n = std::min(sample.size(), x.size());
    for (size_t j = 0; j < n; ++j) {
      double d = x[j] - sample[j];
      sq += d * d;
    }
    nearest = std::min(nearest, sq);
  }
  return DissimilarityFromNearest(nearest, x.size());
}

void PoolDissimilarity(const Matrix& encoded, const EncodedHistoryRing& ring,
                       size_t known_rows, const KernelOps& ops, std::vector<double>* ds) {
  ds->assign(encoded.rows(), 1.0);
  if (known_rows == 0) {
    return;
  }
  const size_t dim = encoded.cols();
  const Matrix& known = ring.feature_major();
  assert(known.rows() == dim && known_rows <= known.cols());
  for (size_t i = 0; i < encoded.rows(); ++i) {
    double nearest =
        ops.nearest_sqdist(encoded.Row(i), dim, known.Row(0), known.cols(), known_rows);
    (*ds)[i] = DissimilarityFromNearest(nearest, dim);
  }
}

double RankScore(const DtmPrediction& prediction, double dissimilarity, double sigma_norm,
                 const ScoreOptions& options) {
  // Eq. 3: sf = alpha * ds + (1 - alpha) * F_u.
  double sf = options.alpha * dissimilarity + (1.0 - options.alpha) * sigma_norm;
  double score = options.predict_weight * prediction.objective + sf;
  if (prediction.crash_prob > options.crash_threshold) {
    // Predicted-to-crash candidates only survive if nothing better exists.
    score -= options.crash_penalty * (prediction.crash_prob - options.crash_threshold);
  }
  return score;
}

void NormalizeSigmas(std::vector<double>* sigmas) {
  double max_sigma = 1e-12;
  for (double sigma : *sigmas) {
    max_sigma = std::max(max_sigma, sigma);
  }
  for (double& sigma : *sigmas) {
    sigma /= max_sigma;
  }
}

}  // namespace wayfinder
