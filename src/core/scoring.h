// DeepTune's candidate scoring (§3.2, Eq. 2-3).
//
// ds(x, X) measures how far a candidate sits from everything already
// evaluated (novelty); sf(x, X) blends that with the model's predicted
// uncertainty. Ranking additionally merges the predicted objective, per the
// paper's description of the scoring function ("merging the model
// prediction, the predicted uncertainty, and the dissimilarity"). With
// several target metrics, DeepTuneSearcher applies RankScore per DTM head
// and ranks by the heads' weighted average.
#ifndef WAYFINDER_SRC_CORE_SCORING_H_
#define WAYFINDER_SRC_CORE_SCORING_H_

#include <vector>

#include "src/core/dtm.h"
#include "src/core/proposal.h"
#include "src/nn/kernels.h"

namespace wayfinder {

// Eq. 2 with ||x - X||^2 taken to the nearest known sample: 0 for a point
// already in X, approaching 1 far away. Distances are normalized by the
// feature dimension so the score is comparable across spaces.
double Dissimilarity(const std::vector<double>& x,
                     const std::vector<std::vector<double>>& known);

// Eq. 2 for a whole candidate pool, DeepTuneSearcher's one scoring path:
// (*ds)[i] is the Dissimilarity above of `encoded` row i against the first
// `known_rows` entries of `ring` (0 = no known points: 1.0 everywhere), bit
// for bit. Each nearest distance is one KernelOps::nearest_sqdist call on
// `ops`, which the searcher passes as its model's table. `ds` is resized to
// the pool and reused, so a warm call does not allocate.
void PoolDissimilarity(const Matrix& encoded, const EncodedHistoryRing& ring,
                       size_t known_rows, const KernelOps& ops, std::vector<double>* ds);

struct ScoreOptions {
  double alpha = 0.5;           // Eq. 3 exploration blend.
  double predict_weight = 1.0;  // Weight of the predicted objective ŷ.
  double crash_threshold = 0.5; // Candidates above this k̂ are deprioritized.
  double crash_penalty = 4.0;   // Score penalty applied past the threshold.
};

// Final ranking score for one candidate on one head. `sigma_norm` must be
// the head's σ̂ max-scaled over the pool, in [0, 1] (NormalizeSigmas).
double RankScore(const DtmPrediction& prediction, double dissimilarity, double sigma_norm,
                 const ScoreOptions& options);

// Eq. 3's uncertainty input for one head: max-scales the head's σ̂ over a
// candidate pool into [0, 1], in place. The scale is floored at 1e-12, so a
// pool whose σ̂ all sit below it stays finite (an all-zero pool stays 0).
void NormalizeSigmas(std::vector<double>* sigmas);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_SCORING_H_
