// The DeepTune Model (DTM) — Figure 4 of the paper.
//
// A multitask neural network F(x) -> (k̂, ŷ, σ̂) mapping an encoded
// configuration to its crash probability, expected (normalized) objective,
// and predicted uncertainty. Two branches share a trunk:
//
//   * prediction branch F_p: dense -> ReLU -> dropout -> dense -> ReLU with
//     two heads — crash logits (2-way softmax) and the objective ŷ;
//   * uncertainty branch F_u: a stack of Gaussian RBF layers, one parallel
//     to each trunk stage (input, hidden-1, hidden-2). Their activations are
//     concatenated and a linear head emits s = log σ². Because RBF neurons
//     respond by distance to learned centroids (prototypes of the data,
//     Eq. 1), inputs far from everything seen produce near-zero activations
//     and the head falls back to its bias — uncertainty degrades gracefully
//     on outliers, which conventional activations cannot do (§5).
//
// Trained end-to-end on L = L_CCE + L_Reg + L_Cham (§3.2): cross-entropy on
// crash labels, heteroscedastic regression (Kendall & Gal) coupling ŷ with
// the uncertainty branch's s, and a Chamfer regularizer distributing each
// RBF layer's centroids over its input distribution.
//
// §3.2's multi-metric extension — "adding additional output layers to F_p
// and F_u" — is the head count: K objective outputs and K log-variances,
// trained with a K-column heteroscedastic loss, each head with its own
// z-score normalizer so req/s and MB can share one network. One head is the
// paper's single-objective DTM.
//
// This class is a thin head over the shared `DtmTrunk`
// (src/core/dtm_trunk.h), which owns the network, the backward pass, the
// optimizer, the replay buffer, and every bit-determinism contract. The
// head only converts the trunk's row/head accessors into DtmPrediction
// structs.
#ifndef WAYFINDER_SRC_CORE_DTM_H_
#define WAYFINDER_SRC_CORE_DTM_H_

#include <cassert>
#include <string>
#include <utility>
#include <vector>

#include "src/core/dtm_trunk.h"

namespace wayfinder {

// The model's verdict on one configuration for one head.
struct DtmPrediction {
  double crash_prob = 0.0;  // k̂
  double objective = 0.0;   // ŷ, in the head's normalized units.
  double sigma = 1.0;       // σ̂ from the uncertainty branch.
};

class DeepTuneModel {
 public:
  // `head_count` >= 1: one objective/uncertainty head per target metric.
  explicit DeepTuneModel(size_t input_dim, const DtmOptions& options = {},
                         size_t head_count = 1)
      : trunk_(input_dim, head_count, options) {}

  size_t input_dim() const { return trunk_.input_dim(); }
  size_t head_count() const { return trunk_.head_count(); }
  size_t sample_count() const { return trunk_.sample_count(); }

  // Adds one observation. `objectives` holds one raw, higher-is-better value
  // per head; it is ignored (and may be empty) for crashed trials.
  void AddSample(std::vector<double> x, bool crashed, const std::vector<double>& objectives) {
    assert(crashed || objectives.size() == head_count());
    trunk_.AddSample(std::move(x), crashed, objectives.data());
  }

  // Runs `steps_per_update` minibatch gradient steps on the replay buffer.
  // Returns the last batch's total loss (0 when there is nothing to train).
  double Update() { return trunk_.Update(); }

  // Batched inference over a row-major (N x input_dim) candidate matrix: one
  // fused forward pass, read back per row and head through Prediction() —
  // the pool-ranking form, with no container per candidate. Returns N.
  size_t PredictRows(const Matrix& xs) { return trunk_.PredictRows(xs); }
  // Head `head` of row `row` of the last inference call.
  DtmPrediction Prediction(size_t row, size_t head = 0) const {
    return {trunk_.CrashProb(row), trunk_.Objective(row, head), trunk_.Sigma(row, head)};
  }

  // Head `head` of one configuration, staged through the workspace's input
  // row (the single-candidate form PredictConfig and ParameterImpacts use).
  DtmPrediction Predict(const std::vector<double>& x, size_t head = 0);

  // Per-head objective normalization (z-score over successful observations).
  double NormalizeObjective(double objective, size_t head = 0) const {
    return trunk_.NormalizeObjective(head, objective);
  }
  double DenormalizeObjective(double normalized, size_t head = 0) const {
    return trunk_.DenormalizeObjective(head, normalized);
  }

  // Transfer learning (§3.3): persist/restore the trained weights. Loading
  // requires an identical architecture (input dim, head count, options).
  bool Save(const std::string& path) const { return trunk_.Save(path); }
  bool Load(const std::string& path) { return trunk_.Load(path); }

  // Live state footprint (weights + optimizer moments + replay buffer).
  size_t MemoryBytes() const { return trunk_.MemoryBytes(); }

  // Times any workspace buffer had to (re)allocate. Stable across repeated
  // same-shaped Forward/Update rounds — the zero-alloc-after-warmup
  // guarantee that tests assert on.
  size_t workspace_grow_count() const { return trunk_.workspace_grow_count(); }

  // The SIMD kernel table this model resolved at construction; the searcher
  // scores its candidate pool on the same table.
  const KernelOps& kernels() const { return trunk_.kernels(); }

 private:
  DtmTrunk trunk_;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_DTM_H_
