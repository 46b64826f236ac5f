// Multi-metric DeepTune Model — the §3.2 extension implemented.
//
// The paper's DTM "can be extended to handle multiple metrics by adding
// additional output layers to F_p and F_u. This modification allows the
// DTM to make predictions for multiple targets simultaneously." This class
// is that modification: the objective head emits K outputs and the
// uncertainty head K log-variances, trained with a K-column heteroscedastic
// loss. Each metric keeps its own z-score normalizer so req/s and MB can
// share one network.
//
// Like `DeepTuneModel`, this is a thin head over the shared `DtmTrunk`
// (src/core/dtm_trunk.h) — the same single Forward/Backward/Update/Workspace
// implementation at K = metric_count. The zero-alloc workspace arena and the
// dispatched SIMD kernel backend both come from the trunk.
#ifndef WAYFINDER_SRC_CORE_MULTI_DTM_H_
#define WAYFINDER_SRC_CORE_MULTI_DTM_H_

#include <string>
#include <vector>

#include "src/core/dtm_trunk.h"

namespace wayfinder {

struct MultiDtmPrediction {
  double crash_prob = 0.0;
  std::vector<double> objectives;  // One ŷ per metric (normalized units).
  std::vector<double> sigmas;      // One σ̂ per metric.
};

class MultiDtm {
 public:
  // `metric_count` >= 1; metric_count == 1 behaves like DeepTuneModel.
  MultiDtm(size_t input_dim, size_t metric_count, const DtmOptions& options = {})
      : trunk_(input_dim, metric_count, options) {}

  size_t input_dim() const { return trunk_.input_dim(); }
  size_t metric_count() const { return trunk_.head_count(); }
  size_t sample_count() const { return trunk_.sample_count(); }

  // `objectives` must have metric_count entries, all in each metric's raw
  // higher-is-better orientation; ignored for crashed trials.
  void AddSample(const std::vector<double>& x, bool crashed,
                 const std::vector<double>& objectives);

  // Runs steps_per_update minibatch gradient steps; returns the last loss.
  double Update() { return trunk_.Update(); }

  MultiDtmPrediction Predict(const std::vector<double>& x);
  std::vector<MultiDtmPrediction> PredictBatch(const std::vector<std::vector<double>>& xs);
  // Batched inference over a row-major (N x input_dim) candidate matrix —
  // one fused forward pass for the whole pool, no per-candidate staging.
  std::vector<MultiDtmPrediction> PredictBatch(const Matrix& xs);

  // Per-metric z-score normalization over successful observations.
  double NormalizeObjective(size_t metric, double objective) const {
    return trunk_.NormalizeObjective(metric, objective);
  }
  double DenormalizeObjective(size_t metric, double normalized) const {
    return trunk_.DenormalizeObjective(metric, normalized);
  }

  std::vector<ParamBlock*> Params() { return trunk_.Params(); }
  bool Save(const std::string& path) const { return trunk_.Save(path); }
  bool Load(const std::string& path) { return trunk_.Load(path); }
  size_t MemoryBytes() const { return trunk_.MemoryBytes(); }

  const DtmOptions& options() const { return trunk_.options(); }

  // Times any workspace buffer had to (re)allocate. Stable across repeated
  // same-shaped Forward/Update rounds — the zero-alloc-after-warmup
  // guarantee that tests assert on.
  size_t workspace_grow_count() const { return trunk_.workspace_grow_count(); }

  // The SIMD kernel table this model resolved at construction; the searcher
  // scores its candidate pool on the same table.
  const KernelOps& kernels() const { return trunk_.kernels(); }

 private:
  std::vector<MultiDtmPrediction> Emit(size_t n) const;

  DtmTrunk trunk_;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_MULTI_DTM_H_
