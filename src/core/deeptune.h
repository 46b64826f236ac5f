// The DeepTune searcher — Figure 3's loop as a platform Searcher:
//
//   1. generate a diverse pool of candidate permutations (random samples
//      plus mutations of the best configurations found so far);
//   2. predict each candidate's crash probability, objective, and
//      uncertainty with the DTM;
//   3. rank with the scoring function (Eq. 3 merged with the prediction);
//   4. hand the top candidate to the platform for evaluation;
//   5. update the DTM with the outcome.
//
// Transfer learning (§3.3): SaveModel persists the DTM after a session;
// LoadModel warm-starts a new searcher for a related application on the
// same configuration space.
#ifndef WAYFINDER_SRC_CORE_DEEPTUNE_H_
#define WAYFINDER_SRC_CORE_DEEPTUNE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/dtm.h"
#include "src/core/proposal.h"
#include "src/core/scoring.h"
#include "src/platform/searcher.h"

namespace wayfinder {

struct DeepTuneOptions {
  DtmOptions model;
  ScoreOptions scoring;
  size_t pool_size = 128;
  // Fraction of the pool mutated from the best configurations seen so far
  // (the exploitation half of the pool's diversity).
  double exploit_fraction = 0.6;
  size_t max_mutations = 4;
  // Iterations of pure random proposals before the model takes over.
  size_t warmup = 12;
  // Train the model once per this many observations.
  size_t update_every = 1;
};

class DeepTuneSearcher : public Searcher {
 public:
  explicit DeepTuneSearcher(const ConfigSpace* space, const DeepTuneOptions& options = {});

  std::string Name() const override { return "deeptune"; }
  Configuration Propose(SearchContext& context) override;
  // Real batch proposal: ONE pool assembly + ONE fused DTM forward pass,
  // then the n top-ranked distinct candidates — not n repeated serial
  // Proposes (which would assemble and rank n pools). During warmup the
  // batch is n random samples, like the serial path.
  void ProposeBatch(SearchContext& context, size_t n,
                    std::vector<Configuration>* batch) override;
  void Observe(const TrialRecord& trial, SearchContext& context) override;
  // Drift: the elite set ranks configurations by pre-drift objectives —
  // drop it and retrain now; the session's elite re-validation feeds the
  // old best back at its post-drift value.
  void OnDrift(SearchContext& context) override;
  size_t MemoryBytes() const override;

  // Checkpoint v2 live state: the pool-seed iteration counter, the one piece
  // of proposal-side state an Observe replay cannot rebuild (the model,
  // elites, and history ring all retrain/refill bit-exactly from replay).
  std::string ExportState() const override;
  bool RestoreState(const std::string& state) override;

  // Transfer learning.
  bool SaveModel(const std::string& path) const { return model_.Save(path); }
  bool LoadModel(const std::string& path);
  bool transferred() const { return transferred_; }

  const DeepTuneModel& model() const { return model_; }
  DeepTuneModel& mutable_model() { return model_; }

  // Model verdict for an arbitrary configuration (Table 3 evaluation and
  // the §4.1 parameter-importance analysis).
  DtmPrediction PredictConfig(const Configuration& config);

  // Model-estimated impact of each parameter: change in predicted objective
  // when the parameter sweeps its domain with everything else at the best
  // known configuration (§4.1 "High-Impact Configuration Parameters").
  std::vector<double> ParameterImpacts(SearchContext& context);

 private:
  // Assembles the candidate pool (PR-3 proposal pipeline) and returns the
  // Eq. 2/3 rank score of every pool row — the shared engine behind Propose
  // (argmax) and ProposeBatch (top-n distinct).
  std::vector<double> ScorePool(SearchContext& context);

  const ConfigSpace* space_;
  DeepTuneOptions options_;
  DeepTuneModel model_;
  ScoreOptions scoring_;
  size_t observed_ = 0;
  bool transferred_ = false;
  // Best configurations seen (for pool exploitation), most recent best last.
  std::vector<Configuration> elites_;
  std::vector<double> elite_objectives_;

  // Proposal pipeline state (seeding recipe + persistent pool/encode/ring
  // scratch): candidate streams are counter-derived, never the shared
  // session RNG per candidate. Shared shape with MultiMetricSearcher via
  // ProposalState.
  ProposalState proposal_;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_DEEPTUNE_H_
