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
// Multi-metric DeepTune (§3.2) is the same searcher given a metric list:
// "During the scoring phase, we apply equation 3 to each target metric to
// obtain individual scores. Then, we calculate a representative score for
// each permutation sample by taking a weighted average [...] of these
// individual scores." The DTM then has one head per metric, and exactly
// three things follow the metric list:
//
//   * the model's targets — the session objective, or each metric's value
//     (lower-is-better metrics negated, so every head maximizes);
//   * the elite key — the objective, or AggregateScore;
//   * the pool's coordinate line-search block — on, or off (elites already
//     encode the trade-off frontier the weights select).
//
// Without a metric list the one head's Eq. 3 score is the rank score: the
// weighted average of a single weight-1 score is that score.
//
// Transfer learning (§3.3): SaveModel persists the DTM after a session;
// LoadModel warm-starts a new searcher for a related application on the
// same configuration space and head count.
#ifndef WAYFINDER_SRC_CORE_DEEPTUNE_H_
#define WAYFINDER_SRC_CORE_DEEPTUNE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dtm.h"
#include "src/core/proposal.h"
#include "src/core/scoring.h"
#include "src/platform/searcher.h"
#include "src/simos/testbench.h"
#include "src/util/stats.h"

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

// One target metric of a multi-metric search.
struct MetricSpec {
  std::string name;
  double weight = 1.0;
  bool higher_is_better = true;
  // Pulls the raw value out of a finished trial.
  std::function<double(const TrialOutcome&)> extract;

  // The two metrics of the paper's co-optimization experiment (Figure 11):
  // application throughput (maximized) and boot memory (minimized).
  static MetricSpec AppThroughput(double weight = 1.0);
  static MetricSpec MemoryFootprint(double weight = 1.0);
};

class DeepTuneSearcher : public Searcher {
 public:
  // An empty `metrics` list optimizes the session objective with one head
  // (registered as "deeptune"); a non-empty one co-optimizes the metrics
  // with one head each ("deeptune-multi").
  explicit DeepTuneSearcher(const ConfigSpace* space, const DeepTuneOptions& options = {},
                            std::vector<MetricSpec> metrics = {});

  std::string Name() const override;
  Configuration Propose(SearchContext& context) override;
  // Real batch proposal: ONE pool assembly + ONE fused DTM forward pass,
  // then the n top-ranked distinct candidates — not n repeated serial
  // Proposes (which would assemble and rank n pools). During warmup the
  // batch is n random samples, like the serial path.
  void ProposeBatch(SearchContext& context, size_t n,
                    std::vector<Configuration>* batch) override;
  void Observe(const TrialRecord& trial, SearchContext& context) override;
  // Drift: the elite set ranks configurations by pre-drift outcomes — drop
  // it and retrain now; the session's elite re-validation feeds the old
  // best back at its post-drift value.
  void OnDrift(SearchContext& context) override;
  size_t MemoryBytes() const override;

  // Checkpoint v2 live state: the pool-seed iteration counter, the one piece
  // of proposal-side state an Observe replay cannot rebuild (the model,
  // elites, metric stats, and history ring all retrain/refill bit-exactly
  // from replay). RestoreState accepts exactly what ExportState writes.
  std::string ExportState() const override;
  bool RestoreState(const std::string& state) override;

  // Transfer learning.
  bool SaveModel(const std::string& path) const { return model_.Save(path); }
  bool LoadModel(const std::string& path);
  bool transferred() const { return transferred_; }

  const DeepTuneModel& model() const { return model_; }
  DeepTuneModel& mutable_model() { return model_; }

  // Weighted z-score aggregate of a trial's metric values against the
  // metrics' running stats over successful trials — the multi-metric elite
  // key, exposed so harnesses can report the same number (the analogue of
  // the paper's Eq. 4 score). 0 without a metric list.
  double AggregateScore(const TrialOutcome& outcome) const;

  // Model verdict for an arbitrary configuration on one head (Table 3
  // evaluation and the §4.1 parameter-importance analysis).
  DtmPrediction PredictConfig(const Configuration& config, size_t head = 0);

  // Model-estimated impact of each parameter: change in predicted objective
  // when the parameter sweeps its domain with everything else at the best
  // known configuration (§4.1 "High-Impact Configuration Parameters").
  std::vector<double> ParameterImpacts(SearchContext& context);

 private:
  // Metric k's value in the model's higher-is-better orientation.
  double Oriented(size_t k, const TrialOutcome& outcome) const;
  // Keeps the kEliteCount best configurations by elite key.
  void OfferElite(const Configuration& config, double key);
  // Assembles the candidate pool (src/core/proposal.h) and returns the
  // Eq. 2/3 rank score of every pool row — the shared engine behind Propose
  // (argmax) and ProposeBatch (top-n distinct).
  std::vector<double> ScorePool(SearchContext& context);

  const ConfigSpace* space_;
  DeepTuneOptions options_;
  std::vector<MetricSpec> metrics_;
  // Per-head rank-score weights and their sum: the metrics' weights, or 1.
  std::vector<double> head_weights_;
  double total_weight_ = 0.0;
  DeepTuneModel model_;
  size_t observed_ = 0;
  bool transferred_ = false;
  // Per-metric running stats over successful trials, for AggregateScore.
  std::vector<RunningStats> metric_stats_;
  // Best configurations seen (for pool exploitation) and their elite keys.
  std::vector<Configuration> elites_;
  std::vector<double> elite_keys_;

  // Proposal pipeline state (seeding recipe + persistent pool/encode/ring
  // scratch): candidate streams are counter-derived, never the shared
  // session RNG per candidate.
  ProposalState proposal_;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_DEEPTUNE_H_
