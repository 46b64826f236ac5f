// Multi-metric DeepTune searcher — the §3.2 extension end to end.
//
// "During the scoring phase, we apply equation 3 to each target metric to
// obtain individual scores. Then, we calculate a representative score for
// each permutation sample by taking a weighted average [...] of these
// individual scores." This searcher owns a MultiDtm (one network, K
// objective heads), scores each candidate per metric with the Eq. 2/3
// machinery, and ranks by the weighted average. Metric polarity is
// normalized internally: lower-is-better metrics (memory, latency) are
// negated on the way in so the network and elites always maximize.
#ifndef WAYFINDER_SRC_CORE_MULTI_METRIC_H_
#define WAYFINDER_SRC_CORE_MULTI_METRIC_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/multi_dtm.h"
#include "src/core/proposal.h"
#include "src/core/scoring.h"
#include "src/platform/searcher.h"
#include "src/simos/testbench.h"
#include "src/util/stats.h"

namespace wayfinder {

// One target metric of a multi-metric job.
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

struct MultiMetricOptions {
  DtmOptions model;
  ScoreOptions scoring;
  size_t pool_size = 128;
  double exploit_fraction = 0.6;
  size_t max_mutations = 4;
  size_t warmup = 12;
  size_t update_every = 1;
};

class MultiMetricSearcher : public Searcher {
 public:
  MultiMetricSearcher(const ConfigSpace* space, std::vector<MetricSpec> metrics,
                      const MultiMetricOptions& options = {});

  std::string Name() const override { return "deeptune-multi"; }
  Configuration Propose(SearchContext& context) override;
  // One pool assembly + one fused MultiDtm pass per round; the batch is the
  // n top-ranked distinct candidates by the §3.2 weighted score (see
  // DeepTuneSearcher::ProposeBatch).
  void ProposeBatch(SearchContext& context, size_t n,
                    std::vector<Configuration>* batch) override;
  void Observe(const TrialRecord& trial, SearchContext& context) override;
  // Drift: drop the pre-drift elite set and retrain (see
  // DeepTuneSearcher::OnDrift).
  void OnDrift(SearchContext& context) override;
  size_t MemoryBytes() const override;

  // Checkpoint v2 live state: the shared proposal pipeline's pool-seed
  // iteration counter (see DeepTuneSearcher::ExportState).
  std::string ExportState() const override;
  bool RestoreState(const std::string& state) override;

  const MultiDtm& model() const { return model_; }
  const std::vector<MetricSpec>& metrics() const { return metrics_; }

  // Transfer learning (§3.3), as in DeepTuneSearcher: persist the trained
  // weights / warm-start from a donor trained on the same space and the
  // same metric count.
  bool SaveModel(const std::string& path) const { return model_.Save(path); }
  bool LoadModel(const std::string& path);
  bool transferred() const { return transferred_; }

  // Weighted z-score aggregate of a trial's raw metric values — the scalar
  // the elites are ranked by; exposed so harnesses can report the same
  // number (the analogue of the paper's Eq. 4 score).
  double AggregateScore(const TrialOutcome& outcome) const;

  // Model verdict for one configuration (per-metric ŷ and σ̂ plus k̂).
  MultiDtmPrediction PredictConfig(const Configuration& config);

 private:
  // Raw metric vector in internal (higher-is-better) orientation.
  std::vector<double> ExtractOriented(const TrialOutcome& outcome) const;
  // Assembles the pool and returns each row's weighted-average rank score —
  // shared by Propose (argmax) and ProposeBatch (top-n distinct).
  std::vector<double> ScorePool(SearchContext& context);

  const ConfigSpace* space_;
  std::vector<MetricSpec> metrics_;
  MultiMetricOptions options_;
  MultiDtm model_;
  size_t observed_ = 0;
  bool transferred_ = false;

  // Per-metric running stats over successful trials, for elite ranking.
  std::vector<RunningStats> metric_stats_;
  std::vector<Configuration> elites_;
  std::vector<double> elite_scores_;

  // Proposal pipeline state (see DeepTuneSearcher): counter-derived candidate
  // streams, and scratch containers that persist so the warm path reuses
  // their buffers. The history ring is synced incrementally — one encode per
  // new trial, ever.
  ProposalState proposal_;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_MULTI_METRIC_H_
