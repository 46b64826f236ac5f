#include "src/core/multi_metric.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/platform/searcher_registry.h"

namespace wayfinder {

MetricSpec MetricSpec::AppThroughput(double weight) {
  MetricSpec spec;
  spec.name = "throughput";
  spec.weight = weight;
  spec.higher_is_better = true;
  spec.extract = [](const TrialOutcome& outcome) { return outcome.metric; };
  return spec;
}

MetricSpec MetricSpec::MemoryFootprint(double weight) {
  MetricSpec spec;
  spec.name = "memory_mb";
  spec.weight = weight;
  spec.higher_is_better = false;
  spec.extract = [](const TrialOutcome& outcome) { return outcome.memory_mb; };
  return spec;
}

MultiMetricSearcher::MultiMetricSearcher(const ConfigSpace* space,
                                         std::vector<MetricSpec> metrics,
                                         const MultiMetricOptions& options)
    : space_(space),
      metrics_(std::move(metrics)),
      options_(options),
      model_(space->FeatureDimension(), metrics_.size(), options.model),
      metric_stats_(metrics_.size()),
      proposal_(options.model.seed) {
  assert(!metrics_.empty());
  for (const MetricSpec& metric : metrics_) {
    assert(metric.extract != nullptr);
    (void)metric;
  }
}

bool MultiMetricSearcher::LoadModel(const std::string& path) {
  transferred_ = model_.Load(path);
  return transferred_;
}

std::vector<double> MultiMetricSearcher::ExtractOriented(
    const TrialOutcome& outcome) const {
  std::vector<double> values(metrics_.size());
  for (size_t k = 0; k < metrics_.size(); ++k) {
    double raw = metrics_[k].extract(outcome);
    values[k] = metrics_[k].higher_is_better ? raw : -raw;
  }
  return values;
}

double MultiMetricSearcher::AggregateScore(const TrialOutcome& outcome) const {
  std::vector<double> values = ExtractOriented(outcome);
  double total_weight = 0.0;
  double score = 0.0;
  for (size_t k = 0; k < metrics_.size(); ++k) {
    double std_dev = metric_stats_[k].Count() > 1 ? metric_stats_[k].StdDev() : 1.0;
    if (std_dev <= 1e-12) {
      std_dev = 1.0;
    }
    score += metrics_[k].weight * (values[k] - metric_stats_[k].Mean()) / std_dev;
    total_weight += metrics_[k].weight;
  }
  return total_weight > 0.0 ? score / total_weight : 0.0;
}

std::vector<double> MultiMetricSearcher::ScorePool(SearchContext& context) {
  // Candidate pool: elite mutations + fresh random samples (the multi-metric
  // variant skips DeepTune's coordinate line search — elites already encode
  // the trade-off frontier the weights select). Assembly runs through the
  // shared proposal pipeline: counter-derived RNG streams, encoded straight
  // into the pool batch matrix.
  ProposalPoolSpec spec;
  spec.pool_size = options_.pool_size;
  spec.exploit_fraction = options_.exploit_fraction;
  spec.max_mutations = options_.max_mutations;
  spec.line_search = false;
  AssembleProposalPool(*space_, elites_, context.sample_options, spec,
                       proposal_.NextPoolSeed(*context.rng), proposal_.pool,
                       proposal_.encoded);

  std::vector<MultiDtmPrediction> predictions = model_.PredictBatch(proposal_.encoded);

  // Pool-normalize each metric's sigma column to [0, 1].
  std::vector<std::vector<double>> sigma_norm(
      metrics_.size(), std::vector<double>(proposal_.pool.size(), 0.0));
  for (size_t k = 0; k < metrics_.size(); ++k) {
    double max_sigma = 0.0;
    for (const MultiDtmPrediction& prediction : predictions) {
      max_sigma = std::max(max_sigma, prediction.sigmas[k]);
    }
    if (max_sigma > 0.0) {
      for (size_t i = 0; i < proposal_.pool.size(); ++i) {
        sigma_norm[k][i] = predictions[i].sigmas[k] / max_sigma;
      }
    }
  }

  // Recent-history window for the dissimilarity term: the shared encoded
  // ring and pool-scoring helper (see DeepTuneSearcher::ScorePool).
  size_t known_rows = proposal_.SyncHistory(*space_, context.history);
  PoolDissimilarity(proposal_.encoded, proposal_.history, known_rows, model_.kernels(),
                    &proposal_.dissimilarity);

  double total_weight = 0.0;
  for (const MetricSpec& metric : metrics_) {
    total_weight += metric.weight;
  }

  std::vector<double> scores(proposal_.pool.size());
  for (size_t i = 0; i < proposal_.pool.size(); ++i) {
    double ds = proposal_.dissimilarity[i];
    // Eq. 3 per metric, then the weighted average (§3.2).
    double score = 0.0;
    for (size_t k = 0; k < metrics_.size(); ++k) {
      DtmPrediction as_single;
      as_single.crash_prob = predictions[i].crash_prob;
      as_single.objective = predictions[i].objectives[k];
      as_single.sigma = predictions[i].sigmas[k];
      score += metrics_[k].weight *
               RankScore(as_single, ds, sigma_norm[k][i], options_.scoring);
    }
    scores[i] = total_weight > 0.0 ? score / total_weight : score;
  }
  return scores;
}

Configuration MultiMetricSearcher::Propose(SearchContext& context) {
  size_t warmup = transferred_ ? std::min<size_t>(2, options_.warmup) : options_.warmup;
  if (observed_ < warmup) {
    return space_->RandomConfiguration(*context.rng, context.sample_options);
  }
  std::vector<double> scores = ScorePool(context);
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) {
      best = i;
    }
  }
  return proposal_.pool[best];
}

void MultiMetricSearcher::ProposeBatch(SearchContext& context, size_t n,
                                       std::vector<Configuration>* batch) {
  batch->clear();
  batch->reserve(n);
  size_t warmup = transferred_ ? std::min<size_t>(2, options_.warmup) : options_.warmup;
  if (observed_ < warmup) {
    for (size_t i = 0; i < n; ++i) {
      batch->push_back(space_->RandomConfiguration(*context.rng, context.sample_options));
    }
    return;
  }
  // Shared selection with DeepTuneSearcher::ProposeBatch: one ranking, n
  // best distinct candidates, history-unseen first, random top-up.
  std::vector<double> scores = ScorePool(context);
  SelectTopCandidates(scores, proposal_.pool, context.history, n, batch);
  while (batch->size() < n) {
    batch->push_back(space_->RandomConfiguration(*context.rng, context.sample_options));
  }
}

void MultiMetricSearcher::Observe(const TrialRecord& trial, SearchContext& /*context*/) {
  if (trial.outcome.transient()) {
    // Infrastructure noise (timeout/flake), not a config-caused crash: keep
    // it out of the model (same policy as DeepTuneSearcher::Observe).
    ++observed_;
    if (observed_ % options_.update_every == 0) {
      model_.Update();
    }
    return;
  }
  bool crashed = trial.crashed();
  std::vector<double> values;
  if (!crashed) {
    values = ExtractOriented(trial.outcome);
    for (size_t k = 0; k < metrics_.size(); ++k) {
      metric_stats_[k].Add(values[k]);
    }
  }
  model_.AddSample(space_->Encode(trial.config), crashed, values);
  ++observed_;

  if (!crashed) {
    double score = AggregateScore(trial.outcome);
    constexpr size_t kEliteCount = 4;
    if (elites_.size() < kEliteCount) {
      elites_.push_back(trial.config);
      elite_scores_.push_back(score);
    } else {
      size_t worst = 0;
      for (size_t i = 1; i < elite_scores_.size(); ++i) {
        if (elite_scores_[i] < elite_scores_[worst]) {
          worst = i;
        }
      }
      if (score > elite_scores_[worst]) {
        elites_[worst] = trial.config;
        elite_scores_[worst] = score;
      }
    }
  }
  if (observed_ % options_.update_every == 0) {
    model_.Update();
  }
}

void MultiMetricSearcher::OnDrift(SearchContext& context) {
  (void)context;
  elites_.clear();
  elite_scores_.clear();
  model_.Update();
}

MultiDtmPrediction MultiMetricSearcher::PredictConfig(const Configuration& config) {
  return model_.Predict(space_->Encode(config));
}

std::string MultiMetricSearcher::ExportState() const {
  return "pool-iteration " + std::to_string(proposal_.iteration);
}

bool MultiMetricSearcher::RestoreState(const std::string& state) {
  if (state.empty()) {
    return true;  // v1 checkpoints carry no live state.
  }
  unsigned long long iteration = 0;
  if (std::sscanf(state.c_str(), "pool-iteration %llu", &iteration) != 1) {
    return false;
  }
  proposal_.iteration = static_cast<uint64_t>(iteration);
  return true;
}

size_t MultiMetricSearcher::MemoryBytes() const {
  size_t bytes = model_.MemoryBytes();
  // Elite set: configurations and their aggregate scores.
  for (const Configuration& elite : elites_) {
    bytes += elite.Size() * sizeof(int64_t);
  }
  bytes += elite_scores_.capacity() * sizeof(double);
  // Proposal-path scratch: the candidate pool, its encoded batch matrix,
  // and the encoded-history ring.
  bytes += proposal_.ScratchBytes();
  return bytes;
}

namespace {
// The `metric: multi` variant (§3.2). Constructible directly by name too;
// without an explicit metrics list it co-optimizes throughput and memory at
// equal weight (the paper's Figure 11 pairing).
const SearcherRegistration kRegistration{
    {"deeptune-multi",
     "multi-metric DeepTune: weighted per-metric Eq. 3 scores on one K-head DTM",
     /*multi_metric_variant=*/"deeptune-multi",
     /*supports_transfer=*/true},
    [](const SearcherArgs& args) {
      std::vector<MetricSpec> metrics;
      for (const auto& [name, weight] : args.metrics) {
        metrics.push_back(name == "memory" ? MetricSpec::MemoryFootprint(weight)
                                           : MetricSpec::AppThroughput(weight));
      }
      if (metrics.empty()) {
        metrics.push_back(MetricSpec::AppThroughput(1.0));
        metrics.push_back(MetricSpec::MemoryFootprint(1.0));
      }
      MultiMetricOptions options;
      options.model.seed = args.seed;
      return std::make_unique<MultiMetricSearcher>(args.space, std::move(metrics), options);
    }};
}  // namespace

}  // namespace wayfinder
