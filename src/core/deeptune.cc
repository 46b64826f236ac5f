#include "src/core/deeptune.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <limits>

#include "src/platform/searcher_registry.h"

namespace wayfinder {

namespace {

constexpr char kStateKey[] = "pool-iteration ";

}  // namespace

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

DeepTuneSearcher::DeepTuneSearcher(const ConfigSpace* space, const DeepTuneOptions& options,
                                   std::vector<MetricSpec> metrics)
    : space_(space),
      options_(options),
      metrics_(std::move(metrics)),
      model_(space->FeatureDimension(), options.model,
             std::max<size_t>(1, metrics_.size())),
      metric_stats_(metrics_.size()),
      proposal_(options.model.seed) {
  for (const MetricSpec& metric : metrics_) {
    assert(metric.extract != nullptr);
    head_weights_.push_back(metric.weight);
  }
  if (head_weights_.empty()) {
    head_weights_.push_back(1.0);  // The session objective's one head.
  }
  for (double weight : head_weights_) {
    total_weight_ += weight;
  }
}

std::string DeepTuneSearcher::Name() const {
  return metrics_.empty() ? "deeptune" : "deeptune-multi";
}

bool DeepTuneSearcher::LoadModel(const std::string& path) {
  transferred_ = model_.Load(path);
  return transferred_;
}

double DeepTuneSearcher::Oriented(size_t k, const TrialOutcome& outcome) const {
  double raw = metrics_[k].extract(outcome);
  return metrics_[k].higher_is_better ? raw : -raw;
}

double DeepTuneSearcher::AggregateScore(const TrialOutcome& outcome) const {
  double score = 0.0;
  for (size_t k = 0; k < metrics_.size(); ++k) {
    double std_dev = metric_stats_[k].Count() > 1 ? metric_stats_[k].StdDev() : 1.0;
    if (std_dev <= 1e-12) {
      std_dev = 1.0;
    }
    score += metrics_[k].weight * (Oriented(k, outcome) - metric_stats_[k].Mean()) / std_dev;
  }
  return total_weight_ > 0.0 ? score / total_weight_ : 0.0;
}

std::vector<double> DeepTuneSearcher::ScorePool(SearchContext& context) {
  // --- 1. Candidate pool ----------------------------------------------------
  // Diversity by construction: (a) coordinate line-search candidates — the
  // best configurations with one parameter swept across a small value grid,
  // which the model then ranks (model-guided coordinate descent; skipped
  // with a metric list); (b) small multi-parameter mutations of the elites;
  // (c) fresh random samples.
  //
  // Assembly runs through the shared proposal pipeline (src/core/proposal.h):
  // candidates mutate and encode on counter-derived RNG streams, and the
  // session RNG contributes exactly one serial draw of per-iteration entropy.
  ProposalPoolSpec spec;
  spec.pool_size = options_.pool_size;
  spec.exploit_fraction = options_.exploit_fraction;
  spec.max_mutations = options_.max_mutations;
  spec.line_search = metrics_.empty();
  AssembleProposalPool(*space_, elites_, context.sample_options, spec,
                       proposal_.NextPoolSeed(*context.rng), proposal_.pool,
                       proposal_.encoded, proposal_.pool_scratch);

  // --- 2. Model predictions ---------------------------------------------------
  // The assembled pool is already one row-major batch matrix; rank it with a
  // single DTM forward pass and read every row's heads in place.
  const size_t rows = model_.PredictRows(proposal_.encoded);

  // --- 3. Scoring (Eq. 2 + Eq. 3 merged with the prediction) ------------------
  // ds() against the most recent evaluations (ProposalState::kHistoryWindow),
  // held in a ring that only ever encodes each trial once, on the model's
  // kernel table. Eq. 3 per head, on the head's σ̂ max-scaled over the pool,
  // then the weighted average (§3.2).
  size_t known_rows = proposal_.SyncHistory(*space_, context.history);
  PoolDissimilarity(proposal_.encoded, proposal_.history, known_rows, model_.kernels(),
                    &proposal_.dissimilarity);
  std::vector<double> scores(rows, 0.0);
  std::vector<double>& sigma_norm = proposal_.sigma_norm;
  sigma_norm.resize(rows);
  for (size_t k = 0; k < model_.head_count(); ++k) {
    for (size_t i = 0; i < rows; ++i) {
      sigma_norm[i] = model_.Prediction(i, k).sigma;
    }
    NormalizeSigmas(&sigma_norm);
    for (size_t i = 0; i < rows; ++i) {
      scores[i] += head_weights_[k] * RankScore(model_.Prediction(i, k),
                                                proposal_.dissimilarity[i], sigma_norm[i],
                                                options_.scoring);
    }
  }
  if (total_weight_ > 0.0) {
    for (double& score : scores) {
      score /= total_weight_;
    }
  }
  return scores;
}

Configuration DeepTuneSearcher::Propose(SearchContext& context) {
  // Cold start: sample randomly until there is something to learn from —
  // unless a transferred model already knows the space (§3.3), in which
  // case it takes over immediately.
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

void DeepTuneSearcher::ProposeBatch(SearchContext& context, size_t n,
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
  // One pool ranking serves the whole round: the n best-scoring distinct
  // candidates, history-unseen ones first (see SelectTopCandidates). A pool
  // with fewer than n distinct members (tiny spaces) tops up with fresh
  // random samples so the session still gets a full round.
  std::vector<double> scores = ScorePool(context);
  SelectTopCandidates(scores, proposal_.pool, context.history, n, batch);
  while (batch->size() < n) {
    batch->push_back(space_->RandomConfiguration(*context.rng, context.sample_options));
  }
}

void DeepTuneSearcher::Observe(const TrialRecord& trial, SearchContext& /*context*/) {
  ++observed_;
  // Timeouts/flakes carry no (config -> outcome) signal: learning them as
  // crashes would teach the model that good configurations fail. They count
  // as observations (warmup/update cadence track trials, not samples) but
  // stay out of the model, the metric stats, and the elites.
  if (!trial.outcome.transient()) {
    const bool crashed = trial.crashed();
    // Targets: the session objective, or every metric's oriented value. A
    // crashed trial trains only the crash head, so it carries none.
    std::vector<double> targets;
    if (!crashed) {
      if (metrics_.empty()) {
        targets.push_back(trial.HasObjective() ? trial.objective : 0.0);
      }
      for (size_t k = 0; k < metrics_.size(); ++k) {
        targets.push_back(Oriented(k, trial.outcome));
        metric_stats_[k].Add(targets[k]);
      }
    }
    model_.AddSample(space_->Encode(trial.config), crashed, targets);
    // Elite key: the objective, or the metrics' weighted aggregate.
    if (metrics_.empty() ? trial.HasObjective() : !crashed) {
      OfferElite(trial.config,
                 metrics_.empty() ? trial.objective : AggregateScore(trial.outcome));
    }
  }
  if (observed_ % options_.update_every == 0) {
    model_.Update();
  }
}

void DeepTuneSearcher::OfferElite(const Configuration& config, double key) {
  constexpr size_t kEliteCount = 4;
  if (elites_.size() < kEliteCount) {
    elites_.push_back(config);
    elite_keys_.push_back(key);
    return;
  }
  size_t worst = 0;
  for (size_t i = 1; i < elite_keys_.size(); ++i) {
    if (elite_keys_[i] < elite_keys_[worst]) {
      worst = i;
    }
  }
  if (key > elite_keys_[worst]) {
    elites_[worst] = config;
    elite_keys_[worst] = key;
  }
}

void DeepTuneSearcher::OnDrift(SearchContext& /*context*/) {
  elites_.clear();
  elite_keys_.clear();
  model_.Update();
}

std::string DeepTuneSearcher::ExportState() const {
  return kStateKey + std::to_string(proposal_.iteration);
}

bool DeepTuneSearcher::RestoreState(const std::string& state) {
  if (state.empty()) {
    return true;  // v1 checkpoints carry no live state.
  }
  // The key, then decimal digits to the end of the line as std::to_string
  // writes them: no sign, no whitespace, no leading zero, no trailing text,
  // no value past uint64_t.
  const size_t key_size = sizeof(kStateKey) - 1;
  if (state.compare(0, key_size, kStateKey) != 0) {
    return false;
  }
  const char* first = state.data() + key_size;
  const char* last = state.data() + state.size();
  if (last - first > 1 && *first == '0') {
    return false;
  }
  uint64_t iteration = 0;
  auto [end, error] = std::from_chars(first, last, iteration);
  if (error != std::errc() || end != last) {
    return false;
  }
  proposal_.iteration = iteration;
  return true;
}

size_t DeepTuneSearcher::MemoryBytes() const {
  size_t bytes = model_.MemoryBytes();
  // Elite set: configurations and their keys.
  for (const Configuration& elite : elites_) {
    bytes += elite.Size() * sizeof(int64_t);
  }
  bytes += elite_keys_.capacity() * sizeof(double);
  // Proposal-path scratch: the candidate pool, its encoded batch matrix,
  // and the encoded-history ring.
  bytes += proposal_.ScratchBytes();
  return bytes;
}

DtmPrediction DeepTuneSearcher::PredictConfig(const Configuration& config, size_t head) {
  return model_.Predict(space_->Encode(config), head);
}

std::vector<double> DeepTuneSearcher::ParameterImpacts(SearchContext& context) {
  (void)context;
  Configuration base = space_->DefaultConfiguration();
  if (!elites_.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < elite_keys_.size(); ++i) {
      if (elite_keys_[i] > elite_keys_[best]) {
        best = i;
      }
    }
    base = elites_[best];
  }
  std::vector<double> impacts(space_->Size(), 0.0);
  std::vector<double> features = space_->Encode(base);
  for (size_t i = 0; i < space_->Size(); ++i) {
    double lo = std::numeric_limits<double>::max();
    double hi = -std::numeric_limits<double>::max();
    std::vector<double> probe = features;
    for (int g = 0; g <= 4; ++g) {
      probe[i] = static_cast<double>(g) / 4.0;
      double yhat = model_.Predict(probe).objective;
      lo = std::min(lo, yhat);
      hi = std::max(hi, yhat);
    }
    impacts[i] = hi - lo;
  }
  return impacts;
}

namespace {

std::unique_ptr<Searcher> MakeDeepTune(const SearcherArgs& args,
                                       std::vector<MetricSpec> metrics) {
  DeepTuneOptions options;
  options.model.seed = args.seed;
  return std::make_unique<DeepTuneSearcher>(args.space, options, std::move(metrics));
}

const SearcherRegistration kRegistration{
    {"deeptune",
     "DTM-guided pool search: predict crash/objective/uncertainty, rank by Eq. 3",
     /*multi_metric_variant=*/"deeptune-multi",
     /*supports_transfer=*/true},
    [](const SearcherArgs& args) { return MakeDeepTune(args, {}); }};

// The `metric: multi` variant (§3.2). Constructible directly by name too;
// without an explicit metrics list it co-optimizes throughput and memory at
// equal weight (the paper's Figure 11 pairing).
const SearcherRegistration kMultiRegistration{
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
      return MakeDeepTune(args, std::move(metrics));
    }};

}  // namespace

}  // namespace wayfinder
