#include "src/core/deeptune.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/platform/searcher_registry.h"

namespace wayfinder {

DeepTuneSearcher::DeepTuneSearcher(const ConfigSpace* space, const DeepTuneOptions& options)
    : space_(space),
      options_(options),
      model_(space->FeatureDimension(), options.model),
      scoring_(options.scoring),
      proposal_(options.model.seed) {}

bool DeepTuneSearcher::LoadModel(const std::string& path) {
  transferred_ = model_.Load(path);
  return transferred_;
}

std::vector<double> DeepTuneSearcher::ScorePool(SearchContext& context) {
  // --- 1. Candidate pool ----------------------------------------------------
  // Diversity by construction: (a) coordinate line-search candidates — the
  // best configurations with one parameter swept across a small value grid,
  // which the model then ranks (model-guided coordinate descent); (b) small
  // multi-parameter mutations of the elites; (c) fresh random samples.
  //
  // Assembly runs through the shared proposal pipeline (src/core/proposal.h):
  // candidates mutate and encode on counter-derived RNG streams, and the
  // session RNG contributes exactly one serial draw of per-iteration entropy.
  ProposalPoolSpec spec;
  spec.pool_size = options_.pool_size;
  spec.exploit_fraction = options_.exploit_fraction;
  spec.max_mutations = options_.max_mutations;
  spec.line_search = true;
  AssembleProposalPool(*space_, elites_, context.sample_options, spec,
                       proposal_.NextPoolSeed(*context.rng), proposal_.pool,
                       proposal_.encoded);

  // --- 2. Model predictions ---------------------------------------------------
  // The assembled pool is already one row-major batch matrix; rank it with a
  // single DTM forward pass.
  std::vector<DtmPrediction> predictions = model_.PredictBatch(proposal_.encoded);
  std::vector<double> sigma_norm = NormalizeSigmas(predictions);

  // --- 3. Scoring (Eq. 2 + Eq. 3 merged with the prediction) ------------------
  // ds() against the most recent evaluations (ProposalState::kHistoryWindow),
  // held in a ring that only ever encodes each trial once, on the model's
  // kernel table.
  size_t known_rows = proposal_.SyncHistory(*space_, context.history);
  PoolDissimilarity(proposal_.encoded, proposal_.history, known_rows, model_.kernels(),
                    &proposal_.dissimilarity);
  std::vector<double> scores(proposal_.pool.size());
  for (size_t i = 0; i < proposal_.pool.size(); ++i) {
    scores[i] = RankScore(predictions[i], proposal_.dissimilarity[i], sigma_norm[i], scoring_);
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

void DeepTuneSearcher::Observe(const TrialRecord& trial, SearchContext& context) {
  (void)context;
  if (trial.outcome.transient()) {
    // Timeouts/flakes carry no (config -> outcome) signal: learning them as
    // crashes would teach the model that good configurations fail. Count
    // the observation (warmup/update cadence track trials, not samples)
    // but keep the sample out of the model.
    ++observed_;
    if (observed_ % options_.update_every == 0) {
      model_.Update();
    }
    return;
  }
  model_.AddSample(space_->EncodeMemoized(trial.config), trial.crashed(),
                   trial.HasObjective() ? trial.objective : 0.0);
  ++observed_;

  if (trial.HasObjective()) {
    // Maintain a small elite set for pool exploitation.
    constexpr size_t kEliteCount = 4;
    if (elites_.size() < kEliteCount) {
      elites_.push_back(trial.config);
      elite_objectives_.push_back(trial.objective);
    } else {
      size_t worst = 0;
      for (size_t i = 1; i < elite_objectives_.size(); ++i) {
        if (elite_objectives_[i] < elite_objectives_[worst]) {
          worst = i;
        }
      }
      if (trial.objective > elite_objectives_[worst]) {
        elites_[worst] = trial.config;
        elite_objectives_[worst] = trial.objective;
      }
    }
  }
  if (observed_ % options_.update_every == 0) {
    model_.Update();
  }
}

void DeepTuneSearcher::OnDrift(SearchContext& context) {
  (void)context;
  elites_.clear();
  elite_objectives_.clear();
  model_.Update();
}

std::string DeepTuneSearcher::ExportState() const {
  return "pool-iteration " + std::to_string(proposal_.iteration);
}

bool DeepTuneSearcher::RestoreState(const std::string& state) {
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

size_t DeepTuneSearcher::MemoryBytes() const {
  size_t bytes = model_.MemoryBytes();
  // Elite set: configurations and their objectives.
  for (const Configuration& elite : elites_) {
    bytes += elite.Size() * sizeof(int64_t);
  }
  bytes += elite_objectives_.capacity() * sizeof(double);
  // Proposal-path scratch: the candidate pool, its encoded batch matrix,
  // and the encoded-history ring.
  bytes += proposal_.ScratchBytes();
  // The memoized-encode cache lives in the (shared) ConfigSpace but is
  // populated by this searcher's Observe/PredictConfig path — count it here
  // so Figure 10 reflects the searcher's true footprint. Caveat: with
  // several searchers on one space, each reports the whole shared cache.
  bytes += space_->EncodeCacheBytes();
  return bytes;
}

DtmPrediction DeepTuneSearcher::PredictConfig(const Configuration& config) {
  return model_.Predict(space_->EncodeMemoized(config));
}

std::vector<double> DeepTuneSearcher::ParameterImpacts(SearchContext& context) {
  (void)context;
  Configuration base = space_->DefaultConfiguration();
  if (!elites_.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < elite_objectives_.size(); ++i) {
      if (elite_objectives_[i] > elite_objectives_[best]) {
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
const SearcherRegistration kRegistration{
    {"deeptune",
     "DTM-guided pool search: predict crash/objective/uncertainty, rank by Eq. 3",
     /*multi_metric_variant=*/"deeptune-multi",
     /*supports_transfer=*/true},
    [](const SearcherArgs& args) {
      DeepTuneOptions options;
      options.model.seed = args.seed;
      return std::make_unique<DeepTuneSearcher>(args.space, options);
    }};
}  // namespace

}  // namespace wayfinder
