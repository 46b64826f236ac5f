#include "src/bayes/bayes_search.h"

#include <algorithm>
#include <cmath>

#include "src/util/stats.h"
#include "src/platform/searcher_registry.h"

namespace wayfinder {

BayesSearcher::BayesSearcher(const ConfigSpace* space, const BayesOptions& options)
    : space_(space), options_(options), gp_(options.gp) {}

Configuration BayesSearcher::Propose(SearchContext& context) {
  if (observed_ < options_.warmup || gp_.SampleCount() == 0) {
    return context.space->RandomConfiguration(*context.rng, context.sample_options);
  }
  Configuration best_candidate = context.space->RandomConfiguration(*context.rng,
                                                                    context.sample_options);
  double best_ei = -1.0;
  for (size_t i = 0; i < options_.pool_size; ++i) {
    Configuration candidate =
        context.space->RandomConfiguration(*context.rng, context.sample_options);
    GaussianProcess::Posterior posterior = gp_.Predict(space_->Encode(candidate));
    double ei = ExpectedImprovement(posterior.mean, posterior.variance,
                                    has_best_ ? best_ : posterior.mean);
    if (ei > best_ei) {
      best_ei = ei;
      best_candidate = std::move(candidate);
    }
  }
  return best_candidate;
}

void BayesSearcher::Observe(const TrialRecord& trial, SearchContext& context) {
  (void)context;
  ++observed_;
  double y;
  if (trial.HasObjective()) {
    y = trial.objective;
    if (!has_best_ || y > best_) {
      best_ = y;
      has_best_ = true;
    }
  } else {
    // Pessimistic fill-in for crashes.
    double worst = 0.0;
    double spread = 1.0;
    if (!ys_.empty()) {
      worst = *std::min_element(ys_.begin(), ys_.end());
      spread = std::max(1e-9, StdDev(ys_));
    }
    y = worst - options_.crash_pessimism * spread;
  }
  xs_.push_back(space_->Encode(trial.config));
  ys_.push_back(y);
  // Full refit per observation: the O(n^3) cost the paper measures.
  gp_.Fit(xs_, ys_);
}

size_t BayesSearcher::MemoryBytes() const {
  size_t bytes = gp_.MemoryBytes() + ys_.size() * sizeof(double);
  for (const auto& x : xs_) {
    bytes += x.size() * sizeof(double);
  }
  return bytes;
}

namespace {
const SearcherRegistration kRegistration{
    {"bayesopt", "Gaussian-process Bayesian optimization with expected improvement",
     /*multi_metric_variant=*/""},
    [](const SearcherArgs& args) { return std::make_unique<BayesSearcher>(args.space); }};
}  // namespace

}  // namespace wayfinder
