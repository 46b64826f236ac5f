// Bayesian-optimization searcher: GP posterior + expected improvement over
// a random candidate pool. Crashed trials are folded in as a pessimistic
// objective (a GP has no native notion of invalid configurations — one of
// the limitations §2.3 calls out).
#ifndef WAYFINDER_SRC_BAYES_BAYES_SEARCH_H_
#define WAYFINDER_SRC_BAYES_BAYES_SEARCH_H_

#include <memory>

#include "src/bayes/gp.h"
#include "src/platform/searcher.h"

namespace wayfinder {

struct BayesOptions {
  GpOptions gp;
  size_t pool_size = 96;
  size_t warmup = 10;
  // Crashed trials enter the GP at (worst observed - this many std devs).
  double crash_pessimism = 1.0;
};

class BayesSearcher : public Searcher {
 public:
  explicit BayesSearcher(const ConfigSpace* space, const BayesOptions& options = {});

  std::string Name() const override { return "bayesopt"; }
  Configuration Propose(SearchContext& context) override;
  void Observe(const TrialRecord& trial, SearchContext& context) override;
  size_t MemoryBytes() const override;

  const GaussianProcess& gp() const { return gp_; }

 private:
  const ConfigSpace* space_;
  BayesOptions options_;
  GaussianProcess gp_;
  std::vector<std::vector<double>> xs_;
  std::vector<double> ys_;
  double best_ = 0.0;
  bool has_best_ = false;
  size_t observed_ = 0;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_BAYES_BAYES_SEARCH_H_
