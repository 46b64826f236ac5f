// Registry round-trip: every registered name constructs a working searcher
// whose Name() matches its key, MakeSearcher/MakeJobSearcher resolve purely
// through the registry, unknown names error cleanly, and a test-local
// registration behaves like a built-in (the out-of-tree contract that
// examples/custom_searcher.cpp relies on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/configspace/unikraft_space.h"
#include "src/core/wayfinder_api.h"
#include "src/platform/searcher_registry.h"

namespace wayfinder {
namespace {

TEST(SearcherRegistry, EveryRegisteredNameConstructsAndRoundTrips) {
  ConfigSpace space = BuildUnikraftSpace();
  std::vector<std::string> names = RegisteredSearcherNames();
  // The ten in-tree algorithms are all present (a test-local registration
  // below may add more).
  for (const char* expected :
       {"random", "grid", "bayesopt", "causal", "annealing", "genetic", "hillclimb",
        "smac", "deeptune", "deeptune-multi"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }
  EXPECT_GE(names.size(), 10u);
  // Sorted and duplicate-free: deterministic help text and test matrices.
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());

  for (const std::string& name : names) {
    std::unique_ptr<Searcher> searcher = MakeSearcher(name, &space, 0x1e9);
    ASSERT_NE(searcher, nullptr) << name;
    EXPECT_EQ(searcher->Name(), name);
    // Every registered searcher can actually propose.
    Rng rng(7);
    std::vector<TrialRecord> history;
    SearchContext context;
    context.space = &space;
    context.history = &history;
    context.rng = &rng;
    Configuration proposal = searcher->Propose(context);
    EXPECT_TRUE(space.IsValid(proposal)) << name;
    // And serve a batch through the (possibly defaulted) batch entry point.
    std::vector<Configuration> batch;
    searcher->ProposeBatch(context, 3, &batch);
    ASSERT_EQ(batch.size(), 3u) << name;
    for (const Configuration& candidate : batch) {
      EXPECT_TRUE(space.IsValid(candidate)) << name;
    }
  }
}

TEST(SearcherRegistry, EverySearcherSurvivesACrashHeavyRun) {
  // Crash-heavy soak: at faults.flake_prob = 0.9 roughly nine of ten
  // trials commit with NaN objectives. Every registered searcher must run a
  // 40-trial session through that regime without wedging, throwing, or
  // poisoning its model — and still propose valid configurations afterward.
  ConfigSpace space = BuildUnikraftSpace();
  for (const std::string& name : RegisteredSearcherNames()) {
    TestbenchOptions bench_options;
    bench_options.substrate = Substrate::kUnikraftKvm;
    bench_options.seed = 0xc7a5;
    bench_options.faults.flake_prob = 0.9;
    Testbench bench(&space, AppId::kNginx, bench_options);
    std::unique_ptr<Searcher> searcher = MakeSearcher(name, &space, 0x1e9);
    ASSERT_NE(searcher, nullptr) << name;

    SessionOptions options;
    options.max_iterations = 40;
    options.seed = 0x50a;
    SessionResult result = RunSearch(&bench, searcher.get(), options);
    EXPECT_EQ(result.history.size(), 40u) << name;
    size_t successes = 0;
    for (const TrialRecord& trial : result.history) {
      if (trial.HasObjective()) {
        ++successes;
        EXPECT_TRUE(std::isfinite(trial.objective)) << name;
      }
    }
    // The flake rate leaves a sliver of successes; none may be NaN/inf.
    EXPECT_LT(successes, 20u) << name;

    // The searcher is still functional after 40 near-total failures.
    Rng rng(9);
    SearchContext context;
    context.space = &space;
    context.history = &result.history;
    context.rng = &rng;
    Configuration proposal = searcher->Propose(context);
    EXPECT_TRUE(space.IsValid(proposal)) << name;
  }
}

TEST(SearcherRegistry, MetadataDrivesMultiMetricRouting) {
  const SearcherInfo* deeptune = SearcherRegistry::Instance().Find("deeptune");
  ASSERT_NE(deeptune, nullptr);
  EXPECT_TRUE(deeptune->SupportsMultiMetric());
  EXPECT_EQ(deeptune->multi_metric_variant, "deeptune-multi");
  EXPECT_TRUE(deeptune->supports_transfer);

  const SearcherInfo* random = SearcherRegistry::Instance().Find("random");
  ASSERT_NE(random, nullptr);
  EXPECT_FALSE(random->SupportsMultiMetric());
  EXPECT_FALSE(random->supports_transfer);
  EXPECT_FALSE(random->summary.empty());

  EXPECT_EQ(SearcherRegistry::Instance().Find("no-such-searcher"), nullptr);
}

TEST(SearcherRegistry, UnknownNamesErrorThroughMakeJobSearcher) {
  ConfigSpace space = BuildUnikraftSpace();
  JobSpec spec;
  spec.algorithm = "simulated-annealing";  // Not a registered name.
  std::string error;
  EXPECT_EQ(MakeJobSearcher(spec, &space, &error), nullptr);
  EXPECT_NE(error.find("simulated-annealing"), std::string::npos) << error;

  // metric: multi on an algorithm without a registered multi variant.
  spec.algorithm = "random";
  spec.metrics.push_back({"throughput", 1.0});
  error.clear();
  EXPECT_EQ(MakeJobSearcher(spec, &space, &error), nullptr);
  EXPECT_NE(error.find("multi"), std::string::npos) << error;

  // The supported route still works and carries the metrics through.
  spec.algorithm = "deeptune";
  error.clear();
  auto searcher = MakeJobSearcher(spec, &space, &error);
  ASSERT_NE(searcher, nullptr) << error;
  EXPECT_EQ(searcher->Name(), "deeptune-multi");
}

// A local searcher registered from this test file — the out-of-tree path.
class CountingSearcher : public Searcher {
 public:
  std::string Name() const override { return "test-counting"; }
  Configuration Propose(SearchContext& context) override {
    ++proposals_;
    return context.space->RandomConfiguration(*context.rng, context.sample_options);
  }

 private:
  size_t proposals_ = 0;
};

const SearcherRegistration kCountingRegistration{
    {"test-counting", "test-only: counts proposals"},
    [](const SearcherArgs&) { return std::make_unique<CountingSearcher>(); }};

TEST(SearcherRegistry, OutOfTreeRegistrationIsFirstClass) {
  ConfigSpace space = BuildUnikraftSpace();
  std::unique_ptr<Searcher> searcher = MakeSearcher("test-counting", &space);
  ASSERT_NE(searcher, nullptr);
  EXPECT_EQ(searcher->Name(), "test-counting");

  // It resolves through the job path too — no core file mentions it.
  JobSpec spec;
  spec.algorithm = "test-counting";
  std::string error;
  auto job_searcher = MakeJobSearcher(spec, &space, &error);
  ASSERT_NE(job_searcher, nullptr) << error;

  std::vector<std::string> names = RegisteredSearcherNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "test-counting"), names.end());
}

}  // namespace
}  // namespace wayfinder
