// Tests for the proposal pipeline (src/core/proposal.h) and the
// searcher-level determinism contracts that ride on it:
//
//   * a different pool seed yields a different candidate pool;
//   * pool scoring over the feature-major history ring equals the textbook
//     Dissimilarity bit for bit, and a Propose without history scores
//     against no known points;
//   * a fixed-seed multi-metric DeepTuneSearcher trajectory is bit-identical
//     across kernel backends (the single-target twin of this pin lives in
//     kernel_backend_test);
//   * every delta-encoded exploit row equals EncodeInto of its candidate,
//     and a warm pool assembly makes no heap allocation (counted at
//     operator new);
//   * the proposal path stays allocation-stable once warm, asserted through
//     DeepTuneSearcher::MemoryBytes so footprint regressions fail loudly;
//   * MemoryBytes accounts for the elite set;
//   * RestoreState accepts exactly the live state ExportState writes.
//
// On hardware without AVX2 that backend falls back to portable and the
// backend pin passes trivially.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/configspace/linux_space.h"
#include "src/core/deeptune.h"
#include "src/core/proposal.h"
#include "src/core/scoring.h"
#include "src/core/wayfinder_api.h"
#include "src/nn/kernels.h"
#include "src/platform/job_file.h"
#include "src/platform/session.h"
#include "src/simos/testbench.h"
#include "src/util/rng.h"

// Global operator new replacement so the warm-assembly test can count heap
// activity, as nn_test does; every other test ignores it.
namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wayfinder {
namespace {

// --- pool assembly -----------------------------------------------------------

TEST(ProposalPipeline, PoolSeedChangesThePool) {
  ConfigSpace space = BuildLinuxSearchSpace();
  ProposalPoolSpec spec;
  spec.pool_size = 16;
  std::vector<Configuration> pool_a, pool_b;
  Matrix encoded_a, encoded_b;
  PoolScratch scratch;
  AssembleProposalPool(space, {}, SampleOptions(), spec, 1, pool_a, encoded_a, scratch);
  AssembleProposalPool(space, {}, SampleOptions(), spec, 2, pool_b, encoded_b, scratch);
  size_t differing = 0;
  for (size_t i = 0; i < pool_a.size(); ++i) {
    differing += pool_a[i].values() == pool_b[i].values() ? 0 : 1;
  }
  EXPECT_GT(differing, 0u);
}

// The Linux job space with 4 elites: the pool DeepTune assembles once its
// elite set is full.
struct ElitePool {
  ElitePool() : space(BuildJobSpace(JobSpec())) {
    Rng rng(0xe117e);
    for (int e = 0; e < 4; ++e) {
      elites.push_back(space.RandomConfiguration(rng));
    }
  }
  ConfigSpace space;
  std::vector<Configuration> elites;
};

// Line-search and mutation rows are their elite's encoded row with only the
// changed parameters re-encoded; each must equal a full EncodeInto.
TEST(ProposalPipeline, DeltaEncodedRowsMatchEncodeInto) {
  ElitePool setup;
  const ConfigSpace& space = setup.space;
  std::vector<Configuration> pool;
  Matrix encoded;
  PoolScratch scratch;
  std::vector<double> row(space.FeatureDimension());
  size_t exploit_rows = 0;
  for (bool line_search : {true, false}) {
    ProposalPoolSpec spec;
    spec.line_search = line_search;
    for (uint64_t seed : {3u, 4u, 5u}) {
      AssembleProposalPool(space, setup.elites, SampleOptions(), spec, seed, pool, encoded,
                           scratch);
      ASSERT_EQ(pool.size(), spec.pool_size);
      for (size_t i = 0; i < pool.size(); ++i) {
        space.EncodeInto(pool[i], row.data());
        ASSERT_EQ(std::memcmp(row.data(), encoded.Row(i), row.size() * sizeof(double)), 0)
            << "seed " << seed << " row " << i;
        exploit_rows += pool[i] == setup.elites[i % setup.elites.size()] ? 0 : 1;
      }
    }
  }
  EXPECT_GT(exploit_rows, 0u);
}

TEST(ProposalPipeline, WarmAssemblyAllocatesNothing) {
  ElitePool setup;
  ProposalPoolSpec spec;
  std::vector<Configuration> pool;
  Matrix encoded;
  PoolScratch scratch;
  AssembleProposalPool(setup.space, setup.elites, SampleOptions(), spec, 1, pool, encoded,
                       scratch);
  uint64_t before = g_news.load(std::memory_order_relaxed);
  for (uint64_t seed = 2; seed < 6; ++seed) {
    AssembleProposalPool(setup.space, setup.elites, SampleOptions(), spec, seed, pool,
                         encoded, scratch);
  }
  uint64_t news = g_news.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(news, 0u) << "warm AssembleProposalPool allocated " << news << " times";
}

// --- pool scoring -------------------------------------------------------------

std::vector<TrialRecord> RandomHistory(const ConfigSpace& space, Rng& rng, size_t n) {
  std::vector<TrialRecord> history(n);
  for (TrialRecord& trial : history) {
    trial.config = space.RandomConfiguration(rng, SampleOptions::FavorRuntime());
  }
  return history;
}

// PoolDissimilarity over the feature-major ring equals the textbook vector
// Dissimilarity (serial sums, std::min) against the ring's trials, bit for
// bit, on both backends: ring sizes 0, 1, 15, 16, 17 and a full ring, a ring
// that wraps while synced in uneven steps, and swapped histories. Pool rows
// 0 and 1 repeat a history trial, so they hit an exact distance of 0.
TEST(ProposalPipeline, PoolDissimilarityMatchesReference) {
  ConfigSpace space = BuildLinuxSearchSpace();
  const size_t window = ProposalState::kHistoryWindow;
  Rng rng(0x5c0);
  std::vector<TrialRecord> history = RandomHistory(space, rng, 300);
  ProposalPoolSpec spec;
  spec.pool_size = 128;
  std::vector<Configuration> pool;
  Matrix encoded;
  PoolScratch scratch;
  AssembleProposalPool(space, {}, SampleOptions(), spec, 7, pool, encoded, scratch);
  space.EncodeInto(history[0].config, encoded.Row(0));
  space.EncodeInto(history[299].config, encoded.Row(1));

  auto check = [&](const EncodedHistoryRing& ring, const std::vector<TrialRecord>& trials,
                   const std::string& what) {
    const size_t live = std::min(window, trials.size());
    ASSERT_EQ(ring.count(), live) << what;
    std::vector<std::vector<double>> known;
    for (size_t i = trials.size() - live; i < trials.size(); ++i) {
      known.push_back(space.Encode(trials[i].config));
    }
    for (KernelBackend backend : {KernelBackend::kPortable, KernelBackend::kAvx2}) {
      const KernelOps& ops = KernelsFor(backend);
      std::vector<double> ds;
      PoolDissimilarity(encoded, ring, ring.count(), ops, &ds);
      ASSERT_EQ(ds.size(), encoded.rows()) << what;
      for (size_t i = 0; i < encoded.rows(); ++i) {
        std::vector<double> x(encoded.Row(i), encoded.Row(i) + encoded.cols());
        EXPECT_EQ(ds[i], Dissimilarity(x, known)) << what << " " << ops.name << " row " << i;
      }
    }
  };

  for (size_t n : {0u, 1u, 15u, 16u, 17u, 128u}) {
    std::vector<TrialRecord> prefix(history.begin(), history.begin() + n);
    EncodedHistoryRing ring;
    ring.Sync(space, prefix, window);
    check(ring, prefix, "fresh n=" + std::to_string(n));
  }

  EncodedHistoryRing ring;
  std::vector<TrialRecord> grown;
  for (size_t step : {5u, 11u, 100u, 31u, 1u, 152u}) {
    grown.insert(grown.end(), history.begin() + static_cast<std::ptrdiff_t>(grown.size()),
                 history.begin() + static_cast<std::ptrdiff_t>(grown.size() + step));
    ring.Sync(space, grown, window);
    check(ring, grown, "grown n=" + std::to_string(grown.size()));
  }
  // Same length, different trials: the ring must rebuild from the new one.
  std::vector<TrialRecord> swapped = RandomHistory(space, rng, grown.size());
  ring.Sync(space, swapped, window);
  check(ring, swapped, "swapped");
  swapped.resize(17);
  ring.Sync(space, swapped, window);
  check(ring, swapped, "swapped shorter");
}

// A Propose with no history scores every candidate as maximally novel: trials
// an earlier Propose synced into the ring must not count as known points.
// Two searchers observe the same 40 trials; one proposes once with that
// history, the other once without; then each proposes 20 times without
// history from identically seeded RNGs, and the proposals must agree.
TEST(ProposalPipeline, NullHistoryScoresAgainstNoKnownPoints) {
  ConfigSpace space = BuildLinuxSearchSpace();
  DeepTuneOptions options;
  options.warmup = 4;
  options.model.steps_per_update = 4;
  DeepTuneSearcher synced(&space, options);
  DeepTuneSearcher fresh(&space, options);

  Rng rng(0xab1);
  std::vector<TrialRecord> history;
  SearchContext observe;
  observe.space = &space;
  observe.history = &history;
  observe.rng = &rng;
  observe.sample_options = SampleOptions::FavorRuntime();
  for (size_t i = 0; i < 40; ++i) {
    TrialRecord trial;
    trial.config = space.RandomConfiguration(rng, observe.sample_options);
    trial.outcome.status = TrialOutcome::Status::kOk;
    trial.outcome.metric = rng.Normal(100.0, 10.0);
    trial.objective = trial.outcome.metric;
    synced.Observe(trial, observe);
    fresh.Observe(trial, observe);
    history.push_back(trial);
  }

  Rng rng_synced(0x5eed);
  Rng rng_fresh(0x5eed);
  SearchContext with_history = observe;
  with_history.rng = &rng_synced;
  SearchContext without_history = observe;
  without_history.history = nullptr;
  without_history.rng = &rng_fresh;
  synced.Propose(with_history);
  fresh.Propose(without_history);

  with_history.history = nullptr;
  size_t differing = 0;
  for (size_t i = 0; i < 20; ++i) {
    Configuration a = synced.Propose(with_history);
    Configuration b = fresh.Propose(without_history);
    differing += a.Hash() == b.Hash() ? 0 : 1;
  }
  EXPECT_EQ(differing, 0u);
}

// --- trajectory pinning ------------------------------------------------------

SessionResult RunMultiMetric(KernelBackend backend) {
  ConfigSpace space = BuildLinuxSearchSpace();
  SessionOptions options;
  options.max_iterations = 40;
  options.sample_options = SampleOptions::FavorRuntime();
  options.seed = 0x3b1;

  DeepTuneOptions searcher_options;
  searcher_options.warmup = 6;
  searcher_options.model.steps_per_update = 8;
  searcher_options.model.kernels = backend;
  Testbench bench(&space, AppId::kNginx);
  DeepTuneSearcher searcher(&space, searcher_options,
                            {MetricSpec::AppThroughput(), MetricSpec::MemoryFootprint()});
  return RunSearch(&bench, &searcher, options);
}

TEST(ProposalPipeline, MultiMetricTrajectoryInvariantAcrossBackends) {
  SessionResult portable = RunMultiMetric(KernelBackend::kPortable);
  SessionResult simd = RunMultiMetric(KernelBackend::kAvx2);
  ASSERT_EQ(portable.history.size(), 40u);
  ASSERT_EQ(portable.history.size(), simd.history.size());
  for (size_t i = 0; i < portable.history.size(); ++i) {
    ASSERT_EQ(portable.history[i].config.Hash(), simd.history[i].config.Hash())
        << "diverged at iteration " << i;
  }
  EXPECT_EQ(portable.best_index, simd.best_index);
}

// --- footprint ---------------------------------------------------------------

// Repeated Proposes on a warm searcher must not grow its live state: the
// candidate pool, its encoded batch, the history ring, and the model
// workspace are all reused in place. A growing footprint here is an
// allocation regression in the proposal hot path.
TEST(ProposalPipeline, WarmProposeFootprintIsStable) {
  ConfigSpace space = BuildLinuxSearchSpace();
  DeepTuneOptions options;
  options.warmup = 4;
  options.pool_size = 32;
  options.model.steps_per_update = 4;
  DeepTuneSearcher searcher(&space, options);

  Rng rng(0xf00);
  std::vector<TrialRecord> history;
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  context.sample_options = SampleOptions::FavorRuntime();
  for (size_t i = 0; i < 16; ++i) {
    TrialRecord trial;
    trial.config = space.RandomConfiguration(rng, context.sample_options);
    trial.outcome.status = TrialOutcome::Status::kOk;
    trial.outcome.metric = rng.Normal(100.0, 10.0);
    trial.objective = trial.outcome.metric;
    searcher.Observe(trial, context);
    history.push_back(trial);
  }

  // Warm every proposal-path buffer (pool, encoded batch, history ring,
  // model workspace), then pin the footprint.
  searcher.Propose(context);
  searcher.Propose(context);
  size_t warm_bytes = searcher.MemoryBytes();
  size_t warm_grow = searcher.model().workspace_grow_count();
  for (int round = 0; round < 5; ++round) {
    searcher.Propose(context);
    EXPECT_EQ(searcher.MemoryBytes(), warm_bytes) << "round " << round;
  }
  EXPECT_EQ(searcher.model().workspace_grow_count(), warm_grow);
}

// MemoryBytes must cover the searcher's auxiliary state, not just the model:
// the elite set its Observe path fills.
TEST(ProposalPipeline, MemoryBytesIncludesElites) {
  ConfigSpace space = BuildLinuxSearchSpace();
  DeepTuneOptions options;
  options.warmup = 2;
  options.pool_size = 16;
  options.model.steps_per_update = 2;
  DeepTuneSearcher searcher(&space, options);
  size_t fresh_bytes = searcher.MemoryBytes();

  Rng rng(0xe11);
  std::vector<TrialRecord> history;
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  for (size_t i = 0; i < 6; ++i) {
    TrialRecord trial;
    trial.config = space.RandomConfiguration(rng);
    trial.outcome.status = TrialOutcome::Status::kOk;
    trial.outcome.metric = rng.Normal(100.0, 10.0);
    trial.objective = trial.outcome.metric;
    searcher.Observe(trial, context);
    history.push_back(trial);
  }

  // Observe populated the elite set; it must appear in the footprint over
  // and above the model's own growth.
  EXPECT_GT(searcher.MemoryBytes(), searcher.model().MemoryBytes());
  EXPECT_GT(searcher.MemoryBytes(), fresh_bytes);
}

// --- live state --------------------------------------------------------------

// Checkpoint files and journal wave records hand RestoreState text from
// disk; it must take back exactly what ExportState writes ("pool-iteration"
// and the decimal counter) and reject anything else without touching the
// counter. Both registered names share the one implementation.
TEST(ProposalPipeline, RestoreStateAcceptsOnlyWhatExportStateWrites) {
  ConfigSpace space = BuildLinuxSearchSpace();
  for (const char* name : {"deeptune", "deeptune-multi"}) {
    std::unique_ptr<Searcher> searcher = MakeSearcher(name, &space, 7);
    ASSERT_NE(searcher, nullptr) << name;
    EXPECT_TRUE(searcher->RestoreState("")) << name << ": v1 checkpoints carry none";
    for (const char* good : {"pool-iteration 0", "pool-iteration 42",
                             "pool-iteration 18446744073709551615"}) {
      ASSERT_TRUE(searcher->RestoreState(good)) << name << ": " << good;
      EXPECT_EQ(searcher->ExportState(), good) << name;
    }
    ASSERT_TRUE(searcher->RestoreState("pool-iteration 9"));
    for (const char* bad :
         {"pool-iteration 12xyz", "pool-iteration 5 6", "pool-iteration -1",
          "pool-iteration 7 trailing", "pool-iteration", "pool-iteration ",
          "pool-iteration  5", "pool-iteration +5", "pool-iteration 0x10",
          "pool-iteration 18446744073709551616", " pool-iteration 5",
          "pool-iteration 5\n", "pool-iterations 5", "iteration 5", "pool-iteration 007",
          "pool-iteration 00"}) {
      EXPECT_FALSE(searcher->RestoreState(bad)) << name << ": \"" << bad << "\"";
      EXPECT_EQ(searcher->ExportState(), "pool-iteration 9") << name << ": " << bad;
    }
  }
}

}  // namespace
}  // namespace wayfinder
