// Multi-metric specialization (§3.2 extension).
//
// Co-optimizes Nginx throughput and kernel memory footprint with one
// DeepTuneSearcher given a two-metric list — a single DTM with two objective
// heads — and sweeps the metric weights to trace the trade-off: all weight on
// throughput recovers the Figure 6a behavior, all weight on memory
// approaches the Figure 10 behavior, and the balanced point is the Figure 11
// regime.
#include <cstdio>

#include "src/configspace/linux_space.h"
#include "src/core/deeptune.h"
#include "src/core/pareto.h"
#include "src/core/wayfinder_api.h"

int main() {
  using namespace wayfinder;

  ConfigSpace space = BuildLinuxSearchSpace();
  const size_t kIterations = 120;

  std::printf("weight sweep: throughput weight w, memory weight 1-w\n");
  std::printf("%-8s %-18s %-12s %-10s\n", "w", "best throughput", "its memory", "crashes");

  struct SweepPoint {
    double w;
    double throughput;
    double memory;
  };
  std::vector<SweepPoint> front;
  std::vector<TrialRecord> all_trials;  // Pooled for the Pareto report.

  for (double w : {1.0, 0.75, 0.5, 0.25, 0.0}) {
    DeepTuneOptions options;
    options.model.seed = 0x33;
    options.warmup = 10;
    DeepTuneSearcher searcher(
        &space, options,
        {MetricSpec::AppThroughput(w), MetricSpec::MemoryFootprint(1.0 - w)});

    Testbench bench(&space, AppId::kNginx);
    SessionOptions session;
    session.max_iterations = kIterations;
    session.sample_options = SampleOptions::FavorRuntime();
    session.seed = 0xf2;
    SessionResult result = RunSearch(&bench, &searcher, session);
    all_trials.insert(all_trials.end(), result.history.begin(), result.history.end());

    // Pick the evaluated configuration the searcher itself scores highest.
    const TrialRecord* best = nullptr;
    double best_score = 0.0;
    for (const TrialRecord& trial : result.history) {
      if (!trial.HasObjective()) {
        continue;
      }
      double score = searcher.AggregateScore(trial.outcome);
      if (best == nullptr || score > best_score) {
        best = &trial;
        best_score = score;
      }
    }
    if (best != nullptr) {
      std::printf("%-8.2f %-18.0f %-12.1f %-10.2f\n", w, best->outcome.metric,
                  best->outcome.memory_mb, result.CrashRate());
      front.push_back({w, best->outcome.metric, best->outcome.memory_mb});
    }
  }

  // The ends of the sweep should pull in opposite directions.
  if (front.size() >= 2) {
    const SweepPoint& throughput_end = front.front();  // w = 1.
    const SweepPoint& memory_end = front.back();       // w = 0.
    std::printf("\nw=1 found %.0f req/s at %.1f MB; w=0 found %.0f req/s at %.1f MB.\n",
                throughput_end.throughput, throughput_end.memory, memory_end.throughput,
                memory_end.memory);
    std::printf("Shifting weight from throughput to memory moves the best configuration\n"
                "along the trade-off front without re-deriving a scalarization (§3.2).\n");
  }

  // The achievable trade-off curve across every configuration evaluated in
  // the sweep: the Pareto front (no weighting can prefer a dominated point).
  std::vector<MetricSpec> metrics = {MetricSpec::AppThroughput(),
                                     MetricSpec::MemoryFootprint()};
  std::vector<size_t> pareto = ParetoFront(all_trials, metrics);
  std::printf("\nPareto front over all %zu evaluated configurations (%zu points):\n",
              all_trials.size(), pareto.size());
  std::printf("%-18s %s\n", "throughput", "memory (MB)");
  size_t shown = 0;
  for (size_t index : pareto) {
    std::printf("%-18.0f %.1f\n", all_trials[index].outcome.metric,
                all_trials[index].outcome.memory_mb);
    if (++shown >= 10) {
      std::printf("... (%zu more)\n", pareto.size() - shown);
      break;
    }
  }
  return 0;
}
