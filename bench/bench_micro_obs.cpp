// Micro-benchmark of the observability plane (src/obs/): raw record-path
// throughput and the end-to-end overhead gate, one JSON object per line for
// tools/run_benches.sh and tools/bench_compare.py.
//
//   * obs_overhead/session_trials_per_sec_metrics_off and _metrics_on: the
//     bench_micro_session serial loop (random searcher, nginx testbench)
//     measured with recording off and on in strictly alternating
//     fixed-work chunks. The companion obs_overhead/ratio record carries
//     the median of the paired per-chunk on/off ratios — the noise-robust
//     overhead estimate tools/bench_compare.py gates at 2%: the
//     wf-hot-path contract (one relaxed load per disabled site; sharded
//     relaxed atomics plus chained clock stamps per enabled one) priced
//     end-to-end, including the per-trial trace-ring stamps.
//   * obs_record/counter_add, histogram_record, trace_ring_record: raw
//     single-instrument record paths with recording on, ops/sec.
//   * obs_record/disabled_noop: one of each record call with recording
//     off — the price every instrumented site pays in a metrics-off
//     process (should be within a few x of the empty-loop bound).
//
// The two obs_overhead rates gate PR-over-PR. The obs_record rates declare
// `"gate": false`: at a few ns per op they are dominated by binary code
// layout and cycle jitter, not by the code under review (a duplicate
// predict record in a second binary once swung 0.75-1.0x on layout alone),
// so the end-to-end obs_overhead pair is their gate.
//
// Usage: bench_micro_obs [--iterations N]
//   WF_FAST=1 shortens the measurement window (smoke mode).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "src/configspace/linux_space.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/random_search.h"
#include "src/platform/session.h"

namespace wayfinder {
namespace {

using Clock = std::chrono::steady_clock;

void RunOneSession(const ConfigSpace& space, size_t iterations, uint64_t seed) {
  Testbench bench(&space, AppId::kNginx);
  RandomSearcher searcher;
  SessionOptions options;
  options.max_iterations = iterations;
  options.seed = seed;
  SessionResult result = RunSearch(&bench, &searcher, options);
  if (result.history.size() != iterations) {
    std::fprintf(stderr, "bench_micro_obs: short session (%zu/%zu)\n",
                 result.history.size(), iterations);
    std::exit(1);
  }
}

// The overhead pair compares fixed-work chunks (kChunkSessions sessions
// each, ~10ms) run strictly alternating off/on — flipping which variant
// goes first on every other pair so a linear drift cancels — and
// estimates the ratio as the MEDIAN of the per-pair ratios. Adjacent
// chunks share whatever noise regime the box is in (scheduler preemption,
// a neighbour container's burst), so each paired ratio mostly cancels it,
// and the median discards the pairs where the regime shifted mid-pair.
// Best-of windows proved too fragile for a 2% budget on a shared 1-core
// box: a single multi-second noise episode skews every window of one
// variant. The pair does NOT shrink under WF_FAST — the whole sweep costs
// ~2s and the gate needs the resolution (measured spread of the median
// across runs: under 1%).
constexpr size_t kChunkSessions = 6;
constexpr int kOverheadPairs = 100;

// Seconds to run kChunkSessions back-to-back sessions (fixed work).
double SessionChunkSeconds(const ConfigSpace& space, size_t iterations) {
  auto start = Clock::now();
  for (size_t s = 0; s < kChunkSessions; ++s) {
    RunOneSession(space, iterations, 0xbe9c);
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace
}  // namespace wayfinder

int main(int argc, char** argv) {
  using namespace wayfinder;
  size_t iterations = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      iterations = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    }
  }
  // --- end-to-end overhead: metrics off vs on, paired chunks -----------------
  ConfigSpace space = BuildLinuxSearchSpace();
  obs::SetEnabled(false);
  for (size_t s = 0; s < 10; ++s) {
    RunOneSession(space, iterations, 0xbe9c);  // Warm up (pools, registries).
  }
  obs::SetEnabled(true);
  for (size_t s = 0; s < 10; ++s) {
    RunOneSession(space, iterations, 0xbe9c);
  }
  double best_off = 0.0;
  double best_on = 0.0;
  std::vector<double> pair_ratios;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double off_seconds;
    double on_seconds;
    if (pair % 2 == 0) {
      obs::SetEnabled(false);
      off_seconds = SessionChunkSeconds(space, iterations);
      obs::SetEnabled(true);
      on_seconds = SessionChunkSeconds(space, iterations);
    } else {
      obs::SetEnabled(true);
      on_seconds = SessionChunkSeconds(space, iterations);
      obs::SetEnabled(false);
      off_seconds = SessionChunkSeconds(space, iterations);
    }
    double chunk_trials = static_cast<double>(kChunkSessions * iterations);
    best_off = std::max(best_off, chunk_trials / off_seconds);
    best_on = std::max(best_on, chunk_trials / on_seconds);
    pair_ratios.push_back(off_seconds / on_seconds);  // on/off rate ratio.
  }
  obs::SetEnabled(false);
  // Interquartile mean of the paired ratios: as outlier-proof as the
  // median but it averages the central half, so its run-to-run spread is
  // tighter — what a 2% budget needs.
  std::sort(pair_ratios.begin(), pair_ratios.end());
  size_t q1 = pair_ratios.size() / 4;
  double sum = 0.0;
  for (size_t i = q1; i < pair_ratios.size() - q1; ++i) {
    sum += pair_ratios[i];
  }
  double median_ratio = sum / static_cast<double>(pair_ratios.size() - 2 * q1);
  PrintRate("obs_overhead", "session_trials_per_sec_metrics_off", best_off, true);
  PrintRate("obs_overhead", "session_trials_per_sec_metrics_on", best_on, true);
  // The gate record: median of the paired chunk ratios, the noise-robust
  // overhead estimate tools/bench_compare.py checks against its budget.
  std::printf("{\"bench\": \"obs_overhead\", \"variant\": \"ratio\", "
              "\"on_over_off\": %.4f}\n", median_ratio);

  // --- raw record paths ------------------------------------------------------
  constexpr size_t kOps = 4096;
  obs::Counter& counter = obs::Registry::Instance().GetCounter("bench.counter");
  obs::Histogram& histogram =
      obs::Registry::Instance().GetHistogram("bench.histogram");
  obs::TraceRing ring(obs::TraceRing::kDefaultCapacity);

  obs::SetEnabled(true);
  double counter_rate = OpsPerSec(MicroWindowSeconds(), kOps, [&] {
    for (size_t i = 0; i < kOps; ++i) {
      counter.Add(1);
    }
  });
  PrintRate("obs_record", "counter_add", counter_rate, false);
  double histogram_rate = OpsPerSec(MicroWindowSeconds(), kOps, [&] {
    for (size_t i = 0; i < kOps; ++i) {
      histogram.Record(i * 977);
    }
  });
  PrintRate("obs_record", "histogram_record", histogram_rate, false);
  double ring_rate = OpsPerSec(MicroWindowSeconds(), kOps, [&] {
    for (size_t i = 0; i < kOps; ++i) {
      ring.Record(obs::TraceKind::kEvaluate, i, static_cast<int64_t>(i) + 1, 1);
    }
  });
  PrintRate("obs_record", "trace_ring_record", ring_rate, false);

  obs::SetEnabled(false);
  double disabled_rate = OpsPerSec(MicroWindowSeconds(), kOps, [&] {
    for (size_t i = 0; i < kOps; ++i) {
      counter.Add(1);
      histogram.Record(i);
      ring.Record(obs::TraceKind::kEvaluate, i, 1, 1);
    }
  });
  PrintRate("obs_record", "disabled_noop", disabled_rate, false);
  return 0;
}
