// Shared helpers for the experiment harnesses.
//
// Every binary in bench/ regenerates one table or figure of the paper: it
// prints the same rows/series the paper reports (on the simulated
// substrate; see DESIGN.md §2 for the substitutions) and writes the raw
// data as CSV into the working directory for plotting.
//
// The bench_micro_* binaries instead time the library's hot paths and print
// one JSON rate record per line (OpsPerSec, PrintRate below) for
// tools/run_benches.sh and tools/bench_compare.py.
//
// Environment knobs:
//   WF_RUNS   repetitions averaged per curve (default 3; paper uses 5)
//   WF_ITERS  search iterations per session   (default 250, as in §4.1)
//   WF_FAST   if set, shrink everything for a smoke run
#ifndef WAYFINDER_BENCH_BENCH_COMMON_H_
#define WAYFINDER_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/wayfinder_api.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace wayfinder {

inline size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

inline bool FastMode() { return std::getenv("WF_FAST") != nullptr; }

inline size_t BenchRuns() { return FastMode() ? 1 : EnvSize("WF_RUNS", 3); }
inline size_t BenchIters() { return FastMode() ? 60 : EnvSize("WF_ITERS", 250); }

// Prints a banner naming the experiment.
inline void Banner(const std::string& id, const std::string& title) {
  std::printf("\n=== %s: %s ===\n", id.c_str(), title.c_str());
}

// Downsamples a (time, value) series to ~points rows and prints it.
inline void PrintSeries(const std::string& label, const std::vector<SeriesPoint>& series,
                        size_t points = 12, int precision = 0) {
  if (series.empty()) {
    std::printf("%s: (no successful trials)\n", label.c_str());
    return;
  }
  std::printf("%s:\n  t(s)   value\n", label.c_str());
  size_t step = std::max<size_t>(1, series.size() / points);
  for (size_t i = 0; i < series.size(); i += step) {
    std::printf("  %-7.0f%.*f\n", series[i].time, precision, series[i].value);
  }
  std::printf("  %-7.0f%.*f (last)\n", series.back().time, precision, series.back().value);
}

// Smoothed objective values of a session's successful trials, paired with
// times (the solid lines of Figures 6/9/10/11).
inline std::vector<SeriesPoint> SmoothedObjective(const std::vector<TrialRecord>& history,
                                                  size_t window = 20) {
  std::vector<SeriesPoint> raw = ObjectiveSeries(history);
  std::vector<double> values(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    values[i] = raw[i].value;
  }
  std::vector<double> smooth = SmoothSeries(values, window);
  for (size_t i = 0; i < raw.size(); ++i) {
    raw[i].value = smooth[i];
  }
  return raw;
}

// Averages the final smoothed objective over several session results.
inline double FinalSmoothedObjective(const std::vector<SessionResult>& results) {
  double sum = 0.0;
  size_t count = 0;
  for (const SessionResult& result : results) {
    std::vector<SeriesPoint> series = SmoothedObjective(result.history);
    if (!series.empty()) {
      sum += series.back().value;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

inline std::string CsvPath(const std::string& name) { return name + ".csv"; }

// --- Micro benches -----------------------------------------------------------

// The micro benches' measurement window: a third of 0.4 s, or of 0.15 s in
// smoke mode (WF_FAST set to anything but "" or "0").
inline double MicroWindowSeconds() {
  const char* fast = std::getenv("WF_FAST");
  const bool smoke = fast != nullptr && fast[0] != '\0' && fast[0] != '0';
  return (smoke ? 0.15 : 0.4) / 3;
}

// Calls `op` once to warm up (fills workspaces, takes first-touch page faults
// and allocator growth off the clock), then back to back through three
// windows of at least `window_seconds` each, and returns the best window's
// rate: `units_per_call` units per call of `op`, per second. Best-of-3
// defends the regression gate against one-sided wall-clock noise (frequency
// drift, co-tenant load): slowdowns only ever push a window down, so the
// fastest window is the closest sample to the machine's steady-state rate.
template <typename Op>
double OpsPerSec(double window_seconds, size_t units_per_call, Op&& op) {
  using Clock = std::chrono::steady_clock;
  op();
  double best = 0.0;
  for (int window = 0; window < 3; ++window) {
    size_t calls = 0;
    auto start = Clock::now();
    double elapsed = 0.0;
    do {
      op();
      ++calls;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < window_seconds);
    best = std::max(best, static_cast<double>(calls * units_per_call) / elapsed);
  }
  return best;
}

// Prints one rate record. `gate` declares whether tools/bench_compare.py
// gates the record PR-over-PR; a record whose rate moves with the host (its
// storage stack, its code layout, an injected failure mix) rather than with
// the code under review declares false and is only tracked. `extra` holds
// further fields, each written as `, "key": value`.
inline void PrintRate(const std::string& bench, const std::string& variant,
                      double ops_per_sec, bool gate, const std::string& extra = "") {
  std::printf("{\"bench\": \"%s\", \"variant\": \"%s\", \"ops_per_sec\": %.2f, "
              "\"gate\": %s%s}\n",
              bench.c_str(), variant.c_str(), ops_per_sec, gate ? "true" : "false",
              extra.c_str());
}

}  // namespace wayfinder

#endif  // WAYFINDER_BENCH_BENCH_COMMON_H_
