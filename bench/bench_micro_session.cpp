// Micro-benchmark of the session executor itself: end-to-end trials/second
// of the propose → evaluate → commit → observe loop, serial vs
// batch-concurrent, emitting one JSON object per line for
// tools/run_benches.sh and tools/bench_compare.py.
//
//   * session_trials_per_sec/serial: parallel_evaluations=1 — the paper's
//     strictly serial §3.1 loop; this variant gates PR-over-PR like the
//     other micro anchors.
//   * session_trials_per_sec/parallel4: parallel_evaluations=4, the batch
//     executor (lock-step window, evaluated inline). Gates like serial: it
//     prices the refill / commit-wave machinery on one thread.
//   * session_trials_per_sec/fault10: the serial loop under a ~10%
//     mixed-fault plan with one transient retry — the hostile-world
//     overhead (fault draws, retry re-measurement, taxonomy bookkeeping).
//     Declares `"gate": false`: the committed-trials/sec rate moves with the
//     injected failure mix, not just with code changes.
//   * session_trials_per_sec/journal: the full managed path — SessionManager
//     with a store, so the write-ahead session journal is on and every wave
//     boundary pays its fsync'd journal append. Declares `"gate": false`:
//     fsync cost is a property of the box's storage stack (tmpfs vs SSD vs
//     spinning CI disk), not of the code under review.
//
// A cheap searcher (random) keeps the measurement on the session machinery —
// dedup, build-skip, virtual-time merge — rather than on model updates,
// which bench_micro_dtm already anchors.
//
// Usage: bench_micro_session [--iterations N] [--parallel K]
//   WF_FAST=1 shortens the measurement window (smoke mode).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench/bench_common.h"
#include "src/configspace/linux_space.h"
#include "src/platform/random_search.h"
#include "src/platform/session.h"
#include "src/service/session_manager.h"
#include "src/simos/fault_plan.h"

namespace wayfinder {
namespace {

double BenchSession(const ConfigSpace& space, size_t iterations, size_t parallel,
                    uint64_t seed, const FaultPlan& faults = FaultPlan(),
                    size_t retries = 0) {
  return OpsPerSec(MicroWindowSeconds(), iterations, [&] {
    TestbenchOptions bench_options;
    bench_options.faults = faults;
    Testbench bench(&space, AppId::kNginx, bench_options);
    RandomSearcher searcher;
    SessionOptions options;
    options.max_iterations = iterations;
    options.seed = seed;
    options.parallel_evaluations = parallel;
    options.retry_transient = retries;
    SessionResult result = RunSearch(&bench, &searcher, options);
    if (result.history.size() != iterations) {
      std::fprintf(stderr, "bench_micro_session: short session (%zu/%zu)\n",
                   result.history.size(), iterations);
      std::exit(1);
    }
  });
}

// The managed path: SessionManager with a store, so the measured loop
// includes the fsync'd wave-boundary journal appends. A fresh store
// directory per op keeps each repeat's journal from carrying earlier ones.
double BenchJournaledSession(size_t iterations, uint64_t seed) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "wf-bench-journal").string();
  std::string job;
  job += "name: bench-journal\n";
  job += "os: linux\napplication: nginx\nmetric: performance\n";
  job += "budget:\n  iterations: " + std::to_string(iterations) + "\n";
  job += "search:\n  algorithm: random\n";
  job += "  seed: " + std::to_string(seed) + "\n";
  return OpsPerSec(MicroWindowSeconds(), iterations, [&] {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SessionManagerOptions options;
    options.store_dir = dir + "/store";
    SessionManager manager(options);
    std::string id, error;
    if (!manager.Submit(job, false, &id, &error) || !manager.WaitDone(id, 60000)) {
      std::fprintf(stderr, "bench_micro_session: journaled session failed: %s\n",
                   error.c_str());
      std::exit(1);
    }
    manager.Shutdown();
  });
}

}  // namespace
}  // namespace wayfinder

int main(int argc, char** argv) {
  using namespace wayfinder;
  size_t iterations = 64;
  size_t parallel = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      iterations = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--parallel") == 0 && i + 1 < argc) {
      parallel = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    }
  }
  ConfigSpace space = BuildLinuxSearchSpace();
  double serial = BenchSession(space, iterations, 1, 0xbe9c);
  PrintRate("session_trials_per_sec", "serial", serial, true);
  double batched = 0.0;
  if (parallel > 1) {
    batched = BenchSession(space, iterations, parallel, 0xbe9c);
    PrintRate("session_trials_per_sec", "parallel" + std::to_string(parallel), batched, true);
  }
  if (serial > 0.0 && batched > 0.0) {
    std::printf("{\"bench\": \"session_parallel_speedup\", \"parallel_over_serial\": %.2f}\n",
                batched / serial);
  }
  FaultPlan hostile;
  hostile.flake_prob = 0.06;
  hostile.timeout_prob = 0.03;
  hostile.hang_prob = 0.01;
  hostile.timeout_seconds = 120.0;
  hostile.noise_sigma = 0.1;
  PrintRate("session_trials_per_sec", "fault10",
            BenchSession(space, iterations, 1, 0xbe9c, hostile, 1), false);
  PrintRate("session_trials_per_sec", "journal", BenchJournaledSession(iterations, 0xbe9c),
            false);
  return 0;
}
