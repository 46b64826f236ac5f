// Micro-benchmark of the wfd service layer, emitting one JSON object per
// line for tools/run_benches.sh and tools/bench_compare.py.
//
//   * service_submit_roundtrip/socket: full client→daemon round trips per
//     second — submit a tiny job over the Unix socket, wait for the session
//     to finish, fetch its checkpoint. Measures the protocol + manager
//     shell; the sessions themselves are deliberately tiny (random, 4
//     trials) so the anchor tracks service overhead, which is what this
//     layer adds on top of the session engine bench_micro_session anchors.
//
// Usage: bench_micro_service   (WF_FAST=1 shortens the windows, smoke mode)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "src/service/client.h"
#include "src/service/wfd.h"

namespace wayfinder {
namespace {

double g_measure_seconds = 0.4;

// Best-of-3 windows (see bench_micro_session): noise only slows a window
// down, so the fastest window approximates the steady-state rate.
template <typename Op>
double OpsPerSec(Op&& op) {
  using Clock = std::chrono::steady_clock;
  op();  // Warm up (socket file, first connection).
  double best = 0.0;
  for (int window = 0; window < 3; ++window) {
    size_t iters = 0;
    auto start = Clock::now();
    double elapsed = 0.0;
    do {
      op();
      ++iters;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < g_measure_seconds / 3);
    best = std::max(best, static_cast<double>(iters) / elapsed);
  }
  return best;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

double BenchSubmitRoundtrip() {
  WfdOptions options;
  options.socket_path = TempPath("wf_bench_service.sock");
  options.poll_ms = 1;
  WfdServer server(options);
  if (!server.Start()) {
    std::fprintf(stderr, "bench_micro_service: %s\n", server.error().c_str());
    std::exit(1);
  }
  std::thread serve([&] { server.Serve(); });
  uint64_t seed = 1;
  double rate = OpsPerSec([&] {
    std::string yaml = "name: bench-roundtrip\nos: linux\napplication: nginx\n"
                       "budget:\n  iterations: 4\nsearch:\n  algorithm: random\n"
                       "  seed: " + std::to_string(seed++) + "\n";
    ServiceCallResult submitted = SubmitJob(options.socket_path, yaml);
    if (!submitted.ok || !server.manager().WaitDone(submitted.response.id, 60000)) {
      std::fprintf(stderr, "bench_micro_service: submit failed: %s\n",
                   submitted.error.c_str());
      std::exit(1);
    }
    ServiceCallResult result = FetchResult(options.socket_path, submitted.response.id);
    if (!result.ok || result.payload.empty()) {
      std::fprintf(stderr, "bench_micro_service: result failed: %s\n",
                   result.error.c_str());
      std::exit(1);
    }
  });
  StopDaemon(options.socket_path);
  serve.join();
  return rate;
}

}  // namespace
}  // namespace wayfinder

int main() {
  using namespace wayfinder;
  if (const char* fast = std::getenv("WF_FAST")) {
    if (fast[0] != '\0' && fast[0] != '0') {
      g_measure_seconds = 0.15;
    }
  }
  double roundtrips = BenchSubmitRoundtrip();
  std::printf("{\"bench\": \"service_submit_roundtrip\", \"variant\": \"socket\", "
              "\"ops_per_sec\": %.2f}\n", roundtrips);
  return 0;
}
