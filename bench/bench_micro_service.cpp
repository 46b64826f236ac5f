// Micro-benchmark of the wfd service layer, emitting one JSON object per
// line for tools/run_benches.sh and tools/bench_compare.py.
//
//   * service_submit_roundtrip/socket: full client→daemon round trips per
//     second — submit a tiny job over the Unix socket, wait for the session
//     to finish, fetch its checkpoint. Measures the protocol + manager
//     shell; the sessions themselves are deliberately tiny (random, 4
//     trials) so the anchor tracks service overhead, which is what this
//     layer adds on top of the session engine bench_micro_session anchors.
//     Gates PR-over-PR.
//
// Usage: bench_micro_service   (WF_FAST=1 shortens the windows, smoke mode)
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "src/service/client.h"
#include "src/service/wfd.h"

namespace wayfinder {
namespace {

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
  double rate = OpsPerSec(MicroWindowSeconds(), 1, [&] {
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
  PrintRate("service_submit_roundtrip", "socket", BenchSubmitRoundtrip(), true);
  return 0;
}
