// Micro-benchmark of the event-driven transport (src/transport/) and the
// binary TLV wire codec. One JSON object per line for tools/run_benches.sh
// and tools/bench_compare.py.
//
//   * transport_roundtrip/clients64_epoll: sustained fleet-status round
//     trips per second with 64 concurrent clients holding persistent
//     connections to a real wfd daemon carrying four finished sessions —
//     the gated anchor for the service plane end to end (event loop + TLV
//     codec + manager snapshot).
//   * transport_latency/clients64_epoll: p99 round-trip latency (ms) seen
//     by one of the 64 clients, informational (no ops_per_sec key).
//   * transport_codec/binary: encode+decode round trips per second of a
//     realistic 8-session fleet status response through the TLV codec.
//
// Both rate records gate PR-over-PR.
//
// Usage: bench_micro_transport   (WF_FAST=1 shortens the windows, smoke mode)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/service/binary_codec.h"
#include "src/service/client.h"
#include "src/service/wfd.h"
#include "src/util/socket.h"

namespace wayfinder {
namespace {

using Clock = std::chrono::steady_clock;

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

[[noreturn]] void Die(const char* what, const std::string& detail) {
  std::fprintf(stderr, "bench_micro_transport: %s: %s\n", what, detail.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Concurrent round-trip throughput.

struct ConcurrentResult {
  double ops_per_sec = 0.0;
  double p99_ms = 0.0;
};

// 64 client threads hammer `socket_path` with fleet-status round trips
// (full client-side encode + server round trip + client-side decode), each
// over one connection held for the whole run; throughput is the best of
// three sampled windows of the shared completion counter.
ConcurrentResult MeasureClients(size_t clients, const std::string& socket_path,
                                size_t expect_sessions) {
  ServiceRequest status;
  status.command = "status";

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> errors{0};
  std::vector<double> latencies_ms;  // Thread 0 only; loop-thread unshared.
  latencies_ms.reserve(1 << 20);

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ServiceConnection held;
      std::string error;
      if (!held.Connect(socket_path, true, &error)) {
        ++errors;
        return;
      }
      SetRecvTimeout(held.fd(), 10000);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (!stop.load(std::memory_order_relaxed)) {
        auto begin = (c == 0) ? Clock::now() : Clock::time_point{};
        ServiceCallResult result = held.Call(status);
        if (!result.ok || result.response.sessions.size() != expect_sessions) {
          ++errors;
          return;  // The held connection is dead; nothing left to measure.
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        if (c == 0 && latencies_ms.size() < latencies_ms.capacity()) {
          latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - begin)
                  .count());
        }
      }
    });
  }

  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // Settle.
  ConcurrentResult result;
  for (int window = 0; window < 3; ++window) {
    uint64_t before = completed.load();
    auto start = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(MicroWindowSeconds()));
    double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    result.ops_per_sec = std::max(
        result.ops_per_sec, static_cast<double>(completed.load() - before) / elapsed);
  }
  stop.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  if (completed.load() == 0 || errors.load() > completed.load() / 10) {
    Die("round-trip measurement unhealthy",
        std::to_string(errors.load()) + " errors / " +
            std::to_string(completed.load()) + " completed");
  }
  if (!latencies_ms.empty()) {
    size_t nth = latencies_ms.size() * 99 / 100;
    std::nth_element(latencies_ms.begin(), latencies_ms.begin() + nth,
                     latencies_ms.end());
    result.p99_ms = latencies_ms[nth];
  }
  return result;
}

// A real daemon with four finished sessions, so every status round trip
// snapshots and serializes a four-session fleet — the steady-state shape a
// dashboard polling a tuning service sees.
ConcurrentResult BenchEpollRoundtrip(size_t clients) {
  WfdOptions options;
  options.socket_path = TempPath("wf_bench_transport_epoll.sock");
  options.poll_ms = 1;
  options.manager.max_running = 4;
  WfdServer server(options);
  if (!server.Start()) {
    Die("epoll daemon start failed", server.error());
  }
  std::thread serve([&] { server.Serve(); });
  for (int i = 0; i < 4; ++i) {
    std::string yaml = "name: bench-fleet-" + std::to_string(i + 1) +
                       "\nos: linux\napplication: nginx\n"
                       "budget:\n  iterations: 4\nsearch:\n  algorithm: random\n"
                       "  seed: " + std::to_string(100 + i) + "\n";
    ServiceCallResult submitted =
        SubmitJob(options.socket_path, yaml, /*warm_start=*/false);
    if (!submitted.ok || !server.manager().WaitDone(submitted.response.id, 60000)) {
      Die("fleet session failed", submitted.error);
    }
  }
  ConcurrentResult result =
      MeasureClients(clients, options.socket_path, /*expect_sessions=*/4);
  server.Stop();
  serve.join();
  return result;
}

// ---------------------------------------------------------------------------
// Codec throughput: a realistic fleet status response through the codec.

ServiceResponse MakeFleetResponse() {
  ServiceResponse response;
  response.ok = true;
  response.state = "fleet";
  for (int i = 0; i < 8; ++i) {
    SessionStatus session;
    session.id = "s" + std::to_string(i + 1);
    session.name = "bench-session-" + std::to_string(i + 1);
    session.algorithm = (i % 2 == 0) ? "deeptune" : "genetic";
    session.state = (i == 7) ? "failed" : (i < 5 ? "running" : "done");
    session.trials = 120 + 40 * static_cast<size_t>(i);
    session.iterations = 2000;
    session.has_best = (i != 7);
    session.best = 1234.5678901234567 + 3.25 * i;
    session.sim_seconds = 86000.0 + 1000.0 * i;
    session.warm_started = (i % 3 == 0) ? 64 : 0;
    session.store_key = "linux-nginx-deadbeef" + std::to_string(i);
    if (i == 7) {
      session.error = "testbench rejected configuration";
    }
    response.sessions.push_back(session);
  }
  return response;
}

double BenchCodec() {
  const ServiceResponse fleet = MakeFleetResponse();
  size_t checksum = 0;
  double rate = OpsPerSec(MicroWindowSeconds(), 1, [&] {
    std::string wire = EncodeResponseBinary(fleet);
    ServiceResponse decoded;
    std::string error;
    if (!DecodeResponseBinary(wire, &decoded, &error) ||
        decoded.sessions.size() != fleet.sessions.size()) {
      Die("codec round trip failed", error);
    }
    checksum += decoded.sessions[7].error.size();
  });
  if (checksum == 0) {
    Die("codec round trip failed", "checksum empty");  // Keeps the loop live.
  }
  return rate;
}

}  // namespace
}  // namespace wayfinder

int main() {
  using namespace wayfinder;
  constexpr size_t kClients = 64;
  ConcurrentResult epoll = BenchEpollRoundtrip(kClients);
  PrintRate("transport_roundtrip", "clients64_epoll", epoll.ops_per_sec, true);
  std::printf("{\"bench\": \"transport_latency\", \"variant\": \"clients64_epoll\", "
              "\"p99_ms\": %.4f}\n", epoll.p99_ms);
  PrintRate("transport_codec", "binary", BenchCodec(), true);
  return 0;
}
