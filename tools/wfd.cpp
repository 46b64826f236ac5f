// wfd — the Wayfinder tuning daemon entrypoint.
//
// The same serve loop as `wfctl serve` (both call RunWfdForeground),
// packaged as the binary a deployment runs under its process supervisor:
//
//   $ wfd --socket /run/wayfinder/wfd.sock --store /var/lib/wayfinder \
//         --checkpoint-dir /var/lib/wayfinder/checkpoints --max-sessions 8
//
// SIGINT/SIGTERM drain gracefully: every session stops at its next round
// boundary and checkpoints are written — exactly what the `wfctl stop`
// command does over the socket. With --store DIR, DIR/journal.wfj is the
// durable log: every committed trial is fsync'd there at its wave boundary,
// and the next start recovers the fleet from it (--no-recover empties it).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/service/wfd.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wfd [--socket P] [--store DIR] [--checkpoint-dir DIR]\n"
               "           [--max-sessions N] [--idle-timeout-ms N]\n"
               "           [--no-recover] [--metrics]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  wayfinder::WfdOptions options;
  options.socket_path = "/tmp/wfd.sock";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto take = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (flag == "--socket" && (value = take()) != nullptr) {
      options.socket_path = value;
    } else if (flag == "--store" && (value = take()) != nullptr) {
      options.manager.store_dir = value;
    } else if (flag == "--checkpoint-dir" && (value = take()) != nullptr) {
      options.manager.checkpoint_dir = value;
    } else if (flag == "--max-sessions" && (value = take()) != nullptr) {
      options.manager.max_running = std::strtoul(value, nullptr, 10);
      if (options.manager.max_running == 0) {
        return Usage();
      }
    } else if (flag == "--no-recover") {
      options.recover = false;
    } else if (flag == "--metrics") {
      // Metrics/trace recording on from startup (queryable live via
      // `wfctl metrics` / `wfctl trace`). Off by default: recording off
      // keeps the daemon's trajectories and wire frames byte-identical to
      // a build without the observability plane.
      options.metrics = true;
    } else if (flag == "--idle-timeout-ms" && (value = take()) != nullptr) {
      // How long a silent connection survives the transport's idle sweep
      // (watch subscriptions are exempt; see src/transport/event_loop.h).
      options.idle_timeout_ms = static_cast<int>(std::strtol(value, nullptr, 10));
      if (options.idle_timeout_ms <= 0) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  return wayfinder::RunWfdForeground(options);
}
