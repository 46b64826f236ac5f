// wfd — the Wayfinder tuning daemon entrypoint.
//
// The same flags and serve loop as `wfctl serve` (both call ParseWfdFlags
// and RunWfdForeground), packaged as the binary a deployment runs under its
// process supervisor:
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
#include <string>

#include "src/service/wfd.h"

int main(int argc, char** argv) {
  wayfinder::WfdOptions options;
  options.socket_path = "/tmp/wfd.sock";
  std::string error;
  if (!wayfinder::ParseWfdFlags(argc - 1, argv + 1, &options, &error)) {
    std::fprintf(stderr,
                 "wfd: %s\n"
                 "usage: wfd [--socket P] [--store DIR] [--checkpoint-dir DIR]\n"
                 "           [--max-sessions N] [--idle-timeout-ms N]\n"
                 "           [--no-recover] [--metrics]\n",
                 error.c_str());
    return 2;
  }
  return wayfinder::RunWfdForeground(options);
}
