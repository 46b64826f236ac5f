// Hostile-churn soak of the wfd daemon (tier2 in CI, where it runs long
// under ASan and TSan with WF_SOAK=1): many submit/pause/resume cycles of
// jobs carrying a ~10% mixed-fault plan, interleaved with clients that
// vanish at every stage of the exchange — silent connects, a submit whose
// job frame never arrives, truncated frame headers, frames that are not TLV
// requests, watch subscribers that die without draining their pushes. The daemon
// must neither crash nor wedge, every session must still run to done, and
// the fault taxonomy must surface over the wire.
//
// Default (tier-1) run keeps the cycle count small so plain `ctest` stays
// fast; WF_SOAK=1 raises it to the full 32-cycle churn.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/service/binary_codec.h"
#include "src/service/client.h"
#include "src/service/wfd.h"
#include "src/util/socket.h"

namespace wayfinder {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

size_t SoakCycles() {
  const char* env = std::getenv("WF_SOAK");
  return (env != nullptr && env[0] == '1') ? 32 : 4;
}

// A small job with a ~10% mixed-fault plan: flakes, timeouts, hangs, and
// measurement noise all active at once, with one transient retry.
std::string SoakJob(size_t cycle) {
  std::string yaml;
  yaml += "name: soak-" + std::to_string(cycle) + "\n";
  yaml += "os: unikraft\n";
  yaml += "application: nginx\n";
  yaml += "metric: performance\n";
  yaml += "budget:\n  iterations: 12\n";
  yaml += "search:\n";
  yaml += std::string("  algorithm: ") + (cycle % 2 == 0 ? "random" : "deeptune") + "\n";
  yaml += "  seed: " + std::to_string(0x50a + cycle) + "\n";
  yaml += "faults:\n";
  yaml += "  flake_prob: 0.06\n";
  yaml += "  timeout_prob: 0.03\n";
  yaml += "  hang_prob: 0.01\n";
  yaml += "  timeout_s: 120\n";
  yaml += "  noise_sigma: 0.1\n";
  yaml += "  retries: 1\n";
  return yaml;
}

// The hostile-client repertoire. None of these are allowed to take the
// daemon down or leak its per-connection state.
void HarassDaemon(const std::string& socket_path, const std::string& id) {
  // Connect, say nothing, vanish.
  {
    std::string error;
    ServiceConnection silent;
    if (silent.Connect(socket_path, true, &error)) {
      silent.Close();
    }
  }
  // Announce a submit, then die before the job frame arrives.
  {
    UnixConn conn = ConnectUnix(socket_path);
    if (conn.ok()) {
      ServiceRequest submit;
      submit.command = "submit";
      WriteFrame(conn.fd(), EncodeRequestBinary(submit));
      conn.Close();
    }
  }
  // Die mid-frame-header (the kTruncated path).
  {
    UnixConn conn = ConnectUnix(socket_path);
    if (conn.ok()) {
      const char half_header[2] = {0x00, 0x00};
      (void)send(conn.fd(), half_header, sizeof(half_header), MSG_NOSIGNAL);
      conn.Close();
    }
  }
  // A frame that is not a TLV request, abandoned without reading the error
  // reply.
  {
    UnixConn conn = ConnectUnix(socket_path);
    if (conn.ok()) {
      WriteFrame(conn.fd(), "!!junk: [unterminated");
      conn.Close();
    }
  }
  // Subscribe to pushes, then vanish without draining them.
  if (!id.empty()) {
    UnixConn conn = ConnectUnix(socket_path);
    if (conn.ok()) {
      ServiceRequest watch;
      watch.command = "watch";
      watch.id = id;
      WriteFrame(conn.fd(), EncodeRequestBinary(watch));
      conn.Close();
    }
  }
}

TEST(ServiceSoak, DaemonSurvivesHostileChurn) {
  std::string socket_path = TempPath("wf_soak.sock");
  std::string store_dir = TempPath("wf_soak_store");
  std::filesystem::remove(socket_path);
  std::filesystem::remove_all(store_dir);

  WfdOptions options;
  options.socket_path = socket_path;
  options.manager.store_dir = store_dir;
  options.manager.max_running = 3;
  options.poll_ms = 5;
  options.idle_timeout_ms = 2000;
  WfdServer server(options);
  ASSERT_TRUE(server.Start()) << server.error();
  std::thread serve([&server] { server.Serve(); });

  const size_t cycles = SoakCycles();
  std::vector<std::string> ids;
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    ServiceCallResult submitted =
        SubmitJob(socket_path, SoakJob(cycle), /*warm_start=*/cycle % 2 == 0);
    ASSERT_TRUE(submitted.ok) << "cycle " << cycle << ": " << submitted.error;
    ASSERT_FALSE(submitted.response.id.empty());
    ids.push_back(submitted.response.id);

    HarassDaemon(socket_path, ids[cycle / 2]);

    // Lifecycle churn on an earlier session: pause, peek, resume. These may
    // legitimately no-op (the session can already be done) but must never
    // kill the connection or the daemon.
    const std::string& victim = ids[cycle / 2];
    ServiceRequest pause;
    pause.command = "pause";
    pause.id = victim;
    (void)CallService(socket_path, pause);
    ServiceCallResult fleet = QueryStatus(socket_path);
    ASSERT_TRUE(fleet.ok) << "cycle " << cycle << ": " << fleet.error;
    ASSERT_EQ(fleet.response.sessions.size(), ids.size());
    ServiceRequest resume;
    resume.command = "resume";
    resume.id = victim;
    (void)CallService(socket_path, resume);
  }

  // Every submitted session drains to done despite the churn.
  for (const std::string& id : ids) {
    ASSERT_TRUE(server.manager().WaitDone(id, 120000)) << id;
  }
  ServiceCallResult final_status = QueryStatus(socket_path);
  ASSERT_TRUE(final_status.ok) << final_status.error;
  ASSERT_EQ(final_status.response.sessions.size(), cycles);
  size_t injected = 0;
  for (const SessionStatus& session : final_status.response.sessions) {
    EXPECT_EQ(session.state, "done") << session.id << ": " << session.error;
    EXPECT_EQ(session.trials, 12u) << session.id;
    injected += session.build_failed + session.boot_failed + session.run_crashed +
                session.timeouts + session.retries;
  }
  // The 10% mixed-fault plan actually bit somewhere in the fleet, and the
  // taxonomy made it over the wire.
  EXPECT_GT(injected, 0u);

  ServiceCallResult stop = StopDaemon(socket_path);
  EXPECT_TRUE(stop.ok) << stop.error;
  serve.join();
  std::filesystem::remove_all(store_dir);
}

}  // namespace
}  // namespace wayfinder
