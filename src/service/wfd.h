// wfd — the Wayfinder tuning daemon: one long-lived endpoint serving many
// concurrent tuning sessions.
//
// The daemon is a TransportHandler on the epoll event loop
// (src/transport/event_loop.h): every connection gets a tiny protocol
// state machine (submit-awaiting-job, watch subscription) and requests are
// answered inline on the loop thread — the long-running work lives in the
// SessionManager's driver threads. A slow, silent, or hostile client costs
// one idle epoll registration; malformed, truncated, or oversized frames,
// frames that are not TLV requests, unknown commands, and clients vanishing
// mid-exchange are all answered or dropped without ever crashing or wedging
// the daemon (pinned by protocol/service tests, run under ASan and TSan in
// CI).
//
// Every request, response and push frame is binary TLV
// (src/service/binary_codec.h); a frame that does not decode as a request
// gets an error response and the connection closes. `watch` subscribes the
// connection to server-pushed status frames emitted as the watched session
// commits waves — no client polling.
//
// `stop` drains gracefully: the response is flushed, the loop exits, and
// Shutdown() stops every session at its next wave boundary and writes
// checkpoints; every committed trial is already in the fsync'd journal.
#ifndef WAYFINDER_SRC_SERVICE_WFD_H_
#define WAYFINDER_SRC_SERVICE_WFD_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/service/session_manager.h"
#include "src/transport/event_loop.h"

namespace wayfinder {

struct WfdOptions {
  std::string socket_path;
  SessionManagerOptions manager;
  // Replay the session journal (<manager.store_dir>/journal.wfj) before
  // serving, re-creating the fleet a crash interrupted. Default on; `wfd
  // --no-recover` starts fresh: a journal holding any record is atomically
  // replaced by an empty one before serving, so a later recovering daemon
  // never mixes the old run's sessions with the new run's, and warm starts
  // no longer see the old run's trials.
  bool recover = true;
  // Event-loop tick: idle-sweep cadence and how quickly an external Stop()
  // takes effect at the latest.
  int poll_ms = 50;
  // Longest a connected client may sit silent before its connection is
  // swept (watch subscribers are exempt — silence is their steady state).
  int idle_timeout_ms = 10000;
  // Turn metrics/trace recording on at startup (`wfd --metrics` / `wfctl
  // serve --metrics`). Off by default: a metrics-off daemon's trajectories,
  // checkpoints, and wire frames are byte-identical to the pre-obs daemon
  // (pinned by service_test). The `metrics`/`trace` commands answer either
  // way — recording off just means counters sit at zero and traces are
  // empty.
  bool metrics = false;
};

class WfdServer : private TransportHandler {
 public:
  explicit WfdServer(const WfdOptions& options);

  // Binds the socket; false with error() set on failure.
  bool Start();

  // Event loop; returns after `stop` (or Stop()) once the manager has
  // drained. Call from the thread that owns the daemon's lifetime.
  void Serve();

  // Signals Serve() to exit from another thread. Async-signal-safe (one
  // eventfd write) — the foreground SIGINT/SIGTERM handlers call this.
  void Stop() { transport_.Stop(); }

  const std::string& error() const { return error_; }
  SessionManager& manager() { return manager_; }

 private:
  // Per-connection protocol state, keyed by transport connection id.
  struct ProtoConn {
    bool awaiting_job = false;     // submit seen; next frame is the job.
    ServiceRequest pending_submit;
    uint64_t watch_token = 0;      // SessionManager subscription (0 = none).
  };

  // TransportHandler (loop thread).
  void OnOpen(uint64_t conn) override;
  void OnFrame(uint64_t conn, std::string payload) override;
  void OnOversized(uint64_t conn) override;
  void OnClose(uint64_t conn) override;

  void HandleRequest(uint64_t conn, ProtoConn* state, const std::string& text);
  // Journal-health advisory (ServiceResponse::note) stamped onto ping and
  // submit acks: a daemon running with a degraded journal keeps serving but
  // every client hears why resumability is gone.
  void StampHealthNote(ServiceResponse* response);
  // Fleet status (`status` with no id) is the hot dashboard path: the reply
  // only changes when the manager's status version moves, so the encoded
  // wire bytes are cached and re-snapshotted only on a version change.
  // Loop-thread-only, like all connection handling.
  void SendFleetStatus(uint64_t conn);
  // `since_version`: a reconnecting watcher hands back the last status
  // version it saw; a baseline at or below it is suppressed from the ack so
  // the client does not re-render a stale snapshot it already printed.
  void StartWatch(uint64_t conn, ProtoConn* state, const std::string& id,
                  uint64_t since_version, ServiceResponse* response);
  // Loop thread, via Post from a driver-thread observer.
  void PushStatus(uint64_t conn, const SessionStatus& status);
  bool SendResponse(uint64_t conn, const ServiceResponse& response);

  WfdOptions options_;
  SessionManager manager_;
  TransportServer transport_;
  std::map<uint64_t, ProtoConn> conns_;  // Loop-thread-only.
  struct StatusCache {
    uint64_t version = 0;
    bool valid = false;
    std::string wire;
  };
  StatusCache fleet_cache_;
  std::string error_;
};

// Runs the daemon in the foreground — bind, SIGINT/SIGTERM graceful-drain
// wiring, SIGPIPE ignore, banner, serve loop, drain message — returning
// the process exit code. The ONE bootstrap both the `wfd` binary and
// `wfctl serve` call, so the two cannot drift apart.
int RunWfdForeground(const WfdOptions& options);

// Parses the daemon's flags (--socket, --store, --checkpoint-dir,
// --max-sessions, --idle-timeout-ms, --no-recover, --metrics) in argv[0,
// argc) into `options`: the ONE parser both `wfd` and `wfctl serve` call.
// False, with `error` set, on an unknown argument, a flag missing its value,
// 0 sessions or a non-positive idle timeout.
bool ParseWfdFlags(int argc, char** argv, WfdOptions* options, std::string* error);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SERVICE_WFD_H_
