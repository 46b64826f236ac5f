#include "src/service/wfd.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "src/obs/metrics.h"
#include "src/service/binary_codec.h"
#include "src/util/log.h"

namespace wayfinder {

namespace {

WfdServer* g_foreground_server = nullptr;

void HandleDrainSignal(int) {
  if (g_foreground_server != nullptr) {
    g_foreground_server->Stop();  // One eventfd write; async-signal-safe.
  }
}

// Push backpressure: a watcher that stops draining its socket gets
// non-terminal pushes skipped past this much queued tx, and is closed
// outright once the queue hits the frame cap (it is not reading at all).
constexpr size_t kPushSkipTxBytes = 256 * 1024;
constexpr size_t kPushCloseTxBytes = kMaxFrameBytes;

bool TerminalState(const std::string& state) {
  return state == "done" || state == "failed" || state == "stopped";
}

}  // namespace

int RunWfdForeground(const WfdOptions& options) {
  WfdServer server(options);
  if (!server.Start()) {
    std::fprintf(stderr, "wfd: %s\n", server.error().c_str());
    return 1;
  }
  g_foreground_server = &server;
  std::signal(SIGINT, HandleDrainSignal);
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGPIPE, SIG_IGN);
  if (!options.recover) {
    server.manager().DiscardJournal();  // A no-op without a journal.
  } else if (!options.manager.store_dir.empty()) {
    std::string summary;
    if (server.manager().Recover(&summary)) {
      std::printf("wfd recovery: %s\n", summary.c_str());
    } else {
      // A journal we cannot even read is not fatal: the daemon serves new
      // work and the reason is queryable (ping note / JournalHealthy).
      std::fprintf(stderr, "wfd recovery failed: %s\n", summary.c_str());
    }
  }
  std::printf("wfd serving on %s (store: %s, max sessions: %zu)\n",
              options.socket_path.c_str(),
              options.manager.store_dir.empty() ? "(none)"
                                                : options.manager.store_dir.c_str(),
              options.manager.max_running);
  server.Serve();
  g_foreground_server = nullptr;
  std::printf("wfd drained and stopped\n");
  return 0;
}

bool ParseWfdFlags(int argc, char** argv, WfdOptions* options, std::string* error) {
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = nullptr;
    auto take = [&] { return (value = i + 1 < argc ? argv[++i] : nullptr) != nullptr; };
    bool rejected = false;
    if (flag == "--socket" && take()) {
      options->socket_path = value;
    } else if (flag == "--store" && take()) {
      options->manager.store_dir = value;
    } else if (flag == "--checkpoint-dir" && take()) {
      options->manager.checkpoint_dir = value;
    } else if (flag == "--max-sessions" && take()) {
      options->manager.max_running = std::strtoul(value, nullptr, 10);
      rejected = options->manager.max_running == 0;
    } else if (flag == "--idle-timeout-ms" && take()) {
      options->idle_timeout_ms = static_cast<int>(std::strtol(value, nullptr, 10));
      rejected = options->idle_timeout_ms <= 0;
    } else if (flag == "--no-recover") {
      options->recover = false;
    } else if (flag == "--metrics") {
      options->metrics = true;
    } else {
      *error = "unknown argument or flag without a value: " + flag;
      return false;
    }
    if (rejected) {
      *error = flag + " needs a positive count";
      return false;
    }
  }
  return true;
}

WfdServer::WfdServer(const WfdOptions& options)
    : options_(options), manager_(options.manager) {
  // Enable-only: a server built without --metrics must not switch off
  // recording a test (or an embedding process) turned on globally.
  if (options.metrics) {
    obs::SetEnabled(true);
  }
}

bool WfdServer::Start() {
  TransportOptions transport;
  transport.socket_path = options_.socket_path;
  transport.idle_timeout_ms = options_.idle_timeout_ms;
  transport.tick_ms = options_.poll_ms;
  if (!transport_.Start(transport, this)) {
    error_ = transport_.error();
    return false;
  }
  return true;
}

void WfdServer::Serve() {
  transport_.Run();
  manager_.Shutdown();
}

void WfdServer::OnOpen(uint64_t conn) { conns_[conn]; }

void WfdServer::OnClose(uint64_t conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  if (it->second.watch_token != 0) {
    // A watcher vanishing mid-push must not leak its subscription (or its
    // pending submit — both die with the state entry).
    manager_.Unsubscribe(it->second.watch_token);
  }
  conns_.erase(it);
}

void WfdServer::OnOversized(uint64_t conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  // Courtesy error before the transport drains and drops the connection —
  // the byte stream past a bogus header cannot be re-framed.
  ServiceResponse response;
  response.error = it->second.awaiting_job ? "job file exceeds protocol limit"
                                           : "frame exceeds protocol limit";
  SendResponse(conn, response);
  WF_LOG(Info) << "wfd: dropping connection (oversized)";
}

bool WfdServer::SendResponse(uint64_t conn, const ServiceResponse& response) {
  return transport_.Send(conn, EncodeResponseBinary(response));
}

void WfdServer::OnFrame(uint64_t conn, std::string payload) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  ProtoConn* state = &it->second;

  if (state->awaiting_job) {
    // The job file rides verbatim in this frame.
    state->awaiting_job = false;
    ServiceResponse response;
    std::string id;
    std::string error;
    if (manager_.Submit(payload, state->pending_submit.warm_start, &id, &error)) {
      response.ok = true;
      response.id = id;
      // The submission is accepted either way, but a degraded journal means
      // it will not survive a crash — the submitter deserves to know.
      StampHealthNote(&response);
    } else {
      response.error = error;
    }
    state->pending_submit = ServiceRequest();
    SendResponse(conn, response);
    return;
  }

  HandleRequest(conn, state, payload);
}

void WfdServer::HandleRequest(uint64_t conn, ProtoConn* state,
                              const std::string& text) {
  ServiceRequest request;
  ServiceResponse response;
  std::string error;
  if (!DecodeRequestBinary(text, &request, &error)) {
    response.error = error;
    SendResponse(conn, response);
    transport_.CloseSoon(conn);  // Don't trust the rest of the stream.
    return;
  }

  std::string payload;  // result/metrics/trace: sent as a second frame.
  if (request.command == "ping") {
    response.ok = true;
    response.state = "alive";
    StampHealthNote(&response);
  } else if (request.command == "submit") {
    // The job file rides in one follow-up frame, verbatim. Until it
    // arrives nothing is created — a client vanishing here is a no-op.
    state->awaiting_job = true;
    state->pending_submit = request;
    return;
  } else if (request.command == "status") {
    if (request.id.empty()) {
      SendFleetStatus(conn);
      return;
    }
    SessionStatus status;
    if (manager_.Status(request.id, &status)) {
      response.ok = true;
      response.sessions.push_back(status);
    } else {
      response.error = "unknown session: " + request.id;
    }
  } else if (request.command == "watch") {
    StartWatch(conn, state, request.id, request.since_version, &response);
  } else if (request.command == "result") {
    if (manager_.Result(request.id, &payload, &error)) {
      response.ok = true;
      response.has_payload = true;
    } else {
      response.error = error;
    }
  } else if (request.command == "pause") {
    response.ok = manager_.Pause(request.id);
    if (response.ok) {
      response.state = "pausing";
    } else {
      response.error = "cannot pause session: " + request.id;
    }
  } else if (request.command == "resume") {
    response.ok = manager_.Resume(request.id);
    if (response.ok) {
      response.state = "running";
    } else {
      response.error = "cannot resume session: " + request.id;
    }
  } else if (request.command == "metrics") {
    // Registry dump as a payload frame, exactly like `result`'s checkpoint
    // text. Journal health is refreshed at render time so the degraded
    // gauge and its reason stay truthful even while recording is off
    // (Force bypasses the recording gate).
    std::string reason;
    bool healthy = manager_.JournalHealthy(&reason);
    obs::Registry::Instance()
        .GetGauge("service.journal_degraded")
        .Force(healthy ? 0 : 1);
    obs::Registry::Instance().SetInfo("service.journal_degraded_reason",
                                      healthy ? "" : reason);
    payload = obs::Registry::Instance().RenderText();
    response.ok = true;
    response.has_payload = true;
  } else if (request.command == "trace") {
    if (manager_.TraceJson(request.id, &payload, &error)) {
      response.ok = true;
      response.has_payload = true;
    } else {
      response.error = error;
    }
  } else if (request.command == "stop") {
    response.ok = true;
    response.state = "draining";
  }

  if (response.has_payload && payload.size() > kMaxFrameBytes) {
    // The transport refuses a frame past the cap; refusing here answers at
    // once instead of leaving the client waiting for a frame never sent.
    response = ServiceResponse();
    response.error = request.command + " payload of " + std::to_string(payload.size()) +
                     " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                     "-byte frame limit";
  }
  if (!SendResponse(conn, response)) {
    return;  // Peer vanished; per-session state is unaffected.
  }
  if (response.has_payload) {
    transport_.Send(conn, payload);
  }
  if (request.command == "stop") {
    // The loop's shutdown drain flushes the acknowledgement before close.
    transport_.Stop();
  }
}

void WfdServer::SendFleetStatus(uint64_t conn) {
  StatusCache& cache = fleet_cache_;
  // Version is read BEFORE the snapshot: the cached bytes may then be
  // fresher than their stamp (costing one spurious rebuild later) but can
  // never be staler — a reply always reflects the mirror at or after the
  // stamped version.
  uint64_t version = manager_.StatusVersion();
  if (!cache.valid || cache.version != version) {
    ServiceResponse response;
    response.ok = true;
    response.sessions = manager_.List();
    cache.wire = EncodeResponseBinary(response);
    cache.version = version;
    cache.valid = true;
  }
  transport_.Send(conn, cache.wire);
}

void WfdServer::StampHealthNote(ServiceResponse* response) {
  std::string reason;
  if (!manager_.JournalHealthy(&reason)) {
    response->note = "journal degraded: " + reason;
  }
}

void WfdServer::StartWatch(uint64_t conn, ProtoConn* state,
                           const std::string& id, uint64_t since_version,
                           ServiceResponse* response) {
  if (state->watch_token != 0) {
    response->error = "connection is already watching";
    return;
  }
  SessionStatus initial;
  // The observer runs on a DRIVER thread holding the manager lock: it must
  // only enqueue onto the transport loop, never touch connection state or
  // call back into the manager (Post is a queue append + eventfd write).
  uint64_t token = manager_.Subscribe(
      id,
      [this, conn](const SessionStatus& status) {
        transport_.Post([this, conn, status] { PushStatus(conn, status); });
      },
      &initial);
  if (token == 0) {
    response->error = "unknown session: " + id;
    return;
  }
  state->watch_token = token;
  // Watchers legitimately sit silent between pushes.
  transport_.SetIdleExempt(conn, true);
  response->ok = true;
  response->state = "watching";
  // Baseline snapshot rides in the ack, taken under the same lock that
  // registered the observer — no wave can fall between them. A reconnecting
  // watcher that already saw this version (it hands back `since_version`)
  // skips the redundant baseline; anything newer still pushes normally.
  if (since_version == 0 || initial.version > since_version) {
    response->sessions.push_back(initial);
  }
}

void WfdServer::PushStatus(uint64_t conn, const SessionStatus& status) {
  auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.watch_token == 0) {
    return;  // Watcher disconnected before the post drained.
  }
  size_t queued = transport_.TxBytes(conn);
  if (queued >= kPushCloseTxBytes) {
    transport_.CloseSoon(conn);  // Not reading at all.
    return;
  }
  bool terminal = TerminalState(status.state);
  if (queued >= kPushSkipTxBytes && !terminal) {
    return;  // Slow reader: drop intermediate pushes, never the last one.
  }
  ServiceResponse push;
  push.ok = true;
  push.state = "push";
  push.sessions.push_back(status);
  SendResponse(conn, push);
}

}  // namespace wayfinder
