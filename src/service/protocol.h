// The wfd wire protocol: the messages a client and the daemon exchange in
// length-prefixed frames over a Unix-domain socket (framing in
// src/util/socket.h). Every request, response and push frame is one binary
// TLV message (src/service/binary_codec.h); this header holds the message
// structs and the semantic rules the decoder enforces.
//
// Requests carry a command
//
//   submit | status | watch | result | pause | resume | stop | ping |
//   metrics | trace
//
// plus, where it applies, the target session id and the submit/watch
// options below.
//
// `submit` is followed by ONE extra frame carrying the job file text
// verbatim — existing `wfctl start` job YAML works unchanged, comments and
// all, because the daemon hands it straight to ParseJobText.
//
// Every response says ok or error (with a message), plus command-specific
// fields (session id, lifecycle state, a list of session statuses for
// `status`/`watch`). An ok `result` response is followed by ONE extra frame
// carrying the session's checkpoint text (src/platform/checkpoint.h), which
// `wfctl result` writes to disk for report/render/start --resume. `metrics`
// and `trace` reuse the same payload-frame pattern: the ok response
// announces a payload and ONE extra frame follows carrying the rendered
// metrics text (src/obs/metrics.h RenderText) or the session's Chrome
// trace_event JSON (src/obs/trace.h) verbatim. A payload larger than the
// frame cap (kMaxFrameBytes) is refused with an error response instead.
//
// The decoder never trusts the peer: unknown commands, malformed TLV, and
// missing fields decode into errors the daemon answers before it closes the
// connection, never crashes.
#ifndef WAYFINDER_SRC_SERVICE_PROTOCOL_H_
#define WAYFINDER_SRC_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wayfinder {

struct ServiceRequest {
  std::string command;
  std::string id;          // Target session for per-session commands.
  bool warm_start = true;  // submit: seed the searcher from prior trials.
  // watch: the last StatusVersion this client already saw. A reconnecting
  // watcher carries it so the daemon suppresses the baseline frame when
  // nothing changed since — re-subscribing after a dropped connection is
  // idempotent instead of replaying a stale snapshot. 0 (the default, and
  // the only value a fresh watch sends) keeps the baseline; the field rides
  // the wire only when non-zero, so fresh watches encode exactly as before.
  uint64_t since_version = 0;
};

// One session's externally visible state.
struct SessionStatus {
  std::string id;
  std::string name;       // Job name.
  std::string algorithm;
  std::string state;      // submitted | running | paused | done | failed
  size_t trials = 0;      // Committed so far.
  size_t iterations = 0;  // Budget.
  bool has_best = false;
  double best = 0.0;
  double sim_seconds = 0.0;
  size_t warm_started = 0;  // Prior trials observed on the store key.
  // Failure taxonomy + robustness counters. Emitted on the wire only when
  // non-zero, so clean sessions' frames are byte-identical to the
  // pre-taxonomy protocol.
  size_t build_failed = 0;
  size_t boot_failed = 0;
  size_t run_crashed = 0;
  size_t timeouts = 0;
  size_t retries = 0;       // Transient re-measurement attempts consumed.
  size_t drift_events = 0;  // Drift-detector firings.
  // True when this session was re-created by `wfd --recover` from the
  // session journal after a daemon crash/restart; emitted only when set, so
  // never-crashed fleets encode exactly as before.
  bool recovered = false;
  // The manager's StatusVersion at snapshot time — watchers persist it and
  // hand it back as `since_version` when they reconnect. Emitted only when
  // non-zero (standalone encoders that never saw a manager stay as before).
  uint64_t version = 0;
  // Observability gauges, refreshed at wave boundaries from the manager's
  // mirror when metrics recording is on (src/obs/). All stay zero — and
  // therefore absent on the wire — when recording is off, so a metrics-off
  // daemon's frames are byte-identical to the pre-obs protocol.
  size_t memory_bytes = 0;     // Searcher live-state footprint (MemoryBytes).
  double wave_p50_ms = 0.0;    // Wave wall-clock latency quantiles so far.
  double wave_p99_ms = 0.0;
  double trials_per_sec = 0.0; // Committed trials over wall time while running.
  std::string store_key;
  std::string error;
};

struct ServiceResponse {
  bool ok = false;
  std::string error;
  std::string id;       // submit: the new session's id.
  std::string state;    // stop/pause/resume acknowledgements reuse this.
  // Advisory health note on an otherwise-ok response (emitted only when
  // non-empty): `ping` and `submit` carry the daemon's degraded-journal
  // reason here, so operators learn that crash-resumability is impaired
  // without any request failing.
  std::string note;
  std::vector<SessionStatus> sessions;  // status: one entry (or the fleet).
  bool has_payload = false;  // result/metrics/trace: a payload frame follows.
};

// True for commands the protocol knows (the daemon rejects the rest).
bool KnownServiceCommand(const std::string& command);

// True for commands a client may safely re-send after a dropped connection:
// they only read state (or re-subscribe), so a retry can never double-apply.
// submit/pause/resume/stop are NOT idempotent — the client layer
// (src/service/client.h) refuses to auto-retry those without an explicit
// opt-in, because a lost *response* does not mean a lost *request*.
bool IdempotentServiceCommand(const std::string& command);

// Semantic validation of a decoded request: a known command, and an id for
// the commands that need one. DecodeRequestBinary ends with this check.
bool ValidateRequest(const ServiceRequest& request, std::string* error);

// Commands that require an `id` field.
bool CommandNeedsId(const std::string& command);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SERVICE_PROTOCOL_H_
