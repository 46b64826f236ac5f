// Client side of the wfd wire protocol — shared by the wfctl subcommands
// and the service tests (so both exercise the exact bytes a real
// deployment would).
//
// ServiceConnection is a persistent connection speaking the binary TLV
// codec (src/service/binary_codec.h), the protocol's only format.
// CallService keeps the one-shot connect-per-call shape every existing
// caller uses, layered on a throwaway ServiceConnection.
#ifndef WAYFINDER_SRC_SERVICE_CLIENT_H_
#define WAYFINDER_SRC_SERVICE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/service/protocol.h"
#include "src/util/socket.h"

namespace wayfinder {

struct ServiceCallResult {
  bool ok = false;           // Transport + protocol + daemon all said yes.
  std::string error;         // Transport/decode failure or the daemon's error.
  // The failure was connect/send/receive-level, not a daemon "no": the
  // daemon may never have seen the request (or its answer was lost) — the
  // class of failure a reconnect policy is allowed to retry.
  bool transport_error = false;
  ServiceResponse response;  // Decoded header (valid when the decode worked).
  std::string payload;       // The extra frame of an ok `result`.
};

// Client-side resilience: how many times to re-dial a daemon that dropped
// the connection (a restarting wfd), with exponential backoff + jitter
// between attempts. Retries fire ONLY on transport failures — a daemon
// error reply is an answer, not an outage — and only for idempotent
// commands (status/result/watch/ping) unless `retry_unsafe` opts the rest
// in explicitly: a lost submit ack leaves the client unable to tell
// "never arrived" from "accepted, ack lost", and blind resubmission
// duplicates the session.
struct ReconnectPolicy {
  int attempts = 0;         // Re-dial attempts after the first try; 0 = off.
  int base_delay_ms = 50;   // First retry delay; doubles per attempt.
  int max_delay_ms = 2000;  // Backoff ceiling.
  uint64_t seed = 1;        // Jitter RNG seed (deterministic for tests).
  bool retry_unsafe = false;  // Also retry non-idempotent commands.
};

// Delay before 1-based retry `attempt`: base * 2^(attempt-1) capped at
// max, then jittered uniformly over [delay/2, delay] so a fleet of
// reconnecting clients does not stampede the reborn daemon in lockstep.
// `state` is the jitter RNG state, seeded from ReconnectPolicy::seed and
// advanced per call (xorshift; exposed for the backoff-shape test).
int BackoffDelayMs(const ReconnectPolicy& policy, int attempt, uint64_t* state);

// A persistent daemon connection.
class ServiceConnection {
 public:
  // Connects; false with *error on connection failure. `binary` is ignored:
  // TLV is the only wire codec. The parameter remains because
  // e2ebench/e2e_bench.cc still passes it.
  bool Connect(const std::string& socket_path, bool binary, std::string* error);

  // One request/response round trip (submit carries `job_text` as the
  // follow-up frame; an ok `result` reads its payload frame).
  ServiceCallResult Call(const ServiceRequest& request,
                         const std::string& job_text = "");

  // Reads ONE response frame — the receive half of a `watch` push stream.
  // False on EOF/timeout/decode failure with *error set.
  bool ReadResponse(ServiceResponse* response, std::string* error);

  bool connected() const { return conn_.ok(); }
  int fd() const { return conn_.fd(); }
  void Close() { conn_.Close(); }

 private:
  UnixConn conn_;
};

// Connects to `socket_path`, sends `request` (plus `job_text` as the
// follow-up frame when the command is submit), reads the response (plus the
// payload frame when the response announces one), disconnects.
ServiceCallResult CallService(const std::string& socket_path, const ServiceRequest& request,
                              const std::string& job_text = "");

// CallService wrapped in the reconnect policy: on a transport failure of a
// retryable command (IdempotentServiceCommand, or any command under
// `retry_unsafe`), sleeps the backoff delay and re-dials, up to
// `policy.attempts` extra tries. Non-retryable failures and daemon errors
// return immediately.
ServiceCallResult CallServiceRetry(const std::string& socket_path,
                                   const ServiceRequest& request,
                                   const ReconnectPolicy& policy,
                                   const std::string& job_text = "");

// Convenience wrappers.
ServiceCallResult SubmitJob(const std::string& socket_path, const std::string& job_text,
                            bool warm_start = true);
ServiceCallResult QueryStatus(const std::string& socket_path, const std::string& id = "");
ServiceCallResult FetchResult(const std::string& socket_path, const std::string& id);
ServiceCallResult StopDaemon(const std::string& socket_path);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SERVICE_CLIENT_H_
