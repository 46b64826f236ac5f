#include "src/service/client.h"

#include <chrono>
#include <thread>

#include "src/service/binary_codec.h"

namespace wayfinder {

bool ServiceConnection::Connect(const std::string& socket_path, bool /*binary*/,
                                std::string* error) {
  conn_ = ConnectUnix(socket_path);
  if (!conn_.ok()) {
    *error = "cannot connect to " + socket_path + " (is wfd running?)";
    return false;
  }
  return true;
}

ServiceCallResult ServiceConnection::Call(const ServiceRequest& request,
                                          const std::string& job_text) {
  ServiceCallResult result;
  if (!conn_.ok()) {
    result.error = "not connected";
    result.transport_error = true;
    return result;
  }
  if (!WriteFrame(conn_.fd(), EncodeRequestBinary(request))) {
    result.error = "connection lost while sending request";
    result.transport_error = true;
    return result;
  }
  if (request.command == "submit" && !WriteFrame(conn_.fd(), job_text)) {
    result.error = "connection lost while sending job file";
    result.transport_error = true;
    return result;
  }
  std::string text;
  FrameStatus frame = ReadFrame(conn_.fd(), &text);
  if (frame != FrameStatus::kOk) {
    result.error = std::string("no response from daemon (") + FrameStatusName(frame) + ")";
    result.transport_error = true;
    return result;
  }
  if (!DecodeResponseBinary(text, &result.response, &result.error)) {
    return result;
  }
  if (result.response.has_payload) {
    frame = ReadFrame(conn_.fd(), &result.payload);
    if (frame != FrameStatus::kOk) {
      result.error = std::string("payload frame lost (") + FrameStatusName(frame) + ")";
      result.transport_error = true;
      return result;
    }
  }
  result.ok = result.response.ok;
  if (!result.ok && result.error.empty()) {
    result.error = result.response.error;
  }
  return result;
}

bool ServiceConnection::ReadResponse(ServiceResponse* response, std::string* error) {
  if (!conn_.ok()) {
    *error = "not connected";
    return false;
  }
  std::string text;
  FrameStatus frame = ReadFrame(conn_.fd(), &text);
  if (frame != FrameStatus::kOk) {
    *error = std::string("push stream ended (") + FrameStatusName(frame) + ")";
    return false;
  }
  return DecodeResponseBinary(text, response, error);
}

ServiceCallResult CallService(const std::string& socket_path, const ServiceRequest& request,
                              const std::string& job_text) {
  ServiceConnection conn;
  ServiceCallResult result;
  if (!conn.Connect(socket_path, true, &result.error)) {
    result.transport_error = true;  // The daemon never saw anything.
    return result;
  }
  return conn.Call(request, job_text);
}

int BackoffDelayMs(const ReconnectPolicy& policy, int attempt, uint64_t* state) {
  int64_t delay = policy.base_delay_ms;
  for (int i = 1; i < attempt && delay < policy.max_delay_ms; ++i) {
    delay *= 2;
  }
  if (delay > policy.max_delay_ms) {
    delay = policy.max_delay_ms;
  }
  // xorshift64* step — small, seedable, and not shared with the search
  // RNGs (a client library must never perturb session determinism).
  uint64_t x = *state == 0 ? 0x9e3779b97f4a7c15ULL : *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  uint64_t span = static_cast<uint64_t>(delay) / 2 + 1;
  return static_cast<int>(delay / 2 + static_cast<int64_t>((x * 0x2545f4914f6cdd1dULL >> 33) % span));
}

ServiceCallResult CallServiceRetry(const std::string& socket_path,
                                   const ServiceRequest& request,
                                   const ReconnectPolicy& policy,
                                   const std::string& job_text) {
  const bool retryable =
      IdempotentServiceCommand(request.command) || policy.retry_unsafe;
  uint64_t jitter = policy.seed;
  ServiceCallResult result = CallService(socket_path, request, job_text);
  for (int attempt = 1;
       attempt <= policy.attempts && retryable && !result.ok && result.transport_error;
       ++attempt) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(BackoffDelayMs(policy, attempt, &jitter)));
    result = CallService(socket_path, request, job_text);
  }
  return result;
}

ServiceCallResult SubmitJob(const std::string& socket_path, const std::string& job_text,
                            bool warm_start) {
  ServiceRequest request;
  request.command = "submit";
  request.warm_start = warm_start;
  return CallService(socket_path, request, job_text);
}

ServiceCallResult QueryStatus(const std::string& socket_path, const std::string& id) {
  ServiceRequest request;
  request.command = "status";
  request.id = id;
  return CallService(socket_path, request);
}

ServiceCallResult FetchResult(const std::string& socket_path, const std::string& id) {
  ServiceRequest request;
  request.command = "result";
  request.id = id;
  return CallService(socket_path, request);
}

ServiceCallResult StopDaemon(const std::string& socket_path) {
  ServiceRequest request;
  request.command = "stop";
  return CallService(socket_path, request);
}

}  // namespace wayfinder
