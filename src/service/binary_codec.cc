#include "src/service/binary_codec.h"

#include <cstring>

namespace wayfinder {

namespace {

// Message kinds.
constexpr unsigned char kKindRequest = 0x01;
constexpr unsigned char kKindResponse = 0x02;

// Request tags.
constexpr unsigned char kReqCommand = 1;
constexpr unsigned char kReqId = 2;
constexpr unsigned char kReqWarmStart = 3;
constexpr unsigned char kReqSinceVersion = 4;

// Response tags.
constexpr unsigned char kRespOk = 1;
constexpr unsigned char kRespError = 2;
constexpr unsigned char kRespId = 3;
constexpr unsigned char kRespState = 4;
constexpr unsigned char kRespPayload = 5;
constexpr unsigned char kRespSession = 6;
constexpr unsigned char kRespNote = 7;

// Session tags (inside a kRespSession nested block).
constexpr unsigned char kSessId = 1;
constexpr unsigned char kSessName = 2;
constexpr unsigned char kSessAlgorithm = 3;
constexpr unsigned char kSessState = 4;
constexpr unsigned char kSessTrials = 5;
constexpr unsigned char kSessIterations = 6;
constexpr unsigned char kSessBest = 7;
constexpr unsigned char kSessSimSeconds = 8;
constexpr unsigned char kSessWarmStarted = 9;
constexpr unsigned char kSessStoreKey = 10;
constexpr unsigned char kSessError = 11;
// Failure taxonomy + robustness counters (absent-on-wire when zero).
constexpr unsigned char kSessBuildFailed = 12;
constexpr unsigned char kSessBootFailed = 13;
constexpr unsigned char kSessRunCrashed = 14;
constexpr unsigned char kSessTimeouts = 15;
constexpr unsigned char kSessRetries = 16;
constexpr unsigned char kSessDriftEvents = 17;
// Crash-recovery fields (PR 8), absent-on-wire when unset like the taxonomy.
constexpr unsigned char kSessRecovered = 18;
constexpr unsigned char kSessVersion = 19;
// Observability gauges (src/obs/), absent-on-wire when zero — metrics-off
// daemons encode byte-identically to the pre-obs protocol.
constexpr unsigned char kSessMemoryBytes = 20;
constexpr unsigned char kSessWaveP50Ms = 21;
constexpr unsigned char kSessWaveP99Ms = 22;
constexpr unsigned char kSessTrialsPerSec = 23;

void PutU32(std::string* out, uint32_t value) {
  char bytes[4] = {static_cast<char>(value >> 24), static_cast<char>(value >> 16),
                   static_cast<char>(value >> 8), static_cast<char>(value)};
  out->append(bytes, 4);
}

void PutField(std::string* out, unsigned char tag, const char* data, size_t n) {
  out->push_back(static_cast<char>(tag));
  PutU32(out, static_cast<uint32_t>(n));
  out->append(data, n);
}

void PutString(std::string* out, unsigned char tag, const std::string& value) {
  PutField(out, tag, value.data(), value.size());
}

void PutU64(std::string* out, unsigned char tag, uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(value >> (56 - 8 * i));
  }
  PutField(out, tag, bytes, 8);
}

void PutBool(std::string* out, unsigned char tag, bool value) {
  char byte = value ? 1 : 0;
  PutField(out, tag, &byte, 1);
}

void PutDouble(std::string* out, unsigned char tag, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "f64 rides as u64 bits");
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(out, tag, bits);
}

// Bounds-checked cursor over an untrusted buffer. Every Read* returns false
// instead of ever looking past `n` — the fuzz tests hammer this.
struct Reader {
  const unsigned char* p;
  size_t n;
  size_t pos = 0;

  bool done() const { return pos >= n; }

  bool ReadU8(unsigned char* out) {
    if (n - pos < 1) {
      return false;
    }
    *out = p[pos++];
    return true;
  }

  bool ReadU32(uint32_t* out) {
    if (n - pos < 4) {
      return false;
    }
    *out = (static_cast<uint32_t>(p[pos]) << 24) |
           (static_cast<uint32_t>(p[pos + 1]) << 16) |
           (static_cast<uint32_t>(p[pos + 2]) << 8) |
           static_cast<uint32_t>(p[pos + 3]);
    pos += 4;
    return true;
  }

  bool Skip(size_t count, const unsigned char** start) {
    if (n - pos < count) {
      return false;
    }
    *start = p + pos;
    pos += count;
    return true;
  }
};

bool TakeString(const unsigned char* data, size_t n, std::string* out) {
  out->assign(reinterpret_cast<const char*>(data), n);
  return true;
}

bool TakeU64(const unsigned char* data, size_t n, uint64_t* out) {
  if (n != 8) {
    return false;
  }
  *out = 0;
  for (int i = 0; i < 8; ++i) {
    *out = (*out << 8) | data[i];
  }
  return true;
}

bool TakeBool(const unsigned char* data, size_t n, bool* out) {
  if (n != 1 || data[0] > 1) {
    return false;
  }
  *out = data[0] == 1;
  return true;
}

bool TakeDouble(const unsigned char* data, size_t n, double* out) {
  uint64_t bits = 0;
  if (!TakeU64(data, n, &bits)) {
    return false;
  }
  std::memcpy(out, &bits, sizeof(*out));
  return true;
}

void EncodeStatusBinary(std::string* out, const SessionStatus& status) {
  // Optional fields ride only when set, so clean, never-recovered,
  // metrics-off sessions encode exactly as the first protocol did.
  std::string block;
  PutString(&block, kSessId, status.id);
  PutString(&block, kSessName, status.name);
  PutString(&block, kSessAlgorithm, status.algorithm);
  PutString(&block, kSessState, status.state);
  PutU64(&block, kSessTrials, status.trials);
  PutU64(&block, kSessIterations, status.iterations);
  if (status.has_best) {
    PutDouble(&block, kSessBest, status.best);
  }
  PutDouble(&block, kSessSimSeconds, status.sim_seconds);
  PutU64(&block, kSessWarmStarted, status.warm_started);
  if (status.build_failed > 0) {
    PutU64(&block, kSessBuildFailed, status.build_failed);
  }
  if (status.boot_failed > 0) {
    PutU64(&block, kSessBootFailed, status.boot_failed);
  }
  if (status.run_crashed > 0) {
    PutU64(&block, kSessRunCrashed, status.run_crashed);
  }
  if (status.timeouts > 0) {
    PutU64(&block, kSessTimeouts, status.timeouts);
  }
  if (status.retries > 0) {
    PutU64(&block, kSessRetries, status.retries);
  }
  if (status.drift_events > 0) {
    PutU64(&block, kSessDriftEvents, status.drift_events);
  }
  if (status.recovered) {
    PutBool(&block, kSessRecovered, true);
  }
  if (status.version > 0) {
    PutU64(&block, kSessVersion, status.version);
  }
  if (status.memory_bytes > 0) {
    PutU64(&block, kSessMemoryBytes, status.memory_bytes);
  }
  if (status.wave_p50_ms > 0.0) {
    PutDouble(&block, kSessWaveP50Ms, status.wave_p50_ms);
  }
  if (status.wave_p99_ms > 0.0) {
    PutDouble(&block, kSessWaveP99Ms, status.wave_p99_ms);
  }
  if (status.trials_per_sec > 0.0) {
    PutDouble(&block, kSessTrialsPerSec, status.trials_per_sec);
  }
  if (!status.store_key.empty()) {
    PutString(&block, kSessStoreKey, status.store_key);
  }
  if (!status.error.empty()) {
    PutString(&block, kSessError, status.error);
  }
  PutString(out, kRespSession, block);
}

bool DecodeStatusBinary(const unsigned char* data, size_t n,
                        SessionStatus* status, std::string* error) {
  Reader reader{data, n};
  uint64_t u64 = 0;
  while (!reader.done()) {
    unsigned char tag = 0;
    uint32_t len = 0;
    const unsigned char* value = nullptr;
    if (!reader.ReadU8(&tag) || !reader.ReadU32(&len) ||
        !reader.Skip(len, &value)) {
      *error = "truncated session field";
      return false;
    }
    bool ok = true;
    switch (tag) {
      case kSessId:
        ok = TakeString(value, len, &status->id);
        break;
      case kSessName:
        ok = TakeString(value, len, &status->name);
        break;
      case kSessAlgorithm:
        ok = TakeString(value, len, &status->algorithm);
        break;
      case kSessState:
        ok = TakeString(value, len, &status->state);
        break;
      case kSessTrials:
        ok = TakeU64(value, len, &u64);
        status->trials = static_cast<size_t>(u64);
        break;
      case kSessIterations:
        ok = TakeU64(value, len, &u64);
        status->iterations = static_cast<size_t>(u64);
        break;
      case kSessBest:
        ok = TakeDouble(value, len, &status->best);
        status->has_best = ok;
        break;
      case kSessSimSeconds:
        ok = TakeDouble(value, len, &status->sim_seconds);
        break;
      case kSessWarmStarted:
        ok = TakeU64(value, len, &u64);
        status->warm_started = static_cast<size_t>(u64);
        break;
      case kSessBuildFailed:
        ok = TakeU64(value, len, &u64);
        status->build_failed = static_cast<size_t>(u64);
        break;
      case kSessBootFailed:
        ok = TakeU64(value, len, &u64);
        status->boot_failed = static_cast<size_t>(u64);
        break;
      case kSessRunCrashed:
        ok = TakeU64(value, len, &u64);
        status->run_crashed = static_cast<size_t>(u64);
        break;
      case kSessTimeouts:
        ok = TakeU64(value, len, &u64);
        status->timeouts = static_cast<size_t>(u64);
        break;
      case kSessRetries:
        ok = TakeU64(value, len, &u64);
        status->retries = static_cast<size_t>(u64);
        break;
      case kSessDriftEvents:
        ok = TakeU64(value, len, &u64);
        status->drift_events = static_cast<size_t>(u64);
        break;
      case kSessRecovered:
        ok = TakeBool(value, len, &status->recovered);
        break;
      case kSessVersion:
        ok = TakeU64(value, len, &u64);
        status->version = u64;
        break;
      case kSessMemoryBytes:
        ok = TakeU64(value, len, &u64);
        status->memory_bytes = static_cast<size_t>(u64);
        break;
      case kSessWaveP50Ms:
        ok = TakeDouble(value, len, &status->wave_p50_ms);
        break;
      case kSessWaveP99Ms:
        ok = TakeDouble(value, len, &status->wave_p99_ms);
        break;
      case kSessTrialsPerSec:
        ok = TakeDouble(value, len, &status->trials_per_sec);
        break;
      case kSessStoreKey:
        ok = TakeString(value, len, &status->store_key);
        break;
      case kSessError:
        ok = TakeString(value, len, &status->error);
        break;
      default:
        break;  // Unknown tag: skip (forward compatibility).
    }
    if (!ok) {
      *error = "malformed session field";
      return false;
    }
  }
  return true;
}

}  // namespace

std::string EncodeRequestBinary(const ServiceRequest& request) {
  std::string out;
  out.push_back(static_cast<char>(kKindRequest));
  PutString(&out, kReqCommand, request.command);
  if (!request.id.empty()) {
    PutString(&out, kReqId, request.id);
  }
  if (!request.warm_start) {
    PutBool(&out, kReqWarmStart, false);
  }
  if (request.since_version > 0) {
    PutU64(&out, kReqSinceVersion, request.since_version);
  }
  return out;
}

bool DecodeRequestBinary(const std::string& data, ServiceRequest* request,
                         std::string* error) {
  *request = ServiceRequest();
  Reader reader{reinterpret_cast<const unsigned char*>(data.data()),
                data.size()};
  unsigned char kind = 0;
  if (!reader.ReadU8(&kind) || kind != kKindRequest) {
    *error = "not a binary request";
    return false;
  }
  while (!reader.done()) {
    unsigned char tag = 0;
    uint32_t len = 0;
    const unsigned char* value = nullptr;
    if (!reader.ReadU8(&tag) || !reader.ReadU32(&len) ||
        !reader.Skip(len, &value)) {
      *error = "truncated request field";
      return false;
    }
    bool ok = true;
    switch (tag) {
      case kReqCommand:
        ok = TakeString(value, len, &request->command);
        break;
      case kReqId:
        ok = TakeString(value, len, &request->id);
        break;
      case kReqWarmStart:
        ok = TakeBool(value, len, &request->warm_start);
        break;
      case kReqSinceVersion: {
        uint64_t u64 = 0;
        ok = TakeU64(value, len, &u64);
        request->since_version = u64;
        break;
      }
      default:
        break;
    }
    if (!ok) {
      *error = "malformed request field";
      return false;
    }
  }
  return ValidateRequest(*request, error);
}

std::string EncodeResponseBinary(const ServiceResponse& response) {
  std::string out;
  out.push_back(static_cast<char>(kKindResponse));
  PutBool(&out, kRespOk, response.ok);
  if (!response.error.empty()) {
    PutString(&out, kRespError, response.error);
  }
  if (!response.id.empty()) {
    PutString(&out, kRespId, response.id);
  }
  if (!response.state.empty()) {
    PutString(&out, kRespState, response.state);
  }
  if (!response.note.empty()) {
    PutString(&out, kRespNote, response.note);
  }
  if (response.has_payload) {
    PutBool(&out, kRespPayload, true);
  }
  for (const SessionStatus& status : response.sessions) {
    EncodeStatusBinary(&out, status);
  }
  return out;
}

bool DecodeResponseBinary(const std::string& data, ServiceResponse* response,
                          std::string* error) {
  *response = ServiceResponse();
  Reader reader{reinterpret_cast<const unsigned char*>(data.data()),
                data.size()};
  unsigned char kind = 0;
  if (!reader.ReadU8(&kind) || kind != kKindResponse) {
    *error = "not a binary response";
    return false;
  }
  bool saw_ok = false;
  while (!reader.done()) {
    unsigned char tag = 0;
    uint32_t len = 0;
    const unsigned char* value = nullptr;
    if (!reader.ReadU8(&tag) || !reader.ReadU32(&len) ||
        !reader.Skip(len, &value)) {
      *error = "truncated response field";
      return false;
    }
    bool ok = true;
    switch (tag) {
      case kRespOk:
        ok = TakeBool(value, len, &response->ok);
        saw_ok = ok;
        break;
      case kRespError:
        ok = TakeString(value, len, &response->error);
        break;
      case kRespId:
        ok = TakeString(value, len, &response->id);
        break;
      case kRespState:
        ok = TakeString(value, len, &response->state);
        break;
      case kRespNote:
        ok = TakeString(value, len, &response->note);
        break;
      case kRespPayload:
        ok = TakeBool(value, len, &response->has_payload);
        break;
      case kRespSession: {
        SessionStatus status;
        ok = DecodeStatusBinary(value, len, &status, error);
        if (ok) {
          response->sessions.push_back(std::move(status));
        } else {
          return false;  // *error already set.
        }
        break;
      }
      default:
        break;
    }
    if (!ok) {
      *error = "malformed response field";
      return false;
    }
  }
  if (!saw_ok) {
    *error = "response has no status";
    return false;
  }
  return true;
}

}  // namespace wayfinder
