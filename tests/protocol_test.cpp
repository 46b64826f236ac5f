// Wire-protocol hardening tests: the framing layer (length-prefixed frames
// over Unix sockets), the binary TLV codec (every field's round trip and a
// seeded mutation property), and a live wfd daemon that survives malformed,
// truncated, and oversized frames, frames that are not TLV requests,
// unknown commands, oversized payloads, and clients vanishing mid-exchange
// without crashing or wedging. Runs under ASan, UBSan and TSan in CI.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/binary_codec.h"
#include "src/service/client.h"
#include "src/service/wfd.h"
#include "src/util/socket.h"

namespace wayfinder {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// Framing.

class FramePair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    CloseA();
    CloseB();
  }
  void CloseA() {
    if (fds_[0] >= 0) {
      ::close(fds_[0]);
      fds_[0] = -1;
    }
  }
  void CloseB() {
    if (fds_[1] >= 0) {
      ::close(fds_[1]);
      fds_[1] = -1;
    }
  }
  int a() const { return fds_[0]; }
  int b() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST_F(FramePair, RoundTripsPayloads) {
  for (const std::string payload : {std::string(""), std::string("hello"),
                                    std::string(100000, 'x')}) {
    ASSERT_TRUE(WriteFrame(a(), payload));
    std::string read_back;
    ASSERT_EQ(ReadFrame(b(), &read_back), FrameStatus::kOk);
    EXPECT_EQ(read_back, payload);
  }
}

TEST_F(FramePair, BackToBackFramesStayDelimited) {
  ASSERT_TRUE(WriteFrame(a(), "first"));
  ASSERT_TRUE(WriteFrame(a(), "second"));
  std::string payload;
  ASSERT_EQ(ReadFrame(b(), &payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "first");
  ASSERT_EQ(ReadFrame(b(), &payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "second");
}

TEST_F(FramePair, CleanEofReadsAsClosed) {
  CloseA();
  std::string payload;
  EXPECT_EQ(ReadFrame(b(), &payload), FrameStatus::kClosed);
}

TEST_F(FramePair, TruncatedHeaderReadsAsTruncated) {
  const char partial[2] = {0, 0};
  ASSERT_EQ(::send(a(), partial, sizeof(partial), 0), 2);
  CloseA();
  std::string payload;
  EXPECT_EQ(ReadFrame(b(), &payload), FrameStatus::kTruncated);
}

TEST_F(FramePair, TruncatedPayloadReadsAsTruncated) {
  // Header promises 100 bytes; only 10 arrive before the peer dies.
  const unsigned char header[4] = {0, 0, 0, 100};
  ASSERT_EQ(::send(a(), header, sizeof(header), 0), 4);
  ASSERT_EQ(::send(a(), "0123456789", 10, 0), 10);
  CloseA();
  std::string payload;
  EXPECT_EQ(ReadFrame(b(), &payload), FrameStatus::kTruncated);
}

TEST_F(FramePair, OversizedHeaderReadsAsOversized) {
  const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(a(), header, sizeof(header), 0), 4);
  std::string payload;
  EXPECT_EQ(ReadFrame(b(), &payload), FrameStatus::kOversized);
  EXPECT_TRUE(payload.empty());
}

TEST_F(FramePair, WriterRefusesOversizedPayloads) {
  std::string huge(kMaxFrameBytes + 1, 'x');
  EXPECT_FALSE(WriteFrame(a(), huge));
}

// ---------------------------------------------------------------------------
// Binary TLV codec: every field's round trip, validation, and a seeded
// mutation property over the round-trip matrix.

void ExpectSameRequest(const ServiceRequest& a, const ServiceRequest& b) {
  EXPECT_EQ(a.command, b.command);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.warm_start, b.warm_start);
  EXPECT_EQ(a.since_version, b.since_version);
}

// Every one of SessionStatus's 24 fields.
void ExpectSameStatus(const SessionStatus& a, const SessionStatus& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.has_best, b.has_best);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.warm_started, b.warm_started);
  EXPECT_EQ(a.build_failed, b.build_failed);
  EXPECT_EQ(a.boot_failed, b.boot_failed);
  EXPECT_EQ(a.run_crashed, b.run_crashed);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.drift_events, b.drift_events);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  EXPECT_EQ(a.wave_p50_ms, b.wave_p50_ms);
  EXPECT_EQ(a.wave_p99_ms, b.wave_p99_ms);
  EXPECT_EQ(a.trials_per_sec, b.trials_per_sec);
  EXPECT_EQ(a.store_key, b.store_key);
  EXPECT_EQ(a.error, b.error);
}

void ExpectSameResponse(const ServiceResponse& a, const ServiceResponse& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.note, b.note);
  EXPECT_EQ(a.has_payload, b.has_payload);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (size_t i = 0; i < a.sessions.size(); ++i) {
    ExpectSameStatus(a.sessions[i], b.sessions[i]);
  }
}

// `full`: every optional field set, with strings carrying the bytes a text
// codec would have to quote ('"', '\n', ':', '#'). Otherwise every optional
// field sits at its zero default, so it is absent from the wire.
SessionStatus MakeStatus(const char* id, bool full) {
  SessionStatus status;
  status.id = id;
  status.name = full ? "warm \"run\": #1\nline two" : "warm-run";
  status.algorithm = "deeptune";
  status.state = "running";
  status.trials = 37;
  status.iterations = 250;
  status.sim_seconds = 8871.5;
  status.warm_started = 12;
  if (full) {
    status.has_best = true;
    status.best = 1234.0625;
    status.build_failed = 2;
    status.boot_failed = 3;
    status.run_crashed = 4;
    status.timeouts = 5;
    status.retries = 6;
    status.drift_events = 7;
    status.recovered = true;
    status.version = 41;
    status.memory_bytes = 1u << 20;
    status.wave_p50_ms = 1.25;
    status.wave_p99_ms = 9.5;
    status.trials_per_sec = 40.75;
    status.store_key = "nginx-00ffaa11";
    status.error = "step failed: \"boot\" crash\n# at: wave 3";
  }
  return status;
}

std::vector<ServiceRequest> RequestMatrix() {
  std::vector<ServiceRequest> requests(7);
  requests[0].command = "ping";
  requests[1].command = "submit";
  requests[1].warm_start = false;
  requests[2].command = "status";
  requests[2].id = "s3";
  requests[3].command = "watch";
  requests[3].id = "s12";
  requests[4].command = "watch";  // A reconnecting watcher carrying its cursor.
  requests[4].id = "s12";
  requests[4].since_version = 77;
  requests[5].command = "metrics";
  requests[6].command = "trace";
  requests[6].id = "s\"7\n: #";
  return requests;
}

std::vector<ServiceResponse> ResponseMatrix() {
  std::vector<ServiceResponse> responses(6);
  responses[0].ok = true;
  responses[0].state = "alive";
  responses[1].error = "unknown session: s9";
  responses[2].ok = true;
  responses[2].has_payload = true;
  responses[3].ok = true;
  responses[3].state = "alive";  // Degraded-journal ping: advisory note rides along.
  responses[3].note = "journal degraded: append failed: \"No space\"\n#1";
  responses[4].ok = true;
  responses[4].id = "s7";
  responses[4].state = "push";
  responses[4].sessions.push_back(MakeStatus("s1", true));
  responses[4].sessions.push_back(MakeStatus("s2", false));
  responses[5].ok = true;  // A fleet of clean sessions only.
  responses[5].sessions.push_back(MakeStatus("s3", false));
  return responses;
}

TEST(ProtocolCodec, ObservabilityCommandsValidate) {
  ServiceRequest decoded;
  std::string error;
  // metrics is fleet-scoped: no id required.
  ServiceRequest metrics;
  metrics.command = "metrics";
  ASSERT_TRUE(DecodeRequestBinary(EncodeRequestBinary(metrics), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.command, "metrics");
  // trace is session-scoped: id required, carried through.
  ServiceRequest trace;
  trace.command = "trace";
  EXPECT_FALSE(DecodeRequestBinary(EncodeRequestBinary(trace), &decoded, &error));
  EXPECT_NE(error.find("requires an id"), std::string::npos);
  trace.id = "s7";
  ASSERT_TRUE(DecodeRequestBinary(EncodeRequestBinary(trace), &decoded, &error)) << error;
  EXPECT_EQ(decoded.command, "trace");
  EXPECT_EQ(decoded.id, "s7");
}

TEST(BinaryCodec, RequestRoundTrips) {
  ServiceRequest request;
  request.command = "result";
  request.id = "s42";
  request.warm_start = false;
  ServiceRequest decoded;
  std::string error;
  ASSERT_TRUE(DecodeRequestBinary(EncodeRequestBinary(request), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.command, "result");
  EXPECT_EQ(decoded.id, "s42");
  EXPECT_FALSE(decoded.warm_start);
  // Absent tags decode to the defaults.
  request = ServiceRequest();
  request.command = "ping";
  ASSERT_TRUE(DecodeRequestBinary(EncodeRequestBinary(request), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.command, "ping");
  EXPECT_TRUE(decoded.id.empty());
  EXPECT_TRUE(decoded.warm_start);
  EXPECT_EQ(decoded.since_version, 0u);
}

// Every message of the matrix decodes back field for field, and its
// encoding is canonical: re-encoding the decoded message gives the same
// bytes. Strings carry quotes, newlines, ':' and '#' byte for byte.
TEST(BinaryCodec, RoundTripsEveryField) {
  for (const ServiceRequest& message : RequestMatrix()) {
    std::string wire = EncodeRequestBinary(message);
    ServiceRequest decoded;
    std::string error;
    ASSERT_TRUE(DecodeRequestBinary(wire, &decoded, &error)) << error;
    ExpectSameRequest(message, decoded);
    EXPECT_EQ(EncodeRequestBinary(decoded), wire);
  }
  for (const ServiceResponse& message : ResponseMatrix()) {
    std::string wire = EncodeResponseBinary(message);
    ServiceResponse decoded;
    std::string error;
    ASSERT_TRUE(DecodeResponseBinary(wire, &decoded, &error)) << error;
    ExpectSameResponse(message, decoded);
    EXPECT_EQ(EncodeResponseBinary(decoded), wire);
  }
}

// Optional fields are absent at their defaults: a full status is longer
// than a clean one by exactly its fifteen optional fields (every field
// costs a 5-byte tag+length header; u64s and doubles carry 8 bytes, the
// recovered bool 1, strings their length).
TEST(BinaryCodec, OptionalFieldsAreAbsentAtDefaults) {
  SessionStatus full = MakeStatus("s1", true);
  SessionStatus clean = MakeStatus("s1", false);
  clean.name = full.name;
  ServiceResponse full_response;
  full_response.sessions.push_back(full);
  ServiceResponse clean_response;
  clean_response.sessions.push_back(clean);
  size_t optional_bytes = 15 * 5 + 12 * 8 + 1 + full.store_key.size() + full.error.size();
  EXPECT_EQ(EncodeResponseBinary(full_response).size(),
            EncodeResponseBinary(clean_response).size() + optional_bytes);
}

TEST(BinaryCodec, RejectsMissingOrUnknownCommandsAndMissingIds) {
  ServiceRequest bad;
  ServiceRequest decoded;
  std::string error;
  // A request without a command: both an empty command field and no field.
  EXPECT_FALSE(DecodeRequestBinary(EncodeRequestBinary(bad), &decoded, &error));
  EXPECT_EQ(error, "request has no command");
  error.clear();
  EXPECT_FALSE(DecodeRequestBinary(std::string(1, '\x01'), &decoded, &error));
  EXPECT_EQ(error, "request has no command");
  bad.command = "exfiltrate";
  EXPECT_FALSE(DecodeRequestBinary(EncodeRequestBinary(bad), &decoded, &error));
  EXPECT_NE(error.find("unknown command"), std::string::npos);
  bad.command = "pause";  // Needs an id.
  EXPECT_FALSE(DecodeRequestBinary(EncodeRequestBinary(bad), &decoded, &error));
  EXPECT_NE(error.find("requires an id"), std::string::npos);
  // A response is not a request, and vice versa.
  EXPECT_FALSE(
      DecodeRequestBinary(EncodeResponseBinary(ServiceResponse()), &decoded, &error));
  ServiceResponse response;
  EXPECT_FALSE(DecodeResponseBinary(EncodeRequestBinary(RequestMatrix()[0]), &response,
                                    &error));
}

// Byte offsets of one TLV field inside an encoded message.
struct FieldSpan {
  size_t begin;  // The tag byte.
  size_t end;    // One past the value.
};

// The well-formed fields of `wire` in [pos, end): the top-level fields, or
// with `nested` also the fields inside each response's session blocks.
void ListFields(const std::string& wire, size_t pos, size_t end, bool nested,
                std::vector<FieldSpan>* out) {
  while (end - pos >= 5) {
    size_t len = (static_cast<size_t>(static_cast<unsigned char>(wire[pos + 1])) << 24) |
                 (static_cast<size_t>(static_cast<unsigned char>(wire[pos + 2])) << 16) |
                 (static_cast<size_t>(static_cast<unsigned char>(wire[pos + 3])) << 8) |
                 static_cast<size_t>(static_cast<unsigned char>(wire[pos + 4]));
    if (len > end - pos - 5) {
      return;
    }
    out->push_back({pos, pos + 5 + len});
    if (nested && wire[0] == '\x02' && wire[pos] == '\x06') {
      ListFields(wire, pos + 5, pos + 5 + len, false, out);
    }
    pos += 5 + len;
  }
}

// xorshift64, fixed seed: every run draws the same mutants.
struct MutationRng {
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  size_t Below(size_t n) { return n == 0 ? 0 : static_cast<size_t>(Next() % n); }
};

// One structural mutation of `wire`; `other` is a second message for
// splicing.
std::string Mutate(const std::string& wire, const std::string& other, MutationRng* rng) {
  std::string out = wire;
  std::vector<FieldSpan> top;
  ListFields(wire, 1, wire.size(), false, &top);
  std::vector<FieldSpan> all;
  ListFields(wire, 1, wire.size(), true, &all);
  switch (rng->Below(8)) {
    case 0: {  // Flip one byte.
      size_t at = rng->Below(out.size());
      out[at] = static_cast<char>(out[at] ^ (1 + rng->Below(255)));
      break;
    }
    case 1: {  // Set one u32 length to 0, len-1, len+1 or 0xffffffff.
      if (all.empty()) {
        break;
      }
      const FieldSpan& field = all[rng->Below(all.size())];
      uint32_t len = static_cast<uint32_t>(field.end - field.begin - 5);
      const uint32_t choices[4] = {0, len - 1, len + 1, 0xffffffffu};
      uint32_t value = choices[rng->Below(4)];
      for (int i = 0; i < 4; ++i) {
        out[field.begin + 1 + i] = static_cast<char>(value >> (24 - 8 * i));
      }
      break;
    }
    case 2: {  // Duplicate a field.
      if (top.empty()) {
        break;
      }
      const FieldSpan& field = top[rng->Below(top.size())];
      out.insert(field.end, wire.substr(field.begin, field.end - field.begin));
      break;
    }
    case 3: {  // Drop a field.
      if (top.empty()) {
        break;
      }
      const FieldSpan& field = top[rng->Below(top.size())];
      out.erase(field.begin, field.end - field.begin);
      break;
    }
    case 4: {  // Reorder: move one field to the end.
      if (top.size() < 2) {
        break;
      }
      const FieldSpan& field = top[rng->Below(top.size())];
      std::string moved = wire.substr(field.begin, field.end - field.begin);
      out.erase(field.begin, moved.size());
      out += moved;
      break;
    }
    case 5: {  // Insert an unknown tag at a field boundary.
      size_t at = top.empty() ? out.size() : top[rng->Below(top.size())].begin;
      size_t len = rng->Below(9);
      std::string field(1, static_cast<char>(0x40 + rng->Below(0xc0)));
      for (int i = 0; i < 4; ++i) {
        field.push_back(static_cast<char>(len >> (24 - 8 * i)));
      }
      for (size_t i = 0; i < len; ++i) {
        field.push_back(static_cast<char>(rng->Next()));
      }
      out.insert(at, field);
      break;
    }
    case 6: {  // Splice: a prefix of this message, a suffix of the other.
      out = wire.substr(0, rng->Below(wire.size() + 1)) +
            other.substr(rng->Below(other.size() + 1));
      break;
    }
    default:  // Truncate.
      out.resize(rng->Below(out.size()));
      break;
  }
  return out;
}

// The codec is the only parser of socket input. Property, over a fixed
// budget of seeded mutants of the round-trip matrix: decoding either fails
// with a non-empty error, or succeeds and the decoded message m re-encodes
// to a fixed point, Encode(Decode(Encode(m))) == Encode(m) byte for byte.
TEST(BinaryCodec, MutantsFailOrReencodeToAFixedPoint) {
  std::vector<std::string> corpus;
  for (const ServiceRequest& message : RequestMatrix()) {
    corpus.push_back(EncodeRequestBinary(message));
  }
  for (const ServiceResponse& message : ResponseMatrix()) {
    corpus.push_back(EncodeResponseBinary(message));
  }
  constexpr int kMutants = 20000;
  MutationRng rng;
  int decoded_ok = 0;
  int violations = 0;
  auto report = [&](const std::string& mutant, const char* what) {
    if (++violations <= 5) {
      std::string hex;
      for (unsigned char c : mutant) {
        static const char kDigits[] = "0123456789abcdef";
        hex += kDigits[c >> 4];
        hex += kDigits[c & 15];
      }
      ADD_FAILURE() << what << ": " << hex;
    }
  };
  for (int i = 0; i < kMutants; ++i) {
    const std::string& base = corpus[rng.Below(corpus.size())];
    const std::string& other = corpus[rng.Below(corpus.size())];
    std::string mutant = Mutate(base, other, &rng);

    ServiceRequest request;
    std::string error;
    if (DecodeRequestBinary(mutant, &request, &error)) {
      ++decoded_ok;
      std::string once = EncodeRequestBinary(request);
      ServiceRequest again;
      if (!DecodeRequestBinary(once, &again, &error) ||
          EncodeRequestBinary(again) != once) {
        report(mutant, "request re-encode is not a fixed point");
      }
    } else if (error.empty()) {
      report(mutant, "request rejected without an error");
    }

    ServiceResponse response;
    error.clear();
    if (DecodeResponseBinary(mutant, &response, &error)) {
      ++decoded_ok;
      std::string once = EncodeResponseBinary(response);
      ServiceResponse again;
      if (!DecodeResponseBinary(once, &again, &error) ||
          EncodeResponseBinary(again) != once) {
        report(mutant, "response re-encode is not a fixed point");
      }
    } else if (error.empty()) {
      report(mutant, "response rejected without an error");
    }
  }
  EXPECT_EQ(violations, 0);
  // Both outcomes are exercised: many mutants (dropped optional fields,
  // unknown tags, duplicates) still decode, and many do not.
  EXPECT_GT(decoded_ok, kMutants / 10);
  EXPECT_LT(decoded_ok, kMutants);
}

// ---------------------------------------------------------------------------
// Daemon hardening: nothing a client does may crash or wedge wfd.

class WfdHardeningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = TempPath("wf_protocol_wfd.sock");
    WfdOptions options;
    options.socket_path = socket_path_;
    options.poll_ms = 10;
    server_ = std::make_unique<WfdServer>(options);
    ASSERT_TRUE(server_->Start()) << server_->error();
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  void TearDown() override {
    // The daemon must still be healthy enough to stop cleanly.
    ServiceCallResult stop = StopDaemon(socket_path_);
    EXPECT_TRUE(stop.ok) << stop.error;
    serve_thread_.join();
  }

  // The liveness probe every abuse case ends with.
  void ExpectDaemonAlive() {
    ServiceRequest ping;
    ping.command = "ping";
    ServiceCallResult result = CallService(socket_path_, ping);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.response.state, "alive");
  }

  std::string socket_path_;
  std::unique_ptr<WfdServer> server_;
  std::thread serve_thread_;
};

// A frame that is not a TLV request — YAML text, a stray 4-byte "WFB1"
// codec hello, or garbage — gets a TLV error response, and the daemon then
// closes that connection.
TEST_F(WfdHardeningTest, NonTlvFramesGetATlvErrorAndClose) {
  const std::string frames[] = {"command: ping\n", "WFB1",
                                "\x01\x02 binary garbage \xff\xfe"};
  for (const std::string& frame : frames) {
    UnixConn conn = ConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok());
    SetRecvTimeout(conn.fd(), 5000);
    ASSERT_TRUE(WriteFrame(conn.fd(), frame));
    std::string reply;
    ASSERT_EQ(ReadFrame(conn.fd(), &reply), FrameStatus::kOk);
    ServiceResponse response;
    std::string error;
    ASSERT_TRUE(DecodeResponseBinary(reply, &response, &error)) << error;
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.error.empty());
    EXPECT_EQ(ReadFrame(conn.fd(), &reply), FrameStatus::kClosed);
  }
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, SurvivesUnknownCommand) {
  UnixConn conn = ConnectUnix(socket_path_);
  ASSERT_TRUE(conn.ok());
  ServiceRequest coffee;
  coffee.command = "make-coffee";
  ASSERT_TRUE(WriteFrame(conn.fd(), EncodeRequestBinary(coffee)));
  std::string reply;
  ASSERT_EQ(ReadFrame(conn.fd(), &reply), FrameStatus::kOk);
  ServiceResponse response;
  std::string error;
  ASSERT_TRUE(DecodeResponseBinary(reply, &response, &error)) << error;
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("unknown command"), std::string::npos);
  conn.Close();
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, SurvivesOversizedFrameHeader) {
  UnixConn conn = ConnectUnix(socket_path_);
  ASSERT_TRUE(conn.ok());
  const unsigned char header[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(conn.fd(), header, sizeof(header), MSG_NOSIGNAL), 4);
  std::string reply;
  ASSERT_EQ(ReadFrame(conn.fd(), &reply), FrameStatus::kOk);  // Courtesy error.
  conn.Close();
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, SurvivesMidFrameDisconnects) {
  // Vanish at every interesting point: mid-header, mid-payload, and between
  // a submit header and its job frame.
  {
    UnixConn conn = ConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok());
    const char partial[2] = {0, 0};
    ::send(conn.fd(), partial, sizeof(partial), MSG_NOSIGNAL);
  }
  {
    UnixConn conn = ConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok());
    const unsigned char header[4] = {0, 0, 0, 50};
    ::send(conn.fd(), header, sizeof(header), MSG_NOSIGNAL);
    ::send(conn.fd(), "short", 5, MSG_NOSIGNAL);
  }
  {
    UnixConn conn = ConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok());
    ServiceRequest submit;
    submit.command = "submit";
    ASSERT_TRUE(WriteFrame(conn.fd(), EncodeRequestBinary(submit)));
    // No job frame: hang up instead.
  }
  ExpectDaemonAlive();
  // The aborted submit must not have created a session.
  ServiceCallResult status = QueryStatus(socket_path_);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_TRUE(status.response.sessions.empty());
}

TEST_F(WfdHardeningTest, SurvivesBadJobFileAndKeepsServing) {
  ServiceCallResult bad = SubmitJob(socket_path_, "os: not-a-real-os\n");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  ExpectDaemonAlive();
}

TEST(WfdIdleTimeout, SilentClientCannotWedgeTheDaemon) {
  // Connections are handled inline on the accept thread: a client that
  // connects and sends nothing must be dropped after idle_timeout_ms so
  // later clients get served.
  WfdOptions options;
  options.socket_path = TempPath("wf_protocol_idle.sock");
  options.poll_ms = 10;
  options.idle_timeout_ms = 100;
  WfdServer server(options);
  ASSERT_TRUE(server.Start()) << server.error();
  std::thread serve([&] { server.Serve(); });

  UnixConn silent = ConnectUnix(options.socket_path);
  ASSERT_TRUE(silent.ok());
  // Say nothing. The daemon must time the connection out and move on.
  ServiceRequest ping;
  ping.command = "ping";
  ServiceCallResult result = CallService(options.socket_path, ping);
  EXPECT_TRUE(result.ok) << result.error;
  // The silent connection was dropped, not left half-open.
  std::string reply;
  EXPECT_NE(ReadFrame(silent.fd(), &reply), FrameStatus::kOk);

  ServiceCallResult stop = StopDaemon(options.socket_path);
  EXPECT_TRUE(stop.ok) << stop.error;
  serve.join();
}

TEST_F(WfdHardeningTest, UnknownSessionQueriesError) {
  ServiceCallResult status = QueryStatus(socket_path_, "s999");
  EXPECT_FALSE(status.ok);
  ServiceCallResult result = FetchResult(socket_path_, "s999");
  EXPECT_FALSE(result.ok);
  ExpectDaemonAlive();
}

// ---------------------------------------------------------------------------
// TLV requests against a live daemon.

TEST_F(WfdHardeningTest, ServesManyRequestsPerConnection) {
  UnixConn conn = ConnectUnix(socket_path_);
  ASSERT_TRUE(conn.ok());
  for (int i = 0; i < 3; ++i) {
    ServiceRequest ping;
    ping.command = "ping";
    ASSERT_TRUE(WriteFrame(conn.fd(), EncodeRequestBinary(ping)));
    std::string reply;
    ASSERT_EQ(ReadFrame(conn.fd(), &reply), FrameStatus::kOk);
    ServiceResponse response;
    std::string error;
    ASSERT_TRUE(DecodeResponseBinary(reply, &response, &error)) << error;
    EXPECT_TRUE(response.ok);
    EXPECT_EQ(response.state, "alive");
  }
  conn.Close();
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, SurvivesTruncatedRequests) {
  // Truncated TLV: the daemon must answer an error (the frame is intact,
  // just semantically bad) or drop, and stay alive either way.
  ServiceRequest request;
  request.command = "status";
  std::string valid = EncodeRequestBinary(request);
  for (size_t cut : {size_t(1), valid.size() / 2, valid.size() - 1}) {
    UnixConn conn = ConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(conn.fd(), valid.substr(0, cut)));
    std::string reply;
    if (ReadFrame(conn.fd(), &reply) == FrameStatus::kOk) {
      ServiceResponse response;
      std::string error;
      ASSERT_TRUE(DecodeResponseBinary(reply, &response, &error)) << error;
      EXPECT_FALSE(response.ok);
    }
  }
  ExpectDaemonAlive();
}

// A checkpoint past the frame cap cannot ride a payload frame. The daemon
// says so at once with an error naming both sizes, instead of announcing a
// payload the transport then refuses to send.
TEST_F(WfdHardeningTest, OversizedPayloadFailsFastWithAnError) {
  std::string job;
  job += "name: long-random\n";
  job += "os: linux\n";
  job += "application: nginx\n";
  job += "metric: performance\n";
  job += "budget:\n  iterations: 4500\n";
  job += "search:\n  algorithm: random\n  seed: 5\n";
  ServiceCallResult submit = SubmitJob(socket_path_, job, /*warm_start=*/false);
  ASSERT_TRUE(submit.ok) << submit.error;
  ASSERT_TRUE(server_->manager().WaitDone(submit.response.id, 120000));

  auto start = std::chrono::steady_clock::now();
  ServiceCallResult result = FetchResult(socket_path_, submit.response.id);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.transport_error) << result.error;
  EXPECT_NE(result.error.find(std::to_string(kMaxFrameBytes) + "-byte frame limit"),
            std::string::npos)
      << result.error;
  EXPECT_LT(seconds, 2.0);
  ExpectDaemonAlive();
}

// ---------------------------------------------------------------------------
// Watch subscribers vanishing mid-stream.

TEST_F(WfdHardeningTest, WatchOnUnknownSessionErrors) {
  ServiceConnection conn;
  std::string error;
  ASSERT_TRUE(conn.Connect(socket_path_, true, &error)) << error;
  ServiceRequest watch;
  watch.command = "watch";
  watch.id = "s404";
  ServiceCallResult result = conn.Call(watch);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown session"), std::string::npos);
  conn.Close();
  ExpectDaemonAlive();
}

TEST_F(WfdHardeningTest, SurvivesWatcherDisconnectMidPush) {
  // A real session committing waves, a subscriber that hangs up right after
  // the ack: the daemon must clean up the subscription (the observer posts
  // into a dead connection id, which must be a no-op) and keep serving.
  std::string job;
  job += "name: watch-abort\n";
  job += "os: linux\n";
  job += "application: nginx\n";
  job += "metric: performance\n";
  job += "budget:\n  iterations: 40\n";
  job += "search:\n  algorithm: random\n  seed: 11\n";
  ServiceCallResult submit = SubmitJob(socket_path_, job);
  ASSERT_TRUE(submit.ok) << submit.error;
  const std::string id = submit.response.id;

  {
    ServiceConnection watcher;
    std::string error;
    ASSERT_TRUE(watcher.Connect(socket_path_, true, &error)) << error;
    ServiceRequest watch;
    watch.command = "watch";
    watch.id = id;
    ServiceCallResult ack = watcher.Call(watch);
    ASSERT_TRUE(ack.ok) << ack.error;
    EXPECT_EQ(ack.response.state, "watching");
    watcher.Close();  // Vanish while the session is still pushing.
  }

  // The session must still run to completion under a live daemon.
  for (int i = 0; i < 200; ++i) {
    ServiceCallResult status = QueryStatus(socket_path_, id);
    ASSERT_TRUE(status.ok) << status.error;
    ASSERT_EQ(status.response.sessions.size(), 1u);
    if (status.response.sessions[0].state == "done") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ExpectDaemonAlive();
}

}  // namespace
}  // namespace wayfinder
