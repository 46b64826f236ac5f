// Unix-domain stream sockets and length-prefixed message frames — the
// transport under the wfd tuning service (src/service/).
//
// A frame is a 4-byte big-endian payload length followed by that many bytes
// of payload (the service layer puts binary TLV messages, job files and
// checkpoint texts in there). The reader enforces a hard payload cap so a
// hostile or corrupt peer cannot make the daemon allocate unbounded memory,
// and distinguishes a clean EOF between frames (kClosed) from a connection
// dying mid-frame (kTruncated).
//
// All helpers are blocking and signal-safe (EINTR restarts); writes use
// MSG_NOSIGNAL so a vanished peer surfaces as an error instead of SIGPIPE.
#ifndef WAYFINDER_SRC_UTIL_SOCKET_H_
#define WAYFINDER_SRC_UTIL_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace wayfinder {

// Largest payload a frame may carry (checkpoint texts of long sessions fit
// comfortably; anything bigger is a protocol violation).
constexpr size_t kMaxFrameBytes = 4 * 1024 * 1024;

enum class FrameStatus {
  kOk,
  kClosed,     // Clean EOF before any byte of a frame.
  kTruncated,  // Peer vanished mid-header or mid-payload.
  kOversized,  // Header announced more than kMaxFrameBytes.
  kError,      // errno-level socket failure.
};

const char* FrameStatusName(FrameStatus status);

// Reads one frame into `payload`. Blocking; returns kOk on success.
FrameStatus ReadFrame(int fd, std::string* payload);

// Cap how long a blocking read on `fd` may wait (SO_RCVTIMEO); an expired
// wait surfaces as kError from ReadFrame. Blocking clients (tests, benches)
// arm it so a daemon that never answers fails the read instead of hanging.
bool SetRecvTimeout(int fd, int timeout_ms);

// O_NONBLOCK, for fds owned by an event loop (src/transport/).
bool SetNonBlocking(int fd);

// Writes one frame. Returns false when the peer is gone or the payload
// exceeds kMaxFrameBytes.
bool WriteFrame(int fd, const std::string& payload);

// Owning fd wrapper (close on destruction, move-only).
class UnixConn {
 public:
  UnixConn() = default;
  explicit UnixConn(int fd) : fd_(fd) {}
  ~UnixConn() { Close(); }
  UnixConn(UnixConn&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  UnixConn& operator=(UnixConn&& other) noexcept;
  UnixConn(const UnixConn&) = delete;
  UnixConn& operator=(const UnixConn&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

 private:
  int fd_ = -1;
};

// Connects to a listening Unix-domain socket; !ok() on failure.
UnixConn ConnectUnix(const std::string& path);

// Listening Unix-domain socket bound to a filesystem path. A stale socket
// file (a daemon killed hard leaves one behind) is unlinked before binding
// — but only after probing that nothing answers on it, so a second daemon
// cannot steal a live one's endpoint. The destructor unlinks the path only
// while it still holds our bound inode, so stopping one daemon never
// deletes another's socket file.
class UnixListener {
 public:
  UnixListener() = default;
  ~UnixListener();
  UnixListener(UnixListener&&) = delete;
  UnixListener& operator=(UnixListener&&) = delete;

  // Binds and listens; false (with error()) on failure, including when a
  // live daemon already serves `path`.
  bool Listen(const std::string& path, int backlog = 16);

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }  // For the event loop that accepts on it.
  const std::string& error() const { return error_; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  uint64_t bound_ino_ = 0;  // Inode of the socket file we created.
  std::string path_;
  std::string error_;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_UTIL_SOCKET_H_
