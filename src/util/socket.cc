#include "src/util/socket.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace wayfinder {

namespace {

// How a full-length read ended.
enum class IoEnd { kDone, kEof, kError };

// Reads exactly `n` bytes; *done reports how many arrived. kError covers
// errno-level failures, including a receive timeout (EAGAIN) set via
// SetRecvTimeout — both mean "this peer is no longer worth waiting for".
IoEnd ReadFull(int fd, char* out, size_t n, size_t* done) {
  *done = 0;
  while (*done < n) {
    ssize_t got = ::recv(fd, out + *done, n - *done, 0);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoEnd::kError;
    }
    if (got == 0) {
      return IoEnd::kEof;
    }
    *done += static_cast<size_t>(got);
  }
  return IoEnd::kDone;
}

bool WriteFull(int fd, const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t put = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<size_t>(put);
  }
  return true;
}

}  // namespace

const char* FrameStatusName(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kClosed:
      return "closed";
    case FrameStatus::kTruncated:
      return "truncated";
    case FrameStatus::kOversized:
      return "oversized";
    case FrameStatus::kError:
      return "error";
  }
  return "?";
}

FrameStatus ReadFrame(int fd, std::string* payload) {
  payload->clear();
  unsigned char header[4];
  size_t got = 0;
  IoEnd end = ReadFull(fd, reinterpret_cast<char*>(header), sizeof(header), &got);
  if (end != IoEnd::kDone) {
    if (end == IoEnd::kError) {
      return FrameStatus::kError;
    }
    // EOF: clean between frames, truncation inside a header.
    return got == 0 ? FrameStatus::kClosed : FrameStatus::kTruncated;
  }
  uint32_t length = (static_cast<uint32_t>(header[0]) << 24) |
                    (static_cast<uint32_t>(header[1]) << 16) |
                    (static_cast<uint32_t>(header[2]) << 8) |
                    static_cast<uint32_t>(header[3]);
  if (length > kMaxFrameBytes) {
    return FrameStatus::kOversized;
  }
  payload->resize(length);
  if (length > 0) {
    end = ReadFull(fd, payload->data(), length, &got);
    if (end != IoEnd::kDone) {
      payload->clear();
      // A peer that died mid-payload is truncation; a socket failure
      // (including a receive timeout) is an error.
      return end == IoEnd::kEof ? FrameStatus::kTruncated : FrameStatus::kError;
    }
  }
  return FrameStatus::kOk;
}

bool SetRecvTimeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return false;
  }
  uint32_t length = static_cast<uint32_t>(payload.size());
  unsigned char header[4] = {static_cast<unsigned char>(length >> 24),
                             static_cast<unsigned char>(length >> 16),
                             static_cast<unsigned char>(length >> 8),
                             static_cast<unsigned char>(length)};
  return WriteFull(fd, reinterpret_cast<const char*>(header), sizeof(header)) &&
         WriteFull(fd, payload.data(), payload.size());
}

UnixConn& UnixConn::operator=(UnixConn&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void UnixConn::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UnixConn ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return UnixConn();
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return UnixConn();
  }
  addr.sun_family = AF_UNIX;
  ::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  // EINTR here is NOT retryable the way read/write is: a connect interrupted
  // by a signal completes asynchronously, and re-calling connect() on the
  // same in-progress socket yields EALREADY/EISCONN. Start over on a fresh
  // fd instead — cheap for a local Unix socket, and always correct.
  int rc;
  while ((rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr))) != 0 &&
         errno == EINTR) {
    ::close(fd);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return UnixConn();
    }
  }
  if (rc != 0) {
    ::close(fd);
    return UnixConn();
  }
  return UnixConn(fd);
}

UnixListener::~UnixListener() {
  if (fd_ >= 0) {
    ::close(fd_);
    // Unlink only while the path still holds OUR socket file: a daemon that
    // replaced a stale file of ours must not lose its endpoint when we die.
    struct stat st{};
    if (::stat(path_.c_str(), &st) == 0 && static_cast<uint64_t>(st.st_ino) == bound_ino_) {
      ::unlink(path_.c_str());
    }
  }
}

bool UnixListener::Listen(const std::string& path, int backlog) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    error_ = "socket path too long: " + path;
    return false;
  }
  // A stale file from a killed daemon blocks bind — but a LIVE daemon's
  // socket must not be stolen. Probe before unlinking: anything accepting
  // on the path wins.
  if (::access(path.c_str(), F_OK) == 0) {
    UnixConn probe = ConnectUnix(path);
    if (probe.ok()) {
      error_ = path + ": a daemon is already serving this socket";
      return false;
    }
    ::unlink(path.c_str());
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + ::strerror(errno);
    return false;
  }
  addr.sun_family = AF_UNIX;
  ::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, backlog) != 0) {
    error_ = path + ": " + ::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  path_ = path;
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0) {
    bound_ino_ = static_cast<uint64_t>(st.st_ino);
  }
  return true;
}

}  // namespace wayfinder
