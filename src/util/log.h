// Leveled logging with a process-wide threshold.
//
// Usage: WF_LOG(Info) << "built image in " << seconds << "s";
// Messages below the threshold are formatted lazily (the stream body is not
// evaluated). The threshold is Warning, so tests and benches stay quiet.
#ifndef WAYFINDER_SRC_UTIL_LOG_H_
#define WAYFINDER_SRC_UTIL_LOG_H_

#include <sstream>
#include <string>

namespace wayfinder {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// One log statement; flushes to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

bool LogEnabled(LogLevel level);

}  // namespace wayfinder

#define WF_LOG(severity)                                                      \
  if (!::wayfinder::LogEnabled(::wayfinder::LogLevel::k##severity)) {         \
  } else                                                                      \
    ::wayfinder::LogMessage(::wayfinder::LogLevel::k##severity, __FILE__,     \
                            __LINE__)                                         \
        .stream()

#endif  // WAYFINDER_SRC_UTIL_LOG_H_
