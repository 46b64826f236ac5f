#include "src/util/log.h"

#include <cstdio>

namespace wayfinder {

namespace {

constexpr LogLevel kThreshold = LogLevel::kWarning;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  return base;
}

}  // namespace

bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(kThreshold);
}

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
}

}  // namespace wayfinder
