#include "src/service/session_journal.h"

#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/obs/metrics.h"
#include "src/platform/fs_faults.h"
#include "src/util/rng.h"

namespace wayfinder {

namespace {
constexpr const char kJournalHeader[] = "wayfinder-journal v1";

// Durability instruments: append+fsync latency and counts, plus the
// degradation flag (`service.journal_degraded` gauge + reason info) that
// `wfctl metrics` surfaces. The flag uses the ungated Force/SetInfo path —
// journal health must stay truthful even when recording is off.
obs::Counter& g_appends =
    obs::Registry::Instance().GetCounter("service.journal_appends");
obs::Histogram& g_append_ns =
    obs::Registry::Instance().GetHistogram("service.journal_append_ns");
obs::Gauge& g_degraded =
    obs::Registry::Instance().GetGauge("service.journal_degraded");

void MarkDegraded(const std::string& reason) {
  g_degraded.Force(1);
  obs::Registry::Instance().SetInfo("service.journal_degraded_reason", reason);
}
}  // namespace

std::string JournalEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string JournalUnescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 >= text.size()) {
      out += text[i];
      continue;
    }
    switch (text[++i]) {
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default:  // Unknown escape: keep verbatim (forward compatibility).
        out += '\\';
        out += text[i];
    }
  }
  return out;
}

SessionJournal::SessionJournal(std::string path) : path_(std::move(path)) {}

SessionJournal::~SessionJournal() { Close(); }

SessionJournal::OpenResult SessionJournal::Open() {
  std::lock_guard<std::mutex> lock(mutex_);
  OpenResult result;
  if (file_ != nullptr) {
    result.ok = true;
    return result;
  }
  degraded_ = false;
  degraded_reason_.clear();

  // Torn-tail scan: a record is complete iff its line is newline-terminated;
  // track the byte offset of the last complete line via line lengths (never
  // tellg) and truncate everything past it. A present file whose first line
  // is not our header is foreign: refuse.
  long good_end = 0;
  bool existed = false;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::string line;
      bool first = true;
      while (std::getline(in, line)) {
        bool terminated = !in.eof();
        if (first) {
          if (line != kJournalHeader) {
            result.error = path_ + ": not a session journal";
            return result;
          }
          first = false;
          existed = true;
        }
        if (!terminated) {
          break;  // Torn tail: everything before this line survives.
        }
        good_end += static_cast<long>(line.size()) + 1;
      }
    }
  }
  std::error_code ec;
  uintmax_t file_size = std::filesystem::file_size(path_, ec);
  if (!ec && file_size > static_cast<uintmax_t>(good_end)) {
    result.truncated_bytes = static_cast<size_t>(file_size) - static_cast<size_t>(good_end);
    ::truncate(path_.c_str(), static_cast<off_t>(good_end));
  }

  file_ = std::fopen(path_.c_str(), "a");
  if (file_ == nullptr) {
    result.error = path_ + ": " + std::strerror(errno);
    return result;
  }
  if (!existed) {
    std::string header = Header();
    if (FaultWrite(header.data(), header.size(), file_) != header.size() ||
        std::fflush(file_) != 0 || !FaultFsync(fileno(file_))) {
      result.error = path_ + ": " + std::strerror(errno);
      std::fclose(file_);
      file_ = nullptr;
      return result;
    }
  }
  // A healthy (re)open clears the degradation flag: the reopened journal's
  // durable prefix is valid again, so the exported health must say so.
  g_degraded.Force(0);
  obs::Registry::Instance().SetInfo("service.journal_degraded_reason", "");
  result.ok = true;
  return result;
}

bool SessionJournal::AppendLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (degraded_ || file_ == nullptr) {
    return false;
  }
  obs::ScopedTimerNs append_timer(g_append_ns);
  if (FaultWrite(line.data(), line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    // A short write leaves a torn (unterminated) tail; never append past it
    // — the next Open()'s scan truncates it away. First failure wins.
    degraded_ = true;
    degraded_reason_ = "journal append failed: " + std::string(std::strerror(errno));
    MarkDegraded(degraded_reason_);
    return false;
  }
  if (!FaultFsync(fileno(file_))) {
    degraded_ = true;
    degraded_reason_ = "journal fsync failed: " + std::string(std::strerror(errno));
    MarkDegraded(degraded_reason_);
    return false;
  }
  g_appends.Add(1);
  return true;
}

bool SessionJournal::AppendSubmit(const std::string& id, const std::string& job_text,
                                  bool warm_start) {
  return AppendLine(SubmitLine(id, job_text, warm_start));
}

bool SessionJournal::AppendWave(const std::string& id, size_t trials_total,
                                const std::string& checkpoint_text) {
  return AppendLine(WaveLine(id, trials_total, checkpoint_text));
}

bool SessionJournal::AppendState(const std::string& id, const std::string& state,
                                 const std::string& error) {
  return AppendLine(StateLine(id, state, error));
}

void SessionJournal::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fflush(file_);
    FaultFsync(fileno(file_));
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool SessionJournal::healthy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !degraded_;
}

std::string SessionJournal::degraded_reason() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return degraded_reason_;
}

std::string SessionJournal::Header() { return std::string(kJournalHeader) + "\n"; }

std::string SessionJournal::SubmitLine(const std::string& id, const std::string& job_text,
                                       bool warm_start) {
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, StableHash(job_text));
  return "submit " + id + " " + (warm_start ? "1" : "0") + " " + hash + " " +
         JournalEscape(job_text) + "\n";
}

std::string SessionJournal::WaveLine(const std::string& id, size_t trials_total,
                                     const std::string& checkpoint_text) {
  return "wave " + id + " " + std::to_string(trials_total) + " delta " +
         JournalEscape(checkpoint_text) + "\n";
}

std::string SessionJournal::StateLine(const std::string& id, const std::string& state,
                                      const std::string& error) {
  std::string line = "state " + id + " " + state;
  if (!error.empty()) {
    line += " " + JournalEscape(error);
  }
  return line + "\n";
}

SessionJournal::ReplayResult SessionJournal::Replay(const std::string& path) {
  ReplayResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.ok = true;  // Never journaled: an empty fleet.
    return result;
  }
  std::string line;
  if (!std::getline(in, line)) {
    result.ok = true;  // Created but never written (or truncated to zero).
    return result;
  }
  if (line != kJournalHeader) {
    result.error = path + ": not a session journal";
    return result;
  }

  auto find = [&](const std::string& id) -> RecoveredSession* {
    for (RecoveredSession& session : result.sessions) {
      if (session.id == id) {
        return &session;
      }
    }
    return nullptr;
  };

  while (std::getline(in, line)) {
    if (in.eof()) {
      // Unterminated final line: only reachable between a crash and the
      // next Open() (which truncates it); the record never became durable.
      break;
    }
    if (line.empty()) {
      continue;
    }
    std::istringstream record(line);
    std::string keyword;
    std::string id;
    record >> keyword >> id;
    if (!record || id.empty()) {
      continue;  // Structurally empty record: ignore.
    }
    // Rest-of-line field (after exactly one separating space), per record.
    auto rest_of = [](std::istringstream& in_stream) {
      std::string rest;
      if (in_stream.peek() == ' ') {
        in_stream.get();
      }
      std::getline(in_stream, rest);
      return rest;
    };
    if (keyword == "submit") {
      int warm = 0;
      std::string hash_text;
      record >> warm >> hash_text;
      if (!record) {
        continue;
      }
      RecoveredSession session;
      session.id = id;
      session.warm_start = warm != 0;
      session.job_hash = std::strtoull(hash_text.c_str(), nullptr, 16);
      session.job_text = JournalUnescape(rest_of(record));
      result.sessions.push_back(std::move(session));
    } else if (keyword == "wave") {
      RecoveredSession* session = find(id);
      if (session == nullptr) {
        continue;  // Wave without a submit: journal predates truncation.
      }
      // Older writers' whole-history `full` records are placed like deltas.
      WaveRecord wave;
      std::string mode;
      record >> wave.trials_total >> mode;
      if (!record || (mode != "delta" && mode != "full")) {
        continue;
      }
      wave.checkpoint_text = JournalUnescape(rest_of(record));
      session->waves.push_back(std::move(wave));
    } else if (keyword == "state") {
      RecoveredSession* session = find(id);
      if (session == nullptr) {
        continue;
      }
      record >> session->state;
      session->error = JournalUnescape(rest_of(record));
    }
    // Unknown keywords: skipped — a future writer's records must not stop
    // an older daemon from recovering what it understands.
  }
  result.ok = true;
  return result;
}

}  // namespace wayfinder
