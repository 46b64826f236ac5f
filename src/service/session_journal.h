// Write-ahead session journal — the wfd daemon's one durable log
// (<store>/journal.wfj). It holds every accepted job, every committed trial,
// how far each session got, and the RNG/searcher state needed to continue
// one bit-exactly: SessionManager appends one small fsync'd record at every
// lifecycle edge and wave boundary, and recovery (wfd --recover) replays
// the journal to re-create the whole fleet, whose committed mirrors then
// feed warm starts.
//
// Format (line-oriented, append-only, one record per line):
//
//   wayfinder-journal v1
//   submit <id> <warm 0|1> <job-hash-hex> <escaped job text>
//   wave <id> <trials-total> delta <escaped checkpoint-v2 text>
//   state <id> <state-name> [escaped error]
//
// A `wave` payload is ordinary checkpoint-v2 text (src/platform/checkpoint.h)
// of the trials committed since the previous wave record, plus the session's
// live RNG/searcher state when it was exportable at that boundary. Its place
// in the history is trials_total minus its trial count: the compacted
// record, and older writers' whole-history `full` records, start at 0.
// Recovery places each record, re-derives what the trials determine (Eq. 4
// objectives, the failure taxonomy), and hands the history and the last
// live state to SearchSession::Resume — so the parser, the domain
// validation, and the bit-exact resume semantics are all the checkpoint
// code's, not a second implementation.
//
// Multi-line payloads ride in a single journal line via backslash escaping
// (\\ \n \r — see JournalEscape); every record is therefore exactly one
// line, and torn-tail recovery is a line scan: a record is complete iff its
// line is newline-terminated, and Open() truncates the file back to the
// last complete record before appends resume.
//
// Failure policy: every append goes through the fs-fault seam
// (src/platform/fs_faults.h) and is fsync'd. The FIRST failed append
// permanently degrades the journal — further appends are skipped so a
// half-written tail can never be appended past — and the failure reason is
// surfaced through degraded_reason() (the daemon reports it, it never
// crashes). The manager's mirrors still hold every committed trial, and its
// drain rewrites a degraded journal whole from them; a crash while the
// journal is degraded loses the trials committed since the failed append.
//
// Thread-safety: all methods take an internal mutex (call sites are the
// manager's submit path and driver threads, already serialized on the
// manager lock; the journal's own lock keeps it independently safe).
#ifndef WAYFINDER_SRC_SERVICE_SESSION_JOURNAL_H_
#define WAYFINDER_SRC_SERVICE_SESSION_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace wayfinder {

// One line's worth of payload escaping: journal records are strictly
// line-oriented, so embedded newlines (job text, checkpoint payloads) are
// escaped to \n / \r with \\ as the escape. Unescape is lenient about
// unknown escapes (passes them through) — torn lines are detected by the
// missing terminator, not by content.
std::string JournalEscape(const std::string& text);
std::string JournalUnescape(const std::string& text);

class SessionJournal {
 public:
  explicit SessionJournal(std::string path);
  ~SessionJournal();  // Close().

  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  struct OpenResult {
    bool ok = false;
    size_t truncated_bytes = 0;  // Torn tail removed, 0 when clean.
    std::string error;
  };

  // Opens (creating if absent) for append, after the torn-tail scan. A file
  // that is not a journal at all refuses to open (hands off operator data).
  OpenResult Open();

  // Appends one record + fsync. False once degraded (first failure wins and
  // is kept in degraded_reason()).
  bool AppendSubmit(const std::string& id, const std::string& job_text, bool warm_start);
  bool AppendWave(const std::string& id, size_t trials_total,
                  const std::string& checkpoint_text);
  bool AppendState(const std::string& id, const std::string& state,
                   const std::string& error);

  // fsync + close; further appends reopen nothing (used before a rewrite
  // replaces the file). Idempotent.
  void Close();

  bool healthy() const;
  std::string degraded_reason() const;
  const std::string& path() const { return path_; }

  // ------------------------------------------------------------------
  // Replay: the read side, used by SessionManager::Recover.

  struct WaveRecord {
    size_t trials_total = 0;  // Committed trials once this record is applied.
    std::string checkpoint_text;
  };

  struct RecoveredSession {
    std::string id;
    bool warm_start = false;
    uint64_t job_hash = 0;       // StableHash of the job text at submit time.
    std::string job_text;
    std::string state = "submitted";  // Last state record (or the implied one).
    std::string error;                // From the last state record.
    std::vector<WaveRecord> waves;
  };

  struct ReplayResult {
    bool ok = false;
    std::vector<RecoveredSession> sessions;  // Submission order.
    std::string error;
  };

  // Reads `path` and aggregates its records per session. Torn or malformed
  // trailing records are ignored (the write side truncates them on Open);
  // unknown record keywords are skipped for forward compatibility. A
  // missing file is an ok, empty replay.
  static ReplayResult Replay(const std::string& path);

  // The record renderers, shared by Append* and by the compacted rewrite
  // SessionManager builds after recovery (header + these lines +
  // AtomicWriteFile). Each returns one newline-terminated line.
  static std::string Header();
  static std::string SubmitLine(const std::string& id, const std::string& job_text,
                                bool warm_start);
  static std::string WaveLine(const std::string& id, size_t trials_total,
                              const std::string& checkpoint_text);
  static std::string StateLine(const std::string& id, const std::string& state,
                               const std::string& error);

 private:
  bool AppendLine(const std::string& line);

  mutable std::mutex mutex_;
  std::string path_;
  std::FILE* file_ = nullptr;
  bool degraded_ = false;
  std::string degraded_reason_;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SERVICE_SESSION_JOURNAL_H_
