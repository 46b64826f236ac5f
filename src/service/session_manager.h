// The multi-session tuning service core: owns N concurrent SearchSessions,
// each stepped by its own joined driver thread (at most max_running run at
// once; each session's parallel_evaluations is honored per session, in
// simulated time on that driver), with the submitted → running → paused →
// done lifecycle and a graceful drain on shutdown.
//
// Deliberately a thin, testable shell over the deterministic session core:
// the manager never reaches into a session between StepBatch boundaries, so
// a session run under the daemon commits the exact trial sequence the same
// job produces under `wfctl start` with the same seeds (pinned by
// service_test). The wire protocol (src/service/protocol.h) and the daemon
// loop (src/service/wfd.h) sit on top of this class; so do the tests,
// which drive it directly.
//
// Persistence: every committed trial is appended (hash-deduped) to the
// TrialStore under the job's (space, app) key as soon as its wave commits,
// and a submission may warm-start its searcher from the key's prior trials
// through the ordinary ObserveBatch path — results outlive any one session
// and any one daemon process. Shutdown() stops every session at its next
// wave boundary, writes a v2 checkpoint per session (resumable via `wfctl
// start --resume`), and fsync+closes every store file before returning.
//
// Crash safety: with a journal_path configured, every submit, lifecycle
// edge, and wave boundary also appends a fsync'd record to the write-ahead
// session journal (src/service/session_journal.h), and Recover() rebuilds
// the whole fleet from it after a kill -9 — resuming mid-run sessions
// bit-exactly via the checkpoint-v2 live-state path (pinned by
// recovery_test).
#ifndef WAYFINDER_SRC_SERVICE_SESSION_MANAGER_H_
#define WAYFINDER_SRC_SERVICE_SESSION_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/wayfinder_api.h"
#include "src/obs/metrics.h"
#include "src/service/protocol.h"
#include "src/service/session_journal.h"
#include "src/service/trial_store.h"

namespace wayfinder {

struct SessionManagerOptions {
  // TrialStore directory; empty disables cross-session persistence.
  std::string store_dir;
  // Where Shutdown() writes per-session checkpoints (<id>.ckpt); empty
  // disables them.
  std::string checkpoint_dir;
  // Write-ahead session journal path; empty disables journaling (daemon
  // behaviour is then bit-identical to the pre-journal service — pinned).
  // One fsync'd record per submit, lifecycle edge, and wave boundary;
  // Recover() replays it after a crash.
  std::string journal_path;
  // Sessions running concurrently; later submissions queue as `submitted`
  // until a slot frees.
  size_t max_running = 4;
};

class SessionManager {
 public:
  explicit SessionManager(const SessionManagerOptions& options);
  ~SessionManager();  // Shutdown() if the owner did not.

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Parses and enqueues one job. On success returns true and sets *id; on a
  // bad job file returns false with *error. `warm_start` observes the
  // store's prior trials for the job's (space, app) key into the searcher
  // before the first proposal.
  bool Submit(const std::string& job_text, bool warm_start, std::string* id,
              std::string* error);

  // Crash recovery: replays the session journal and re-creates the fleet it
  // describes — terminal sessions come back as queryable history, live ones
  // re-enter the queue (a mid-run session resumes bit-exactly through the
  // checkpoint-v2 live-state path; a paused one comes back paused), and
  // anything that cannot be rebuilt is recorded `failed` with an
  // `unrecoverable:` reason instead of being dropped. The journal is then
  // compacted (one submit + one full-history wave + one state per session,
  // written atomically). Call once, before the first Submit; returns false
  // only when the journal itself cannot be read. *summary describes what
  // happened either way. Recovered sessions carry `recovered: true` status.
  bool Recover(std::string* summary);

  // The no-recovery start (`wfd --no-recover`): a journal holding any
  // record is replaced atomically by an empty one, so the next recovering
  // daemon sees only this run's sessions. A missing or header-only journal
  // is left alone (no fsync or rename). Call once, before the first Submit.
  void DiscardJournal();

  // False once the journal has degraded (an append or fsync failed; appends
  // stop so the on-disk prefix stays valid) with the first failure in
  // *reason. True (reason untouched) while healthy or when no journal is
  // configured.
  bool JournalHealthy(std::string* reason) const;

  // Lifecycle controls; false when `id` is unknown (or the transition is
  // meaningless, e.g. pausing a finished session).
  bool Pause(const std::string& id);
  bool Resume(const std::string& id);

  // Snapshot of one session / every session (submission order).
  bool Status(const std::string& id, SessionStatus* status) const;
  std::vector<SessionStatus> List() const;

  // Monotonic counter bumped whenever any status-visible state changes
  // (submission, lifecycle transition, wave-boundary mirror refresh). Two
  // equal readings bracket an interval in which List()/Status() were
  // constant, so callers may serve a response cached at the first reading —
  // the daemon's fleet-status fast path. Lock-free.
  uint64_t StatusVersion() const {
    return status_version_.load(std::memory_order_acquire);
  }

  // The session's history so far as checkpoint text (v2, with live state
  // once the session finished). Usable mid-run: the snapshot is taken at a
  // wave boundary.
  bool Result(const std::string& id, std::string* checkpoint_text, std::string* error);

  // The session's trace ring rendered as Chrome trace_event JSON
  // (src/obs/trace.h). Works mid-run — the ring serializes its own access —
  // but an empty trace (recording off, or a recovered terminal session with
  // no live machinery) still renders as a valid, events-free document.
  bool TraceJson(const std::string& id, std::string* json, std::string* error);

  // Blocks until the session leaves the running set (done/failed), up to
  // `timeout_ms` (0 = forever). False on timeout or unknown id.
  bool WaitDone(const std::string& id, int timeout_ms);

  // Push-watch support: `observer` fires with a fresh status snapshot every
  // time session `id` commits a wave or changes lifecycle state, invoked on
  // the DRIVER thread while the manager lock is held — observers must be
  // cheap and must NOT call back into the manager (the daemon's observers
  // just enqueue a frame onto the transport loop). *initial receives the
  // current snapshot under the same lock that registers the observer, so a
  // wave can never slip between "read status" and "subscribed". Returns a
  // token for Unsubscribe, or 0 when `id` is unknown.
  using StatusObserver = std::function<void(const SessionStatus&)>;
  uint64_t Subscribe(const std::string& id, StatusObserver observer,
                     SessionStatus* initial);
  void Unsubscribe(uint64_t token);

  // Rewrites every trial-store file dropping superseded hash-duplicate
  // records (fsync + atomic rename per file). Returns false with the
  // details in *summary when any file failed; daemon `compact` and `wfctl
  // store-compact` surface *summary either way.
  bool CompactStore(std::string* summary);

  // Graceful drain: every session stops at its next StepBatch boundary,
  // driver threads join, checkpoints are written, and every TrialStore
  // file is fsync'd and closed. Idempotent.
  void Shutdown();

  TrialStore* store() { return store_.get(); }

 private:
  enum class State { kSubmitted, kRunning, kPaused, kDone, kFailed, kStopped };

  struct Managed {
    std::string id;
    // Verbatim submitted job text (journaled; re-parsed on recovery) and
    // whether the submitter asked for a warm start.
    std::string job_text;
    bool warm_requested = false;
    bool recovered = false;  // Re-created by Recover() after a crash.
    size_t journaled = 0;    // Committed prefix already in a wave record.
    JobSpec spec;
    std::shared_ptr<ConfigSpace> space;
    std::unique_ptr<Testbench> bench;
    std::unique_ptr<Searcher> searcher;
    std::unique_ptr<SearchSession> session;
    std::string store_key;
    size_t warm_started = 0;
    // Stored trials awaiting warm-start observation; objectives already
    // re-derived under THIS job's objective definition. Consumed by the
    // driver thread before its first step (retraining a model over a long
    // history is long-pole work the accept thread must not carry).
    std::vector<TrialRecord> warm_prior;
    State state = State::kSubmitted;
    std::string error;
    bool failed = false;  // A StepBatch threw; error holds the what().
    // One long-lived driver per session, joined on drain. It runs the
    // session's every step — proposals, evaluations, observations — so
    // cores are spent across sessions, bounded by max_running.
    // wf-lint: allow(conc-thread-seam) — session driver, joined in Drain/dtor.
    std::thread driver;
    bool pause_requested = false;
    size_t persisted = 0;  // History prefix already appended to the store.
    // Mirror of the session history, copied at wave boundaries under
    // mutex_: Result/Status read this, never the live session, so they
    // cannot race a driver mid-StepBatch.
    std::vector<TrialRecord> committed;
    // Status snapshot fields, refreshed at wave boundaries under mutex_.
    size_t trials = 0;
    bool has_best = false;
    double best = 0.0;
    double sim_seconds = 0.0;
    // Failure taxonomy + robustness counters, mirrored from the session at
    // wave boundaries like the fields above.
    FailureTally failures;
    size_t retries = 0;
    size_t drift_events = 0;
    // Observability mirror (SessionStatus gauges), refreshed at wave
    // boundaries under mutex_ — and only when obs::Enabled(), so a
    // metrics-off daemon's status frames stay byte-identical to the
    // pre-obs protocol.
    size_t memory_bytes = 0;
    double wave_p50_ms = 0.0;
    double wave_p99_ms = 0.0;
    double trials_per_sec = 0.0;
    // Per-session wave wall-clock latency (ns), recorded by the driver; the
    // p50/p99 mirror above derives from it. Self-gating like every obs
    // instrument.
    obs::Histogram wave_latency_ns;
    int64_t run_start_ns = 0;  // First wave's start stamp (trials/sec base).
  };

  static const char* StateName(State state);
  SessionStatus Snapshot(const Managed& managed) const;
  // Caller holds mutex_. Starts queued sessions while slots are free.
  void FillRunningSlots();
  void Drive(Managed* managed);
  Managed* FindLocked(const std::string& id);
  const Managed* FindLocked(const std::string& id) const;
  // Parses `job_text` and builds the whole session machinery (space, bench,
  // searcher, warm-start prior, SearchSession) — everything Submit does
  // before taking the lock, shared with Recover(). Nullptr with *error set.
  std::unique_ptr<Managed> BuildManaged(const std::string& job_text, bool warm_start,
                                        std::string* error);
  // Appends history[persisted..) to the store. Caller holds mutex_.
  void PersistNewTrials(Managed* managed);
  // Journals the trials committed since the last wave record (score
  // sessions re-journal the whole refreshed history), with live RNG /
  // searcher state when exportable. Caller holds mutex_.
  void JournalWaveLocked(Managed* managed);
  // Journals the session's current lifecycle state. Caller holds mutex_.
  void JournalStateLocked(const Managed& managed);
  // Recovery helper: seats a reassembled history as the committed mirror
  // (status fields, taxonomy, persisted/journaled counters). Caller holds
  // mutex_.
  void SeedMirrorLocked(Managed* managed, std::vector<TrialRecord> history);
  // Rewrites the journal as the compacted equivalent of the current fleet
  // (atomic replace). Caller holds mutex_.
  void RewriteJournalLocked();
  // Fires every observer subscribed to `managed`. Caller holds mutex_.
  void NotifyLocked(const Managed& managed);

  SessionManagerOptions options_;
  std::unique_ptr<TrialStore> store_;
  std::unique_ptr<SessionJournal> journal_;
  std::string journal_open_error_;  // Journal configured but unopenable.
  std::atomic<uint64_t> status_version_{1};
  // lock-order: terminal — nothing else is ever acquired while mutex_ is
  // held except via TransportServer::Post (which only enqueues under
  // posted_mu_; the posted fn runs later on the loop thread, lock-free).
  // Driver threads, the accept path, and observers all take mutex_ alone.
  mutable std::mutex mutex_;
  std::condition_variable state_changed_;
  bool shutdown_ = false;
  size_t running_ = 0;
  size_t next_id_ = 1;
  // Stable addresses: driver threads hold Managed* across their lifetime.
  std::vector<std::unique_ptr<Managed>> sessions_;

  struct Subscriber {
    uint64_t token = 0;
    std::string id;  // Session watched.
    StatusObserver observer;
  };
  uint64_t next_subscriber_ = 1;
  std::vector<Subscriber> subscribers_;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SERVICE_SESSION_MANAGER_H_
