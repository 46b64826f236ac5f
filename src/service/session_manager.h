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
// Durability: with a store_dir configured, the write-ahead session journal
// <store_dir>/journal.wfj (src/service/session_journal.h) is the one durable
// log. Every submit, lifecycle edge, and wave boundary appends a fsync'd
// record, and a wave's trials reach the status mirror in the same lock hold
// as their record, so status/result/watch never show a trial the log could
// still lose. Recover() rebuilds the whole fleet from the log after a kill
// -9, resuming mid-run sessions bit-exactly via the checkpoint-v2
// live-state path (pinned by recovery_test). Without a store_dir nothing
// outlives the process.
//
// Warm start: with a store_dir, a submission may seed its searcher, through
// the ordinary ObserveBatch path, with every trial committed by earlier
// sessions on the job's (space, app) key — live or recovered from the log.
// Without one no submission warm-starts.
//
// Shutdown() stops every session at its next wave boundary and writes a v2
// checkpoint per session (resumable via `wfctl start --resume`).
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

#include "src/configspace/config_space.h"
#include "src/core/wayfinder_api.h"
#include "src/obs/metrics.h"
#include "src/platform/checkpoint.h"
#include "src/service/protocol.h"
#include "src/service/session_journal.h"

namespace wayfinder {

// The warm-start key of one (space, app) pair, e.g. "nginx-1a2b3c4d5e6f7081"
// (the status `store_key` field): the app name plus a fingerprint of every
// parameter's name, kind, phase and domain, so two sessions share trials
// only when their raw values mean the same thing.
std::string TrialStoreKey(const ConfigSpace& space, AppId app);

struct SessionManagerOptions {
  // Home of the durable log (<store_dir>/journal.wfj); empty keeps nothing
  // past the process (results are then bit-identical — pinned).
  std::string store_dir;
  // Where Shutdown() writes per-session checkpoints (<id>.ckpt); empty
  // disables them.
  std::string checkpoint_dir;
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
  // bad job file returns false with *error. `warm_start` observes the trials
  // earlier sessions committed on the job's (space, app) key into the
  // searcher before the first proposal; it has no effect without a
  // store_dir.
  bool Submit(const std::string& job_text, bool warm_start, std::string* id,
              std::string* error);

  // Crash recovery: replays the session journal and re-creates the fleet it
  // describes — terminal sessions come back as queryable history, live ones
  // re-enter the queue (a mid-run session resumes bit-exactly through the
  // checkpoint-v2 live-state path; a paused one comes back paused; a
  // never-stepped warm one warm-starts from the sessions before it in the
  // journal), and anything that cannot be rebuilt is recorded `failed` with
  // an `unrecoverable:` reason instead of being dropped. The journal is then
  // compacted (one submit + one wave from trial 0 + one state per session,
  // written atomically). Call once, before the first Submit; returns false
  // only when the journal itself cannot be read. *summary describes what
  // happened either way. Recovered sessions carry `recovered: true` status.
  bool Recover(std::string* summary);

  // The no-recovery start (`wfd --no-recover`): a journal holding any
  // record is replaced atomically by an empty one, so the next recovering
  // daemon sees only this run's sessions, and no warm start sees the old
  // run's trials. A missing or header-only journal is left alone (no fsync
  // or rename). Call once, before the first Submit.
  void DiscardJournal();

  // False once the journal has degraded (an append or fsync failed; appends
  // stop so the on-disk prefix stays valid, and Shutdown() rewrites the log
  // whole) with the first failure in *reason. True (reason untouched) while
  // healthy or when no store is configured.
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
  // once the session finished; a recovered done or stopped session keeps
  // its last journaled one). Usable mid-run: the snapshot is taken at a wave
  // boundary.
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

  // Graceful drain: every session stops at its next StepBatch boundary,
  // driver threads join, checkpoints are written, and a journal degraded by
  // a failed append is rewritten whole, so the drain loses no committed
  // trial. Idempotent.
  void Shutdown();

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
    // Prior trials awaiting warm-start observation; objectives already
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
    // Mirror of the session history, copied at wave boundaries under
    // mutex_: Result/Status and warm starts read this, never the live
    // session, so they cannot race a driver mid-StepBatch.
    std::vector<TrialRecord> committed;
    // A recovered done or stopped session's last journaled live state: it
    // has no session object, and it committed nothing after that wave.
    CheckpointLiveState final_live;
    // Status snapshot fields, refreshed with the mirror under mutex_ (the
    // trial count and simulated time are read off the mirror itself).
    bool has_best = false;
    double best = 0.0;
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
  // searcher, SearchSession) — everything Submit does before taking the
  // lock, shared with Recover(). Nullptr with *error set.
  std::unique_ptr<Managed> BuildManaged(const std::string& job_text, bool warm_start,
                                        std::string* error);
  // Fills managed->warm_prior from the committed mirror of every session in
  // sessions_ on the same store key, in submission order, skipping transient
  // and drift-stale records and then keeping the first record per
  // configuration; re-derives objectives under this job's definition.
  // Caller holds mutex_.
  void GatherWarmPriorLocked(Managed* managed);
  // Mirrors the session's new trials and status counters at a wave boundary
  // and journals them. Caller holds mutex_.
  void PersistNewTrials(Managed* managed);
  // Brings the committed mirror and status fields up to `history` (the
  // session's, or a recovered one): appends the trials it lacks and
  // refreshes a score session's re-normalized objectives in place. Caller
  // holds mutex_.
  void MirrorLocked(Managed* managed, const std::vector<TrialRecord>& history);
  // The live state a checkpoint of `managed` may carry: exported from the
  // session when it sits at a clean commit boundary, or a recovered
  // finished session's final_live. False when there is none. Caller holds
  // mutex_ and the driver is not inside StepBatch.
  bool LiveStateLocked(const Managed& managed, CheckpointLiveState* live) const;
  // Journals the trials committed since the last wave record, with live
  // RNG / searcher state when exportable. Caller holds mutex_.
  void JournalWaveLocked(Managed* managed);
  // Journals the session's current lifecycle state. Caller holds mutex_.
  void JournalStateLocked(const Managed& managed);
  // Rewrites the journal as the compacted equivalent of the current fleet
  // (atomic replace). Caller holds mutex_.
  void RewriteJournalLocked();
  // Fires every observer subscribed to `managed`. Caller holds mutex_.
  void NotifyLocked(const Managed& managed);

  SessionManagerOptions options_;
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
