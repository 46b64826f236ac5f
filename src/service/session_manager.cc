#include "src/service/session_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unordered_set>

#include "src/obs/clock.h"
#include "src/obs/trace.h"
#include "src/platform/checkpoint.h"
#include "src/platform/fs_faults.h"
#include "src/util/rng.h"

namespace wayfinder {

namespace {

// Service-plane instruments (fleet-wide; per-session quantiles live in the
// Managed mirror). Registered at static init, recorded only when enabled.
obs::Counter& g_waves = obs::Registry::Instance().GetCounter("service.waves");
obs::Counter& g_trials = obs::Registry::Instance().GetCounter("service.trials");
obs::Histogram& g_wave_ns =
    obs::Registry::Instance().GetHistogram("service.wave_ns");

// Stable fingerprint of a space's parameter definitions (names, kinds,
// phases, domains): two sessions share warm-start trials only when their raw
// values mean the same thing.
uint64_t SpaceFingerprint(const ConfigSpace& space) {
  uint64_t hash = StableHash("wayfinder-space");
  for (size_t i = 0; i < space.Size(); ++i) {
    const ParamSpec& param = space.Param(i);
    hash = HashCombine(hash, StableHash(param.name));
    hash = HashCombine(hash, static_cast<uint64_t>(param.kind));
    hash = HashCombine(hash, static_cast<uint64_t>(param.phase));
    hash = HashCombine(hash, static_cast<uint64_t>(param.min_value));
    hash = HashCombine(hash, static_cast<uint64_t>(param.max_value));
    hash = HashCombine(hash, static_cast<uint64_t>(param.default_value));
    // Domain *contents*, not just sizes: a kString raw value is an index
    // into `choices` and a quantized kInt indexes into `value_set`, so two
    // spaces whose lists differ must never share a key.
    for (const std::string& choice : param.choices) {
      hash = HashCombine(hash, StableHash(choice));
    }
    for (int64_t value : param.value_set) {
      hash = HashCombine(hash, static_cast<uint64_t>(value));
    }
  }
  return hash;
}

}  // namespace

std::string TrialStoreKey(const ConfigSpace& space, AppId app) {
  char fingerprint[24];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(SpaceFingerprint(space)));
  return GetApp(app).name + "-" + fingerprint;
}

SessionManager::SessionManager(const SessionManagerOptions& options) : options_(options) {
  if (!options_.store_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.store_dir, ec);
    journal_ = std::make_unique<SessionJournal>(options_.store_dir + "/journal.wfj");
    SessionJournal::OpenResult opened = journal_->Open();
    if (!opened.ok) {
      // A daemon must come up even on a bad disk: run without resumability
      // and surface the reason (JournalHealthy / the ping note) instead of
      // refusing to serve.
      journal_.reset();
      journal_open_error_ = "journal open failed: " + opened.error;
    }
  }
}

SessionManager::~SessionManager() { Shutdown(); }

const char* SessionManager::StateName(State state) {
  switch (state) {
    case State::kSubmitted:
      return "submitted";
    case State::kRunning:
      return "running";
    case State::kPaused:
      return "paused";
    case State::kDone:
      return "done";
    case State::kFailed:
      return "failed";
    case State::kStopped:
      return "stopped";
  }
  return "?";
}

std::unique_ptr<SessionManager::Managed> SessionManager::BuildManaged(
    const std::string& job_text, bool warm_start, std::string* error) {
  JobParseResult parsed = ParseJobText(job_text);
  if (!parsed.ok) {
    *error = parsed.error;
    return nullptr;
  }

  auto managed = std::make_unique<Managed>();
  managed->job_text = job_text;
  managed->warm_requested = warm_start;
  managed->spec = parsed.spec;
  managed->space = std::make_shared<ConfigSpace>(BuildJobSpace(parsed.spec));
  managed->searcher = MakeJobSearcher(parsed.spec, managed->space.get(), error);
  if (managed->searcher == nullptr) {
    return nullptr;
  }
  // Bench seeding matches RunJob / `wfctl start` exactly: a session run
  // under the daemon is the same deterministic experiment.
  managed->bench = std::make_unique<Testbench>(managed->space.get(), parsed.spec.app,
                                               parsed.spec.ToTestbenchOptions());
  managed->store_key = TrialStoreKey(*managed->space, parsed.spec.app);
  managed->session = std::make_unique<SearchSession>(
      managed->bench.get(), managed->searcher.get(), parsed.spec.ToSessionOptions());
  return managed;
}

void SessionManager::GatherWarmPriorLocked(Managed* managed) {
  // Warm start: every trial earlier sessions committed on this (space, app)
  // key is fed through the ordinary ObserveBatch path before the session's
  // first proposal, so the searcher begins where they left off. The mirrors
  // already hold every committed trial, live or recovered from the log, and
  // a running session, score sessions included, contributes what it has
  // committed so far. Submission order fixes the order of the prior; how
  // much a still-running session adds depends on how far it got. The
  // session's own history stays empty —
  // prior knowledge shapes proposals, not the trial log — and an empty
  // prior is a strict no-op, which is what keeps first submissions
  // bit-identical to standalone runs.
  //
  // Outcome-aware warm start: transient-class records (timeouts, flakes)
  // are infrastructure noise with no (config -> outcome) signal, and when
  // the incoming job schedules workload drift, records measured before the
  // drift point describe a landscape the job will not see. Both are skipped
  // before deduplication, so a configuration whose first record is skipped
  // still enters the prior through a later clean record of it.
  const double drift_at = managed->spec.faults.drift_at;
  std::vector<TrialRecord> prior;
  std::unordered_set<uint64_t> seen;
  for (const auto& earlier : sessions_) {
    if (earlier->store_key != managed->store_key) {
      continue;
    }
    for (const TrialRecord& trial : earlier->committed) {
      if (trial.outcome.transient() || (drift_at > 0.0 && trial.sim_time_end < drift_at)) {
        continue;
      }
      if (!seen.insert(trial.config.Hash()).second) {
        continue;
      }
      TrialRecord copy = trial;
      copy.iteration = prior.size();
      copy.config = Configuration(managed->space.get(), trial.config.values());
      prior.push_back(std::move(copy));
    }
  }
  if (prior.empty()) {
    return;
  }
  // Prior objectives were computed under whatever objective *their* session
  // optimized; re-derive them under this job's definition from the raw
  // outcomes so (e.g.) a memory job's trials cannot mistrain a throughput
  // job's model.
  for (TrialRecord& trial : prior) {
    trial.objective = TrialObjective(trial.outcome, managed->spec.objective,
                                     managed->spec.app);
  }
  if (managed->spec.objective == ObjectiveKind::kScore) {
    RefreshScoreObjectives(&prior);
  }
  managed->warm_started = prior.size();
  managed->warm_prior = std::move(prior);
}

bool SessionManager::Submit(const std::string& job_text, bool warm_start, std::string* id,
                            std::string* error) {
  std::unique_ptr<Managed> managed = BuildManaged(job_text, warm_start, error);
  if (managed == nullptr) {
    return false;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) {
    *error = "service is shutting down";
    return false;
  }
  managed->id = "s" + std::to_string(next_id_++);
  *id = managed->id;
  // Warm starts need a store: without one nothing outlives a session, and
  // every run matches its standalone run.
  if (warm_start && !options_.store_dir.empty()) {
    GatherWarmPriorLocked(managed.get());
  }
  // Write-ahead: the accepted submission hits the journal (fsync'd) before
  // the caller's ack, so a crash between ack and first wave cannot lose it.
  if (journal_ != nullptr) {
    journal_->AppendSubmit(managed->id, job_text, warm_start);
  }
  sessions_.push_back(std::move(managed));
  FillRunningSlots();
  status_version_.fetch_add(1, std::memory_order_release);
  return true;
}

SessionManager::Managed* SessionManager::FindLocked(const std::string& id) {
  for (auto& managed : sessions_) {
    if (managed->id == id) {
      return managed.get();
    }
  }
  return nullptr;
}

const SessionManager::Managed* SessionManager::FindLocked(const std::string& id) const {
  for (const auto& managed : sessions_) {
    if (managed->id == id) {
      return managed.get();
    }
  }
  return nullptr;
}

void SessionManager::FillRunningSlots() {
  for (auto& managed : sessions_) {
    if (running_ >= options_.max_running) {
      return;
    }
    if (managed->state == State::kSubmitted) {
      managed->state = State::kRunning;
      ++running_;
      // wf-lint: allow(conc-thread-seam) — see ManagedSession::driver: one
      // joined driver per session.
      managed->driver = std::thread(&SessionManager::Drive, this, managed.get());
    }
  }
}

void SessionManager::MirrorLocked(Managed* managed, const std::vector<TrialRecord>& history) {
  std::vector<TrialRecord>& committed = managed->committed;
  const size_t mirrored = committed.size();
  size_t scan_from = mirrored;
  if (managed->spec.objective == ObjectiveKind::kScore) {
    // Score sessions re-normalize PAST objectives every wave (Eq. 4 over the
    // whole history): refresh the mirrored ones in place and rescan the best.
    for (size_t i = 0; i < mirrored; ++i) {
      committed[i].objective = history[i].objective;
    }
    scan_from = 0;
    managed->has_best = false;
  }
  committed.insert(committed.end(), history.begin() + static_cast<std::ptrdiff_t>(mirrored),
                   history.end());
  for (size_t i = scan_from; i < committed.size(); ++i) {
    if (committed[i].HasObjective() &&
        (!managed->has_best || committed[i].objective > managed->best)) {
      managed->has_best = true;
      managed->best = committed[i].objective;
    }
  }
  for (size_t i = mirrored; i < committed.size(); ++i) {
    managed->failures.Add(committed[i].outcome.status);
  }
  // Retry and drift counts live in the session, not the trial records: a
  // resumed session re-counts them from the replay point (documented in
  // docs/robustness.md), and a recovered terminal one has none.
  if (managed->session != nullptr) {
    managed->retries = managed->session->transient_retries();
    managed->drift_events = managed->session->drift_events();
  }
}

void SessionManager::PersistNewTrials(Managed* managed) {
  MirrorLocked(managed, managed->session->history());
  if (obs::Enabled()) {
    // Observability mirror refresh: same wave-boundary, same mutex_ hold as
    // every other status field, so the NotifyLocked version bump below
    // covers it and the daemon's StatusVersion response cache stays valid.
    if (managed->searcher != nullptr) {
      managed->memory_bytes = managed->searcher->MemoryBytes();
    }
    if (managed->wave_latency_ns.Count() > 0) {
      managed->wave_p50_ms = managed->wave_latency_ns.Quantile(0.5) / 1e6;
      managed->wave_p99_ms = managed->wave_latency_ns.Quantile(0.99) / 1e6;
    }
    if (managed->run_start_ns > 0) {
      double elapsed_sec =
          static_cast<double>(obs::NowNs() - managed->run_start_ns) * 1e-9;
      if (elapsed_sec > 0.0) {
        managed->trials_per_sec =
            static_cast<double>(managed->committed.size()) / elapsed_sec;
      }
    }
  }
  // The journal append shares this lock hold with the mirror update above:
  // no reader sees the wave's trials before its record's fsync returned.
  JournalWaveLocked(managed);
  NotifyLocked(*managed);
}

bool SessionManager::LiveStateLocked(const Managed& managed,
                                     CheckpointLiveState* live) const {
  if (managed.session == nullptr) {
    *live = managed.final_live;
    return live->Any();
  }
  // A drained sliding window may hold in-flight proposals the history
  // omits: such checkpoints resume replay-only.
  if (!managed.session->AtCommitBoundary()) {
    return false;
  }
  *live = managed.session->ExportLiveState();
  return true;
}

void SessionManager::JournalWaveLocked(Managed* managed) {
  if (journal_ == nullptr || managed->committed.size() == managed->journaled) {
    return;
  }
  // The record is the delta since the last one, as ordinary checkpoint-v2
  // text; live RNG/searcher state rides along whenever the session sits at a
  // clean commit boundary, which is what makes recovery bit-exact. A score
  // session's earlier trials keep the objectives they were journaled with:
  // recovery re-derives Eq. 4 over the whole history.
  std::vector<TrialRecord> slice(
      managed->committed.begin() + static_cast<std::ptrdiff_t>(managed->journaled),
      managed->committed.end());
  CheckpointLiveState live;
  std::string payload =
      CheckpointToText(slice, LiveStateLocked(*managed, &live) ? &live : nullptr);
  journal_->AppendWave(managed->id, managed->committed.size(), payload);
  if (managed->session != nullptr) {
    managed->session->trace().RecordInstant(obs::TraceKind::kJournalAppend,
                                            managed->committed.size());
  }
  managed->journaled = managed->committed.size();
}

void SessionManager::JournalStateLocked(const Managed& managed) {
  if (journal_ != nullptr) {
    journal_->AppendState(managed.id, StateName(managed.state), managed.error);
  }
}

void SessionManager::NotifyLocked(const Managed& managed) {
  // Every caller just changed status-visible state under mutex_; the bump
  // landing after the write (and before the caller unlocks) means a reader
  // who saw the new version observes the new state through List()/Status().
  status_version_.fetch_add(1, std::memory_order_release);
  if (subscribers_.empty()) {
    return;
  }
  SessionStatus snapshot = Snapshot(managed);
  for (const Subscriber& subscriber : subscribers_) {
    if (subscriber.id == managed.id) {
      subscriber.observer(snapshot);
    }
  }
}

uint64_t SessionManager::Subscribe(const std::string& id, StatusObserver observer,
                                   SessionStatus* initial) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Managed* managed = FindLocked(id);
  if (managed == nullptr) {
    return 0;
  }
  // Snapshot and registration under ONE lock hold: a wave committing right
  // after this call reaches the observer, one committing right before is in
  // *initial — nothing is missed and nothing fires before the caller knows
  // its own baseline.
  *initial = Snapshot(*managed);
  Subscriber subscriber;
  subscriber.token = next_subscriber_++;
  subscriber.id = id;
  subscriber.observer = std::move(observer);
  subscribers_.push_back(std::move(subscriber));
  return subscribers_.back().token;
}

void SessionManager::Unsubscribe(uint64_t token) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = subscribers_.begin(); it != subscribers_.end(); ++it) {
    if (it->token == token) {
      subscribers_.erase(it);
      return;
    }
  }
}

bool SessionManager::JournalHealthy(std::string* reason) const {
  if (!journal_open_error_.empty()) {
    *reason = journal_open_error_;
    return false;
  }
  if (journal_ != nullptr && !journal_->healthy()) {
    *reason = journal_->degraded_reason();
    return false;
  }
  return true;
}

bool SessionManager::Recover(std::string* summary) {
  if (journal_ == nullptr) {
    *summary = journal_open_error_.empty() ? "no journal configured"
                                           : journal_open_error_;
    return journal_open_error_.empty();
  }
  SessionJournal::ReplayResult replay = SessionJournal::Replay(journal_->path());
  if (!replay.ok) {
    *summary = replay.error;
    return false;
  }
  size_t resumed = 0, requeued = 0, finished = 0, unrecoverable = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const SessionJournal::RecoveredSession& rec : replay.sessions) {
      // Nothing is ever silently dropped: whatever cannot be rebuilt comes
      // back as a `failed` session whose error says why.
      auto fail_entry = [&](const std::string& why) {
        auto entry = std::make_unique<Managed>();
        entry->id = rec.id;
        entry->job_text = rec.job_text;
        entry->warm_requested = rec.warm_start;
        entry->recovered = true;
        entry->state = State::kFailed;
        entry->failed = true;
        entry->error = "unrecoverable: " + why;
        sessions_.push_back(std::move(entry));
        ++unrecoverable;
      };
      if (StableHash(rec.job_text) != rec.job_hash) {
        fail_entry("job text does not match its journaled hash");
        continue;
      }
      const bool terminal =
          rec.state == "done" || rec.state == "failed" || rec.state == "stopped";
      std::string error;
      std::unique_ptr<Managed> managed =
          BuildManaged(rec.job_text, rec.warm_start, &error);
      if (managed == nullptr) {
        fail_entry(error);
        continue;
      }
      managed->id = rec.id;
      managed->recovered = true;

      // Reassemble the history. A record's place follows from its
      // trials_total: it continues the history, or restarts it from trial 0
      // (the compacted record, and older writers' `full` records). Anything
      // else is a gap or an overlap. The newest exportable live state wins.
      std::vector<TrialRecord> history;
      CheckpointLiveState live;
      std::string wave_error;
      for (const SessionJournal::WaveRecord& wave : rec.waves) {
        CheckpointLoadResult loaded =
            LoadCheckpointText(*managed->space, wave.checkpoint_text);
        if (!loaded.ok) {
          wave_error = "wave payload: " + loaded.error;
          break;
        }
        // A payload larger than its total starts nowhere.
        const size_t count = loaded.history.size();
        const size_t start = count <= wave.trials_total ? wave.trials_total - count : SIZE_MAX;
        if (start == 0) {
          history = std::move(loaded.history);
        } else if (start == history.size()) {
          history.insert(history.end(), loaded.history.begin(), loaded.history.end());
        } else {
          wave_error = "wave record of " + std::to_string(count) + " trials totaling " +
                       std::to_string(wave.trials_total) + " does not continue " +
                       std::to_string(history.size()) + " recovered trials";
          break;
        }
        live = loaded.live;  // Absent on a mid-window wave: replay-only.
      }
      if (!wave_error.empty()) {
        fail_entry(wave_error);
        continue;
      }
      // A record keeps each score objective as of its own wave.
      if (managed->spec.objective == ObjectiveKind::kScore) {
        RefreshScoreObjectives(&history);
      }

      if (terminal) {
        managed->state = rec.state == "done"
                             ? State::kDone
                             : (rec.state == "failed" ? State::kFailed : State::kStopped);
        managed->failed = rec.state == "failed";
        managed->error = rec.error;
        // A finished session never steps again; keeping the freshly built
        // (never-stepped) machinery would make Result export a NEW
        // session's live RNG as if it were the final one. The last wave's
        // live state is the final one instead: a done or drained session
        // commits nothing after its last wave, and a StepBatch past the
        // budget draws no randomness. Failed sessions render replay-only.
        if (managed->state != State::kFailed) {
          managed->final_live = live;
        }
        managed->session.reset();
        managed->searcher.reset();
        managed->bench.reset();
        MirrorLocked(managed.get(), history);
        sessions_.push_back(std::move(managed));
        ++finished;
        continue;
      }

      if (!history.empty()) {
        // Empty live state (a mid-window wave) resumes replay-only.
        if (!managed->session->Resume(history, live)) {
          fail_entry("checkpoint live state rejected by resume");
          continue;
        }
        MirrorLocked(managed.get(), history);
        managed->journaled = managed->committed.size();
        ++resumed;
      } else {
        // Never stepped: a warm one sees the sessions before it in the
        // journal. Once waves exist, the journaled live state already
        // embodies whatever the searcher observed before its first proposal.
        if (managed->warm_requested) {
          GatherWarmPriorLocked(managed.get());
        }
        ++requeued;
      }
      managed->state = State::kSubmitted;
      managed->pause_requested = rec.state == "paused";
      sessions_.push_back(std::move(managed));
    }

    // Session ids must keep increasing across the crash.
    for (const auto& managed : sessions_) {
      if (managed->id.size() > 1 && managed->id[0] == 's') {
        size_t numeric = std::strtoull(managed->id.c_str() + 1, nullptr, 10);
        next_id_ = std::max(next_id_, numeric + 1);
      }
    }

    RewriteJournalLocked();
    FillRunningSlots();
    status_version_.fetch_add(1, std::memory_order_release);
  }
  *summary = "recovered " + std::to_string(replay.sessions.size()) + " session(s): " +
             std::to_string(resumed) + " resumed, " + std::to_string(requeued) +
             " requeued, " + std::to_string(finished) + " finished, " +
             std::to_string(unrecoverable) + " unrecoverable";
  return true;
}

void SessionManager::DiscardJournal() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  if (journal_ != nullptr &&
      std::filesystem::file_size(journal_->path(), ec) > SessionJournal::Header().size()) {
    RewriteJournalLocked();  // The fleet is empty: header only.
  }
}

void SessionManager::RewriteJournalLocked() {
  if (journal_ == nullptr) {
    return;
  }
  // The compacted equivalent of the fleet: one submit record, one wave
  // record from trial 0, one state record per session. Replacing the file
  // atomically bounds journal growth across restarts — without this, every
  // recovery would replay (and re-copy) every crash's deltas forever.
  std::string text = SessionJournal::Header();
  for (const auto& managed : sessions_) {
    text += SessionJournal::SubmitLine(managed->id, managed->job_text,
                                       managed->warm_requested);
    if (!managed->committed.empty()) {
      CheckpointLiveState live;
      std::string payload = CheckpointToText(
          managed->committed, LiveStateLocked(*managed, &live) ? &live : nullptr);
      text += SessionJournal::WaveLine(managed->id, managed->committed.size(), payload);
    }
    if (managed->state != State::kSubmitted) {
      text += SessionJournal::StateLine(managed->id, StateName(managed->state),
                                        managed->error);
    } else if (managed->pause_requested) {
      text += SessionJournal::StateLine(managed->id, "paused", managed->error);
    }
  }
  journal_->Close();
  std::string error;
  if (!AtomicWriteFile(journal_->path(), text, &error)) {
    journal_open_error_ = "journal rewrite failed: " + error;
    journal_.reset();
    return;
  }
  SessionJournal::OpenResult opened = journal_->Open();
  if (!opened.ok) {
    journal_open_error_ = "journal reopen failed: " + opened.error;
    journal_.reset();
  }
}

void SessionManager::Drive(Managed* managed) {
  // The deferred warm-start observation: model retraining over the prior
  // history happens here, on the driver thread, never on the accept thread
  // (no lock needed — the driver owns the searcher until it finishes).
  if (!managed->warm_prior.empty()) {
    SearchContext context;
    context.space = managed->space.get();
    context.history = &managed->warm_prior;
    context.sample_options = managed->spec.SamplingBias();
    Rng warm_rng(HashCombine(managed->spec.seed, StableHash("wfd-warm-start")));
    context.rng = &warm_rng;
    managed->searcher->ObserveBatch(
        Span<const TrialRecord>(managed->warm_prior.data(), managed->warm_prior.size()),
        context);
    managed->warm_prior.clear();
    managed->warm_prior.shrink_to_fit();
  }
  bool done = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      bool was_paused = false;
      while (managed->pause_requested && !shutdown_) {
        if (managed->state != State::kPaused) {
          managed->state = State::kPaused;
          JournalStateLocked(*managed);  // A crash now recovers as paused.
          NotifyLocked(*managed);        // Watchers see the pause land.
          was_paused = true;
        }
        state_changed_.notify_all();
        state_changed_.wait(lock);
      }
      if (shutdown_) {
        break;
      }
      managed->state = State::kRunning;
      if (was_paused) {
        JournalStateLocked(*managed);  // ... cancels the journaled pause.
        NotifyLocked(*managed);        // ... and the resume.
      }
    }
    // The step runs unlocked: it is the long pole (proposals, evaluations,
    // model updates) and other sessions/requests must not wait on it. The manager only ever observes the session between steps.
    size_t committed = 0;
    int64_t wave_start_ns = obs::Enabled() ? obs::NowNs() : 0;
    if (wave_start_ns != 0 && managed->run_start_ns == 0) {
      managed->run_start_ns = wave_start_ns;
    }
    try {
      committed = managed->session->StepBatch();
    } catch (const std::exception& e) {
      // A daemon must outlive any one session: the failure is recorded
      // (state `failed`, error in status) instead of unwinding the driver.
      std::lock_guard<std::mutex> lock(mutex_);
      managed->error = std::string("session step failed: ") + e.what();
      managed->failed = true;
      break;
    }
    if (wave_start_ns != 0 && committed > 0) {
      uint64_t wave_ns = static_cast<uint64_t>(obs::NowNs() - wave_start_ns);
      managed->wave_latency_ns.Record(wave_ns);
      g_wave_ns.Record(wave_ns);
      g_waves.Add(1);
      g_trials.Add(committed);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    PersistNewTrials(managed);
    if (committed == 0) {
      done = true;
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  managed->state = managed->failed ? State::kFailed : (done ? State::kDone : State::kStopped);
  JournalStateLocked(*managed);  // done/failed/stopped becomes durable.
  --running_;
  if (!shutdown_) {
    FillRunningSlots();
  }
  NotifyLocked(*managed);  // Terminal push: watchers learn done/failed/stopped.
  state_changed_.notify_all();
}

bool SessionManager::Pause(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Managed* managed = FindLocked(id);
  if (managed == nullptr || managed->state == State::kDone ||
      managed->state == State::kFailed || managed->state == State::kStopped) {
    return false;
  }
  managed->pause_requested = true;
  return true;
}

bool SessionManager::Resume(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Managed* managed = FindLocked(id);
  // Mirror Pause: acknowledging `resume` on a finished session would tell
  // the caller a dead session is running again.
  if (managed == nullptr || managed->state == State::kDone ||
      managed->state == State::kFailed || managed->state == State::kStopped) {
    return false;
  }
  managed->pause_requested = false;
  state_changed_.notify_all();
  return true;
}

SessionStatus SessionManager::Snapshot(const Managed& managed) const {
  SessionStatus status;
  status.id = managed.id;
  status.name = managed.spec.name;
  status.algorithm = managed.spec.algorithm;
  status.state = StateName(managed.state);
  status.trials = managed.committed.size();
  status.iterations = managed.spec.iterations;
  status.has_best = managed.has_best;
  status.best = managed.best;
  status.sim_seconds = managed.committed.empty() ? 0.0 : managed.committed.back().sim_time_end;
  status.warm_started = managed.warm_started;
  status.build_failed = managed.failures.build_failed;
  status.boot_failed = managed.failures.boot_failed;
  status.run_crashed = managed.failures.run_crashed;
  status.timeouts = managed.failures.timeouts;
  status.retries = managed.retries;
  status.drift_events = managed.drift_events;
  status.recovered = managed.recovered;
  // Stamp the manager's status version: watchers persist the last one they
  // saw and hand it back (`since_version`) when they reconnect, so a
  // re-subscribe after a dropped connection skips the stale baseline.
  status.version = StatusVersion();
  // Observability gauges: all zero (and absent on the wire) unless the
  // wave-boundary mirror refresh ran with recording on.
  status.memory_bytes = managed.memory_bytes;
  status.wave_p50_ms = managed.wave_p50_ms;
  status.wave_p99_ms = managed.wave_p99_ms;
  status.trials_per_sec = managed.trials_per_sec;
  status.store_key = managed.store_key;
  status.error = managed.error;
  return status;
}

bool SessionManager::Status(const std::string& id, SessionStatus* status) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Managed* managed = FindLocked(id);
  if (managed == nullptr) {
    return false;
  }
  *status = Snapshot(*managed);
  return true;
}

std::vector<SessionStatus> SessionManager::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SessionStatus> statuses;
  statuses.reserve(sessions_.size());
  for (const auto& managed : sessions_) {
    statuses.push_back(Snapshot(*managed));
  }
  return statuses;
}

bool SessionManager::Result(const std::string& id, std::string* checkpoint_text,
                            std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  Managed* managed = FindLocked(id);
  if (managed == nullptr) {
    *error = "unknown session: " + id;
    return false;
  }
  // `committed` mirrors the history at the last wave boundary, so reading
  // it here never races the driver's in-flight StepBatch. Live state is
  // only captured when the driver is idle.
  bool idle = managed->state == State::kDone || managed->state == State::kPaused ||
              managed->state == State::kStopped || managed->state == State::kSubmitted;
  CheckpointLiveState live;
  *checkpoint_text = CheckpointToText(
      managed->committed, idle && LiveStateLocked(*managed, &live) ? &live : nullptr);
  return true;
}

bool SessionManager::TraceJson(const std::string& id, std::string* json,
                               std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  Managed* managed = FindLocked(id);
  if (managed == nullptr) {
    *error = "unknown session: " + id;
    return false;
  }
  std::vector<obs::TraceEvent> events;
  if (managed->session != nullptr) {
    events = managed->session->trace().Snapshot();
  }
  *json = obs::RenderChromeTrace(events, managed->id);
  return true;
}

bool SessionManager::WaitDone(const std::string& id, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Deadline from the TraceClock seam (obs-clock-seam: src/obs/ owns every
  // monotonic-clock read outside itself).
  auto deadline = obs::DeadlineAfterMs(timeout_ms);
  for (;;) {
    const Managed* managed = FindLocked(id);
    if (managed == nullptr) {
      return false;
    }
    if (managed->state == State::kDone || managed->state == State::kFailed ||
        managed->state == State::kStopped) {
      return true;
    }
    if (timeout_ms > 0) {
      if (state_changed_.wait_until(lock, deadline) == std::cv_status::timeout) {
        const Managed* final_check = FindLocked(id);
        return final_check != nullptr &&
               (final_check->state == State::kDone ||
                final_check->state == State::kFailed ||
                final_check->state == State::kStopped);
      }
    } else {
      state_changed_.wait(lock);
    }
  }
}

void SessionManager::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
    state_changed_.notify_all();
  }
  for (auto& managed : sessions_) {
    if (managed->driver.joinable()) {
      managed->driver.join();
    }
  }
  // Drivers are gone: sessions are at wave boundaries, safe to checkpoint.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!options_.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
    for (auto& managed : sessions_) {
      if (managed->session == nullptr || managed->committed.empty()) {
        continue;
      }
      CheckpointLiveState live;
      SaveCheckpoint(managed->committed,
                     options_.checkpoint_dir + "/" + managed->id + ".ckpt",
                     LiveStateLocked(*managed, &live) ? &live : nullptr);
    }
  }
  // Terminal state records were already journaled by the drive epilogues.
  // A journal degraded by a failed append stopped at a valid prefix that
  // lacks the trials committed since; rewriting it whole from the mirrors
  // is what keeps a drain from losing any.
  if (journal_ != nullptr && !journal_->healthy()) {
    RewriteJournalLocked();
  }
  if (journal_ != nullptr) {
    journal_->Close();
  }
}

}  // namespace wayfinder
