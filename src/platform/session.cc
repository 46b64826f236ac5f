#include "src/platform/session.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/simos/apps.h"
#include "src/util/stats.h"

namespace wayfinder {

SearchSession::SearchSession(Testbench* bench, Searcher* searcher, const SessionOptions& options)
    : bench_(bench),
      searcher_(searcher),
      options_(options),
      rng_(options.seed),
      searcher_rng_(HashCombine(options.seed, 0x5ea7c4e7)) {}

bool SearchSession::SameImageParams(const Configuration& a, const Configuration& b) const {
  const ConfigSpace& space = bench_->space();
  for (size_t i = 0; i < space.Size(); ++i) {
    if (space.Param(i).phase == ParamPhase::kRuntime) {
      continue;
    }
    if (a.Raw(i) != b.Raw(i)) {
      return false;
    }
  }
  return true;
}

double TrialObjective(const TrialOutcome& outcome, ObjectiveKind objective, AppId app) {
  if (!outcome.ok()) {
    return std::nan("");
  }
  switch (objective) {
    case ObjectiveKind::kAppMetric: {
      const AppProfile& profile = GetApp(app);
      // Normalize polarity: objectives are always maximized.
      return profile.maximize ? outcome.metric : -outcome.metric;
    }
    case ObjectiveKind::kMemoryFootprint:
      return -outcome.memory_mb;
    case ObjectiveKind::kScore:
      // Placeholder; RefreshScoreObjectives recomputes all score
      // objectives over the history after each observation.
      return 0.0;
  }
  return std::nan("");
}

void RefreshScoreObjectives(std::vector<TrialRecord>* history) {
  // Eq. 4: s = mXNorm(throughput) - mXNorm(memory), over successful trials.
  std::vector<size_t> indices;
  std::vector<double> throughput;
  std::vector<double> memory;
  for (size_t i = 0; i < history->size(); ++i) {
    if ((*history)[i].outcome.ok()) {
      indices.push_back(i);
      throughput.push_back((*history)[i].outcome.metric);
      memory.push_back((*history)[i].outcome.memory_mb);
    }
  }
  std::vector<double> t_norm = MinMaxNormalize(throughput);
  std::vector<double> m_norm = MinMaxNormalize(memory);
  for (size_t k = 0; k < indices.size(); ++k) {
    (*history)[indices[k]].objective = t_norm[k] - m_norm[k];
  }
}

double SearchSession::ComputeObjective(const TrialOutcome& outcome) const {
  return TrialObjective(outcome, options_.objective, bench_->app());
}

void SearchSession::RefreshScores() { RefreshScoreObjectives(&history_); }

SearchContext SearchSession::MakeContext() {
  SearchContext context;
  context.space = &bench_->space();
  context.history = &history_;
  context.sample_options = options_.sample_options;
  context.rng = &searcher_rng_;
  return context;
}

void SearchSession::DedupProposal(SearchContext& context, Configuration* config) {
  for (size_t retry = 0; retry < kDedupRetries; ++retry) {
    if (seen_hashes_.count(config->Hash()) == 0) {
      break;
    }
    *config = searcher_->Propose(context);
  }
  seen_hashes_.insert(config->Hash());
}

void SearchSession::CommitTrial(PendingTrial&& pending, double end_time,
                                int64_t stamp_ns) {
  // Trial-scoped trace instants, stamped in deterministic commit order (the
  // batch executor calls CommitTrial from the commit wave). Retries are
  // stamped here rather than inside the evaluation policy, so the ring sees
  // the same order the history does.
  if (obs::Enabled()) {
    const uint64_t iteration = history_.size();
    const int64_t now_ns = stamp_ns != 0 ? stamp_ns : obs::NowNs();
    // One stamp, one batched ring append for the whole trial: these are
    // bookkeeping instants, not spans, so sharing the stamp loses nothing
    // and keeps the per-trial overhead to a single clock read and lock.
    obs::TraceEvent instants[16];
    size_t n = 0;
    auto stamp = [&](obs::TraceKind kind) {
      instants[n++] = obs::TraceEvent{kind, iteration, now_ns, 0};
      if (n == sizeof(instants) / sizeof(instants[0])) {
        trace_.RecordBatch(instants, n);
        n = 0;
      }
    };
    if (!pending.skip_build) {
      stamp(obs::TraceKind::kBuild);
    }
    for (size_t i = 0; i < pending.retries; ++i) {
      stamp(obs::TraceKind::kRetry);
    }
    stamp(obs::TraceKind::kCommit);
    trace_.RecordBatch(instants, n);
  }
  TrialRecord record;
  record.iteration = history_.size();
  record.config = std::move(pending.config);
  record.outcome = std::move(pending.outcome);
  if (record.outcome.ok() && options_.deploy_check != nullptr &&
      !options_.deploy_check(record.config, record.outcome)) {
    // §3.5: a failed deployment check is learned exactly like a crash.
    record.outcome.status = TrialOutcome::Status::kRunCrashed;
    record.outcome.failure_reason = "deployment check failed";
    record.outcome.metric = 0.0;
  }
  record.objective = ComputeObjective(record.outcome);
  record.sim_time_end = end_time;
  retries_ += pending.retries;
  AppendCommitted(std::move(record));
}

void SearchSession::AppendCommitted(TrialRecord record) {
  // The build cache warms from the last image that actually built. The
  // testbench sets build_skipped from the flag the trial was evaluated with.
  if (!record.outcome.build_skipped) {
    ++builds_;
    if (record.outcome.status != TrialOutcome::Status::kBuildFailed) {
      last_built_image_ = record.config;
    }
  } else {
    ++builds_skipped_;
  }
  if (record.crashed()) {
    ++crashes_;
    failures_.Add(record.outcome.status);
  }
  history_.push_back(std::move(record));
}

TrialOutcome SearchSession::EvaluateWithPolicy(Testbench* bench, const Configuration& config,
                                               Rng& rng, SimClock* clock, bool skip_build,
                                               bool boot_only, uint64_t seed_base,
                                               size_t* retries_used) const {
  TrialOutcome outcome = bench->Evaluate(config, rng, clock, skip_build, boot_only);
  // Transient-class failures say nothing about the configuration; re-issue
  // the trial on a fresh counter-derived stream, charging every attempt.
  for (size_t attempt = 1; attempt <= options_.retry_transient && outcome.transient();
       ++attempt) {
    Rng retry_rng(HashCombine(HashCombine(seed_base, 0x7e7271), attempt));
    outcome = bench->Evaluate(config, retry_rng, clock, skip_build, boot_only);
    ++*retries_used;
  }
  // Median-of-k for noisy measurements: the image is already built, so the
  // repeats skip the build phase; only the metric is re-measured.
  if (outcome.ok() && options_.measure_repeats > 1 && !boot_only) {
    std::vector<double> metrics{outcome.metric};
    for (size_t repeat = 1; repeat < options_.measure_repeats; ++repeat) {
      Rng repeat_rng(HashCombine(HashCombine(seed_base, 0x3e9ea7), repeat));
      TrialOutcome again =
          bench->Evaluate(config, repeat_rng, clock, /*skip_build=*/true, boot_only);
      if (again.ok()) {
        metrics.push_back(again.metric);
      }
    }
    std::sort(metrics.begin(), metrics.end());
    outcome.metric = metrics[(metrics.size() - 1) / 2];  // Lower median.
  }
  return outcome;
}

bool SearchSession::Step() {
  if (history_.size() >= options_.max_iterations || clock_.Now() >= options_.max_sim_seconds) {
    return false;
  }
  SearchContext context = MakeContext();

  const uint64_t trace_iter = history_.size();
  const bool tracing = obs::Enabled();
  WallTimer timer;
  PendingTrial pending;
  pending.config = searcher_->Propose(context);
  DedupProposal(context, &pending.config);
  // The propose span reuses the searcher-seconds stopwatch stamps, so
  // tracing it costs no clock reads the untraced loop does not already pay.
  const int64_t propose_ns = timer.ElapsedNs();
  double propose_seconds = static_cast<double>(propose_ns) * 1e-9;
  if (tracing) {
    trace_.Record(obs::TraceKind::kPropose, trace_iter, timer.start_ns(),
                  propose_ns);
  }

  pending.skip_build =
      last_built_image_.has_value() && SameImageParams(pending.config, *last_built_image_);
  bool boot_only = options_.objective == ObjectiveKind::kMemoryFootprint;
  // Serial evaluation draws from the session RNG and advances the session
  // clock directly — byte for byte the pre-batch loop (the policy wrapper
  // only draws extra streams when retries/repeats are enabled). The retry
  // seed base matches the batch slot formula at slot 0.
  pending.rng_seed = HashCombine(HashCombine(options_.seed, 0xba7c4),
                                 static_cast<uint64_t>(history_.size()));
  // The evaluate span chains off the propose span's end stamp: the
  // bookkeeping between them is tens of nanoseconds, so sharing the stamp
  // costs no fidelity, and only the span's end pays a fresh clock read.
  const int64_t evaluate_start_ns = timer.start_ns() + propose_ns;
  pending.outcome = EvaluateWithPolicy(bench_, pending.config, rng_, &clock_,
                                       pending.skip_build, boot_only, pending.rng_seed,
                                       &pending.retries);
  int64_t evaluate_end_ns = 0;
  if (tracing) {
    evaluate_end_ns = obs::NowNs();
    trace_.Record(obs::TraceKind::kEvaluate, trace_iter, evaluate_start_ns,
                  evaluate_end_ns - evaluate_start_ns);
  }

  CommitTrial(std::move(pending), clock_.Now(), evaluate_end_ns);
  if (options_.objective == ObjectiveKind::kScore) {
    RefreshScores();
  }

  timer.Restart();
  searcher_->Observe(history_.back(), context);
  // Like the propose span, the observe span rides the stopwatch stamps.
  const int64_t observe_ns = timer.ElapsedNs();
  if (tracing) {
    trace_.Record(obs::TraceKind::kObserve, trace_iter, timer.start_ns(),
                  observe_ns);
  }
  history_.back().searcher_seconds =
      propose_seconds + static_cast<double>(observe_ns) * 1e-9;
  MaybeDetectDrift(context);
  return true;
}

size_t SearchSession::StepBatch() {
  if (options_.parallel_evaluations <= 1) {
    return Step() ? 1 : 0;
  }
  RefillWindow();
  return CommitWave();
}

void SearchSession::RefillWindow() {
  const size_t window = options_.parallel_evaluations;
  if (clock_.Now() >= options_.max_sim_seconds ||
      history_.size() + in_flight_.size() >= options_.max_iterations) {
    return;
  }
  size_t n = std::min(window - in_flight_.size(),
                      options_.max_iterations - history_.size() - in_flight_.size());
  if (n == 0) {
    return;
  }
  // Batch proposals draw entropy from a counter-derived stream instead of
  // the serial session stream, so a session Resume()d at a commit boundary
  // proposes exactly what the uninterrupted run would have. Lock-step keys
  // it on trials committed and sliding on proposals launched: the two agree
  // except after a drift re-validation trial, which commits without being
  // proposed.
  const uint64_t key = options_.sliding_window ? proposed_count_ : history_.size();
  SearchContext context = MakeContext();
  batch_rng_ = Rng(HashCombine(HashCombine(options_.seed, 0x6a7cb), key));
  context.rng = &batch_rng_;

  // --- Propose one batch, dedup each slot against history and earlier
  // slots (DedupProposal marks hashes seen as it goes). ---------------------
  int64_t span_start = obs::Enabled() ? obs::NowNs() : 0;
  WallTimer timer;
  std::vector<Configuration> batch;
  searcher_->ProposeBatch(context, n, &batch);
  if (batch.empty()) {
    batch.push_back(searcher_->Propose(context));
  }
  n = std::min(n, batch.size());
  for (size_t slot = 0; slot < n; ++slot) {
    DedupProposal(context, &batch[slot]);
  }
  pending_propose_seconds_ += timer.ElapsedSeconds();
  if (span_start != 0) {
    trace_.Record(obs::TraceKind::kPropose, key, span_start, obs::NowNs() - span_start);
  }

  // --- Launch and evaluate, slot by slot. ----------------------------------
  // Each trial gets its own counter-derived RNG stream, seeded from the
  // session seed and the entropy key, and its own SimClock starting at 0.
  // The bench's time origin anchors that clock at the launch time, so
  // scheduled faults (drift_at) see global simulated time. The evaluation
  // happens eagerly; virtual time decides when the result may commit. Every
  // slot compares against the image built before the launch: the virtual
  // testbenches start with the same cached image.
  const double start_time = clock_.Now();
  const bool boot_only = options_.objective == ObjectiveKind::kMemoryFootprint;
  span_start = obs::Enabled() ? obs::NowNs() : 0;
  bench_->SetSimTimeOrigin(start_time);
  for (size_t slot = 0; slot < n; ++slot) {
    PendingTrial trial;
    trial.config = std::move(batch[slot]);
    trial.skip_build = last_built_image_.has_value() &&
                       SameImageParams(trial.config, *last_built_image_);
    trial.rng_seed = HashCombine(HashCombine(options_.seed, 0xba7c4), key + slot);
    Rng trial_rng(trial.rng_seed);
    SimClock local_clock;
    trial.outcome = EvaluateWithPolicy(bench_, trial.config, trial_rng, &local_clock,
                                       trial.skip_build, boot_only, trial.rng_seed,
                                       &trial.retries);
    trial.sim_seconds = local_clock.Now();
    trial.finish_time = start_time + trial.sim_seconds;
    in_flight_.push_back(std::move(trial));
  }
  // Serial steps and drift re-validation evaluate on the session clock.
  bench_->SetSimTimeOrigin(0.0);
  proposed_count_ += n;
  if (span_start != 0) {
    trace_.Record(obs::TraceKind::kEvaluate, key, span_start, obs::NowNs() - span_start);
  }
}

size_t SearchSession::CommitWave() {
  if (in_flight_.empty()) {
    return 0;
  }
  // The wave is moved to the front of the window, in commit order.
  auto wave_end = in_flight_.end();
  double advance = 0.0;
  if (options_.sliding_window) {
    // The trials tied at the earliest virtual finish, in proposal order.
    double earliest = in_flight_.front().finish_time;
    for (const PendingTrial& trial : in_flight_) {
      earliest = std::min(earliest, trial.finish_time);
    }
    wave_end = std::stable_partition(
        in_flight_.begin(), in_flight_.end(),
        [earliest](const PendingTrial& trial) { return trial.finish_time == earliest; });
    advance = earliest - clock_.Now();
  } else {
    // The barrier: the whole window, in the order the simulated testbenches
    // finish — ascending own duration, ties by batch index. The round ends
    // when its slowest testbench does.
    std::stable_sort(in_flight_.begin(), in_flight_.end(),
                     [](const PendingTrial& a, const PendingTrial& b) {
                       return a.sim_seconds < b.sim_seconds;
                     });
    advance = in_flight_.back().sim_seconds;
  }
  const size_t n = static_cast<size_t>(wave_end - in_flight_.begin());
  for (auto it = in_flight_.begin(); it != wave_end; ++it) {
    const double finish_time = it->finish_time;
    CommitTrial(std::move(*it), finish_time);
  }
  in_flight_.erase(in_flight_.begin(), wave_end);
  clock_.Advance(advance);
  if (options_.objective == ObjectiveKind::kScore) {
    RefreshScores();
  }

  // --- Feed the wave back, in commit order. --------------------------------
  SearchContext context = MakeContext();
  context.rng = &batch_rng_;
  int64_t span_start = obs::Enabled() ? obs::NowNs() : 0;
  WallTimer timer;
  searcher_->ObserveBatch(Span<const TrialRecord>(history_.data() + history_.size() - n, n),
                          context);
  if (span_start != 0) {
    trace_.Record(obs::TraceKind::kObserve, history_.size() - n, span_start,
                  obs::NowNs() - span_start);
  }
  double per_trial_seconds =
      (pending_propose_seconds_ + timer.ElapsedSeconds()) / static_cast<double>(n);
  pending_propose_seconds_ = 0.0;
  for (size_t i = history_.size() - n; i < history_.size(); ++i) {
    history_[i].searcher_seconds = per_trial_seconds;
  }
  // Only at an empty window (always, under lock-step): a re-validation
  // trial committed mid-window would reorder against in-flight proposals.
  if (in_flight_.empty()) {
    MaybeDetectDrift(context);
  }
  return n;
}

bool SearchSession::DriftFired(size_t* best_index) {
  if (!options_.drift_detection) {
    return false;
  }
  const size_t window = std::max<size_t>(options_.drift_window, 2);
  // All-time best successful objective, its index, the total success count,
  // and the best within the trailing window of successes.
  double best = 0.0;
  bool have_best = false;
  size_t successes = 0;
  for (size_t i = 0; i < history_.size(); ++i) {
    if (!history_[i].HasObjective()) {
      continue;
    }
    ++successes;
    if (!have_best || history_[i].objective > best) {
      best = history_[i].objective;
      *best_index = i;
      have_best = true;
    }
  }
  // Need a pre-window baseline to regress against, and a cooldown of one
  // full window of fresh successes after the previous event.
  if (!have_best || successes < 2 * window ||
      successes - successes_at_last_drift_ < window) {
    return false;
  }
  double recent_best = 0.0;
  bool have_recent = false;
  size_t counted = 0;
  for (size_t i = history_.size(); i > 0 && counted < window; --i) {
    const TrialRecord& trial = history_[i - 1];
    if (!trial.HasObjective()) {
      continue;
    }
    ++counted;
    if (!have_recent || trial.objective > recent_best) {
      recent_best = trial.objective;
      have_recent = true;
    }
  }
  double scale = std::max(std::fabs(best), 1e-9);
  if (best - recent_best <= options_.drift_threshold * scale) {
    return false;
  }
  // Drift: even the best of a whole recent window sits far below the
  // historical elite — the landscape moved, not just one unlucky trial.
  ++drift_events_;
  successes_at_last_drift_ = successes;
  return true;
}

void SearchSession::MaybeDetectDrift(SearchContext& context) {
  size_t best_index = 0;
  if (!DriftFired(&best_index)) {
    return;
  }
  trace_.RecordInstant(obs::TraceKind::kDriftRevalidate, history_.size());
  searcher_->OnDrift(context);

  // Elite re-validation: re-measure the historical best configuration on
  // the current landscape so its post-drift value enters the history (and
  // the searcher's refreshed elite set) as a regular budget-charged trial.
  if (history_.size() >= options_.max_iterations || clock_.Now() >= options_.max_sim_seconds) {
    return;
  }
  PendingTrial pending;
  pending.config = history_[best_index].config;
  pending.rng_seed = HashCombine(HashCombine(options_.seed, 0xd21f7),
                                 static_cast<uint64_t>(drift_events_));
  pending.skip_build =
      last_built_image_.has_value() && SameImageParams(pending.config, *last_built_image_);
  Rng revalidate_rng(pending.rng_seed);
  bool boot_only = options_.objective == ObjectiveKind::kMemoryFootprint;
  pending.outcome = EvaluateWithPolicy(bench_, pending.config, revalidate_rng, &clock_,
                                       pending.skip_build, boot_only, pending.rng_seed,
                                       &pending.retries);
  CommitTrial(std::move(pending), clock_.Now());
  if (options_.objective == ObjectiveKind::kScore) {
    RefreshScores();
  }
  searcher_->Observe(history_.back(), context);
}

SessionResult SearchSession::Finish() {
  SessionResult result;
  result.history = history_;
  result.total_sim_seconds = clock_.Now();
  result.crashes = crashes_;
  result.builds = builds_;
  result.builds_skipped = builds_skipped_;
  result.build_failures = failures_.build_failed;
  result.boot_failures = failures_.boot_failed;
  result.run_crashes = failures_.run_crashed;
  result.timeouts = failures_.timeouts;
  result.transient_retries = retries_;
  result.drift_events = drift_events_;
  for (size_t i = 0; i < result.history.size(); ++i) {
    const TrialRecord& trial = result.history[i];
    if (!trial.HasObjective()) {
      continue;
    }
    if (!result.best_index.has_value() ||
        trial.objective > result.history[*result.best_index].objective) {
      result.best_index = i;
    }
  }
  return result;
}

bool SearchSession::Resume(const std::vector<TrialRecord>& prior,
                           const CheckpointLiveState& live) {
  assert(history_.empty() && "Resume must precede the first Step()");
  // The replay runs against fresh RNG streams (Observe must not consume the
  // restored state); the live positions overwrite them afterwards.
  SearchContext context = MakeContext();
  const bool serial = options_.parallel_evaluations <= 1;
  bool revalidation_next = false;
  size_t best_index = 0;
  for (const TrialRecord& trial : prior) {
    seen_hashes_.insert(trial.config.Hash());
    AppendCommitted(trial);
    // Step hands Observe each trial's Eq. 4 score over the trials up to and
    // including it; the stored one is over the whole prior. (Batch sessions
    // refresh once per wave, and the prior records no wave boundaries.)
    if (options_.objective == ObjectiveKind::kScore) {
      RefreshScores();
    }
    searcher_->Observe(history_.back(), context);
    // Step runs the drift detector after each observation except a
    // re-validation's, and a firing's re-validation is the next trial it
    // commits. Replaying that rebuilds the event count (which seeds later
    // re-validations), the cooldown, and the searcher's OnDrift state.
    // Batch sessions detect at wave boundaries the prior does not record.
    if (revalidation_next) {
      revalidation_next = false;
    } else if (serial && DriftFired(&best_index)) {
      searcher_->OnDrift(context);
      revalidation_next = true;
    }
  }
  if (!history_.empty()) {
    clock_.Advance(history_.back().sim_time_end - clock_.Now());
  }
  proposed_count_ = history_.size();
  if (options_.objective == ObjectiveKind::kScore) {
    RefreshScores();
  }
  if (!live.session_rng.empty() && !rng_.DeserializeState(live.session_rng)) {
    return false;
  }
  if (!live.searcher_rng.empty() && !searcher_rng_.DeserializeState(live.searcher_rng)) {
    return false;
  }
  return searcher_->RestoreState(live.searcher_state);
}

CheckpointLiveState SearchSession::ExportLiveState() const {
  CheckpointLiveState live;
  live.session_rng = rng_.SerializeState();
  live.searcher_rng = searcher_rng_.SerializeState();
  live.searcher_state = searcher_->ExportState();
  return live;
}

SessionResult SearchSession::Run() {
  while (StepBatch() > 0) {
  }
  return Finish();
}

SessionResult RunSearch(Testbench* bench, Searcher* searcher, const SessionOptions& options) {
  SearchSession session(bench, searcher, options);
  return session.Run();
}

std::vector<SeriesPoint> ObjectiveSeries(const std::vector<TrialRecord>& history) {
  std::vector<SeriesPoint> series;
  for (const TrialRecord& trial : history) {
    if (trial.HasObjective()) {
      series.push_back({trial.sim_time_end, trial.objective});
    }
  }
  return series;
}

std::vector<double> CrashRateSeries(const std::vector<TrialRecord>& history, size_t window) {
  std::vector<double> crashed(history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    crashed[i] = history[i].crashed() ? 1.0 : 0.0;
  }
  return SmoothSeries(crashed, window);
}

}  // namespace wayfinder
