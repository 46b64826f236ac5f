#include "src/platform/session.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/simos/apps.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

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
  for (size_t retry = 0; retry < options_.dedup_retries; ++retry) {
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
  // batch executors call CommitTrial serially from the merge). Retries are
  // stamped here rather than inside the concurrent evaluation policy, so the
  // ring sees the same order the history does.
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
  TrialOutcome outcome = pending.outcome;
  if (outcome.ok() && options_.deploy_check != nullptr &&
      !options_.deploy_check(pending.config, outcome)) {
    // §3.5: a failed deployment check is learned exactly like a crash.
    outcome.status = TrialOutcome::Status::kRunCrashed;
    outcome.failure_reason = "deployment check failed";
    outcome.metric = 0.0;
  }
  if (!pending.skip_build) {
    ++builds_;
    if (outcome.status != TrialOutcome::Status::kBuildFailed) {
      last_built_image_ = pending.config;
    }
  } else {
    ++builds_skipped_;
  }

  TrialRecord record;
  record.iteration = history_.size();
  record.config = std::move(pending.config);
  record.outcome = outcome;
  record.objective = ComputeObjective(outcome);
  record.sim_time_end = end_time;
  retries_ += pending.retries;
  if (!outcome.ok()) {
    ++crashes_;
    switch (outcome.status) {
      case TrialOutcome::Status::kBuildFailed:
        ++build_failed_;
        break;
      case TrialOutcome::Status::kBootFailed:
        ++boot_failed_;
        break;
      case TrialOutcome::Status::kRunCrashed:
        ++run_crashed_;
        break;
      case TrialOutcome::Status::kTimeout:
        ++timeouts_;
        break;
      case TrialOutcome::Status::kOk:
        break;
    }
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
  size_t retries = 0;
  // The evaluate span chains off the propose span's end stamp: the
  // bookkeeping between them is tens of nanoseconds, so sharing the stamp
  // costs no fidelity, and only the span's end pays a fresh clock read.
  const int64_t evaluate_start_ns = timer.start_ns() + propose_ns;
  pending.outcome = EvaluateWithPolicy(bench_, pending.config, rng_, &clock_,
                                       pending.skip_build, boot_only, pending.rng_seed,
                                       &retries);
  int64_t evaluate_end_ns = 0;
  if (tracing) {
    evaluate_end_ns = obs::NowNs();
    trace_.Record(obs::TraceKind::kEvaluate, trace_iter, evaluate_start_ns,
                  evaluate_end_ns - evaluate_start_ns);
  }
  pending.retries = retries;

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

void SearchSession::EnsureBenchClones(size_t n) {
  while (bench_clones_.size() < n) {
    bench_clones_.push_back(std::make_unique<Testbench>(*bench_));
  }
}

size_t SearchSession::StepBatch() {
  if (options_.parallel_evaluations <= 1) {
    return Step() ? 1 : 0;
  }
  if (options_.sliding_window) {
    return StepSlidingWave();
  }
  if (history_.size() >= options_.max_iterations || clock_.Now() >= options_.max_sim_seconds) {
    return 0;
  }
  size_t n = std::min(options_.parallel_evaluations,
                      options_.max_iterations - history_.size());
  SearchContext context = MakeContext();
  // Batch rounds draw proposal entropy from a counter-derived per-round
  // stream instead of the serial session stream: the round's randomness is
  // then a pure function of (seed, trials committed so far), so a session
  // Resume()d at a round boundary proposes exactly what the uninterrupted
  // run would have — replaying history never has to reconstruct how many
  // draws past proposals consumed.
  Rng round_rng(HashCombine(HashCombine(options_.seed, 0x6a7cb), history_.size()));
  context.rng = &round_rng;

  // --- Propose one batch, dedup each slot against history and earlier
  // slots (DedupProposal marks hashes seen as it goes). ---------------------
  const uint64_t trace_iter = history_.size();
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
  double propose_seconds = timer.ElapsedSeconds();
  if (span_start != 0) {
    trace_.Record(obs::TraceKind::kPropose, trace_iter, span_start,
                  obs::NowNs() - span_start);
  }

  // --- Evaluate the K slots concurrently. ----------------------------------
  // Each slot gets (a) its own Testbench clone — slot i of every round runs
  // on clone i, so any model-internal state evolves identically at any
  // thread count; (b) its own counter-derived RNG stream, seeded from the
  // session seed and the trial's global index; (c) its own SimClock. No
  // state is shared across slots, which is what makes the round — and the
  // whole history — independent of how slots land on physical threads.
  EnsureBenchClones(n);
  const double round_start = clock_.Now();
  const bool boot_only = options_.objective == ObjectiveKind::kMemoryFootprint;
  pending_.clear();
  pending_.resize(n);
  for (size_t slot = 0; slot < n; ++slot) {
    PendingTrial& pending = pending_[slot];
    pending.config = std::move(batch[slot]);
    // Every slot compares against the image built before the round: the
    // virtual testbenches start the round with the same cached image.
    pending.skip_build = last_built_image_.has_value() &&
                         SameImageParams(pending.config, *last_built_image_);
    pending.rng_seed = HashCombine(HashCombine(options_.seed, 0xba7c4),
                                   static_cast<uint64_t>(history_.size() + slot));
  }
  size_t ways = options_.eval_threads == 0 ? n : options_.eval_threads;
  span_start = obs::Enabled() ? obs::NowNs() : 0;
  ThreadPool::Shared().ParallelFor(n, /*grain=*/1, ways, [&](size_t begin, size_t end) {
    for (size_t slot = begin; slot < end; ++slot) {
      PendingTrial& pending = pending_[slot];
      Rng trial_rng(pending.rng_seed);
      SimClock local_clock;
      // Clone clocks start at 0: anchor them at the round start so
      // scheduled faults (drift_at) see global simulated time.
      bench_clones_[slot]->SetSimTimeOrigin(round_start);
      size_t retries = 0;
      pending.outcome = EvaluateWithPolicy(bench_clones_[slot].get(), pending.config,
                                           trial_rng, &local_clock, pending.skip_build,
                                           boot_only, pending.rng_seed, &retries);
      pending.retries = retries;
      pending.sim_seconds = local_clock.Now();
    }
  });
  if (span_start != 0) {
    // One wave-scoped evaluate span for the whole concurrent round.
    trace_.Record(obs::TraceKind::kEvaluate, trace_iter, span_start,
                  obs::NowNs() - span_start);
  }

  // --- Virtual-time merge: commit completions in the order the simulated
  // testbenches would have finished, ties broken by batch index. ------------
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return pending_[a].sim_seconds < pending_[b].sim_seconds;
  });
  double round_span = 0.0;
  for (size_t slot : order) {
    round_span = std::max(round_span, pending_[slot].sim_seconds);
    CommitTrial(std::move(pending_[slot]), round_start + pending_[slot].sim_seconds);
  }
  // The round ends when its slowest virtual testbench finishes.
  clock_.Advance(round_span);
  if (options_.objective == ObjectiveKind::kScore) {
    RefreshScores();
  }

  // --- Feed the committed round back, in commit order. ---------------------
  span_start = obs::Enabled() ? obs::NowNs() : 0;
  timer.Restart();
  searcher_->ObserveBatch(Span<const TrialRecord>(history_.data() + history_.size() - n, n),
                          context);
  if (span_start != 0) {
    trace_.Record(obs::TraceKind::kObserve, trace_iter, span_start,
                  obs::NowNs() - span_start);
  }
  double per_trial_seconds = (propose_seconds + timer.ElapsedSeconds()) / static_cast<double>(n);
  for (size_t i = history_.size() - n; i < history_.size(); ++i) {
    history_[i].searcher_seconds = per_trial_seconds;
  }
  MaybeDetectDrift(context);
  return n;
}

void SearchSession::RefillSlidingSlots() {
  size_t window = options_.parallel_evaluations;
  EnsureBenchClones(window);
  if (free_clones_.empty() && in_flight_.empty()) {
    // First refill: every clone is free, in slot order.
    for (size_t i = 0; i < window; ++i) {
      free_clones_.push_back(i);
    }
  }
  if (clock_.Now() >= options_.max_sim_seconds ||
      history_.size() + in_flight_.size() >= options_.max_iterations) {
    return;
  }
  size_t n = std::min(window - in_flight_.size(),
                      options_.max_iterations - history_.size() - in_flight_.size());
  if (n == 0) {
    return;
  }
  SearchContext context = MakeContext();
  // Same counter-derived entropy recipe as the lock-step round, keyed on
  // proposals launched instead of trials committed: the two counts agree
  // whenever commits happen in full waves, which is exactly the
  // equal-duration case the bit-for-bit pin covers.
  sliding_rng_ = Rng(HashCombine(HashCombine(options_.seed, 0x6a7cb), proposed_count_));
  context.rng = &sliding_rng_;

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
    trace_.Record(obs::TraceKind::kPropose, proposed_count_, span_start,
                  obs::NowNs() - span_start);
  }

  // Launch the refills: each takes the oldest free clone, its own
  // counter-derived RNG stream, and its own local clock, exactly like a
  // lock-step slot. The physical evaluation happens eagerly — virtual time
  // decides when the result is allowed to commit.
  const double start_time = clock_.Now();
  const bool boot_only = options_.objective == ObjectiveKind::kMemoryFootprint;
  size_t first = in_flight_.size();
  for (size_t slot = 0; slot < n; ++slot) {
    InFlight flight;
    flight.trial.config = std::move(batch[slot]);
    flight.trial.skip_build = last_built_image_.has_value() &&
                              SameImageParams(flight.trial.config, *last_built_image_);
    flight.trial.rng_seed = HashCombine(HashCombine(options_.seed, 0xba7c4),
                                        static_cast<uint64_t>(proposed_count_ + slot));
    flight.sequence = proposed_count_ + slot;
    flight.clone = free_clones_.front();
    free_clones_.erase(free_clones_.begin());
    in_flight_.push_back(std::move(flight));
  }
  proposed_count_ += n;
  size_t ways = options_.eval_threads == 0 ? n : options_.eval_threads;
  span_start = obs::Enabled() ? obs::NowNs() : 0;
  ThreadPool::Shared().ParallelFor(n, /*grain=*/1, ways, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      InFlight& flight = in_flight_[first + i];
      Rng trial_rng(flight.trial.rng_seed);
      SimClock local_clock;
      bench_clones_[flight.clone]->SetSimTimeOrigin(start_time);
      size_t retries = 0;
      flight.trial.outcome = EvaluateWithPolicy(bench_clones_[flight.clone].get(),
                                                flight.trial.config, trial_rng, &local_clock,
                                                flight.trial.skip_build, boot_only,
                                                flight.trial.rng_seed, &retries);
      flight.trial.retries = retries;
      flight.trial.sim_seconds = local_clock.Now();
      flight.finish_time = start_time + flight.trial.sim_seconds;
    }
  });
  if (span_start != 0) {
    trace_.Record(obs::TraceKind::kEvaluate, proposed_count_ - n, span_start,
                  obs::NowNs() - span_start);
  }
}

size_t SearchSession::StepSlidingWave() {
  RefillSlidingSlots();
  if (in_flight_.empty()) {
    return 0;
  }
  // The commit wave: every in-flight trial tying the earliest virtual finish
  // time, in proposal order — the same order the lock-step merge's
  // stable_sort produces when a whole round finishes simultaneously.
  double earliest = in_flight_.front().finish_time;
  for (const InFlight& flight : in_flight_) {
    earliest = std::min(earliest, flight.finish_time);
  }
  std::vector<InFlight> wave;
  for (size_t i = 0; i < in_flight_.size();) {
    if (in_flight_[i].finish_time == earliest) {
      wave.push_back(std::move(in_flight_[i]));
      in_flight_.erase(in_flight_.begin() + i);
    } else {
      ++i;
    }
  }
  std::stable_sort(wave.begin(), wave.end(), [](const InFlight& a, const InFlight& b) {
    return a.sequence < b.sequence;
  });
  size_t n = wave.size();
  for (InFlight& flight : wave) {
    free_clones_.push_back(flight.clone);
    CommitTrial(std::move(flight.trial), flight.finish_time);
  }
  clock_.Advance(earliest - clock_.Now());
  if (options_.objective == ObjectiveKind::kScore) {
    RefreshScores();
  }

  SearchContext context = MakeContext();
  context.rng = &sliding_rng_;
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
  // Only at an empty window: a re-validation trial committed mid-window
  // would reorder against in-flight proposals.
  if (in_flight_.empty()) {
    MaybeDetectDrift(context);
  }
  return n;
}

void SearchSession::MaybeDetectDrift(SearchContext& context) {
  if (!options_.drift_detection) {
    return;
  }
  const size_t window = std::max<size_t>(options_.drift_window, 2);
  // All-time best successful objective, its index, the total success count,
  // and the best within the trailing window of successes.
  double best = 0.0;
  size_t best_index = 0;
  bool have_best = false;
  size_t successes = 0;
  for (size_t i = 0; i < history_.size(); ++i) {
    if (!history_[i].HasObjective()) {
      continue;
    }
    ++successes;
    if (!have_best || history_[i].objective > best) {
      best = history_[i].objective;
      best_index = i;
      have_best = true;
    }
  }
  // Need a pre-window baseline to regress against, and a cooldown of one
  // full window of fresh successes after the previous event.
  if (!have_best || successes < 2 * window ||
      successes - successes_at_last_drift_ < window) {
    return;
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
    return;
  }
  // Drift: even the best of a whole recent window sits far below the
  // historical elite — the landscape moved, not just one unlucky trial.
  ++drift_events_;
  successes_at_last_drift_ = successes;
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
  size_t retries = 0;
  bool boot_only = options_.objective == ObjectiveKind::kMemoryFootprint;
  pending.outcome = EvaluateWithPolicy(bench_, pending.config, revalidate_rng, &clock_,
                                       pending.skip_build, boot_only, pending.rng_seed,
                                       &retries);
  pending.retries = retries;
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
  result.build_failures = build_failed_;
  result.boot_failures = boot_failed_;
  result.run_crashes = run_crashed_;
  result.timeouts = timeouts_;
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

void SearchSession::Resume(const std::vector<TrialRecord>& prior) {
  assert(history_.empty() && "Resume must precede the first Step()");
  SearchContext context = MakeContext();
  for (const TrialRecord& trial : prior) {
    history_.push_back(trial);
    seen_hashes_.insert(trial.config.Hash());
    if (trial.crashed()) {
      ++crashes_;
      switch (trial.outcome.status) {
        case TrialOutcome::Status::kBuildFailed:
          ++build_failed_;
          break;
        case TrialOutcome::Status::kBootFailed:
          ++boot_failed_;
          break;
        case TrialOutcome::Status::kRunCrashed:
          ++run_crashed_;
          break;
        case TrialOutcome::Status::kTimeout:
          ++timeouts_;
          break;
        case TrialOutcome::Status::kOk:
          break;
      }
    }
    // The build-skip cache warms from the last image that actually built —
    // mirroring CommitTrial exactly, so a resumed session's cache state
    // matches the run that produced the history. (A build-skipped trial has
    // the same compile/boot parameters as that image anyway; only
    // SameImageParams-irrelevant runtime fields could differ.)
    if (!trial.outcome.build_skipped) {
      ++builds_;
      if (trial.outcome.status != TrialOutcome::Status::kBuildFailed) {
        last_built_image_ = trial.config;
      }
    } else {
      ++builds_skipped_;
    }
    searcher_->Observe(history_.back(), context);
  }
  if (!history_.empty()) {
    clock_.Advance(history_.back().sim_time_end - clock_.Now());
  }
  proposed_count_ = history_.size();
  if (options_.objective == ObjectiveKind::kScore) {
    RefreshScores();
  }
}

bool SearchSession::Resume(const std::vector<TrialRecord>& prior,
                           const CheckpointLiveState& live) {
  // Replay first: it runs against fresh RNG streams exactly like a plain
  // resume (Observe must not consume the restored state), then the live
  // positions overwrite the fresh ones.
  Resume(prior);
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
