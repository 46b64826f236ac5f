// The exploration session: Wayfinder's core loop (§3.1), batch-concurrent.
//
// Serial mode (parallel_evaluations = 1, the default): repeatedly (1) ask
// the search algorithm for the next configuration, (2) build + boot +
// benchmark it on the testbench — skipping the build when compile-/boot-time
// parameters are unchanged since the last built image — and (3) feed the
// outcome back to the algorithm. Bit-identical to the pre-batch loop, pinned
// by test.
//
// Batch mode (parallel_evaluations = K > 1): the session models K virtual
// testbenches racing in simulated time with one batch executor. A refill
// asks the searcher for one batch (Searcher::ProposeBatch) covering the free
// slots of a K-wide window and evaluates each trial on the calling thread,
// in slot order, with its own counter-derived RNG stream and its own
// SimClock anchored at the launch time. A commit wave then commits
// completions in virtual-time order and feeds them back through
// Searcher::ObserveBatch. Lock-step (the default schedule) is that window
// with a barrier: every wave commits the whole window in ascending
// simulated duration, ties broken by batch index. The sliding schedule
// commits only the earliest finishers and refills their slots. K and the
// schedule are part of the experiment and shape the trajectory; physical
// threads play no part (one evaluation costs microseconds of wall time).
//
// Runs until an iteration or simulated-time budget is exhausted and returns
// the full history plus the best configuration found.
#ifndef WAYFINDER_SRC_PLATFORM_SESSION_H_
#define WAYFINDER_SRC_PLATFORM_SESSION_H_

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/configspace/config_space.h"
#include "src/obs/trace.h"
#include "src/platform/checkpoint.h"
#include "src/platform/searcher.h"
#include "src/platform/trial.h"
#include "src/simos/testbench.h"
#include "src/util/sim_clock.h"

namespace wayfinder {

// What the session optimizes.
enum class ObjectiveKind {
  kAppMetric,        // The application's own metric (polarity from the app).
  kMemoryFootprint,  // Boot memory consumption, minimized (Figure 10).
  kScore,            // s = mXNorm(throughput) - mXNorm(memory) (Eq. 4, Fig 11).
};

struct SessionOptions {
  size_t max_iterations = 250;
  double max_sim_seconds = std::numeric_limits<double>::infinity();
  ObjectiveKind objective = ObjectiveKind::kAppMetric;
  SampleOptions sample_options;  // Phase bias (favor runtime/compile-time).
  uint64_t seed = 0x5e55;
  // Virtual testbenches evaluating concurrently. 1 = the serial loop,
  // bit-identical to the pre-batch session. K > 1 proposes K-wide batches
  // and merges completions in virtual-time order; K is part of the
  // experiment (it shapes the trajectory). The K testbenches race in
  // simulated time only: their evaluations run one after another on the
  // calling thread.
  size_t parallel_evaluations = 1;
  // Sliding-window schedule (parallel_evaluations > 1 only). Lock-step, the
  // default, commits the whole K-wide window at once, like a barrier. The
  // sliding schedule instead commits the earliest virtual finisher(s) and
  // refills just the freed slots, keeping K trials in flight at all times —
  // higher utilization when trial durations vary widely. Trials that finish
  // at exactly the same virtual time commit as one wave (ties by proposal
  // order), so with equal-duration trials the schedule degenerates to
  // lock-step rounds and the history is bit-identical to lock-step, pinned
  // by test. Off by default: lock-step is the deterministic baseline the
  // original batch pins were written against.
  bool sliding_window = false;
  // §3.5 "more comprehensive benchmarks": an optional user check of the
  // deployment (e.g. run a test suite against the booted image). Returning
  // false demotes an otherwise-successful trial to a run crash, so the
  // searcher learns the configurations that cause the misbehavior. In batch
  // mode the check runs at commit time, in commit order.
  std::function<bool(const Configuration&, const TrialOutcome&)> deploy_check;
  // --- Re-measurement policy (robustness under fault injection) ------------
  // Retry a transient-class failure (timeout, hang, infrastructure flake —
  // TrialOutcome::transient()) up to this many extra times before committing
  // it. Retries draw from counter-derived RNG streams and every attempt is
  // budget-charged on the trial's clock; only the final attempt enters the
  // history. 0 disables (the default: bit-identical to the pre-policy loop).
  size_t retry_transient = 0;
  // Median-of-k repeated measurement for noisy benchmarks: a successful
  // trial's benchmark re-runs k-1 more times (build skipped, budget-charged)
  // and the committed metric is the median of the successful repeats.
  // 1 disables (default).
  size_t measure_repeats = 1;
  // --- Drift detection ------------------------------------------------------
  // Sliding-window drift detector: when the best objective among the last
  // drift_window successes regresses more than drift_threshold (relative to
  // the all-time best) below that best, the session declares a drift event:
  // Searcher::OnDrift fires (partial retrain / elite invalidation) and the
  // historical best configuration is re-evaluated on the current landscape
  // (elite re-validation, committed as a regular budget-charged trial).
  // Off by default; jobs scheduling FaultPlan::drift_at enable it.
  bool drift_detection = false;
  size_t drift_window = 8;
  double drift_threshold = 0.25;
};

struct SessionResult {
  std::vector<TrialRecord> history;
  // Index into history of the best successful trial; nullopt if none.
  std::optional<size_t> best_index;
  double total_sim_seconds = 0.0;
  size_t crashes = 0;
  size_t builds = 0;
  size_t builds_skipped = 0;
  // Failure taxonomy (crashes broken down by class) plus the robustness
  // policy counters: transient attempts the retry policy consumed, and
  // drift events the detector declared.
  size_t build_failures = 0;
  size_t boot_failures = 0;
  size_t run_crashes = 0;
  size_t timeouts = 0;
  size_t transient_retries = 0;
  size_t drift_events = 0;

  const TrialRecord* best() const {
    return best_index.has_value() ? &history[*best_index] : nullptr;
  }
  double CrashRate() const {
    return history.empty() ? 0.0
                           : static_cast<double>(crashes) / static_cast<double>(history.size());
  }
  // Simulated time at which the best configuration was first evaluated
  // (Table 2's "avg. time to find"); 0 when nothing succeeded.
  double TimeToBest() const { return best_index.has_value() ? history[*best_index].sim_time_end : 0.0; }
};

class SearchSession {
 public:
  SearchSession(Testbench* bench, Searcher* searcher, const SessionOptions& options);

  // Runs the full loop. Can be called once per session object.
  SessionResult Run();

  // Restores a previously checkpointed history before the first Step():
  // each trial goes through CommitTrial's bookkeeping (AppendCommitted) and
  // the searcher's Observe, then the simulated clock is re-seated. Non-empty
  // checkpoint-v2 live fields then restore the RNG streams and the
  // searcher's opaque state, so the continuation is bit-identical to the
  // uninterrupted run, model-based searchers included; an empty `live` (a
  // v1 checkpoint) replays only. False when a present field fails to parse
  // (the session is then unusable). Aborts if called after stepping.
  bool Resume(const std::vector<TrialRecord>& prior, const CheckpointLiveState& live = {});

  // Snapshot of the live randomness for a v2 checkpoint. Meaningful only
  // at a commit boundary — AtCommitBoundary() true — because a sliding
  // session with trials in flight has consumed proposal entropy for trials
  // the history does not (yet) contain; callers checkpoint such sessions
  // without live state (replay-only resume, which is always safe).
  CheckpointLiveState ExportLiveState() const;

  // True when every proposed trial has committed: after Run(), between
  // serial/lock-step steps (a lock-step wave always drains the window), or
  // between sliding waves with an empty window.
  bool AtCommitBoundary() const { return in_flight_.empty(); }

  // Runs a single serial iteration; exposed for fine-grained tests and for
  // benches that interleave sessions. Returns false when the budget is
  // exhausted.
  bool Step();

  // Runs one batch step at the configured parallelism and returns the
  // number of trials committed (0 = budget exhausted). At
  // parallel_evaluations = 1 this is exactly one Step(); above it, one
  // refill of the free window slots (ProposeBatch, then inline evaluation)
  // and one commit wave (virtual-time merge, ObserveBatch): the whole
  // window under lock-step, the earliest finishers under sliding_window.
  size_t StepBatch();

  const std::vector<TrialRecord>& history() const { return history_; }
  const SimClock& clock() const { return clock_; }
  size_t transient_retries() const { return retries_; }
  size_t drift_events() const { return drift_events_; }
  // Per-session trace ring (src/obs/trace.h). Recording self-gates on
  // obs::Enabled(), so a metrics-off run never reads the wall clock here.
  // Exposed non-const so the service layer can stamp durability events
  // (journal-append, store-append) into the same timeline.
  obs::TraceRing& trace() { return trace_; }
  SessionResult Finish();

 private:
  // One evaluated trial waiting to commit.
  struct PendingTrial {
    Configuration config;
    TrialOutcome outcome;
    double sim_seconds = 0.0;  // Batch only: virtual duration of this trial.
    double finish_time = 0.0;  // Batch only: launch time + sim_seconds.
    bool skip_build = false;
    uint64_t rng_seed = 0;
    size_t retries = 0;  // Transient retries this trial consumed.
  };

  double ComputeObjective(const TrialOutcome& outcome) const;
  // Recomputes min-max normalized scores over the successful history
  // (ObjectiveKind::kScore shifts as observations accumulate).
  void RefreshScores();
  bool SameImageParams(const Configuration& a, const Configuration& b) const;
  SearchContext MakeContext();
  // Dedup helper: re-proposes, up to kDedupRetries times, while `config`
  // repeats history, then marks its hash seen. Mirrors the serial retry
  // loop exactly.
  static constexpr size_t kDedupRetries = 8;
  void DedupProposal(SearchContext& context, Configuration* config);
  // Commits one evaluated trial: deploy check, objective, retry count,
  // then AppendCommitted. Shared by the serial and batch paths.
  // stamp_ns, when nonzero, is a TraceClock stamp the caller already took
  // (the serial loop reuses its evaluate-span end read); zero means read
  // the clock here. Only consulted while recording is enabled.
  void CommitTrial(PendingTrial&& pending, double end_time,
                   int64_t stamp_ns = 0);
  // The bookkeeping a committed record determines (build counts, the build
  // cache, crash and failure counts), then the history append. CommitTrial
  // and Resume's replay both run it.
  void AppendCommitted(TrialRecord record);
  // One evaluation under the re-measurement policy: evaluate, retry
  // transient failures up to retry_transient times on counter-derived
  // streams keyed off `seed_base`, then median-of-measure_repeats the
  // metric of a success. Every attempt advances `clock` (budget-charged).
  TrialOutcome EvaluateWithPolicy(Testbench* bench, const Configuration& config, Rng& rng,
                                  SimClock* clock, bool skip_build, bool boot_only,
                                  uint64_t seed_base, size_t* retries_used) const;
  // Drift detector + elite re-validation; runs after each observation wave
  // when options_.drift_detection is set.
  void MaybeDetectDrift(SearchContext& context);
  // The detector's decision over the committed history. On a firing it
  // counts the event, restarts the cooldown, stores the all-time best's
  // index in `best_index`, and returns true. Resume replays it so the
  // counters and OnDrift calls match the run that produced the history.
  bool DriftFired(size_t* best_index);
  // Batch executor, first half of a step: proposes one batch for the free
  // window slots, respecting the iteration/time budget, and evaluates it
  // inline in slot order. Lock-step keys the proposal and per-trial
  // entropy on trials committed, sliding on proposals launched; the keys
  // differ only after a drift re-validation trial.
  void RefillWindow();
  // Batch executor, second half: commits one wave — the whole window in
  // ascending duration under lock-step, the trials tied at the earliest
  // finish under sliding_window — advances the clock, and feeds the wave
  // back through ObserveBatch. Returns trials committed, 0 when drained.
  size_t CommitWave();

  Testbench* bench_;
  Searcher* searcher_;
  SessionOptions options_;
  SimClock clock_;
  Rng rng_;
  Rng searcher_rng_;
  std::vector<TrialRecord> history_;
  // Hashes of every evaluated (or batch-pending) configuration; O(1) lookup
  // keeps dedup flat at 250+ iterations x kDedupRetries and under batching.
  std::unordered_set<uint64_t> seen_hashes_;
  std::optional<Configuration> last_built_image_;
  // Batch executor state: the trials in flight, in proposal order (refills
  // append, commit waves erase), proposals launched so far, and the
  // wall-clock proposal cost accrued since the last commit wave.
  std::vector<PendingTrial> in_flight_;
  size_t proposed_count_ = 0;
  double pending_propose_seconds_ = 0.0;
  // The batch proposal entropy stream: re-seeded at each refill from the
  // seed and the entropy key, and left live for the following commit
  // wave's ObserveBatch and drift check.
  Rng batch_rng_{0};
  size_t crashes_ = 0;
  size_t builds_ = 0;
  size_t builds_skipped_ = 0;
  // Failure taxonomy + robustness policy counters (surfaced in
  // SessionResult and the daemon's session status).
  FailureTally failures_;
  size_t retries_ = 0;
  size_t drift_events_ = 0;
  // Successful-trial count at the last drift event; the detector waits a
  // full window of fresh successes before it may fire again (cooldown).
  size_t successes_at_last_drift_ = 0;
  // Stage timeline for `wfctl trace` — propose/evaluate/observe spans plus
  // build/retry/commit/drift instants, stamped only when obs::Enabled().
  obs::TraceRing trace_;
};

// Convenience wrapper: construct, run, return.
SessionResult RunSearch(Testbench* bench, Searcher* searcher, const SessionOptions& options);

// Objective of one outcome under `objective` for application `app` — the
// definition SearchSession applies to its own trials (NaN for crashed
// trials; kScore yields the 0.0 placeholder RefreshScoreObjectives then
// overwrites). Exposed so the wfd service can re-derive objectives when
// warm-starting a searcher from trials recorded under a different job's
// objective definition.
double TrialObjective(const TrialOutcome& outcome, ObjectiveKind objective, AppId app);

// Recomputes Eq. 4 score objectives in place: min-max normalized
// throughput minus normalized memory over the successful records.
void RefreshScoreObjectives(std::vector<TrialRecord>* history);

// --- Series extraction for the evolution figures ---------------------------

// (time, value) points of successful trials' objectives in history order.
struct SeriesPoint {
  double time = 0.0;
  double value = 0.0;
};
std::vector<SeriesPoint> ObjectiveSeries(const std::vector<TrialRecord>& history);

// Trailing-window crash rate aligned with history order.
std::vector<double> CrashRateSeries(const std::vector<TrialRecord>& history, size_t window = 25);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_PLATFORM_SESSION_H_
