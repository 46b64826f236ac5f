// Session checkpointing: persist an exploration history to disk and restore
// it into a fresh session (SearchSession::Resume), so a long specialization
// job survives restarts — the paper's platform runs jobs "in the
// background" over days (Appendix A.4), which is only practical with
// resumable state.
//
// The format is a line-oriented text file:
//
//   wayfinder-checkpoint v2
//   params <param-count>
//   rng-session <rng state tokens>        (v2, optional)
//   rng-searcher <rng state tokens>       (v2, optional)
//   searcher-state <opaque single line>   (v2, optional)
//   trial <iter> <status> <metric> <memory> <build_s> <boot_s> <run_s>
//         ... <skipped> <objective> <sim_end> <searcher_s> [failure reason]
//   values <v0> <v1> ... (param-count raw values)
//   ... (one trial/values pair per record)
//
// A failed trial's line may end with its free-text failure reason, an
// optional trailing extension: v2 files written before it still load and
// old readers that stop at searcher_s stay compatible. The failure taxonomy
// is derived from the trial statuses; files whose header area carries an
// older writer's `failures` aggregate line still load (it is skipped).
//
// v2 adds the three optional live-state lines. With them, Resume() continues
// the interrupted run bit-exactly — including model-based searchers, whose
// model retrains from the replay while the RNG streams and the searcher's
// opaque state (Searcher::ExportState) pick up exactly where the run
// stopped. v1 files (no live-state lines) still load; their resume replays
// the history but restarts the randomness, the pre-v2 behaviour.
//
// Model weights can additionally be checkpointed via
// DeepTuneSearcher::SaveModel (single- or multi-metric), but a resumed
// session replays the history through Observe, which retrains any searcher
// bit-deterministically.
#ifndef WAYFINDER_SRC_PLATFORM_CHECKPOINT_H_
#define WAYFINDER_SRC_PLATFORM_CHECKPOINT_H_

#include <string>
#include <vector>

#include "src/configspace/config_space.h"
#include "src/platform/trial.h"

namespace wayfinder {

// The v2 live-state sections. Empty strings mean "absent" (a v1 checkpoint
// or a caller that only wants the history).
struct CheckpointLiveState {
  std::string session_rng;     // Rng::SerializeState of the evaluation stream.
  std::string searcher_rng;    // ... of the proposal stream.
  std::string searcher_state;  // Searcher::ExportState (opaque, single line).

  bool Any() const {
    return !session_rng.empty() || !searcher_rng.empty() || !searcher_state.empty();
  }
};

// Renders `history` (plus optional live state) as checkpoint text — the
// payload the wfd service returns for `wfctl result`.
std::string CheckpointToText(const std::vector<TrialRecord>& history,
                             const CheckpointLiveState* live = nullptr);

// Writes `history` to `path`; false on I/O failure.
bool SaveCheckpoint(const std::vector<TrialRecord>& history, const std::string& path,
                    const CheckpointLiveState* live = nullptr);

struct CheckpointLoadResult {
  bool ok = false;
  std::vector<TrialRecord> history;
  CheckpointLiveState live;  // All-empty for v1 files.
  std::string error;
};

// Reads a checkpoint written against (a space identical to) `space`.
// Validates the header, parameter count, and every value's domain. Accepts
// v1 and v2 files.
CheckpointLoadResult LoadCheckpoint(const ConfigSpace& space, const std::string& path);
CheckpointLoadResult LoadCheckpointText(const ConfigSpace& space, const std::string& text);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_PLATFORM_CHECKPOINT_H_
