#include "src/platform/checkpoint.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/platform/fs_faults.h"

namespace wayfinder {

namespace {

void WriteCheckpoint(std::ostream& out, const std::vector<TrialRecord>& history,
                     const CheckpointLiveState* live) {
  out.precision(17);  // Round-trip doubles exactly.
  size_t params = history.empty() ? 0 : history.front().config.Size();
  out << "wayfinder-checkpoint v2\n";
  out << "params " << params << "\n";
  if (live != nullptr) {
    if (!live->session_rng.empty()) {
      out << "rng-session " << live->session_rng << "\n";
    }
    if (!live->searcher_rng.empty()) {
      out << "rng-searcher " << live->searcher_rng << "\n";
    }
    if (!live->searcher_state.empty()) {
      out << "searcher-state " << live->searcher_state << "\n";
    }
  }
  for (const TrialRecord& trial : history) {
    const TrialOutcome& o = trial.outcome;
    out << "trial " << trial.iteration << " " << TrialStatusName(o.status) << " " << o.metric
        << " " << o.memory_mb << " " << o.build_seconds << " " << o.boot_seconds << " "
        << o.run_seconds << " " << (o.build_skipped ? 1 : 0) << " "
        << (trial.HasObjective() ? trial.objective : std::nan("")) << " "
        << trial.sim_time_end << " " << trial.searcher_seconds;
    if (!o.failure_reason.empty()) {
      // Rest-of-line field: reasons contain spaces but never newlines.
      out << " ";
      for (char c : o.failure_reason) {
        out << (c == '\n' || c == '\r' ? ' ' : c);
      }
    }
    out << "\n";
    out << "values";
    for (size_t i = 0; i < trial.config.Size(); ++i) {
      out << " " << trial.config.Raw(i);
    }
    out << "\n";
  }
}

CheckpointLoadResult ReadCheckpoint(const ConfigSpace& space, std::istream& in) {
  CheckpointLoadResult result;
  std::string line;
  int version = 0;
  if (std::getline(in, line)) {
    if (line == "wayfinder-checkpoint v1") {
      version = 1;
    } else if (line == "wayfinder-checkpoint v2") {
      version = 2;
    }
  }
  if (version == 0) {
    result.error = "bad header";
    return result;
  }
  size_t params = 0;
  {
    if (!std::getline(in, line)) {
      result.error = "missing params line";
      return result;
    }
    std::istringstream header(line);
    std::string keyword;
    header >> keyword >> params;
    if (keyword != "params") {
      result.error = "missing params line";
      return result;
    }
    if (params != 0 && params != space.Size()) {
      result.error = "checkpoint has " + std::to_string(params) + " parameters, space has " +
                     std::to_string(space.Size());
      return result;
    }
  }

  int line_number = 2;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    std::istringstream trial_in(line);
    std::string keyword;
    trial_in >> keyword;
    // The v2 live-state lines sit between the params header and the first
    // trial; the rest of each line is taken verbatim.
    if (version >= 2 && result.history.empty() &&
        (keyword == "rng-session" || keyword == "rng-searcher" ||
         keyword == "searcher-state")) {
      std::string rest;
      std::getline(trial_in >> std::ws, rest);
      if (rest.empty()) {
        result.error = "line " + std::to_string(line_number) + ": empty " + keyword;
        return result;
      }
      if (keyword == "rng-session") {
        result.live.session_rng = rest;
      } else if (keyword == "rng-searcher") {
        result.live.searcher_rng = rest;
      } else {
        result.live.searcher_state = rest;
      }
      continue;
    }
    if (keyword != "trial") {
      // Forward compatibility: unknown keywords in the header area (before
      // the first trial) are future optional sections in the spirit of the
      // live-state lines — skipped, not preserved (a reader this old cannot
      // round-trip what it cannot parse). So is the taxonomy aggregate line
      // older writers put there. A `values` line here is structural damage,
      // not a future section, and an unknown keyword between trial records
      // would silently detach a trial from its values — both still reject.
      if (version >= 2 && result.history.empty() && keyword != "values") {
        continue;
      }
      result.error = "line " + std::to_string(line_number) + ": expected trial record";
      return result;
    }
    TrialRecord trial;
    std::string status_name;
    std::string objective_text;  // iostreams do not parse "nan"; strtod does.
    int skipped = 0;
    trial_in >> trial.iteration >> status_name >> trial.outcome.metric >>
        trial.outcome.memory_mb >> trial.outcome.build_seconds >>
        trial.outcome.boot_seconds >> trial.outcome.run_seconds >> skipped >>
        objective_text >> trial.sim_time_end >> trial.searcher_seconds;
    if (!trial_in || !TrialStatusFromName(status_name, &trial.outcome.status)) {
      result.error = "line " + std::to_string(line_number) + ": malformed trial record";
      return result;
    }
    {
      const char* begin = objective_text.c_str();
      char* end = nullptr;
      trial.objective = std::strtod(begin, &end);
      if (end == begin || *end != '\0') {
        result.error = "line " + std::to_string(line_number) + ": malformed objective";
        return result;
      }
    }
    trial.outcome.build_skipped = skipped != 0;
    // Optional trailing failure reason: everything after searcher_seconds
    // (absent in files written before the field existed).
    if (std::string reason; std::getline(trial_in >> std::ws, reason) && !reason.empty()) {
      trial.outcome.failure_reason = std::move(reason);
    }

    if (!std::getline(in, line)) {
      result.error = "line " + std::to_string(line_number) + ": trial without values";
      return result;
    }
    ++line_number;
    std::istringstream values_in(line);
    values_in >> keyword;
    if (keyword != "values") {
      result.error = "line " + std::to_string(line_number) + ": expected values";
      return result;
    }
    std::vector<int64_t> values(space.Size());
    for (size_t i = 0; i < space.Size(); ++i) {
      if (!(values_in >> values[i])) {
        result.error = "line " + std::to_string(line_number) + ": too few values";
        return result;
      }
      if (!space.Param(i).InDomain(values[i])) {
        result.error = "line " + std::to_string(line_number) + ": value out of domain for " +
                       space.Param(i).name;
        return result;
      }
    }
    trial.config = Configuration(&space, std::move(values));
    result.history.push_back(std::move(trial));
  }
  result.ok = true;
  return result;
}

}  // namespace

std::string CheckpointToText(const std::vector<TrialRecord>& history,
                             const CheckpointLiveState* live) {
  std::ostringstream out;
  WriteCheckpoint(out, history, live);
  return out.str();
}

bool SaveCheckpoint(const std::vector<TrialRecord>& history, const std::string& path,
                    const CheckpointLiveState* live) {
  // Atomic replace (tmp + fsync + rename, through the fs-fault seam): a
  // crash mid-save leaves the previous checkpoint intact, never a torn one
  // — these files are exactly what a post-crash `--resume` depends on.
  return AtomicWriteFile(path, CheckpointToText(history, live));
}

CheckpointLoadResult LoadCheckpoint(const ConfigSpace& space, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    CheckpointLoadResult result;
    result.error = "cannot open " + path;
    return result;
  }
  return ReadCheckpoint(space, in);
}

CheckpointLoadResult LoadCheckpointText(const ConfigSpace& space, const std::string& text) {
  std::istringstream in(text);
  return ReadCheckpoint(space, in);
}

}  // namespace wayfinder
