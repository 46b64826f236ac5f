// Kill -9 recovery soak (tier2 in CI, where it runs long under ASan with
// WF_SOAK=1): the same deterministic search is murdered and recovered over
// and over on ONE store directory, with each kill landing at a different
// journal depth. However many times the process dies mid-wave, the final
// result must be byte-identical (modulo searcher wall time) to a single
// uninterrupted run, and no cycle may leave a stale compaction *.tmp or a
// duplicated trial behind.
//
// Default (tier-1) run keeps the cycle count small so plain `ctest` stays
// fast; WF_SOAK=1 raises it to the full schedule.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/session_manager.h"

namespace wayfinder {
namespace {

std::string FreshDir(const char* name) {
  std::string dir = (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

size_t SoakCycles() {
  const char* env = std::getenv("WF_SOAK");
  return (env != nullptr && env[0] == '1') ? 12 : 3;
}

// Long enough that every kill in the schedule lands mid-search.
std::string SoakJob(uint64_t seed) {
  std::string yaml;
  yaml += "name: recovery-soak\n";
  yaml += "os: linux\n";
  yaml += "application: nginx\n";
  yaml += "metric: performance\n";
  yaml += "budget:\n  iterations: 48\n";
  yaml += "search:\n  algorithm: random\n";
  yaml += "  seed: " + std::to_string(seed) + "\n";
  return yaml;
}

SessionManagerOptions ManagerOptions(const std::string& dir) {
  SessionManagerOptions options;
  options.store_dir = dir + "/store";
  return options;
}

size_t CountWaveRecords(const std::string& journal_path) {
  std::ifstream in(journal_path);
  size_t waves = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("wave ", 0) == 0) {
      ++waves;
    }
  }
  return waves;
}

// Checkpoint text normalised for cross-run comparison: the one wall-clock
// field (searcher_seconds, the 11th token of a trial line) is blanked, and
// live-state lines are dropped entirely. The latter matters for the soak's
// inherent race — a kill that lands just after the final `done` state record
// makes recovery render the session replay-only (no live state), which is
// correct but not byte-comparable to an in-process result. The trial
// history is the convergence pin here; bit-exact live state after resume is
// pinned separately in recovery_test.
std::string Normalise(const std::string& checkpoint_text) {
  std::istringstream in(checkpoint_text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("rng-session ", 0) == 0 || line.rfind("rng-searcher ", 0) == 0 ||
        line.rfind("searcher-state ", 0) == 0) {
      continue;
    }
    if (line.rfind("trial ", 0) == 0) {
      size_t spaces = 0, start = std::string::npos;
      for (size_t i = 0; i < line.size(); ++i) {
        if (line[i] == ' ' && ++spaces == 11) {
          start = i + 1;
          break;
        }
      }
      if (start != std::string::npos) {
        size_t end = line.find(' ', start);
        line.replace(start, (end == std::string::npos ? line.size() : end) - start, "_");
      }
    }
    out += line + "\n";
  }
  return out;
}

// Forks a child that recovers the store and keeps searching until killed.
// The parent waits for the journal to grow past `kill_after_waves` NEW wave
// records, then SIGKILLs it. Returns false if the child finished (exited)
// before the threshold — the session is done and the soak loop can stop.
bool RunOneCrashCycle(const std::string& dir, const std::string& job, bool first_cycle,
                      size_t kill_after_waves) {
  const std::string journal_path = dir + "/store/journal.wfj";
  const size_t waves_before = CountWaveRecords(journal_path);
  pid_t child = fork();
  EXPECT_GE(child, 0);
  if (child == 0) {
    // Child: everything must _exit — returning would re-run gtest here.
    SessionManager manager(ManagerOptions(dir));
    std::string summary, id, error;
    if (!manager.Recover(&summary)) {
      _exit(10);
    }
    if (first_cycle && !manager.Submit(job, false, &id, &error)) {
      _exit(11);
    }
    manager.WaitDone("s1", 120000);
    manager.Shutdown();
    _exit(0);
  }
  const size_t target = waves_before + kill_after_waves;
  bool exited = false;
  for (int spin = 0; spin < 4000; ++spin) {
    int wait_status = 0;
    if (waitpid(child, &wait_status, WNOHANG) == child) {
      // Finished before the kill landed: session ran to done.
      EXPECT_TRUE(WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0);
      exited = true;
      break;
    }
    if (CountWaveRecords(journal_path) >= target) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (exited) {
    return false;
  }
  EXPECT_GE(CountWaveRecords(journal_path), target) << "child never made progress";
  EXPECT_EQ(kill(child, SIGKILL), 0);
  int wait_status = 0;
  EXPECT_EQ(waitpid(child, &wait_status, 0), child);
  return true;
}

TEST(RecoverySoakTest, RepeatedKill9CyclesConvergeAndLeaveNoDebris) {
  std::string crash_dir = FreshDir("wf-soak-kill9");
  std::string clean_dir = FreshDir("wf-soak-kill9-clean");
  std::string job = SoakJob(4242);

  // Vary the kill depth so interruptions land at different wave boundaries
  // (and therefore different journal shapes) every cycle.
  size_t cycles = SoakCycles();
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    if (!RunOneCrashCycle(crash_dir, job, cycle == 0, 2 + cycle % 3)) {
      break;
    }
    // Every intermediate recovery must leave no stale compaction temps.
    for (const auto& entry : std::filesystem::directory_iterator(crash_dir + "/store")) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }
  }

  // Final recovery in-process: run whatever is left to completion.
  SessionManager recovered(ManagerOptions(crash_dir));
  std::string summary;
  ASSERT_TRUE(recovered.Recover(&summary)) << summary;
  EXPECT_NE(summary.find("recovered 1 session(s)"), std::string::npos) << summary;
  ASSERT_TRUE(recovered.WaitDone("s1", 120000));
  std::string recovered_text, error;
  ASSERT_TRUE(recovered.Result("s1", &recovered_text, &error)) << error;
  recovered.Shutdown();

  // The uninterrupted control run.
  SessionManager control(ManagerOptions(clean_dir));
  std::string control_id;
  ASSERT_TRUE(control.Submit(job, false, &control_id, &error)) << error;
  ASSERT_TRUE(control.WaitDone(control_id, 120000));
  std::string control_text;
  ASSERT_TRUE(control.Result(control_id, &control_text, &error)) << error;
  control.Shutdown();

  EXPECT_EQ(Normalise(recovered_text), Normalise(control_text))
      << cycles << " kill -9 cycles diverged from the uninterrupted run";
}

}  // namespace
}  // namespace wayfinder
