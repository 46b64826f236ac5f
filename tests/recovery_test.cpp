// Crash safety end to end: the write-ahead session journal, automatic
// recovery after kill -9, the filesystem fault-injection seam, and the
// client-side reconnect policy.
//
// The acceptance pins live here:
//   * kill -9 mid-search + restart converges to the SAME final result as an
//     uninterrupted run for a deterministic searcher (bit-exact Resume
//     through the journaled checkpoint-v2 live state), and so does recovery
//     from every wave boundary of the serial and lock-step cells the
//     wave-cut harness covers;
//   * every wave record is a delta placed by its trials_total: score
//     sessions journal linearly, older `full` records still recover, and a
//     record that does not continue the history fails the session loudly;
//   * under injected ENOSPC / torn writes / fsync failures / crash-around-
//     rename, no committed trial and no accepted submission is ever lost —
//     the daemon degrades with a reported reason instead of crashing, and
//     its drain rewrites the journal whole;
//   * without a store (durability off), SessionManager produces the same
//     results and writes no journal file.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/platform/checkpoint.h"
#include "src/platform/fs_faults.h"
#include "src/platform/job_file.h"
#include "src/platform/session.h"
#include "src/service/client.h"
#include "src/service/session_journal.h"
#include "src/service/session_manager.h"
#include "src/service/wfd.h"
#include "src/util/rng.h"

namespace wayfinder {
namespace {

std::string FreshDir(const char* name) {
  std::string dir = (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string DeterministicJob(const char* name, size_t iterations, uint64_t seed,
                             const char* application = "nginx",
                             const char* algorithm = "random",
                             const char* metric = "performance", size_t parallel = 1) {
  std::string yaml;
  yaml += std::string("name: ") + name + "\n";
  yaml += "os: linux\n";
  yaml += std::string("application: ") + application + "\n";
  yaml += std::string("metric: ") + metric + "\n";
  yaml += "budget:\n  iterations: " + std::to_string(iterations) + "\n";
  yaml += std::string("search:\n  algorithm: ") + algorithm + "\n";
  yaml += "  seed: " + std::to_string(seed) + "\n";
  if (parallel > 1) {
    yaml += "parallel: " + std::to_string(parallel) + "\n";
  }
  return yaml;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Checkpoint text with the one wall-clock field (searcher_seconds, the
// 11th token of a trial line) blanked: everything else in a deterministic
// session — configs, outcomes, objectives, sim clock, live RNG state — must
// be byte-identical across runs, but searcher wall time never is.
std::string BlankWallClock(const std::string& checkpoint_text) {
  std::istringstream in(checkpoint_text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
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

// The journal's records of one kind (`prefix` is "submit ", "wave " ...),
// newline-terminated, in file order.
std::vector<std::string> JournalLines(const std::string& journal_path, const char* prefix) {
  std::ifstream in(journal_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) {
      lines.push_back(line + "\n");
    }
  }
  return lines;
}

size_t CountWaveRecords(const std::string& journal_path) {
  return JournalLines(journal_path, "wave ").size();
}

// ---------------------------------------------------------------------------
// Journal unit behaviour.

TEST(JournalEscapeTest, RoundTripsEveryPayloadShape) {
  for (const std::string text :
       {std::string(""), std::string("plain"), std::string("two\nlines\n"),
        std::string("back\\slash"), std::string("\r\n\r\n"),
        std::string("trail\\"), std::string(1000, '\n')}) {
    EXPECT_EQ(JournalUnescape(JournalEscape(text)), text);
    // The escaped form must be strictly one line.
    EXPECT_EQ(JournalEscape(text).find('\n'), std::string::npos);
    EXPECT_EQ(JournalEscape(text).find('\r'), std::string::npos);
  }
}

TEST(SessionJournalTest, AppendsReplayInSubmissionOrder) {
  std::string dir = FreshDir("wf-journal-replay");
  std::string path = dir + "/journal.wfj";
  {
    SessionJournal journal(path);
    ASSERT_TRUE(journal.Open().ok);
    ASSERT_TRUE(journal.AppendSubmit("s1", "job: one\n", true));
    ASSERT_TRUE(journal.AppendSubmit("s2", "job: two\n", false));
    ASSERT_TRUE(journal.AppendWave("s1", 3, "wayfinder-checkpoint v2\nparams 0\n"));
    ASSERT_TRUE(journal.AppendState("s1", "paused", ""));
    ASSERT_TRUE(journal.AppendState("s2", "failed", "step failed: boot crash"));
  }
  SessionJournal::ReplayResult replay = SessionJournal::Replay(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  ASSERT_EQ(replay.sessions.size(), 2u);
  EXPECT_EQ(replay.sessions[0].id, "s1");
  EXPECT_TRUE(replay.sessions[0].warm_start);
  EXPECT_EQ(replay.sessions[0].job_text, "job: one\n");
  EXPECT_EQ(replay.sessions[0].job_hash, StableHash("job: one\n"));
  EXPECT_EQ(replay.sessions[0].state, "paused");
  ASSERT_EQ(replay.sessions[0].waves.size(), 1u);
  EXPECT_EQ(replay.sessions[0].waves[0].trials_total, 3u);
  EXPECT_EQ(replay.sessions[0].waves[0].checkpoint_text,
            "wayfinder-checkpoint v2\nparams 0\n");
  // Every wave record is a delta: its trials_total places it.
  EXPECT_NE(ReadFileOrEmpty(path).find("\nwave s1 3 delta "), std::string::npos);
  EXPECT_EQ(replay.sessions[1].state, "failed");
  EXPECT_EQ(replay.sessions[1].error, "step failed: boot crash");
}

TEST(SessionJournalTest, TornTailIsTruncatedOnOpenAndSkippedOnReplay) {
  std::string dir = FreshDir("wf-journal-torn");
  std::string path = dir + "/journal.wfj";
  {
    SessionJournal journal(path);
    ASSERT_TRUE(journal.Open().ok);
    ASSERT_TRUE(journal.AppendSubmit("s1", "job: one\n", false));
  }
  std::string clean = ReadFileOrEmpty(path);
  // A crash mid-append leaves an unterminated record. Replay must skip it...
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "state s1 done";  // No trailing newline: torn.
  }
  SessionJournal::ReplayResult replay = SessionJournal::Replay(path);
  ASSERT_TRUE(replay.ok);
  ASSERT_EQ(replay.sessions.size(), 1u);
  EXPECT_EQ(replay.sessions[0].state, "submitted");  // Torn record ignored.
  // ...and Open must truncate the file back to the last complete record.
  SessionJournal journal(path);
  SessionJournal::OpenResult opened = journal.Open();
  ASSERT_TRUE(opened.ok) << opened.error;
  EXPECT_EQ(opened.truncated_bytes, std::string("state s1 done").size());
  journal.Close();
  EXPECT_EQ(ReadFileOrEmpty(path), clean);
}

TEST(SessionJournalTest, RefusesAForeignFile) {
  std::string dir = FreshDir("wf-journal-foreign");
  std::string path = dir + "/not-a-journal";
  std::ofstream(path) << "operator data, hands off\n";
  SessionJournal journal(path);
  EXPECT_FALSE(journal.Open().ok);
}

TEST(SessionJournalTest, UnknownRecordKeywordsAreSkippedOnReplay) {
  std::string dir = FreshDir("wf-journal-future");
  std::string path = dir + "/journal.wfj";
  std::ofstream(path) << SessionJournal::Header()
                      << SessionJournal::SubmitLine("s1", "job: one\n", false)
                      << "lease s1 owner=host-7 ttl=30\n"  // A future record.
                      << SessionJournal::StateLine("s1", "done", "");
  SessionJournal::ReplayResult replay = SessionJournal::Replay(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  ASSERT_EQ(replay.sessions.size(), 1u);
  EXPECT_EQ(replay.sessions[0].state, "done");
}

TEST(SessionJournalTest, FirstFailedAppendDegradesPermanently) {
  std::string dir = FreshDir("wf-journal-enospc");
  SessionJournal journal(dir + "/journal.wfj");
  ASSERT_TRUE(journal.Open().ok);
  ASSERT_TRUE(journal.AppendSubmit("s1", "job: one\n", false));

  FsFaultPlan plan;
  plan.fail_write_at = 0;  // The very next write fails with ENOSPC.
  FsFaultInjector::Instance().Arm(plan);
  EXPECT_FALSE(journal.AppendWave("s1", 1, "payload"));
  FsFaultInjector::Instance().Disarm();

  EXPECT_FALSE(journal.healthy());
  EXPECT_NE(journal.degraded_reason().find("No space left"), std::string::npos)
      << journal.degraded_reason();
  // Degraded is sticky: even with the disk healthy again, appends stay off
  // (the on-disk prefix is valid and must not gain a gap).
  EXPECT_FALSE(journal.AppendState("s1", "done", ""));
  journal.Close();

  SessionJournal::ReplayResult replay = SessionJournal::Replay(journal.path());
  ASSERT_TRUE(replay.ok);
  ASSERT_EQ(replay.sessions.size(), 1u);  // The durable prefix survived.
  EXPECT_TRUE(replay.sessions[0].waves.empty());
}

// ---------------------------------------------------------------------------
// Fault-injection seam.

TEST(FsFaultsTest, AtomicWriteFileSurvivesCrashAroundRename) {
  std::string dir = FreshDir("wf-atomic");
  std::string path = dir + "/target";
  ASSERT_TRUE(AtomicWriteFile(path, "old contents\n"));

  // Crash BEFORE the rename: target keeps the old bytes, tmp is left
  // behind exactly as a real crash would leave it.
  FsFaultPlan plan;
  plan.crash_before_rename_at = 0;
  FsFaultInjector::Instance().Arm(plan);
  std::string error;
  EXPECT_FALSE(AtomicWriteFile(path, "new contents\n", &error));
  FsFaultInjector::Instance().Disarm();
  EXPECT_EQ(ReadFileOrEmpty(path), "old contents\n");
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path + ".tmp");

  // Crash AFTER the rename: the replace already committed — the new bytes
  // are the file, whole, never a torn mixture.
  plan = FsFaultPlan();
  plan.crash_after_rename_at = 0;
  FsFaultInjector::Instance().Arm(plan);
  EXPECT_FALSE(AtomicWriteFile(path, "new contents\n", &error));
  FsFaultInjector::Instance().Disarm();
  EXPECT_EQ(ReadFileOrEmpty(path), "new contents\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(FsFaultsTest, SeededProbabilisticPlanIsDeterministic) {
  FsFaultPlan plan;
  plan.seed = 99;
  plan.write_fail_prob = 0.5;
  std::vector<int> first;
  for (int round = 0; round < 2; ++round) {
    FsFaultInjector::Instance().Arm(plan);
    std::vector<int> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(static_cast<int>(FsFaultInjector::Instance().NextWrite()));
    }
    FsFaultInjector::Instance().Disarm();
    if (round == 0) {
      first = outcomes;
      // A 0.5 plan must actually fire both ways.
      EXPECT_NE(std::count(first.begin(), first.end(), 0), 0);
      EXPECT_NE(std::count(first.begin(), first.end(), 0), 64);
    } else {
      EXPECT_EQ(outcomes, first);  // Same seed, same plan, same schedule.
    }
  }
}

// ---------------------------------------------------------------------------
// Manager-level recovery.

// The journal lives at <store>/journal.wfj; no store, no journal.
SessionManagerOptions ManagerOptions(const std::string& dir, bool store = true) {
  SessionManagerOptions options;
  if (store) {
    options.store_dir = dir + "/store";
  }
  return options;
}

// The durability-off pin: without a store the manager must produce
// byte-identical results (wall clock aside) to a journaling one, and write
// no journal file anywhere.
TEST(RecoveryTest, DisabledJournalChangesNothing) {
  std::string with_dir = FreshDir("wf-rec-journal-on");
  std::string without_dir = FreshDir("wf-rec-journal-off");
  std::string job = DeterministicJob("pinned", 10, 4242);
  std::string with_text, without_text;
  for (int pass = 0; pass < 2; ++pass) {
    bool journal = pass == 0;
    SessionManager manager(ManagerOptions(journal ? with_dir : without_dir, journal));
    std::string id, error;
    ASSERT_TRUE(manager.Submit(job, false, &id, &error)) << error;
    ASSERT_TRUE(manager.WaitDone(id, 30000));
    std::string text;
    ASSERT_TRUE(manager.Result(id, &text, &error)) << error;
    (journal ? with_text : without_text) = text;
    manager.Shutdown();
  }
  EXPECT_EQ(BlankWallClock(with_text), BlankWallClock(without_text));
  EXPECT_FALSE(std::filesystem::exists(without_dir + "/store/journal.wfj"));
  EXPECT_TRUE(std::filesystem::exists(with_dir + "/store/journal.wfj"));
}

// The kill-9 determinism pin. A child process runs a deterministic session
// with the journal on; the parent SIGKILLs it mid-search (after a few wave
// records are durable), recovers in a fresh manager over the same
// directories, lets the session finish, and the final checkpoint must be
// byte-identical to an uninterrupted run of the same job.
TEST(RecoveryTest, Kill9MidSearchConvergesToUninterruptedResult) {
  std::string crash_dir = FreshDir("wf-rec-kill9");
  std::string clean_dir = FreshDir("wf-rec-kill9-clean");
  // Long enough that the kill lands mid-search even on a fast box: a short
  // job can finish before the first 5 ms poll below sees its waves.
  std::string job = DeterministicJob("kill9", 400, 777);
  std::string journal_path = crash_dir + "/store/journal.wfj";

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: run the session under the journal until killed. Everything
    // here must _exit — returning would re-run gtest in the child.
    SessionManager manager(ManagerOptions(crash_dir));
    std::string id, error;
    if (!manager.Submit(job, false, &id, &error)) {
      _exit(10);
    }
    manager.WaitDone(id, 60000);
    for (;;) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }

  // Parent: wait until at least a few waves are journaled, then kill -9.
  for (int spin = 0; spin < 2000 && CountWaveRecords(journal_path) < 5; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(CountWaveRecords(journal_path), 5u) << "child never made progress";
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));

  // Recover over the same directories and let the session run out.
  SessionManager recovered(ManagerOptions(crash_dir));
  std::string summary;
  ASSERT_TRUE(recovered.Recover(&summary)) << summary;
  EXPECT_NE(summary.find("recovered 1 session(s)"), std::string::npos) << summary;
  std::vector<SessionStatus> sessions = recovered.List();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_TRUE(sessions[0].recovered);
  std::string id = sessions[0].id;
  ASSERT_TRUE(recovered.WaitDone(id, 60000));
  std::string recovered_text, error;
  ASSERT_TRUE(recovered.Result(id, &recovered_text, &error)) << error;
  recovered.Shutdown();

  // The uninterrupted control run.
  SessionManager control(ManagerOptions(clean_dir));
  std::string control_id;
  ASSERT_TRUE(control.Submit(job, false, &control_id, &error)) << error;
  ASSERT_TRUE(control.WaitDone(control_id, 60000));
  std::string control_text;
  ASSERT_TRUE(control.Result(control_id, &control_text, &error)) << error;
  control.Shutdown();

  EXPECT_EQ(BlankWallClock(recovered_text), BlankWallClock(control_text))
      << "kill -9 + recovery diverged from the uninterrupted run";
}

// A submission the daemon accepted but never started must survive: the
// write-ahead submit record alone is enough to requeue it.
TEST(RecoveryTest, AcceptedButNeverStartedSubmissionIsRequeued) {
  std::string dir = FreshDir("wf-rec-requeue");
  std::string job = DeterministicJob("requeued", 6, 11);
  std::string journal_path = dir + "/store/journal.wfj";
  std::filesystem::create_directories(dir + "/store");
  {
    SessionJournal journal(journal_path);
    ASSERT_TRUE(journal.Open().ok);
    ASSERT_TRUE(journal.AppendSubmit("s1", job, false));
  }
  SessionManager manager(ManagerOptions(dir));
  std::string summary;
  ASSERT_TRUE(manager.Recover(&summary)) << summary;
  EXPECT_NE(summary.find("1 requeued"), std::string::npos) << summary;
  ASSERT_TRUE(manager.WaitDone("s1", 30000));
  SessionStatus status;
  ASSERT_TRUE(manager.Status("s1", &status));
  EXPECT_EQ(status.state, "done");
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(status.trials, 6u);
  // New submissions keep numbering past the recovered ids.
  std::string id, error;
  ASSERT_TRUE(manager.Submit(DeterministicJob("next", 3, 12), false, &id, &error));
  EXPECT_EQ(id, "s2");
  manager.Shutdown();
}

TEST(RecoveryTest, FinishedSessionsComeBackQueryable) {
  std::string dir = FreshDir("wf-rec-done");
  std::string job = DeterministicJob("finished", 8, 21);
  std::string pre_crash_history;
  {
    SessionManager manager(ManagerOptions(dir));
    std::string id, error;
    ASSERT_TRUE(manager.Submit(job, false, &id, &error)) << error;
    ASSERT_TRUE(manager.WaitDone(id, 30000));
    ASSERT_TRUE(manager.Result(id, &pre_crash_history, &error));
    manager.Shutdown();
  }
  SessionManager manager(ManagerOptions(dir));
  std::string summary;
  ASSERT_TRUE(manager.Recover(&summary)) << summary;
  EXPECT_NE(summary.find("1 finished"), std::string::npos) << summary;
  SessionStatus status;
  ASSERT_TRUE(manager.Status("s1", &status));
  EXPECT_EQ(status.state, "done");
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(status.trials, 8u);
  // The result survives verbatim, final live state included: the last
  // wave record carries it, since a done session commits nothing after.
  std::string text, error;
  ASSERT_TRUE(manager.Result("s1", &text, &error));
  EXPECT_EQ(text, pre_crash_history);
  manager.Shutdown();

  // Recovery compacted the journal; the compacted log keeps it too.
  SessionManager again(ManagerOptions(dir));
  ASSERT_TRUE(again.Recover(&summary)) << summary;
  ASSERT_TRUE(again.Result("s1", &text, &error));
  EXPECT_EQ(text, pre_crash_history);
  again.Shutdown();
}

TEST(RecoveryTest, PausedSessionComesBackPaused) {
  std::string dir = FreshDir("wf-rec-paused");
  std::string job = DeterministicJob("paused", 6, 31);
  std::string journal_path = dir + "/store/journal.wfj";
  std::filesystem::create_directories(dir + "/store");
  {
    SessionJournal journal(journal_path);
    ASSERT_TRUE(journal.Open().ok);
    ASSERT_TRUE(journal.AppendSubmit("s1", job, false));
    ASSERT_TRUE(journal.AppendState("s1", "paused", ""));
  }
  SessionManager manager(ManagerOptions(dir));
  std::string summary;
  ASSERT_TRUE(manager.Recover(&summary)) << summary;
  // The pause request re-lands at the first wave boundary; wait for it.
  SessionStatus status;
  for (int spin = 0; spin < 2000; ++spin) {
    ASSERT_TRUE(manager.Status("s1", &status));
    if (status.state == "paused" || status.state == "done") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(status.state, "paused");
  // And it resumes normally.
  ASSERT_TRUE(manager.Resume("s1"));
  ASSERT_TRUE(manager.WaitDone("s1", 30000));
  manager.Shutdown();
}

// Nothing is silently dropped: a journal whose job text no longer matches
// its hash (disk corruption) resurfaces as a failed session with an
// `unrecoverable:` reason, never as a vanished one.
TEST(RecoveryTest, CorruptJournalEntryBecomesFailedNotLost) {
  std::string dir = FreshDir("wf-rec-corrupt");
  std::string journal_path = dir + "/store/journal.wfj";
  std::filesystem::create_directories(dir + "/store");
  {
    std::ofstream out(journal_path, std::ios::binary);
    out << SessionJournal::Header();
    out << "submit s1 0 00000000deadbeef "
        << JournalEscape(DeterministicJob("tampered", 4, 5)) << "\n";
  }
  SessionManager manager(ManagerOptions(dir));
  std::string summary;
  ASSERT_TRUE(manager.Recover(&summary)) << summary;
  EXPECT_NE(summary.find("1 unrecoverable"), std::string::npos) << summary;
  SessionStatus status;
  ASSERT_TRUE(manager.Status("s1", &status));
  EXPECT_EQ(status.state, "failed");
  EXPECT_TRUE(status.recovered);
  EXPECT_NE(status.error.find("unrecoverable:"), std::string::npos) << status.error;
  manager.Shutdown();
}

// ENOSPC on the journal write path: the daemon degrades — the reason is
// queryable, appends stop — but serving and searching keep working, and
// the drain rewrites the journal whole: a fresh manager recovers the
// accepted session with every committed trial.
TEST(RecoveryTest, JournalEnospcDegradesWithoutLosingTrials) {
  std::string dir = FreshDir("wf-rec-enospc");
  SessionManager manager(ManagerOptions(dir));
  std::string healthy_reason;
  ASSERT_TRUE(manager.JournalHealthy(&healthy_reason)) << healthy_reason;

  // The next FaultWrite after Arm is the write-ahead submit append.
  FsFaultPlan plan;
  plan.fail_write_at = 0;
  FsFaultInjector::Instance().Arm(plan);
  std::string id, error;
  ASSERT_TRUE(manager.Submit(DeterministicJob("degraded", 6, 51), false, &id, &error))
      << error;
  FsFaultInjector::Instance().Disarm();

  std::string reason;
  EXPECT_FALSE(manager.JournalHealthy(&reason));
  EXPECT_NE(reason.find("No space left"), std::string::npos) << reason;

  ASSERT_TRUE(manager.WaitDone(id, 30000));
  SessionStatus status;
  ASSERT_TRUE(manager.Status(id, &status));
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.trials, 6u);
  std::string key = status.store_key;
  manager.Shutdown();

  SessionManager recovered(ManagerOptions(dir));
  std::string summary;
  ASSERT_TRUE(recovered.Recover(&summary)) << summary;
  EXPECT_NE(summary.find("recovered 1 session(s)"), std::string::npos) << summary;
  EXPECT_NE(summary.find("1 finished"), std::string::npos) << summary;
  ASSERT_TRUE(recovered.Status(id, &status));
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.trials, 6u);
  EXPECT_EQ(status.store_key, key);
  recovered.Shutdown();
}

TEST(RecoveryTest, UnopenableJournalStillServes) {
  std::string dir = FreshDir("wf-rec-badjournal");
  std::filesystem::create_directories(dir + "/store/journal.wfj");  // A DIRECTORY.
  SessionManager manager(ManagerOptions(dir));
  std::string reason;
  EXPECT_FALSE(manager.JournalHealthy(&reason));
  EXPECT_NE(reason.find("journal open failed"), std::string::npos) << reason;
  std::string id, error;
  ASSERT_TRUE(manager.Submit(DeterministicJob("noj", 4, 61), false, &id, &error))
      << error;
  ASSERT_TRUE(manager.WaitDone(id, 30000));
  manager.Shutdown();
}

// After recovery the journal is compacted: one submit + at most one wave
// record (the delta from trial 0) + one state record per session, and a
// second recovery over the compacted file reproduces the same fleet.
TEST(RecoveryTest, JournalIsCompactedAfterRecovery) {
  std::string dir = FreshDir("wf-rec-compact");
  std::string job = DeterministicJob("compacted", 8, 71);
  std::string journal_path = dir + "/store/journal.wfj";
  {
    SessionManager manager(ManagerOptions(dir));
    std::string id, error;
    ASSERT_TRUE(manager.Submit(job, false, &id, &error)) << error;
    ASSERT_TRUE(manager.WaitDone(id, 30000));
    manager.Shutdown();
  }
  // 8 iterations = several wave records pre-compaction.
  ASSERT_GE(CountWaveRecords(journal_path), 2u);
  {
    SessionManager manager(ManagerOptions(dir));
    std::string summary;
    ASSERT_TRUE(manager.Recover(&summary)) << summary;
    manager.Shutdown();
  }
  EXPECT_EQ(CountWaveRecords(journal_path), 1u);  // One record from trial 0 now.
  // Round trip: the compacted journal recovers the same session.
  SessionManager manager(ManagerOptions(dir));
  std::string summary;
  ASSERT_TRUE(manager.Recover(&summary)) << summary;
  SessionStatus status;
  ASSERT_TRUE(manager.Status("s1", &status));
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.trials, 8u);
  manager.Shutdown();
}

// ---------------------------------------------------------------------------
// Journal format: every wave record is a delta placed by its trials_total.

// Runs `job` to the end under a journaling manager over `dir` and returns
// its result text.
std::string RunToEnd(const std::string& dir, const std::string& job) {
  SessionManager manager(ManagerOptions(dir));
  std::string id, error, text;
  EXPECT_TRUE(manager.Submit(job, false, &id, &error)) << error;
  EXPECT_TRUE(manager.WaitDone(id, 120000));
  EXPECT_TRUE(manager.Result(id, &text, &error)) << error;
  manager.Shutdown();
  return text;
}

// Recovers a fresh manager over `dir`, lets session s1 finish, and returns
// its result text.
std::string RecoverToEnd(const std::string& dir) {
  SessionManager manager(ManagerOptions(dir));
  std::string summary, text, error;
  EXPECT_TRUE(manager.Recover(&summary)) << summary;
  EXPECT_TRUE(manager.WaitDone("s1", 120000));
  EXPECT_TRUE(manager.Result("s1", &text, &error)) << error;
  manager.Shutdown();
  return text;
}

// A result's trials as checkpoint text, searcher wall time zeroed and live
// state dropped: equal texts mean equal configurations, statuses, outcomes,
// objectives and simulated clocks, bit for bit (doubles print with 17
// significant digits).
std::string TrialsText(const ConfigSpace& space, const std::string& result_text) {
  CheckpointLoadResult loaded = LoadCheckpointText(space, result_text);
  EXPECT_TRUE(loaded.ok) << loaded.error;
  for (TrialRecord& trial : loaded.history) {
    trial.searcher_seconds = 0.0;
  }
  return CheckpointToText(loaded.history);
}

void WriteJournal(const std::string& dir, const std::string& records) {
  std::filesystem::create_directories(dir + "/store");
  std::ofstream(dir + "/store/journal.wfj", std::ios::binary)
      << SessionJournal::Header() << records;
}

// A score session's objectives are re-normalized every wave, yet its
// records are deltas like everyone else's: the journal grows linearly, at
// the performance job's rate per trial (the whole-history records it
// replaces cost ~199x at this size). The final Eq. 4 objectives still
// reach the result, live and after recovery: both equal the standalone
// run's trials.
TEST(JournalFormatTest, ScoreSessionJournalsDeltas) {
  double bytes_per_trial[2] = {0.0, 0.0};
  std::string result[2];
  const char* metrics[2] = {"performance", "score"};
  const std::string dirs[2] = {FreshDir("wf-fmt-size-performance"),
                               FreshDir("wf-fmt-size-score")};
  for (int i = 0; i < 2; ++i) {
    result[i] = RunToEnd(dirs[i], DeterministicJob("size", 500, 7, "nginx", "random", metrics[i]));
    bytes_per_trial[i] =
        static_cast<double>(std::filesystem::file_size(dirs[i] + "/store/journal.wfj")) /
        500.0;
  }
  EXPECT_LE(bytes_per_trial[1], 1.2 * bytes_per_trial[0])
      << "score " << bytes_per_trial[1] << " B/trial vs performance "
      << bytes_per_trial[0] << " B/trial";

  const std::string job = DeterministicJob("size", 500, 7, "nginx", "random", "score");
  ConfigSpace space = BuildJobSpace(ParseJobText(job).spec);
  JobRunResult standalone = RunJobText(job);
  ASSERT_TRUE(standalone.ok) << standalone.error;
  const std::string expected =
      TrialsText(space, CheckpointToText(standalone.session.history));
  EXPECT_EQ(TrialsText(space, result[1]), expected);
  EXPECT_EQ(TrialsText(space, RecoverToEnd(dirs[1])), expected);
}

// Journals from older writers hold `full` whole-history records for score
// sessions. They start at trial 0, so they recover unchanged: a cut
// mid-run resumes to the uninterrupted result, and a finished session
// comes back with the final objectives.
TEST(JournalFormatTest, OlderFullRecordsStillRecover) {
  const std::string job = DeterministicJob("full", 16, 7, "nginx", "random", "score");
  ConfigSpace space = BuildJobSpace(ParseJobText(job).spec);
  std::string dir = FreshDir("wf-fmt-full");
  const std::string reference = RunToEnd(dir, job);
  CheckpointLoadResult final_history = LoadCheckpointText(space, reference);
  ASSERT_TRUE(final_history.ok) << final_history.error;
  SessionJournal::ReplayResult replay = SessionJournal::Replay(dir + "/store/journal.wfj");
  ASSERT_TRUE(replay.ok) << replay.error;
  ASSERT_EQ(replay.sessions.size(), 1u);
  const std::vector<SessionJournal::WaveRecord>& waves = replay.sessions[0].waves;
  ASSERT_GE(waves.size(), 4u);

  // The older writer's records, by hand: each the whole history up to its
  // wave, objectives re-normalized over that prefix, and the wave's live
  // state.
  std::vector<std::string> full_lines;
  for (const SessionJournal::WaveRecord& wave : waves) {
    std::vector<TrialRecord> prefix(
        final_history.history.begin(),
        final_history.history.begin() + static_cast<std::ptrdiff_t>(wave.trials_total));
    RefreshScoreObjectives(&prefix);
    CheckpointLoadResult delta = LoadCheckpointText(space, wave.checkpoint_text);
    ASSERT_TRUE(delta.ok) << delta.error;
    full_lines.push_back("wave s1 " + std::to_string(wave.trials_total) + " full " +
                         JournalEscape(CheckpointToText(prefix, &delta.live)) + "\n");
  }
  const std::string submit = JournalLines(dir + "/store/journal.wfj", "submit ")[0];

  std::string cut = submit;
  for (size_t i = 0; i < full_lines.size() / 2; ++i) {
    cut += full_lines[i];
  }
  std::string cut_dir = FreshDir("wf-fmt-full-cut");
  WriteJournal(cut_dir, cut);
  EXPECT_EQ(TrialsText(space, RecoverToEnd(cut_dir)), TrialsText(space, reference));

  std::string whole = submit;
  for (const std::string& line : full_lines) {
    whole += line;
  }
  whole += SessionJournal::StateLine("s1", "done", "");
  std::string done_dir = FreshDir("wf-fmt-full-done");
  WriteJournal(done_dir, whole);
  EXPECT_EQ(RecoverToEnd(done_dir), reference);
}

// A wave record that neither continues the recovered history nor restarts
// it from trial 0 (a gap, an overlap, or more trials than its total) is
// not silently spliced: the session comes back failed and says why.
TEST(JournalFormatTest, MisplacedWaveRecordIsUnrecoverable) {
  const std::string job = DeterministicJob("placed", 8, 7);
  ConfigSpace space = BuildJobSpace(ParseJobText(job).spec);
  std::string dir = FreshDir("wf-fmt-placed");
  CheckpointLoadResult run = LoadCheckpointText(space, RunToEnd(dir, job));
  ASSERT_TRUE(run.ok) << run.error;
  auto slice = [&](size_t begin, size_t end) {
    return CheckpointToText(std::vector<TrialRecord>(
        run.history.begin() + static_cast<std::ptrdiff_t>(begin),
        run.history.begin() + static_cast<std::ptrdiff_t>(end)));
  };
  const std::string head =
      SessionJournal::SubmitLine("s1", job, false) + SessionJournal::WaveLine("s1", 3, slice(0, 3));
  const std::pair<const char*, std::string> cases[] = {
      {"gap", SessionJournal::WaveLine("s1", 7, slice(5, 7))},
      {"overlap", SessionJournal::WaveLine("s1", 4, slice(2, 4))},
      {"oversized", SessionJournal::WaveLine("s1", 2, slice(3, 6))},
  };
  for (const auto& [name, line] : cases) {
    SCOPED_TRACE(name);
    std::string case_dir = FreshDir("wf-fmt-placed-case");
    WriteJournal(case_dir, head + line);
    SessionManager manager(ManagerOptions(case_dir));
    std::string summary;
    ASSERT_TRUE(manager.Recover(&summary)) << summary;
    EXPECT_NE(summary.find("1 unrecoverable"), std::string::npos) << summary;
    SessionStatus status;
    ASSERT_TRUE(manager.Status("s1", &status));
    EXPECT_EQ(status.state, "failed");
    EXPECT_EQ(status.error.rfind("unrecoverable: ", 0), 0u) << status.error;
    manager.Shutdown();
  }
}

// ---------------------------------------------------------------------------
// The wave-cut harness: recovered ≡ uninterrupted at every wave boundary.
//
// One job runs to the end under a journaling manager. Then, for every proper
// prefix of its wave records (a crash just after that wave's fsync), a fresh
// manager recovers submit + prefix, lets the session finish, and its trials
// must equal the uninterrupted run's bit for bit. Every record of these cells
// carries live state (serial and lock-step waves always end at a commit
// boundary), which the test asserts so it cannot pass on replay alone.
//
// Cells that do not hold yet, measured at 40 trials with this harness, stay
// out of the assertion (ROADMAP, first open item):
//   * lock-step K = 4 deeptune score: 4 of 9 cuts diverge (replay feeds
//     Observe and the score refresh trial by trial; the live run did both
//     per wave);
//   * sliding K = 4 deeptune performance: 39 of 39 cuts diverge (a sliding
//     window is almost never empty at a wave boundary, so 1 of 40 records
//     carries live state and recovery resumes replay-only).
TEST(WaveCutTest, EveryCutRecoversToTheUninterruptedRun) {
  struct Cell {
    const char* algorithm;
    const char* metric;
    size_t iterations;
    size_t parallel;
  };
  // Deeptune cells are smaller: each cut replays its prefix through Observe,
  // which retrains the model once per trial.
  const Cell cells[] = {
      {"random", "performance", 40, 1}, {"random", "score", 40, 1},
      {"deeptune", "performance", 20, 1}, {"deeptune", "score", 20, 1},
      {"random", "score", 40, 4}, {"deeptune", "performance", 24, 4},
  };
  for (const Cell& cell : cells) {
    const std::string label = std::string(cell.algorithm) + " " + cell.metric + " K=" +
                              std::to_string(cell.parallel);
    SCOPED_TRACE(label);
    const std::string job = DeterministicJob("wave-cut", cell.iterations, 7, "nginx",
                                             cell.algorithm, cell.metric, cell.parallel);
    ConfigSpace space = BuildJobSpace(ParseJobText(job).spec);
    std::string dir = FreshDir("wf-wave-cut");
    const std::string reference = TrialsText(space, RunToEnd(dir, job));
    const std::string journal_path = dir + "/store/journal.wfj";
    const std::string submit = JournalLines(journal_path, "submit ")[0];
    const std::vector<std::string> waves = JournalLines(journal_path, "wave ");
    ASSERT_EQ(waves.size(), cell.iterations / cell.parallel);

    SessionJournal::ReplayResult replay = SessionJournal::Replay(journal_path);
    ASSERT_TRUE(replay.ok) << replay.error;
    size_t live_records = 0;
    for (const SessionJournal::WaveRecord& wave : replay.sessions[0].waves) {
      live_records += LoadCheckpointText(space, wave.checkpoint_text).live.Any() ? 1 : 0;
    }
    EXPECT_EQ(live_records, waves.size());

    size_t diverged = 0;
    std::string prefix = submit;
    for (size_t cut = 1; cut < waves.size(); ++cut) {
      prefix += waves[cut - 1];
      std::string cut_dir = FreshDir("wf-wave-cut-prefix");
      WriteJournal(cut_dir, prefix);
      if (TrialsText(space, RecoverToEnd(cut_dir)) != reference) {
        ++diverged;
      }
    }
    EXPECT_EQ(diverged, 0u) << "of " << waves.size() - 1 << " cuts";
  }
}

// One daemon generation, the way `wfd` runs it: RunWfdForeground in a forked
// child over `dir`'s store and journal. `job`, when given, is submitted and
// run to done; then the daemon is stopped. Returns the fleet status the
// daemon reported just before stopping.
std::vector<SessionStatus> RunDaemonGeneration(const std::string& dir, bool recover,
                                               const std::string& job) {
  const std::string socket_path = dir + "/wfd.sock";
  pid_t child = fork();
  if (child < 0) {
    ADD_FAILURE() << "fork failed";
    return {};
  }
  if (child == 0) {
    // Everything here must _exit — returning would re-run gtest in the child.
    WfdOptions options;
    options.socket_path = socket_path;
    options.poll_ms = 10;
    options.manager.store_dir = dir + "/store";
    options.recover = recover;
    _exit(RunWfdForeground(options));
  }
  ServiceRequest ping;
  ping.command = "ping";
  bool up = false;
  for (int spin = 0; spin < 2000 && !up; ++spin) {
    up = CallService(socket_path, ping).ok;
    if (!up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(up) << "daemon never answered ping";
  if (up && !job.empty()) {
    ServiceCallResult submitted = SubmitJob(socket_path, job, /*warm_start=*/false);
    EXPECT_TRUE(submitted.ok) << submitted.error;
    for (int spin = 0; submitted.ok && spin < 6000; ++spin) {
      ServiceCallResult status = QueryStatus(socket_path, submitted.response.id);
      if (!status.ok || status.response.sessions.empty() ||
          status.response.sessions[0].state == "done") {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ServiceCallResult fleet = QueryStatus(socket_path);
  EXPECT_TRUE(fleet.ok) << fleet.error;
  ServiceCallResult stop = StopDaemon(socket_path);
  EXPECT_TRUE(stop.ok) << stop.error;
  if (!stop.ok) {
    kill(child, SIGKILL);  // Never leave a daemon behind.
  }
  int wait_status = 0;
  EXPECT_EQ(waitpid(child, &wait_status, 0), child);
  EXPECT_TRUE(WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0);
  return fleet.response.sessions;
}

// `wfd --no-recover` starts fresh: the old run's journal is replaced before
// serving, so a later recovering daemon sees only the no-recover run's
// sessions. Without that, the no-recover daemon restarted numbering at s1 on
// the old journal, and the third generation merged two runs' records.
TEST(RecoveryTest, NoRecoverDaemonStartsFresh) {
  std::string dir = FreshDir("wf-rec-norecover");
  std::vector<SessionStatus> first =
      RunDaemonGeneration(dir, true, DeterministicJob("job-a", 8, 97));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].trials, 8u);
  std::vector<SessionStatus> second =
      RunDaemonGeneration(dir, false, DeterministicJob("job-b", 5, 98, "redis"));
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].name, "job-b");

  std::vector<SessionStatus> third = RunDaemonGeneration(dir, true, "");
  ASSERT_EQ(third.size(), 1u) << "the recovered fleet mixes two runs";
  EXPECT_EQ(third[0].id, "s1");
  EXPECT_EQ(third[0].name, "job-b");
  EXPECT_EQ(third[0].state, "done");
  EXPECT_EQ(third[0].trials, 5u);
  EXPECT_EQ(third[0].iterations, 5u);
  EXPECT_TRUE(third[0].recovered);
}

// ---------------------------------------------------------------------------
// Client-side reconnect policy.

TEST(ReconnectTest, BackoffGrowsExponentiallyWithBoundedJitter) {
  ReconnectPolicy policy;
  policy.base_delay_ms = 50;
  policy.max_delay_ms = 400;
  policy.seed = 7;
  uint64_t state = policy.seed;
  int previous_nominal = 0;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    int nominal = std::min(400, 50 << (attempt - 1));
    int delay = BackoffDelayMs(policy, attempt, &state);
    EXPECT_GE(delay, nominal / 2) << attempt;
    EXPECT_LE(delay, nominal) << attempt;
    EXPECT_GE(nominal, previous_nominal);
    previous_nominal = nominal;
  }
  // Deterministic for a fixed seed: the soak and this test can both pin it.
  uint64_t a = policy.seed, b = policy.seed;
  EXPECT_EQ(BackoffDelayMs(policy, 3, &a), BackoffDelayMs(policy, 3, &b));
}

TEST(ReconnectTest, OnlyIdempotentCommandsRetryByDefault) {
  EXPECT_TRUE(IdempotentServiceCommand("status"));
  EXPECT_TRUE(IdempotentServiceCommand("result"));
  EXPECT_TRUE(IdempotentServiceCommand("watch"));
  EXPECT_TRUE(IdempotentServiceCommand("ping"));
  EXPECT_FALSE(IdempotentServiceCommand("submit"));
  EXPECT_FALSE(IdempotentServiceCommand("pause"));
  EXPECT_FALSE(IdempotentServiceCommand("resume"));
  EXPECT_FALSE(IdempotentServiceCommand("stop"));
}

TEST(ReconnectTest, RetryStopsAtNonTransportFailures) {
  // No daemon at this path: every attempt is a transport failure, so a
  // 2-attempt policy dials 3 times and still reports the connect error.
  ReconnectPolicy policy;
  policy.attempts = 2;
  policy.base_delay_ms = 1;
  policy.max_delay_ms = 2;
  ServiceRequest request;
  request.command = "status";
  auto start = std::chrono::steady_clock::now();
  ServiceCallResult result =
      CallServiceRetry("/tmp/wf-definitely-no-daemon.sock", request, policy);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.transport_error);
  // It really slept between attempts (>= 2 backoff delays >= 1ms each).
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count(),
            1);

  // A non-idempotent command must NOT burn retry attempts by default.
  request.command = "submit";
  result = CallServiceRetry("/tmp/wf-definitely-no-daemon.sock", request, policy,
                            "name: x\n");
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.transport_error);
}

}  // namespace
}  // namespace wayfinder
