// The multi-session tuning service (src/service/): SessionManager lifecycle
// (submitted → running → paused → done, queueing, graceful drain), drain
// durability (a recovering manager reads back every committed trial from
// the journal), cross-session warm starts, and the acceptance end-to-end: a
// wfd daemon serving three concurrent sessions with different registry
// algorithms over the socket, bit-identical to the same jobs run standalone,
// plus a second submission warm-starting from the first one's trials.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>

#include <gtest/gtest.h>

#include "src/configspace/linux_space.h"
#include "src/configspace/unikraft_space.h"
#include "src/core/wayfinder_api.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/checkpoint.h"
#include "src/service/client.h"
#include "src/service/session_manager.h"
#include "src/service/wfd.h"

namespace wayfinder {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string FreshDir(const char* name) {
  std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string JobYaml(const std::string& name, const std::string& app,
                    const std::string& algorithm, size_t iterations, uint64_t seed,
                    size_t parallel = 1) {
  std::string yaml;
  yaml += "name: " + name + "\n";
  yaml += "os: linux\n";
  yaml += "application: " + app + "\n";
  yaml += "metric: performance\n";
  yaml += "budget:\n";
  yaml += "  iterations: " + std::to_string(iterations) + "\n";
  if (parallel > 1) {
    yaml += "parallel: " + std::to_string(parallel) + "\n";
  }
  yaml += "search:\n";
  yaml += "  algorithm: " + algorithm + "\n";
  yaml += "  seed: " + std::to_string(seed) + "\n";
  return yaml;
}

void ExpectSameTrials(const std::vector<TrialRecord>& a, const std::vector<TrialRecord>& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].config.values(), b[i].config.values()) << label << " trial " << i;
    ASSERT_EQ(static_cast<int>(a[i].outcome.status), static_cast<int>(b[i].outcome.status))
        << label << " trial " << i;
    ASSERT_EQ(a[i].sim_time_end, b[i].sim_time_end) << label << " trial " << i;
    ASSERT_EQ(a[i].outcome.metric, b[i].outcome.metric) << label << " trial " << i;
    if (std::isnan(a[i].objective)) {
      ASSERT_TRUE(std::isnan(b[i].objective)) << label << " trial " << i;
    } else {
      ASSERT_EQ(a[i].objective, b[i].objective) << label << " trial " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// SessionManager lifecycle.

TEST(SessionManagerTest, KeysSeparateAppsAndSpaces) {
  ConfigSpace linux_space = BuildLinuxSearchSpace();
  ConfigSpace unikraft_space = BuildUnikraftSpace();
  EXPECT_NE(TrialStoreKey(linux_space, AppId::kNginx),
            TrialStoreKey(linux_space, AppId::kRedis));
  EXPECT_NE(TrialStoreKey(linux_space, AppId::kNginx),
            TrialStoreKey(unikraft_space, AppId::kNginx));
  // Freezing a parameter does not change raw-value meaning, but adding one
  // does: the fingerprint tracks the parameter list.
  EXPECT_EQ(TrialStoreKey(linux_space, AppId::kNginx).rfind("nginx-", 0), 0u);
}

TEST(SessionManagerTest, RunsSubmittedJobsToDone) {
  SessionManagerOptions options;
  options.store_dir = FreshDir("wf_mgr_basic_store");
  SessionManager manager(options);
  std::string id, error;
  ASSERT_TRUE(manager.Submit(JobYaml("mgr-basic", "nginx", "random", 10, 5), true, &id,
                             &error))
      << error;
  EXPECT_EQ(id, "s1");
  ASSERT_TRUE(manager.WaitDone(id, 30000));
  SessionStatus status;
  ASSERT_TRUE(manager.Status(id, &status));
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.trials, 10u);
  EXPECT_EQ(status.warm_started, 0u);
  EXPECT_FALSE(status.store_key.empty());

  std::string checkpoint_text;
  ASSERT_TRUE(manager.Result(id, &checkpoint_text, &error)) << error;
  JobParseResult job = ParseJobText(JobYaml("mgr-basic", "nginx", "random", 10, 5));
  ConfigSpace space = BuildJobSpace(job.spec);
  CheckpointLoadResult loaded = LoadCheckpointText(space, checkpoint_text);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.history.size(), 10u);
  EXPECT_TRUE(loaded.live.Any());  // Done sessions carry live state.
  manager.Shutdown();
}

TEST(SessionManagerTest, RejectsBadJobsAndUnknownIds) {
  SessionManagerOptions options;
  SessionManager manager(options);
  std::string id, error;
  EXPECT_FALSE(manager.Submit("os: betamax\n", true, &id, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(manager.Pause("s1"));
  EXPECT_FALSE(manager.Resume("s1"));
  SessionStatus status;
  EXPECT_FALSE(manager.Status("s1", &status));
  std::string text;
  EXPECT_FALSE(manager.Result("s1", &text, &error));
  manager.Shutdown();
}

TEST(SessionManagerTest, QueuesBeyondMaxRunning) {
  SessionManagerOptions options;
  options.max_running = 1;
  SessionManager manager(options);
  std::string first, second, error;
  ASSERT_TRUE(manager.Submit(JobYaml("queue-a", "nginx", "random", 40, 6), true, &first,
                             &error))
      << error;
  ASSERT_TRUE(manager.Submit(JobYaml("queue-b", "redis", "random", 10, 7), true, &second,
                             &error))
      << error;
  // With one slot, the second job waits its turn...
  SessionStatus status;
  ASSERT_TRUE(manager.Status(second, &status));
  EXPECT_TRUE(status.state == "submitted" || status.state == "running") << status.state;
  // ...and both finish.
  ASSERT_TRUE(manager.WaitDone(first, 30000));
  ASSERT_TRUE(manager.WaitDone(second, 30000));
  ASSERT_TRUE(manager.Status(second, &status));
  EXPECT_EQ(status.state, "done");
  manager.Shutdown();
}

TEST(SessionManagerTest, PauseHoldsAtARoundBoundaryAndResumeContinues) {
  SessionManagerOptions options;
  SessionManager manager(options);
  std::string id, error;
  // Enough budget that the pause lands mid-run.
  ASSERT_TRUE(manager.Submit(JobYaml("pausable", "nginx", "random", 2000, 8), true, &id,
                             &error))
      << error;
  ASSERT_TRUE(manager.Pause(id));
  // The driver parks at the next StepBatch boundary.
  SessionStatus status;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(manager.Status(id, &status));
    if (status.state == "paused") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(status.state, "paused");
  size_t paused_trials = status.trials;
  EXPECT_LT(paused_trials, 2000u);
  // Paused sessions are checkpointable mid-run, live state included.
  std::string checkpoint_text;
  ASSERT_TRUE(manager.Result(id, &checkpoint_text, &error)) << error;
  EXPECT_NE(checkpoint_text.find("rng-session"), std::string::npos);
  // Frozen while paused.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(manager.Status(id, &status));
  EXPECT_EQ(status.trials, paused_trials);
  ASSERT_TRUE(manager.Resume(id));
  ASSERT_TRUE(manager.WaitDone(id, 60000));
  ASSERT_TRUE(manager.Status(id, &status));
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.trials, 2000u);
  manager.Shutdown();
}

// Draining mid-run loses no committed trial: a fresh manager (a new
// "process") recovering the same store reads back exactly the drained
// history from the journal. The drain also writes resumable checkpoints.
TEST(SessionManagerTest, DrainLosesNoCommittedTrialAndWritesCheckpoints) {
  std::string store_dir = FreshDir("wf_mgr_drain_store");
  std::string ckpt_dir = FreshDir("wf_mgr_drain_ckpt");
  SessionManagerOptions options;
  options.store_dir = store_dir;
  options.checkpoint_dir = ckpt_dir;

  std::string id, error;
  std::string yaml = JobYaml("drainable", "nginx", "random", 4000, 9);
  std::vector<TrialRecord> committed;
  {
    SessionManager manager(options);
    ASSERT_TRUE(manager.Submit(yaml, true, &id, &error)) << error;
    // Let it commit a few trials, then pull the plug mid-run.
    SessionStatus status;
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(manager.Status(id, &status));
      if (status.trials >= 5) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(status.trials, 5u);
    manager.Shutdown();
    ASSERT_TRUE(manager.Status(id, &status));
    EXPECT_EQ(status.state, "stopped");
    std::string checkpoint_text;
    ASSERT_TRUE(manager.Result(id, &checkpoint_text, &error)) << error;
    JobParseResult job = ParseJobText(yaml);
    ConfigSpace space = BuildJobSpace(job.spec);
    CheckpointLoadResult loaded = LoadCheckpointText(space, checkpoint_text);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    committed = loaded.history;
    ASSERT_GE(committed.size(), 5u);
  }

  // The drain checkpoint restores into a session that finishes the budget.
  JobParseResult job = ParseJobText(yaml);
  ConfigSpace space = BuildJobSpace(job.spec);
  CheckpointLoadResult drained =
      LoadCheckpoint(space, ckpt_dir + "/" + id + ".ckpt");
  ASSERT_TRUE(drained.ok) << drained.error;
  ASSERT_EQ(drained.history.size(), committed.size());
  EXPECT_TRUE(drained.live.Any());

  SessionManager recovered(options);
  std::string summary;
  ASSERT_TRUE(recovered.Recover(&summary)) << summary;
  std::string recovered_text;
  ASSERT_TRUE(recovered.Result(id, &recovered_text, &error)) << error;
  CheckpointLoadResult reloaded = LoadCheckpointText(space, recovered_text);
  ASSERT_TRUE(reloaded.ok) << reloaded.error;
  ExpectSameTrials(committed, reloaded.history, "drained vs recovered");
  recovered.Shutdown();
}

TEST(SessionManagerTest, ScoreObjectiveResultsCarryFinalObjectives) {
  // metric: score re-normalizes PAST objectives after every wave
  // (RefreshScores), so the manager's mirror — what status/result/warm
  // starts see — must track the rewritten history, not the at-commit
  // values. The pin: the daemon-side result equals the standalone run bit
  // for bit, objectives included, before and after recovery. Favoring
  // runtime parameters keeps most trials alive, so later successes move the
  // min-max range and rewrite the objectives already mirrored.
  std::string yaml =
      "name: score-mirror\nos: linux\napplication: nginx\nmetric: score\n"
      "budget:\n  iterations: 20\nsearch:\n  algorithm: random\n  seed: 31\n"
      "  favor: runtime\n";
  SessionManagerOptions options;
  options.store_dir = FreshDir("wf_mgr_score_store");
  SessionManager manager(options);
  std::string id, error;
  ASSERT_TRUE(manager.Submit(yaml, true, &id, &error)) << error;
  ASSERT_TRUE(manager.WaitDone(id, 30000));

  std::string checkpoint_text;
  ASSERT_TRUE(manager.Result(id, &checkpoint_text, &error)) << error;
  JobParseResult job = ParseJobText(yaml);
  ConfigSpace space = BuildJobSpace(job.spec);
  CheckpointLoadResult daemon_history = LoadCheckpointText(space, checkpoint_text);
  ASSERT_TRUE(daemon_history.ok) << daemon_history.error;
  JobRunResult standalone = RunJobText(yaml);
  ASSERT_TRUE(standalone.ok) << standalone.error;
  size_t successes = 0;
  for (const TrialRecord& trial : standalone.session.history) {
    successes += trial.HasObjective() ? 1 : 0;
  }
  // With fewer successes Eq. 4 has no range to re-normalize over, and the
  // pin would hold even for a mirror that never refreshes.
  ASSERT_GE(successes, 3u);
  ExpectSameTrials(standalone.session.history, daemon_history.history, "score mirror");

  // Status `best` reflects the final normalization too.
  SessionStatus status;
  ASSERT_TRUE(manager.Status(id, &status));
  double best = -1e300;
  for (const TrialRecord& trial : standalone.session.history) {
    if (trial.HasObjective()) {
      best = std::max(best, trial.objective);
    }
  }
  ASSERT_TRUE(status.has_best);
  EXPECT_EQ(status.best, best);

  manager.Shutdown();

  // The journal's last full wave holds the final objectives, so the
  // recovered result matches the standalone run too.
  SessionManager recovered(options);
  std::string summary;
  ASSERT_TRUE(recovered.Recover(&summary)) << summary;
  ASSERT_TRUE(recovered.Result(id, &checkpoint_text, &error)) << error;
  CheckpointLoadResult recovered_history = LoadCheckpointText(space, checkpoint_text);
  ASSERT_TRUE(recovered_history.ok) << recovered_history.error;
  ExpectSameTrials(standalone.session.history, recovered_history.history,
                   "recovered score mirror");
  recovered.Shutdown();
}

TEST(SessionManagerTest, WarmStartObservesPriorTrials) {
  SessionManagerOptions options;
  options.store_dir = FreshDir("wf_mgr_warm_store");
  const std::string first_yaml = JobYaml("warm-a", "nginx", "random", 12, 10);
  size_t distinct = 0;
  {
    SessionManager manager(options);
    std::string first, warm, other_app, cold, error;
    ASSERT_TRUE(manager.Submit(first_yaml, true, &first, &error)) << error;
    ASSERT_TRUE(manager.WaitDone(first, 30000));
    std::string text;
    ASSERT_TRUE(manager.Result(first, &text, &error)) << error;
    ConfigSpace space = BuildJobSpace(ParseJobText(first_yaml).spec);
    CheckpointLoadResult history = LoadCheckpointText(space, text);
    ASSERT_TRUE(history.ok) << history.error;
    std::unordered_set<uint64_t> configs;
    for (const TrialRecord& trial : history.history) {
      configs.insert(trial.config.Hash());
    }
    distinct = configs.size();
    ASSERT_GT(distinct, 0u);

    // Second submission against the same (space, app) key: warm-started
    // with one record per distinct configuration.
    ASSERT_TRUE(manager.Submit(JobYaml("warm-b", "nginx", "deeptune", 6, 11), true, &warm,
                               &error))
        << error;
    SessionStatus status;
    ASSERT_TRUE(manager.Status(warm, &status));
    EXPECT_EQ(status.warm_started, distinct);
    // Another application's key sees none of it.
    ASSERT_TRUE(manager.Submit(JobYaml("warm-r", "redis", "deeptune", 6, 11), true,
                               &other_app, &error))
        << error;
    ASSERT_TRUE(manager.Status(other_app, &status));
    EXPECT_EQ(status.warm_started, 0u);
    // Opting out works.
    ASSERT_TRUE(manager.Submit(JobYaml("warm-c", "nginx", "deeptune", 6, 11), false, &cold,
                               &error))
        << error;
    ASSERT_TRUE(manager.Status(cold, &status));
    EXPECT_EQ(status.warm_started, 0u);
    ASSERT_TRUE(manager.WaitDone(warm, 60000));
    ASSERT_TRUE(manager.WaitDone(other_app, 60000));
    ASSERT_TRUE(manager.WaitDone(cold, 60000));
    manager.Shutdown();
  }

  // Trials outlive the process: a recovering manager's warm submission
  // sees at least the first session's trials.
  SessionManager recovered(options);
  std::string summary;
  ASSERT_TRUE(recovered.Recover(&summary)) << summary;
  std::string id, error;
  ASSERT_TRUE(recovered.Submit(JobYaml("warm-d", "nginx", "deeptune", 6, 12), true, &id,
                               &error))
      << error;
  SessionStatus status;
  ASSERT_TRUE(recovered.Status(id, &status));
  EXPECT_GE(status.warm_started, distinct);
  ASSERT_TRUE(recovered.WaitDone(id, 60000));
  recovered.Shutdown();
}

// Without a store nothing outlives a session: a second same-key warm
// submission observes nothing and runs exactly as it does standalone.
TEST(SessionManagerTest, StorelessManagerNeverWarmStarts) {
  SessionManager manager(SessionManagerOptions{});
  const std::string second_yaml = JobYaml("storeless-b", "nginx", "deeptune", 6, 11);
  std::string first, second, error;
  ASSERT_TRUE(manager.Submit(JobYaml("storeless-a", "nginx", "random", 12, 10), true, &first,
                             &error))
      << error;
  ASSERT_TRUE(manager.WaitDone(first, 30000));
  ASSERT_TRUE(manager.Submit(second_yaml, true, &second, &error)) << error;
  SessionStatus status;
  ASSERT_TRUE(manager.Status(second, &status));
  EXPECT_EQ(status.warm_started, 0u);
  ASSERT_TRUE(manager.WaitDone(second, 60000));

  std::string text;
  ASSERT_TRUE(manager.Result(second, &text, &error)) << error;
  ConfigSpace space = BuildJobSpace(ParseJobText(second_yaml).spec);
  CheckpointLoadResult daemon_history = LoadCheckpointText(space, text);
  ASSERT_TRUE(daemon_history.ok) << daemon_history.error;
  JobRunResult standalone = RunJobText(second_yaml);
  ASSERT_TRUE(standalone.ok) << standalone.error;
  ExpectSameTrials(standalone.session.history, daemon_history.history, "storeless warm");
  manager.Shutdown();
}

// ---------------------------------------------------------------------------
// The acceptance end-to-end: wfd over the socket.

TEST(WfdEndToEnd, ThreeConcurrentAlgorithmsMatchStandaloneThenWarmStart) {
  std::string socket_path = TempPath("wf_service_e2e.sock");
  std::string store_dir = FreshDir("wf_service_e2e_store");
  WfdOptions options;
  options.socket_path = socket_path;
  options.poll_ms = 10;
  options.manager.store_dir = store_dir;
  options.manager.max_running = 4;
  WfdServer server(options);
  ASSERT_TRUE(server.Start()) << server.error();
  std::thread serve([&] { server.Serve(); });

  // Three different registry algorithms, three different (space, app) keys
  // (distinct apps), one with in-session parallelism — all submitted before
  // any completes, so they run concurrently on the shared pool.
  std::vector<std::string> yamls = {
      JobYaml("e2e-deeptune", "nginx", "deeptune", 16, 21),
      JobYaml("e2e-random", "redis", "random", 16, 22, /*parallel=*/2),
      JobYaml("e2e-genetic", "sqlite", "genetic", 16, 23),
  };
  std::vector<std::string> ids;
  for (const std::string& yaml : yamls) {
    ServiceCallResult submitted = SubmitJob(socket_path, yaml);
    ASSERT_TRUE(submitted.ok) << submitted.error;
    ids.push_back(submitted.response.id);
  }
  ServiceCallResult fleet = QueryStatus(socket_path);
  ASSERT_TRUE(fleet.ok) << fleet.error;
  ASSERT_EQ(fleet.response.sessions.size(), 3u);

  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(server.manager().WaitDone(ids[i], 120000)) << yamls[i];
    ServiceCallResult status = QueryStatus(socket_path, ids[i]);
    ASSERT_TRUE(status.ok) << status.error;
    ASSERT_EQ(status.response.sessions.size(), 1u);
    EXPECT_EQ(status.response.sessions[0].state, "done");
    EXPECT_EQ(status.response.sessions[0].trials, 16u);
    EXPECT_EQ(status.response.sessions[0].warm_started, 0u);
  }

  // Bit-identity: each session's history, fetched over the socket, equals
  // the same job run standalone (RunJobText) with the same seeds.
  for (size_t i = 0; i < ids.size(); ++i) {
    ServiceCallResult result = FetchResult(socket_path, ids[i]);
    ASSERT_TRUE(result.ok) << result.error;
    JobParseResult job = ParseJobText(yamls[i]);
    ASSERT_TRUE(job.ok) << job.error;
    ConfigSpace space = BuildJobSpace(job.spec);
    CheckpointLoadResult daemon_history = LoadCheckpointText(space, result.payload);
    ASSERT_TRUE(daemon_history.ok) << daemon_history.error;

    JobRunResult standalone = RunJobText(yamls[i]);
    ASSERT_TRUE(standalone.ok) << standalone.error;
    ExpectSameTrials(standalone.session.history, daemon_history.history,
                     "daemon-vs-standalone " + yamls[i]);
  }

  // Second submission against the deeptune job's (space, app) key: its
  // searcher observes the first session's committed trials before
  // proposing, and the status reports it.
  std::unordered_set<uint64_t> distinct;
  {
    ServiceCallResult result = FetchResult(socket_path, ids[0]);
    ASSERT_TRUE(result.ok) << result.error;
    JobParseResult job = ParseJobText(yamls[0]);
    ConfigSpace space = BuildJobSpace(job.spec);
    CheckpointLoadResult history = LoadCheckpointText(space, result.payload);
    ASSERT_TRUE(history.ok);
    for (const TrialRecord& trial : history.history) {
      distinct.insert(trial.config.Hash());
    }
  }
  std::string warm_yaml = JobYaml("e2e-warm", "nginx", "deeptune", 6, 24);
  ServiceCallResult warm = SubmitJob(socket_path, warm_yaml);
  ASSERT_TRUE(warm.ok) << warm.error;
  ServiceCallResult warm_status = QueryStatus(socket_path, warm.response.id);
  ASSERT_TRUE(warm_status.ok) << warm_status.error;
  EXPECT_EQ(warm_status.response.sessions[0].warm_started, distinct.size());
  EXPECT_GT(warm_status.response.sessions[0].warm_started, 0u);
  ASSERT_TRUE(server.manager().WaitDone(warm.response.id, 120000));
  // The observed prior history shows in the trial log: a warm-started
  // DeepTune skips its random warmup and proposes from the pre-trained
  // model, so the trajectory diverges from the same job run cold.
  {
    ServiceCallResult result = FetchResult(socket_path, warm.response.id);
    ASSERT_TRUE(result.ok) << result.error;
    JobParseResult job = ParseJobText(warm_yaml);
    ConfigSpace space = BuildJobSpace(job.spec);
    CheckpointLoadResult warm_history = LoadCheckpointText(space, result.payload);
    ASSERT_TRUE(warm_history.ok) << warm_history.error;
    ASSERT_EQ(warm_history.history.size(), 6u);
    JobRunResult cold = RunJobText(warm_yaml);
    ASSERT_TRUE(cold.ok) << cold.error;
    bool diverged = false;
    for (size_t i = 0; i < 6; ++i) {
      diverged |= warm_history.history[i].config.Hash() !=
                  cold.session.history[i].config.Hash();
    }
    EXPECT_TRUE(diverged) << "warm start left no trace in the trial log";
  }

  ServiceCallResult stop = StopDaemon(socket_path);
  EXPECT_TRUE(stop.ok) << stop.error;
  serve.join();
}

// ---------------------------------------------------------------------------
// Server-pushed watch and the fleet-status cache against a live daemon.

TEST(WfdEndToEnd, WatchStreamsPushesUntilDone) {
  std::string socket_path = TempPath("wf_service_watch.sock");
  WfdOptions options;
  options.socket_path = socket_path;
  options.poll_ms = 10;
  options.manager.store_dir = FreshDir("wf_service_watch_store");
  WfdServer server(options);
  ASSERT_TRUE(server.Start()) << server.error();
  std::thread serve([&] { server.Serve(); });

  ServiceCallResult submitted =
      SubmitJob(socket_path, JobYaml("watch-e2e", "nginx", "random", 200, 31));
  ASSERT_TRUE(submitted.ok) << submitted.error;
  const std::string id = submitted.response.id;

  ServiceConnection watcher;
  std::string error;
  ASSERT_TRUE(watcher.Connect(socket_path, true, &error)) << error;
  SetRecvTimeout(watcher.fd(), 30000);
  ServiceRequest watch;
  watch.command = "watch";
  watch.id = id;
  ServiceCallResult ack = watcher.Call(watch);
  ASSERT_TRUE(ack.ok) << ack.error;
  EXPECT_EQ(ack.response.state, "watching");
  ASSERT_EQ(ack.response.sessions.size(), 1u);  // Baseline snapshot.
  EXPECT_EQ(ack.response.sessions[0].id, id);

  // Pushes arrive at wave boundaries: trials never go backwards and the
  // stream ends with the terminal state.
  size_t last_trials = ack.response.sessions[0].trials;
  std::string last_state = ack.response.sessions[0].state;
  size_t pushes = 0;
  while (last_state != "done" && last_state != "failed") {
    ServiceResponse push;
    ASSERT_TRUE(watcher.ReadResponse(&push, &error)) << error;
    ASSERT_TRUE(push.ok) << push.error;
    EXPECT_EQ(push.state, "push");
    ASSERT_EQ(push.sessions.size(), 1u);
    EXPECT_EQ(push.sessions[0].id, id);
    EXPECT_GE(push.sessions[0].trials, last_trials) << "trials went backwards";
    last_trials = push.sessions[0].trials;
    last_state = push.sessions[0].state;
    ++pushes;
    ASSERT_LT(pushes, 10000u) << "watch stream never reached a terminal state";
  }
  EXPECT_EQ(last_state, "done");
  EXPECT_EQ(last_trials, 200u);
  EXPECT_GE(pushes, 1u);

  ServiceCallResult stop = StopDaemon(socket_path);
  EXPECT_TRUE(stop.ok) << stop.error;
  serve.join();
}

// The daemon caches the encoded fleet-status reply and reuses it until the
// manager's status version moves (the dashboard fast path). Two held
// connections repeatedly ask for fleet status while the fleet changes
// underneath them: every reply must reflect the current fleet, and repeated
// identical asks (the cache-hit path) must agree with each other and across
// connections.
TEST(WfdEndToEnd, FleetStatusStaysFreshAcrossCacheHits) {
  std::string socket_path = TempPath("wf_service_statuscache.sock");
  WfdOptions options;
  options.socket_path = socket_path;
  options.poll_ms = 10;
  WfdServer server(options);
  ASSERT_TRUE(server.Start()) << server.error();
  std::thread serve([&] { server.Serve(); });

  ServiceConnection conns[2];
  std::string error;
  for (ServiceConnection& conn : conns) {
    ASSERT_TRUE(conn.Connect(socket_path, true, &error)) << error;
    SetRecvTimeout(conn.fd(), 30000);
  }

  ServiceRequest fleet;
  fleet.command = "status";
  auto fleet_sizes = [&](size_t expect) {
    // Ask twice per connection so the later hits are served from the cache.
    for (int round = 0; round < 2; ++round) {
      for (int c = 0; c < 2; ++c) {
        ServiceCallResult got = conns[c].Call(fleet);
        ASSERT_TRUE(got.ok) << got.error;
        ASSERT_EQ(got.response.sessions.size(), expect)
            << "connection " << c << " round " << round;
      }
    }
  };

  fleet_sizes(0);  // Empty daemon: empty fleet, on both connections, twice.
  ServiceCallResult first =
      SubmitJob(socket_path, JobYaml("cache-a", "nginx", "random", 6, 41));
  ASSERT_TRUE(first.ok) << first.error;
  fleet_sizes(1);  // Submission invalidated the cached empty reply.
  ServiceCallResult second =
      SubmitJob(socket_path, JobYaml("cache-b", "nginx", "random", 6, 42));
  ASSERT_TRUE(second.ok) << second.error;
  fleet_sizes(2);
  ASSERT_TRUE(server.manager().WaitDone(first.response.id, 60000));
  ASSERT_TRUE(server.manager().WaitDone(second.response.id, 60000));

  // Terminal states reached the cache too: both connections report both
  // sessions done with their full trial counts, and agree field for field.
  ServiceCallResult a = conns[0].Call(fleet);
  ServiceCallResult b = conns[1].Call(fleet);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_EQ(a.response.sessions.size(), 2u);
  ASSERT_EQ(b.response.sessions.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.response.sessions[i].state, "done");
    EXPECT_EQ(a.response.sessions[i].trials, 6u);
    EXPECT_EQ(a.response.sessions[i].id, b.response.sessions[i].id);
    EXPECT_EQ(a.response.sessions[i].state, b.response.sessions[i].state);
    EXPECT_EQ(a.response.sessions[i].trials, b.response.sessions[i].trials);
    EXPECT_EQ(a.response.sessions[i].best, b.response.sessions[i].best);
  }

  ServiceCallResult stop = StopDaemon(socket_path);
  EXPECT_TRUE(stop.ok) << stop.error;
  serve.join();
}

// ---------------------------------------------------------------------------
// Observability plane: metrics/trace over the socket and the
// metrics-on-equals-metrics-off determinism pin.

// Restores the default-off recording state on scope exit so a metrics-on
// daemon test can never leak an enabled registry into later tests (the
// WfdServer enable is global and deliberately one-way).
struct ScopedRecordingOff {
  ~ScopedRecordingOff() { obs::SetEnabled(false); }
};

// Normalizes the one wall-clock field in a v2 checkpoint text — each trial
// line's trailing searcher_seconds (field 11; an optional failure reason
// follows it) — so two runs compare byte-for-byte on everything the
// determinism contract actually covers.
std::string StripWallClock(const std::string& checkpoint) {
  std::istringstream in(checkpoint);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("trial ", 0) == 0) {
      size_t pos = 0;
      int spaces = 0;
      while (pos < line.size() && spaces < 11) {
        if (line[pos] == ' ') {
          ++spaces;
        }
        ++pos;
      }
      size_t end = line.find(' ', pos);
      if (spaces == 11) {
        line = line.substr(0, pos) + "0" +
               (end == std::string::npos ? "" : line.substr(end));
      }
    }
    out += line + "\n";
  }
  return out;
}

TEST(WfdObservability, MetricsAndTracePayloadsAreStableWhileRecordingOff) {
  std::string socket_path = TempPath("wf_service_obs_stable.sock");
  WfdOptions options;
  options.socket_path = socket_path;
  options.poll_ms = 10;
  WfdServer server(options);  // No --metrics: the registry is frozen.
  ASSERT_TRUE(server.Start()) << server.error();
  std::thread serve([&] { server.Serve(); });

  ServiceCallResult submitted =
      SubmitJob(socket_path, JobYaml("obs-stable", "nginx", "random", 8, 41));
  ASSERT_TRUE(submitted.ok) << submitted.error;
  std::string id = submitted.response.id;
  ASSERT_TRUE(server.manager().WaitDone(id, 120000));

  // With recording off every instrument is frozen, so the metrics payload
  // is byte-identical across calls (the daemon renders one text and ships
  // it verbatim as a payload frame).
  ServiceRequest metrics;
  metrics.command = "metrics";
  ServiceCallResult first_metrics = CallService(socket_path, metrics);
  ServiceCallResult second_metrics = CallService(socket_path, metrics);
  ASSERT_TRUE(first_metrics.ok) << first_metrics.error;
  ASSERT_TRUE(second_metrics.ok) << second_metrics.error;
  EXPECT_EQ(first_metrics.payload, second_metrics.payload);
  EXPECT_EQ(first_metrics.payload.rfind("# wayfinder metrics v1\nrecording 0\n", 0),
            0u);
  // Recording off also means the health gauge still tells the truth: this
  // daemon runs without a journal, which is healthy (nothing to degrade).
  EXPECT_NE(first_metrics.payload.find("gauge service.journal_degraded 0"),
            std::string::npos);

  // The done session's ring is frozen (and empty — recording was off), so
  // two fetches return the same bytes, and the export is valid Chrome
  // trace JSON even with zero events.
  ServiceRequest trace;
  trace.command = "trace";
  trace.id = id;
  ServiceCallResult first_trace = CallService(socket_path, trace);
  ServiceCallResult second_trace = CallService(socket_path, trace);
  ASSERT_TRUE(first_trace.ok) << first_trace.error;
  ASSERT_TRUE(second_trace.ok) << second_trace.error;
  EXPECT_EQ(first_trace.payload, second_trace.payload);
  std::string error;
  EXPECT_TRUE(obs::ValidateChromeTraceJson(first_trace.payload, &error)) << error;

  // An unknown session's trace is a daemon error, not a transport failure.
  trace.id = "s999";
  ServiceCallResult bad = CallService(socket_path, trace);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.transport_error);
  EXPECT_NE(bad.error.find("s999"), std::string::npos) << bad.error;

  ServiceCallResult stop = StopDaemon(socket_path);
  EXPECT_TRUE(stop.ok) << stop.error;
  serve.join();
}

TEST(WfdObservability, RecordingDaemonServesLiveMetricsAndTraces) {
  ScopedRecordingOff restore;
  std::string socket_path = TempPath("wf_service_obs_live.sock");
  WfdOptions options;
  options.socket_path = socket_path;
  options.poll_ms = 10;
  options.metrics = true;  // `wfd --metrics`.
  WfdServer server(options);
  ASSERT_TRUE(server.Start()) << server.error();
  std::thread serve([&] { server.Serve(); });

  ServiceCallResult submitted =
      SubmitJob(socket_path, JobYaml("obs-live", "nginx", "deeptune", 12, 42));
  ASSERT_TRUE(submitted.ok) << submitted.error;
  std::string id = submitted.response.id;
  ASSERT_TRUE(server.manager().WaitDone(id, 120000));

  ServiceRequest metrics;
  metrics.command = "metrics";
  ServiceCallResult call = CallService(socket_path, metrics);
  ASSERT_TRUE(call.ok) << call.error;
  const std::string& text = call.payload;
  EXPECT_EQ(text.rfind("# wayfinder metrics v1\nrecording 1\n", 0), 0u);
  // The session plane counted its work...
  EXPECT_NE(text.find("counter service.trials 12"), std::string::npos) << text;
  EXPECT_NE(text.find("histogram service.wave_ns count="), std::string::npos);
  // ...and so did the transport underneath this very conversation.
  EXPECT_NE(text.find("counter transport.frames_rx "), std::string::npos);

  // The per-session gauges folded into SessionStatus at wave boundaries.
  ServiceCallResult status = QueryStatus(socket_path, id);
  ASSERT_TRUE(status.ok) << status.error;
  ASSERT_EQ(status.response.sessions.size(), 1u);
  EXPECT_GT(status.response.sessions[0].memory_bytes, 0u);
  EXPECT_GT(status.response.sessions[0].wave_p99_ms,
            status.response.sessions[0].wave_p50_ms * 0.999);

  // The trace ring saw the whole trial lifecycle and exports valid Chrome
  // trace JSON with the stage names in place.
  ServiceRequest trace;
  trace.command = "trace";
  trace.id = id;
  ServiceCallResult traced = CallService(socket_path, trace);
  ASSERT_TRUE(traced.ok) << traced.error;
  std::string error;
  EXPECT_TRUE(obs::ValidateChromeTraceJson(traced.payload, &error)) << error;
  EXPECT_NE(traced.payload.find("\"propose\""), std::string::npos);
  EXPECT_NE(traced.payload.find("\"evaluate\""), std::string::npos);
  EXPECT_NE(traced.payload.find("\"commit\""), std::string::npos);

  ServiceCallResult stop = StopDaemon(socket_path);
  EXPECT_TRUE(stop.ok) << stop.error;
  serve.join();
}

// The acceptance pin: a metrics-on daemon commits byte-identical histories
// and checkpoints to a metrics-off daemon for the same jobs. Recording must
// observe, never perturb.
TEST(WfdObservability, MetricsOnIsBitIdenticalToMetricsOff) {
  ScopedRecordingOff restore;
  std::vector<std::string> yamls = {
      JobYaml("obs-det-deeptune", "nginx", "deeptune", 40, 51),
      JobYaml("obs-det-random", "redis", "random", 40, 52, /*parallel=*/2),
  };

  auto run_fleet = [&](const char* tag, bool metrics_on) {
    std::string socket_path = TempPath((std::string("wf_obs_det_") + tag + ".sock").c_str());
    WfdOptions options;
    options.socket_path = socket_path;
    options.poll_ms = 10;
    options.manager.store_dir =
        FreshDir((std::string("wf_obs_det_store_") + tag).c_str());
    options.metrics = metrics_on;
    WfdServer server(options);
    EXPECT_TRUE(server.Start()) << server.error();
    std::thread serve([&] { server.Serve(); });
    std::vector<std::string> payloads;
    for (const std::string& yaml : yamls) {
      ServiceCallResult submitted = SubmitJob(socket_path, yaml);
      EXPECT_TRUE(submitted.ok) << submitted.error;
      EXPECT_TRUE(server.manager().WaitDone(submitted.response.id, 120000));
      ServiceCallResult result = FetchResult(socket_path, submitted.response.id);
      EXPECT_TRUE(result.ok) << result.error;
      payloads.push_back(result.payload);
    }
    ServiceCallResult stop = StopDaemon(socket_path);
    EXPECT_TRUE(stop.ok) << stop.error;
    serve.join();
    return payloads;
  };

  std::vector<std::string> off = run_fleet("off", false);
  obs::SetEnabled(false);  // The metrics-on fleet must enable it itself.
  std::vector<std::string> on = run_fleet("on", true);
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    // Byte-for-byte on the checkpoint text, with only the wall-clock
    // searcher_seconds field masked (it is nondeterministic in both runs).
    EXPECT_EQ(StripWallClock(off[i]), StripWallClock(on[i])) << yamls[i];
  }
}

}  // namespace
}  // namespace wayfinder
