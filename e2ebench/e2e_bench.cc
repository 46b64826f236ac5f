// e2e_bench — one repetition of one end-to-end workload, timed from outside
// through the program's public functions. It prints ONE JSON object of raw
// measurements on stdout; run.py turns repetitions into metrics.
//
//   e2e_bench dt-serial  --seed N --trace 0|1 --workdir DIR
//   e2e_bench dt-fleet   --seed N --trace 0|1 --workdir DIR --wfd PATH
//   e2e_bench selftest   --seed N
//
// dt-serial drives the library (`SearchSession::StepBatch`, the loop inside
// `RunSearch`) in this process, on one thread. dt-fleet spawns a real `wfd`
// child with a store and journal and drives it over `ServiceConnection::Call`.
// Traced runs
// turn on the existing src/obs instruments (in-process `obs::SetEnabled`, or
// `wfd --metrics`) and dump the registry text and each session's Chrome
// trace into the work directory; no span is added inside the program.
#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/wayfinder_api.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/checkpoint.h"
#include "src/platform/job_file.h"
#include "src/platform/session.h"
#include "src/service/binary_codec.h"
#include "src/service/client.h"
#include "src/util/rng.h"

namespace {

using namespace wayfinder;

constexpr size_t kDtTrials = 250;
constexpr size_t kSelftestTrials = 40;
constexpr size_t kWarmTrials = 10;
// Timed warm submissions; one untimed submission goes first, so allocator
// and cache warm-up, which a daemon pays once, is not counted.
constexpr size_t kWarmSubmits = 3;
constexpr double kPollPeriodS = 0.002;  // 500 req/s per poller.
constexpr int kPollers = 2;
// Set-ups per repetition. A library set-up takes about 1 ms and single ones
// swing 1-5 ms, so dt-serial takes many; a daemon spawn is steadier.
constexpr int kSerialSetups = 25;
constexpr int kFleetSetups = 5;
constexpr double kJobTimeoutS = 150.0;
constexpr size_t kWindows = 25;
const char* const kSocket = "wfd.sock";

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Raw-result JSON ---------------------------------------------------------

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

class JsonOut {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Field(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    Field(key, "\"" + Escape(value) + "\"");
  }
  void Nums(const std::string& key, const std::vector<double>& values) {
    std::string text = "[";
    char buf[64];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", values[i]);
      text += buf;
    }
    Field(key, text + "]");
  }
  void Strs(const std::string& key, const std::vector<std::string>& values) {
    std::string text = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      text += (i ? ",\"" : "\"") + Escape(values[i]) + "\"";
    }
    Field(key, text + "]");
  }
  void StrMap(const std::string& key, const std::map<std::string, std::string>& values) {
    std::string text = "{";
    bool first = true;
    for (const auto& [k, v] : values) {
      text += (first ? "\"" : ",\"") + Escape(k) + "\":\"" + Escape(v) + "\"";
      first = false;
    }
    Field(key, text + "}");
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Field(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "\"" : ",\"") + Escape(key) + "\":" + raw;
  }
  std::string body_;
};

// Operation accounting: every call, job, and output check is one attempt.
struct Ops {
  std::mutex mu;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;

  bool Check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) {
        errors.push_back(what);
      }
    }
    return ok;
  }
  void Add(size_t n_attempted, size_t n_failed) {
    std::lock_guard<std::mutex> lock(mu);
    attempted += n_attempted;
    failed += n_failed;
  }
};

// --- /proc sampling ------------------------------------------------------------

bool ReadFile(const std::string& path, std::string* text) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

// utime + stime of a /proc/<...>/stat file, in seconds.
double StatCpuSeconds(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    return 0.0;
  }
  size_t close = text.rfind(')');
  if (close == std::string::npos) {
    return 0.0;
  }
  std::istringstream fields(text.substr(close + 2));
  std::vector<std::string> parts;
  std::string part;
  while (fields >> part) {
    parts.push_back(part);
  }
  if (parts.size() < 13) {
    return 0.0;
  }
  double ticks = std::strtod(parts[11].c_str(), nullptr) + std::strtod(parts[12].c_str(), nullptr);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Value of a `Key:   N` line of a /proc status file.
double StatusField(const std::string& path, const std::string& key) {
  std::string text;
  if (!ReadFile(path, &text)) {
    return 0.0;
  }
  size_t at = text.find("\n" + key + ":");
  if (at == std::string::npos) {
    return 0.0;
  }
  return std::strtod(text.c_str() + at + key.size() + 2, nullptr);
}

double PeakRssMb(pid_t pid) {
  return StatusField("/proc/" + std::to_string(pid) + "/status", "VmHWM") / 1024.0;
}

// CPU seconds and context switches of this process so far.
struct TaskTotals {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
};

TaskTotals ReadSelf() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  TaskTotals totals;
  totals.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                 static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  totals.ctx_switches = static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw);
  return totals;
}

double FileBytes(const std::string& path) {
  struct stat info;
  return stat(path.c_str(), &info) == 0 ? static_cast<double>(info.st_size) : 0.0;
}

// --- Job texts -------------------------------------------------------------------

std::string JobText(const std::string& name, const std::string& app,
                    const std::string& algorithm, size_t iterations, size_t parallel,
                    uint64_t seed) {
  std::string text = "name: " + name + "\nos: linux\napplication: " + app +
                     "\nmetric: performance\nbudget:\n  iterations: " +
                     std::to_string(iterations) + "\n";
  if (parallel > 1) {
    text += "parallel: " + std::to_string(parallel) + "\nsliding: true\n";
  }
  text += "search:\n  algorithm: " + algorithm + "\n  seed: " + std::to_string(seed) + "\n";
  return text;
}

uint64_t JobSeed(uint64_t seed, size_t index) { return seed * 1000 + index + 1; }

// Order-sensitive digest of a trajectory: configurations, outcomes, and
// objectives bit for bit. Wall-clock telemetry (searcher_seconds) is left out.
std::string Digest(const std::vector<TrialRecord>& history) {
  uint64_t h = StableHash("e2e-trajectory");
  auto bits = [](double v) {
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  for (const TrialRecord& t : history) {
    h = HashCombine(h, t.iteration);
    h = HashCombine(h, t.config.Hash());
    h = HashCombine(h, static_cast<uint64_t>(t.outcome.status));
    h = HashCombine(h, bits(t.objective));
    h = HashCombine(h, bits(t.outcome.metric));
    h = HashCombine(h, bits(t.outcome.memory_mb));
    h = HashCombine(h, bits(t.sim_time_end));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- Forwarding searcher wrapper --------------------------------------------------

// Times every learning/proposing entry point of the wrapped searcher and
// forwards every other virtual untouched, so a wrapped session runs the exact
// trajectory of an unwrapped one (pinned by `selftest`).
class TimedSearcher : public Searcher {
 public:
  explicit TimedSearcher(Searcher* inner) : inner_(inner) {}

  std::string Name() const override { return inner_->Name(); }
  Configuration Propose(SearchContext& context) override {
    double start = Now();
    Configuration config = inner_->Propose(context);
    propose_ms.push_back((Now() - start) * 1e3);
    ++proposals;
    return config;
  }
  void Observe(const TrialRecord& trial, SearchContext& context) override {
    double start = Now();
    inner_->Observe(trial, context);
    observe_ms.push_back((Now() - start) * 1e3);
  }
  void ProposeBatch(SearchContext& context, size_t n,
                    std::vector<Configuration>* batch) override {
    double start = Now();
    inner_->ProposeBatch(context, n, batch);
    propose_ms.push_back((Now() - start) * 1e3);
    proposals += batch->size();
  }
  void ObserveBatch(Span<const TrialRecord> trials, SearchContext& context) override {
    double start = Now();
    inner_->ObserveBatch(Span<const TrialRecord>(trials.data(), trials.size()), context);
    observe_ms.push_back((Now() - start) * 1e3);
  }
  // Drift handling is learning-side work (DeepTune retrains), so it counts
  // as observe time.
  void OnDrift(SearchContext& context) override {
    double start = Now();
    inner_->OnDrift(context);
    observe_ms.push_back((Now() - start) * 1e3);
  }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  std::string ExportState() const override { return inner_->ExportState(); }
  bool RestoreState(const std::string& state) override { return inner_->RestoreState(state); }

  std::vector<double> propose_ms;
  std::vector<double> observe_ms;
  size_t proposals = 0;

 private:
  Searcher* inner_;
};

// --- Open-loop status load ----------------------------------------------------------

struct PollStats {
  std::vector<double> rtt_us;
  std::vector<double> late_us;
  double reply_bytes = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
};

// Sends `call` on a fixed schedule (one request due every `period_s` from
// `start`), regardless of how long earlier requests took: dashboards are
// independent users. Each request is timed from when it was due. Requests
// due after `record_until` is set (dt-fleet's read phase) are sent but not
// sampled.
template <typename Call>
void OpenLoop(double start, double period_s, const std::atomic<bool>& stop,
              const std::atomic<double>& record_until, Call call, PollStats* stats) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  for (uint64_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
    double due = start + static_cast<double>(k) * period_s;
    double now = Now();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
    }
    double sent = Now();
    bool ok = call();
    double done = Now();
    ++stats->attempted;
    stats->failed += ok ? 0 : 1;
    if (due < record_until.load(std::memory_order_acquire)) {
      stats->late_us.push_back((sent - due) * 1e6);
      stats->rtt_us.push_back((done - due) * 1e6);
    }
  }
}

void AppendStats(const std::vector<PollStats>& all, std::vector<double>* rtt,
                 std::vector<double>* late, double* reply_bytes, Ops* ops) {
  size_t replies = 0;
  for (const PollStats& s : all) {
    rtt->insert(rtt->end(), s.rtt_us.begin(), s.rtt_us.end());
    late->insert(late->end(), s.late_us.begin(), s.late_us.end());
    *reply_bytes += s.reply_bytes;
    replies += s.attempted - s.failed;
    ops->Add(s.attempted, s.failed);
    if (s.failed > 0) {
      ops->Check(false, std::to_string(s.failed) + " status reads failed");
    }
  }
  *reply_bytes = replies > 0 ? *reply_bytes / static_cast<double>(replies) : 0.0;
}

// The status pollers of one workload: stopped and joined on every path out.
class Pollers {
 public:
  explicit Pollers(int n) : stats_(n) {}
  Pollers(const Pollers&) = delete;
  Pollers& operator=(const Pollers&) = delete;
  ~Pollers() { Stop(); }

  // Poller p sends `call(p)` from `start`, staggered across the period.
  template <typename Call>
  void Start(double start, Call call) {
    for (size_t p = 0; p < stats_.size(); ++p) {
      threads_.emplace_back([this, start, call, p] {
        OpenLoop(start + static_cast<double>(p) * kPollPeriodS / static_cast<double>(stats_.size()),
                 kPollPeriodS, stop_, record_until_, [&] { return call(p); }, &stats_[p]);
      });
    }
  }
  void StopRecordingAt(double t) { record_until_.store(t, std::memory_order_release); }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      t.join();
    }
    threads_.clear();
  }
  // Valid after Stop().
  std::vector<PollStats>& stats() { return stats_; }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> record_until_{1e300};
  std::vector<PollStats> stats_;
  std::vector<std::thread> threads_;  // Declared last: joined before the rest dies.
};

// --- dt-serial: the library loop ------------------------------------------------------

// Session machinery a job text describes, built the way the daemon builds it.
struct Machinery {
  JobSpec spec;
  std::unique_ptr<ConfigSpace> space;
  std::unique_ptr<Testbench> bench;
  std::unique_ptr<Searcher> searcher;
};

bool BuildMachinery(const std::string& job_text, Machinery* m, std::string* error) {
  JobParseResult parsed = ParseJobText(job_text);
  if (!parsed.ok) {
    *error = parsed.error;
    return false;
  }
  m->spec = parsed.spec;
  m->space = std::make_unique<ConfigSpace>(BuildJobSpace(m->spec));
  m->bench = std::make_unique<Testbench>(m->space.get(), m->spec.app,
                                         m->spec.ToTestbenchOptions());
  m->searcher = MakeJobSearcher(m->spec, m->space.get(), error);
  return m->searcher != nullptr;
}

// Runs `trials` serial DeepTune trials and returns the history (selftest).
std::vector<TrialRecord> SerialHistory(const std::string& job_text, bool wrapped) {
  Machinery m;
  std::string error;
  if (!BuildMachinery(job_text, &m, &error)) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
    std::exit(1);
  }
  TimedSearcher timed(m.searcher.get());
  Searcher* searcher = wrapped ? static_cast<Searcher*>(&timed) : m.searcher.get();
  SearchSession session(m.bench.get(), searcher, m.spec.ToSessionOptions());
  while (session.StepBatch() > 0) {
  }
  return session.Finish().history;
}

int RunSelfTest(uint64_t seed) {
  const size_t trials = kSelftestTrials;
  std::string job = JobText("e2e-dt-serial", "nginx", "deeptune", trials, 1, JobSeed(seed, 0));
  std::string plain = Digest(SerialHistory(job, false));
  std::string wrapped = Digest(SerialHistory(job, true));
  bool ok = plain == wrapped;
  std::printf("selftest seed=%llu trials=%zu unwrapped=%s wrapped=%s %s\n",
              static_cast<unsigned long long>(seed), trials, plain.c_str(), wrapped.c_str(),
              ok ? "IDENTICAL" : "DIFFERENT");
  return ok ? 0 : 1;
}

int RunDtSerial(uint64_t seed, bool traced) {
  Ops ops;
  JsonOut out;
  const std::string job =
      JobText("e2e-dt-serial", "nginx", "deeptune", kDtTrials, 1, JobSeed(seed, 0));

  // Setup: space, testbench, searcher, and session construction, repeated
  // kSerialSetups times (the last one is kept) and reported as the median.
  Machinery m;
  std::string error;
  std::unique_ptr<TimedSearcher> timed;
  std::unique_ptr<SearchSession> session_owner;
  std::vector<double> setup_s;
  for (int i = 0; i < kSerialSetups; ++i) {
    // The previous set-up is torn down before the clock starts.
    session_owner.reset();
    timed.reset();
    m = Machinery();
    double setup_start = Now();
    if (!ops.Check(BuildMachinery(job, &m, &error), "build machinery: " + error)) {
      std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
      return 1;
    }
    timed = std::make_unique<TimedSearcher>(m.searcher.get());
    // The traced run measures through the wrapper; the untraced run leaves
    // the program exactly as a library user builds it.
    Searcher* searcher = traced ? static_cast<Searcher*>(timed.get()) : m.searcher.get();
    session_owner =
        std::make_unique<SearchSession>(m.bench.get(), searcher, m.spec.ToSessionOptions());
    setup_s.push_back(Now() - setup_start);
  }
  SearchSession& session = *session_owner;
  if (traced) {
    obs::SetEnabled(true);
  }

  std::vector<double> step_ms;
  TaskTotals before = ReadSelf();
  double loop_start = Now();
  for (;;) {
    double step_start = Now();
    size_t committed = session.StepBatch();
    double step_end = Now();
    if (committed == 0) {
      break;
    }
    step_ms.push_back((step_end - step_start) * 1e3 / static_cast<double>(committed));
  }
  double loop_s = Now() - loop_start;
  TaskTotals after = ReadSelf();
  if (traced) {
    obs::SetEnabled(false);
  }
  size_t ring_dropped = session.trace().dropped();
  std::vector<obs::TraceEvent> events = session.trace().Snapshot();
  SessionResult result = session.Finish();
  ops.Add(step_ms.size(), 0);

  // Output checks.
  ops.Check(result.history.size() == kDtTrials,
            "dt-serial committed " + std::to_string(result.history.size()) + " trials");
  ops.Check(result.best() != nullptr, "dt-serial found no successful trial");
  std::map<std::string, std::string> digests;
  digests["e2e-dt-serial"] = Digest(result.history);

  out.Str("workload", "dt-serial");
  out.Num("seed", static_cast<double>(seed));
  out.Num("traced", traced ? 1 : 0);
  out.Nums("setup_s", setup_s);
  out.Num("wall_s", loop_s);
  out.Num("trials", static_cast<double>(result.history.size()));
  out.Nums("trial_ms", step_ms);
  out.Nums("job_s", {loop_s});
  out.Num("best_objective", result.best() != nullptr ? result.best()->objective : 0.0);
  out.Num("sim_crash_rate", result.CrashRate());
  out.Num("peak_rss_mb", PeakRssMb(getpid()));
  out.Num("cpu_s", after.cpu_s - before.cpu_s);
  out.Num("ctx_switches", after.ctx_switches - before.ctx_switches);
  out.Num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  out.StrMap("digests", digests);
  if (traced) {
    std::ofstream("metrics.txt") << obs::Registry::Instance().RenderText();
    std::ofstream("trace_dt-serial.json") << obs::RenderChromeTrace(events, "dt-serial");
    out.Strs("trace_files", {"trace_dt-serial.json"});
    out.Num("ring_dropped", static_cast<double>(ring_dropped));
    out.Nums("propose_ms", timed->propose_ms);
    out.Nums("observe_ms", timed->observe_ms);
    out.Num("proposals", static_cast<double>(timed->proposals));
    out.Num("searcher_memory_bytes", static_cast<double>(timed->MemoryBytes()));
  }
  out.Num("attempted", static_cast<double>(ops.attempted));
  out.Num("failed", static_cast<double>(ops.failed));
  out.Strs("errors", ops.errors);
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --- dt-fleet: a wfd child driven over the socket -------------------------------------

struct JobTrack {
  size_t budget = 0;
  double submitted = 0.0;  // Submit ack received.
  double running = 0.0;    // First poll that saw it running.
  double done = 0.0;       // First poll that saw it terminal.
  SessionStatus last;
  double window_start = 0.0;  // Current trial-time window, as polled.
  size_t window_trials = 0;
  std::vector<double> trial_ms;
};

// Fleet state as the pollers see it; the main thread waits on it.
class Tracker {
 public:
  void Add(const std::string& id, size_t budget, double submitted) {
    std::lock_guard<std::mutex> lock(mu_);
    JobTrack& job = jobs_[id];
    job.budget = budget;
    job.submitted = submitted;
  }
  void Update(const std::vector<SessionStatus>& sessions, double now) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SessionStatus& s : sessions) {
      auto it = jobs_.find(s.id);
      if (it == jobs_.end() || it->second.done > 0.0) {
        continue;
      }
      JobTrack& job = it->second;
      job.last = s;
      if (s.state == "running" && job.running == 0.0) {
        job.running = now;
        job.window_start = now;
        job.window_trials = s.trials;
      }
      // Wall time per committed trial over windows of at least 1/kWindows of
      // the budget, as the polls saw them (windows span whole waves, so the
      // sample is continuous, not a ratio of small integers).
      if (job.running > 0.0 &&
          s.trials >= job.window_trials + std::max<size_t>(1, job.budget / kWindows)) {
        job.trial_ms.push_back((now - job.window_start) * 1e3 /
                               static_cast<double>(s.trials - job.window_trials));
        job.window_start = now;
        job.window_trials = s.trials;
      }
      if (s.state == "done" || s.state == "failed" || s.state == "stopped") {
        it->second.done = now;
        changed_.notify_all();
      }
    }
  }
  bool WaitTerminal(const std::vector<std::string>& ids, double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    return changed_.wait_for(lock, std::chrono::duration<double>(timeout_s), [&] {
      return std::all_of(ids.begin(), ids.end(),
                         [&](const std::string& id) { return jobs_[id].done > 0.0; });
    });
  }
  JobTrack Get(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    return jobs_[id];
  }

 private:
  std::mutex mu_;
  std::condition_variable changed_;
  std::map<std::string, JobTrack> jobs_;
};

// Owns the daemon child: whatever path leaves the workload, the child is
// stopped and reaped.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Kill(); }

  bool Spawn(const std::string& wfd, bool metrics, const char* socket, const char* store) {
    pid_ = fork();
    if (pid_ == 0) {
      int log = ::open("wfd.log", O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) {
        dup2(log, 1);
        dup2(log, 2);
      }
      // The control connection sits silent while the jobs run, which can be
      // longer than the default 10 s idle sweep.
      std::vector<const char*> argv = {wfd.c_str(), "--socket", socket, "--store", store,
                                       "--max-sessions", "4", "--no-recover",
                                       "--idle-timeout-ms", "300000"};
      if (metrics) {
        argv.push_back("--metrics");
      }
      argv.push_back(nullptr);
      execv(wfd.c_str(), const_cast<char* const*>(argv.data()));
      _exit(127);
    }
    return pid_ > 0;
  }
  // Waits for the child to exit on its own; false (and SIGKILL) on timeout.
  bool Reap(double timeout_s, rusage* usage) {
    double deadline = Now() + timeout_s;
    while (pid_ > 0) {
      int status = 0;
      pid_t got = wait4(pid_, &status, WNOHANG, usage);
      if (got == pid_) {
        pid_ = 0;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      if (Now() > deadline) {
        Kill();
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }
  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = 0;
    }
  }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = 0;
};

struct FleetJob {
  std::string name;
  std::string text;
  size_t budget = 0;
};

double StoreBytes() {
  double total = 0.0;
  DIR* handle = opendir("store");
  if (handle == nullptr) {
    return 0.0;
  }
  while (dirent* entry = readdir(handle)) {
    std::string name = entry->d_name;
    if (name[0] != '.' && name != "journal.wfj") {
      total += FileBytes("store/" + name);
    }
  }
  closedir(handle);
  return total;
}

ServiceRequest Request(const std::string& command, const std::string& id = "") {
  ServiceRequest request;
  request.command = command;
  request.id = id;
  return request;
}

int RunDtFleet(uint64_t seed, bool traced, const std::string& wfd) {
  Ops ops;
  JsonOut out;
  std::vector<FleetJob> cold;
  std::vector<FleetJob> warm;
  const char* cold_apps[] = {"nginx", "redis", "sqlite", "npb"};
  for (size_t i = 0; i < 4; ++i) {
    std::string name = std::string("e2e-dt-") + cold_apps[i];
    cold.push_back({name, JobText(name, cold_apps[i], "deeptune", kDtTrials, 4, JobSeed(seed, i)),
                    kDtTrials});
  }
  for (size_t i = 0; i <= kWarmSubmits; ++i) {
    const char* apps[] = {"nginx", "nginx", "redis", "sqlite"};
    std::string app = apps[i];
    std::string name = "e2e-warm-" + app + "-" + std::to_string(i);
    warm.push_back({name, JobText(name, app, "random", kWarmTrials, 1, JobSeed(seed, 100 + i)),
                    kWarmTrials});
  }

  // Setup: spawn to the first ok ping. kFleetSetups - 1 throwaway daemons (own
  // socket and store) are started and stopped first; the median is reported.
  std::vector<double> setup_s;
  Daemon daemon;
  for (int i = 0; i < kFleetSetups; ++i) {
    const bool last = i + 1 == kFleetSetups;
    const std::string socket = last ? kSocket : "setup.sock";
    const std::string store = last ? "store" : "setup-store-" + std::to_string(i);
    Daemon throwaway;
    Daemon& d = last ? daemon : throwaway;
    double spawn = Now();
    if (!d.Spawn(wfd, traced, socket.c_str(), store.c_str())) {
      std::fprintf(stderr, "e2e_bench: cannot spawn %s\n", wfd.c_str());
      return 1;
    }
    ServiceConnection probe;
    bool up = false;
    while (!up && Now() - spawn < 30.0) {
      std::string error;
      up = probe.Connect(socket, true, &error) && probe.Call(Request("ping")).ok;
      if (!up) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    setup_s.push_back(Now() - spawn);
    if (!up) {
      std::fprintf(stderr, "e2e_bench: wfd did not answer ping (see wfd.log)\n");
      return 1;
    }
    if (!last) {
      rusage ignored{};
      if (!probe.Call(Request("stop")).ok || !d.Reap(30.0, &ignored)) {
        std::fprintf(stderr, "e2e_bench: set-up daemon did not stop\n");
        return 1;
      }
    }
  }

  ServiceConnection ctl;
  std::vector<ServiceConnection> poll_conns(kPollers);
  std::string error;
  bool connected = ctl.Connect(kSocket, true, &error);
  for (ServiceConnection& c : poll_conns) {
    connected = connected && c.Connect(kSocket, true, &error);
  }
  if (!connected) {
    std::fprintf(stderr, "e2e_bench: connect: %s\n", error.c_str());
    return 1;
  }

  Tracker tracker;
  Pollers pollers(kPollers);
  double cpu_before = StatCpuSeconds("/proc/" + std::to_string(daemon.pid()) + "/stat");
  double t0 = Now();
  pollers.Start(t0, [&](size_t p) {
    ServiceCallResult r = poll_conns[p].Call(Request("status"));
    if (r.ok) {
      tracker.Update(r.response.sessions, Now());
      pollers.stats()[p].reply_bytes +=
          static_cast<double>(EncodeResponseBinary(r.response).size());
    }
    return r.ok;
  });

  auto submit = [&](const FleetJob& job, bool warm_start, std::vector<double>* ms,
                    std::vector<std::string>* ids) {
    ServiceRequest request = Request("submit");
    request.warm_start = warm_start;
    double start = Now();
    ServiceCallResult r = ctl.Call(request, job.text);
    double acked = Now();
    ms->push_back((acked - start) * 1e3);
    if (ops.Check(r.ok && !r.response.id.empty(), "submit " + job.name + ": " + r.error)) {
      tracker.Add(r.response.id, job.budget, acked);
      ids->push_back(r.response.id);
    }
  };

  std::vector<double> submit_ms;
  std::vector<std::string> cold_ids;
  for (const FleetJob& job : cold) {
    submit(job, false, &submit_ms, &cold_ids);
  }
  ops.Check(tracker.WaitTerminal(cold_ids, kJobTimeoutS), "cold jobs did not finish in time");
  double t_end = t0;
  for (const std::string& id : cold_ids) {
    t_end = std::max(t_end, tracker.Get(id).done);
  }
  // Status latency covers the cold phase only: the read phase's loop-thread
  // stalls have their own metric (warm_submit_ms).
  pollers.StopRecordingAt(t_end);
  double cpu_after = StatCpuSeconds("/proc/" + std::to_string(daemon.pid()) + "/stat");
  double journal_bytes = FileBytes("store/journal.wfj");
  double store_bytes = StoreBytes();

  std::vector<std::string> trace_files;
  if (traced) {
    ServiceCallResult r = ctl.Call(Request("metrics"));
    if (ops.Check(r.ok, "metrics: " + r.error)) {
      std::ofstream("metrics.txt") << r.payload;
    }
    for (const std::string& id : cold_ids) {
      ServiceCallResult t = ctl.Call(Request("trace", id));
      if (ops.Check(t.ok, "trace " + id + ": " + t.error)) {
        trace_files.push_back("trace_" + id + ".json");
        std::ofstream(trace_files.back()) << t.payload;
      }
    }
  }

  // Output checks on the cold jobs: budget reached, checkpoint fetched and
  // parsed with the right trial count, trajectory digest.
  std::unique_ptr<ConfigSpace> space;
  {
    JobParseResult parsed = ParseJobText(cold[0].text);
    space = std::make_unique<ConfigSpace>(BuildJobSpace(parsed.spec));
  }
  std::vector<double> fetch_ms, job_s, job_trial_ms;
  std::map<std::string, std::string> digests;
  double trials = 0.0, crashed = 0.0, best = 0.0, memory_bytes = 0.0;
  bool has_best = false;
  for (size_t i = 0; i < cold_ids.size(); ++i) {
    JobTrack job = tracker.Get(cold_ids[i]);
    const SessionStatus& s = job.last;
    ops.Check(s.state == "done" && s.trials == job.budget,
              cold[i].name + " ended " + s.state + " with " + std::to_string(s.trials) + " trials");
    trials += static_cast<double>(s.trials);
    crashed += static_cast<double>(s.build_failed + s.boot_failed + s.run_crashed + s.timeouts);
    memory_bytes += static_cast<double>(s.memory_bytes);
    if (i == 0 && s.has_best) {  // The nginx job's best.
      has_best = true;
      best = s.best;
    }
    job_s.push_back(job.done - job.submitted);
    job_trial_ms.insert(job_trial_ms.end(), job.trial_ms.begin(), job.trial_ms.end());

    double start = Now();
    ServiceCallResult r = ctl.Call(Request("result", cold_ids[i]));
    fetch_ms.push_back((Now() - start) * 1e3);
    if (!ops.Check(r.ok, "result " + cold_ids[i] + ": " + r.error)) {
      continue;
    }
    CheckpointLoadResult loaded = LoadCheckpointText(*space, r.payload);
    if (ops.Check(loaded.ok && loaded.history.size() == job.budget,
                  cold[i].name + " checkpoint: " + loaded.error)) {
      digests[cold[i].name] = Digest(loaded.history);
    }
  }

  ops.Check(has_best, "dt-fleet found no successful trial");

  // Read phase: warm submissions load the job's store key on submit.
  std::vector<double> warm_ms;
  std::vector<std::string> warm_ids;
  for (const FleetJob& job : warm) {
    submit(job, true, &warm_ms, &warm_ids);
  }
  warm_ms.erase(warm_ms.begin());
  ops.Check(tracker.WaitTerminal(warm_ids, kJobTimeoutS), "warm jobs did not finish in time");
  for (const std::string& id : warm_ids) {
    JobTrack job = tracker.Get(id);
    ops.Check(job.last.state == "done" && job.last.trials == job.budget && job.last.warm_started > 0,
              "warm job " + id + " ended " + job.last.state);
  }
  double peak_rss_mb = PeakRssMb(daemon.pid());

  pollers.Stop();
  std::vector<double> rtt, late;
  double reply_bytes = 0.0;
  AppendStats(pollers.stats(), &rtt, &late, &reply_bytes, &ops);

  ops.Check(ctl.Call(Request("stop")).ok, "stop");
  ctl.Close();
  for (ServiceConnection& c : poll_conns) {
    c.Close();
  }
  rusage usage{};
  ops.Check(daemon.Reap(30.0, &usage), "wfd did not exit cleanly");

  double wall = t_end - t0;
  out.Str("workload", "dt-fleet");
  out.Num("seed", static_cast<double>(seed));
  out.Num("traced", traced ? 1 : 0);
  out.Nums("setup_s", setup_s);
  out.Num("wall_s", wall);
  out.Num("trials", trials);
  out.Nums("trial_ms", job_trial_ms);
  out.Nums("job_s", job_s);
  out.Nums("status_rtt_us", rtt);
  out.Nums("late_us", late);
  out.Nums("warm_submit_ms", warm_ms);
  out.Nums("submit_ms", submit_ms);
  out.Nums("result_fetch_ms", fetch_ms);
  out.Num("reply_bytes", reply_bytes);
  out.Num("best_objective", best);
  out.Num("sim_crash_rate", trials > 0 ? crashed / trials : 0.0);
  out.Num("peak_rss_mb", peak_rss_mb);
  out.Num("cpu_s", cpu_after - cpu_before);
  out.Num("ctx_switches", static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw));
  out.Num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  out.Num("journal_bytes", journal_bytes);
  out.Num("store_bytes", store_bytes);
  out.StrMap("digests", digests);
  if (traced) {
    out.Strs("trace_files", trace_files);
    out.Num("searcher_memory_bytes", memory_bytes);
  }
  out.Num("attempted", static_cast<double>(ops.attempted));
  out.Num("failed", static_cast<double>(ops.failed));
  out.Strs("errors", ops.errors);
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench dt-serial|dt-fleet --seed N --trace 0|1 "
               "--workdir DIR [--wfd PATH]\n"
               "       e2e_bench selftest --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string mode = argv[1];
  uint64_t seed = 1;
  bool traced = false;
  std::string workdir, wfd;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      traced = value == "1";
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--wfd") {
      wfd = value;
    } else {
      return Usage();
    }
  }
  signal(SIGPIPE, SIG_IGN);
  if (mode == "selftest") {
    return RunSelfTest(seed);
  }
  if (workdir.empty() || chdir(workdir.c_str()) != 0) {
    std::fprintf(stderr, "e2e_bench: bad --workdir\n");
    return Usage();
  }
  if (mode == "dt-serial") {
    return RunDtSerial(seed, traced);
  }
  if (mode == "dt-fleet" && !wfd.empty()) {
    return RunDtFleet(seed, traced, wfd);
  }
  return Usage();
}
