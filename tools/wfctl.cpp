// wfctl — the Wayfinder command-line front end.
//
// Mirrors the workflow of the paper's artifact appendix (A.4):
//
//   $ wfctl create job.yaml                 # validate a job, census its space
//   $ wfctl start job.yaml [options]        # run the specialization session
//   $ wfctl report job.yaml checkpoint.txt  # summarize a saved session
//   $ wfctl render job.yaml checkpoint.txt  # deployment artifacts of the best
//
// `start` options:
//   --model-in <path>    warm-start DeepTune from a saved model (§3.3)
//   --model-out <path>   save the trained model afterwards
//                        (both need deeptune or deeptune-multi)
//   --resume <path>      resume from a checkpoint written by --checkpoint
//   --checkpoint <path>  write the full history checkpoint when done
//   --history-csv <path> export the history as CSV
//
// Service mode (the wfd daemon, src/service/): `wfctl serve` runs the
// daemon in the foreground (the standalone `wfd` binary: same flags, same loop);
// submit/status/watch/result/pause/resume/stop talk to it over the Unix
// socket, so many tuning sessions share one endpoint, and with --store one
// durable log (DIR/journal.wfj) that warm starts and crash recovery read:
//
//   $ wfctl serve --socket /tmp/wfd.sock --store /var/lib/wayfinder &
//   $ wfctl submit job.yaml                 # -> session id, e.g. s1
//   $ wfctl status                          # fleet table
//   $ wfctl watch s1                        # server-pushed updates until done
//   $ wfctl result s1 --out s1.ckpt         # checkpoint text (v2)
//   $ wfctl stop                            # graceful drain
//
// The client speaks the daemon's binary TLV wire codec
// (src/service/binary_codec.h); `watch` follows the session through
// server-pushed status frames.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/configspace/cmdline.h"
#include "src/configspace/probe.h"
#include "src/core/wayfinder_api.h"
#include "src/core/model_zoo.h"
#include "src/core/platform_transfer.h"
#include "src/platform/checkpoint.h"
#include "src/platform/crash_report.h"
#include "src/platform/history_export.h"
#include "src/service/client.h"
#include "src/service/wfd.h"
#include "src/simos/sysfs.h"

namespace wayfinder {
namespace {

constexpr const char* kDefaultSocketPath = "/tmp/wfd.sock";

int Usage() {
  std::string algorithms;
  for (const std::string& name : RegisteredSearcherNames()) {
    algorithms += (algorithms.empty() ? "" : ", ") + name;
  }
  std::fprintf(stderr,
               "usage: wfctl <command> [args]\n"
               "  create <job.yaml>                    validate a job file\n"
               "  start  <job.yaml> [--model-in P] [--model-out P] [--parallel N]\n"
               "                    [--resume P] [--checkpoint P] [--history-csv P]\n"
               "                    [fault flags]\n"
               "  report <job.yaml> <checkpoint>       summarize a saved session\n"
               "  render <job.yaml> <checkpoint>       print deployment artifacts\n"
               "  algorithms                           list registered search algorithms\n"
               "  probe  <job.yaml>                    discover the runtime space (§3.4)\n"
               "  zoo    <dir> list                    list published donor models\n"
               "  zoo    <dir> rank <job.yaml>         rank donors for a job's app (§3.3)\n"
               "  transfer <src-job> <dst-job> <src-ckpt> <out-ckpt>\n"
               "                                       map a history across platforms (§3.5)\n"
               "service mode (all take [--socket P], default %s; all but serve\n"
               "              take [--reconnect N] [--retry-unsafe]):\n"
               "  serve  [--store DIR] [--checkpoint-dir DIR] [--max-sessions N]\n"
               "         [--idle-timeout-ms N] [--no-recover] [--metrics]\n"
               "                                       run the wfd daemon in the foreground\n"
               "                                       (the flags of the wfd binary)\n"
               "  submit <job.yaml> [--no-warm-start] [fault flags]\n"
               "                                       queue a job; prints its session id\n"
               "  status [id]                          one session, or the whole fleet\n"
               "  watch  <id>                          follow server-pushed status until the\n"
               "                                       session ends\n"
               "  result <id> [--out P]                fetch the session checkpoint (v2)\n"
               "  pause  <id> | resume <id>            pause/resume at a round boundary\n"
               "  metrics [--watch [--interval-ms N]]  dump the daemon's metrics registry\n"
               "                                       (--watch re-fetches until Ctrl-C;\n"
               "                                       needs a daemon serving --metrics for\n"
               "                                       nonzero counters)\n"
               "  trace  <id> [--out P]                fetch a session's trial trace as\n"
               "                                       Chrome trace JSON (chrome://tracing\n"
               "                                       or https://ui.perfetto.dev)\n"
               "  stop                                 drain every session and exit wfd\n"
               "fault flags (hostile-world injection, see docs/robustness.md):\n"
               "  --flake-prob P --timeout-prob P --hang-prob P --timeout-s S\n"
               "  --noise-sigma S --drift-at T --drift-magnitude M --retries N --repeats K\n"
               "algorithms: %s\n",
               kDefaultSocketPath, algorithms.c_str());
  return 2;
}

// The registry is the single source of truth: every algorithm that linked
// into this binary — including out-of-tree registrations — shows up here.
int CmdAlgorithms() {
  std::printf("%-16s %-6s %-9s %s\n", "algorithm", "multi", "transfer", "summary");
  for (const SearcherInfo& info : SearcherRegistry::Instance().List()) {
    std::printf("%-16s %-6s %-9s %s\n", info.name.c_str(),
                info.SupportsMultiMetric() ? "yes" : "-",
                info.supports_transfer ? "yes" : "-", info.summary.c_str());
  }
  return 0;
}

void PrintSpaceCensus(const ConfigSpace& space) {
  std::printf("  parameters: %zu (compile %zu, boot %zu, runtime %zu)\n", space.Size(),
              space.CountPhase(ParamPhase::kCompileTime),
              space.CountPhase(ParamPhase::kBootTime),
              space.CountPhase(ParamPhase::kRuntime));
  std::printf("  space size: 10^%.1f configurations\n", space.Log10SpaceSize());
  std::printf("  frozen:     %zu parameters\n", space.FrozenCount());
}

int CmdCreate(const std::string& job_path) {
  JobParseResult parsed = ParseJobFile(job_path);
  if (!parsed.ok) {
    std::fprintf(stderr, "wfctl: %s\n", parsed.error.c_str());
    return 1;
  }
  const JobSpec& spec = parsed.spec;
  std::printf("job '%s' OK\n", spec.name.c_str());
  std::printf("  os:         %s\n", spec.os.c_str());
  std::printf("  app:        %s\n", GetApp(spec.app).name.c_str());
  std::printf("  algorithm:  %s\n", spec.algorithm.c_str());
  std::printf("  budget:     %zu iterations\n", spec.iterations);
  ConfigSpace space = BuildJobSpace(spec);
  PrintSpaceCensus(space);
  return 0;
}

// Shared by report/render: parse the job, rebuild its space, load the
// checkpoint against it. Returns 0 on success.
int LoadSession(const std::string& job_path, const std::string& checkpoint_path,
                JobSpec* spec, std::shared_ptr<ConfigSpace>* space,
                CheckpointLoadResult* loaded) {
  JobParseResult parsed = ParseJobFile(job_path);
  if (!parsed.ok) {
    std::fprintf(stderr, "wfctl: %s\n", parsed.error.c_str());
    return 1;
  }
  *spec = parsed.spec;
  *space = std::make_shared<ConfigSpace>(BuildJobSpace(parsed.spec));
  *loaded = LoadCheckpoint(**space, checkpoint_path);
  if (!loaded->ok) {
    std::fprintf(stderr, "wfctl: %s\n", loaded->error.c_str());
    return 1;
  }
  return 0;
}

void PrintSummary(const std::vector<TrialRecord>& history) {
  HistorySummary summary = SummarizeHistory(history);
  std::printf("  trials:          %zu\n", summary.trials);
  std::printf("  crashes:         %zu (build %zu, boot %zu, run %zu, timeout %zu)\n",
              summary.crashes, summary.build_failures, summary.boot_failures,
              summary.run_crashes, summary.timeouts);
  if (summary.has_best) {
    std::printf("  best objective:  %.4g\n", summary.best_objective);
  } else {
    std::printf("  best objective:  (no successful trial)\n");
  }
  std::printf("  sim time:        %.0f s\n", summary.total_sim_seconds);
  std::printf("  searcher time:   %.3f s/iter (wall clock)\n",
              summary.mean_searcher_seconds);
}

const TrialRecord* BestTrial(const std::vector<TrialRecord>& history) {
  const TrialRecord* best = nullptr;
  for (const TrialRecord& trial : history) {
    if (trial.HasObjective() && (best == nullptr || trial.objective > best->objective)) {
      best = &trial;
    }
  }
  return best;
}

void PrintArtifacts(const TrialRecord& best) {
  std::printf("# --- best configuration ------------------------------------\n");
  std::printf("# objective: %.4g   metric: %.4g   memory: %.1f MB\n", best.objective,
              best.outcome.metric, best.outcome.memory_mb);
  std::string cmdline = RenderCmdline(best.config);
  std::printf("\n# kernel command line (boot-time deltas)\n%s\n",
              cmdline.empty() ? "(defaults)" : cmdline.c_str());
  std::string sysctl = RenderSysctlConf(best.config);
  std::printf("\n# /etc/sysctl.d/99-wayfinder.conf (runtime deltas)\n%s",
              sysctl.empty() ? "(defaults)\n" : sysctl.c_str());
  std::string compile = best.config.DiffString();
  std::printf("\n# all non-default parameters\n%s", compile.empty() ? "(none)\n"
                                                                    : compile.c_str());
}

// Fault-injection flag → job-file `faults:` key, shared by start and submit
// so both spell the hostile-world knobs identically. Values stay strings:
// they ride into the job's YAML and get the job parser's validation.
const char* FaultKeyForFlag(const std::string& flag) {
  static constexpr std::pair<const char*, const char*> kFaultFlags[] = {
      {"--flake-prob", "flake_prob"},
      {"--timeout-prob", "timeout_prob"},
      {"--hang-prob", "hang_prob"},
      {"--timeout-s", "timeout_s"},
      {"--noise-sigma", "noise_sigma"},
      {"--drift-at", "drift_at"},
      {"--drift-magnitude", "drift_magnitude"},
      {"--retries", "retries"},
      {"--repeats", "repeats"}};
  for (const auto& [name, key] : kFaultFlags) {
    if (flag == name) {
      return key;
    }
  }
  return nullptr;
}

using FaultOverrides = std::vector<std::pair<std::string, std::string>>;

// Appends the collected fault flags as a `faults:` mapping. The flags are
// the whole block, not a merge — a job that already carries one must be
// edited instead (our YAML rejects duplicate keys anyway).
bool AppendFaultBlock(const FaultOverrides& overrides, std::string* job_text) {
  if (overrides.empty()) {
    return true;
  }
  if (job_text->rfind("faults:", 0) == 0 ||
      job_text->find("\nfaults:") != std::string::npos) {
    std::fprintf(stderr,
                 "wfctl: the job file already has a faults: section; edit it "
                 "instead of passing fault flags\n");
    return false;
  }
  if (!job_text->empty() && job_text->back() != '\n') {
    *job_text += '\n';
  }
  *job_text += "faults:\n";
  for (const auto& [key, value] : overrides) {
    *job_text += "  " + key + ": " + value + "\n";
  }
  return true;
}

int CmdStart(int argc, char** argv) {
  std::string job_path = argv[0];
  std::string model_in, model_out, resume_path, checkpoint_path, history_csv, parallel_arg;
  FaultOverrides fault_overrides;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto take = [&](std::string* into) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "wfctl: %s needs a value\n", flag.c_str());
        return false;
      }
      *into = argv[++i];
      return true;
    };
    bool ok = true;
    if (flag == "--model-in") {
      ok = take(&model_in);
    } else if (flag == "--model-out") {
      ok = take(&model_out);
    } else if (flag == "--resume") {
      ok = take(&resume_path);
    } else if (flag == "--checkpoint") {
      ok = take(&checkpoint_path);
    } else if (flag == "--history-csv") {
      ok = take(&history_csv);
    } else if (flag == "--parallel") {
      ok = take(&parallel_arg);
    } else if (const char* fault_key = FaultKeyForFlag(flag); fault_key != nullptr) {
      std::string value;
      ok = take(&value);
      if (ok) {
        fault_overrides.emplace_back(fault_key, value);
      }
    } else {
      std::fprintf(stderr, "wfctl: unknown flag %s\n", flag.c_str());
      ok = false;
    }
    if (!ok) {
      return 2;
    }
  }

  std::ifstream job_in(job_path);
  if (!job_in) {
    std::fprintf(stderr, "wfctl: cannot read %s\n", job_path.c_str());
    return 1;
  }
  std::ostringstream job_buffer;
  job_buffer << job_in.rdbuf();
  std::string job_text = job_buffer.str();
  if (!AppendFaultBlock(fault_overrides, &job_text)) {
    return 2;
  }
  JobParseResult parsed = ParseJobText(job_text);
  if (!parsed.ok) {
    std::fprintf(stderr, "wfctl: %s\n", parsed.error.c_str());
    return 1;
  }
  if (!parallel_arg.empty()) {
    // Command-line override of the job file's `parallel:` key. Digits only:
    // strtoul would silently wrap "-1" to ULONG_MAX.
    char* end = nullptr;
    unsigned long parallel =
        parallel_arg.find_first_not_of("0123456789") == std::string::npos
            ? std::strtoul(parallel_arg.c_str(), &end, 10)
            : 0;
    if (parallel == 0 || parallel > 4096) {
      std::fprintf(stderr, "wfctl: --parallel needs a positive trial count (1-4096)\n");
      return 2;
    }
    parsed.spec.parallel = static_cast<size_t>(parallel);
  }
  const JobSpec& spec = parsed.spec;
  auto space = std::make_shared<ConfigSpace>(BuildJobSpace(spec));

  std::string searcher_error;
  std::unique_ptr<Searcher> searcher = MakeJobSearcher(spec, space.get(), &searcher_error);
  if (searcher == nullptr) {
    std::fprintf(stderr, "wfctl: %s\n", searcher_error.c_str());
    return 1;
  }
  auto* deeptune = dynamic_cast<DeepTuneSearcher*>(searcher.get());
  if (deeptune == nullptr && (!model_in.empty() || !model_out.empty())) {
    std::fprintf(stderr, "wfctl: --model-in/--model-out need a deeptune algorithm (got %s)\n",
                 spec.algorithm.c_str());
    return 1;
  }
  if (!model_in.empty()) {
    if (!deeptune->LoadModel(model_in)) {
      std::fprintf(stderr, "wfctl: cannot load model %s\n", model_in.c_str());
      return 1;
    }
    std::printf("transfer learning: warm-started from %s\n", model_in.c_str());
  }

  Testbench bench(space.get(), spec.app, spec.ToTestbenchOptions());

  SearchSession session(&bench, searcher.get(), spec.ToSessionOptions());
  if (!resume_path.empty()) {
    CheckpointLoadResult loaded = LoadCheckpoint(*space, resume_path);
    if (!loaded.ok) {
      std::fprintf(stderr, "wfctl: %s\n", loaded.error.c_str());
      return 1;
    }
    // v2 checkpoints restore the live RNG/searcher state for a bit-exact
    // continuation; v1 falls back to replay-only resume.
    if (!session.Resume(loaded.history, loaded.live)) {
      std::fprintf(stderr, "wfctl: corrupt live state in %s\n", resume_path.c_str());
      return 1;
    }
    std::printf("resumed %zu prior trials from %s%s\n", loaded.history.size(),
                resume_path.c_str(),
                loaded.live.Any() ? " (bit-exact: live RNG state restored)" : "");
  }

  std::printf("job '%s': %s on %s, %s, budget %zu iterations%s\n", spec.name.c_str(),
              GetApp(spec.app).name.c_str(), spec.os.c_str(), spec.algorithm.c_str(),
              spec.iterations,
              spec.parallel > 1
                  ? (", parallel " + std::to_string(spec.parallel)).c_str()
                  : "");
  size_t report_every = std::max<size_t>(1, spec.iterations / 10);
  size_t next_report = report_every;
  // StepBatch commits one trial per round at parallel=1 (the serial loop,
  // bit for bit) and up to `parallel` trials per round above it.
  while (session.StepBatch() > 0) {
    const TrialRecord& last = session.history().back();
    if (last.iteration + 1 >= next_report) {
      next_report += report_every;
      const TrialRecord* best = BestTrial(session.history());
      std::printf("  iter %4zu  t=%7.0fs  best=%s\n", last.iteration + 1,
                  last.sim_time_end,
                  best != nullptr ? std::to_string(best->objective).c_str() : "-");
    }
  }
  SessionResult result = session.Finish();

  std::printf("\nsession summary\n");
  PrintSummary(result.history);
  if (result.best() != nullptr) {
    std::printf("\n");
    PrintArtifacts(*result.best());
  }

  if (!model_out.empty()) {
    if (!deeptune->SaveModel(model_out)) {
      std::fprintf(stderr, "wfctl: cannot save model %s\n", model_out.c_str());
      return 1;
    }
    std::printf("\nmodel saved to %s\n", model_out.c_str());
  }
  if (!checkpoint_path.empty()) {
    CheckpointLiveState live = session.ExportLiveState();
    if (!SaveCheckpoint(result.history, checkpoint_path, &live)) {
      std::fprintf(stderr, "wfctl: cannot write checkpoint %s\n", checkpoint_path.c_str());
      return 1;
    }
    std::printf("checkpoint written to %s\n", checkpoint_path.c_str());
  }
  if (!history_csv.empty()) {
    if (!ExportHistoryCsv(result.history, history_csv)) {
      std::fprintf(stderr, "wfctl: cannot write CSV %s\n", history_csv.c_str());
      return 1;
    }
    std::printf("history exported to %s\n", history_csv.c_str());
  }
  return 0;
}

int CmdReport(const std::string& job_path, const std::string& checkpoint_path) {
  JobSpec spec;
  std::shared_ptr<ConfigSpace> space;
  CheckpointLoadResult loaded;
  if (int rc = LoadSession(job_path, checkpoint_path, &spec, &space, &loaded); rc != 0) {
    return rc;
  }
  std::printf("session '%s' (%s)\n", spec.name.c_str(), checkpoint_path.c_str());
  PrintSummary(loaded.history);
  std::printf("\ncrash analysis\n%s",
              FormatCrashReport(AnalyzeCrashes(*space, loaded.history)).c_str());
  return 0;
}

int CmdZoo(int argc, char** argv) {
  std::string dir = argv[0];
  std::string action = argc >= 2 ? argv[1] : "list";
  ModelZoo zoo(dir);
  if (action == "list") {
    std::vector<ZooEntry> entries = zoo.List();
    if (entries.empty()) {
      std::printf("zoo %s is empty\n", dir.c_str());
      return 0;
    }
    std::printf("%-16s %-8s %-6s %s\n", "entry", "dim", "heads", "fingerprint mass");
    for (const ZooEntry& entry : entries) {
      double mass = 0.0;
      for (double v : entry.fingerprint) {
        mass += v;
      }
      std::printf("%-16s %-8zu %-6zu %.3f\n", entry.name.c_str(), entry.input_dim,
                  entry.head_count, mass);
    }
    return 0;
  }
  if (action == "rank" && argc >= 3) {
    JobParseResult parsed = ParseJobFile(argv[2]);
    if (!parsed.ok) {
      std::fprintf(stderr, "wfctl: %s\n", parsed.error.c_str());
      return 1;
    }
    ConfigSpace space = BuildJobSpace(parsed.spec);
    // Only donors the job's searcher can load (same dim and head count).
    std::string searcher_error;
    std::unique_ptr<Searcher> searcher = MakeJobSearcher(parsed.spec, &space, &searcher_error);
    auto* deeptune = dynamic_cast<DeepTuneSearcher*>(searcher.get());
    if (deeptune == nullptr) {
      std::fprintf(stderr, "wfctl: zoo rank needs a deeptune algorithm (got %s)\n",
                   parsed.spec.algorithm.c_str());
      return 1;
    }
    TestbenchOptions bench_options;
    bench_options.substrate = parsed.spec.SubstrateKind();
    Testbench bench(&space, parsed.spec.app, bench_options);
    std::printf("fingerprinting %s (300 random configurations)...\n",
                GetApp(parsed.spec.app).name.c_str());
    std::vector<double> fingerprint =
        ComputeImportanceFingerprint(bench, 300, parsed.spec.seed ^ 0xf19);
    std::vector<DonorMatch> matches =
        zoo.RankDonors(fingerprint, deeptune->model().head_count());
    if (matches.empty()) {
      std::printf("no compatible donors in %s\n", dir.c_str());
      return 0;
    }
    std::printf("%-16s %s\n", "donor", "similarity");
    for (const DonorMatch& match : matches) {
      std::printf("%-16s %.3f\n", match.name.c_str(), match.similarity);
    }
    std::printf("\nwarm-start with: wfctl start %s --model-in %s/%s.wfnn\n", argv[2],
                dir.c_str(), matches.front().name.c_str());
    return 0;
  }
  return Usage();
}

int CmdRender(const std::string& job_path, const std::string& checkpoint_path) {
  JobSpec spec;
  std::shared_ptr<ConfigSpace> space;
  CheckpointLoadResult loaded;
  if (int rc = LoadSession(job_path, checkpoint_path, &spec, &space, &loaded); rc != 0) {
    return rc;
  }
  const TrialRecord* best = BestTrial(loaded.history);
  if (best == nullptr) {
    std::fprintf(stderr, "wfctl: checkpoint has no successful trial\n");
    return 1;
  }
  PrintArtifacts(*best);
  return 0;
}

// §3.4 end to end: boot the (simulated) guest, list writable pseudo-files,
// infer types, probe ranges by x10 scaling, mine multi-choice vocabularies.
int CmdProbe(const std::string& job_path) {
  JobParseResult parsed = ParseJobFile(job_path);
  if (!parsed.ok) {
    std::fprintf(stderr, "wfctl: %s\n", parsed.error.c_str());
    return 1;
  }
  ConfigSpace space = BuildJobSpace(parsed.spec);
  SimulatedSysfs sysfs(&space, HashCombine(parsed.spec.seed, 0x960be),
                       /*bracket_choice_files=*/true);
  ProbeReport report = ProbeRuntimeSpace(sysfs);
  std::printf("probed %zu writable pseudo-files\n", sysfs.ListWritablePaths().size());
  std::printf("  discovered:   %zu parameters\n", report.params.size());
  std::printf("  manual-only:  %zu non-numeric files\n", report.skipped_non_numeric.size());
  std::printf("  writes:       %zu attempted, %zu rejected, %zu guest crashes\n",
              report.writes_attempted, report.writes_rejected, report.crashes);
  std::printf("\n%-38s %-10s %-10s %s\n", "parameter", "kind", "default", "domain");
  size_t shown = 0;
  for (const ParamSpec& spec : report.params) {
    std::string domain;
    if (spec.kind == ParamKind::kString) {
      for (size_t i = 0; i < spec.choices.size(); ++i) {
        domain += (i == 0 ? "" : "|") + spec.choices[i];
      }
    } else {
      domain = "[" + std::to_string(spec.min_value) + ", " +
               std::to_string(spec.max_value) + "]";
    }
    std::printf("%-38s %-10s %-10s %s\n", spec.name.c_str(), ParamKindName(spec.kind),
                spec.FormatValue(spec.default_value).c_str(), domain.c_str());
    if (++shown >= 20) {
      std::printf("... (%zu more)\n", report.params.size() - shown);
      break;
    }
  }
  return 0;
}

// §3.5 future work in practice: calibrate a linear metric map between two
// jobs' substrates from paired runs, rescale the source checkpoint into
// target units, and write it out for `start --resume` on the target job.
int CmdTransfer(const std::string& source_job_path, const std::string& target_job_path,
                const std::string& source_ckpt, const std::string& out_ckpt) {
  JobParseResult source_job = ParseJobFile(source_job_path);
  JobParseResult target_job = ParseJobFile(target_job_path);
  if (!source_job.ok || !target_job.ok) {
    std::fprintf(stderr, "wfctl: %s\n",
                 (!source_job.ok ? source_job.error : target_job.error).c_str());
    return 1;
  }
  if (source_job.spec.app != target_job.spec.app) {
    std::fprintf(stderr, "wfctl: jobs target different applications\n");
    return 1;
  }
  // The transferred history must decode against the *target* job's space.
  ConfigSpace space = BuildJobSpace(target_job.spec);
  CheckpointLoadResult loaded = LoadCheckpoint(space, source_ckpt);
  if (!loaded.ok) {
    std::fprintf(stderr, "wfctl: %s\n", loaded.error.c_str());
    return 1;
  }

  TestbenchOptions source_options = source_job.spec.ToTestbenchOptions();
  Testbench source(&space, source_job.spec.app, source_options);
  Testbench target(&space, target_job.spec.app, target_job.spec.ToTestbenchOptions());

  LinearTransfer transfer = CalibrateTransfer(source, target, /*pairs=*/24,
                                              HashCombine(source_options.seed, 0x7f));
  std::printf("calibrated %zu pairs: metric_dst = %.4g * metric_src + %.4g "
              "(correlation %.3f)\n",
              transfer.pairs, transfer.slope, transfer.intercept, transfer.correlation);
  if (!transfer.Reliable()) {
    std::fprintf(stderr,
                 "wfctl: transfer unreliable (correlation %.3f < 0.7); measure on the "
                 "target instead\n",
                 transfer.correlation);
    return 1;
  }
  std::vector<TrialRecord> mapped = TransferHistory(loaded.history, transfer);
  if (!SaveCheckpoint(mapped, out_ckpt)) {
    std::fprintf(stderr, "wfctl: cannot write %s\n", out_ckpt.c_str());
    return 1;
  }
  std::printf("%zu trials mapped into target units -> %s\n", mapped.size(),
              out_ckpt.c_str());
  std::printf("continue with: wfctl start %s --resume %s\n", target_job_path.c_str(),
              out_ckpt.c_str());
  return 0;
}

// --- service mode ----------------------------------------------------------

// Shared flag scan for the client subcommands: consumes --socket (and
// friends) from anywhere in the tail, leaves the first positional arg in
// *positional.
struct ServiceArgs {
  std::string socket_path = kDefaultSocketPath;
  std::string positional;
  std::string out_path;
  int interval_ms = 250;
  bool warm_start = true;
  bool watch_metrics = false;  // metrics: refresh until interrupted.
  bool ok = true;
  // Client resilience: --reconnect N re-dials a vanished daemon with
  // exponential backoff for idempotent commands; --retry-unsafe opts
  // non-idempotent ones (submit/pause/resume/stop) in too.
  int reconnect = 0;
  bool retry_unsafe = false;
  // submit: fault flags appended to the job text as a `faults:` block.
  FaultOverrides fault_overrides;

  ReconnectPolicy Policy() const {
    ReconnectPolicy policy;
    policy.attempts = reconnect;
    policy.retry_unsafe = retry_unsafe;
    return policy;
  }
};

ServiceArgs ParseServiceArgs(int argc, char** argv) {
  ServiceArgs args;
  for (int i = 0; i < argc; ++i) {
    std::string flag = argv[i];
    auto take = [&](std::string* into) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "wfctl: %s needs a value\n", flag.c_str());
        args.ok = false;
        return false;
      }
      *into = argv[++i];
      return true;
    };
    std::string value;
    if (flag == "--socket") {
      args.ok &= take(&args.socket_path);
    } else if (flag == "--out") {
      args.ok &= take(&args.out_path);
    } else if (flag == "--interval-ms") {
      if (take(&value)) {
        args.interval_ms = std::atoi(value.c_str());
        if (args.interval_ms <= 0) {
          args.interval_ms = 250;
        }
      } else {
        args.ok = false;
      }
    } else if (flag == "--watch") {
      args.watch_metrics = true;
    } else if (flag == "--no-warm-start") {
      args.warm_start = false;
    } else if (flag == "--reconnect") {
      if (take(&value)) {
        args.reconnect = std::atoi(value.c_str());
        if (args.reconnect < 0) {
          std::fprintf(stderr, "wfctl: --reconnect needs a non-negative count\n");
          args.ok = false;
        }
      } else {
        args.ok = false;
      }
    } else if (flag == "--retry-unsafe") {
      args.retry_unsafe = true;
    } else if (const char* fault_key = FaultKeyForFlag(flag); fault_key != nullptr) {
      if (take(&value)) {
        args.fault_overrides.emplace_back(fault_key, value);
      }
    } else if (!flag.empty() && flag[0] == '-') {
      std::fprintf(stderr, "wfctl: unknown flag %s\n", flag.c_str());
      args.ok = false;
    } else if (args.positional.empty()) {
      args.positional = flag;
    } else {
      std::fprintf(stderr, "wfctl: unexpected argument %s\n", flag.c_str());
      args.ok = false;
    }
  }
  return args;
}

// `wfctl serve`: the `wfd` binary's flags and foreground bootstrap
// (signal-wired graceful drain, banner, serve loop), identical to it by
// construction.
int CmdServe(int argc, char** argv) {
  WfdOptions options;
  options.socket_path = kDefaultSocketPath;
  std::string error;
  if (!ParseWfdFlags(argc, argv, &options, &error)) {
    std::fprintf(stderr, "wfctl: %s\n", error.c_str());
    return 2;
  }
  return RunWfdForeground(options);
}

// `wfctl metrics [--watch]`: dump the daemon's live metrics registry (the
// text rendering from src/obs/metrics.h, sent as a payload frame exactly
// like `result`). --watch re-fetches every --interval-ms; each refresh is
// separated by a form-feed-style rule so the stream stays greppable.
int CmdMetrics(const ServiceArgs& args) {
  for (;;) {
    ServiceRequest request;
    request.command = "metrics";
    ServiceCallResult call =
        CallServiceRetry(args.socket_path, request, args.Policy(), "");
    if (!call.ok) {
      std::fprintf(stderr, "wfctl: %s\n", call.error.c_str());
      return 1;
    }
    std::fwrite(call.payload.data(), 1, call.payload.size(), stdout);
    if (!args.watch_metrics) {
      return 0;
    }
    std::printf("---\n");
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
  }
}

// `wfctl result|trace <id> [--out P]`: fetch one session's payload and write
// it to stdout, or to --out with a note naming `what` was written and a
// `hint` for using it. `result` fetches the checkpoint (v2); `trace` the
// trial trace as Chrome trace_event JSON for chrome://tracing or
// ui.perfetto.dev, an empty events array (still valid JSON) unless the
// daemon is recording (`--metrics`).
int CmdFetch(const char* command, const char* what, const std::string& hint,
             const ServiceArgs& args) {
  ServiceRequest request;
  request.command = command;
  request.id = args.positional;
  ServiceCallResult call =
      CallServiceRetry(args.socket_path, request, args.Policy(), "");
  if (!call.ok) {
    std::fprintf(stderr, "wfctl: %s\n", call.error.c_str());
    return 1;
  }
  if (args.out_path.empty()) {
    std::fwrite(call.payload.data(), 1, call.payload.size(), stdout);
    return 0;
  }
  std::ofstream out(args.out_path);
  out << call.payload;
  if (!out) {
    std::fprintf(stderr, "wfctl: cannot write %s\n", args.out_path.c_str());
    return 1;
  }
  std::printf("%s written to %s (%s)\n", what, args.out_path.c_str(), hint.c_str());
  return 0;
}

int CmdSubmit(const ServiceArgs& args) {
  std::ifstream in(args.positional);
  if (!in) {
    std::fprintf(stderr, "wfctl: cannot read %s\n", args.positional.c_str());
    return 1;
  }
  std::ostringstream job_buffer;
  job_buffer << in.rdbuf();
  std::string job_text = job_buffer.str();
  if (!AppendFaultBlock(args.fault_overrides, &job_text)) {
    return 2;
  }
  ServiceRequest request;
  request.command = "submit";
  request.warm_start = args.warm_start;
  // Submit is NOT idempotent: CallServiceRetry only re-dials it under
  // --retry-unsafe (a lost ack cannot be told apart from a lost request,
  // and resubmitting blind duplicates the session).
  ServiceCallResult call =
      CallServiceRetry(args.socket_path, request, args.Policy(), job_text);
  if (!call.ok) {
    std::fprintf(stderr, "wfctl: %s\n", call.error.c_str());
    return 1;
  }
  if (!call.response.note.empty()) {
    std::fprintf(stderr, "wfctl: warning: %s\n", call.response.note.c_str());
  }
  std::printf("%s\n", call.response.id.c_str());
  return 0;
}

// Failure taxonomy of one session, compact: only the classes that fired,
// "-" for a clean run.
std::string FailureTaxonomy(const SessionStatus& status) {
  std::string out;
  auto add = [&out](const char* label, size_t count) {
    if (count == 0) {
      return;
    }
    if (!out.empty()) {
      out += " ";
    }
    out += label;
    out += ":";
    out += std::to_string(count);
  };
  add("build", status.build_failed);
  add("boot", status.boot_failed);
  add("run", status.run_crashed);
  add("timeout", status.timeouts);
  add("retry", status.retries);
  add("drift", status.drift_events);
  return out.empty() ? "-" : out;
}

void PrintStatusTable(const std::vector<SessionStatus>& sessions) {
  std::printf("%-5s %-20s %-12s %-9s %9s %7s %12s %12s  %s\n", "id", "job", "algorithm",
              "state", "trials", "warm", "best", "sim(s)", "failures");
  for (const SessionStatus& status : sessions) {
    std::printf("%-5s %-20s %-12s %-9s %5zu/%-3zu %7zu %12s %12.0f  %s\n",
                status.id.c_str(), status.name.c_str(), status.algorithm.c_str(),
                status.state.c_str(), status.trials, status.iterations,
                status.warm_started,
                status.has_best ? std::to_string(status.best).c_str() : "-",
                status.sim_seconds, FailureTaxonomy(status).c_str());
  }
}

int CmdStatus(const ServiceArgs& args) {
  ServiceRequest request;
  request.command = "status";
  request.id = args.positional;
  ServiceCallResult call =
      CallServiceRetry(args.socket_path, request, args.Policy(), "");
  if (!call.ok) {
    std::fprintf(stderr, "wfctl: %s\n", call.error.c_str());
    return 1;
  }
  PrintStatusTable(call.response.sessions);
  return 0;
}

// Prints one watch line; true when the session reached a terminal state.
bool PrintWatchLine(const SessionStatus& status) {
  std::printf("%s: %-9s %zu/%zu trials  best=%s  t=%.0fs\n", status.id.c_str(),
              status.state.c_str(), status.trials, status.iterations,
              status.has_best ? std::to_string(status.best).c_str() : "-",
              status.sim_seconds);
  std::fflush(stdout);
  return status.state == "done" || status.state == "failed" ||
         status.state == "stopped";
}

int CmdWatch(const ServiceArgs& args) {
  // One persistent connection: the daemon streams a status frame per
  // committed wave / lifecycle change. No client polling. With
  // --reconnect, a dropped stream (a restarting daemon) re-dials with
  // backoff and re-subscribes carrying the last status version it printed,
  // so the reborn daemon suppresses the stale baseline and the watcher
  // rides across the restart without duplicate lines.
  ReconnectPolicy policy = args.Policy();
  uint64_t jitter = policy.seed;
  uint64_t last_version = 0;
  int redials = 0;
  for (;;) {
    ServiceConnection conn;
    std::string error;
    if (!conn.Connect(args.socket_path, true, &error)) {
      if (redials < policy.attempts) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(BackoffDelayMs(policy, ++redials, &jitter)));
        continue;
      }
      std::fprintf(stderr, "wfctl: %s\n", error.c_str());
      return 1;
    }
    ServiceRequest request;
    request.command = "watch";
    request.id = args.positional;
    request.since_version = last_version;
    ServiceCallResult ack = conn.Call(request);
    if (!ack.ok) {
      if (ack.transport_error && redials < policy.attempts) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(BackoffDelayMs(policy, ++redials, &jitter)));
        continue;
      }
      std::fprintf(stderr, "wfctl: %s\n", ack.error.c_str());
      return 1;
    }
    redials = 0;  // A successful subscribe refreshes the retry budget.
    // The ack carries the baseline snapshot (taken under the same lock
    // that registered the subscription, so no wave can slip between
    // them) — absent when the daemon knows we already saw this version.
    if (!ack.response.sessions.empty()) {
      const SessionStatus& baseline = ack.response.sessions.front();
      last_version = baseline.version;
      if (PrintWatchLine(baseline)) {
        return baseline.state == "done" ? 0 : 1;
      }
    }
    bool stream_lost = false;
    while (!stream_lost) {
      ServiceResponse push;
      if (!conn.ReadResponse(&push, &error)) {
        if (redials < policy.attempts) {
          stream_lost = true;  // Re-dial and re-subscribe.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(BackoffDelayMs(policy, ++redials, &jitter)));
          continue;
        }
        std::fprintf(stderr, "wfctl: %s\n", error.c_str());
        return 1;
      }
      if (push.sessions.empty()) {
        continue;
      }
      const SessionStatus& status = push.sessions.front();
      last_version = status.version;
      if (PrintWatchLine(status)) {
        return status.state == "done" ? 0 : 1;
      }
    }
  }
}

int CmdSessionControl(const char* command, const ServiceArgs& args) {
  ServiceRequest request;
  request.command = command;
  request.id = args.positional;
  ServiceCallResult call =
      CallServiceRetry(args.socket_path, request, args.Policy(), "");
  if (!call.ok) {
    std::fprintf(stderr, "wfctl: %s\n", call.error.c_str());
    return 1;
  }
  std::printf("%s: %s\n", request.id.empty() ? "wfd" : request.id.c_str(),
              call.response.state.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "algorithms") {
    return CmdAlgorithms();
  }
  if (argc >= 2) {
    std::string service_command = argv[1];
    if (service_command == "serve") {
      return CmdServe(argc - 2, argv + 2);
    }
    if (service_command == "submit" ||
        service_command == "status" || service_command == "watch" ||
        service_command == "result" || service_command == "pause" ||
        service_command == "resume" || service_command == "stop" ||
        service_command == "metrics" || service_command == "trace") {
      ServiceArgs args = ParseServiceArgs(argc - 2, argv + 2);
      if (!args.ok) {
        return 2;
      }
      if (service_command == "stop") {
        return CmdSessionControl("stop", args);
      }
      if (service_command == "status") {
        return CmdStatus(args);
      }
      if (service_command == "metrics") {
        return CmdMetrics(args);
      }
      if (args.positional.empty()) {
        std::fprintf(stderr, "wfctl: %s needs a %s argument\n", service_command.c_str(),
                     service_command == "submit" ? "job file" : "session id");
        return 2;
      }
      if (service_command == "submit") {
        return CmdSubmit(args);
      }
      if (service_command == "watch") {
        return CmdWatch(args);
      }
      if (service_command == "result") {
        return CmdFetch("result", "checkpoint", "use: wfctl report <job.yaml> " + args.out_path,
                        args);
      }
      if (service_command == "trace") {
        return CmdFetch("trace", "trace", "open in chrome://tracing or ui.perfetto.dev", args);
      }
      return CmdSessionControl(service_command.c_str(), args);
    }
  }
  if (argc < 3) {
    return Usage();
  }
  std::string command = argv[1];
  if (command == "create") {
    return CmdCreate(argv[2]);
  }
  if (command == "start") {
    return CmdStart(argc - 2, argv + 2);
  }
  if (command == "report" && argc >= 4) {
    return CmdReport(argv[2], argv[3]);
  }
  if (command == "render" && argc >= 4) {
    return CmdRender(argv[2], argv[3]);
  }
  if (command == "probe") {
    return CmdProbe(argv[2]);
  }
  if (command == "zoo") {
    return CmdZoo(argc - 2, argv + 2);
  }
  if (command == "transfer" && argc >= 6) {
    return CmdTransfer(argv[2], argv[3], argv[4], argv[5]);
  }
  return Usage();
}

}  // namespace
}  // namespace wayfinder

int main(int argc, char** argv) { return wayfinder::Main(argc, argv); }
