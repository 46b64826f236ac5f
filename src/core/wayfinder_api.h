// Top-level Wayfinder API: the one header a downstream user needs.
//
//   ConfigSpace space = BuildLinuxSearchSpace();
//   Testbench bench(&space, AppId::kNginx);
//   auto searcher = MakeSearcher("deeptune", &space);
//   SessionOptions options;
//   SessionResult result = RunSearch(&bench, searcher.get(), options);
//
// or, driven by a YAML job file (§3.1):
//
//   JobRunResult run = RunJobText(yaml);
#ifndef WAYFINDER_SRC_CORE_WAYFINDER_API_H_
#define WAYFINDER_SRC_CORE_WAYFINDER_API_H_

#include <memory>
#include <string>

#include "src/core/deeptune.h"
#include "src/platform/job_file.h"
#include "src/platform/searcher_registry.h"
#include "src/platform/session.h"

namespace wayfinder {

// Instantiates a searcher by registered name — a SearcherRegistry lookup,
// nothing more. The authoritative name list is RegisteredSearcherNames()
// (surfaced by `wfctl algorithms`); out-of-tree searchers that register
// themselves resolve here too. Returns nullptr for unknown names. `seed`
// feeds algorithm-internal randomness (model init); proposal randomness
// comes from the session.
std::unique_ptr<Searcher> MakeSearcher(const std::string& name, const ConfigSpace* space,
                                       uint64_t seed = 0x5eed);

// Instantiates the searcher a job spec asks for: the registered algorithm's
// multi-metric variant when `metric: multi` (spec.IsMultiMetric(), routed
// via SearcherInfo::multi_metric_variant), else the named algorithm itself.
// Returns nullptr with `error` set on a bad spec.
std::unique_ptr<Searcher> MakeJobSearcher(const JobSpec& spec, const ConfigSpace* space,
                                          std::string* error);

struct JobRunResult {
  bool ok = false;
  std::string error;
  JobSpec spec;
  SessionResult session;
  // Set when the job's space was built locally (owned by this struct).
  std::shared_ptr<ConfigSpace> space;
};

// Parses and runs a job file end to end. `model_in` warm-starts DeepTune
// (single- or multi-metric) from a saved model (transfer learning);
// `model_out` saves the trained model afterwards. Both optional (empty =
// off); with any other algorithm either one is an error before the run
// starts.
JobRunResult RunJobText(const std::string& yaml_text, const std::string& model_in = "",
                        const std::string& model_out = "");
JobRunResult RunJobFile(const std::string& path, const std::string& model_in = "",
                        const std::string& model_out = "");
JobRunResult RunJob(const JobSpec& spec, const std::string& model_in = "",
                    const std::string& model_out = "");

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_WAYFINDER_API_H_
