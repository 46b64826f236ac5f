#include "src/core/wayfinder_api.h"

namespace wayfinder {

std::unique_ptr<Searcher> MakeSearcher(const std::string& name, const ConfigSpace* space,
                                       uint64_t seed) {
  SearcherArgs args;
  args.space = space;
  args.seed = seed;
  return SearcherRegistry::Instance().Create(name, args);
}

std::unique_ptr<Searcher> MakeJobSearcher(const JobSpec& spec, const ConfigSpace* space,
                                          std::string* error) {
  const SearcherRegistry& registry = SearcherRegistry::Instance();
  SearcherArgs args;
  args.space = space;
  args.seed = spec.seed;
  std::string name = spec.algorithm;
  if (spec.IsMultiMetric()) {
    // Route through the algorithm's registered multi-metric variant; no
    // algorithm names appear here, so out-of-tree multi-metric searchers
    // work the same way.
    const SearcherInfo* info = registry.Find(spec.algorithm);
    if (info == nullptr) {
      *error = "unknown search algorithm: " + spec.algorithm;
      return nullptr;
    }
    if (!info->SupportsMultiMetric()) {
      *error = "metric: multi requires a multi-metric-capable algorithm "
               "(got " + spec.algorithm + "; try deeptune)";
      return nullptr;
    }
    name = info->multi_metric_variant;
    for (const JobMetric& job_metric : spec.metrics) {
      args.metrics.emplace_back(job_metric.name, job_metric.weight);
    }
  }
  std::unique_ptr<Searcher> searcher = registry.Create(name, args);
  if (searcher == nullptr) {
    *error = "unknown search algorithm: " + name;
  }
  return searcher;
}

JobRunResult RunJob(const JobSpec& spec, const std::string& model_in,
                    const std::string& model_out) {
  JobRunResult result;
  result.spec = spec;
  result.space = std::make_shared<ConfigSpace>(BuildJobSpace(spec));

  std::unique_ptr<Searcher> searcher =
      MakeJobSearcher(spec, result.space.get(), &result.error);
  if (searcher == nullptr) {
    return result;
  }
  auto* deeptune = dynamic_cast<DeepTuneSearcher*>(searcher.get());
  if (deeptune == nullptr && (!model_in.empty() || !model_out.empty())) {
    result.error = "transfer learning requires the deeptune algorithm";
    return result;
  }
  if (!model_in.empty() && !deeptune->LoadModel(model_in)) {
    result.error = "cannot load model: " + model_in;
    return result;
  }

  Testbench bench(result.space.get(), spec.app, spec.ToTestbenchOptions());

  result.session = RunSearch(&bench, searcher.get(), spec.ToSessionOptions());
  if (!model_out.empty() && !deeptune->SaveModel(model_out)) {
    result.error = "cannot save model: " + model_out;
    return result;
  }
  result.ok = true;
  return result;
}

JobRunResult RunJobText(const std::string& yaml_text, const std::string& model_in,
                        const std::string& model_out) {
  JobParseResult parsed = ParseJobText(yaml_text);
  if (!parsed.ok) {
    JobRunResult result;
    result.error = parsed.error;
    return result;
  }
  return RunJob(parsed.spec, model_in, model_out);
}

JobRunResult RunJobFile(const std::string& path, const std::string& model_in,
                        const std::string& model_out) {
  JobParseResult parsed = ParseJobFile(path);
  if (!parsed.ok) {
    JobRunResult result;
    result.error = parsed.error;
    return result;
  }
  return RunJob(parsed.spec, model_in, model_out);
}

}  // namespace wayfinder
