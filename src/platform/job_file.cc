#include "src/platform/job_file.h"

#include "src/configspace/linux_space.h"
#include "src/configspace/unikraft_space.h"

namespace wayfinder {

Substrate JobSpec::SubstrateKind() const {
  if (os == "unikraft") {
    return Substrate::kUnikraftKvm;
  }
  if (os == "linux-riscv") {
    return Substrate::kLinuxRiscvQemu;
  }
  return Substrate::kLinuxKvm;
}

SampleOptions JobSpec::SamplingBias() const {
  if (favor == "runtime") {
    return SampleOptions::FavorRuntime();
  }
  if (favor == "compile") {
    return SampleOptions::FavorCompileTime();
  }
  return SampleOptions();
}

SessionOptions JobSpec::ToSessionOptions() const {
  SessionOptions options;
  options.max_iterations = iterations;
  options.max_sim_seconds = sim_seconds;
  options.objective = objective;
  options.sample_options = SamplingBias();
  options.seed = seed;
  options.parallel_evaluations = parallel;
  options.sliding_window = sliding;
  options.retry_transient = fault_retries;
  options.measure_repeats = measure_repeats;
  // A job that schedules workload drift gets the detector for free; clean
  // jobs keep it off (no detector scans, no re-validation trials).
  options.drift_detection = faults.drift_at > 0.0;
  return options;
}

TestbenchOptions JobSpec::ToTestbenchOptions() const {
  TestbenchOptions options;
  options.substrate = SubstrateKind();
  options.seed = HashCombine(seed, StableHash(name));
  options.faults = faults;
  return options;
}

JobParseResult ParseJob(const YamlNode& root) {
  JobParseResult result;
  if (!root.IsMapping()) {
    result.error = "job file root must be a mapping";
    return result;
  }
  JobSpec& spec = result.spec;
  spec.name = root.GetString("name", "unnamed-job");
  spec.os = root.GetString("os", "linux");
  if (spec.os != "linux" && spec.os != "unikraft" && spec.os != "linux-riscv") {
    result.error = "unknown os: " + spec.os;
    return result;
  }
  std::string app_name = root.GetString("application", "nginx");
  if (!TryParseApp(app_name, &spec.app)) {
    result.error = "unknown application: " + app_name;
    return result;
  }
  std::string metric = root.GetString("metric", "performance");
  if (metric == "performance") {
    spec.objective = ObjectiveKind::kAppMetric;
  } else if (metric == "memory") {
    spec.objective = ObjectiveKind::kMemoryFootprint;
  } else if (metric == "score") {
    spec.objective = ObjectiveKind::kScore;
  } else if (metric == "multi") {
    // Multi-metric jobs report through the Eq. 4 score objective; the
    // weighted per-metric search happens inside the searcher (Â§3.2).
    spec.objective = ObjectiveKind::kScore;
    const YamlNode* metrics = root.Get("metrics");
    if (metrics == nullptr || !metrics->IsSequence() || metrics->Size() == 0) {
      result.error = "metric: multi requires a non-empty metrics list";
      return result;
    }
    for (size_t i = 0; i < metrics->Size(); ++i) {
      const YamlNode& entry = metrics->At(i);
      JobMetric job_metric;
      job_metric.name = entry.GetString("name");
      job_metric.weight = entry.GetDouble("weight", 1.0);
      if (job_metric.name != "throughput" && job_metric.name != "memory") {
        result.error = "unknown metric name: " + job_metric.name;
        return result;
      }
      if (job_metric.weight < 0.0) {
        result.error = "metric weight must be non-negative: " + job_metric.name;
        return result;
      }
      spec.metrics.push_back(std::move(job_metric));
    }
  } else {
    result.error = "unknown metric: " + metric;
    return result;
  }
  if (const YamlNode* budget = root.Get("budget"); budget != nullptr) {
    spec.iterations = static_cast<size_t>(budget->GetInt("iterations", 250));
    double sim_seconds = budget->GetDouble("sim_seconds", 0.0);
    if (sim_seconds > 0.0) {
      spec.sim_seconds = sim_seconds;
    }
  }
  int64_t parallel = root.GetInt("parallel", 1);
  if (parallel < 1) {
    result.error = "parallel must be a positive trial count";
    return result;
  }
  spec.parallel = static_cast<size_t>(parallel);
  spec.sliding = root.GetBool("sliding", false);
  if (const YamlNode* search = root.Get("search"); search != nullptr) {
    spec.algorithm = search->GetString("algorithm", "deeptune");
    spec.favor = search->GetString("favor", "none");
    spec.seed = static_cast<uint64_t>(search->GetInt("seed", 42));
  }
  if (const YamlNode* faults = root.Get("faults"); faults != nullptr) {
    if (!faults->IsMapping()) {
      result.error = "faults must be a mapping";
      return result;
    }
    spec.faults.flake_prob = faults->GetDouble("flake_prob", 0.0);
    spec.faults.timeout_prob = faults->GetDouble("timeout_prob", 0.0);
    spec.faults.hang_prob = faults->GetDouble("hang_prob", 0.0);
    spec.faults.timeout_seconds = faults->GetDouble("timeout_s", 600.0);
    spec.faults.noise_sigma = faults->GetDouble("noise_sigma", 0.0);
    spec.faults.drift_at = faults->GetDouble("drift_at", 0.0);
    spec.faults.drift_magnitude = faults->GetDouble("drift_magnitude", 1.0);
    for (double prob : {spec.faults.flake_prob, spec.faults.timeout_prob,
                        spec.faults.hang_prob}) {
      if (prob < 0.0 || prob > 1.0) {
        result.error = "fault probabilities must be in [0, 1]";
        return result;
      }
    }
    if (spec.faults.drift_magnitude < 0.0 || spec.faults.drift_magnitude > 1.0) {
      result.error = "drift_magnitude must be in [0, 1]";
      return result;
    }
    int64_t retries = faults->GetInt("retries", 0);
    int64_t repeats = faults->GetInt("repeats", 1);
    if (retries < 0 || repeats < 1) {
      result.error = "faults retries must be >= 0 and repeats >= 1";
      return result;
    }
    spec.fault_retries = static_cast<size_t>(retries);
    spec.measure_repeats = static_cast<size_t>(repeats);
  }
  if (const YamlNode* freeze = root.Get("freeze"); freeze != nullptr) {
    if (!freeze->IsSequence()) {
      result.error = "freeze must be a sequence";
      return result;
    }
    for (size_t i = 0; i < freeze->Size(); ++i) {
      const YamlNode& entry = freeze->At(i);
      FrozenParam frozen;
      frozen.name = entry.GetString("name");
      frozen.value = entry.GetInt("value", 0);
      if (frozen.name.empty()) {
        result.error = "freeze entry missing name";
        return result;
      }
      spec.freeze.push_back(std::move(frozen));
    }
  }
  result.ok = true;
  return result;
}

JobParseResult ParseJobText(const std::string& yaml_text) {
  YamlParseResult yaml = ParseYaml(yaml_text);
  if (!yaml.ok) {
    JobParseResult result;
    result.error = "YAML error at line " + std::to_string(yaml.error_line) + ": " + yaml.error;
    return result;
  }
  return ParseJob(yaml.root);
}

JobParseResult ParseJobFile(const std::string& path) {
  YamlParseResult yaml = ParseYamlFile(path);
  if (!yaml.ok) {
    JobParseResult result;
    result.error = "YAML error in " + path + ": " + yaml.error;
    return result;
  }
  return ParseJob(yaml.root);
}

ConfigSpace BuildJobSpace(const JobSpec& spec) {
  // The space is canonical per OS family — deliberately independent of the
  // job's search seed, and shared between "linux" and "linux-riscv" (same
  // Kconfig tree, different target arch). Cross-job operations (transfer
  // learning across applications, cross-platform history transfer,
  // checkpoint resume under an edited job file) all rely on two jobs
  // agreeing on the space.
  ConfigSpace space;
  if (spec.os == "unikraft") {
    space = BuildUnikraftSpace();
  } else {
    space = BuildLinuxSearchSpace();
  }
  for (const FrozenParam& frozen : spec.freeze) {
    space.Freeze(frozen.name, frozen.value);
  }
  space.ShrinkToFit();
  return space;
}

}  // namespace wayfinder
