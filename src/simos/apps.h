// Application and benchmark-tool profiles for the simulated substrate.
//
// The paper evaluates four applications with distinct OS-sensitivity
// classes: Nginx (network-intensive, benchmarked with wrk), Redis
// (network-intensive, redis-benchmark), SQLite (storage-intensive, LevelDB's
// db_bench SQLite harness), and the NAS Parallel Benchmarks (CPU/memory-
// intensive). The profile captures everything the simulated testbench needs:
// which kernel subsystems the app stresses, the default-configuration
// baseline for its metric, run-to-run noise, and how long one benchmark run
// takes in simulated seconds.
#ifndef WAYFINDER_SRC_SIMOS_APPS_H_
#define WAYFINDER_SRC_SIMOS_APPS_H_

#include <string>
#include <vector>

namespace wayfinder {

enum class AppId { kNginx, kRedis, kSqlite, kNpb };

// Per-subsystem sensitivity weights in [0, 1]; 0 means the app's metric does
// not react to that subsystem at all.
struct SubsystemWeights {
  double net = 0.0;
  double vm = 0.0;
  double sched = 0.0;
  double block = 0.0;
  double fs = 0.0;
  double debug = 0.0;
  double security = 0.0;
  double power = 0.0;
  double drivers = 0.0;
  double crypto = 0.0;
  double kernel = 0.0;
  double app = 0.0;  // Application-level knobs (Unikraft/Nginx space).

  double For(const std::string& subsystem) const;
};

struct AppProfile {
  AppId id = AppId::kNginx;
  std::string name;           // "nginx"
  std::string bench_tool;     // "wrk"
  std::string metric_name;    // "throughput"
  std::string metric_unit;    // "req/s"
  bool maximize = true;       // SQLite minimizes µs/op.
  double baseline = 0.0;      // Metric under the default configuration.
  double noise_cv = 0.02;     // Run-to-run coefficient of variation.
  int cores = 1;
  // One benchmark run costs this many simulated seconds (± spread).
  double test_seconds_mean = 60.0;
  double test_seconds_spread = 15.0;
  SubsystemWeights weights;
  // Overall scale of how much OS configuration can move the metric, in log
  // space (0.4 ~ "±40% swing possible", matching Figure 2 for Nginx).
  double os_sensitivity = 0.4;
};

// Profile registry.
const AppProfile& GetApp(AppId id);
const std::vector<AppProfile>& AllApps();
// Lookup by name ("nginx", "redis", "sqlite", "npb"); false on unknown
// names.
bool TryParseApp(const std::string& name, AppId* out);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_SIMOS_APPS_H_
