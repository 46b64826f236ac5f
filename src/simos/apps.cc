#include "src/simos/apps.h"

namespace wayfinder {

double SubsystemWeights::For(const std::string& subsystem) const {
  if (subsystem == "net") {
    return net;
  }
  if (subsystem == "vm") {
    return vm;
  }
  if (subsystem == "sched") {
    return sched;
  }
  if (subsystem == "block") {
    return block;
  }
  if (subsystem == "fs") {
    return fs;
  }
  if (subsystem == "debug") {
    return debug;
  }
  if (subsystem == "security") {
    return security;
  }
  if (subsystem == "power") {
    return power;
  }
  if (subsystem == "drivers") {
    return drivers;
  }
  if (subsystem == "crypto") {
    return crypto;
  }
  if (subsystem == "app") {
    return app;
  }
  return kernel;
}

namespace {

std::vector<AppProfile> MakeApps() {
  std::vector<AppProfile> apps(4);

  // Nginx: network-intensive web server, throughput via wrk (Table 2
  // baseline 15731 req/s on the paper's testbed). The most OS-sensitive of
  // the four: Wayfinder finds +24%.
  AppProfile& nginx = apps[0];
  nginx.id = AppId::kNginx;
  nginx.name = "nginx";
  nginx.bench_tool = "wrk";
  nginx.metric_name = "throughput";
  nginx.metric_unit = "req/s";
  nginx.maximize = true;
  nginx.baseline = 15731.0;
  nginx.noise_cv = 0.025;
  nginx.cores = 16;
  nginx.test_seconds_mean = 70.0;
  nginx.test_seconds_spread = 20.0;
  nginx.weights = {.net = 1.0,
                   .vm = 0.30,
                   .sched = 0.40,
                   .block = 0.05,
                   .fs = 0.15,
                   .debug = 0.65,
                   .security = 0.35,
                   .power = 0.25,
                   .drivers = 0.05,
                   .crypto = 0.02,
                   .kernel = 0.15,
                   .app = 1.0};
  nginx.os_sensitivity = 0.40;

  // Redis: network-intensive key-value store, single-threaded (Table 2
  // baseline 58000 req/s). Wayfinder finds +14%.
  AppProfile& redis = apps[1];
  redis.id = AppId::kRedis;
  redis.name = "redis";
  redis.bench_tool = "redis-benchmark";
  redis.metric_name = "throughput";
  redis.metric_unit = "req/s";
  redis.maximize = true;
  redis.baseline = 58000.0;
  redis.noise_cv = 0.03;
  redis.cores = 1;
  redis.test_seconds_mean = 62.0;
  redis.test_seconds_spread = 15.0;
  redis.weights = {.net = 0.90,
                   .vm = 0.45,
                   .sched = 0.35,
                   .block = 0.04,
                   .fs = 0.10,
                   .debug = 0.60,
                   .security = 0.30,
                   .power = 0.20,
                   .drivers = 0.04,
                   .crypto = 0.02,
                   .kernel = 0.14,
                   .app = 0.0};
  redis.os_sensitivity = 0.28;

  // SQLite: storage-intensive (LevelDB's db_bench SQLite INSERT workload,
  // 284 µs/op, minimized). The default configuration is already close to
  // optimal for this scenario (Table 2 reports 1.00x).
  AppProfile& sqlite = apps[2];
  sqlite.id = AppId::kSqlite;
  sqlite.name = "sqlite";
  sqlite.bench_tool = "db_bench_sqlite3";
  sqlite.metric_name = "latency";
  sqlite.metric_unit = "us/op";
  sqlite.maximize = false;
  sqlite.baseline = 284.0;
  sqlite.noise_cv = 0.02;
  sqlite.cores = 1;
  sqlite.test_seconds_mean = 48.0;
  sqlite.test_seconds_spread = 10.0;
  sqlite.weights = {.net = 0.02,
                    .vm = 0.50,
                    .sched = 0.25,
                    .block = 0.90,
                    .fs = 0.80,
                    .debug = 0.55,
                    .security = 0.20,
                    .power = 0.15,
                    .drivers = 0.03,
                    .crypto = 0.02,
                    .kernel = 0.12,
                    .app = 0.0};
  sqlite.os_sensitivity = 0.22;

  // NPB: OpenMP FT/MG/CG/IS aggregate (1497 Mop/s). CPU/memory bound: the
  // OS configuration has close to no impact (+2% at best).
  AppProfile& npb = apps[3];
  npb.id = AppId::kNpb;
  npb.name = "npb";
  npb.bench_tool = "npb-suite";
  npb.metric_name = "throughput";
  npb.metric_unit = "Mop/s";
  npb.maximize = true;
  npb.baseline = 1497.0;
  npb.noise_cv = 0.015;
  npb.cores = 16;
  npb.test_seconds_mean = 75.0;
  npb.test_seconds_spread = 18.0;
  // Distinctively memory/scheduler-bound: the parameters that matter for
  // NPB (hugepages, CPU scheduling granularity) are not the ones the
  // system-intensive apps care about — the Figure 5 dissimilarity.
  npb.weights = {.net = 0.005,
                 .vm = 0.10,
                 .sched = 0.08,
                 .block = 0.005,
                 .fs = 0.005,
                 .debug = 0.02,
                 .security = 0.02,
                 .power = 0.04,
                 .drivers = 0.005,
                 .crypto = 0.005,
                 .kernel = 0.02,
                 .app = 0.0};
  npb.os_sensitivity = 0.05;

  return apps;
}

}  // namespace

const std::vector<AppProfile>& AllApps() {
  static const std::vector<AppProfile> apps = MakeApps();
  return apps;
}

const AppProfile& GetApp(AppId id) { return AllApps()[static_cast<size_t>(id)]; }

bool TryParseApp(const std::string& name, AppId* out) {
  for (const AppProfile& app : AllApps()) {
    if (app.name == name) {
      *out = app.id;
      return true;
    }
  }
  return false;
}

}  // namespace wayfinder
