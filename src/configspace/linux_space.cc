#include "src/configspace/linux_space.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>

#include "src/util/rng.h"

namespace wayfinder {

namespace {

constexpr ParamPhase kRt = ParamPhase::kRuntime;
constexpr ParamPhase kBt = ParamPhase::kBootTime;
constexpr ParamPhase kCt = ParamPhase::kCompileTime;

// Release timeline with approximate Kconfig option counts; the counts trace
// the near-linear growth of Figure 1 (~5k options in 2005 to ~20k in 2022).
struct VersionPoint {
  const char* version;
  size_t options;
};

constexpr VersionPoint kVersionCurve[] = {
    {"2.6.13", 5300},  {"2.6.20", 6600},  {"2.6.27", 8100},  {"2.6.35", 9700},
    {"3.2", 11400},    {"3.10", 13100},   {"3.17", 14300},   {"4.4", 15900},
    {"4.12", 17000},   {"4.19", 17800},   {"5.6", 19000},    {"5.13", 19800},
    {"6.0", 20400},
};

}  // namespace

std::vector<std::string> LinuxVersionTimeline() {
  std::vector<std::string> versions;
  for (const auto& point : kVersionCurve) {
    versions.emplace_back(point.version);
  }
  return versions;
}

size_t LinuxCompileOptionCount(const std::string& version) {
  for (const auto& point : kVersionCurve) {
    if (version == point.version) {
      return point.options;
    }
  }
  // Unknown version: fall back to the newest point.
  return kVersionCurve[std::size(kVersionCurve) - 1].options;
}

double LinuxKindFraction(ParamKind kind) {
  // Table 1, Linux 6.0: 7585 bool, 10034 tristate, 154 string, 94 hex,
  // 3405 int out of 21272 compile-time options.
  switch (kind) {
    case ParamKind::kBool:
      return 7585.0 / 21272.0;
    case ParamKind::kTristate:
      return 10034.0 / 21272.0;
    case ParamKind::kString:
      return 154.0 / 21272.0;
    case ParamKind::kHex:
      return 94.0 / 21272.0;
    case ParamKind::kInt:
      return 3405.0 / 21272.0;
  }
  return 0.0;
}

std::vector<ParamSpec> CuratedLinuxParams() {
  std::vector<ParamSpec> params;
  auto add = [&params](ParamSpec spec) { params.push_back(std::move(spec)); };

  // --- Runtime: networking core -----------------------------------------
  add(ParamSpec::Int("net.core.somaxconn", kRt, "net", 16, 65536, 128, true));
  add(ParamSpec::Int("net.core.netdev_max_backlog", kRt, "net", 8, 65536, 1000, true));
  add(ParamSpec::Int("net.core.rmem_default", kRt, "net", 4096, 8388608, 212992, true));
  add(ParamSpec::Int("net.core.rmem_max", kRt, "net", 4096, 67108864, 212992, true));
  add(ParamSpec::Int("net.core.wmem_default", kRt, "net", 4096, 8388608, 212992, true));
  add(ParamSpec::Int("net.core.wmem_max", kRt, "net", 4096, 67108864, 212992, true));
  add(ParamSpec::Int("net.core.busy_poll", kRt, "net", 0, 200, 0));
  add(ParamSpec::Int("net.core.busy_read", kRt, "net", 0, 200, 0));
  add(ParamSpec::String("net.core.default_qdisc", kRt, "net",
                        {"pfifo_fast", "fq", "fq_codel", "cake"}, 0));
  // --- Runtime: TCP/IP ----------------------------------------------------
  add(ParamSpec::Int("net.ipv4.tcp_max_syn_backlog", kRt, "net", 8, 65536, 512, true));
  add(ParamSpec::Int("net.ipv4.tcp_keepalive_time", kRt, "net", 60, 28800, 7200, true));
  add(ParamSpec::Int("net.ipv4.tcp_keepalive_intvl", kRt, "net", 5, 300, 75));
  add(ParamSpec::Int("net.ipv4.tcp_fin_timeout", kRt, "net", 5, 120, 60));
  add(ParamSpec::Bool("net.ipv4.tcp_tw_reuse", kRt, "net", false));
  add(ParamSpec::Bool("net.ipv4.tcp_timestamps", kRt, "net", true));
  add(ParamSpec::Bool("net.ipv4.tcp_sack", kRt, "net", true));
  add(ParamSpec::Bool("net.ipv4.tcp_window_scaling", kRt, "net", true));
  add(ParamSpec::Bool("net.ipv4.tcp_slow_start_after_idle", kRt, "net", true));
  add(ParamSpec::Int("net.ipv4.tcp_rmem_max", kRt, "net", 4096, 67108864, 6291456, true));
  add(ParamSpec::Int("net.ipv4.tcp_wmem_max", kRt, "net", 4096, 67108864, 4194304, true));
  add(ParamSpec::Int("net.ipv4.tcp_notsent_lowat", kRt, "net", 4096, 4194304, 4194304, true));
  add(ParamSpec::String("net.ipv4.tcp_congestion_control", kRt, "net",
                        {"cubic", "reno", "bbr", "htcp"}, 0));
  add(ParamSpec::Int("net.ipv4.ip_local_port_range_lo", kRt, "net", 1024, 32768, 32768, true));
  // --- Runtime: virtual memory -------------------------------------------
  add(ParamSpec::Int("vm.swappiness", kRt, "vm", 0, 100, 60));
  add(ParamSpec::Int("vm.dirty_ratio", kRt, "vm", 1, 90, 20));
  add(ParamSpec::Int("vm.dirty_background_ratio", kRt, "vm", 1, 50, 10));
  add(ParamSpec::Int("vm.dirty_expire_centisecs", kRt, "vm", 100, 30000, 3000, true));
  add(ParamSpec::Int("vm.dirty_writeback_centisecs", kRt, "vm", 0, 30000, 500, true));
  add(ParamSpec::Int("vm.stat_interval", kRt, "vm", 1, 120, 1));
  add(ParamSpec::Bool("vm.block_dump", kRt, "debug", false));
  add(ParamSpec::Int("vm.overcommit_memory", kRt, "vm", 0, 2, 0));
  add(ParamSpec::Int("vm.min_free_kbytes", kRt, "vm", 1024, 1048576, 67584, true));
  add(ParamSpec::Int("vm.vfs_cache_pressure", kRt, "vm", 1, 400, 100));
  add(ParamSpec::Int("vm.page-cluster", kRt, "vm", 0, 8, 3));
  // --- Runtime: scheduler --------------------------------------------------
  add(ParamSpec::Int("kernel.sched_min_granularity_ns", kRt, "sched", 100000, 100000000, 3000000,
                     true));
  add(ParamSpec::Int("kernel.sched_wakeup_granularity_ns", kRt, "sched", 0, 100000000, 4000000,
                     true));
  add(ParamSpec::Int("kernel.sched_migration_cost_ns", kRt, "sched", 0, 50000000, 500000, true));
  add(ParamSpec::Int("kernel.sched_latency_ns", kRt, "sched", 1000000, 100000000, 24000000,
                     true));
  add(ParamSpec::Bool("kernel.sched_autogroup_enabled", kRt, "sched", true));
  add(ParamSpec::Bool("kernel.numa_balancing", kRt, "sched", true));
  add(ParamSpec::Int("kernel.sched_rt_runtime_us", kRt, "sched", 0, 1000000, 950000, true));
  add(ParamSpec::Bool("kernel.timer_migration", kRt, "sched", true));
  // --- Runtime: logging / debug -------------------------------------------
  add(ParamSpec::Int("kernel.printk", kRt, "debug", 0, 7, 7));
  add(ParamSpec::Int("kernel.printk_delay", kRt, "debug", 0, 10000, 0, true));
  add(ParamSpec::Bool("kernel.nmi_watchdog", kRt, "debug", true));
  add(ParamSpec::Int("kernel.randomize_va_space", kRt, "security", 0, 2, 2));
  add(ParamSpec::Bool("kernel.panic_on_oops", kRt, "debug", false));
  // --- Runtime: filesystems / block -----------------------------------------
  add(ParamSpec::Int("fs.file-max", kRt, "fs", 8192, 26843545, 1624399, true));
  add(ParamSpec::Int("fs.aio-max-nr", kRt, "fs", 65536, 1048576, 65536, true));
  add(ParamSpec::Int("fs.inotify.max_user_watches", kRt, "fs", 8192, 1048576, 65536, true));
  add(ParamSpec::String("block.queue.scheduler", kRt, "block",
                        {"none", "mq-deadline", "bfq", "kyber"}, 1));
  add(ParamSpec::Int("block.queue.read_ahead_kb", kRt, "block", 0, 16384, 128, true));
  add(ParamSpec::Int("block.queue.nr_requests", kRt, "block", 4, 4096, 256, true));
  add(ParamSpec::Int("block.queue.rq_affinity", kRt, "block", 0, 2, 1));
  add(ParamSpec::Int("block.queue.nomerges", kRt, "block", 0, 2, 0));
  add(ParamSpec::Int("block.queue.wbt_lat_usec", kRt, "block", 0, 100000, 75000, true));

  // --- Boot-time (kernel command line) --------------------------------------
  add(ParamSpec::String("mitigations", kBt, "security", {"auto", "off", "auto,nosmt"}, 0));
  add(ParamSpec::String("preempt", kBt, "sched", {"none", "voluntary", "full"}, 1));
  add(ParamSpec::String("transparent_hugepage", kBt, "vm", {"always", "madvise", "never"}, 1));
  add(ParamSpec::Bool("nosmt", kBt, "sched", false));
  add(ParamSpec::Bool("quiet", kBt, "debug", true));
  add(ParamSpec::Int("loglevel", kBt, "debug", 0, 7, 4));
  add(ParamSpec::Bool("nohz_full", kBt, "sched", false));
  add(ParamSpec::Bool("audit", kBt, "security", true));
  add(ParamSpec::Bool("selinux", kBt, "security", true));
  add(ParamSpec::String("intel_pstate", kBt, "power", {"active", "passive", "disable"}, 0));
  add(ParamSpec::String("idle", kBt, "power", {"default", "halt", "poll"}, 0));
  add(ParamSpec::Bool("watchdog", kBt, "debug", true));
  add(ParamSpec::Bool("skew_tick", kBt, "sched", false));
  add(ParamSpec::Int("processor.max_cstate", kBt, "power", 0, 9, 9));
  add(ParamSpec::String("pcie_aspm", kBt, "power", {"default", "off", "performance"}, 0));
  add(ParamSpec::Bool("isolcpus_enable", kBt, "sched", false));

  // --- Compile-time ---------------------------------------------------------
  add(ParamSpec::String("CONFIG_HZ", kCt, "sched", {"100", "250", "300", "1000"}, 1));
  add(ParamSpec::String("CONFIG_PREEMPT_MODEL", kCt, "sched", {"none", "voluntary", "preempt"},
                        1));
  add(ParamSpec::String("CONFIG_SLAB_ALLOCATOR", kCt, "vm", {"SLAB", "SLUB", "SLOB"}, 1));
  add(ParamSpec::Bool("CONFIG_NO_HZ_IDLE", kCt, "sched", true));
  add(ParamSpec::Bool("CONFIG_DEBUG_KERNEL", kCt, "debug", false));
  add(ParamSpec::Bool("CONFIG_KASAN", kCt, "debug", false));
  add(ParamSpec::Bool("CONFIG_LOCKDEP", kCt, "debug", false));
  add(ParamSpec::Bool("CONFIG_FTRACE", kCt, "debug", true));
  add(ParamSpec::Bool("CONFIG_BLK_DEV_IO_TRACE", kCt, "debug", false));
  add(ParamSpec::Bool("CONFIG_SCHED_DEBUG", kCt, "debug", true));
  add(ParamSpec::Bool("CONFIG_RETPOLINE", kCt, "security", true));
  add(ParamSpec::Bool("CONFIG_PAGE_TABLE_ISOLATION", kCt, "security", true));
  add(ParamSpec::Bool("CONFIG_TRANSPARENT_HUGEPAGE", kCt, "vm", true));
  add(ParamSpec::Bool("CONFIG_NUMA", kCt, "vm", true));
  add(ParamSpec::Bool("CONFIG_COMPACTION", kCt, "vm", true));
  add(ParamSpec::Bool("CONFIG_SWAP", kCt, "vm", true));
  add(ParamSpec::Bool("CONFIG_NET_RX_BUSY_POLL", kCt, "net", true));
  add(ParamSpec::Bool("CONFIG_RPS", kCt, "net", true));
  add(ParamSpec::Bool("CONFIG_XPS", kCt, "net", true));
  add(ParamSpec::Int("CONFIG_LOG_BUF_SHIFT", kCt, "debug", 12, 25, 17));
  add(ParamSpec::Int("CONFIG_NR_CPUS", kCt, "kernel", 2, 512, 64, true));
  add(ParamSpec::Bool("CONFIG_MODULES", kCt, "kernel", true));
  add(ParamSpec::Tristate("CONFIG_IKCONFIG", "kernel", 0));
  add(ParamSpec::Bool("CONFIG_MEMCG", kCt, "kernel", true));
  add(ParamSpec::Bool("CONFIG_CGROUPS", kCt, "kernel", true));
  add(ParamSpec::Bool("CONFIG_SMP", kCt, "kernel", true));
  add(ParamSpec::Hex("CONFIG_PHYSICAL_START", "kernel", 0x100000, 0x40000000, 0x1000000));
  add(ParamSpec::Bool("CONFIG_JUMP_LABEL", kCt, "kernel", true));
  return params;
}

std::vector<std::string> DocumentedHighImpactParams() {
  return {
      "net.core.somaxconn",          "net.core.rmem_default",
      "net.ipv4.tcp_keepalive_time", "vm.stat_interval",
      "kernel.printk",               "kernel.printk_delay",
      "vm.block_dump",
  };
}

namespace {

// Word pools for synthetic option names; combinations are deterministic in
// the generator seed, so the same options value yields the same space.
const char* const kSubsystems[] = {"net",  "vm",    "sched",  "block",    "fs",
                                   "debug", "crypto", "power", "security", "drivers"};
const double kSubsystemWeights[] = {0.18, 0.10, 0.05, 0.08, 0.12, 0.08, 0.05, 0.05, 0.04, 0.25};

const char* const kMidWords[] = {"CACHE", "QUEUE",  "BUF",    "TIMER",  "IRQ",   "DMA",
                                 "POOL",  "RING",   "BATCH",  "THRESH", "RETRY", "LIMIT",
                                 "MODE",  "FEATURE", "STAT",  "TRACE",  "COMPAT", "LEGACY",
                                 "OFFLOAD", "POLL"};

std::string UpperCase(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return text;
}

ParamKind PickCompileKind(Rng& rng) {
  double draw = rng.Uniform();
  double acc = 0.0;
  for (ParamKind kind : {ParamKind::kBool, ParamKind::kTristate, ParamKind::kString,
                         ParamKind::kHex, ParamKind::kInt}) {
    acc += LinuxKindFraction(kind);
    if (draw < acc) {
      return kind;
    }
  }
  return ParamKind::kInt;
}

// Adds `count` synthetic compile-time options, including dependency gates.
void AddSyntheticCompile(ConfigSpace* space, size_t count, Rng& rng) {
  // A small population of always-on subsystem gates; ~30% of synthetic
  // options depend on one, reproducing the Kconfig-valid-but-fragile
  // structure the search has to navigate.
  std::vector<std::string> gates;
  size_t gate_count = std::max<size_t>(4, count / 250);
  for (size_t g = 0; g < gate_count; ++g) {
    std::string subsystem = kSubsystems[rng.WeightedIndex(
        std::vector<double>(std::begin(kSubsystemWeights), std::end(kSubsystemWeights)))];
    std::string name = "CONFIG_" + UpperCase(subsystem) + "_GATE_" + std::to_string(g);
    if (space->Find(name).has_value()) {
      continue;
    }
    ParamSpec gate = ParamSpec::Bool(name, kCt, subsystem, true);
    gate.help = "Subsystem gate";
    space->Add(std::move(gate));
    gates.push_back(name);
  }
  std::vector<double> subsystem_weights(std::begin(kSubsystemWeights),
                                        std::end(kSubsystemWeights));
  for (size_t i = 0; i < count; ++i) {
    size_t subsystem_index = rng.WeightedIndex(subsystem_weights);
    const char* subsystem = kSubsystems[subsystem_index];
    const char* mid = kMidWords[rng.UniformInt(0, std::size(kMidWords) - 1)];
    std::string name =
        "CONFIG_" + UpperCase(subsystem) + "_" + mid + "_" + std::to_string(i);
    if (space->Find(name).has_value()) {
      continue;
    }
    ParamKind kind = PickCompileKind(rng);
    ParamSpec spec;
    switch (kind) {
      case ParamKind::kBool:
        spec = ParamSpec::Bool(name, kCt, subsystem, rng.Bernoulli(0.55));
        break;
      case ParamKind::kTristate:
        spec = ParamSpec::Tristate(name, subsystem,
                                   rng.Bernoulli(0.4) ? 2 : (rng.Bernoulli(0.5) ? 1 : 0));
        break;
      case ParamKind::kString: {
        std::vector<std::string> choices;
        int n = static_cast<int>(rng.UniformInt(2, 4));
        for (int c = 0; c < n; ++c) {
          choices.push_back("mode" + std::to_string(c));
        }
        spec = ParamSpec::String(name, kCt, subsystem, std::move(choices), 0);
        break;
      }
      case ParamKind::kHex: {
        int64_t hi = int64_t{1} << rng.UniformInt(12, 30);
        spec = ParamSpec::Hex(name, subsystem, 0, hi, hi / 4);
        break;
      }
      case ParamKind::kInt: {
        int64_t hi = int64_t{1} << rng.UniformInt(4, 24);
        int64_t def = rng.UniformInt(1, hi);
        spec = ParamSpec::Int(name, kCt, subsystem, 0, hi, def, hi > 10000);
        break;
      }
    }
    if (!gates.empty() && rng.Bernoulli(0.3)) {
      spec.depends_on.push_back(gates[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(gates.size()) - 1))]);
    }
    space->Add(std::move(spec));
  }
}

void AddSyntheticBoot(ConfigSpace* space, size_t count, Rng& rng) {
  for (size_t i = 0; i < count; ++i) {
    const char* subsystem = kSubsystems[rng.WeightedIndex(
        std::vector<double>(std::begin(kSubsystemWeights), std::end(kSubsystemWeights)))];
    std::string name = std::string(subsystem) + ".bootopt_" + std::to_string(i);
    if (space->Find(name).has_value()) {
      continue;
    }
    if (rng.Bernoulli(0.6)) {
      space->Add(ParamSpec::Bool(name, kBt, subsystem, rng.Bernoulli(0.5)));
    } else {
      int64_t hi = int64_t{1} << rng.UniformInt(3, 16);
      space->Add(ParamSpec::Int(name, kBt, subsystem, 0, hi, rng.UniformInt(0, hi), hi > 1024));
    }
  }
}

void AddSyntheticRuntime(ConfigSpace* space, size_t count, Rng& rng) {
  for (size_t i = 0; i < count; ++i) {
    const char* subsystem = kSubsystems[rng.WeightedIndex(
        std::vector<double>(std::begin(kSubsystemWeights), std::end(kSubsystemWeights)))];
    std::string name = std::string(subsystem) + ".synth_" + std::to_string(i);
    if (space->Find(name).has_value()) {
      continue;
    }
    double draw = rng.Uniform();
    if (draw < 0.45) {
      space->Add(ParamSpec::Bool(name, kRt, subsystem, rng.Bernoulli(0.5)));
    } else {
      int64_t hi = int64_t{1} << rng.UniformInt(4, 26);
      int64_t def = rng.UniformInt(1, hi);
      space->Add(ParamSpec::Int(name, kRt, subsystem, 0, hi, def, hi > 10000));
    }
  }
}

}  // namespace

ConfigSpace BuildLinuxSpace(const LinuxSpaceOptions& options) {
  ConfigSpace space;
  Rng rng(HashCombine(options.seed, StableHash(options.version)));

  for (ParamSpec& spec : CuratedLinuxParams()) {
    bool keep = spec.phase == kCt || (spec.phase == kBt && options.include_boot) ||
                (spec.phase == kRt && options.include_runtime);
    if (keep) {
      space.Add(std::move(spec));
    }
  }

  size_t full_compile = LinuxCompileOptionCount(options.version);
  // Boot/runtime populations scale with the compile population; calibrated
  // so v6.0 lands on Table 1 (231 boot, 13328 runtime options).
  size_t full_boot = static_cast<size_t>(231.0 * static_cast<double>(full_compile) / 20400.0);
  size_t full_runtime =
      static_cast<size_t>(13328.0 * static_cast<double>(full_compile) / 20400.0);

  auto scaled = [&options](size_t full, size_t curated) {
    double want = static_cast<double>(full) * options.scale;
    double synthetic = want - static_cast<double>(curated);
    return synthetic > 0.0 ? static_cast<size_t>(synthetic) : size_t{0};
  };

  AddSyntheticCompile(&space, scaled(full_compile, 29), rng);
  if (options.include_boot) {
    AddSyntheticBoot(&space, scaled(full_boot, 16), rng);
  }
  if (options.include_runtime) {
    AddSyntheticRuntime(&space, scaled(full_runtime, 54), rng);
  }
  return space;
}

ConfigSpace BuildLinuxSearchSpace(uint64_t seed) {
  LinuxSpaceOptions options;
  options.version = "4.19";
  options.seed = seed;
  // ~250 parameters total: the full curated core plus a synthetic tail that
  // keeps the space hostile (irrelevant knobs, crash-prone corners) without
  // blowing up model input width.
  options.scale = 0.0;  // No bulk population; we add the tail explicitly.
  ConfigSpace space = BuildLinuxSpace(options);
  Rng rng(HashCombine(seed, StableHash("search-tail")));
  AddSyntheticRuntime(&space, 110, rng);
  AddSyntheticBoot(&space, 20, rng);
  // Compile tail mirrors a real kernel config's shape: mostly drivers and
  // other subsystems the target workload never touches — the mass a
  // Cozart-style debloater exists to remove.
  AddSyntheticCompile(&space, 60, rng);
  return space;
}

}  // namespace wayfinder
