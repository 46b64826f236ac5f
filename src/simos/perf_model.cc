#include "src/simos/perf_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>

namespace wayfinder {

namespace {

// Hand-modeled response curves for the curated parameters. `magnitude` is a
// log-space amplitude before subsystem weighting; positive magnitudes with
// kLinearUp mean "raising the encoded value helps".
struct Curated {
  int shape;        // Matches PerfModel::Shape's order.
  double peak;      // Peak / threshold position in encoded [0, 1].
  double magnitude;
};

constexpr int kLinearUp = 0;
constexpr int kLinearDown = 1;
constexpr int kPeak = 2;
constexpr int kValley = 3;
constexpr int kStepHigh = 4;

const std::unordered_map<std::string, Curated>& CuratedTable() {
  static const std::unordered_map<std::string, Curated> table = {
      // --- Linux runtime: networking --------------------------------------
      {"net.core.somaxconn", {kPeak, 0.85, 0.095}},
      {"net.core.netdev_max_backlog", {kPeak, 0.80, 0.045}},
      {"net.core.rmem_default", {kPeak, 0.75, 0.065}},
      {"net.core.rmem_max", {kPeak, 0.80, 0.020}},
      {"net.core.wmem_default", {kPeak, 0.70, 0.025}},
      {"net.core.wmem_max", {kPeak, 0.75, 0.015}},
      {"net.core.busy_poll", {kPeak, 0.50, 0.040}},
      {"net.core.busy_read", {kPeak, 0.50, 0.015}},
      {"net.core.default_qdisc", {kPeak, 0.33, 0.035}},
      {"net.ipv4.tcp_max_syn_backlog", {kPeak, 0.85, 0.050}},
      {"net.ipv4.tcp_keepalive_time", {kPeak, 0.25, 0.050}},
      {"net.ipv4.tcp_keepalive_intvl", {kPeak, 0.40, 0.008}},
      {"net.ipv4.tcp_fin_timeout", {kPeak, 0.30, 0.015}},
      {"net.ipv4.tcp_tw_reuse", {kLinearUp, 0.5, 0.040}},
      {"net.ipv4.tcp_timestamps", {kLinearUp, 0.5, 0.008}},
      {"net.ipv4.tcp_sack", {kLinearUp, 0.5, 0.010}},
      {"net.ipv4.tcp_window_scaling", {kLinearUp, 0.5, 0.030}},
      {"net.ipv4.tcp_slow_start_after_idle", {kLinearDown, 0.5, 0.015}},
      {"net.ipv4.tcp_rmem_max", {kPeak, 0.80, 0.030}},
      {"net.ipv4.tcp_wmem_max", {kPeak, 0.75, 0.020}},
      {"net.ipv4.tcp_notsent_lowat", {kPeak, 0.45, 0.020}},
      {"net.ipv4.tcp_congestion_control", {kPeak, 0.67, 0.045}},
      {"net.ipv4.ip_local_port_range_lo", {kPeak, 0.30, 0.005}},
      // --- Linux runtime: virtual memory ----------------------------------
      {"vm.swappiness", {kPeak, 0.20, 0.012}},
      {"vm.dirty_ratio", {kPeak, 0.55, 0.020}},
      {"vm.dirty_background_ratio", {kPeak, 0.50, 0.015}},
      {"vm.dirty_expire_centisecs", {kPeak, 0.50, 0.012}},
      {"vm.dirty_writeback_centisecs", {kPeak, 0.50, 0.012}},
      {"vm.stat_interval", {kLinearUp, 0.5, 0.012}},
      {"vm.block_dump", {kLinearDown, 0.5, 0.080}},
      {"vm.overcommit_memory", {kPeak, 0.0, 0.008}},
      {"vm.min_free_kbytes", {kValley, 1.0, 0.030}},
      {"vm.vfs_cache_pressure", {kPeak, 0.40, 0.012}},
      {"vm.page-cluster", {kPeak, 0.40, 0.008}},
      // --- Linux runtime: scheduler ----------------------------------------
      {"kernel.sched_min_granularity_ns", {kPeak, 0.60, 0.020}},
      {"kernel.sched_wakeup_granularity_ns", {kPeak, 0.55, 0.018}},
      {"kernel.sched_migration_cost_ns", {kPeak, 0.70, 0.020}},
      {"kernel.sched_latency_ns", {kPeak, 0.50, 0.015}},
      {"kernel.sched_autogroup_enabled", {kLinearDown, 0.5, 0.010}},
      {"kernel.numa_balancing", {kLinearDown, 0.5, 0.015}},
      {"kernel.sched_rt_runtime_us", {kPeak, 0.95, 0.005}},
      {"kernel.timer_migration", {kLinearDown, 0.5, 0.005}},
      // --- Linux runtime: debug / security ----------------------------------
      {"kernel.printk", {kStepHigh, 0.80, -0.100}},
      {"kernel.printk_delay", {kLinearDown, 0.5, 0.120}},
      {"kernel.nmi_watchdog", {kLinearDown, 0.5, 0.008}},
      {"kernel.randomize_va_space", {kLinearDown, 0.5, 0.006}},
      // --- Linux runtime: fs / block ----------------------------------------
      {"fs.file-max", {kPeak, 0.90, 0.015}},
      {"fs.aio-max-nr", {kPeak, 0.70, 0.008}},
      {"fs.inotify.max_user_watches", {kPeak, 0.50, 0.003}},
      {"block.queue.scheduler", {kPeak, 0.00, 0.020}},
      {"block.queue.read_ahead_kb", {kPeak, 0.65, 0.020}},
      {"block.queue.nr_requests", {kPeak, 0.70, 0.015}},
      {"block.queue.rq_affinity", {kPeak, 0.50, 0.008}},
      {"block.queue.nomerges", {kLinearDown, 0.5, 0.010}},
      {"block.queue.wbt_lat_usec", {kPeak, 0.45, 0.012}},
      // --- Linux boot-time ----------------------------------------------------
      {"mitigations", {kPeak, 0.50, 0.050}},
      {"preempt", {kPeak, 0.00, 0.025}},
      {"transparent_hugepage", {kPeak, 0.00, 0.020}},
      {"nosmt", {kLinearDown, 0.5, 0.010}},
      {"quiet", {kLinearUp, 0.5, 0.005}},
      {"loglevel", {kStepHigh, 0.80, -0.040}},
      {"nohz_full", {kPeak, 1.00, 0.010}},
      {"audit", {kLinearDown, 0.5, 0.015}},
      {"selinux", {kLinearDown, 0.5, 0.012}},
      {"intel_pstate", {kPeak, 0.50, 0.010}},
      {"idle", {kPeak, 1.00, 0.030}},
      {"watchdog", {kLinearDown, 0.5, 0.008}},
      {"skew_tick", {kLinearUp, 0.5, 0.004}},
      {"processor.max_cstate", {kPeak, 0.00, 0.025}},
      {"pcie_aspm", {kPeak, 1.00, 0.012}},
      {"isolcpus_enable", {kLinearUp, 0.5, 0.006}},
      // --- Linux compile-time ---------------------------------------------------
      {"CONFIG_HZ", {kPeak, 1.00, 0.020}},
      {"CONFIG_PREEMPT_MODEL", {kPeak, 0.00, 0.015}},
      {"CONFIG_SLAB_ALLOCATOR", {kPeak, 0.50, 0.020}},
      {"CONFIG_NO_HZ_IDLE", {kLinearUp, 0.5, 0.008}},
      {"CONFIG_DEBUG_KERNEL", {kLinearDown, 0.5, 0.060}},
      {"CONFIG_KASAN", {kLinearDown, 0.5, 0.350}},
      {"CONFIG_LOCKDEP", {kLinearDown, 0.5, 0.120}},
      {"CONFIG_FTRACE", {kLinearDown, 0.5, 0.010}},
      {"CONFIG_BLK_DEV_IO_TRACE", {kLinearDown, 0.5, 0.030}},
      {"CONFIG_SCHED_DEBUG", {kLinearDown, 0.5, 0.008}},
      {"CONFIG_RETPOLINE", {kLinearDown, 0.5, 0.025}},
      {"CONFIG_PAGE_TABLE_ISOLATION", {kLinearDown, 0.5, 0.040}},
      {"CONFIG_TRANSPARENT_HUGEPAGE", {kLinearUp, 0.5, 0.010}},
      {"CONFIG_NUMA", {kPeak, 1.00, 0.004}},
      {"CONFIG_COMPACTION", {kLinearUp, 0.5, 0.004}},
      {"CONFIG_SWAP", {kLinearUp, 0.5, 0.003}},
      {"CONFIG_NET_RX_BUSY_POLL", {kLinearUp, 0.5, 0.012}},
      {"CONFIG_RPS", {kLinearUp, 0.5, 0.015}},
      {"CONFIG_XPS", {kLinearUp, 0.5, 0.012}},
      {"CONFIG_JUMP_LABEL", {kLinearUp, 0.5, 0.008}},
      // --- Unikraft + Nginx (Figure 9 space) -----------------------------------
      {"nginx.worker_processes", {kPeak, 0.33, 0.100}},
      {"nginx.worker_connections", {kPeak, 0.75, 0.150}},
      {"nginx.keepalive_timeout", {kPeak, 0.50, 0.080}},
      {"nginx.keepalive_requests", {kPeak, 0.75, 0.200}},
      {"nginx.sendfile", {kLinearUp, 0.5, 0.100}},
      {"nginx.tcp_nopush", {kLinearUp, 0.5, 0.050}},
      {"nginx.tcp_nodelay", {kLinearUp, 0.5, 0.080}},
      {"nginx.access_log", {kLinearDown, 0.5, 0.180}},
      {"nginx.open_file_cache", {kLinearUp, 0.5, 0.120}},
      {"nginx.listen_backlog", {kPeak, 0.70, 0.080}},
      {"CONFIG_UKALLOC", {kPeak, 0.33, 0.150}},
      {"CONFIG_UKSCHED", {kPeak, 0.00, 0.080}},
      {"CONFIG_UK_HEAP_MB", {kPeak, 0.60, 0.100}},
      {"CONFIG_UK_STACK_KB", {kPeak, 0.40, 0.040}},
      {"CONFIG_LWIP_TCP_SND_BUF", {kPeak, 0.80, 0.250}},
      {"CONFIG_LWIP_TCP_WND", {kPeak, 0.80, 0.250}},
      {"CONFIG_LWIP_TCP_MSS", {kPeak, 1.00, 0.120}},
      {"CONFIG_LWIP_NUM_PBUF", {kPeak, 0.80, 0.150}},
      {"CONFIG_LWIP_NUM_TCP_PCB", {kPeak, 0.70, 0.100}},
      {"CONFIG_LWIP_POOLS", {kLinearUp, 0.5, 0.080}},
      {"CONFIG_LWIP_NOTHREADS", {kLinearUp, 0.5, 0.100}},
      {"CONFIG_UKNETDEV_RX_DESCS", {kPeak, 0.75, 0.120}},
      {"CONFIG_UKNETDEV_TX_DESCS", {kPeak, 0.75, 0.100}},
      {"CONFIG_UK_HZ", {kPeak, 0.00, 0.030}},
      {"CONFIG_VFSCORE_ROOTFS", {kPeak, 0.00, 0.060}},
      {"CONFIG_UK_PRINT_KERN_MSG", {kLinearDown, 0.5, 0.100}},
      {"CONFIG_UK_DEBUG_PRINT", {kLinearDown, 0.5, 0.300}},
      {"CONFIG_UK_OPTIMIZE", {kPeak, 0.67, 0.120}},
      {"CONFIG_UK_LTO", {kLinearUp, 0.5, 0.060}},
      {"CONFIG_UK_MEMPOOL_PREALLOC", {kLinearUp, 0.5, 0.080}},
      {"CONFIG_UK_TRACEPOINTS", {kLinearDown, 0.5, 0.120}},
      {"CONFIG_VIRTIO_PCI_MODERN", {kLinearUp, 0.5, 0.040}},
  };
  return table;
}

// How strongly unimodal optima are pulled toward the default configuration.
// SQLite's default is near-optimal for its workload (Table 2: 1.00x).
double DefaultAffinity(AppId app) {
  switch (app) {
    case AppId::kNginx:
      return 0.12;
    case AppId::kRedis:
      return 0.30;
    case AppId::kSqlite:
      return 0.88;
    case AppId::kNpb:
      return 0.50;
  }
  return 0.0;
}

// Calibration targets: max reachable log-improvement (positive headroom
// budget) and max possible log-downside, per app and substrate. Derived
// from Table 2, Figure 2, Figure 6, and Figure 9.
struct Targets {
  double pos;
  double neg;
  double baseline;
  double bloat_drag;
};

Targets TargetsFor(Substrate substrate, AppId app) {
  if (substrate == Substrate::kUnikraftKvm) {
    // Only Nginx is evaluated on Unikraft; others reuse its shape scaled.
    Targets t{std::log(4.0), 1.2, 12000.0, 0.02};
    if (app != AppId::kNginx) {
      t.baseline = GetApp(app).baseline;
    }
    return t;
  }
  // Full-system TCG emulation runs the same configurations at roughly a
  // twelfth of native KVM throughput ("although emulation affects
  // performance, it does not impact memory consumption", §4.4). The
  // configuration-sensitivity structure is unchanged — which is exactly
  // what makes cross-platform linear transfer work (§3.5).
  constexpr double kQemuSlowdown = 12.0;
  if (substrate == Substrate::kLinuxRiscvQemu) {
    Targets t = TargetsFor(Substrate::kLinuxKvm, app);
    t.baseline /= kQemuSlowdown;
    return t;
  }
  switch (app) {
    case AppId::kNginx:
      return {std::log(1.42), 0.60, GetApp(app).baseline, 0.12};
    case AppId::kRedis:
      return {std::log(1.26), 0.55, GetApp(app).baseline, 0.06};
    case AppId::kSqlite:
      return {std::log(1.012), 1.20, GetApp(app).baseline, 0.04};
    case AppId::kNpb:
      return {std::log(1.025), 0.35, GetApp(app).baseline, 0.02};
  }
  return {0.1, 0.5, 1.0, 0.0};
}

}  // namespace

double PerfModel::ShapeValue(const ParamEffect& effect, double x) {
  switch (effect.shape) {
    case Shape::kLinearUp:
      return x;
    case Shape::kLinearDown:
      return -x;
    case Shape::kPeak: {
      double d = (x - effect.peak) / 0.35;
      return std::exp(-d * d);
    }
    case Shape::kValley: {
      double d = (x - effect.peak) / 0.35;
      return -std::exp(-d * d);
    }
    case Shape::kStepHigh:
      return x >= effect.peak ? 1.0 : 0.0;
  }
  return 0.0;
}

double PerfModel::RawResponse(const ParamEffect& effect, double x) {
  return effect.magnitude * (ShapeValue(effect, x) - ShapeValue(effect, effect.default_code));
}

double PerfModel::Response(AppId app, size_t param, double x) const {
  double raw = RawResponse(effects_[static_cast<size_t>(app)][param], x);
  return raw >= 0.0 ? raw * pos_scale_[static_cast<size_t>(app)]
                    : raw * neg_scale_[static_cast<size_t>(app)];
}

PerfModel::PerfModel(const ConfigSpace* space, Substrate substrate, uint64_t seed)
    : PerfModel(space, substrate, seed,
                {AppId::kNginx, AppId::kRedis, AppId::kSqlite, AppId::kNpb}) {}

PerfModel::PerfModel(const ConfigSpace* space, Substrate substrate, uint64_t seed,
                     AppId only_app)
    : PerfModel(space, substrate, seed, {only_app}) {}

PerfModel::PerfModel(const ConfigSpace* space, Substrate substrate, uint64_t seed,
                     std::initializer_list<AppId> apps)
    : space_(space), substrate_(substrate) {
  // Bloat mass: each enabled compile-time bool/tristate contributes hashed
  // cache/TLB pressure; the default configuration's mass anchors zero.
  compile_mass_.assign(space_->Size(), 0.0);
  double default_mass = 0.0;
  double total_mass = 0.0;
  for (size_t i = 0; i < space_->Size(); ++i) {
    const ParamSpec& spec = space_->Param(i);
    if (spec.phase == ParamPhase::kCompileTime &&
        (spec.kind == ParamKind::kBool || spec.kind == ParamKind::kTristate)) {
      uint64_t h = HashCombine(seed, StableHash(spec.name));
      compile_mass_[i] = 0.2 + 0.8 * (static_cast<double>(h % 10000) / 10000.0);
      total_mass += compile_mass_[i];
      double enabled = static_cast<double>(spec.default_value) /
                       (spec.kind == ParamKind::kTristate ? 2.0 : 1.0);
      default_mass += compile_mass_[i] * enabled;
    }
  }
  if (total_mass > 0.0) {
    for (double& m : compile_mass_) {
      m /= total_mass;
    }
    default_bloat_ = default_mass / total_mass;
  }

  for (AppId app : apps) {
    Targets targets = TargetsFor(substrate_, app);
    baseline_[static_cast<size_t>(app)] = targets.baseline;
    bloat_drag_[static_cast<size_t>(app)] = targets.bloat_drag;
    BuildEffects(app, seed);
    RescaleEffects(app);
    BuildInteractions(app, seed);
    built_[static_cast<size_t>(app)] = true;
  }
}

size_t PerfModel::Index(AppId app) const {
  const size_t index = static_cast<size_t>(app);
  if (index >= built_.size() || !built_[index]) {
    std::fprintf(stderr, "PerfModel: no tables for app %zu (built for one app only)\n", index);
    std::abort();
  }
  return index;
}

void PerfModel::BuildEffects(AppId app, uint64_t seed) {
  const AppProfile& profile = GetApp(app);
  double affinity = DefaultAffinity(app);
  auto& effects = effects_[static_cast<size_t>(app)];
  effects.assign(space_->Size(), ParamEffect{});

  for (size_t i = 0; i < space_->Size(); ++i) {
    const ParamSpec& spec = space_->Param(i);
    double weight = profile.weights.For(spec.subsystem);
    double default_code = space_->EncodeParam(i, spec.default_value);
    ParamEffect effect;
    effect.default_code = default_code;

    auto curated = CuratedTable().find(spec.name);
    if (curated != CuratedTable().end()) {
      effect.shape = static_cast<Shape>(curated->second.shape);
      effect.peak = curated->second.peak;
      effect.magnitude = curated->second.magnitude * std::max(weight, 0.01);
      if (effect.shape == Shape::kPeak) {
        // Pull the optimum toward the default for default-happy apps.
        effect.peak = effect.peak * (1.0 - affinity) + default_code * affinity;
      }
    } else {
      // Synthetic parameter: a shared hashed base effect scaled by the
      // app's subsystem weight, plus a small app-specific residual.
      uint64_t base_hash = HashCombine(seed, StableHash(spec.name));
      uint64_t s1 = base_hash;
      double u_active = static_cast<double>(SplitMix64(s1) % 100000) / 100000.0;
      double base_m = 0.0;
      if (u_active >= 0.55) {
        double u_mag = static_cast<double>(SplitMix64(s1) % 100000) / 100000.0;
        base_m = 0.0008 - 0.003 * std::log(std::max(1e-6, 1.0 - u_mag));
        base_m = std::min(base_m, 0.015);
        if (SplitMix64(s1) % 10 < 6) {
          base_m = -base_m;
        }
      }
      int shape_draw = static_cast<int>(SplitMix64(s1) % 3);
      effect.shape = shape_draw == 0 ? Shape::kLinearUp
                                     : (shape_draw == 1 ? Shape::kLinearDown : Shape::kPeak);
      effect.peak = static_cast<double>(SplitMix64(s1) % 1000) / 1000.0;

      uint64_t app_hash = HashCombine(base_hash, static_cast<uint64_t>(app) + 17);
      uint64_t s2 = app_hash;
      double u_eta = static_cast<double>(SplitMix64(s2) % 100000) / 100000.0;
      double eta = -0.0006 * std::log(std::max(1e-6, 1.0 - u_eta));
      eta = std::min(eta, 0.004);
      if (SplitMix64(s2) % 2 == 0) {
        eta = -eta;
      }
      effect.magnitude = base_m * weight + eta;
    }
    effects[i] = effect;
  }
}

void PerfModel::RescaleEffects(AppId app) {
  Targets targets = TargetsFor(substrate_, app);
  auto& effects = effects_[static_cast<size_t>(app)];
  // The calibration targets describe what the paper's experiments can reach.
  // On Linux those experiments favor runtime parameters (§4.1), so the
  // headroom budget is anchored on the runtime subset; on Unikraft the whole
  // (compile-time-heavy) space is in play.
  bool runtime_anchor = substrate_ != Substrate::kUnikraftKvm;
  double sum_pos = 0.0;
  double sum_neg = 0.0;
  for (size_t i = 0; i < effects.size(); ++i) {
    if (runtime_anchor && space_->Param(i).phase != ParamPhase::kRuntime) {
      continue;
    }
    double best = 0.0;
    double worst = 0.0;
    // Scan the encoded domain on a grid; responses are smooth enough.
    for (int g = 0; g <= 20; ++g) {
      double r = RawResponse(effects[i], static_cast<double>(g) / 20.0);
      best = std::max(best, r);
      worst = std::min(worst, r);
    }
    sum_pos += best;
    sum_neg += -worst;
  }
  pos_scale_[static_cast<size_t>(app)] =
      sum_pos > 1e-9 ? std::clamp(targets.pos / sum_pos, 0.05, 20.0) : 1.0;
  neg_scale_[static_cast<size_t>(app)] =
      sum_neg > 1e-9 ? std::clamp(targets.neg / sum_neg, 0.05, 20.0) : 1.0;
}

void PerfModel::BuildInteractions(AppId app, uint64_t seed) {
  auto& effects = effects_[static_cast<size_t>(app)];
  auto& interactions = interactions_[static_cast<size_t>(app)];
  interactions.clear();
  // Pair up the highest-magnitude parameters; interactions are a fraction of
  // the smaller main effect, so they perturb rather than dominate.
  std::vector<size_t> order(effects.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::abs(effects[a].magnitude) > std::abs(effects[b].magnitude);
  });
  size_t top = std::min<size_t>(order.size(), 12);
  uint64_t state = HashCombine(seed, static_cast<uint64_t>(app) + 101);
  for (size_t k = 0; k + 1 < top; k += 2) {
    Interaction inter;
    inter.a = order[k];
    inter.b = order[k + 1];
    double strength = 0.25 * std::min(std::abs(effects[inter.a].magnitude),
                                      std::abs(effects[inter.b].magnitude));
    inter.coefficient = (SplitMix64(state) % 2 == 0 ? 1.0 : -1.0) * strength *
                        pos_scale_[static_cast<size_t>(app)];
    interactions.push_back(inter);
  }
}

double PerfModel::Goodness(AppId app, const Configuration& config) const {
  const size_t index = Index(app);
  const auto& effects = effects_[index];
  double goodness = 0.0;
  for (size_t i = 0; i < effects.size(); ++i) {
    goodness += Response(app, i, space_->EncodeParam(i, config.Raw(i)));
  }
  for (const Interaction& inter : interactions_[index]) {
    double da = space_->EncodeParam(inter.a, config.Raw(inter.a)) - effects[inter.a].default_code;
    double db = space_->EncodeParam(inter.b, config.Raw(inter.b)) - effects[inter.b].default_code;
    goodness += inter.coefficient * da * db;
  }
  // Kernel-bloat drag relative to the default compile configuration.
  double bloat = 0.0;
  for (size_t i = 0; i < compile_mass_.size(); ++i) {
    if (compile_mass_[i] > 0.0) {
      const ParamSpec& spec = space_->Param(i);
      double enabled = static_cast<double>(config.Raw(i)) /
                       (spec.kind == ParamKind::kTristate ? 2.0 : 1.0);
      bloat += compile_mass_[i] * enabled;
    }
  }
  goodness += bloat_drag_[index] * (default_bloat_ - bloat);
  return goodness;
}

double PerfModel::MeanMetric(AppId app, const Configuration& config) const {
  const AppProfile& profile = GetApp(app);
  double goodness = Goodness(app, config);
  double baseline = baseline_[Index(app)];
  return profile.maximize ? baseline * std::exp(goodness) : baseline * std::exp(-goodness);
}

double PerfModel::SampleMetric(AppId app, const Configuration& config, Rng& run_rng) const {
  const AppProfile& profile = GetApp(app);
  double mean = MeanMetric(app, config);
  double noisy = mean * std::exp(run_rng.Normal(0.0, profile.noise_cv));
  return noisy;
}

double PerfModel::BaselineMetric(AppId app) const {
  return baseline_[Index(app)];
}

std::vector<double> PerfModel::TrueImportance(AppId app) const {
  const auto& effects = effects_[Index(app)];
  std::vector<double> importance(effects.size(), 0.0);
  for (size_t i = 0; i < effects.size(); ++i) {
    double max_abs = 0.0;
    for (int g = 0; g <= 20; ++g) {
      max_abs = std::max(max_abs, std::abs(Response(app, i, static_cast<double>(g) / 20.0)));
    }
    importance[i] = max_abs;
  }
  return importance;
}

double PerfModel::MaxHeadroom(AppId app) const {
  const auto& effects = effects_[Index(app)];
  double sum = 0.0;
  for (size_t i = 0; i < effects.size(); ++i) {
    double best = 0.0;
    for (int g = 0; g <= 20; ++g) {
      best = std::max(best, Response(app, i, static_cast<double>(g) / 20.0));
    }
    sum += best;
  }
  return sum;
}

}  // namespace wayfinder
