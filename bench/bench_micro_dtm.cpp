// Micro-benchmarks of the DeepTune Model's per-iteration primitives — the
// constants behind Figure 8's "update < 1 s" claim — emitting one JSON
// object per line so tools/run_benches.sh and tools/bench_compare.py can
// track them PR-over-PR. Every rate record gates.
//
//   * dtm_update_*: one full Update() — minibatch gather from the replay
//     buffer, forward/backward, losses, Chamfer, Adam — on the portable and
//     avx2 kernel backends. dtm_update_<D>d_<N>s trains on N uniform random
//     feature rows; dtm_update_linux298_100s on what the paper's loop trains
//     on: 100 nginx configurations of the Linux job space, sampled as a
//     session samples them, encoded (298 features, ~30% of them 0) and
//     labelled by the simulator, warmed until at least 40 of dense-1's 64
//     units are dead per minibatch (the record's `dead_units`), as they are
//     late in a run;
//   * dtm_add_sample: replay-buffer append;
//   * propose_pool128: one full DeepTuneSearcher::Propose over the Linux
//     space — pool assembly (line search + mutation + random + encode) plus
//     the batched DTM ranking pass, against a 48-trial history;
//   * propose_score_pool128/hist128: pool scoring alone — the Eq. 2
//     dissimilarity of 128 encoded candidates against a full 128-trial
//     history ring, through the searchers' shared PoolDissimilarity;
//   * propose_assemble_pool128/elites4: pool assembly alone — line search,
//     elite mutation, random sampling, constraints and encoding of 128
//     candidates from 4 elites over the Linux space, on warm buffers.
//
// A dtm_update_* model makes under a thousand Adam steps per instance (32
// per Update), far short of the ~6,500 after which dead units' Adam moments
// used to go subnormal and slow every step ~9x (docs/perf.md, "The
// subnormal cliff"). These anchors therefore never reach that cliff; the
// guard against it is KernelBackend.AdamFlushKeepsMomentsNormal.
//
// The kernel backends are bit-identical by construction (src/nn/kernels.h),
// so every variant of a bench computes the same numbers — only the speed
// differs. A summary record reports the avx2 update speedup; on pre-AVX2
// hardware the avx2 variant falls back to portable and the speedup is ~1.
// Candidate-pool PredictRows is measured by bench_micro_matmul
// (predict_batch_*).
//
// Usage: bench_micro_dtm [--dim D] [--samples N]
//   WF_FAST=1 shortens the measurement window (smoke mode, the
//   run_benches.sh default).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/configspace/linux_space.h"
#include "src/core/deeptune.h"
#include "src/core/dtm.h"
#include "src/core/proposal.h"
#include "src/core/scoring.h"
#include "src/nn/kernels.h"
#include "src/platform/job_file.h"
#include "src/platform/trial.h"
#include "src/simos/testbench.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"

namespace wayfinder {
namespace {

std::vector<double> RandomFeatures(Rng& rng, size_t dim) {
  std::vector<double> x(dim);
  for (double& v : x) {
    v = rng.Uniform();
  }
  return x;
}

void SeedReplayBuffer(DeepTuneModel& model, size_t dim, size_t samples) {
  Rng rng(1);
  for (size_t i = 0; i < samples; ++i) {
    bool crashed = rng.Bernoulli(0.3);
    model.AddSample(RandomFeatures(rng, dim), crashed, {rng.Normal(100.0, 10.0)});
  }
}

double BenchUpdate(size_t dim, size_t samples, KernelBackend backend) {
  // Best over several model instances, like bench_micro_matmul's
  // BenchPredict: the scalar (portable) Update walks the same pool-sized
  // workspaces and a single instance's throughput swings ~15% with the heap
  // addresses it happens to get. One placement was enough until the obs
  // registry's static-init instrument allocations moved the base heap and
  // A/B-identical portable Update code read 0.85x between binaries (the SIMD
  // backends, less cache-set-bound, stayed flat) — so Update gets the
  // placement sweep too.
  double best = 0.0;
  std::vector<std::vector<double>> pad;
  for (size_t instance = 0; instance < 6; ++instance) {
    DtmOptions options;
    options.kernels = backend;
    auto model = std::make_unique<DeepTuneModel>(dim, options);
    SeedReplayBuffer(*model, dim, samples);
    best = std::max(best, OpsPerSec(MicroWindowSeconds(), 1, [&] { model->Update(); }));
    pad.emplace_back(769 + 331 * instance + 97 * instance * instance, 0.0);
  }
  return best;
}

// 100 nginx configurations of the Linux job space (the e2ebench dt-serial
// job's space), drawn with the session's sampling bias, encoded row by row,
// with the simulator's crash flag and metric.
struct LinuxReplay {
  Matrix features;
  std::vector<bool> crashed;
  std::vector<double> metric;
};

LinuxReplay BuildLinuxReplay(size_t samples) {
  JobParseResult parsed = ParseJobText(
      "name: micro-linux298\nos: linux\napplication: nginx\nmetric: performance\n"
      "budget:\n  iterations: 100\nsearch:\n  algorithm: deeptune\n  seed: 7\n");
  ConfigSpace space = BuildJobSpace(parsed.spec);
  Testbench bench(&space, parsed.spec.app, parsed.spec.ToTestbenchOptions());
  const SampleOptions sampling = parsed.spec.ToSessionOptions().sample_options;
  LinuxReplay replay;
  replay.features.Reshape(samples, space.FeatureDimension());
  Rng rng(29);
  SimClock clock;
  for (size_t i = 0; i < samples; ++i) {
    Configuration config = space.RandomConfiguration(rng, sampling);
    space.EncodeInto(config, replay.features.Row(i));
    TrialOutcome outcome = bench.Evaluate(config, rng, &clock);
    replay.crashed.push_back(!outcome.ok());
    replay.metric.push_back(outcome.ok() ? outcome.metric : 0.0);
  }
  return replay;
}

// Mean, over 64 minibatches of 32 replay rows drawn with replacement, of the
// dense-1 units that are 0 in every row of the minibatch (relu(x W1 + b1),
// before dropout).
double DeadDense1Units(DtmTrunk& trunk, const Matrix& features) {
  std::vector<ParamBlock*> params = trunk.Params();
  const Matrix& w1 = params[0]->value;
  const Matrix& b1 = params[1]->value;
  Rng rng(23);
  Matrix batch(32, features.cols());
  Matrix h1;
  size_t dead = 0;
  const int batches = 64;
  for (int b = 0; b < batches; ++b) {
    for (size_t r = 0; r < batch.rows(); ++r) {
      size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(features.rows()) - 1));
      std::copy(features.Row(i), features.Row(i) + features.cols(), batch.Row(r));
    }
    MatMulAddBiasInto(batch, w1, b1, h1);
    for (size_t c = 0; c < h1.cols(); ++c) {
      bool live = false;
      for (size_t r = 0; r < h1.rows() && !live; ++r) {
        live = h1.At(r, c) > 0.0;
      }
      dead += live ? 0 : 1;
    }
  }
  return static_cast<double>(dead) / batches;
}

// One Update of a trunk trained on the Linux replay, warmed (at most 400
// Updates) until at least 40 of its 64 dense-1 units are dead per minibatch.
double BenchUpdateLinux298(const LinuxReplay& replay, KernelBackend backend,
                           double* dead_units) {
  DtmOptions options;
  options.kernels = backend;
  DtmTrunk trunk(replay.features.cols(), 1, options);
  for (size_t i = 0; i < replay.features.rows(); ++i) {
    const double* row = replay.features.Row(i);
    trunk.AddSample(std::vector<double>(row, row + replay.features.cols()), replay.crashed[i],
                    &replay.metric[i]);
  }
  *dead_units = DeadDense1Units(trunk, replay.features);
  for (int update = 0; update < 400 && *dead_units < 40.0; ++update) {
    trunk.Update();
    if (update % 10 == 9) {
      *dead_units = DeadDense1Units(trunk, replay.features);
    }
  }
  return OpsPerSec(MicroWindowSeconds(), 1, [&] { trunk.Update(); });
}

// Full Propose — pool assembly + batched prediction + scoring — on a warm
// searcher over the Linux space with a realistic history window.
double BenchPropose(size_t pool) {
  ConfigSpace space = BuildLinuxSearchSpace();
  DeepTuneOptions options;
  options.pool_size = pool;
  options.warmup = 8;
  options.update_every = 4;
  options.model.steps_per_update = 4;  // Keep searcher warm-up cheap.
  DeepTuneSearcher searcher(&space, options);

  Rng rng(11);
  std::vector<TrialRecord> history;
  SearchContext context;
  context.space = &space;
  context.history = &history;
  context.rng = &rng;
  context.sample_options = SampleOptions::FavorRuntime();

  // Push the searcher past warm-up and give it elites + history to rank
  // against (the paper-scale window the proposal loop actually sees).
  for (size_t i = 0; i < 48; ++i) {
    TrialRecord trial;
    trial.config = space.RandomConfiguration(rng, context.sample_options);
    trial.outcome.status =
        rng.Bernoulli(0.2) ? TrialOutcome::Status::kRunCrashed : TrialOutcome::Status::kOk;
    if (trial.outcome.ok()) {
      trial.outcome.metric = rng.Normal(100.0, 10.0);
      trial.objective = trial.outcome.metric;
    }
    searcher.Observe(trial, context);
    history.push_back(trial);
  }
  return OpsPerSec(MicroWindowSeconds(), 1, [&] { searcher.Propose(context); });
}

// Pool scoring alone, on the default kernel table: 128 candidates (a random
// pool) against a full ring of 128 encoded trials.
double BenchScorePool() {
  ConfigSpace space = BuildLinuxSearchSpace();
  const size_t window = ProposalState::kHistoryWindow;
  Rng rng(13);
  std::vector<TrialRecord> history(window);
  for (TrialRecord& trial : history) {
    trial.config = space.RandomConfiguration(rng, SampleOptions::FavorRuntime());
  }
  EncodedHistoryRing ring;
  ring.Sync(space, history, window);
  ProposalPoolSpec spec;
  spec.pool_size = 128;
  std::vector<Configuration> pool;
  Matrix encoded;
  PoolScratch scratch;
  AssembleProposalPool(space, {}, SampleOptions::FavorRuntime(), spec, 17, pool, encoded,
                       scratch);
  const KernelOps& ops = DefaultKernels();
  std::vector<double> ds;
  return OpsPerSec(MicroWindowSeconds(), 1,
                   [&] { PoolDissimilarity(encoded, ring, ring.count(), ops, &ds); });
}

// Pool assembly alone, warm: 128 candidates from 4 elites, as DeepTune
// assembles them once its elite set is full.
double BenchAssemblePool() {
  ConfigSpace space = BuildLinuxSearchSpace();
  Rng rng(19);
  std::vector<Configuration> elites;
  for (int e = 0; e < 4; ++e) {
    elites.push_back(space.RandomConfiguration(rng, SampleOptions::FavorRuntime()));
  }
  ProposalPoolSpec spec;
  spec.pool_size = 128;
  std::vector<Configuration> pool;
  Matrix encoded;
  PoolScratch scratch;
  uint64_t pool_seed = 0;
  return OpsPerSec(MicroWindowSeconds(), 1, [&] {
    AssembleProposalPool(space, elites, SampleOptions::FavorRuntime(), spec, ++pool_seed, pool,
                         encoded, scratch);
  });
}

}  // namespace
}  // namespace wayfinder

int main(int argc, char** argv) {
  using namespace wayfinder;
  size_t dim = 263;  // The Linux space's feature width.
  size_t samples = 100;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dim") == 0 && i + 1 < argc) {
      dim = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      samples = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    }
  }

  const bool has_avx2 = KernelBackendAvailable(KernelBackend::kAvx2);
  std::printf("{\"bench\": \"kernel_backend\", \"default\": \"%s\", \"avx2_available\": %s}\n",
              KernelBackendName(DefaultKernelBackend()), has_avx2 ? "true" : "false");

  // Full Update on each kernel backend.
  const std::string update_bench =
      "dtm_update_" + std::to_string(dim) + "d_" + std::to_string(samples) + "s";
  double portable_ops = BenchUpdate(dim, samples, KernelBackend::kPortable);
  PrintRate(update_bench, KernelBackendName(KernelBackend::kPortable), portable_ops, true);
  double avx2_ops = BenchUpdate(dim, samples, KernelBackend::kAvx2);
  PrintRate(update_bench, KernelBackendName(KernelBackend::kAvx2), avx2_ops, true);
  if (portable_ops > 0.0) {
    std::printf("{\"bench\": \"dtm_update_speedup\", \"avx2_over_portable\": %.2f}\n",
                avx2_ops / portable_ops);
  }

  // Update on the Linux job space's encoded nginx configurations.
  const LinuxReplay replay = BuildLinuxReplay(100);
  const std::string linux_bench =
      "dtm_update_linux" + std::to_string(replay.features.cols()) + "_100s";
  for (KernelBackend backend : {KernelBackend::kPortable, KernelBackend::kAvx2}) {
    double dead_units = 0.0;
    double ops = BenchUpdateLinux298(replay, backend, &dead_units);
    char dead[40];
    std::snprintf(dead, sizeof(dead), ", \"dead_units\": %.1f", dead_units);
    PrintRate(linux_bench, KernelBackendName(backend), ops, true, dead);
  }

  // Full Propose — pool assembly + batched prediction.
  PrintRate("propose_pool128", "serial", BenchPropose(128), true);
  PrintRate("propose_score_pool128", "hist128", BenchScorePool(), true);
  PrintRate("propose_assemble_pool128", "elites4", BenchAssemblePool(), true);

  // Replay append (default backend).
  {
    // Fresh model per measurement window: AddSample grows the replay buffer,
    // so a single long-lived model measures ever-larger reallocation costs —
    // later windows (and later sweeps) would read slower for no code reason.
    double best = 0.0;
    for (int instance = 0; instance < 4; ++instance) {
      auto model = std::make_unique<DeepTuneModel>(dim, DtmOptions{});
      Rng rng(3);
      std::vector<double> x = RandomFeatures(rng, dim);
      const std::vector<double> objective = {1.0};
      best = std::max(best, OpsPerSec(MicroWindowSeconds(), 1,
                                      [&] { model->AddSample(x, false, objective); }));
    }
    PrintRate("dtm_add_sample", "fast", best, true);
  }
  return 0;
}
