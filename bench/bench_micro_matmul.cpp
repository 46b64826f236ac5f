// Micro-benchmarks of the numeric substrate, emitting JSON so future PRs
// have a perf trajectory to compare against:
//
//   * raw matmul kernels: naive (textbook triple loop) vs fast (4x
//     k-unrolled, row-streaming, fused bias);
//   * the fused dense-layer forward;
//   * DeepTuneModel::PredictRows (the searcher's pool-ranking forward pass)
//     at pool sizes 64 / 256 / 1024, fast path vs the --naive
//     allocation-per-op reference.
//
// Usage: bench_micro_matmul [--naive] [--dim D]
//   --naive     only measure the reference path (the seed implementation)
//
// Output: one gated JSON rate record per line (PrintRate in
// bench/bench_common.h), then a summary object with the pool-1024
// fast-vs-naive speedup.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/dtm.h"
#include "src/nn/kernels.h"
#include "src/nn/matrix.h"
#include "src/util/rng.h"

namespace wayfinder {
namespace {

std::vector<double> RandomFeatures(Rng& rng, size_t dim) {
  std::vector<double> x(dim);
  for (double& v : x) {
    v = rng.Uniform();
  }
  return x;
}

Matrix RandomMatrix(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    v = rng.Normal();
  }
  return m;
}

// Every measurement here runs in ~0.13 s windows, smoke mode included, and
// every record gates.
constexpr double kWindowSeconds = 0.4 / 3;

double BenchPredict(size_t dim, size_t pool, bool naive) {
  // Measured over several model instances, keeping the best: mid-size pools
  // (256 x 263 doubles) sit on a cache-set cliff where throughput swings
  // ~30% with the heap addresses the workspace happens to get, so a single
  // instance measures the binary's allocation-history luck, not the code.
  // Each instance lands at a different placement (the pad allocations shift
  // the heap between them); the best instance approximates the lucky layout
  // reproducibly across binaries, which is what the PR-over-PR gate needs.
  // Twenty instances with quadratically-varied pad strides: four barely
  // samples the placement space, so whole binaries (whose static-init
  // allocations shift the base heap state) could read 10-20% apart on pure
  // address luck at small pool sizes. PR 4 widened four to eight; PR 5's
  // binary (a whole new service layer of TUs ahead of the model code)
  // shifted the base heap again and eight still read the pool=1024 case
  // ~10% apart between A/B-identical predict code (matmul anchors flat at
  // 1.0x in the same runs), so the sweep widened once more. PR 10 repeated
  // the story a third time — the obs registry's static-init instrument
  // allocations moved the base heap and twelve instances read pool=1024
  // ~15% apart on identical predict code — so twelve became twenty.
  double best = 0.0;
  std::vector<std::vector<double>> pad;
  for (size_t instance = 0; instance < 20; ++instance) {
    DtmOptions options;
    options.naive = naive;
    auto model = std::make_unique<DeepTuneModel>(dim, options);
    Rng rng(7);
    for (size_t i = 0; i < 64; ++i) {
      model->AddSample(RandomFeatures(rng, dim), rng.Bernoulli(0.3), {rng.Normal(0.0, 1.0)});
    }
    model->Update();
    Matrix candidates = RandomMatrix(rng, pool, dim);
    for (double& v : candidates.data()) {
      v = (v + 3.0) / 6.0;  // Roughly [0, 1], like encoded configurations.
    }
    best = std::max(best,
                    OpsPerSec(kWindowSeconds, 1, [&] { model->PredictRows(candidates); }));
    pad.emplace_back(769 + 331 * instance + 97 * instance * instance, 0.0);
  }
  return best;
}

}  // namespace
}  // namespace wayfinder

int main(int argc, char** argv) {
  using namespace wayfinder;
  bool naive_only = false;
  size_t dim = 263;  // The Linux space's feature width.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--naive") == 0) {
      naive_only = true;
    } else if (std::strcmp(argv[i], "--dim") == 0 && i + 1 < argc) {
      dim = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    }
  }

  Rng rng(3);
  Matrix a = RandomMatrix(rng, 256, dim);
  Matrix b = RandomMatrix(rng, dim, 64);
  Matrix bias = RandomMatrix(rng, 1, 64);
  Matrix out;

  const std::string matmul = "matmul_256x" + std::to_string(dim) + "x64";
  const std::string fused = "matmul_fused_bias_256x" + std::to_string(dim) + "x64";
  if (!naive_only) {
    // "fast" runs the process-default kernel backend (avx2 on AVX2 CPUs);
    // the explicit portable variant keeps the scalar-fast-path trajectory
    // comparable PR-over-PR.
    PrintRate(matmul, "fast", OpsPerSec(kWindowSeconds, 1, [&] { MatMulInto(a, b, out); }),
              true);
    PrintRate(fused, "fast",
              OpsPerSec(kWindowSeconds, 1, [&] { MatMulAddBiasInto(a, b, bias, out); }), true);
    if (KernelBackendAvailable(KernelBackend::kAvx2)) {
      const KernelOps* portable = &KernelsFor(KernelBackend::kPortable);
      PrintRate(matmul, "fast_portable",
                OpsPerSec(kWindowSeconds, 1, [&] { MatMulInto(a, b, out, portable); }), true);
      PrintRate(fused, "fast_portable",
                OpsPerSec(kWindowSeconds, 1,
                          [&] { MatMulAddBiasInto(a, b, bias, out, portable); }),
                true);
    }
  }
  PrintRate(matmul, "naive", OpsPerSec(kWindowSeconds, 1, [&] { NaiveMatMul(a, b); }), true);

  double naive_1024 = 0.0;
  double fast_1024 = 0.0;
  for (size_t pool : {size_t{64}, size_t{256}, size_t{1024}}) {
    std::string bench = "predict_batch_" + std::to_string(pool);
    double naive_ops = BenchPredict(dim, pool, /*naive=*/true);
    PrintRate(bench, "naive", naive_ops, true);
    if (pool == 1024) {
      naive_1024 = naive_ops;
    }
    if (!naive_only) {
      double fast_ops = BenchPredict(dim, pool, /*naive=*/false);
      PrintRate(bench, "fast", fast_ops, true);
      if (pool == 1024) {
        fast_1024 = fast_ops;
      }
    }
  }

  if (!naive_only && naive_1024 > 0.0) {
    std::printf("{\"bench\": \"predict_batch_1024_speedup\", \"fast_over_naive\": %.2f}\n",
                fast_1024 / naive_1024);
  }
  return 0;
}
