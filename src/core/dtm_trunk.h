// The K-wide DTM trunk — the one implementation of the DeepTune Model's
// network (Figure 4), shared by every head count.
//
// Architecture (identical for K = 1 and K > 1):
//
//   * prediction branch F_p: dense -> ReLU -> dropout -> dense -> ReLU with
//     two heads — crash logits (2-way softmax) and a K-wide objective ŷ;
//   * uncertainty branch F_u: a Gaussian RBF layer parallel to each trunk
//     stage (input, hidden-1, hidden-2), concatenated into a linear head
//     emitting K log-variances s = log σ².
//
// `DeepTuneModel` (src/core/dtm.h) is the one thin head over this class, at
// K = 1 for the paper's DTM and K = metric count for §3.2's multi-metric
// extension: it owns no layers, no optimizer, no replay buffer and no
// backward pass — it only converts the trunk's row/head accessors into
// DtmPrediction structs. The order-sensitive backward pass, the Adam step,
// the minibatch gather, and the zero-alloc workspace arena therefore exist
// in exactly one place, and the bit-determinism contracts are carried by the
// trunk itself:
//
//   * `workspace_grow_count()` is stable across repeated same-shaped
//     forward/update rounds, and a warm `Update()`, `PredictRows(Matrix)`
//     or `PredictRow(x)` makes no heap allocation at all (nn_test counts
//     operator new);
//   * results are bit-identical across SIMD kernel backends (the backends
//     evaluate the same expression trees — src/nn/kernels.h).
//
// The math runs serially on the calling thread. A process spends its cores
// on concurrent sessions, not inside one model's Update.
//
// Updates are incremental — a constant number of gradient steps per new
// observation — so per-iteration model cost stays O(1) and O(n) overall,
// unlike Gaussian-process or causal-graph refits (§2.3, Figure 7). The
// constant holds step for step, too: Adam never lets a moment go subnormal
// (kAdamGradFloor / kAdamMomentFloor in src/nn/kernels.h), so the decaying
// moments of dead units cannot slow late steps ~9x with microcode assists.
// KernelBackend.AdamFlushKeepsMomentsNormal pins the flush, and its
// bit-exact weights, on both backends.
#ifndef WAYFINDER_SRC_CORE_DTM_TRUNK_H_
#define WAYFINDER_SRC_CORE_DTM_TRUNK_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/nn/kernels.h"
#include "src/nn/layers.h"
#include "src/nn/losses.h"
#include "src/nn/optimizer.h"
#include "src/util/rng.h"

namespace wayfinder {

struct DtmOptions {
  size_t hidden1 = 64;
  size_t hidden2 = 32;
  size_t rbf_centroids = 12;
  // gamma for an RBF layer = gamma_factor * sqrt(input width); the paper's
  // gamma = 0.1 assumes per-dimension-normalized scalar-ish latents, which
  // this generalizes to arbitrary widths.
  double gamma_factor = 0.7;
  double dropout = 0.10;
  double learning_rate = 2e-3;
  size_t batch_size = 32;
  size_t steps_per_update = 32;  // Constant per observation: O(n) total.
  double chamfer_weight = 0.05;
  uint64_t seed = 0xd7a1;
  // SIMD kernel backend for this model's forward/backward/update math.
  // kAuto follows the process default (CPUID). Backends are bit-identical by
  // construction, so this only changes speed.
  KernelBackend kernels = KernelBackend::kAuto;
  // Route inference through the scalar, allocation-per-op reference path
  // (textbook kernels, one fresh matrix per op — the seed implementation).
  // Baseline for bench_micro_matmul's --naive mode and equivalence tests.
  bool naive = false;
};

class DtmTrunk {
 public:
  // `head_count` >= 1: width of the objective and uncertainty heads.
  DtmTrunk(size_t input_dim, size_t head_count, const DtmOptions& options);

  size_t input_dim() const { return input_dim_; }
  size_t head_count() const { return head_count_; }
  size_t sample_count() const { return crashed_.size(); }

  // Appends one observation to the replay buffer. `objectives` points at
  // head_count raw values; it is ignored (and may be null) for crashes.
  void AddSample(std::vector<double> x, bool crashed, const double* objectives);

  // Runs `steps_per_update` minibatch gradient steps on the replay buffer.
  // Returns the last batch's total loss (0 when there is nothing to train).
  double Update();

  // --- inference -----------------------------------------------------------
  // One fused forward pass (softmax included) straight off the caller's
  // row-major candidate matrix; read results through the row/head accessors
  // below. Returns the row count. PredictRow stages one configuration
  // through the workspace's input matrix first.
  size_t PredictRows(const Matrix& xs);
  size_t PredictRow(const std::vector<double>& x);

  // Valid after a PredictRows/PredictRow call, for rows < the returned count.
  double CrashProb(size_t row) const { return ws_.probs.At(row, 1); }
  double Objective(size_t row, size_t head) const { return ws_.yhat.At(row, head); }
  double Sigma(size_t row, size_t head) const {
    double s = std::clamp(ws_.s.At(row, head), -10.0, 10.0);
    return std::exp(0.5 * s);
  }

  // Per-head objective z-score normalization over successful observations.
  double NormalizeObjective(size_t head, double objective) const;
  double DenormalizeObjective(size_t head, double normalized) const;

  // Trainable blocks in a stable order (for Adam and serialization).
  std::vector<ParamBlock*> Params();

  // Transfer learning (§3.3): persist/restore the trained weights. Loading
  // requires an identical architecture (input dim, head count, options).
  bool Save(const std::string& path) const;
  bool Load(const std::string& path);

  // Live state footprint (weights + optimizer moments + replay buffer +
  // workspace arena + the dropout mask and RBF scratch the layers hold).
  size_t MemoryBytes() const;

  // Times any workspace buffer had to (re)allocate. Stable across repeated
  // same-shaped rounds — the zero-alloc-after-warmup guarantee tests pin.
  size_t workspace_grow_count() const { return ws_.grow_count; }

  // The SIMD kernel table this trunk resolved at construction.
  const KernelOps& kernels() const { return *kernels_; }

 private:
  // Scratch arena for one forward/backward round. Buffers are reshaped in
  // place every call and only ever grow, so a warm trunk's hot path does no
  // heap allocation.
  struct Workspace {
    Matrix x;                          // Staged input batch.
    Matrix h1, h2;                     // Trunk activations (in-place ReLU/dropout).
    Matrix crash_logits, yhat, s;      // Head outputs (yhat/s are N x K).
    Matrix phi0, phi1, phi2, phi;      // RBF activations and their concat.
    Matrix probs;                      // Softmax output for prediction.
    Matrix y;                          // Staged N x K regression targets.
    Matrix dlogits, dyhat, ds;         // Loss gradients.
    Matrix dphi, dphi0, dphi1, dphi2;  // Uncertainty-branch gradients.
    Matrix dh2, dh2_scratch, dh1;      // Trunk gradients.
    // Training-loop gather scratch: minibatch targets.
    std::vector<int> crash_target;
    std::vector<bool> mask;
    // Columns of h1 that ReLU-1 passes in some row of the minibatch (after
    // dropout): the only columns of dh1 the backward pass computes.
    std::vector<size_t> h1_live;
    size_t grow_count = 0;

    void Count(size_t grew) { grow_count += grew; }
    // Resizes the gather scratch and reserves h1_live at the hidden-1 width,
    // counting vector buffer growth like Matrix reshapes so the zero-alloc
    // guarantee covers the whole training loop.
    void ReserveGather(size_t batch, size_t hidden1);
    size_t Bytes() const;
  };

  // Fast path: runs the network over `x` into the workspace. `x` must stay
  // alive/unmodified until the round's backward pass completes.
  void Forward(const Matrix& x, bool training);
  // Fills ws_.h1_live from the training forward's h1.
  void CollectLiveH1();
  // The seed implementation, verbatim in structure: textbook kernels and a
  // fresh matrix per op, landing its outputs in the same workspace slots the
  // fast path uses. Correctness/perf baseline for equivalence tests and the
  // --naive benchmarks.
  void ForwardNaive(const Matrix& xs);
  void RefreshNormalizers();

  size_t input_dim_;
  size_t head_count_;
  DtmOptions options_;
  Rng rng_;

  DenseLayer dense1_;
  ReluLayer relu1_;
  DropoutLayer dropout_;
  DenseLayer dense2_;
  ReluLayer relu2_;
  DenseLayer crash_head_;
  DenseLayer perf_head_;  // hidden2 -> K.
  RbfLayer rbf0_;
  RbfLayer rbf1_;
  RbfLayer rbf2_;
  DenseLayer unc_head_;   // 3*centroids -> K.
  std::unique_ptr<Adam> adam_;
  const KernelOps* kernels_ = nullptr;  // Resolved once from options().kernels.
  Workspace ws_;

  // Replay buffer. Objectives are stored flat with stride head_count_ (NaN
  // for crashed trials) so appends never allocate a nested vector.
  std::vector<std::vector<double>> xs_;
  std::vector<bool> crashed_;
  std::vector<double> objectives_;

  std::vector<double> head_mean_;
  std::vector<double> head_std_;
  bool normalizer_dirty_ = true;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_DTM_TRUNK_H_
