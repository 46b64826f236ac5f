#include "src/core/dtm_trunk.h"

#include <cassert>
#include <utility>

#include "src/nn/serialize.h"
#include "src/obs/metrics.h"
#include "src/util/stats.h"

namespace wayfinder {

namespace {

// Model-side long pole: one full Update() (minibatch gather + forward +
// backward + Adam, steps_per_update times).
obs::Histogram& g_trunk_update_ns =
    obs::Registry::Instance().GetHistogram("core.trunk_update_ns");

}  // namespace

DtmTrunk::DtmTrunk(size_t input_dim, size_t head_count, const DtmOptions& options)
    : input_dim_(input_dim),
      head_count_(head_count),
      options_(options),
      rng_(options.seed),
      dense1_(input_dim, options.hidden1, rng_),
      dropout_(options.dropout),
      dense2_(options.hidden1, options.hidden2, rng_),
      crash_head_(options.hidden2, 2, rng_),
      perf_head_(options.hidden2, head_count, rng_),
      rbf0_(input_dim, options.rbf_centroids,
            options.gamma_factor * std::sqrt(static_cast<double>(input_dim)), rng_),
      rbf1_(options.hidden1, options.rbf_centroids,
            options.gamma_factor * std::sqrt(static_cast<double>(options.hidden1)), rng_),
      rbf2_(options.hidden2, options.rbf_centroids,
            options.gamma_factor * std::sqrt(static_cast<double>(options.hidden2)), rng_),
      unc_head_(3 * options.rbf_centroids, head_count, rng_),
      kernels_(&KernelsFor(options.kernels)),
      head_mean_(head_count, 0.0),
      head_std_(head_count, 1.0) {
  assert(head_count_ >= 1);
  std::vector<ParamBlock*> params = Params();
  AdamOptions adam_options;
  adam_options.learning_rate = options.learning_rate;
  adam_options.weight_decay = 1e-5;
  adam_ = std::make_unique<Adam>(params, adam_options);
}

std::vector<ParamBlock*> DtmTrunk::Params() {
  std::vector<ParamBlock*> params;
  auto append = [&params](std::vector<ParamBlock*> block) {
    params.insert(params.end(), block.begin(), block.end());
  };
  append(dense1_.Params());
  append(dense2_.Params());
  append(crash_head_.Params());
  append(perf_head_.Params());
  append(rbf0_.Params());
  append(rbf1_.Params());
  append(rbf2_.Params());
  append(unc_head_.Params());
  return params;
}

void DtmTrunk::AddSample(std::vector<double> x, bool crashed, const double* objectives) {
  assert(x.size() == input_dim_);
  xs_.push_back(std::move(x));
  crashed_.push_back(crashed);
  for (size_t k = 0; k < head_count_; ++k) {
    objectives_.push_back(crashed ? std::nan("") : objectives[k]);
  }
  normalizer_dirty_ = true;
}

void DtmTrunk::RefreshNormalizers() {
  if (!normalizer_dirty_) {
    return;
  }
  for (size_t k = 0; k < head_count_; ++k) {
    RunningStats stats;
    for (size_t i = 0; i < crashed_.size(); ++i) {
      if (!crashed_[i]) {
        stats.Add(objectives_[i * head_count_ + k]);
      }
    }
    head_mean_[k] = stats.Mean();
    head_std_[k] = stats.StdDev() > 1e-9 ? stats.StdDev() : 1.0;
  }
  normalizer_dirty_ = false;
}

double DtmTrunk::NormalizeObjective(size_t head, double objective) const {
  return (objective - head_mean_[head]) / head_std_[head];
}

double DtmTrunk::DenormalizeObjective(size_t head, double normalized) const {
  return normalized * head_std_[head] + head_mean_[head];
}

// wf-hot-path: workspace-arena — every buffer is a ws_ member reshaped in
// place; nn_test pins workspace_grow_count() stable across warm rounds.
void DtmTrunk::Forward(const Matrix& x, bool training) {
  ws_.Count(dense1_.ForwardInto(x, ws_.h1, kernels_));  // Fused x W + b.
  relu1_.ForwardInPlace(ws_.h1, kernels_);
  dropout_.ForwardInPlace(ws_.h1, rng_, training);
  ws_.Count(dense2_.ForwardInto(ws_.h1, ws_.h2, kernels_));
  relu2_.ForwardInPlace(ws_.h2, kernels_);
  ws_.Count(crash_head_.ForwardInto(ws_.h2, ws_.crash_logits, kernels_));
  ws_.Count(perf_head_.ForwardInto(ws_.h2, ws_.yhat, kernels_));
  ws_.Count(rbf0_.ForwardInto(x, ws_.phi0, kernels_));
  ws_.Count(rbf1_.ForwardInto(ws_.h1, ws_.phi1, kernels_));
  ws_.Count(rbf2_.ForwardInto(ws_.h2, ws_.phi2, kernels_));
  ws_.Count(ConcatCols3Into(ws_.phi0, ws_.phi1, ws_.phi2, ws_.phi));
  ws_.Count(unc_head_.ForwardInto(ws_.phi, ws_.s, kernels_));
}

// wf-hot-path: workspace-arena — h1_live was reserved at the hidden-1 width,
// so its appends never allocate.
void DtmTrunk::CollectLiveH1() {
  // Live means ReLU-1's backward keeps the gradient somewhere in the column:
  // its mask is the post-dropout h1, and it zeroes the entries with h1 <= 0.
  ws_.h1_live.clear();
  for (size_t c = 0; c < ws_.h1.cols(); ++c) {
    for (size_t n = 0; n < ws_.h1.rows(); ++n) {
      if (!(ws_.h1.At(n, c) <= 0.0)) {
        ws_.h1_live.push_back(c);
        break;
      }
    }
  }
}

// wf-hot-path: workspace-arena — the whole training loop (gather, forward,
// backward, Adam) runs out of ws_; zero heap allocation once warm.
double DtmTrunk::Update() {
  if (xs_.empty()) {
    return 0.0;
  }
  obs::ScopedTimerNs update_timer(g_trunk_update_ns);
  RefreshNormalizers();
  double last_loss = 0.0;
  size_t batch = std::min(options_.batch_size, xs_.size());
  ws_.Count(ws_.x.Reshape(batch, input_dim_) ? 1 : 0);
  ws_.Count(ws_.y.Reshape(batch, head_count_) ? 1 : 0);
  ws_.ReserveGather(batch, options_.hidden1);
  for (size_t step = 0; step < options_.steps_per_update; ++step) {
    // Sample a minibatch (with replacement) from the replay buffer.
    for (size_t b = 0; b < batch; ++b) {
      size_t i = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(xs_.size()) - 1));
      ws_.crash_target[b] = crashed_[i] ? 1 : 0;
      ws_.mask[b] = false;
      for (size_t k = 0; k < head_count_; ++k) {
        ws_.y.At(b, k) = 0.0;
      }
      if (!crashed_[i]) {
        for (size_t k = 0; k < head_count_; ++k) {
          ws_.y.At(b, k) = NormalizeObjective(k, objectives_[i * head_count_ + k]);
        }
        ws_.mask[b] = true;
      }
      const std::vector<double>& row = xs_[i];
      std::copy(row.begin(), row.end(), ws_.x.Row(b));
    }

    Forward(ws_.x, /*training=*/true);
    CollectLiveH1();

    // --- Losses ------------------------------------------------------------
    double loss_cce =
        SoftmaxCrossEntropy(ws_.crash_logits, ws_.crash_target, &ws_.dlogits, ws_.probs);
    double loss_reg =
        HeteroscedasticLossMulti(ws_.yhat, ws_.s, ws_.y, ws_.mask, &ws_.dyhat, &ws_.ds);
    double loss_cham = rbf0_.AccumulateChamferGradient(options_.chamfer_weight, kernels_) +
                       rbf1_.AccumulateChamferGradient(options_.chamfer_weight, kernels_) +
                       rbf2_.AccumulateChamferGradient(options_.chamfer_weight, kernels_);
    last_loss = loss_cce + loss_reg + options_.chamfer_weight * loss_cham;

    // --- Backward -----------------------------------------------------------
    ws_.Count(unc_head_.BackwardInto(ws_.ds, &ws_.dphi, kernels_));
    size_t k = options_.rbf_centroids;
    ws_.Count(SliceColsInto(ws_.dphi, 0, k, ws_.dphi0));
    ws_.Count(SliceColsInto(ws_.dphi, k, 2 * k, ws_.dphi1));
    ws_.Count(SliceColsInto(ws_.dphi, 2 * k, 3 * k, ws_.dphi2));

    ws_.Count(crash_head_.BackwardInto(ws_.dlogits, &ws_.dh2, kernels_));
    ws_.Count(perf_head_.BackwardInto(ws_.dyhat, &ws_.dh2_scratch, kernels_));
    for (size_t i = 0; i < ws_.dh2.size(); ++i) {
      ws_.dh2.data()[i] += ws_.dh2_scratch.data()[i];
    }
    ws_.Count(rbf2_.BackwardInto(ws_.dphi2, &ws_.dh2, /*accumulate=*/true, kernels_));
    relu2_.BackwardInPlace(ws_.dh2);
    // dh1 only in the columns ReLU-1 passes; the rest are 0 after its mask
    // whatever dense-2 and RBF-1 write there.
    ws_.Count(dense2_.BackwardLiveInto(ws_.dh2, ws_.h1_live, ws_.dh1, kernels_));
    ws_.Count(rbf1_.BackwardInto(ws_.dphi1, &ws_.dh1, /*accumulate=*/true, kernels_));
    dropout_.BackwardInPlace(ws_.dh1);
    relu1_.BackwardInPlace(ws_.dh1);
    // dh1 is mostly 0 behind dead units, so dW1 takes MatMulAtAccum's
    // b-sparse form. The input gradient is discarded.
    ws_.Count(dense1_.BackwardInto(ws_.dh1, /*dx=*/nullptr, kernels_));
    ws_.Count(rbf0_.BackwardInto(ws_.dphi0, /*dz=*/nullptr, /*accumulate=*/false, kernels_));

    adam_->Step(kernels_);
  }
  return last_loss;
}

// wf-hot-path: workspace-arena — batched inference straight off the
// caller's matrix into ws_ slots (the candidate-pool scoring path).
size_t DtmTrunk::PredictRows(const Matrix& xs) {
  if (xs.rows() == 0) {
    return 0;
  }
  assert(xs.cols() == input_dim_);
  if (options_.naive) {
    ForwardNaive(xs);
    return xs.rows();
  }
  Forward(xs, /*training=*/false);
  ws_.Count(SoftmaxInto(ws_.crash_logits, ws_.probs));
  return xs.rows();
}

// wf-hot-path: workspace-arena — single-row staging through ws_.x.
size_t DtmTrunk::PredictRow(const std::vector<double>& x) {
  assert(x.size() == input_dim_);
  // Route straight through the batched forward: stage the single row in the
  // workspace, no per-call vector-of-vectors.
  ws_.Count(ws_.x.Reshape(1, input_dim_) ? 1 : 0);
  std::copy(x.begin(), x.end(), ws_.x.Row(0));
  return PredictRows(ws_.x);
}

void DtmTrunk::ForwardNaive(const Matrix& xs) {
  auto dense_naive = [](const Matrix& in, DenseLayer& layer) {
    Matrix out = NaiveMatMul(in, layer.weight().value);
    AddRowInPlace(out, layer.bias().value);
    return out;
  };
  auto relu_naive = [](const Matrix& in) {
    Matrix out = in;
    for (double& v : out.data()) {
      v = std::max(0.0, v);
    }
    return out;
  };
  auto rbf_naive = [](const Matrix& in, RbfLayer& layer) {
    const Matrix& c = layer.centroid_values();
    Matrix phi(in.rows(), c.rows());
    double inv = 1.0 / (2.0 * layer.gamma() * layer.gamma());
    for (size_t n = 0; n < in.rows(); ++n) {
      for (size_t ci = 0; ci < c.rows(); ++ci) {
        phi.At(n, ci) = std::exp(-RowSqDist(in, n, c, ci) * inv);
      }
    }
    return phi;
  };

  Matrix h1 = relu_naive(dense_naive(xs, dense1_));  // Dropout inactive at inference.
  Matrix h2 = relu_naive(dense_naive(h1, dense2_));
  Matrix crash_logits = dense_naive(h2, crash_head_);
  ws_.yhat = dense_naive(h2, perf_head_);
  Matrix phi = ConcatCols(ConcatCols(rbf_naive(xs, rbf0_), rbf_naive(h1, rbf1_)),
                          rbf_naive(h2, rbf2_));
  ws_.s = dense_naive(phi, unc_head_);
  SoftmaxInto(crash_logits, ws_.probs);
}

bool DtmTrunk::Save(const std::string& path) const {
  auto* self = const_cast<DtmTrunk*>(this);
  return SaveParamsToFile(self->Params(), path);
}

bool DtmTrunk::Load(const std::string& path) {
  return LoadParamsFromFile(Params(), path);
}

void DtmTrunk::Workspace::ReserveGather(size_t batch, size_t hidden1) {
  size_t caps = crash_target.capacity() + mask.capacity() + h1_live.capacity();
  crash_target.resize(batch);
  mask.resize(batch);
  h1_live.reserve(hidden1);
  size_t caps_after = crash_target.capacity() + mask.capacity() + h1_live.capacity();
  if (caps_after != caps) {
    ++grow_count;
  }
}

size_t DtmTrunk::Workspace::Bytes() const {
  const Matrix* buffers[] = {&x,     &h1,    &h2,    &crash_logits, &yhat,  &s,
                             &phi0,  &phi1,  &phi2,  &phi,          &probs, &y,
                             &dlogits, &dyhat, &ds,  &dphi,         &dphi0, &dphi1,
                             &dphi2, &dh2,   &dh2_scratch,          &dh1};
  size_t bytes = 0;
  for (const Matrix* m : buffers) {
    bytes += m->size() * sizeof(double);
  }
  bytes += crash_target.size() * sizeof(int) + mask.size() / 8 +
           h1_live.capacity() * sizeof(size_t);
  return bytes;
}

size_t DtmTrunk::MemoryBytes() const {
  size_t bytes = 0;
  auto* self = const_cast<DtmTrunk*>(this);
  for (ParamBlock* p : self->Params()) {
    // Value + gradient + two Adam moments.
    bytes += 4 * p->value.size() * sizeof(double);
  }
  for (const auto& x : xs_) {
    bytes += x.size() * sizeof(double);
  }
  bytes += crashed_.size() / 8 + objectives_.size() * sizeof(double);
  // The scratch arena and the layers' own reused scratch are live state too.
  bytes += ws_.Bytes();
  for (const DenseLayer* dense :
       {&dense1_, &dense2_, &crash_head_, &perf_head_, &unc_head_}) {
    bytes += dense->ScratchBytes();
  }
  bytes += dropout_.ScratchBytes() + rbf0_.ScratchBytes() + rbf1_.ScratchBytes() +
           rbf2_.ScratchBytes();
  return bytes;
}

}  // namespace wayfinder
