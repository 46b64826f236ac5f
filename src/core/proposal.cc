#include "src/core/proposal.h"

#include <algorithm>
#include <unordered_set>

#include "src/obs/metrics.h"

namespace wayfinder {
namespace {

// Where proposal wall time goes: pool assembly is the searcher-side long
// pole (mutation + encoding over the whole pool).
obs::Histogram& g_pool_assembly_ns =
    obs::Registry::Instance().GetHistogram("core.pool_assembly_ns");

// Coordinate line-search grid resolution (candidates per swept parameter).
constexpr size_t kGridPoints = 5;

// Stream salts: keep the three candidate blocks (and the per-group parameter
// lottery) on disjoint counter-derived RNG streams even where their index
// ranges overlap.
constexpr uint64_t kLineGroupSalt = 0x11f35a1e;
constexpr uint64_t kMutateSalt = 0x2317ab9d;
constexpr uint64_t kRandomSalt = 0x35e0d3c7;

// The per-candidate generator: seeded from (pool_seed, salt, index) only, so
// candidate i's draws are independent of every other candidate.
Rng StreamFor(uint64_t pool_seed, uint64_t salt, uint64_t index) {
  return Rng(HashCombine(HashCombine(pool_seed, salt), index));
}

// Writes the encoding of `config`, derived from `base`, into `row`: a copy of
// `base_row` (base's encoding) with only the parameters whose raw value
// differs re-encoded. A feature depends on its parameter's raw value alone,
// so the row equals EncodeInto(config) bit for bit.
void EncodeFromBase(const ConfigSpace& space, const Configuration& base,
                    const double* base_row, const Configuration& config, double* row) {
  const size_t dim = space.FeatureDimension();
  std::copy(base_row, base_row + dim, row);
  for (size_t p = 0; p < dim; ++p) {
    if (config.Raw(p) != base.Raw(p)) {
      row[p] = space.EncodeParam(p, config.Raw(p));
    }
  }
}

}  // namespace

// wf-hot-path: pool entries, encoded rows and the scratch are reused; a warm
// call allocates nothing.
void AssembleProposalPool(const ConfigSpace& space,
                          const std::vector<Configuration>& elites,
                          const SampleOptions& sample_options,
                          const ProposalPoolSpec& spec, uint64_t pool_seed,
                          std::vector<Configuration>& pool, Matrix& encoded,
                          PoolScratch& scratch) {
  obs::ScopedTimerNs assembly_timer(g_pool_assembly_ns);
  const size_t pool_size = spec.pool_size;
  const size_t dim = space.FeatureDimension();
  pool.resize(pool_size);
  encoded.Reshape(pool_size, dim);
  if (pool_size == 0) {
    return;
  }

  // --- pool layout (pure arithmetic over the spec) --------------------------
  // Phase-biased parameter weights, shared read-only by every candidate.
  space.MutationWeights(sample_options, &scratch.weights);
  const std::vector<double>& weights = scratch.weights;
  double weight_total = 0.0;
  for (double w : weights) {
    weight_total += w;
  }
  const size_t exploit =
      elites.empty() ? 0
                     : static_cast<size_t>(static_cast<double>(pool_size) *
                                           spec.exploit_fraction);
  // Line-search block: groups of kGridPoints candidates sweeping one
  // lottery-drawn parameter across a value grid from an elite base.
  size_t line_total = 0;
  if (spec.line_search && exploit > 0 && weight_total > 0.0) {
    size_t line_candidates = exploit / 2;
    size_t groups = (line_candidates + kGridPoints - 1) / kGridPoints;
    line_total = std::min(groups * kGridPoints, pool_size);
  }
  const size_t mutate_end = std::max(line_total, exploit);

  // Line-search and mutation candidates start from an elite and change a few
  // parameters: each elite is encoded once, and such a candidate's row is
  // its elite's row with the changed parameters re-encoded.
  if (mutate_end > 0) {
    scratch.elite_rows.Reshape(elites.size(), dim);
    for (size_t e = 0; e < elites.size(); ++e) {
      space.EncodeInto(elites[e], scratch.elite_rows.Row(e));
    }
  }

  // --- generation -----------------------------------------------------------
  // Each candidate mutates and encodes independently, on its own RNG stream,
  // into its own pool entry and encoded row.
  for (size_t i = 0; i < pool_size; ++i) {
    Configuration& out = pool[i];
    if (i < line_total) {
      size_t group = i / kGridPoints;
      const size_t elite = group % elites.size();
      // Every member of a group re-derives the group's parameter lottery —
      // cheap, and it keeps the draw off any shared stream.
      Rng group_rng = StreamFor(pool_seed, kLineGroupSalt, group);
      size_t param = group_rng.WeightedIndex(weights);
      out = elites[elite];
      double code = static_cast<double>(i % kGridPoints) /
                    static_cast<double>(kGridPoints - 1);
      out.SetRaw(param, space.DecodeParam(param, code));
      space.ApplyConstraints(&out);
      EncodeFromBase(space, elites[elite], scratch.elite_rows.Row(elite), out,
                     encoded.Row(i));
    } else if (i < mutate_end) {
      const size_t elite = i % elites.size();
      Rng rng = StreamFor(pool_seed, kMutateSalt, i);
      size_t mutations = 1 + static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int64_t>(spec.max_mutations) - 1));
      space.NeighborInto(elites[elite], rng, mutations, weights, &out);
      EncodeFromBase(space, elites[elite], scratch.elite_rows.Row(elite), out,
                     encoded.Row(i));
    } else {
      Rng rng = StreamFor(pool_seed, kRandomSalt, i);
      if (out.space() != &space) {
        out = space.DefaultConfiguration();  // Bind once; reused when warm.
      }
      space.RandomConfigurationInto(rng, sample_options, &out);
      space.EncodeInto(out, encoded.Row(i));
    }
  }
}

void EncodedHistoryRing::Sync(const ConfigSpace& space,
                              const std::vector<TrialRecord>& history, size_t window) {
  size_t dim = space.FeatureDimension();
  // Detect a replaced history: the vector shrank, or the last trial we
  // synced is no longer the same configuration at that position.
  bool replaced = history.size() < synced_;
  if (!replaced && synced_ > 0) {
    replaced = history[synced_ - 1].config.Hash() != last_synced_hash_;
  }
  if (replaced) {
    count_ = 0;
    next_ = 0;
    synced_ = 0;
  }
  if (encoded_.rows() != dim || encoded_.cols() != window) {
    // A ring of a different shape holds nothing usable: drop it rather than
    // let stale cursors count garbage columns as history.
    encoded_.Reshape(dim, window);
    staging_.resize(dim);
    count_ = 0;
    next_ = 0;
    synced_ = 0;
  }
  // Only the window's worth of tail can ever be live in the ring.
  size_t begin = synced_;
  if (history.size() - begin > window) {
    begin = history.size() - window;
  }
  for (size_t i = begin; i < history.size(); ++i) {
    space.EncodeInto(history[i].config, staging_.data());
    for (size_t f = 0; f < dim; ++f) {
      encoded_.At(f, next_) = staging_[f];
    }
    next_ = (next_ + 1) % window;
    count_ = std::min(count_ + 1, window);
  }
  synced_ = history.size();
  if (synced_ > 0) {
    last_synced_hash_ = history[synced_ - 1].config.Hash();
  }
}

void SelectTopCandidates(const std::vector<double>& scores,
                         const std::vector<Configuration>& pool,
                         const std::vector<TrialRecord>* history, size_t n,
                         std::vector<Configuration>* batch) {
  std::vector<size_t> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return scores[a] > scores[b]; });
  std::unordered_set<uint64_t> evaluated;
  if (history != nullptr) {
    evaluated.reserve(history->size());
    for (const TrialRecord& trial : *history) {
      evaluated.insert(trial.config.Hash());
    }
  }
  std::unordered_set<uint64_t> taken;
  // Pass 1: best-scoring distinct candidates the session has not evaluated.
  // Pass 2: if the pool cannot fill the batch with unseen members, allow
  // already-evaluated ones (the session's dedup policy decides their fate).
  for (int allow_evaluated = 0; allow_evaluated <= 1 && batch->size() < n;
       ++allow_evaluated) {
    for (size_t i : order) {
      if (batch->size() >= n) {
        break;
      }
      uint64_t hash = pool[i].Hash();
      if (!allow_evaluated && evaluated.count(hash) != 0) {
        continue;
      }
      if (taken.insert(hash).second) {
        batch->push_back(pool[i]);
      }
    }
  }
}

}  // namespace wayfinder
