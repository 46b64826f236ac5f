// The proposal pipeline: DeepTuneSearcher's deterministic candidate-pool
// assembly, for one target or several (src/core/deeptune.h).
//
// Once DTM prediction is batched (one fused forward pass per pool), pool
// *assembly* — line-search decode, elite mutation, random sampling, and
// feature encoding — is the other half of a searcher iteration. This helper
// builds the pool while keeping the paper's determinism guarantee intact:
//
//   * every candidate index draws from its own counter-derived RNG stream,
//     seeded from (pool_seed, block salt, candidate index) — never from the
//     session's shared `SearchContext::rng` — so candidate i does not depend
//     on the order in which the others were generated;
//   * the pool layout (which indices are line-search, mutation, or random
//     candidates) is pure arithmetic over the spec;
//   * each candidate is encoded directly into its row of the caller's
//     persistent `encoded` matrix, so the warm path allocates nothing for
//     staging.
//
// The result: the full search trajectory is a pure function of the seeds,
// which is what the trajectory-pinning tests assert.
#ifndef WAYFINDER_SRC_CORE_PROPOSAL_H_
#define WAYFINDER_SRC_CORE_PROPOSAL_H_

#include <cstdint>
#include <vector>

#include "src/configspace/config_space.h"
#include "src/nn/matrix.h"
#include "src/platform/trial.h"

namespace wayfinder {

// Pool composition knobs (mirrors the searcher options that feed it).
struct ProposalPoolSpec {
  size_t pool_size = 128;
  // Fraction of the pool derived from the elite set (line search + mutation).
  double exploit_fraction = 0.6;
  size_t max_mutations = 4;
  // Emit the model-guided coordinate line-search block (DeepTune's pool head;
  // off when the searcher ranks by a metric list).
  bool line_search = true;
};

// AssembleProposalPool's reusable buffers.
struct PoolScratch {
  std::vector<double> weights;  // MutationWeights for the pool's sample options.
  Matrix elite_rows;            // EncodeInto of each elite, one row per elite.
};

// Fills `pool` (resized to spec.pool_size) and `encoded` (reshaped to
// pool_size x FeatureDimension) with the candidate pool for one proposal
// iteration:
//
//   [ line-search grids | elite mutations | random samples ]
//
// `pool_seed` must change per iteration (the searcher hashes its seed, an
// iteration counter, and one serial draw from the session RNG). The output
// containers and `scratch` should persist across calls: a warm call reuses
// their buffers and allocates nothing.
void AssembleProposalPool(const ConfigSpace& space,
                          const std::vector<Configuration>& elites,
                          const SampleOptions& sample_options,
                          const ProposalPoolSpec& spec, uint64_t pool_seed,
                          std::vector<Configuration>& pool, Matrix& encoded,
                          PoolScratch& scratch);

// Batch selection over a scored pool, for DeepTuneSearcher::ProposeBatch:
// appends up to `n` distinct candidates to `batch` in stable score-descending
// order (ties keep pool order). Candidates whose configuration was already
// evaluated in `history` rank behind unseen ones — the session would only
// dedup-retry them, and each retry costs a full pool re-ranking — but can
// still fill the tail when the pool lacks n distinct unseen members. May
// append fewer than n; callers top up (e.g. with random samples). The
// selection is a pure function of its inputs.
void SelectTopCandidates(const std::vector<double>& scores,
                         const std::vector<Configuration>& pool,
                         const std::vector<TrialRecord>* history, size_t n,
                         std::vector<Configuration>* batch);

// Ring of the most recent `window` evaluated configurations in encoded form,
// for the dissimilarity term of candidate scoring. Stored once, feature-major:
// a dim x window matrix whose column c holds one trial's encoding, written one
// column per synced trial. So the nearest-point scan
// (KernelOps::nearest_sqdist) reads one feature of consecutive trials as one
// vector, with SIMD lanes across trials. Synced incrementally — each trial is
// encoded exactly once, ever, instead of window-many re-encodes per
// iteration. Detects a replaced history (searcher reused across sessions,
// resume into a different prior) and rebuilds from scratch. Dissimilarity
// takes a min over entries, so ring order never affects scores.
class EncodedHistoryRing {
 public:
  // Brings the ring up to date with `history`, encoding only the trials
  // appended since the last call.
  void Sync(const ConfigSpace& space, const std::vector<TrialRecord>& history,
            size_t window);

  // The dim x window feature-major storage; columns >= count() hold no
  // history.
  const Matrix& feature_major() const { return encoded_; }
  // Encoded trials held (<= window).
  size_t count() const { return count_; }
  size_t bytes() const { return (encoded_.size() + staging_.size()) * sizeof(double); }

 private:
  Matrix encoded_;               // dim x window, one trial per column.
  std::vector<double> staging_;  // One trial's encoding, scattered into its column.
  size_t count_ = 0;   // Valid columns (<= window).
  size_t next_ = 0;    // Ring write cursor (a column).
  size_t synced_ = 0;  // History entries consumed so far.
  uint64_t last_synced_hash_ = 0;  // Guards against a swapped history.
};

// Per-searcher proposal-pipeline state: the seeding recipe for the
// counter-derived candidate streams plus the persistent pool/encode/ring
// scratch.
struct ProposalState {
  // Trials the dissimilarity term compares a candidate against: the most
  // recent ones, so older points matter less and scoring costs O(1) per
  // iteration.
  static constexpr size_t kHistoryWindow = 128;

  explicit ProposalState(uint64_t model_seed)
      : search_seed(HashCombine(model_seed, StableHash("proposal-pipeline"))) {}

  // Pool seed for the next Propose: mixes the searcher seed, an iteration
  // counter, and exactly one serial draw of session entropy.
  uint64_t NextPoolSeed(Rng& session_rng) {
    return HashCombine(HashCombine(search_seed, ++iteration), session_rng.Next());
  }

  // Syncs the history ring with `trials` and returns how many ring entries
  // candidate scoring compares against. A null history means no known
  // points: 0, whatever an earlier Propose left in the ring.
  size_t SyncHistory(const ConfigSpace& space, const std::vector<TrialRecord>* trials) {
    if (trials == nullptr) {
      return 0;
    }
    history.Sync(space, *trials, kHistoryWindow);
    return history.count();
  }

  // Live bytes of the proposal scratch (candidate pool, encoded batch,
  // assembly scratch, history ring, per-candidate dissimilarities and
  // normalized σ̂), for the searcher's MemoryBytes accounting.
  size_t ScratchBytes() const {
    size_t bytes = (encoded.size() + pool_scratch.weights.capacity() +
                    pool_scratch.elite_rows.size() + dissimilarity.capacity() +
                    sigma_norm.capacity()) *
                       sizeof(double) +
                   history.bytes();
    for (const Configuration& candidate : pool) {
      bytes += candidate.Size() * sizeof(int64_t);
    }
    return bytes;
  }

  uint64_t search_seed = 0;
  uint64_t iteration = 0;
  std::vector<Configuration> pool;
  Matrix encoded;
  PoolScratch pool_scratch;
  EncodedHistoryRing history;
  std::vector<double> dissimilarity;  // Eq. 2 per pool row (PoolDissimilarity).
  std::vector<double> sigma_norm;     // One head's σ̂ per pool row (NormalizeSigmas).
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_PROPOSAL_H_
