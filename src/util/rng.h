// Deterministic, forkable pseudo-random number generation.
//
// Everything in Wayfinder that is stochastic (space sampling, the simulated
// kernel's behaviour, NN initialization, search policies) draws from an
// explicit Rng instance so that whole experiments replay bit-identically from
// a single seed. The generator is xoshiro256++, seeded via splitmix64.
#ifndef WAYFINDER_SRC_UTIL_RNG_H_
#define WAYFINDER_SRC_UTIL_RNG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wayfinder {

// Mixes a 64-bit state into a well-distributed output. Used for seeding and
// for stateless per-key randomness (see HashMix / StableHash).
uint64_t SplitMix64(uint64_t& state);

// FNV-1a hash of a string, for deriving stable per-name seeds.
uint64_t StableHash(std::string_view text);

// Combines two 64-bit values into one hash, order-sensitive.
uint64_t HashCombine(uint64_t a, uint64_t b);

// xoshiro256++ generator with convenience sampling methods.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Returns the next raw 64-bit output. Next and the two Uniform draws are
  // defined here so that callers (dropout's 2,048 draws per training step,
  // the weight initializers) inline them.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double Uniform() {
    // 53 random bits into the mantissa.
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Standard normal via Box-Muller (cached second value).
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  // Index in [0, weights.size()) with probability proportional to weights.
  // Requires at least one strictly positive weight.
  size_t WeightedIndex(const std::vector<double>& weights);

  // Returns a statistically independent child generator. Forking advances
  // this generator, so repeated forks yield distinct streams.
  Rng Fork();

  // Full generator state (xoshiro words + the cached Box-Muller value) as a
  // single line of hex tokens, and its inverse. Checkpoints persist these so
  // a resumed session's randomness continues exactly where the interrupted
  // run stopped. DeserializeState rejects malformed text and leaves the
  // generator untouched.
  std::string SerializeState() const;
  bool DeserializeState(const std::string& text);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_UTIL_RNG_H_
