#include "src/util/rng.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace wayfinder {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t StableHash(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  uint64_t state = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return SplitMix64(state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {
    // Full 64-bit range.
    return static_cast<int64_t>(Next());
  }
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t draw;
  do {
    draw = Next();
  } while (draw >= limit);
  return lo + static_cast<int64_t>(draw % span);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  double u2 = Uniform();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

bool Rng::Bernoulli(double p) { return Uniform() < p; }

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    total += (w > 0.0 ? w : 0.0);
  }
  assert(total > 0.0);
  double draw = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += (weights[i] > 0.0 ? weights[i] : 0.0);
    if (draw < acc) {
      return i;
    }
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(HashCombine(Next(), Next())); }

std::string Rng::SerializeState() const {
  // Five hex words + a cached flag: the four xoshiro words, then the cached
  // Box-Muller normal as its IEEE-754 bit pattern (exact round trip).
  char buffer[128];
  uint64_t cached_bits;
  static_assert(sizeof(cached_bits) == sizeof(cached_normal_), "double is 64-bit");
  std::memcpy(&cached_bits, &cached_normal_, sizeof(cached_bits));
  std::snprintf(buffer, sizeof(buffer), "%016llx %016llx %016llx %016llx %d %016llx",
                static_cast<unsigned long long>(state_[0]),
                static_cast<unsigned long long>(state_[1]),
                static_cast<unsigned long long>(state_[2]),
                static_cast<unsigned long long>(state_[3]),
                has_cached_normal_ ? 1 : 0,
                static_cast<unsigned long long>(cached_bits));
  return buffer;
}

bool Rng::DeserializeState(const std::string& text) {
  unsigned long long words[4];
  int has_cached = 0;
  unsigned long long cached_bits = 0;
  if (std::sscanf(text.c_str(), "%llx %llx %llx %llx %d %llx", &words[0], &words[1],
                  &words[2], &words[3], &has_cached, &cached_bits) != 6 ||
      (has_cached != 0 && has_cached != 1)) {
    return false;
  }
  for (size_t i = 0; i < 4; ++i) {
    state_[i] = static_cast<uint64_t>(words[i]);
  }
  has_cached_normal_ = has_cached == 1;
  uint64_t bits = static_cast<uint64_t>(cached_bits);
  std::memcpy(&cached_normal_, &bits, sizeof(cached_normal_));
  return true;
}

}  // namespace wayfinder
