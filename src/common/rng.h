// Deterministic pseudo-random number generation.
//
// Every stochastic component in the repository (trace generation, tie
// breaking, local search) draws from an explicitly seeded Rng so that every
// experiment is reproducible bit-for-bit across runs and machines. The
// engine is xoshiro256** (Blackman & Vigna), seeded through SplitMix64 —
// fast, tiny state, and well past the quality bar for simulation workloads.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace aladdin {

// SplitMix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t SplitMix64(std::uint64_t& state);

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  // Raw 64 random bits (UniformRandomBitGenerator interface).
  result_type operator()() { return Next(); }
  std::uint64_t Next();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double UniformDouble();

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Zipf-distributed integer in [1, n] with exponent s > 0. Used for the
  // heavy-tailed application-size distribution (rejection-inversion method,
  // exact for any n without precomputing the harmonic table).
  std::int64_t Zipf(std::int64_t n, double s);

  // Sample an index according to non-negative weights (linear scan; fine for
  // the small categorical draws we make). Requires at least one w > 0.
  std::size_t WeightedIndex(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(
          UniformInt(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace aladdin
