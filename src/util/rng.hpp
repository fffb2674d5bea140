#pragma once
// Deterministic pseudo-random number generation for every stochastic
// component in MiniCost.
//
// All simulators, trace generators, and RL agents take an explicit Rng (or a
// seed) so that experiments are reproducible run-to-run; there is no global
// RNG state anywhere in the library. The engine is xoshiro256** seeded via
// SplitMix64, which is fast, has a 2^256-1 period, and passes BigCrush.

#include <array>
#include <cstdint>
#include <vector>

namespace minicost::util {

/// Counter-based seed expander (Steele et al.). Used to seed xoshiro and to
/// derive independent child seeds from a parent seed.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** engine plus the distribution helpers the library needs.
///
/// Satisfies UniformRandomBitGenerator so it can also be plugged into
/// <random> distributions, but the members below are branch-light and
/// deterministic across platforms (libstdc++ distributions are not
/// guaranteed to produce identical streams across versions).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  double next_double() noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Standard normal via Box-Muller (cached second variate).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation (sd >= 0).
  double normal(double mean, double sd) noexcept;

  /// Poisson-distributed count with the given mean. Uses Knuth's product
  /// method for small means and a normal approximation for mean > 64 —
  /// the trace generator draws sizes/frequencies with means in the hundreds.
  std::uint64_t poisson(double mean) noexcept;

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) noexcept;

  /// Derive an independent child generator; stream i is stable for a given
  /// parent seed. Used to give each file / worker its own stream so results
  /// do not depend on evaluation order or thread interleaving.
  Rng fork(std::uint64_t stream) const noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample an index from an (unnormalized) non-negative weight vector.
  /// Returns weights.size()-1 on accumulated rounding shortfall.
  std::size_t weighted_index(const std::vector<double>& weights) noexcept;

 private:
  std::uint64_t seed_;  // retained so fork() derives stable child streams
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace minicost::util
