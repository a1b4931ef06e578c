#pragma once

// Deterministic random number generation for simulations.
//
// Every stochastic component in QuickSand takes an explicit Rng (or a seed)
// so that experiments are reproducible bit-for-bit. The engine is
// xoshiro256**, seeded via splitmix64 per the reference implementation,
// which gives solid statistical quality at a few ns per draw.

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace quicksand::netbase {

/// xoshiro256** pseudo-random generator with simulation-oriented helpers.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds deterministically from a single 64-bit value via splitmix64.
  explicit Rng(std::uint64_t seed) noexcept {
    std::uint64_t x = seed;
    for (auto& word : state_) word = SplitMix64(x);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent child generator; use to give each simulated
  /// component its own stream without correlated draws.
  [[nodiscard]] Rng Fork() noexcept { return Rng((*this)() ^ 0x9E3779B97F4A7C15ULL); }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::uint64_t UniformInt(std::uint64_t lo, std::uint64_t hi) noexcept {
    // Lemire-style rejection-free bounded draw is overkill here; modulo bias
    // is < 2^-32 for all ranges used in the simulations.
    const std::uint64_t span = hi - lo + 1;
    return span == 0 ? (*this)() : lo + (*this)() % span;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double UniformDouble() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double UniformDouble(double lo, double hi) noexcept {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool Bernoulli(double p) noexcept { return UniformDouble() < p; }

  /// Exponentially distributed value with the given mean (> 0).
  [[nodiscard]] double Exponential(double mean) noexcept {
    double u = UniformDouble();
    if (u <= 0.0) u = 0x1.0p-53;  // avoid log(0)
    return -mean * std::log(u);
  }

  /// Pareto-distributed value with scale x_min and shape alpha (> 0).
  /// Heavy-tailed: used for per-prefix churn intensity and bandwidths.
  [[nodiscard]] double Pareto(double x_min, double alpha) noexcept {
    double u = UniformDouble();
    if (u <= 0.0) u = 0x1.0p-53;
    return x_min / std::pow(u, 1.0 / alpha);
  }

  /// Index in [0, weights.size()) drawn proportionally to weights.
  /// Throws std::invalid_argument if weights is empty, holds a negative or
  /// non-finite weight, or does not sum to a positive finite total.
  [[nodiscard]] std::size_t WeightedIndex(std::span<const double> weights) {
    double total = 0;
    for (double w : weights) {
      if (!std::isfinite(w) || w < 0) {
        throw std::invalid_argument("WeightedIndex: negative or non-finite weight");
      }
      total += w;
    }
    if (weights.empty() || !(total > 0) || !std::isfinite(total)) {
      throw std::invalid_argument("WeightedIndex: empty or non-positive weights");
    }
    double target = UniformDouble() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      target -= weights[i];
      if (target < 0) return i;
    }
    return weights.size() - 1;  // numeric slop: return last index
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[UniformInt(0, i - 1)]);
    }
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  static constexpr std::uint64_t SplitMix64(std::uint64_t& x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Samples ranks from a Zipf distribution with exponent s over {0,..,n-1}
/// using precomputed cumulative weights. Rank 0 is the most popular.
/// Used to model the skewed concentration of Tor relays across ASes.
class ZipfSampler {
 public:
  /// Throws std::invalid_argument if n == 0 or s < 0.
  ZipfSampler(std::size_t n, double s) {
    if (n == 0) throw std::invalid_argument("ZipfSampler: n must be positive");
    if (s < 0) throw std::invalid_argument("ZipfSampler: s must be non-negative");
    cumulative_.reserve(n);
    double total = 0;
    for (std::size_t rank = 1; rank <= n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), s);
      cumulative_.push_back(total);
    }
  }

  /// Number of ranks.
  [[nodiscard]] std::size_t size() const noexcept { return cumulative_.size(); }

  /// Probability mass of a rank in [0, size()).
  [[nodiscard]] double Probability(std::size_t rank) const {
    const double total = cumulative_.back();
    const double below = rank == 0 ? 0.0 : cumulative_[rank - 1];
    return (cumulative_[rank] - below) / total;
  }

  /// Draws a rank in [0, size()).
  [[nodiscard]] std::size_t Sample(Rng& rng) const noexcept {
    const double target = rng.UniformDouble() * cumulative_.back();
    // Binary search for the first cumulative weight >= target.
    std::size_t lo = 0, hi = cumulative_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cumulative_[mid] < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cumulative_;
};

}  // namespace quicksand::netbase
