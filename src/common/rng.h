// Deterministic random-number utilities.
//
// All stochastic components of the reproduction (synthetic RPM task
// generation, hypervector codebook sampling, workload perturbation sweeps)
// draw from an explicitly-seeded `Rng` so that every table and figure is
// bit-reproducible run to run.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.h"

namespace nsflow {

/// MT19937-64 that refills its output a block at a time: each refill
/// twists the 312-word state and tempers all 312 words, so a draw is one
/// load. It emits exactly the `std::mt19937_64` word sequence for the same
/// seed (the standard pins that sequence), and it is a uniform random bit
/// generator, so std distributions draw from it what they would draw from
/// the std engine.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kWords = 312;

  explicit Mt19937_64(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kWords) {
      Refill();
    }
    return block_[next_++];
  }

 private:
  void Refill();

  std::array<std::uint64_t, kWords> state_;
  std::array<std::uint64_t, kWords> block_;
  std::size_t next_ = kWords;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5f3759df) : engine_(seed) {}

  /// The next raw 64-bit engine word.
  std::uint64_t Word() { return engine_(); }

  /// The [0, 1) double libstdc++'s `generate_canonical<double, 53>` makes
  /// from one 64-bit word, without its branches: the word rounded once to
  /// double (its two 32-bit halves convert exactly), scaled by 2^-64, and
  /// clamped below 1 (words within 2^10 of 2^64 round up to 1.0).
  static double UnitFromWord(std::uint64_t word) {
    const double rounded =
        static_cast<double>(static_cast<std::uint32_t>(word >> 32)) * 0x1p32 +
        static_cast<double>(static_cast<std::uint32_t>(word));
    return std::min(rounded * 0x1p-64, 0x1.fffffffffffffp-1);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    NSF_DCHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi): bit-identical to
  /// `std::uniform_real_distribution<double>(lo, hi)` under libstdc++.
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return UnitFromWord(engine_()) * (hi - lo) + lo;
  }

  /// Standard normal scaled by `stddev` around `mean`.
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli draw.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Random sign in {-1.0, +1.0} — the bipolar draw used for hypervectors.
  double Sign() { return Bernoulli(0.5) ? 1.0 : -1.0; }

  /// Sample `k` distinct indices from [0, n).
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

 private:
  Mt19937_64 engine_;
};

}  // namespace nsflow
