// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (workload synthesis, property
// tests) use `Rng`, a xoshiro256** generator seeded through splitmix64,
// so every experiment is reproducible from a single 64-bit seed.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "support/diagnostics.h"

namespace qvliw {

/// splitmix64 step; used for seeding and as a stateless hash.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless 64-bit mix of `value` (one splitmix64 round).
[[nodiscard]] std::uint64_t hash64(std::uint64_t value);

/// Combines two 64-bit values into one hash.
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

/// Deterministic 64-bit hash of a byte string (FNV-1a folded through
/// hash64).  Platform- and process-independent, unlike std::hash — safe to
/// pin in golden tests.
[[nodiscard]] std::uint64_t hash_bytes(std::string_view bytes);

/// xoshiro256** PRNG. Not a std-style engine on purpose: the interface is
/// the handful of draws the library needs, each bias-free.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit draw.
  std::uint64_t next();

  /// Uniform integer in [lo, hi], inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Uniform 64-bit integer in [lo, hi], inclusive.
  std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform();

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli draw with probability `p` of true.
  bool chance(double p);

  /// Standard normal via Box-Muller.
  double normal();

  /// Draws an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted(const std::vector<double>& weights);

  /// Uniformly selects an element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    check(!items.empty(), "Rng::pick on empty vector");
    return items[static_cast<std::size_t>(uniform_i64(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  /// Derives an independent child generator (for per-loop substreams).
  Rng fork();

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace qvliw
