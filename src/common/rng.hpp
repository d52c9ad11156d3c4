// Deterministic, seedable pseudo-random number generation.
//
// Simulations must be bit-reproducible across runs and platforms, so we
// implement xoshiro256** (Blackman & Vigna) rather than relying on the
// implementation-defined distributions of <random>.
#pragma once

#include <array>
#include <cstdint>

namespace capart {

/// xoshiro256** generator with SplitMix64 seeding.
///
/// Satisfies std::uniform_random_bit_generator, and additionally provides the
/// bounded-integer / unit-double helpers the trace generators need, with
/// platform-independent results.
///
/// The per-draw methods are defined inline: the trace generators draw tens of
/// millions of times per run, and an out-of-line xoshiro step costs more in
/// call overhead than in arithmetic.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be nonzero.
  std::uint64_t below(std::uint64_t bound) noexcept {
    // Lemire's multiply-shift bounded generation (biased by < 2^-64 for the
    // bounds used here; acceptable for workload synthesis).
    __extension__ using uint128 = unsigned __int128;
    const std::uint64_t x = (*this)();
    const uint128 m = static_cast<uint128>(x) * static_cast<uint128>(bound);
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform lattice index k in [0, 2^53): unit() is k * 2^-53, so a
  /// quantity computed from unit() is a function of k.
  std::uint64_t lattice() noexcept { return (*this)() >> 11; }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double unit() noexcept {
    return static_cast<double>(lattice()) * 0x1.0p-53;
  }

  /// Bernoulli draw with success probability `p` (clamped to [0, 1]).
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return unit() < p;
  }

  /// Derives an independent stream for a child component. Deterministic in
  /// (parent seed, tag), so component streams never depend on call order.
  Rng fork(std::uint64_t tag) const noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
  std::uint64_t seed_;  // retained so fork() is order-independent
};

}  // namespace capart
