#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace cbs::sim {

/// SplitMix64 — used to expand seeds into full xoshiro state and to derive
/// independent named substreams. Reference: Steele, Lea & Flood (2014).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — a small, fast, high-quality PRNG with a 2^256-1 period.
/// We implement it ourselves (rather than use std::mt19937_64) so that every
/// experiment is bit-reproducible across standard libraries and platforms.
///
/// Satisfies std::uniform_random_bit_generator, so it plugs into <random>
/// distributions as well as the hand-rolled ones in cbs::stats.
class RngStream {
 public:
  using result_type = std::uint64_t;

  /// The full generator state. Saving and later restoring it reproduces the
  /// exact draw sequence — the primitive snapshot/fork support is built on.
  using State = std::array<std::uint64_t, 4>;

  /// Seeds the stream from a single 64-bit value via SplitMix64 expansion.
  explicit RngStream(std::uint64_t seed) noexcept;

  /// Derives an independent child stream identified by `name`. Streams with
  /// different names (or different parents) are statistically independent;
  /// the same (parent, name) pair always yields the same child. This is the
  /// mechanism every simulation component uses to get its own RNG, so that
  /// adding a component never perturbs another component's draws.
  [[nodiscard]] RngStream substream(std::string_view name) const noexcept;

  /// Derives an independent child stream by index (e.g. per machine).
  [[nodiscard]] RngStream substream(std::uint64_t index) const noexcept;

  // next/next_double/uniform are defined here so that a per-document draw
  // loop (the workload generator) inlines them instead of calling out.
  std::uint64_t next() noexcept {
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
  result_type operator()() noexcept { return next(); }

  /// Uniform double in [0, 1): 53 random mantissa bits, the canonical
  /// construction.
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [lo, hi] (inclusive), requires lo <= hi.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Snapshot of the generator state (value semantics; no hidden state).
  [[nodiscard]] const State& state() const noexcept { return state_; }

  /// Restores a previously saved state; subsequent draws replay exactly.
  void set_state(const State& state) noexcept { state_ = state; }

  friend bool operator==(const RngStream&, const RngStream&) = default;

 private:
  State state_{};

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// FNV-1a hash of a string, used for substream derivation.
[[nodiscard]] std::uint64_t hash_name(std::string_view name) noexcept;

}  // namespace cbs::sim
