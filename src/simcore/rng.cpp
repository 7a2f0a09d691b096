#include "simcore/rng.hpp"

namespace cbs::sim {

std::uint64_t hash_name(std::string_view name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

RngStream::RngStream(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& s : state_) s = sm.next();
  // A theoretically possible all-zero state would lock the generator at 0.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t RngStream::fingerprint() const noexcept {
  // Mixes the current state into one word without advancing the stream.
  SplitMix64 sm(state_[0] ^ rotl(state_[1], 13) ^ rotl(state_[2], 29) ^
                rotl(state_[3], 47));
  return sm.next();
}

RngStream RngStream::substream(std::string_view name) const noexcept {
  return RngStream(fingerprint() ^ hash_name(name));
}

RngStream RngStream::substream(std::uint64_t index) const noexcept {
  SplitMix64 sm(fingerprint() ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  return RngStream(sm.next());
}

std::uint64_t RngStream::uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full 64-bit range requested
  // Lemire's rejection-free-in-expectation bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * span;
  auto l = static_cast<std::uint64_t>(m);
  if (l < span) {
    const std::uint64_t floor = (0 - span) % span;
    while (l < floor) {
      x = next();
      m = static_cast<__uint128_t>(x) * span;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::uint64_t>(m >> 64);
}

}  // namespace cbs::sim
