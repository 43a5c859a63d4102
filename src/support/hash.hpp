#pragma once
// Stable hashing shared across layers, one copy of each kind:
//
//   fnv1a64        content hash of a string.  The synthesis cache tags keys
//                  with it, the disk cache stamps every on-disk record with
//                  it, the pass fingerprints hash their canonical keys with
//                  it.  FNV-1a is deliberately simple: keys are compared by
//                  full string everywhere, so the hash only needs to be
//                  stable across platforms and runs, never collision-proof.
//   splitmix64     the repo's deterministic pseudo-random stream (reseeding,
//                  seed evolution, histogram reservoir slots).
//   digest_mix     folds one value into a running 64-bit digest (fuzz case
//                  seeds, knob draws and campaign digests).
//
// All three are pure functions of their inputs, so digests and streams are
// identical on every platform, build and thread count.

#include <cstdint>
#include <string_view>

namespace lbist {

/// 64-bit FNV-1a content hash (stable across platforms and runs).
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// splitmix64's output finalizer: every input bit reaches every output bit.
[[nodiscard]] inline std::uint64_t splitmix64_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One step of the splitmix64 stream: advances `state`, returns the draw.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  return splitmix64_finalize(state);
}

/// Folds `v` into the running digest `h` (hash-combine, then finalize).
[[nodiscard]] inline std::uint64_t digest_mix(std::uint64_t h,
                                              std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return splitmix64_finalize(h);
}

}  // namespace lbist
