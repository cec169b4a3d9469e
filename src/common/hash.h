#ifndef TOPKDUP_COMMON_HASH_H_
#define TOPKDUP_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace topkdup {

/// SplitMix64: adds the golden-ratio increment, then applies the
/// finalizer. A fixed bijective mix, so anything drawn from it (sampling
/// verdicts, fault draws, retry jitter, Rng seeding) depends only on the
/// key, never on thread schedule or RNG state.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// 64-bit FNV-1a of the bytes of `s`: stable across processes and
/// platforms, so it can name files and tag persisted images.
inline uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace topkdup

#endif  // TOPKDUP_COMMON_HASH_H_
