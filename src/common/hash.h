// 64-bit hashing utilities used by state backends and partitioners.
#ifndef SLASH_COMMON_HASH_H_
#define SLASH_COMMON_HASH_H_

#include <cstdint>

namespace slash {

/// Mixes a 64-bit integer (SplitMix64 finalizer). Fast, high-quality
/// avalanche; suitable for hash-table bucket selection on integer keys.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A hash fingerprint pair used by the FASTER-style hash index: `bucket`
/// selects the bucket, `tag` disambiguates entries within a bucket without
/// touching the record itself.
struct KeyHash {
  uint64_t bucket_hash;
  uint16_t tag;
};

/// Computes bucket hash and tag for an integer key.
inline KeyHash HashKey(uint64_t key) {
  uint64_t h = Mix64(key);
  return KeyHash{h, static_cast<uint16_t>((h >> 48) | 1u)};
}

}  // namespace slash

#endif  // SLASH_COMMON_HASH_H_
