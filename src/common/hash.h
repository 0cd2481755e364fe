#ifndef UCTR_COMMON_HASH_H_
#define UCTR_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

/// \brief The repo's one non-cryptographic hash: FNV-1a (64- and 32-bit)
/// and the splitmix64 finalizer. Every content identity, cache key,
/// checksum and derived seed is computed here. FNV-1a streams: pass the
/// previous result as `state` to hash pieces as if concatenated.
namespace uctr::hash {

inline constexpr uint64_t kFnv64Basis = 14695981039346656037ull;

/// The standard basis with its last digit dropped, so not standard
/// FNV-1a. Its values are persisted or client-visible, so it stays until
/// identities move to a collision-resistant hash (ROADMAP item 4). Table
/// refs (store::Codec::Fingerprint), codec and WAL checksums
/// (Codec::Checksum64), ring positions (net::ConsistentRing::Hash), the
/// schema and program fingerprints and the result-cache keys use it.
inline constexpr uint64_t kFnv64TruncatedBasis = 1469598103934665603ull;

inline constexpr uint64_t kFnv64Prime = 1099511628211ull;
inline constexpr uint32_t kFnv32Basis = 2166136261u;
inline constexpr uint32_t kFnv32Prime = 16777619u;

/// splitmix64's increment (2^64 / golden ratio), for spreading seeds.
inline constexpr uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

constexpr uint64_t Fnv1a64(std::string_view bytes,
                           uint64_t state = kFnv64Basis) {
  for (char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= kFnv64Prime;
  }
  return state;
}

constexpr uint32_t Fnv1a32(std::string_view bytes,
                           uint32_t state = kFnv32Basis) {
  for (char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= kFnv32Prime;
  }
  return state;
}

/// \brief The splitmix64 finalizer: a bijective avalanche mix.
constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace uctr::hash

#endif  // UCTR_COMMON_HASH_H_
