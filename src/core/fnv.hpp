#pragma once
// The one FNV-1a 64 implementation (docs/service.md, docs/robustness.md).
//
// Four users checksum or content-address data with FNV-1a: the checkpoint
// framing (runtime/checkpoint.cpp) and the service result cache's
// content-address digests (service/query.cpp) hash bytes; the
// Configuration hash (core/configuration.cpp) and the DiskStore extent
// digests (phasespace/successor_store.cpp) hash 64-bit words. They used
// to carry private copies of the same constants; this header is now the
// single definition, so a transcription error cannot silently fork the
// hash between the writer and the validator of a persisted artifact.
//
// Header-only and dependency-free on purpose: runtime/ sits below core/
// in the link order but shares its include root, so everything in src/
// can use these without a new library edge.

#include <cstdint>
#include <string_view>

namespace tca::core {

/// FNV-1a 64 parameters (Fowler-Noll-Vo, the standard 64-bit basis/prime).
inline constexpr std::uint64_t kFnvOffsetBasis64 = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime64 = 0x100000001b3ull;

/// One byte-wise FNV-1a step (exposed for incremental hashing).
[[nodiscard]] constexpr std::uint64_t fnv1a64_byte(std::uint64_t h,
                                                   std::uint8_t byte) noexcept {
  return (h ^ byte) * kFnvPrime64;
}

/// FNV-1a 64 over arbitrary bytes. This is the checksum of the checkpoint
/// framing and the content-address digest of the service result cache —
/// changing it invalidates every persisted artifact, so don't.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = kFnvOffsetBasis64;
  for (const char c : bytes) {
    h = fnv1a64_byte(h, static_cast<std::uint8_t>(c));
  }
  return h;
}

/// One word-wise FNV-1a step: xor a whole 64-bit word in, multiply by the
/// prime, then fold the high bits down (FNV over whole words is weak for
/// sparse words). For a fixed word each of the three operations is a
/// bijection of h, and for a fixed h the xor is a bijection of the word,
/// so a sequence hashed with these steps changes its hash whenever any
/// single word changes. The DiskStore extent digest relies on that.
[[nodiscard]] constexpr std::uint64_t fnv1a64_word(std::uint64_t h,
                                                   std::uint64_t w) noexcept {
  h = (h ^ w) * kFnvPrime64;
  return h ^ (h >> 29);
}

}  // namespace tca::core
