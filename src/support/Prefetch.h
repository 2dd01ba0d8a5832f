//===- support/Prefetch.h - Software-prefetch hints -------------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Portable software-prefetch hints for the batched ingestion sweeps: the
/// shadow tables are walked at random addresses, so the sweeps pull the
/// next slots toward the cache a fixed distance ahead of their use.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SUPPORT_PREFETCH_H
#define CHEETAH_SUPPORT_PREFETCH_H

namespace cheetah {
namespace support {

/// Hints the hardware prefetcher to pull \p Address toward the cache for a
/// read. A hint only: safe on any address, including unmapped ones, and a
/// no-op on compilers without the builtin.
inline void prefetchForRead(const void *Address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(Address, /*rw=*/0, /*locality=*/3);
#else
  (void)Address;
#endif
}

/// Same hint with write intent (the line is fetched in exclusive state, so
/// the following atomic RMW skips the shared-to-exclusive upgrade).
inline void prefetchForWrite(const void *Address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(Address, /*rw=*/1, /*locality=*/3);
#else
  (void)Address;
#endif
}

} // namespace support
} // namespace cheetah

#endif // CHEETAH_SUPPORT_PREFETCH_H
