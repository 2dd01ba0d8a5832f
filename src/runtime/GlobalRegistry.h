//===- runtime/GlobalRegistry.h - Named global variables --------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registry of named global variables. Cheetah reports falsely-shared
/// globals by "searching through the symbol table in the binary executable"
/// (Section 2.4); in simulation globals are registered explicitly with a
/// name and size and placed in a dedicated address region (the moral
/// equivalent of the .data/.bss segment).
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_RUNTIME_GLOBALREGISTRY_H
#define CHEETAH_RUNTIME_GLOBALREGISTRY_H

#include "mem/CacheGeometry.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cheetah {
namespace runtime {

/// One registered global variable.
struct GlobalVariable {
  std::string Name;
  uint64_t Start = 0;
  uint64_t Size = 0;

  uint64_t end() const { return Start + Size; }
  bool contains(uint64_t Address) const {
    return Address >= Start && Address < end();
  }
};

/// Lays registered globals out in a fixed "segment" and answers
/// address-to-name queries.
class GlobalRegistry {
public:
  /// \param SegmentBase first address of the simulated data segment.
  /// \param SegmentSize byte size of the segment.
  GlobalRegistry(uint64_t SegmentBase, uint64_t SegmentSize,
                 const CacheGeometry &Geometry);

  /// Registers a global of \p Size bytes; consecutive globals are packed
  /// with natural 8-byte alignment exactly like a linker would pack .data,
  /// so adjacent small globals can share a cache line (a classic false-
  /// sharing source).
  /// \returns its assigned start address, or 0 if the segment is full.
  uint64_t define(const std::string &Name, uint64_t Size);

  /// Like define() but aligns the global to a cache-line boundary (the
  /// "fixed" layout a programmer gets with alignas(64)).
  uint64_t defineAligned(const std::string &Name, uint64_t Size);

  /// \returns the global containing \p Address, or nullptr.
  const GlobalVariable *globalAt(uint64_t Address) const;

  /// \returns true if \p Address lies inside the managed segment.
  bool covers(uint64_t Address) const {
    return Address >= SegmentBase && Address < SegmentBase + SegmentSize;
  }

  const std::vector<GlobalVariable> &globals() const { return Globals; }

private:
  uint64_t defineImpl(const std::string &Name, uint64_t Size,
                      uint64_t Alignment);

  uint64_t SegmentBase;
  uint64_t SegmentSize;
  uint64_t Cursor;
  CacheGeometry Geometry;
  std::vector<GlobalVariable> Globals;
  std::map<uint64_t, size_t> ByAddress;
};

} // namespace runtime
} // namespace cheetah

#endif // CHEETAH_RUNTIME_GLOBALREGISTRY_H
