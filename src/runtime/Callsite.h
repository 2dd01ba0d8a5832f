//===- runtime/Callsite.h - Allocation callsite interning -------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocation-callsite records. Cheetah intercepts every allocation and
/// keeps up to five call-stack frames (paper Section 2.4) so falsely-shared
/// heap objects can be reported by source line; callsites are interned so a
/// hot allocation site costs one integer per object.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_RUNTIME_CALLSITE_H
#define CHEETAH_RUNTIME_CALLSITE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cheetah {
namespace runtime {

/// Identifier of an interned callsite; 0 is "unknown".
using CallsiteId = uint32_t;

/// Maximum stack depth kept per callsite ("we only collect five function
/// entries on the call stack for performance reasons").
inline constexpr size_t MaxCallsiteFrames = 5;

/// One allocation callsite: innermost frame first, e.g.
/// "linear_regression-pthread.c:139".
struct Callsite {
  std::vector<std::string> Frames;

  bool operator<(const Callsite &Other) const { return Frames < Other.Frames; }
};

/// Deduplicating store of callsites.
class CallsiteTable {
public:
  CallsiteTable();

  /// Interns \p Site (truncated to MaxCallsiteFrames frames).
  CallsiteId intern(Callsite Site);

  /// Convenience: interns a single "file:line" frame.
  CallsiteId intern(const std::string &File, unsigned Line);

  /// \returns the callsite for \p Id; Id 0 yields the unknown callsite.
  const Callsite &get(CallsiteId Id) const;

  /// Number of interned callsites including the unknown sentinel.
  size_t size() const { return Sites.size(); }

private:
  std::vector<Callsite> Sites;
  std::map<Callsite, CallsiteId> Index;
};

} // namespace runtime
} // namespace cheetah

#endif // CHEETAH_RUNTIME_CALLSITE_H
