//===- runtime/Callsite.cpp - Allocation callsite interning --------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Callsite.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

using namespace cheetah;
using namespace cheetah::runtime;

CallsiteTable::CallsiteTable() {
  // Id 0 is the unknown callsite.
  Sites.push_back(Callsite{});
}

CallsiteId CallsiteTable::intern(Callsite Site) {
  if (Site.Frames.size() > MaxCallsiteFrames)
    Site.Frames.resize(MaxCallsiteFrames);
  auto It = Index.find(Site);
  if (It != Index.end())
    return It->second;
  CallsiteId Id = static_cast<CallsiteId>(Sites.size());
  Index.emplace(Site, Id);
  Sites.push_back(std::move(Site));
  return Id;
}

CallsiteId CallsiteTable::intern(const std::string &File, unsigned Line) {
  Callsite Site;
  Site.Frames.push_back(formatString("%s:%u", File.c_str(), Line));
  return intern(std::move(Site));
}

const Callsite &CallsiteTable::get(CallsiteId Id) const {
  CHEETAH_ASSERT(Id < Sites.size(), "callsite id out of range");
  return Sites[Id];
}
