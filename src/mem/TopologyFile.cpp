//===- mem/TopologyFile.cpp - Real-machine topology import ----------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mem/TopologyFile.h"

#include "support/FileIO.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace cheetah;

namespace {

/// Reads a JSON number that must be a non-negative integer no larger than
/// \p Max. Kind and range surprises become errors, never asserts.
bool asBoundedUint(const JsonValue &Node, const char *What, uint64_t Max,
                   uint64_t &Out, std::string &Error) {
  if (Node.kind() != JsonValue::Kind::Number) {
    Error = formatString("%s is not a number", What);
    return false;
  }
  double Value = Node.asNumber();
  if (Value < 0 || Value != std::floor(Value)) {
    Error = formatString("%s must be a non-negative integer", What);
    return false;
  }
  if (Value > static_cast<double>(Max)) {
    Error = formatString("%s is out of range (max %llu)", What,
                         static_cast<unsigned long long>(Max));
    return false;
  }
  Out = static_cast<uint64_t>(Value);
  return true;
}

/// Derives the thread pinning map from per-node CPU lists: pairs of
/// (cpu, node) sorted by CPU id, thread t pinned to the node of the t-th
/// CPU — how a pinning script walks the machine's CPU list.
bool pinningFromCpus(const JsonValue &Cpus, uint32_t Nodes,
                     std::vector<NodeId> &Out, std::string &Error) {
  if (!Cpus.isArray()) {
    Error = "'cpus' is not an array";
    return false;
  }
  if (Cpus.size() != Nodes) {
    Error = formatString("'cpus' has %zu node lists, expected %u",
                         Cpus.size(), static_cast<unsigned>(Nodes));
    return false;
  }
  std::vector<std::pair<uint64_t, NodeId>> ByCpu;
  for (uint32_t Node = 0; Node < Cpus.size(); ++Node) {
    const JsonValue &List = Cpus.elements()[Node];
    if (!List.isArray()) {
      Error = formatString("'cpus'[%u] is not an array", Node);
      return false;
    }
    for (size_t I = 0; I < List.size(); ++I) {
      uint64_t Cpu = 0;
      std::string What = formatString("'cpus'[%u][%zu]", Node, I);
      if (!asBoundedUint(List.elements()[I], What.c_str(),
                         NumaTopology::MaxPinnedThreads - 1, Cpu, Error))
        return false;
      ByCpu.push_back({Cpu, Node});
    }
  }
  if (ByCpu.empty()) {
    Error = "'cpus' lists no CPUs";
    return false;
  }
  std::sort(ByCpu.begin(), ByCpu.end());
  for (size_t I = 1; I < ByCpu.size(); ++I)
    if (ByCpu[I].first == ByCpu[I - 1].first) {
      Error = formatString("CPU %llu appears in more than one node list",
                           static_cast<unsigned long long>(ByCpu[I].first));
      return false;
    }
  Out.clear();
  Out.reserve(ByCpu.size());
  for (const auto &[Cpu, Node] : ByCpu)
    Out.push_back(Node);
  return true;
}

} // namespace

bool cheetah::parseTopologyText(const std::string &Text,
                                NumaTopologySpec &Spec, std::string &Error) {
  JsonValue Document;
  if (!JsonValue::parse(Text, Document, Error)) {
    Error = "invalid JSON: " + Error;
    return false;
  }
  if (!Document.isObject()) {
    Error = "topology is not a JSON object";
    return false;
  }

  const JsonValue *Schema = Document.find("schema");
  if (!Schema || Schema->kind() != JsonValue::Kind::String) {
    Error = "field 'schema' missing or not a string";
    return false;
  }
  if (Schema->asString() != "cheetah-topology-v1") {
    Error = formatString(
        "unsupported schema '%s' (expected cheetah-topology-v1)",
        Schema->asString().c_str());
    return false;
  }

  const JsonValue *Nodes = Document.find("nodes");
  if (!Nodes) {
    Error = "field 'nodes' missing";
    return false;
  }
  uint64_t NodeCount = 0;
  if (!asBoundedUint(*Nodes, "'nodes'", NumaTopology::MaxNodes, NodeCount,
                     Error))
    return false;
  Spec.Nodes = static_cast<uint32_t>(NodeCount);

  if (const JsonValue *PageSize = Document.find("page_size")) {
    uint64_t Bytes = 0;
    if (!asBoundedUint(*PageSize, "'page_size'", 1ull << 30, Bytes, Error))
      return false;
    Spec.PageSize = Bytes;
  }

  Spec.Distances.clear();
  if (const JsonValue *Distances = Document.find("distances")) {
    if (!Distances->isArray()) {
      Error = "'distances' is not an array";
      return false;
    }
    for (size_t A = 0; A < Distances->size(); ++A) {
      const JsonValue &Row = Distances->elements()[A];
      if (!Row.isArray()) {
        Error = formatString("'distances'[%zu] is not an array", A);
        return false;
      }
      std::vector<uint32_t> Parsed;
      Parsed.reserve(Row.size());
      for (size_t B = 0; B < Row.size(); ++B) {
        uint64_t Value = 0;
        std::string What = formatString("'distances'[%zu][%zu]", A, B);
        if (!asBoundedUint(Row.elements()[B], What.c_str(),
                           NumaTopology::MaxDistance, Value, Error))
          return false;
        Parsed.push_back(static_cast<uint32_t>(Value));
      }
      Spec.Distances.push_back(std::move(Parsed));
    }
  }

  Spec.ThreadPinning.clear();
  if (const JsonValue *Pinning = Document.find("pinning")) {
    if (!Pinning->isArray()) {
      Error = "'pinning' is not an array";
      return false;
    }
    for (size_t T = 0; T < Pinning->size(); ++T) {
      uint64_t Node = 0;
      std::string What = formatString("'pinning'[%zu]", T);
      if (!asBoundedUint(Pinning->elements()[T], What.c_str(),
                         NumaTopology::MaxNodes - 1, Node, Error))
        return false;
      Spec.ThreadPinning.push_back(static_cast<NodeId>(Node));
    }
    if (Spec.ThreadPinning.size() > NumaTopology::MaxPinnedThreads) {
      Error = formatString("'pinning' has %zu entries (max %zu)",
                           Spec.ThreadPinning.size(),
                           NumaTopology::MaxPinnedThreads);
      return false;
    }
  } else if (const JsonValue *Cpus = Document.find("cpus")) {
    if (!pinningFromCpus(*Cpus, Spec.Nodes, Spec.ThreadPinning, Error))
      return false;
  }

  return NumaTopology::validateSpec(Spec, Error);
}

bool cheetah::loadTopologyFile(const std::string &Path,
                               NumaTopologySpec &Spec, std::string &Error) {
  std::string Text;
  if (!readFile(Path, Text, Error))
    return false;
  if (!parseTopologyText(Text, Spec, Error)) {
    Error = formatString("%s: ", Path.c_str()) + Error;
    return false;
  }
  return true;
}
