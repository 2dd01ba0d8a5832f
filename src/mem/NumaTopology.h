//===- mem/NumaTopology.h - Simulated NUMA topology -------------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated NUMA machine model: a node count, a page geometry, a
/// per-node-pair *distance matrix*, and a thread-to-node affinity. Pages are
/// the placement granularity of NUMA systems the way cache lines are the
/// coherence granularity of a socket, so the page-level sharing detector
/// keys every decision on this model: a page's *home* node is the node of
/// its first toucher (the OS first-touch placement policy), and an access
/// is *remote* when the issuing thread's node differs from the page's home.
///
/// Distances follow the ACPI SLIT shape real machines export through
/// `numactl --hardware` (and that prism's get-numa-config.sh probes): a
/// symmetric matrix with a zero diagonal whose off-diagonal entries grow
/// with hop count. Remote surcharges scale with the distance *normalized to
/// the minimum remote distance*, so the default uniform matrix (every
/// remote pair at DefaultRemoteDistance) reproduces the pre-distance
/// binary local/remote model bit for bit.
///
/// Affinity defaults to interleave by thread id (tid % nodes, main thread
/// on node 0) — the deterministic analogue of a round-robin pthread pinning
/// script — and can be overridden by an explicit thread→node pinning map
/// imported from a real machine's topology file (mem/TopologyFile.h).
///
/// Construction from *external* data (files, CLI flags) must go through
/// validateSpec()/fromSpec(), which report errors instead of asserting;
/// the asserting constructor remains for programmatic use where a bad
/// value is a bug in the caller.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_MEM_NUMATOPOLOGY_H
#define CHEETAH_MEM_NUMATOPOLOGY_H

#include "mem/MemoryAccess.h"
#include "support/Assert.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cheetah {

/// NUMA node identifier within one simulated machine.
using NodeId = uint32_t;

/// Sentinel for "no node recorded yet" (untouched pages).
inline constexpr NodeId NoNode = ~static_cast<NodeId>(0);

/// Remote traffic bucketed by the node-pair distance it crossed: the
/// per-finding `remoteByDistance` evidence the detector records and the
/// report schema (cheetah-report-v4 and later) exposes.
struct RemoteDistanceStats {
  /// SLIT-style node-pair distance (accessor node to page home).
  uint32_t Distance = 0;
  uint64_t Accesses = 0;
  uint64_t Cycles = 0;
};

/// Plain-data description of a topology, the exchange format between the
/// file loader / CLI flags and the validated NumaTopology. Everything a
/// real machine's probe script exports: node count, page geometry, the
/// distance table, and an explicit thread pinning map.
struct NumaTopologySpec {
  uint32_t Nodes = 1;
  uint64_t PageSize = 4096;
  /// Nodes x Nodes distance matrix; empty = uniform (every remote pair at
  /// NumaTopology::DefaultRemoteDistance, zero diagonal).
  std::vector<std::vector<uint32_t>> Distances;
  /// Explicit thread→node map: thread t runs on ThreadPinning[t % size()].
  /// Empty = interleave (tid % Nodes).
  std::vector<NodeId> ThreadPinning;
};

/// Node count, page geometry, distance matrix, and thread affinity of the
/// simulated machine.
class NumaTopology {
public:
  /// Page-detector metadata packs per-node slots into fixed arrays; real
  /// testbeds top out far below this.
  static constexpr uint32_t MaxNodes = 16;

  /// Off-diagonal distance of the default uniform matrix. The absolute
  /// value is irrelevant (surcharges use the ratio to the minimum remote
  /// distance); 10 mirrors the SLIT unit convention.
  static constexpr uint32_t DefaultRemoteDistance = 10;

  /// Upper bound accepted for one matrix entry — far above any real SLIT
  /// and small enough that Base * Distance never overflows 64 bits.
  static constexpr uint32_t MaxDistance = 1u << 20;

  /// Longest thread pinning map accepted from external data.
  static constexpr size_t MaxPinnedThreads = 4096;

  /// One node with 4 KiB pages. Not explicit, so an aggregate holding a
  /// topology (core::ProfilerConfig, driver::SessionConfig) value-initializes
  /// from `{}`.
  NumaTopology() : NumaTopology(1) {}

  /// Uniform-distance topology (asserting; programmatic use only).
  /// \param Nodes number of NUMA nodes (1 = UMA, detection disabled-ish).
  /// \param PageSize page size in bytes; power of two >= 256.
  explicit NumaTopology(uint32_t Nodes, uint64_t PageSize = 4096)
      : Nodes(Nodes), PageBytes(PageSize) {
    CHEETAH_ASSERT(Nodes >= 1 && Nodes <= MaxNodes,
                   "node count must be in [1, MaxNodes]");
    CHEETAH_ASSERT(PageSize >= 256 && (PageSize & (PageSize - 1)) == 0,
                   "page size must be a power of two >= 256");
    computePageShift();
    fillUniformDistances();
  }

  /// Checks \p Spec against every topology invariant: node count in
  /// [1, MaxNodes], page size a power of two >= 256, distance matrix (when
  /// present) Nodes x Nodes with a zero diagonal, symmetric, off-diagonal
  /// entries in [1, MaxDistance], and pinning entries (when present) below
  /// the node count. On failure fills \p Error and returns false — never
  /// asserts, so hostile file/flag input cannot abort the tool.
  static bool validateSpec(const NumaTopologySpec &Spec, std::string &Error);

  /// Fallible factory for file- and flag-sourced construction: validates
  /// \p Spec and, on success, fills \p Out. \returns false (with \p Error
  /// set) on any invariant violation.
  static bool fromSpec(const NumaTopologySpec &Spec, NumaTopology &Out,
                       std::string &Error);

  /// Number of NUMA nodes.
  uint32_t nodeCount() const { return Nodes; }

  /// True when the machine has more than one node (remote accesses exist).
  bool multiNode() const { return Nodes > 1; }

  /// SLIT-style distance between \p A and \p B (0 when A == B; symmetric).
  uint32_t distance(NodeId A, NodeId B) const {
    CHEETAH_ASSERT(A < Nodes && B < Nodes, "node id out of range");
    return Distances[A][B];
  }

  /// Smallest off-diagonal distance — the normalization anchor: a remote
  /// access at this distance pays exactly the base surcharge.
  uint32_t minRemoteDistance() const { return MinRemote; }

  /// Largest off-diagonal distance.
  uint32_t maxRemoteDistance() const { return MaxRemote; }

  /// True when every remote pair sits at one distance (the default
  /// matrix). Uniform topologies reproduce the binary local/remote model
  /// exactly, which is what keeps pre-distance goldens byte-stable.
  bool uniformRemoteDistances() const { return MinRemote == MaxRemote; }

  /// Scales a base remote surcharge hop-proportionally: the surcharge for
  /// crossing \p From -> \p To is Base * distance / minRemoteDistance(),
  /// in integer cycles (exactly Base at the minimum remote distance, 0 for
  /// a local pair).
  uint64_t scaledRemoteCycles(uint32_t BaseCycles, NodeId From,
                              NodeId To) const {
    return static_cast<uint64_t>(BaseCycles) * distance(From, To) / MinRemote;
  }

  /// Page size in bytes.
  uint64_t pageSize() const { return PageBytes; }

  /// log2(pageSize()); the page table maps addresses by bit shifting just
  /// like the line-granularity shadow memory (paper Section 2.2).
  unsigned pageShift() const { return PageShiftBits; }

  /// \returns the global page index of \p Address.
  uint64_t pageIndex(uint64_t Address) const {
    return Address >> PageShiftBits;
  }

  /// \returns the first byte address of the page containing \p Address.
  uint64_t pageBase(uint64_t Address) const {
    return Address & ~(PageBytes - 1);
  }

  /// \returns the byte offset of \p Address within its page.
  uint64_t offsetInPage(uint64_t Address) const {
    return Address & (PageBytes - 1);
  }

  /// True when an explicit thread→node pinning map is installed.
  bool pinned() const { return !Pinning.empty(); }

  /// The explicit pinning map (empty when the interleave default rules).
  const std::vector<NodeId> &threadPinning() const { return Pinning; }

  /// Thread affinity: the explicit pinning map when installed (threads
  /// beyond its length wrap around, the way a pinning script cycles over
  /// its CPU list), otherwise deterministic interleave (tid % nodes, main
  /// thread on node 0). Cheap enough for the per-sample hot path.
  NodeId nodeOf(ThreadId Tid) const {
    if (!Pinning.empty())
      return Pinning[Tid % Pinning.size()];
    return Tid % Nodes;
  }

  /// \returns true if \p AddressA and \p AddressB fall on a common page.
  bool sharesPage(uint64_t AddressA, uint64_t AddressB) const {
    return pageIndex(AddressA) == pageIndex(AddressB);
  }

private:
  void computePageShift() {
    PageShiftBits = 0;
    for (uint64_t S = PageBytes; S > 1; S >>= 1)
      ++PageShiftBits;
  }

  void fillUniformDistances() {
    for (uint32_t A = 0; A < MaxNodes; ++A)
      for (uint32_t B = 0; B < MaxNodes; ++B)
        Distances[A][B] = A == B ? 0 : DefaultRemoteDistance;
    MinRemote = DefaultRemoteDistance;
    MaxRemote = DefaultRemoteDistance;
  }

  uint32_t Nodes;
  uint64_t PageBytes;
  unsigned PageShiftBits;
  /// Full SLIT matrix in a fixed array (1 KiB) so distance() stays a pure
  /// load on the per-sample hot path.
  uint32_t Distances[MaxNodes][MaxNodes];
  uint32_t MinRemote = DefaultRemoteDistance;
  uint32_t MaxRemote = DefaultRemoteDistance;
  std::vector<NodeId> Pinning;
};

} // namespace cheetah

#endif // CHEETAH_MEM_NUMATOPOLOGY_H
