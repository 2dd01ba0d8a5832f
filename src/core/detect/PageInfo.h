//===- core/detect/PageInfo.h - Per-page detailed tracking ------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detailed per-page state for NUMA (remote-DRAM) sharing detection — the
/// paper's two-entry-table + per-word-histogram design lifted one level up
/// the memory hierarchy, expressed as a thin instantiation of the
/// granularity-generic GrainInfo:
///
///  - The actors become NUMA *nodes* instead of threads: a write from one
///    node to a page recently touched by another node is a cross-node
///    invalidation — the remote-DRAM traffic signature, the way a cache
///    invalidation is the false-sharing signature.
///  - The histogram buckets become the page's *cache lines* instead of
///    4-byte words, distinguishing *false page sharing* (nodes touch
///    disjoint lines: fixable by page-aligned placement or node-local
///    allocation) from *true page sharing* (genuine communication).
///    SharingClassifier consumes the snapshots unchanged.
///  - The page-grain extras add remote-traffic totals, the set of nodes
///    that touched the page (a finding's `nodes` count), and the
///    remoteByDistance buckets the v4 report schema and the
///    distance-weighted assessment consume.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_PAGEINFO_H
#define CHEETAH_CORE_DETECT_PAGEINFO_H

#include "core/detect/GrainInfo.h"

namespace cheetah {
namespace core {

/// Page-grain NUMA evidence beyond the generic GrainSnapshot — what
/// PageReportBuilder consumes next to the common finding source.
struct PageNumaEvidence {
  uint64_t RemoteAccesses = 0;
  uint64_t RemoteCycles = 0;
  std::vector<RemoteDistanceStats> RemoteByDistance;
  size_t NodesObserved = 0;
};

/// Everything Cheetah tracks about one susceptible page.
class PageInfo : public GrainInfo<PageGrainTraits> {
public:
  explicit PageInfo(uint64_t LinesPerPage) : GrainInfo(LinesPerPage) {}

  /// Records one sampled access landing on this page. Lock-free; safe from
  /// any number of ingesting threads.
  /// \param Tid the accessing thread (feeds the per-thread EQ.2 breakdown).
  /// \param Node the accessing thread's NUMA node.
  /// \param LineIndex index of the touched cache line within the page.
  /// \param Remote true when \p Node differs from the page's home node.
  /// \param Distance the node-pair distance the access crossed (accessor
  /// node to page home); 0 for local accesses. Remote samples are
  /// additionally bucketed per distinct distance — the remoteByDistance
  /// evidence the v4 report schema and the distance-weighted assessment
  /// consume.
  /// \returns true if the access incurred a cross-node invalidation.
  bool recordAccess(ThreadId Tid, NodeId Node, AccessKind Kind,
                    uint64_t LineIndex, uint64_t LatencyCycles, bool Remote,
                    uint32_t Distance = 0) {
    return record(Tid, Node, Kind, LineIndex, /*BucketSpan=*/1,
                  LatencyCycles, PageAccessContext{Remote, Distance});
  }

  /// Sampled accesses issued from a node other than the page's home, and
  /// the latency cycles they accumulated (remote-DRAM traffic).
  uint64_t remoteAccesses() const { return extras().remoteAccesses(); }
  uint64_t remoteCycles() const { return extras().remoteCycles(); }

  /// Value snapshot of the per-line statistics, one entry per cache line of
  /// the page. Reuses WordStats with node ids in the thread fields
  /// (FirstThread = first node, MultiThread = multi-node) so
  /// SharingClassifier applies unchanged at page granularity.
  std::vector<WordStats> lines() const { return buckets(); }

  /// Value snapshot of the remote traffic bucketed by crossed node-pair
  /// distance, ordered by distance. With a settled home the bucket
  /// accesses sum exactly to remoteAccesses() and the cycles to
  /// remoteCycles().
  std::vector<RemoteDistanceStats> remoteByDistance() const {
    return extras().remoteByDistance();
  }

  /// Number of distinct nodes that accessed the page.
  size_t nodeCount() const { return extras().nodeCount(); }

  /// The page's NUMA evidence bundled for the report builder.
  PageNumaEvidence numaEvidence() const {
    PageNumaEvidence Result;
    Result.RemoteAccesses = remoteAccesses();
    Result.RemoteCycles = remoteCycles();
    Result.RemoteByDistance = remoteByDistance();
    Result.NodesObserved = nodeCount();
    return Result;
  }
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_PAGEINFO_H
