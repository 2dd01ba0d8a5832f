//===- workloads/Numa.cpp - NUMA placement workload models ----------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workloads whose pathology lives at *page* granularity, invisible to the
/// line-level detector:
///
///  - `numa_interleaved`: every thread hammers its own cache line, but the
///    lines are packed so one 4 KiB page carries lines owned by threads on
///    different NUMA nodes — false *page* sharing. No cache line is ever
///    shared, so `--granularity=line` reports nothing; the page detector
///    sees cross-node invalidation ping-pong. The fix pads each thread's
///    slot to its own page (node-local placement).
///
///  - `numa_first_touch`: the classic first-touch bug. The main thread
///    initializes the whole array serially, homing every page on node 0;
///    worker threads then scan private page-aligned blocks, so half of
///    them stream from remote DRAM forever. No sharing at either
///    granularity — a pure placement problem the page detector surfaces
///    through its remote-access accounting. The fix replaces the serial
///    initialization with a parallel first-touch phase that homes each
///    block on its worker's node.
///
///  - `numa_asymmetric`: the first-touch bug on an asymmetric machine
///    (4 nodes, non-uniform distances, pinned threads). One block group
///    per node, all serially first-touched onto node 0, every group doing
///    the *same* amount of remote work — so the binary local/remote model
///    sees indistinguishable findings, and only the distance matrix makes
///    the far group's finding rank worst. The fix is initialize-on-first-
///    use: each worker's first scan access first-touches (and thus homes)
///    its own block.
///
/// Thread-to-node affinity follows the profiler's topology
/// (WorkloadContext::Topology, NumaTopology::nodeOf) — the explicit
/// pinning map when one is installed, the interleave (tid % nodes)
/// otherwise; the first-touch fixes assume the touch and work phases land
/// on the same nodes (true for any fixed affinity).
///
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "workloads/Patterns.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

using namespace cheetah;
using namespace cheetah::workloads;

namespace {

/// Defines a named global sized and padded so that \p Bytes of usable space
/// start on a boundary of the topology's pages. Ctx.global only guarantees
/// line alignment, and the NUMA fixes are meaningless if "one page per slot
/// group" can straddle page boundaries, so alignment is arranged explicitly
/// rather than inherited from the segment layout.
uint64_t pageAlignedGlobal(WorkloadContext &Ctx, const std::string &Name,
                           uint64_t Bytes) {
  uint64_t PageBytes = Ctx.Topology.pageSize();
  uint64_t Raw = Ctx.global(Name, Bytes + PageBytes, true);
  return (Raw + PageBytes - 1) & ~(PageBytes - 1);
}

/// Serial first touch over a list of (base, bytes) spans: one 8-byte
/// write per word, homing every page on the issuing thread's node. A free
/// coroutine taking its parameter by value (the capture-free rule).
Generator<ThreadEvent>
writeSpans(std::vector<std::pair<uint64_t, uint64_t>> Spans) {
  for (const auto &[Base, Bytes] : Spans)
    for (uint64_t Offset = 0; Offset < Bytes; Offset += 8)
      co_yield ThreadEvent::write(Base + Offset, 8);
}

/// Per-body node assignment for node-grouped data layouts: which node each
/// parallel body runs on (body T runs as tid T + 1, placed by
/// NumaTopology::nodeOf, honoring any pinning map), its
/// rank among that node's bodies, and the largest per-node population —
/// what a layout needs to size one span per node.
struct NodeLayout {
  std::vector<uint32_t> NodeOf;
  std::vector<uint64_t> RankInNode;
  uint64_t MaxPerNode = 1;
};

NodeLayout nodeLayout(const WorkloadConfig &Config,
                      const NumaTopology &Topology) {
  NodeLayout Layout;
  Layout.NodeOf.resize(Config.Threads);
  Layout.RankInNode.resize(Config.Threads);
  std::vector<uint64_t> PerNode(Topology.nodeCount(), 0);
  for (uint32_t T = 0; T < Config.Threads; ++T) {
    Layout.NodeOf[T] = Topology.nodeOf(T + 1);
    Layout.RankInNode[T] = PerNode[Layout.NodeOf[T]]++;
  }
  for (uint64_t Count : PerNode)
    Layout.MaxPerNode = std::max(Layout.MaxPerNode, Count);
  return Layout;
}

/// Per-line private work over one thread's block: read a word, compute,
/// write an adjacent word — single-thread at line granularity, so the only
/// cost that can differ between placements is where the page lives.
Generator<ThreadEvent> blockWork(uint64_t Base, uint64_t Bytes,
                                 uint64_t Passes, uint64_t LineStride) {
  for (uint64_t Pass = 0; Pass < Passes; ++Pass)
    for (uint64_t Offset = 0; Offset < Bytes; Offset += LineStride) {
      co_yield ThreadEvent::read(Base + Offset, 4);
      co_yield ThreadEvent::compute(2);
      co_yield ThreadEvent::write(Base + Offset + 8, 4);
    }
}

class NumaInterleavedWorkload : public Workload {
public:
  std::string name() const override { return "numa_interleaved"; }
  std::string suite() const override { return "numa"; }
  std::string description() const override {
    return "per-thread cache lines packed into shared pages across NUMA "
           "nodes: false page sharing the line detector cannot see";
  }
  double expectedPageImprovementFloor() const override {
    // Reference config measures ~2.7x (predicted and padded-rerun agree);
    // the floor leaves headroom for sampling-period variation.
    return 1.5;
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    // One slot (one cache line) per thread. Unfixed they pack line-to-line
    // into pages shared across nodes. The fix is node-local allocation:
    // slots regroup by NUMA node (body T's node per the topology, honoring
    // any pinning map), each node's group page-aligned in its own page
    // span, so no page is ever touched by two nodes and every first touch
    // — and thus every page home — is node-local.
    uint64_t LineStride = std::max<uint64_t>(Ctx.Geometry.lineSize(), 64);
    uint64_t PageBytes = Ctx.Topology.pageSize();
    NodeLayout Layout = nodeLayout(Config, Ctx.Topology);
    uint64_t NodeSpan =
        ((Layout.MaxPerNode * LineStride + PageBytes - 1) / PageBytes) *
        PageBytes;
    uint64_t TotalBytes = Config.FixFalseSharing
                              ? Ctx.Topology.nodeCount() * NodeSpan
                              : uint64_t(Config.Threads) * LineStride;
    uint64_t Slots =
        pageAlignedGlobal(Ctx, "numa_interleaved_slots", TotalBytes);

    uint64_t Iterations = static_cast<uint64_t>(
        std::max(1.0, 30000.0 * Config.Scale));

    sim::PhaseSpec &Phase = Program.addPhase("hammer");
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Slot;
      if (Config.FixFalseSharing) {
        Slot = Slots + Layout.NodeOf[T] * NodeSpan +
               Layout.RankInNode[T] * LineStride;
      } else {
        Slot = Slots + uint64_t(T) * LineStride;
      }
      Phase.ParallelBodies.push_back(
          [=]() { return hammerSlot(Slot, Iterations, 3, 4); });
    }
    return Program;
  }
};

class NumaFirstTouchWorkload : public Workload {
public:
  std::string name() const override { return "numa_first_touch"; }
  std::string suite() const override { return "numa"; }
  std::string description() const override {
    return "serial initialization homes every page on node 0, so half the "
           "workers stream from remote DRAM; fix = parallel first touch";
  }
  double expectedPageImprovementFloor() const override {
    // Reference config predicts ~1.5x (the padded rerun also gains the
    // parallelized init, which assessment deliberately does not credit).
    return 1.2;
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t LineStride = std::max<uint64_t>(Ctx.Geometry.lineSize(), 64);
    // Four pages of private data per worker, page-aligned blocks.
    uint64_t BlockBytes = 4 * Ctx.Topology.pageSize();
    uint64_t Blocks = pageAlignedGlobal(
        Ctx, "numa_first_touch_blocks", uint64_t(Config.Threads) * BlockBytes);
    uint64_t Passes = static_cast<uint64_t>(
        std::max(4.0, 60.0 * Config.Scale));

    if (Config.FixFalseSharing) {
      // The fix: each worker first-touches (and initializes) its own block
      // in a parallel phase, homing the pages on its node. Assumes an even
      // thread count so this phase and the work phase interleave onto the
      // same nodes.
      sim::PhaseSpec &Touch = Program.addPhase("first_touch");
      for (uint32_t T = 0; T < Config.Threads; ++T) {
        uint64_t Block = Blocks + uint64_t(T) * BlockBytes;
        Touch.ParallelBodies.push_back([=]() {
          return writeInit(Block, BlockBytes, 1, 8);
        });
      }
    }

    sim::PhaseSpec &Work = Program.addPhase("scan");
    if (!Config.FixFalseSharing) {
      // The bug: node 0 (the main thread) touches everything first.
      uint64_t Base = Blocks;
      uint64_t Bytes = uint64_t(Config.Threads) * BlockBytes;
      Work.SerialBody = [=]() { return writeInit(Base, Bytes, 1, 8); };
    }
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Block = Blocks + uint64_t(T) * BlockBytes;
      Work.ParallelBodies.push_back([=]() {
        return blockWork(Block, BlockBytes, Passes, LineStride);
      });
    }
    return Program;
  }
};

class NumaAsymmetricWorkload : public Workload {
public:
  std::string name() const override { return "numa_asymmetric"; }
  std::string suite() const override { return "numa"; }
  std::string description() const override {
    return "per-node block groups all first-touched on node 0 doing equal "
           "remote work: only a distance matrix ranks the far group worst";
  }
  double expectedPageImprovementFloor() const override {
    // Reference config (4 nodes, the asymmetric4 distance matrix, 8
    // threads, dense sampling) predicts ~1.25x for the far group's site —
    // the only site above 1.0, since the far threads alone bound the
    // phase; the floor leaves headroom for sampling-period variation.
    return 1.15;
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    // One page-aligned block group per node, each its own global (its own
    // report *site*), each receiving the same amount of work from the
    // threads pinned to its node. Broken, every group is first-touched by
    // the serial init on the main thread's node, so each remote group
    // streams over a different node pair at the same access volume —
    // indistinguishable under the binary local/remote model, ranked by
    // the distance matrix alone.
    uint64_t LineStride = std::max<uint64_t>(Ctx.Geometry.lineSize(), 64);
    uint32_t Nodes = Ctx.Topology.nodeCount();
    // One page per worker: concentrating each thread's traffic on a single
    // page keeps every remote page comfortably above the placement gate at
    // the reference sampling density.
    uint64_t BlockBytes = Ctx.Topology.pageSize();

    NodeLayout Layout = nodeLayout(Config, Ctx.Topology);
    uint64_t BlocksPerNode = Layout.MaxPerNode;

    std::vector<uint64_t> Groups(Nodes);
    for (uint32_t Node = 0; Node < Nodes; ++Node)
      Groups[Node] = pageAlignedGlobal(
          Ctx, "numa_asymmetric_node" + std::to_string(Node),
          BlocksPerNode * BlockBytes);

    uint64_t Passes =
        static_cast<uint64_t>(std::max(4.0, 120.0 * Config.Scale));

    // The fix is initialize-on-first-use: drop the eager serial
    // initialization and let each worker's own first scan access be the
    // first touch, homing its block on its node with no extra phase.
    sim::PhaseSpec &Work = Program.addPhase("scan");
    if (!Config.FixFalseSharing) {
      // The bug: the main thread eagerly initializes every group first,
      // homing all of them on its node.
      std::vector<std::pair<uint64_t, uint64_t>> Spans;
      for (uint32_t Node = 0; Node < Nodes; ++Node)
        Spans.push_back({Groups[Node], BlocksPerNode * BlockBytes});
      Work.SerialBody = [Spans]() { return writeSpans(Spans); };
    }
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Block =
          Groups[Layout.NodeOf[T]] + Layout.RankInNode[T] * BlockBytes;
      Work.ParallelBodies.push_back(
          [=]() { return blockWork(Block, BlockBytes, Passes, LineStride); });
    }
    return Program;
  }
};

} // namespace

namespace cheetah {
namespace workloads {

void appendNumaWorkloads(std::vector<std::unique_ptr<Workload>> &Out) {
  Out.push_back(std::make_unique<NumaInterleavedWorkload>());
  Out.push_back(std::make_unique<NumaFirstTouchWorkload>());
  Out.push_back(std::make_unique<NumaAsymmetricWorkload>());
}

} // namespace workloads
} // namespace cheetah
