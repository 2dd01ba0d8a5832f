//===- core/detect/GrainInfo.h - Granularity-generic grain record -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The granularity-parameterized heart of the detector: one detailed
/// tracking record (`GrainInfo<Traits>`) instantiated per *grain* — a cache
/// line at line granularity, a page at page granularity. The paper's
/// machinery is identical at every level of the memory hierarchy; only the
/// parameters change, and a `GrainTraits` policy carries exactly those:
///
///  - the **actor** whose interleaving drives the two-entry invalidation
///    table (threads for cache false sharing, NUMA nodes for remote-DRAM
///    page sharing),
///  - the **bucket** histogram subdividing the grain (4-byte words of a
///    line, cache lines of a page) that lets SharingClassifier split true
///    from false sharing,
///  - per-grain **extras** beyond the shared counters (the page grain adds
///    remote-traffic totals, the set of nodes that touched it, and
///    remoteByDistance buckets; the line grain adds nothing).
///
/// Every mutable field is a relaxed atomic and the table transition is a
/// single-word CAS, so `record` is lock-free from any number of ingesting
/// threads. Readers that run after ingestion stops (report generation,
/// tests) take plain value snapshots.
///
/// A grain hit by several samples of one batch chunk takes them as a
/// **run** (`GrainRun<Traits>`): the ingesting thread sums the run's
/// additive statistics into plain fields, then `recordRun` applies the
/// run's two-entry table transitions in order and folds the sums into the
/// shared atomics once. A grain's state depends
/// only on its own access sequence, so a run recorded this way leaves the
/// grain exactly as per-sample `record` calls in the same order would.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_GRAININFO_H
#define CHEETAH_CORE_DETECT_GRAININFO_H

#include "core/detect/CacheLineTable.h"
#include "mem/CacheGeometry.h"
#include "mem/MemoryAccess.h"
#include "mem/NumaTopology.h"
#include "support/Assert.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace cheetah {
namespace core {

/// Sentinel for "no thread recorded yet" in WordStats.
inline constexpr ThreadId NoThread = ~static_cast<ThreadId>(0);

/// Sentinel for "no actor recorded yet" in a histogram bucket. ThreadId and
/// NodeId are both uint32_t, so one sentinel serves every grain (it equals
/// NoThread and NoNode bit-for-bit).
inline constexpr uint32_t NoActor = ~static_cast<uint32_t>(0);

/// Snapshot of one histogram bucket (paper Section 2.4: "the amount of
/// reads or writes issued by a particular thread on each word"). At line
/// granularity a bucket is a 4-byte word and the actor fields hold thread
/// ids; at page granularity a bucket is a cache line and they hold node
/// ids — SharingClassifier consumes both unchanged.
struct WordStats {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  /// First actor (thread/node) seen touching this bucket.
  ThreadId FirstThread = NoThread;
  /// Set once a second distinct actor touches the bucket: the bucket is
  /// truly shared (true sharing indicator).
  bool MultiThread = false;

  uint64_t accesses() const { return Reads + Writes; }
};

/// Per-thread access/cycle accumulator on one grain (and, aggregated, on
/// one object) — the Accesses_O and Cycles_O of the assessment equations,
/// broken down per thread for EQ.2.
struct ThreadLineStats {
  ThreadId Tid = 0;
  uint64_t Accesses = 0;
  uint64_t Cycles = 0;
};

/// Lock-free per-thread access/cycle accumulator chain shared by every
/// grain — all of them need the per-thread Accesses_O / Cycles_O breakdown
/// that feeds EQ.2. Slots are claimed by CASing a tid into a
/// fixed-capacity block; the chain grows by CAS-publishing the next block,
/// so the thread population is unbounded while the common case (a handful
/// of threads) stays in the inline first block with no indirection.
class ThreadStatsChain {
public:
  ThreadStatsChain() = default;
  ~ThreadStatsChain();

  ThreadStatsChain(const ThreadStatsChain &) = delete;
  ThreadStatsChain &operator=(const ThreadStatsChain &) = delete;

  /// Finds (or claims) \p Tid's slot and accumulates one access. Lock-free;
  /// safe from any number of ingesting threads.
  void record(ThreadId Tid, uint64_t LatencyCycles) {
    add(Tid, 1, LatencyCycles);
  }

  /// Bulk variant: accumulates \p Accesses accesses and \p Cycles cycles in
  /// one claim — how a run folds its per-thread totals in.
  void add(ThreadId Tid, uint64_t Accesses, uint64_t Cycles);

  /// Value snapshot of every claimed slot, ordered by thread id.
  std::vector<ThreadLineStats> snapshot() const;

  /// Number of distinct threads recorded.
  size_t distinctThreads() const;

  /// Heap bytes behind overflow blocks (the first block is inline in the
  /// owning object, whose sizeof already covers it).
  size_t overflowBytes() const;

private:
  /// One fixed-capacity block of the chain.
  struct Chunk {
    static constexpr size_t Capacity = 8;
    std::atomic<ThreadId> Tids[Capacity];
    std::atomic<uint64_t> Accesses[Capacity];
    std::atomic<uint64_t> Cycles[Capacity];
    std::atomic<Chunk *> Next{nullptr};

    Chunk();
  };

  Chunk First;
};

/// One bucket's accumulation inside a run: the plain-field mirror of
/// AtomicBucketStats. FirstActor/MultiActor are tracked per run and
/// reconciled when the run is folded (a grain bucket without a first actor
/// takes the run's; disagreement marks the bucket multi-actor).
struct RunBucketStats {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  uint32_t FirstActor = NoActor;
  bool MultiActor = false;

  void record(uint32_t Actor, AccessKind Kind, uint64_t LatencyCycles) {
    if (Kind == AccessKind::Read)
      ++Reads;
    else
      ++Writes;
    Cycles += LatencyCycles;
    if (FirstActor == NoActor)
      FirstActor = Actor;
    else if (FirstActor != Actor)
      MultiActor = true;
  }

  uint64_t accesses() const { return Reads + Writes; }
};

/// Atomic backing store for one histogram bucket (per-word at line
/// granularity with thread actors, per-line at page granularity with node
/// actors).
struct AtomicBucketStats {
  std::atomic<uint64_t> Reads{0};
  std::atomic<uint64_t> Writes{0};
  std::atomic<uint64_t> Cycles{0};
  std::atomic<uint32_t> FirstActor{NoActor};
  std::atomic<bool> MultiActor{false};

  void record(uint32_t Actor, AccessKind Kind, uint64_t LatencyCycles);
  void merge(const RunBucketStats &Bucket);
  WordStats snapshot() const;
};

/// Granularity-neutral value snapshot of one materialized grain — the
/// common finding source both report builders consume (line findings read
/// per-word buckets, page findings per-line buckets; neither needs to know
/// which grain produced it).
struct GrainSnapshot {
  uint64_t Base = 0;
  uint64_t Accesses = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  uint64_t Invalidations = 0;
  std::vector<WordStats> Buckets;
  std::vector<ThreadLineStats> Threads;
};

/// Per-sample context beyond the generic fields: the line grain needs none.
struct LineAccessContext {};

/// Per-sample context the page grain carries: whether the access crossed
/// nodes, and which node-pair distance it crossed (0 for local).
struct PageAccessContext {
  bool Remote = false;
  uint32_t Distance = 0;
};

/// Line-grain run extras: nothing beyond the generic run fields.
struct LineRunExtras {
  void reset() {}
  void record(uint32_t, AccessKind, uint64_t, const LineAccessContext &) {}
};

/// Line-grain per-grain extras: empty (overlaid via [[no_unique_address]]
/// so the line record stays exactly as wide as before the generalization —
/// the shadow-bytes accounting the goldens embed depends on it).
struct LineGrainExtras {
  void record(uint32_t, AccessKind, uint64_t, const LineAccessContext &) {}
  void merge(const LineRunExtras &) {}
  uint64_t remoteAccesses() const { return 0; }
};

/// One bit per NUMA node: the set of nodes that touched a page.
using NodeMask = uint32_t;
static_assert(NumaTopology::MaxNodes <= 32, "node ids must fit a NodeMask");

/// Page-grain run extras: plain mirrors of the remote-traffic totals, the
/// node set, and the distance buckets.
struct PageRunExtras {
  uint64_t RemoteAccesses = 0;
  uint64_t RemoteCycles = 0;
  /// The nodes the run touched.
  NodeMask Nodes = 0;
  /// Remote traffic per crossed distance, in arrival order (at most
  /// MaxNodes - 1 distinct distances exist under a settled home).
  std::vector<RemoteDistanceStats> Remote;

  void reset();
  void record(NodeId Node, AccessKind Kind, uint64_t LatencyCycles,
              const PageAccessContext &Ctx);
};

/// Page-grain per-grain extras: everything the NUMA story needs beyond the
/// generic counters. Node populations are tiny (NumaTopology::MaxNodes), so
/// the node set is one bitmask and the distance buckets a fixed array.
struct PageGrainExtras {
  /// One lock-free distance bucket: claimed by CAS-publishing its distance
  /// value (0 = empty; validated remote distances are >= 1). A page's home
  /// is settled at first touch, so at most MaxNodes - 1 distinct distances
  /// ever occur and the fixed array never fills.
  struct AtomicDistanceStats {
    std::atomic<uint32_t> Distance{0};
    std::atomic<uint64_t> Accesses{0};
    std::atomic<uint64_t> Cycles{0};
  };

  std::atomic<uint64_t> RemoteAccesses{0};
  std::atomic<uint64_t> RemoteCycles{0};
  /// The nodes that touched the page, one bit per node id.
  std::atomic<NodeMask> Nodes{0};
  /// Remote traffic bucketed by crossed node-pair distance.
  AtomicDistanceStats DistanceSlots[NumaTopology::MaxNodes];

  void record(NodeId Node, AccessKind Kind, uint64_t LatencyCycles,
              const PageAccessContext &Ctx);
  void merge(const PageRunExtras &Run);

  uint64_t remoteAccesses() const {
    return RemoteAccesses.load(std::memory_order_relaxed);
  }
  uint64_t remoteCycles() const {
    return RemoteCycles.load(std::memory_order_relaxed);
  }
  std::vector<RemoteDistanceStats> remoteByDistance() const;
  size_t nodeCount() const {
    return static_cast<size_t>(
        std::popcount(Nodes.load(std::memory_order_relaxed)));
  }

private:
  /// Adds remote samples to their distance bucket (lock-free).
  void bucketRemote(uint32_t Distance, uint64_t Accesses, uint64_t Cycles);
  /// Adds \p Touched to the node set, with no write when it is already in.
  void noteNodes(NodeMask Touched) {
    if ((Nodes.load(std::memory_order_relaxed) & Touched) != Touched)
      Nodes.fetch_or(Touched, std::memory_order_relaxed);
  }
};

/// The line grain: threads invalidate each other's cache lines; buckets
/// are the line's 4-byte words.
struct LineGrainTraits {
  using ActorId = ThreadId;
  using Context = LineAccessContext;
  using Extras = LineGrainExtras;
  using RunExtras = LineRunExtras;
  static constexpr const char *BucketRangeMsg = "word index outside line";
  static constexpr const char *SpanMsg =
      "access must cover one or more words of its line";
};

/// The page grain: NUMA nodes invalidate each other's pages; buckets are
/// the page's cache lines.
struct PageGrainTraits {
  using ActorId = NodeId;
  using Context = PageAccessContext;
  using Extras = PageGrainExtras;
  using RunExtras = PageRunExtras;
  static constexpr const char *BucketRangeMsg = "line index outside page";
  static constexpr const char *SpanMsg =
      "access must cover one or more lines of its page";
};

template <typename Traits> class GrainInfo;

/// One grain's run of samples from one batch chunk, accumulated on the
/// ingesting thread in plain fields: the run's table inputs in order plus
/// its additive statistics. GrainInfo::recordRun applies the inputs to
/// the two-entry table and folds the sums into the shared atomics once.
/// Meant to be reused: begin() clears only what the previous run touched,
/// and the dense bucket array only grows, so steady-state runs allocate
/// nothing.
template <typename Traits> class GrainRun {
public:
  using ActorId = typename Traits::ActorId;
  using Context = typename Traits::Context;

  /// Empties the run for a grain of \p BucketCount buckets.
  void begin(uint64_t BucketCount) {
    for (uint32_t B : Touched)
      Buckets[B] = RunBucketStats();
    Touched.clear();
    if (Buckets.size() < BucketCount)
      Buckets.resize(BucketCount);
    this->BucketCount = BucketCount;
    Inputs.clear();
    Threads.clear();
    Writes = 0;
    Cycles = 0;
    Extras.reset();
  }

  /// Adds one sampled access to the run; the arguments are those of
  /// GrainInfo::record.
  void add(ThreadId Tid, ActorId Actor, AccessKind Kind, uint64_t BucketIndex,
           uint64_t BucketSpan, uint64_t LatencyCycles,
           const Context &Ctx = {}) {
    CHEETAH_ASSERT(BucketIndex < BucketCount, Traits::BucketRangeMsg);
    CHEETAH_ASSERT(BucketSpan >= 1 && BucketSpan <= BucketCount - BucketIndex,
                   Traits::SpanMsg);
    Inputs.push_back({Actor, Kind});
    Writes += Kind == AccessKind::Write;
    Cycles += LatencyCycles;
    Extras.record(Actor, Kind, LatencyCycles, Ctx);

    for (uint64_t B = BucketIndex; B < BucketIndex + BucketSpan; ++B) {
      RunBucketStats &Bucket = Buckets[B];
      if (Bucket.accesses() == 0)
        Touched.push_back(static_cast<uint32_t>(B));
      Bucket.record(Actor, Kind, B == BucketIndex ? LatencyCycles : 0);
    }

    // Thread populations per run are tiny (usually one): linear search.
    auto It = std::find_if(
        Threads.begin(), Threads.end(),
        [Tid](const ThreadLineStats &Slot) { return Slot.Tid == Tid; });
    if (It == Threads.end()) {
      Threads.push_back({Tid, 1, LatencyCycles});
    } else {
      It->Accesses += 1;
      It->Cycles += LatencyCycles;
    }
  }

  /// Number of accesses in the run.
  size_t size() const { return Inputs.size(); }

private:
  friend class GrainInfo<Traits>;

  /// The run's two-entry table inputs (actor, kind), in order.
  std::vector<CacheLineTable::Entry> Inputs;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  uint64_t BucketCount = 0;
  /// Dense by bucket index; only the buckets listed in Touched are live.
  std::vector<RunBucketStats> Buckets;
  /// The buckets the run touched, in first-touch order.
  std::vector<uint32_t> Touched;
  /// Per-thread sums, in first-appearance order.
  std::vector<ThreadLineStats> Threads;
  [[no_unique_address]] typename Traits::RunExtras Extras;
};

/// Everything Cheetah tracks about one susceptible grain, parameterized by
/// the grain policy. CacheLineInfo and PageInfo are thin instantiations.
template <typename Traits> class GrainInfo {
public:
  using ActorId = typename Traits::ActorId;
  using Context = typename Traits::Context;
  using Run = GrainRun<Traits>;

  explicit GrainInfo(uint64_t BucketsPerGrain)
      : Buckets(std::make_unique<AtomicBucketStats[]>(BucketsPerGrain)),
        BucketCount(BucketsPerGrain) {}

  GrainInfo(const GrainInfo &) = delete;
  GrainInfo &operator=(const GrainInfo &) = delete;

  /// Records one sampled access landing on this grain into the shared
  /// atomics. Lock-free: concurrent calls from many ingesting threads
  /// never lose an update. The access covers buckets [BucketIndex,
  /// BucketIndex + BucketSpan), all inside the grain: the caller clamps a
  /// straddling access. \returns true if it incurred an invalidation.
  bool record(ThreadId Tid, ActorId Actor, AccessKind Kind,
              uint64_t BucketIndex, uint64_t BucketSpan,
              uint64_t LatencyCycles, const Context &Ctx = {}) {
    CHEETAH_ASSERT(BucketIndex < BucketCount, Traits::BucketRangeMsg);
    CHEETAH_ASSERT(BucketSpan >= 1 && BucketSpan <= BucketCount - BucketIndex,
                   Traits::SpanMsg);

    bool Invalidation = Table.recordAccess(Actor, Kind);
    if (Invalidation)
      Invalidations.fetch_add(1, std::memory_order_relaxed);

    Accesses.fetch_add(1, std::memory_order_relaxed);
    if (Kind == AccessKind::Write)
      Writes.fetch_add(1, std::memory_order_relaxed);
    Cycles.fetch_add(LatencyCycles, std::memory_order_relaxed);
    ExtraStats.record(Actor, Kind, LatencyCycles, Ctx);

    // An access wider than a bucket (e.g. a 64-bit store over 4-byte
    // words) marks every covered bucket; latency attributes to the first
    // bucket to avoid double counting.
    for (uint64_t B = BucketIndex; B < BucketIndex + BucketSpan; ++B)
      Buckets[B].record(Actor, Kind, B == BucketIndex ? LatencyCycles : 0);

    ThreadStats.record(Tid, LatencyCycles);
    return Invalidation;
  }

  /// Records a whole run of accesses to this grain: the two-entry table
  /// takes the run's accesses one transition at a time, in order (other
  /// threads' transitions may interleave, as with record), and the run's
  /// sums fold into the shared atomics once. Lock-free, like record.
  /// \returns the run's invalidation count.
  uint64_t recordRun(const Run &R) {
    CHEETAH_ASSERT(R.BucketCount == BucketCount,
                   "run bucket count does not match the grain");
    uint64_t RunInvalidations = 0;
    for (const CacheLineTable::Entry &Input : R.Inputs)
      RunInvalidations += Table.recordAccess(Input.Tid, Input.Kind);
    if (RunInvalidations)
      Invalidations.fetch_add(RunInvalidations, std::memory_order_relaxed);
    Accesses.fetch_add(R.size(), std::memory_order_relaxed);
    if (R.Writes)
      Writes.fetch_add(R.Writes, std::memory_order_relaxed);
    Cycles.fetch_add(R.Cycles, std::memory_order_relaxed);
    ExtraStats.merge(R.Extras);
    for (uint32_t B : R.Touched)
      Buckets[B].merge(R.Buckets[B]);
    for (const ThreadLineStats &Thread : R.Threads)
      ThreadStats.add(Thread.Tid, Thread.Accesses, Thread.Cycles);
    return RunInvalidations;
  }

  /// Invalidation count (the significance signal).
  uint64_t invalidations() const {
    return Invalidations.load(std::memory_order_relaxed);
  }

  /// Total sampled accesses / writes / cycles on the grain.
  uint64_t accesses() const {
    return Accesses.load(std::memory_order_relaxed);
  }
  uint64_t writes() const { return Writes.load(std::memory_order_relaxed); }
  uint64_t cycles() const { return Cycles.load(std::memory_order_relaxed); }

  /// Value snapshot of the per-bucket statistics, one entry per bucket of
  /// the grain (consistent once ingestion stops).
  std::vector<WordStats> buckets() const {
    std::vector<WordStats> Result;
    Result.reserve(BucketCount);
    for (uint64_t B = 0; B < BucketCount; ++B)
      Result.push_back(Buckets[B].snapshot());
    return Result;
  }

  /// Value snapshot of the per-thread accumulators, ordered by thread id.
  std::vector<ThreadLineStats> threads() const {
    return ThreadStats.snapshot();
  }

  /// Number of distinct threads that accessed the grain.
  size_t threadCount() const { return ThreadStats.distinctThreads(); }

  /// The whole grain as the granularity-neutral finding source the report
  /// builders consume.
  GrainSnapshot snapshot(uint64_t Base) const {
    GrainSnapshot Result;
    Result.Base = Base;
    Result.Accesses = accesses();
    Result.Writes = writes();
    Result.Cycles = cycles();
    Result.Invalidations = invalidations();
    Result.Buckets = buckets();
    Result.Threads = threads();
    return Result;
  }

  /// Buckets per grain (words of a line, lines of a page).
  uint64_t bucketCount() const { return BucketCount; }

  /// Access to the invalidation table (tests). This is the packed
  /// single-word CAS state machine from CacheLineTable.h, storing actor
  /// ids.
  const CacheLineTable &table() const { return Table; }

  /// Exact bytes of heap memory behind this grain's detailed tracking
  /// (object, bucket slots, and every per-thread stats chunk) — feeds the
  /// memory ablation's honest accounting.
  size_t footprintBytes() const {
    return sizeof(GrainInfo) + BucketCount * sizeof(AtomicBucketStats) +
           ThreadStats.overflowBytes();
  }

  /// Remote-actor accesses recorded by the extras (0 for grains whose
  /// extras track none) — folded into the eviction residue so the
  /// conservation proof covers HasRemote stages too.
  uint64_t remoteAccesses() const { return ExtraStats.remoteAccesses(); }

protected:
  const typename Traits::Extras &extras() const { return ExtraStats; }

private:
  CacheLineTable Table;
  std::atomic<uint64_t> Invalidations{0};
  std::atomic<uint64_t> Accesses{0};
  std::atomic<uint64_t> Writes{0};
  std::atomic<uint64_t> Cycles{0};
  std::unique_ptr<AtomicBucketStats[]> Buckets;
  uint64_t BucketCount;
  [[no_unique_address]] typename Traits::Extras ExtraStats;
  ThreadStatsChain ThreadStats;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_GRAININFO_H
