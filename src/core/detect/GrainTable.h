//===- core/detect/GrainTable.h - Address-to-grain metadata -----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The granularity-generic shadow table (paper Section 2.2 at any level of
/// the hierarchy): constant-time mapping from an address to its grain's
/// metadata via bit shifting, possible because the heap arena and global
/// segment ranges are known up front. Per grain it keeps
///
///  - a stage-1 write counter (the susceptibility filter),
///  - optionally (TrackHomes) the first-touch *home node* — CAS-published
///    once by whichever access touches the grain first, mirroring the OS
///    first-touch placement policy,
///  - a lazily materialized `InfoT` pointer for susceptible grains.
///
/// Beside the per-grain arrays each slab keeps a live-grain bitmap, one bit
/// per grain, set while the grain's detail is materialized. Only the few
/// susceptible grains are ever live, so the epoch-boundary walks (report
/// enumeration, byte accounting, eviction ranking, teardown) scan the
/// bitmap's nonzero words instead of every slot: O(range/64 + live), not
/// O(range).
///
/// Every slab array is reserved address space, not memory: a private
/// anonymous mapping the kernel zero-fills page by page on first touch.
/// Construction writes nothing, and only the pages that samples reach
/// become resident (a default profiler's line table reserves 15 MiB and
/// starts with none of it resident). The all-zero page is the untouched
/// state of every element: write count 0, no detail, no live bit, and a
/// home stored as node + 1, so 0 reads back as NoNode. Reported shadow
/// bytes and the byte budget still count the whole reservation.
///
/// All of it is lock-free: the elements are plain integers and pointers
/// that every concurrent access reaches through std::atomic_ref, so no
/// std::atomic object has to exist in untouched memory. Counters are
/// relaxed, homes and details are CAS-published (losing allocators delete
/// their copy), and a materialized GrainInfo is internally lock-free. A
/// live bit changes only with a winning detail publication or an eviction,
/// never on a plain sample. Eviction runs under the caller's ingestion
/// fence and deletes each victim's record in place.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_GRAINTABLE_H
#define CHEETAH_CORE_DETECT_GRAINTABLE_H

#include "mem/MemoryAccess.h"
#include "mem/NumaTopology.h"
#include "support/Assert.h"
#include "support/Prefetch.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace cheetah {
namespace core {

/// One contiguous monitored address range (heap arena or global segment).
struct ShadowRegion {
  uint64_t Base = 0;
  uint64_t Size = 0;
};

/// Counters folded out of evicted grains — the per-stage residue a
/// budgeted table keeps so conservation still proves out: residue plus the
/// live grain counters equals everything ever recorded, no matter how many
/// eviction epochs have passed.
struct GrainEvictionStats {
  uint64_t Grains = 0; ///< eviction events (a re-materialized grain counts again)
  uint64_t Accesses = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  uint64_t Invalidations = 0;
  uint64_t RemoteAccesses = 0;
};

/// Flat-array grain metadata over a set of monitored regions,
/// parameterized by the detailed record type and whether first-touch homes
/// are tracked. ShadowMemory and PageTable are thin instantiations.
template <typename InfoT, bool TrackHomes> class GrainTable {
public:
  using Info = InfoT;

  /// \p EmptyRegionMsg / \p AlignmentMsg are the assertion texts for the
  /// two region-validation failures, so each instantiation keeps its
  /// historical diagnostics.
  GrainTable(unsigned GrainShift, uint64_t BucketsPerGrain,
             std::vector<ShadowRegion> Regions, const char *EmptyRegionMsg,
             const char *AlignmentMsg)
      : GrainShift(GrainShift), GrainSize(uint64_t(1) << GrainShift),
        BucketsPerGrain(BucketsPerGrain) {
    for (const ShadowRegion &Region : Regions) {
      CHEETAH_ASSERT(Region.Size > 0, EmptyRegionMsg);
      CHEETAH_ASSERT((Region.Base & (GrainSize - 1)) == 0, AlignmentMsg);
      Slab NewSlab;
      NewSlab.Base = Region.Base;
      NewSlab.Size = Region.Size;
      NewSlab.Grains = static_cast<size_t>(
          (Region.Size + GrainSize - 1) >> GrainShift);
      NewSlab.WriteCounts = mapZeroed<uint32_t>(NewSlab.Grains);
      NewSlab.Details = mapZeroed<InfoT *>(NewSlab.Grains);
      if constexpr (TrackHomes)
        NewSlab.Homes = mapZeroed<NodeId>(NewSlab.Grains);
      NewSlab.LiveWords = (NewSlab.Grains + 63) / 64;
      NewSlab.Live = mapZeroed<uint64_t>(NewSlab.LiveWords);
      Slabs.push_back(std::move(NewSlab));
    }
  }

  ~GrainTable() {
    for (Slab &Region : Slabs)
      forEachLive(Region, [&](size_t I) {
        delete Region.Details[I];
      });
  }

  GrainTable(const GrainTable &) = delete;
  GrainTable &operator=(const GrainTable &) = delete;

  /// \returns true if \p Address falls inside a monitored region. Accesses
  /// elsewhere (stack, kernel, libraries) are filtered out (Section 4.1).
  bool covers(uint64_t Address) const { return slabFor(Address) != nullptr; }

  /// Software-prefetches the grain's stage-1 write counter (write intent:
  /// the counter is about to take an atomic RMW). The batched ingestion
  /// loop issues these a fixed distance ahead so the random-address
  /// counter walk overlaps cache misses instead of serializing them.
  /// Safe on any address; a no-op outside the monitored regions.
  void prefetchWriteCounter(uint64_t Address) const {
    if (const Slab *Region = slabFor(Address))
      support::prefetchForWrite(
          &Region->WriteCounts[grainIndexIn(*Region, Address)]);
  }

  /// Software-prefetches the grain's detail-pointer slot (read intent).
  void prefetchDetail(uint64_t Address) const {
    if (const Slab *Region = slabFor(Address))
      support::prefetchForRead(
          &Region->Details[grainIndexIn(*Region, Address)]);
  }

  /// Software-prefetches the grain's first-touch home slot (write intent:
  /// an untouched grain is about to CAS-publish its home).
  void prefetchHome(uint64_t Address) const
    requires TrackHomes
  {
    if (const Slab *Region = slabFor(Address))
      support::prefetchForWrite(
          &Region->Homes[grainIndexIn(*Region, Address)]);
  }

  /// Atomically increments the write counter of \p Address's grain.
  /// \returns the new count. \p Address must be covered.
  uint32_t noteWrite(uint64_t Address) {
    Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "noteWrite outside monitored regions");
    return std::atomic_ref(Region->WriteCounts[grainIndexIn(*Region, Address)])
               .fetch_add(1, std::memory_order_relaxed) +
           1;
  }

  /// Current write count of \p Address's grain (0 if never written).
  uint32_t writeCount(uint64_t Address) const {
    const Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "writeCount outside monitored regions");
    return std::atomic_ref(Region->WriteCounts[grainIndexIn(*Region, Address)])
        .load(std::memory_order_relaxed);
  }

  /// Records a touch by \p Node: publishes it as the grain's first-touch
  /// home if the grain was untouched, and returns the (now settled) home.
  /// Called on every covered sample regardless of phase — homes are a
  /// placement property, not a sharing observation.
  NodeId noteTouch(uint64_t Address, NodeId Node)
    requires TrackHomes
  {
    Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "noteTouch outside monitored regions");
    // The slot holds the home plus one (see loadHome).
    std::atomic_ref Home(Region->Homes[grainIndexIn(*Region, Address)]);
    NodeId Stored = Home.load(std::memory_order_relaxed);
    if (Stored != 0)
      return Stored - 1;
    if (Home.compare_exchange_strong(Stored, Node + 1,
                                     std::memory_order_relaxed))
      return Node;
    // Another touch won first-touch publication; its node is the home.
    return Stored - 1;
  }

  /// The grain's first-touch home node, or NoNode if never touched.
  NodeId homeNode(uint64_t Address) const
    requires TrackHomes
  {
    const Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "homeNode outside monitored regions");
    return loadHome(*Region, grainIndexIn(*Region, Address));
  }

  /// \returns the detailed info for \p Address's grain, or nullptr if it
  /// was never materialized (or was evicted — an evicted grain reads as
  /// unmaterialized and must re-earn tracking through the stage-1 filter).
  /// \p Address must be covered.
  InfoT *detail(uint64_t Address) {
    Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "detail outside monitored regions");
    InfoT *Info =
        std::atomic_ref(Region->Details[grainIndexIn(*Region, Address)])
            .load(std::memory_order_acquire);
    return Info == evictedMark() ? nullptr : Info;
  }
  const InfoT *detail(uint64_t Address) const {
    const Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "detail outside monitored regions");
    const InfoT *Info =
        std::atomic_ref(Region->Details[grainIndexIn(*Region, Address)])
            .load(std::memory_order_acquire);
    return Info == evictedMark() ? nullptr : Info;
  }

  /// Materializes (if needed) and returns the detailed info for the grain.
  /// Safe to race: exactly one allocation wins publication. A slot in the
  /// Evicted state re-materializes the same way a never-tracked one does —
  /// the grain starts a fresh record (decay), its history living on in the
  /// eviction residue.
  InfoT &materializeDetail(uint64_t Address) {
    Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "materialize outside monitored regions");
    size_t Index = grainIndexIn(*Region, Address);
    std::atomic_ref Slot(Region->Details[Index]);
    InfoT *Existing = Slot.load(std::memory_order_acquire);
    if (Existing && Existing != evictedMark())
      return *Existing;
    auto *Fresh = new InfoT(BucketsPerGrain);
    while (true) {
      if (Slot.compare_exchange_weak(Existing, Fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        // Null->info and Evicted->info alike: the grain is live again.
        setLive(*Region, Index, true);
        return *Fresh;
      }
      if (Existing && Existing != evictedMark()) {
        // Another ingesting thread won the race; use its published info.
        delete Fresh;
        return *Existing;
      }
      // Lost to a null<->Evicted transition; retry with the fresh copy.
    }
  }

  /// First byte address of the grain containing \p Address.
  uint64_t grainBase(uint64_t Address) const {
    return Address & ~(GrainSize - 1);
  }

  /// Invokes \p Fn(grainBaseAddress, homeNode, info) for every
  /// materialized grain, slab by slab in ascending address order; home is
  /// NoNode when homes are untracked. Evicted grains are skipped (their
  /// counters live in the residue). Follows the live bitmap, so it costs
  /// O(range/64 + live). Requires the ingestion fence: a grain published
  /// concurrently may or may not be visited.
  template <typename Function> void forEachGrain(Function Fn) const {
    for (const Slab &Region : Slabs)
      forEachLive(Region, [&](size_t I) {
        Fn(Region.Base + (static_cast<uint64_t>(I) << GrainShift),
           Region.Homes ? loadHome(Region, I) : NoNode,
           *std::atomic_ref(Region.Details[I]).load(std::memory_order_acquire));
      });
  }

  /// Number of grains with materialized detail: the live bitmap's
  /// population count.
  size_t materializedGrains() const {
    size_t Count = 0;
    for (const Slab &Region : Slabs)
      for (size_t W = 0; W < Region.LiveWords; ++W)
        if (uint64_t Bits =
                std::atomic_ref(Region.Live[W]).load(std::memory_order_relaxed))
          Count += static_cast<size_t>(std::popcount(Bits));
    return Count;
  }

  /// Bytes of shadow metadata currently allocated: the flat per-grain slab
  /// arrays at their full reserved size, resident or not (write counters,
  /// detail pointers, homes when tracked), plus the exact footprint of
  /// every materialized info record, so the memory ablation reports
  /// honest numbers. This is the report-visible
  /// shadow-bytes figure, so the live bitmap is left out of it (it is in
  /// footprintBytes()). Requires the ingestion fence, like forEachGrain.
  size_t metadataBytes() const {
    size_t Bytes = 0;
    for (const Slab &Region : Slabs) {
      Bytes += Region.Grains * sizeof(uint32_t);
      if (Region.Homes)
        Bytes += Region.Grains * sizeof(NodeId);
      Bytes += Region.Grains * sizeof(InfoT *);
      forEachLive(Region, [&](size_t I) {
        Bytes += std::atomic_ref(Region.Details[I])
                     .load(std::memory_order_acquire)
                     ->footprintBytes();
      });
    }
    return Bytes;
  }

  //===--------------------------------------------------------------------===//
  // Bounded-memory continuous operation: a byte budget, and cold-grain
  // eviction at fenced epoch boundaries.
  //===--------------------------------------------------------------------===//

  /// Installs the byte budget enforceBudget() trims to (0 = unbounded,
  /// the default — budget-less tables behave exactly as before). Also
  /// maps the per-grain epoch-write baselines the coldness ranking
  /// reads, so only budgeted tables pay for them. Call before ingestion
  /// starts or under the same fence as enforceBudget().
  void setByteBudget(size_t Bytes) {
    ByteBudget = Bytes;
    if (Bytes == 0)
      return;
    for (Slab &Region : Slabs)
      if (!Region.EpochWrites)
        Region.EpochWrites = mapZeroed<uint32_t>(Region.Grains);
  }

  /// The installed byte budget (0 = unbounded).
  size_t byteBudget() const { return ByteBudget; }

  /// Counters folded out of evicted grains so far. Stable between epoch
  /// boundaries; read it after enforceBudget() for a consistent
  /// conservation check (residue + live counters == totals ever recorded).
  const GrainEvictionStats &evictedResidue() const { return Residue; }

  /// Total heap bytes behind this table — the denominator the eviction
  /// budget is enforced against. Unlike metadataBytes() (the
  /// report-visible shadow-bytes number, which intentionally keeps its
  /// historical meaning), this also counts the live bitmaps and the
  /// budgeted-mode epoch baselines.
  size_t footprintBytes() const {
    size_t Bytes = metadataBytes();
    for (const Slab &Region : Slabs) {
      Bytes += Region.LiveWords * sizeof(uint64_t);
      if (Region.EpochWrites)
        Bytes += Region.Grains * sizeof(uint32_t);
    }
    return Bytes;
  }

  /// Best-effort trim to the byte budget; a no-op when unbudgeted or
  /// already under budget. Must run with no ingestion in flight — the
  /// caller provides the fence (thread join / batch flush), typically at
  /// an epoch boundary.
  ///
  /// Grains are ranked coldest-first by writes since the previous epoch
  /// boundary (ties: fewer lifetime accesses, then lower address, so the
  /// sweep is fully deterministic). Each victim's Details slot takes the
  /// Evicted state with a release store, its counters fold into the
  /// residue, its stage-1 write counter resets to zero (decay: the grain
  /// must re-earn materialization), and its info is deleted on the spot:
  /// the fence guarantees no ingesting thread holds the pointer. The flat
  /// slab arrays are a fixed floor the budget cannot trim below; eviction
  /// stops when the evictable portion is exhausted.
  /// \returns the number of grains evicted.
  size_t enforceBudget() {
    if (ByteBudget == 0)
      return 0;
    size_t Footprint = footprintBytes();
    size_t Evicted = 0;
    if (Footprint > ByteBudget) {
      struct Candidate {
        uint64_t EpochWrites; // writes since the last epoch boundary
        uint64_t Accesses;    // lifetime accesses (tiebreak)
        uint64_t Base;        // grain base address (final tiebreak)
        Slab *Region;
        size_t Index;
      };
      std::vector<Candidate> Candidates;
      for (Slab &Region : Slabs)
        forEachLive(Region, [&](size_t I) {
          InfoT *Info = std::atomic_ref(Region.Details[I])
                            .load(std::memory_order_acquire);
          uint32_t Writes = std::atomic_ref(Region.WriteCounts[I])
                                .load(std::memory_order_relaxed);
          uint32_t Baseline =
              Region.EpochWrites ? Region.EpochWrites[I] : 0;
          Candidates.push_back(
              {Writes >= Baseline ? Writes - Baseline : 0, Info->accesses(),
               Region.Base + (static_cast<uint64_t>(I) << GrainShift),
               &Region, I});
        });
      std::sort(Candidates.begin(), Candidates.end(),
                [](const Candidate &A, const Candidate &B) {
                  if (A.EpochWrites != B.EpochWrites)
                    return A.EpochWrites < B.EpochWrites;
                  if (A.Accesses != B.Accesses)
                    return A.Accesses < B.Accesses;
                  return A.Base < B.Base;
                });
      for (const Candidate &Victim : Candidates) {
        if (Footprint <= ByteBudget)
          break;
        std::atomic_ref Slot(Victim.Region->Details[Victim.Index]);
        InfoT *Info = Slot.load(std::memory_order_relaxed);
        // Release, so a later re-materialization's CAS synchronizes with
        // the eviction.
        Slot.store(evictedMark(), std::memory_order_release);
        Residue.Grains += 1;
        Residue.Accesses += Info->accesses();
        Residue.Writes += Info->writes();
        Residue.Cycles += Info->cycles();
        Residue.Invalidations += Info->invalidations();
        Residue.RemoteAccesses += Info->remoteAccesses();
        std::atomic_ref(Victim.Region->WriteCounts[Victim.Index])
            .store(0, std::memory_order_relaxed);
        setLive(*Victim.Region, Victim.Index, false);
        Footprint -= Info->footprintBytes();
        delete Info;
        ++Evicted;
      }
    }
    // Roll the coldness window: next epoch's ranking measures write
    // traffic from this boundary on (evicted grains restart at zero).
    // This is the one walk over every slot, and on purpose: a grain that
    // is not live now may materialize next epoch, and ranking it exactly
    // then needs its write count at this boundary.
    for (Slab &Region : Slabs)
      if (Region.EpochWrites)
        for (size_t I = 0; I < Region.Grains; ++I)
          Region.EpochWrites[I] = std::atomic_ref(Region.WriteCounts[I])
                                      .load(std::memory_order_relaxed);
    return Evicted;
  }

private:
  /// Unmaps a slab array; carries the mapping's length.
  struct Unmapper {
    size_t Bytes = 0;
    void operator()(void *Array) const { ::munmap(Array, Bytes); }
  };
  template <typename T> using SlabArray = std::unique_ptr<T[], Unmapper>;

  /// \returns \p Count zero elements in a private anonymous mapping. The
  /// kernel zero-fills each page on its first touch, so nothing is written
  /// here and a page no grain reaches never becomes resident.
  /// \throws std::bad_alloc if the mapping fails, as operator new would.
  template <typename T> static SlabArray<T> mapZeroed(size_t Count) {
    static_assert(std::atomic_ref<T>::is_always_lock_free &&
                      std::atomic_ref<T>::required_alignment == alignof(T),
                  "slab elements are reached through lock-free atomic_ref");
    size_t Bytes = Count * sizeof(T);
    void *Array = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Array == MAP_FAILED)
      throw std::bad_alloc();
    return SlabArray<T>(static_cast<T *>(Array), Unmapper{Bytes});
  }

  struct Slab {
    uint64_t Base = 0;
    uint64_t Size = 0;
    size_t Grains = 0;
    SlabArray<uint32_t> WriteCounts; // one per grain
    /// First-touch home + 1, one per grain (TrackHomes); 0 = untouched.
    SlabArray<NodeId> Homes;
    SlabArray<InfoT *> Details; // one per grain
    /// Live-grain bitmap, bit I of word I/64 per grain: set while
    /// Details[I] holds an info. Set by the winning publication in
    /// materializeDetail, cleared by eviction.
    SlabArray<uint64_t> Live;
    size_t LiveWords = 0;
    /// Per-grain write-count baseline at the previous epoch boundary — the
    /// coldness ranking's reference point. Mapped only when a byte budget
    /// is installed; written solely under the enforceBudget fence.
    SlabArray<uint32_t> EpochWrites;
  };

  /// The Evicted state of a Details slot: a sentinel distinct from null
  /// and from any allocation, never dereferenced. detail() maps it to
  /// nullptr so evicted grains read as unmaterialized; materializeDetail
  /// CASes it back out when a grain re-earns tracking.
  static InfoT *evictedMark() {
    return reinterpret_cast<InfoT *>(static_cast<uintptr_t>(1));
  }

  const Slab *slabFor(uint64_t Address) const {
    // Unsigned wraparound turns the two-sided range test into one compare
    // per region, exact up to the top of the address space.
    for (const Slab &Region : Slabs)
      if (Address - Region.Base < Region.Size)
        return &Region;
    return nullptr;
  }
  Slab *slabFor(uint64_t Address) {
    return const_cast<Slab *>(
        static_cast<const GrainTable *>(this)->slabFor(Address));
  }
  size_t grainIndexIn(const Slab &Region, uint64_t Address) const {
    return static_cast<size_t>((Address - Region.Base) >> GrainShift);
  }

  /// Grain \p Index's first-touch home. Its slot holds the home plus one,
  /// so an untouched (zero) slot reads back as NoNode.
  static NodeId loadHome(const Slab &Region, size_t Index) {
    NodeId Stored =
        std::atomic_ref(Region.Homes[Index]).load(std::memory_order_relaxed);
    return Stored - 1;
  }

  /// Sets or clears grain \p Index's live bit. Release, so a walk that
  /// sees the bit also sees the publication that preceded it.
  static void setLive(Slab &Region, size_t Index, bool IsLive) {
    uint64_t Bit = uint64_t(1) << (Index % 64);
    std::atomic_ref Word(Region.Live[Index / 64]);
    if (IsLive)
      Word.fetch_or(Bit, std::memory_order_release);
    else
      Word.fetch_and(~Bit, std::memory_order_release);
  }

  /// Invokes \p Fn(index) for every live grain of \p Region, in ascending
  /// index order, skipping empty bitmap words.
  template <typename Function>
  static void forEachLive(const Slab &Region, Function Fn) {
    for (size_t W = 0; W < Region.LiveWords; ++W)
      for (uint64_t Bits =
               std::atomic_ref(Region.Live[W]).load(std::memory_order_acquire);
           Bits; Bits &= Bits - 1)
        Fn(W * 64 + static_cast<size_t>(std::countr_zero(Bits)));
  }

  unsigned GrainShift;
  uint64_t GrainSize;
  uint64_t BucketsPerGrain;
  std::vector<Slab> Slabs;
  /// Byte budget for enforceBudget (0 = unbounded). Plain: installed
  /// before ingestion, read only at fenced epoch boundaries.
  size_t ByteBudget = 0;
  /// Counters folded out of evicted grains; mutated only under the
  /// enforceBudget fence.
  GrainEvictionStats Residue;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_GRAINTABLE_H
