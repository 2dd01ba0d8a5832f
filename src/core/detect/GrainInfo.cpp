//===- core/detect/GrainInfo.cpp - Granularity-generic grain record -------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/detect/GrainInfo.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::core;

ThreadStatsChain::Chunk::Chunk() {
  for (size_t I = 0; I < Capacity; ++I) {
    Tids[I].store(NoThread, std::memory_order_relaxed);
    Accesses[I].store(0, std::memory_order_relaxed);
    Cycles[I].store(0, std::memory_order_relaxed);
  }
}

ThreadStatsChain::~ThreadStatsChain() {
  Chunk *Node = First.Next.load(std::memory_order_acquire);
  while (Node) {
    Chunk *Next = Node->Next.load(std::memory_order_acquire);
    delete Node;
    Node = Next;
  }
}

void ThreadStatsChain::add(ThreadId Tid, uint64_t Accesses, uint64_t Cycles) {
  Chunk *Node = &First;
  for (;;) {
    for (size_t I = 0; I < Chunk::Capacity; ++I) {
      ThreadId Slot = Node->Tids[I].load(std::memory_order_relaxed);
      if (Slot == NoThread &&
          Node->Tids[I].compare_exchange_strong(Slot, Tid,
                                                std::memory_order_relaxed))
        Slot = Tid;
      // On CAS failure `Slot` holds the claiming thread's id, which may
      // still be ours if another ingester raced the same sample tid.
      if (Slot == Tid) {
        Node->Accesses[I].fetch_add(Accesses, std::memory_order_relaxed);
        Node->Cycles[I].fetch_add(Cycles, std::memory_order_relaxed);
        return;
      }
    }
    Chunk *Next = Node->Next.load(std::memory_order_acquire);
    if (!Next) {
      auto *Fresh = new Chunk();
      if (Node->Next.compare_exchange_strong(Next, Fresh,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        Next = Fresh;
      } else {
        // Another ingesting thread published a chunk first; use theirs.
        delete Fresh;
      }
    }
    Node = Next;
  }
}

std::vector<ThreadLineStats> ThreadStatsChain::snapshot() const {
  std::vector<ThreadLineStats> Result;
  for (const Chunk *Node = &First; Node;
       Node = Node->Next.load(std::memory_order_acquire)) {
    for (size_t I = 0; I < Chunk::Capacity; ++I) {
      ThreadId Tid = Node->Tids[I].load(std::memory_order_relaxed);
      if (Tid == NoThread)
        continue;
      Result.push_back(
          {Tid, Node->Accesses[I].load(std::memory_order_relaxed),
           Node->Cycles[I].load(std::memory_order_relaxed)});
    }
  }
  std::sort(Result.begin(), Result.end(),
            [](const ThreadLineStats &A, const ThreadLineStats &B) {
              return A.Tid < B.Tid;
            });
  return Result;
}

size_t ThreadStatsChain::distinctThreads() const {
  size_t Count = 0;
  for (const Chunk *Node = &First; Node;
       Node = Node->Next.load(std::memory_order_acquire))
    for (size_t I = 0; I < Chunk::Capacity; ++I)
      if (Node->Tids[I].load(std::memory_order_relaxed) != NoThread)
        ++Count;
  return Count;
}

size_t ThreadStatsChain::overflowBytes() const {
  size_t Bytes = 0;
  for (const Chunk *Node = First.Next.load(std::memory_order_acquire); Node;
       Node = Node->Next.load(std::memory_order_acquire))
    Bytes += sizeof(Chunk);
  return Bytes;
}

void AtomicBucketStats::record(uint32_t Actor, AccessKind Kind,
                               uint64_t LatencyCycles) {
  if (Kind == AccessKind::Read)
    Reads.fetch_add(1, std::memory_order_relaxed);
  else
    Writes.fetch_add(1, std::memory_order_relaxed);
  if (LatencyCycles)
    Cycles.fetch_add(LatencyCycles, std::memory_order_relaxed);
  uint32_t First = FirstActor.load(std::memory_order_relaxed);
  if (First == NoActor &&
      FirstActor.compare_exchange_strong(First, Actor,
                                         std::memory_order_relaxed))
    First = Actor;
  // On CAS failure `First` holds the actor that won the publication race.
  if (First != Actor && !MultiActor.load(std::memory_order_relaxed))
    MultiActor.store(true, std::memory_order_relaxed);
}

void AtomicBucketStats::merge(const RunBucketStats &Bucket) {
  if (Bucket.Reads)
    Reads.fetch_add(Bucket.Reads, std::memory_order_relaxed);
  if (Bucket.Writes)
    Writes.fetch_add(Bucket.Writes, std::memory_order_relaxed);
  if (Bucket.Cycles)
    Cycles.fetch_add(Bucket.Cycles, std::memory_order_relaxed);
  uint32_t First = FirstActor.load(std::memory_order_relaxed);
  if (First == NoActor &&
      FirstActor.compare_exchange_strong(First, Bucket.FirstActor,
                                         std::memory_order_relaxed))
    First = Bucket.FirstActor;
  // A run whose actors all match the bucket's first actor changes nothing.
  if ((First != Bucket.FirstActor || Bucket.MultiActor) &&
      !MultiActor.load(std::memory_order_relaxed))
    MultiActor.store(true, std::memory_order_relaxed);
}

WordStats AtomicBucketStats::snapshot() const {
  WordStats Result;
  Result.Reads = Reads.load(std::memory_order_relaxed);
  Result.Writes = Writes.load(std::memory_order_relaxed);
  Result.Cycles = Cycles.load(std::memory_order_relaxed);
  Result.FirstThread = FirstActor.load(std::memory_order_relaxed);
  Result.MultiThread = MultiActor.load(std::memory_order_relaxed);
  return Result;
}

void PageRunExtras::reset() {
  RemoteAccesses = 0;
  RemoteCycles = 0;
  Nodes = 0;
  Remote.clear();
}

void PageRunExtras::record(NodeId Node, AccessKind, uint64_t LatencyCycles,
                           const PageAccessContext &Ctx) {
  CHEETAH_ASSERT(Node < NumaTopology::MaxNodes, "node id out of range");
  if (Ctx.Remote) {
    RemoteAccesses += 1;
    RemoteCycles += LatencyCycles;
    uint32_t Distance =
        Ctx.Distance ? Ctx.Distance : NumaTopology::DefaultRemoteDistance;
    auto It = std::find_if(Remote.begin(), Remote.end(),
                           [Distance](const RemoteDistanceStats &Slot) {
                             return Slot.Distance == Distance;
                           });
    if (It == Remote.end()) {
      Remote.push_back({Distance, 0, 0});
      It = Remote.end() - 1;
    }
    It->Accesses += 1;
    It->Cycles += LatencyCycles;
  }
  Nodes |= NodeMask(1) << Node;
}

void PageGrainExtras::record(NodeId Node, AccessKind,
                             uint64_t LatencyCycles,
                             const PageAccessContext &Ctx) {
  CHEETAH_ASSERT(Node < NumaTopology::MaxNodes, "node id out of range");
  if (Ctx.Remote) {
    RemoteAccesses.fetch_add(1, std::memory_order_relaxed);
    RemoteCycles.fetch_add(LatencyCycles, std::memory_order_relaxed);
    // Every remote sample lands in a bucket so the breakdown always
    // conserves against RemoteAccesses. Validated topologies hand in
    // distances >= 1; a caller passing 0 (no distance information) folds
    // into the default remote distance.
    bucketRemote(Ctx.Distance ? Ctx.Distance
                              : NumaTopology::DefaultRemoteDistance,
                 1, LatencyCycles);
  }
  noteNodes(NodeMask(1) << Node);
}

void PageGrainExtras::merge(const PageRunExtras &Run) {
  if (Run.RemoteAccesses) {
    RemoteAccesses.fetch_add(Run.RemoteAccesses, std::memory_order_relaxed);
    RemoteCycles.fetch_add(Run.RemoteCycles, std::memory_order_relaxed);
  }
  for (const RemoteDistanceStats &Slot : Run.Remote)
    bucketRemote(Slot.Distance, Slot.Accesses, Slot.Cycles);
  noteNodes(Run.Nodes);
}

void PageGrainExtras::bucketRemote(uint32_t Distance, uint64_t Accesses,
                                   uint64_t Cycles) {
  for (AtomicDistanceStats &Slot : DistanceSlots) {
    uint32_t Current = Slot.Distance.load(std::memory_order_relaxed);
    if (Current == 0 &&
        Slot.Distance.compare_exchange_strong(Current, Distance,
                                              std::memory_order_relaxed))
      Current = Distance;
    // On CAS failure `Current` holds the distance that won the slot.
    if (Current != Distance)
      continue;
    Slot.Accesses.fetch_add(Accesses, std::memory_order_relaxed);
    if (Cycles)
      Slot.Cycles.fetch_add(Cycles, std::memory_order_relaxed);
    return;
  }
  // A settled home yields at most MaxNodes - 1 distinct distances, so the
  // array cannot fill through the detector. Direct API misuse with more
  // distances than nodes folds into the last slot: the per-bucket split
  // degrades but the accesses/cycles conservation against remoteAccesses()
  // survives.
  DistanceSlots[NumaTopology::MaxNodes - 1].Accesses.fetch_add(
      Accesses, std::memory_order_relaxed);
  if (Cycles)
    DistanceSlots[NumaTopology::MaxNodes - 1].Cycles.fetch_add(
        Cycles, std::memory_order_relaxed);
}

std::vector<RemoteDistanceStats> PageGrainExtras::remoteByDistance() const {
  std::vector<RemoteDistanceStats> Result;
  for (const AtomicDistanceStats &Slot : DistanceSlots) {
    RemoteDistanceStats Stats;
    Stats.Distance = Slot.Distance.load(std::memory_order_relaxed);
    Stats.Accesses = Slot.Accesses.load(std::memory_order_relaxed);
    Stats.Cycles = Slot.Cycles.load(std::memory_order_relaxed);
    if (Stats.Accesses == 0)
      continue;
    Result.push_back(Stats);
  }
  std::sort(Result.begin(), Result.end(),
            [](const RemoteDistanceStats &A, const RemoteDistanceStats &B) {
              return A.Distance < B.Distance;
            });
  return Result;
}
