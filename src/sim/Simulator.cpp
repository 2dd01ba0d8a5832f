//===- sim/Simulator.cpp - Multicore discrete-event simulator ------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "support/Assert.h"

#include <algorithm>
#include <queue>

using namespace cheetah;
using namespace cheetah::sim;

const ThreadRecord &SimulationResult::thread(ThreadId Tid) const {
  for (const ThreadRecord &Record : Threads)
    if (Record.Tid == Tid)
      return Record;
  CHEETAH_UNREACHABLE("no record for requested thread id");
}

void Simulator::addObserver(SimObserver *Observer) {
  CHEETAH_ASSERT(Observer != nullptr, "null observer");
  Observers.push_back(Observer);
}

uint64_t Simulator::notifyThreadStart(ThreadId Tid, bool IsMain,
                                      uint64_t Now) {
  uint64_t Extra = 0;
  for (SimObserver *Observer : Observers)
    Extra += Observer->onThreadStart(Tid, IsMain, Now);
  return Extra;
}

uint64_t Simulator::notifyAccess(ThreadId Tid, const MemoryAccess &Access,
                                 const CoherenceResult &Result, uint64_t Now) {
  uint64_t Extra = 0;
  for (SimObserver *Observer : Observers)
    Extra += Observer->onMemoryAccess(Tid, Access, Result, Now);
  return Extra;
}

/// A live thread inside one parallel phase (or the main thread during a
/// serial body).
struct Simulator::RunningThread {
  ThreadId Tid = 0;
  Generator<ThreadEvent> Body;
  uint64_t Clock = 0;
  ThreadRecord Record;
};

bool Simulator::step(RunningThread &Thread, CoherenceModel &Coherence,
                     SimulationResult &Result) {
  if (!Thread.Body.next())
    return false;
  const ThreadEvent &Event = Thread.Body.value();
  if (Event.Kind == ThreadEventKind::Compute) {
    uint64_t N = Event.ComputeInstructions;
    Thread.Clock += N * LatencyModel::ComputeCyclesPerInstruction;
    Thread.Record.Instructions += N;
    for (SimObserver *Observer : Observers)
      Observer->onInstructions(Thread.Tid, N);
    return true;
  }

  CoherenceResult Access =
      Coherence.access(Thread.Tid, Event.Access, Thread.Clock);
  if (Topology && Topology->multiNode()) {
    // First-touch placement: the page's home is the node of its first
    // accessor. Cache-missing accesses from any other node detour through
    // the home node (DRAM fetch from its controller, coherence ordered by
    // its directory) and pay the remote surcharge — folded into the access
    // latency so observers (PMU sampling) see the remote-DRAM cost.
    NodeId Node = Topology->nodeOf(Thread.Tid);
    auto [Home, Fresh] =
        PageHomes.try_emplace(Topology->pageIndex(Event.Access.Address), Node);
    (void)Fresh;
    if (Home->second != Node) {
      uint32_t Base = 0;
      if (Access.Outcome == AccessOutcome::ColdMiss)
        Base = LatencyModel::RemoteDramExtraCycles;
      else if (Access.Outcome != AccessOutcome::LocalHit)
        Base = LatencyModel::RemoteTransferExtraCycles;
      else if (Event.Access.Kind == AccessKind::Write)
        // Cache-hitting remote stores still drain to the home node's
        // memory controller; reads served from the local cache stay free.
        Base = LatencyModel::RemoteStoreExtraCycles;
      if (Base) {
        // Hop-proportional interconnect: crossing a farther node pair
        // pays Base scaled by the pair's distance over the minimum remote
        // distance, so uniform (binary local/remote) topologies pay
        // exactly Base and asymmetric ones make far traffic visibly more
        // expensive than near traffic.
        uint64_t Extra =
            Topology->scaledRemoteCycles(Base, Node, Home->second);
        Access.LatencyCycles += Extra;
        ++Result.RemoteNumaAccesses;
        Result.RemoteNumaExtraCycles += Extra;
      }
    }
  }
  Thread.Clock += Access.LatencyCycles;
  Thread.Record.Instructions += 1;
  Thread.Record.MemoryAccesses += 1;
  Thread.Record.MemoryCycles += Access.LatencyCycles;
  // Observer overhead (sampling traps, instrumentation) is charged after the
  // access completes, as a signal handler would run after the instruction.
  Thread.Clock +=
      notifyAccess(Thread.Tid, Event.Access, Access, Thread.Clock);
  return true;
}

SimulationResult Simulator::run(const ForkJoinProgram &Program) {
  SimulationResult Result;
  CoherenceModel Coherence(Geometry);
  PageHomes.clear();

  ThreadId NextTid = 0;
  uint64_t MainClock = 0;

  // The main thread exists for the whole program.
  RunningThread Main;
  Main.Tid = NextTid++;
  Main.Record.Tid = Main.Tid;
  Main.Record.IsMain = true;
  Main.Record.StartCycle = 0;
  MainClock += notifyThreadStart(Main.Tid, /*IsMain=*/true, MainClock);

  for (size_t PhaseIndex = 0; PhaseIndex < Program.Phases.size();
       ++PhaseIndex) {
    const PhaseSpec &Spec = Program.Phases[PhaseIndex];

    // --- Serial part: run the main thread's body to completion. ---
    if (Spec.SerialBody) {
      PhaseRecord Serial;
      Serial.Name = Spec.Name + "/serial";
      Serial.Parallel = false;
      Serial.StartCycle = MainClock;
      Serial.Members.push_back(Main.Tid);

      Main.Clock = MainClock;
      Main.Body = Spec.SerialBody();
      while (step(Main, Coherence, Result)) {
      }
      MainClock = Main.Clock;

      Serial.EndCycle = MainClock;
      Result.Phases.push_back(std::move(Serial));
    }

    if (Spec.ParallelBodies.empty())
      continue;

    // --- Parallel part: fork, interleave by virtual time, join. ---
    PhaseRecord Parallel;
    Parallel.Name = Spec.Name + "/parallel";
    Parallel.Parallel = true;
    Parallel.StartCycle = MainClock;

    std::vector<RunningThread> Children;
    Children.reserve(Spec.ParallelBodies.size());
    for (const ThreadBody &Body : Spec.ParallelBodies) {
      CHEETAH_ASSERT(Body != nullptr, "null parallel thread body");
      RunningThread Child;
      Child.Tid = NextTid++;
      // Thread creation is serialized on the main thread, so later threads
      // start later — visible in the per-thread start cycles.
      MainClock += LatencyModel::ThreadSpawnCycles;
      Child.Clock = MainClock;
      Child.Clock += notifyThreadStart(Child.Tid, /*IsMain=*/false,
                                       Child.Clock);
      Child.Record.Tid = Child.Tid;
      Child.Record.PhaseIndex = static_cast<uint32_t>(PhaseIndex);
      Child.Record.StartCycle = Child.Clock;
      Child.Body = Body();
      Parallel.Members.push_back(Child.Tid);
      Children.push_back(std::move(Child));
    }

    // Min-clock scheduling: always advance the thread whose virtual clock is
    // smallest. This interleaves contending threads at instruction
    // granularity, which is what makes ping-pong invalidation patterns
    // emerge the way they do on real hardware.
    using QueueEntry = std::pair<uint64_t, size_t>;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        Runnable;
    for (size_t I = 0; I < Children.size(); ++I)
      Runnable.push({Children[I].Clock, I});

    uint64_t PhaseEnd = MainClock;
    while (!Runnable.empty()) {
      auto [Clock, Index] = Runnable.top();
      Runnable.pop();
      RunningThread &Child = Children[Index];
      if (step(Child, Coherence, Result)) {
        Runnable.push({Child.Clock, Index});
        continue;
      }
      // Thread finished.
      Child.Record.EndCycle = Child.Clock;
      PhaseEnd = std::max(PhaseEnd, Child.Clock);
      for (SimObserver *Observer : Observers)
        Observer->onThreadEnd(Child.Record);
    }

    // Joins are serialized on the main thread after the last child ends.
    MainClock = PhaseEnd + LatencyModel::ThreadJoinCycles * Children.size();
    Parallel.EndCycle = MainClock;

    for (RunningThread &Child : Children)
      Result.Threads.push_back(Child.Record);
    Result.Phases.push_back(std::move(Parallel));
  }

  Main.Record.EndCycle = MainClock;
  for (SimObserver *Observer : Observers)
    Observer->onThreadEnd(Main.Record);
  Result.Threads.push_back(Main.Record);
  Result.TotalCycles = MainClock;
  Result.Coherence = Coherence.stats();

  // Keep thread records sorted by id for deterministic reporting.
  std::sort(Result.Threads.begin(), Result.Threads.end(),
            [](const ThreadRecord &A, const ThreadRecord &B) {
              return A.Tid < B.Tid;
            });
  return Result;
}
