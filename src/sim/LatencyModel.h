//===- sim/LatencyModel.h - Memory latency model ----------------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Latency parameters for the simulated memory hierarchy. The absolute
/// values are calibrated so the *shapes* of the paper's results reproduce
/// (Figure 1's super-linear degradation, Table 1's predictable recovery);
/// they approximate a mid-2010s AMD Opteron like the paper's testbed.
///
/// The model distinguishes the outcomes Cheetah's assessment depends on:
/// cheap local hits versus expensive coherence activity. Contended lines
/// additionally serialize ownership transfers (see CoherenceModel), which is
/// what makes the cost of false sharing grow with the number of writers.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SIM_LATENCYMODEL_H
#define CHEETAH_SIM_LATENCYMODEL_H

#include <cstdint>

namespace cheetah {
namespace sim {

/// How the memory system resolved an access.
enum class AccessOutcome : uint8_t {
  /// Line valid in the requesting core's private cache.
  LocalHit,
  /// First-ever touch of the line: fetched from DRAM.
  ColdMiss,
  /// Line supplied by another core's cache in a clean state.
  CleanTransfer,
  /// Line supplied by another core that held it modified (the false-sharing
  /// signature: a dirty cache-to-cache transfer plus invalidation).
  DirtyTransfer,
  /// The requester already held the line shared and needed ownership to
  /// write (read-for-ownership upgrade).
  Upgrade,
};

/// Cycle costs of each access outcome plus execution-engine parameters,
/// all constants of the model.
struct LatencyModel {
  /// Private-cache hit.
  static constexpr uint32_t LocalHitCycles = 3;
  /// DRAM fetch on a never-before-seen line.
  static constexpr uint32_t ColdMissCycles = 120;
  /// Clean cache-to-cache transfer.
  static constexpr uint32_t CleanTransferCycles = 40;
  /// Dirty cache-to-cache transfer + invalidation acknowledgement.
  static constexpr uint32_t DirtyTransferCycles = 50;
  /// Shared-to-exclusive upgrade (invalidate other sharers, keep data).
  static constexpr uint32_t UpgradeCycles = 30;
  /// Extra cycles when a DRAM fetch is served by a *remote* NUMA node's
  /// memory controller (first-touch page home != accessor's node). Only
  /// applied on multi-node topologies; zero-node-distance accesses never
  /// pay it.
  static constexpr uint32_t RemoteDramExtraCycles = 90;
  /// Extra cycles for coherence activity (transfers, upgrades) on a page
  /// whose *home directory* lives on another node. This models a
  /// home-node directory protocol: the request is ordered through the
  /// home node's directory regardless of where the supplying cache sits
  /// (the 3-hop case), so locality is keyed to the page home, not to the
  /// current holder.
  static constexpr uint32_t RemoteTransferExtraCycles = 30;
  /// Extra cycles per *store* to a page homed on another node, even when
  /// the line hits in the writer's private cache. Stores eventually drain
  /// to the home node's memory controller; with the model's infinite
  /// write-back caches that drain would otherwise be invisible, so it is
  /// charged per store (the store buffer caps outstanding remote
  /// write-backs, making the drain a steady per-store cost on real
  /// machines). This is the recurring cost a first-touch or page-placement
  /// fix removes — the signal page-level assessment (EQ.1 for pages)
  /// predicts from.
  static constexpr uint32_t RemoteStoreExtraCycles = 20;
  /// Per-line serialization cost: each queued ownership transfer occupies
  /// the line's directory slot for this long. Concurrent writers to one
  /// line therefore see latency grow with the number of contenders.
  static constexpr uint32_t LineServiceCycles = 18;
  /// Maximum backlog (in service slots) a new request can observe: real
  /// directories pipeline deeper backlogs, so waiting time saturates.
  static constexpr uint32_t MaxQueuedServices = 4;
  /// Cycles per non-memory instruction.
  static constexpr uint32_t ComputeCyclesPerInstruction = 1;
  /// Cycles the main thread spends creating one child thread.
  static constexpr uint32_t ThreadSpawnCycles = 8000;
  /// Cycles to join a finished child.
  static constexpr uint32_t ThreadJoinCycles = 2000;

  /// \returns the base (uncontended) cycle cost of \p Outcome.
  static uint32_t baseCost(AccessOutcome Outcome) {
    switch (Outcome) {
    case AccessOutcome::LocalHit:
      return LocalHitCycles;
    case AccessOutcome::ColdMiss:
      return ColdMissCycles;
    case AccessOutcome::CleanTransfer:
      return CleanTransferCycles;
    case AccessOutcome::DirtyTransfer:
      return DirtyTransferCycles;
    case AccessOutcome::Upgrade:
      return UpgradeCycles;
    }
    return LocalHitCycles;
  }

  /// \returns true if \p Outcome required another core's involvement; these
  /// outcomes queue on the line's serialization slot.
  static bool involvesCoherence(AccessOutcome Outcome) {
    return Outcome == AccessOutcome::CleanTransfer ||
           Outcome == AccessOutcome::DirtyTransfer ||
           Outcome == AccessOutcome::Upgrade;
  }
};

} // namespace sim
} // namespace cheetah

#endif // CHEETAH_SIM_LATENCYMODEL_H
