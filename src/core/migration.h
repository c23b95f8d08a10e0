// Migration and preemption (§III.B, Fig. 3; cost discussion §IV.D, Fig. 7).
//
// When the path search cannot admit a container, Aladdin increases the flow
// by restructuring existing placements:
//  * Migration (Fig. 3b): a blocker — any priority — moves to an alternative
//    machine; nobody loses their placement.
//  * Preemption (Fig. 3a, made priority-safe by weighted flows): a blocker
//    with strictly lower weighted flow is evicted and re-queued; Eq. 5
//    guarantees a high-priority container can never be displaced by a
//    lower-priority one, because preemption chains strictly decrease
//    weighted flow and therefore terminate.
//
// The engine also hosts the compaction pass: emptying lightly-loaded
// machines by migrating their containers into existing gaps, which is how
// rescheduling recovers packing quality for adversarial arrival orders
// (Fig. 7c) at a bounded migration cost (Fig. 13b).
#pragma once

#include <cstdint>
#include <vector>

#include "core/network.h"
#include "core/weights.h"

namespace aladdin::core {

class RepairEngine {
 public:
  // Reusable per-tick scratch. A RepairEngine is cheap to construct (three
  // pointers), so the scheduler rebuilds one per Schedule() — but its
  // working buffers are not: hand the engine a Scratch that outlives it and
  // every repair pass after warmup runs without heap allocation. Without an
  // external Scratch the engine owns a private one (tests, one-shot use).
  struct Scratch {
    std::vector<cluster::ContainerId> victims;
    std::vector<cluster::ContainerId> fillers;
    std::vector<std::pair<cluster::ContainerId, cluster::MachineId>> moved;
    std::vector<cluster::ContainerId> preempted;
    std::vector<cluster::ContainerId> requeue;
    // Repair's FIFO: a vector plus head cursor (total pushes are bounded by
    // pending + preemption-chain length, so nothing is ever reclaimed
    // mid-call and a deque's block allocations are pure overhead).
    std::vector<cluster::ContainerId> queue;
    // Per-container attempt counts, epoch-stamped so clearing between
    // Repair() calls is O(1) instead of a rehash/fill.
    std::vector<std::uint32_t> attempt_stamp;
    std::vector<int> attempt_count;
    std::uint32_t attempt_epoch = 0;
    // Compact's per-pass machine snapshot.
    std::vector<std::pair<std::int64_t, cluster::MachineId>> used;
    std::vector<cluster::ContainerId> tenants;
  };

  RepairEngine(AggregatedNetwork& network, const PriorityWeights& weights,
               Scratch* scratch = nullptr);

  // Attempts to place every container in `pending`, highest weighted flow
  // first. Preempted victims join the queue (always at strictly lower
  // weighted flow). Returns the containers that remain unplaced.
  std::vector<cluster::ContainerId> Repair(
      std::vector<cluster::ContainerId> pending, const SearchOptions& search,
      SearchCounters& counters);

  // Compaction: tries to fully drain the least-utilised machines into other
  // used machines without creating violations. Stops after `max_passes`
  // sweeps, when a sweep frees no machine, or when `migration_budget` moves
  // have been spent. Returns machines freed.
  int Compact(const SearchOptions& search, SearchCounters& counters,
              int max_passes, std::int64_t migration_budget);

 private:
  // One placement attempt for `c` including restructuring. Returns true if
  // `c` ends up deployed. Preempted victims are appended to `requeue`.
  bool TryPlace(cluster::ContainerId c, const SearchOptions& search,
                SearchCounters& counters,
                std::vector<cluster::ContainerId>& requeue);

  // Attempt to clear space for `c` on machine `m` by migrating/preempting
  // at most kMaxVictims blockers. Returns true (and deploys c) on success.
  // On failure every container is back on its prior machine, but the
  // victims are re-deployed at the end of DeployedOn(m), so the machine's
  // tenant order (which later tie-breaks read) can change.
  bool RepairOnMachine(cluster::ContainerId c, cluster::MachineId m,
                       const SearchOptions& search, SearchCounters& counters,
                       std::vector<cluster::ContainerId>& requeue);

  // Attempt slot for `c`, zeroed on first touch within the current epoch
  // (Repair() bumps the epoch once per call).
  int& AttemptCount(cluster::ContainerId c);

  AggregatedNetwork& network_;
  const PriorityWeights& weights_;
  Scratch owned_scratch_;  // used when no external scratch is supplied
  Scratch& scratch_;
};

}  // namespace aladdin::core
