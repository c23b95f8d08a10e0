// Independent constraint auditor.
//
// Schedulers never self-report violations: after a run, the auditor recounts
// everything from the raw placements in the ClusterState. This is the data
// source for Fig. 9 (constraint violations per scheduler and the
// anti-affinity share of violations) and the machine/utilisation numbers in
// Fig. 10–11.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/state.h"

namespace aladdin::cluster {

// Why an unplaced container could not be deployed, judged post-hoc against
// the final cluster state (§V.B methodology: undeployed containers ARE the
// violation count; Fig. 9e splits them by cause).
enum class UnplacedCause {
  kResources,     // no machine has enough free resources even ignoring policy
  kAntiAffinity,  // resources exist but every fitting machine is blacklisted
  kScheduler,     // a feasible machine exists; the scheduler just missed it
};

struct AuditReport {
  std::size_t total_containers = 0;
  std::size_t placed = 0;
  std::size_t unplaced = 0;
  // Unplaced containers whose pods are gone (Audit's `retired`). They are
  // not in `unplaced`, its cause split or the ViolationPercent() base.
  std::size_t retired = 0;

  // Unplaced broken down by cause.
  std::size_t unplaced_resources = 0;
  std::size_t unplaced_anti_affinity = 0;
  std::size_t unplaced_scheduler = 0;

  // Containers placed in violation of an anti-affinity rule (each offending
  // container counted once).
  std::size_t colocation_violations = 0;

  // Unplaced containers whose application carries any anti-affinity rule —
  // their unsatisfied constraint is anti-affinity-typed regardless of the
  // proximate cause above. Drives Fig. 9(e).
  std::size_t unplaced_aa_constrained = 0;

  // Priority inversions: an unplaced container outranked by some placed
  // container whose eviction would have made room on a non-blacklisted
  // machine.
  std::size_t priority_inversions = 0;

  // Paper metric for Fig. 9(a–d): violations as % of the live containers
  // (total minus retired). Unplaced containers and violating placements
  // both count.
  [[nodiscard]] double ViolationPercent() const;

  // Fig. 9(e): the share of all violations that are anti-affinity-typed —
  // violating placements plus unplaced containers of anti-affinity-
  // constrained applications, over all violations.
  [[nodiscard]] double AntiAffinityShare() const;

  [[nodiscard]] std::size_t TotalViolations() const {
    return unplaced + colocation_violations;
  }
};

// Full audit of a final state. O(placed + unplaced·scan) where the per-
// unplaced scan terminates at the first feasible machine. `retired` names
// containers whose pods are gone: an online run's append-only workload
// keeps their rows, but they are no longer asking to be placed. Batch
// experiments pass none.
AuditReport Audit(const ClusterState& state,
                  std::span<const ContainerId> retired = {});

// Lists each placed container that violates an anti-affinity rule (for
// debugging and the property tests).
std::vector<ContainerId> CollectColocationViolations(const ClusterState& state);

}  // namespace aladdin::cluster
