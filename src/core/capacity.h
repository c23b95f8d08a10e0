// The multidimensional, nonlinear capacity function (Eq. 6–8).
//
// In Aladdin's flow network all interior edges are infinite; the binding
// capacities sit on c(s, T_i) — the container's request tuple — and
// c(N_j, t) — the machine's remaining provisioning tuple. A path carries a
// new flow iff
//   (1) c(s,T_i)(x1..xn) <= c(N_j,t)(x1..xn)   componentwise   (Eq. 6), and
//   (2) T_i ∉ blacklist(N_j)                                    (Eq. 7–8),
// where the blacklist is the set-valued, *nonlinear* part of the capacity:
// it depends on which containers are already deployed on N_j, not on a
// linear combination of flow values.
#pragma once

#include "cluster/state.h"

namespace aladdin::core {

// Outcome of evaluating the capacity function for a (container, machine)
// pair; split so the search can attribute failures (the IL memo keeps only
// blacklist failures, and DiagnoseFailure tells resource failures from
// blacklist ones). The best-fit walks test (1) against the free tuples
// AggregatedNetwork indexes and probe only the blacklist.
struct CapacityCheck {
  bool fits = false;         // Eq. 6
  bool blacklisted = false;  // Eq. 7–8
  [[nodiscard]] bool Admits() const { return fits && !blacklisted; }
};

class CapacityFunction {
 public:
  // Evaluates both parts of the capacity function against live state.
  static CapacityCheck Evaluate(const cluster::ClusterState& state,
                                cluster::ContainerId container,
                                cluster::MachineId machine) {
    CapacityCheck check;
    check.fits = state.Fits(container, machine);
    // Short-circuit: the blacklist probe walks the machine's deployed app
    // set, so skip it when the resource tuple already rejects the path.
    check.blacklisted = check.fits && state.Blacklisted(container, machine);
    return check;
  }
};

}  // namespace aladdin::core
