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

#include <cstdint>
#include <span>

#include "cluster/state.h"

namespace aladdin::core {

// Outcome of evaluating the capacity function for a (container, machine)
// pair; split so the search can attribute failures (the full enumeration
// memoises only blacklist failures for IL, and DiagnoseFailure tells
// resource failures from blacklist ones).
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

  // Batched Eq. 6 over a flat machine array: one fit bit per machine for a
  // single request tuple. The loop body is a dependency-free componentwise
  // compare against consecutive candidates — the structure-of-arrays form
  // the group waterfall feeds its frozen snapshot chunks through. Each bit
  // equals CapacityCheck::fits for that (container, machine) pair.
  static void BatchFits(const cluster::ClusterState& state,
                        cluster::ContainerId container,
                        std::span<const std::int32_t> machines,
                        std::span<std::uint8_t> out) {
    for (std::size_t i = 0; i < machines.size(); ++i) {
      out[i] =
          state.Fits(container, cluster::MachineId(machines[i])) ? 1 : 0;
    }
  }
};

}  // namespace aladdin::core
