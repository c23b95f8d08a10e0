// The literal Fig. 4 flow network and its max-flow relaxation.
//
// Aladdin's Algorithm 1 never materialises the full network — it searches
// it path by path under the nonlinear capacity function. This module builds
// the network explicitly (source → T_i → A_j → G_k → R_x → N_y → sink, with
// flow measured in CPU millicores) and solves the *linear relaxation* with
// the scalar max-flow solver: anti-affinity blacklists and container
// impartibility (§IV.D: "a container with 4 CPUs cannot be broken down")
// are ignored, so the resulting flow value is a provable upper bound on the
// CPU any scheduler can place.
//
// Uses:
//   * validation — the audited placed-CPU of every scheduler must be <= the
//     bound (asserted by tests);
//   * diagnostics — the gap between the bound and Aladdin's placement
//     isolates how much capacity the *constraints* (not the algorithm)
//     make unusable.
#pragma once

#include <cstdint>

#include "cluster/state.h"
#include "flow/graph.h"
#include "trace/workload.h"

namespace aladdin::core {

struct RelaxationNetwork {
  flow::Graph graph;
  VertexId source;
  VertexId sink;
  std::size_t edge_count = 0;
};

// Builds the aggregated network against the *current* free capacities of
// `state` (so bound pods are excluded from both sides).
RelaxationNetwork BuildRelaxationNetwork(const trace::Workload& workload,
                                         const cluster::ClusterState& state);

struct RelaxationBound {
  // Max-flow value: CPU millicores placeable ignoring anti-affinity and
  // impartibility.
  std::int64_t placeable_cpu_millis = 0;
  // Total CPU demand of the unplaced containers considered.
  std::int64_t demand_cpu_millis = 0;
  std::size_t vertices = 0;
  std::size_t edges = 0;
};

// Convenience: build + solve (Dinic).
RelaxationBound SolveRelaxation(const trace::Workload& workload,
                                const cluster::ClusterState& state);

// CPU millicores actually placed in `state` (for comparing against bounds).
std::int64_t PlacedCpuMillis(const cluster::ClusterState& state);

}  // namespace aladdin::core
