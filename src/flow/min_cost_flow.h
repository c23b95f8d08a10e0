// Minimum-cost maximum-flow via successive shortest augmenting paths.
//
// This is the solver the Firmament baseline runs each scheduling round: the
// scheduling graph's arc costs encode the active cost model (TRIVIAL /
// QUINCY / OCTOPUS) and the resulting min-cost flow is decoded back into
// container -> machine placements. Each augmentation runs SPFA (queue-driven
// Bellman–Ford), which handles negative arc costs directly and matches the
// paper's reference [21].
#pragma once

#include "flow/graph.h"
#include "flow/shortest_path.h"

namespace aladdin::flow {

struct MinCostFlowResult {
  Capacity flow = 0;
  Cost cost = 0;
  std::int64_t iterations = 0;   // augmenting paths found
  bool negative_cycle = false;   // input had a reachable negative cycle
};

// Computes a maximum flow of minimum cost from source to sink, mutating the
// graph's flows. `flow_limit` caps the amount routed (default: unlimited).
// The Workspace overload is allocation-free in steady state (one SPFA per
// augmentation, all scratch reused); the other one borrows the per-thread
// default workspace.
MinCostFlowResult MinCostMaxFlow(Graph& graph, VertexId source, VertexId sink,
                                 Capacity flow_limit, Workspace& ws);
MinCostFlowResult MinCostMaxFlow(Graph& graph, VertexId source, VertexId sink,
                                 Capacity flow_limit = kInfiniteCapacity);

}  // namespace aladdin::flow
