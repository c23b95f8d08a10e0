// Classic max-flow solvers over flow::Graph.
//
// Two implementations with the usual trade-off:
//  * EdmondsKarp — BFS augmenting paths, O(V·E²); simple, used as the test
//    oracle for the fancier solvers.
//  * Dinic — level graph + blocking flow, O(V²·E); the workhorse where a raw
//    scalar max flow is needed.
//
// Every solver has two overloads: one taking an explicit flow::Workspace
// (zero steady-state allocations — the caller owns the scratch across runs)
// and a convenience overload using the per-thread default workspace. Both
// are bit-identical in results.
#pragma once

#include "flow/graph.h"
#include "flow/workspace.h"

namespace aladdin::flow {

struct MaxFlowResult {
  Capacity value = 0;        // total s->t flow
  std::int64_t augmentations = 0;  // number of augmenting paths / phases found
};

MaxFlowResult EdmondsKarp(Graph& graph, VertexId source, VertexId sink,
                          Workspace& ws);
MaxFlowResult EdmondsKarp(Graph& graph, VertexId source, VertexId sink);

MaxFlowResult Dinic(Graph& graph, VertexId source, VertexId sink,
                    Workspace& ws);
MaxFlowResult Dinic(Graph& graph, VertexId source, VertexId sink);

// Marks the vertices reachable from `source` in the residual graph in
// ws.visited (stamped == reachable) — the source side of a minimum cut once
// a max flow has been computed. Allocation-free.
void ResidualReachableInto(const Graph& graph, VertexId source, Workspace& ws);

// Allocating wrapper over ResidualReachableInto for cold call sites.
std::vector<bool> ResidualReachable(const Graph& graph, VertexId source);

// The saturated forward arcs crossing the minimum cut after a max flow has
// been computed. Their capacities sum to the flow value (max-flow/min-cut).
std::vector<ArcId> MinCutArcs(const Graph& graph, VertexId source);

// One source->sink path carrying positive flow, with the amount it carries.
struct FlowPath {
  std::vector<ArcId> arcs;
  Capacity amount = 0;
};

// Decomposes the current flow into at most |E| source->sink paths (flow
// decomposition theorem; cycles, which our solvers never produce on DAG-like
// scheduling graphs, are drained last and dropped). The graph's flows are
// consumed — it ends with zero flow everywhere.
std::vector<FlowPath> DecomposePaths(Graph& graph, VertexId source,
                                     VertexId sink);

}  // namespace aladdin::flow
