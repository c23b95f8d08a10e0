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

}  // namespace aladdin::flow
