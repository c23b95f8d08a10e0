// Shortest paths on the residual graph, by arc cost.
//
// The paper's Algorithm 1 is built around SPFA (Shortest Path Faster
// Algorithm, a queue-driven Bellman–Ford) — reference [21] in the paper. We
// provide both the textbook Bellman–Ford (the oracle; also detects negative
// cycles) and SPFA (the fast path used inside min-cost flow and the Aladdin
// search). SPFA additionally has an allocation-free `SpfaInto` form that
// leaves its tree in a flow::Workspace — the form the min-cost-flow inner
// loop uses, since it runs one SPFA per augmentation.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "flow/graph.h"
#include "flow/workspace.h"

namespace aladdin::flow {

inline constexpr Cost kUnreachable = std::numeric_limits<Cost>::max() / 4;

struct ShortestPathTree {
  // dist[v] is the minimum cost from the source over arcs with residual
  // capacity, or kUnreachable.
  std::vector<Cost> dist;
  // parent_arc[v] is the arc id entering v on a shortest path (-1 at the
  // source / unreachable vertices).
  std::vector<std::int32_t> parent_arc;
  bool negative_cycle = false;
  std::int64_t relaxations = 0;  // instrumentation for the ablation bench
};

// Outcome of an Into-style run; distances/parents live in the workspace
// (ws.dist / ws.parent, epoch-stamped: unstamped == unreachable).
struct ShortestPathStats {
  bool negative_cycle = false;
  std::int64_t relaxations = 0;
};

// Textbook Bellman–Ford over residual arcs; O(V·E). Sets negative_cycle if
// one is reachable from the source.
ShortestPathTree BellmanFord(const Graph& graph, VertexId source);

// SPFA: Bellman–Ford with a deque work-list and the SLF (smallest label
// first) heuristic. Same output contract as BellmanFord for graphs without
// negative cycles reachable from the source. A relaxation-count trip wire
// (V·E bound) flags negative cycles. Allocation-free: results land in ws.
ShortestPathStats SpfaInto(const Graph& graph, VertexId source, Workspace& ws);

// Allocating wrapper over SpfaInto returning an owning tree (tests, oracle
// comparisons, call sites that keep the tree beyond the next solver run).
ShortestPathTree Spfa(const Graph& graph, VertexId source);

// Reconstructs the arc ids of the path source -> target from a tree
// (empty if target is unreachable). Path is returned source-first.
std::vector<ArcId> ExtractPath(const Graph& graph,
                               const ShortestPathTree& tree, VertexId source,
                               VertexId target);

// Same reconstruction from workspace state (after SpfaInto), written into
// ws.path. Allocation-free once ws.path has warmed to the longest path
// length.
void ExtractPathInto(const Graph& graph, VertexId source, VertexId target,
                     Workspace& ws);

}  // namespace aladdin::flow
