#include "flow/shortest_path.h"

#include <algorithm>

#include "common/analysis.h"
#include "common/check.h"

namespace aladdin::flow {

namespace {
std::size_t Idx(VertexId v) { return static_cast<std::size_t>(v.value()); }
}  // namespace

ShortestPathTree BellmanFord(const Graph& graph, VertexId source) {
  const std::size_t n = graph.vertex_count();
  ShortestPathTree tree;
  tree.dist.assign(n, kUnreachable);
  tree.parent_arc.assign(n, -1);
  tree.dist[Idx(source)] = 0;

  bool changed = true;
  for (std::size_t round = 0; round < n && changed; ++round) {
    changed = false;
    for (std::size_t u = 0; u < n; ++u) {
      if (tree.dist[u] >= kUnreachable) continue;
      for (std::int32_t raw :
           graph.OutArcs(VertexId(static_cast<std::int32_t>(u)))) {
        const ArcId a{raw};
        if (graph.Residual(a) <= 0) continue;
        const VertexId v = graph.arc(a).head;
        const Cost candidate = tree.dist[u] + graph.arc(a).cost;
        ++tree.relaxations;
        if (candidate < tree.dist[Idx(v)]) {
          tree.dist[Idx(v)] = candidate;
          tree.parent_arc[Idx(v)] = raw;
          changed = true;
          // A relaxation succeeding on the n-th round proves a reachable
          // negative cycle.
          if (round + 1 == n) tree.negative_cycle = true;
        }
      }
    }
  }
  return tree;
}

ALADDIN_HOT ShortestPathStats SpfaInto(const Graph& graph, VertexId source,
                                       Workspace& ws) {
  const std::size_t n = graph.vertex_count();
  ShortestPathStats stats;
  ws.BeginRun(graph);
  ws.dist.Set(Idx(source), 0);

  ws.queue.Clear();
  ws.queue.PushBack(source.value());
  ws.visited.Set(Idx(source), 1);  // visited doubles as the in-queue mark

  const std::int64_t cycle_bound = static_cast<std::int64_t>(n) + 1;

  while (!ws.queue.empty()) {
    const VertexId u{ws.queue.PopFront()};
    ws.visited.Ref(Idx(u), 0) = 0;
    if (++ws.dequeued.Ref(Idx(u), 0) >= cycle_bound) {
      // A vertex processed more than V times implies a negative cycle.
      stats.negative_cycle = true;
      break;
    }
    const Cost du = ws.dist.Get(Idx(u), kUnreachable);
    for (std::int32_t raw : graph.OutArcs(u)) {
      const ArcId a{raw};
      if (graph.Residual(a) <= 0) continue;
      const VertexId v = graph.arc(a).head;
      const Cost candidate = du + graph.arc(a).cost;
      ++stats.relaxations;
      if (candidate < ws.dist.Get(Idx(v), kUnreachable)) {
        ws.dist.Set(Idx(v), candidate);
        ws.parent.Set(Idx(v), raw);
        if (ws.visited.Get(Idx(v), 0) == 0) {
          // SLF heuristic: promising vertices jump the queue.
          if (!ws.queue.empty() &&
              candidate <
                  ws.dist.Get(static_cast<std::size_t>(ws.queue.Front()),
                              kUnreachable)) {
            ws.queue.PushFront(v.value());
          } else {
            ws.queue.PushBack(v.value());
          }
          ws.visited.Set(Idx(v), 1);
        }
      }
    }
  }
  return stats;
}

ShortestPathTree Spfa(const Graph& graph, VertexId source) {
  Workspace& ws = ThreadLocalWorkspace();
  const ShortestPathStats stats = SpfaInto(graph, source, ws);
  const std::size_t n = graph.vertex_count();
  ShortestPathTree tree;
  tree.negative_cycle = stats.negative_cycle;
  tree.relaxations = stats.relaxations;
  tree.dist.resize(n);        // owning-tree wrapper
  tree.parent_arc.resize(n);  // owning-tree wrapper
  for (std::size_t v = 0; v < n; ++v) {
    tree.dist[v] = ws.dist.Get(v, kUnreachable);
    tree.parent_arc[v] = ws.parent.Get(v, -1);
  }
  return tree;
}

std::vector<ArcId> ExtractPath(const Graph& graph,
                               const ShortestPathTree& tree, VertexId source,
                               VertexId target) {
  std::vector<ArcId> path;  // owning-tree wrapper
  if (Idx(target) >= tree.dist.size() ||
      tree.dist[Idx(target)] >= kUnreachable) {
    return path;
  }
  for (VertexId v = target; v != source;) {
    const std::int32_t raw = tree.parent_arc[Idx(v)];
    ALADDIN_DCHECK(raw >= 0);
    const ArcId a{raw};
    path.push_back(a);
    v = graph.Tail(a);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ALADDIN_HOT void ExtractPathInto(const Graph& graph, VertexId source,
                                 VertexId target, Workspace& ws) {
  ws.path.clear();
  if (Idx(target) >= graph.vertex_count() || !ws.dist.Stamped(Idx(target))) {
    return;
  }
  for (VertexId v = target; v != source;) {
    const std::int32_t raw = ws.parent.Get(Idx(v), -1);
    ALADDIN_DCHECK(raw >= 0);
    const ArcId a{raw};
    ws.path.push_back(a);
    v = graph.Tail(a);
  }
  std::reverse(ws.path.begin(), ws.path.end());
}

}  // namespace aladdin::flow
