#include "flow/max_flow.h"

#include <algorithm>
#include <limits>

#include "common/analysis.h"
#include "common/check.h"
#include "obs/trace.h"

namespace aladdin::flow {

namespace {
std::size_t Idx(VertexId v) { return static_cast<std::size_t>(v.value()); }
}  // namespace

ALADDIN_HOT MaxFlowResult EdmondsKarp(Graph& graph, VertexId source,
                                      VertexId sink, Workspace& ws) {
  ALADDIN_TRACE_SCOPE("flow/edmonds_karp");
  ALADDIN_CHECK(source != sink);
  MaxFlowResult result;
  ws.BeginRun(graph);

  for (;;) {
    // ws.parent doubles as the visited mark: stamped == discovered this
    // augmentation (-2 marks the source, which has no parent arc).
    ws.parent.NextEpoch();
    ws.queue.Clear();
    ws.queue.PushBack(source.value());
    ws.parent.Set(Idx(source), -2);
    bool found = false;
    while (!ws.queue.empty() && !found) {
      const VertexId u{ws.queue.PopFront()};
      for (std::int32_t raw : graph.OutArcs(u)) {
        const ArcId a{raw};
        if (graph.Residual(a) <= 0) continue;
        const VertexId v = graph.arc(a).head;
        if (ws.parent.Stamped(Idx(v))) continue;
        ws.parent.Set(Idx(v), raw);
        if (v == sink) {
          found = true;
          break;
        }
        ws.queue.PushBack(v.value());
      }
    }
    if (!found) break;

    // Walk back from sink to source to find the bottleneck, then push.
    Capacity bottleneck = std::numeric_limits<Capacity>::max();
    for (VertexId v = sink; v != source;) {
      const ArcId a{ws.parent.Get(Idx(v), -1)};
      bottleneck = std::min(bottleneck, graph.Residual(a));
      v = graph.Tail(a);
    }
    for (VertexId v = sink; v != source;) {
      const ArcId a{ws.parent.Get(Idx(v), -1)};
      graph.Push(a, bottleneck);
      v = graph.Tail(a);
    }
    result.value += bottleneck;
    ++result.augmentations;
  }
  return result;
}

MaxFlowResult EdmondsKarp(Graph& graph, VertexId source, VertexId sink) {
  return EdmondsKarp(graph, source, sink, ThreadLocalWorkspace());
}

namespace {

// Dinic over workspace scratch: level and the current-arc iterator reset per
// phase via the epoch stamp (O(1)), never std::fill.
class DinicSolver {
 public:
  DinicSolver(Graph& graph, VertexId source, VertexId sink, Workspace& ws)
      : graph_(graph), source_(source), sink_(sink), ws_(ws) {}

  MaxFlowResult Run() {
    MaxFlowResult result;
    ws_.BeginRun(graph_);
    while (BuildLevels()) {
      for (;;) {
        const Capacity pushed =
            Push(source_, std::numeric_limits<Capacity>::max());
        if (pushed == 0) break;
        result.value += pushed;
      }
      ++result.augmentations;  // counts phases for Dinic
    }
    return result;
  }

 private:
  bool BuildLevels() {
    ws_.NextPhase();  // resets level + next_arc in O(1)
    ws_.queue.Clear();
    ws_.queue.PushBack(source_.value());
    ws_.level.Set(Idx(source_), 0);
    while (!ws_.queue.empty()) {
      const VertexId u{ws_.queue.PopFront()};
      for (std::int32_t raw : graph_.OutArcs(u)) {
        const ArcId a{raw};
        if (graph_.Residual(a) <= 0) continue;
        const VertexId v = graph_.arc(a).head;
        if (ws_.level.Stamped(Idx(v))) continue;
        ws_.level.Set(Idx(v), ws_.level.Get(Idx(u), -1) + 1);
        ws_.queue.PushBack(v.value());
      }
    }
    return ws_.level.Stamped(Idx(sink_));
  }

  Capacity Push(VertexId u, Capacity limit) {
    if (u == sink_) return limit;
    const auto arcs = graph_.OutArcs(u);
    const std::int32_t lu = ws_.level.Get(Idx(u), -1);
    for (auto& i = ws_.next_arc.Ref(Idx(u), 0);
         static_cast<std::size_t>(i) < arcs.size(); ++i) {
      const ArcId a{arcs[static_cast<std::size_t>(i)]};
      if (graph_.Residual(a) <= 0) continue;
      const VertexId v = graph_.arc(a).head;
      if (ws_.level.Get(Idx(v), -1) != lu + 1) continue;
      const Capacity pushed =
          Push(v, std::min(limit, graph_.Residual(a)));
      if (pushed > 0) {
        graph_.Push(a, pushed);
        return pushed;
      }
    }
    return 0;
  }

  static std::size_t Idx(VertexId v) {
    return static_cast<std::size_t>(v.value());
  }

  Graph& graph_;
  VertexId source_;
  VertexId sink_;
  Workspace& ws_;
};

}  // namespace

ALADDIN_HOT MaxFlowResult Dinic(Graph& graph, VertexId source, VertexId sink,
                                Workspace& ws) {
  ALADDIN_TRACE_SCOPE("flow/dinic");
  ALADDIN_CHECK(source != sink);
  const MaxFlowResult result = DinicSolver(graph, source, sink, ws).Run();
  ALADDIN_METRIC_ADD("flow/dinic_phases", result.augmentations);
  return result;
}

MaxFlowResult Dinic(Graph& graph, VertexId source, VertexId sink) {
  return Dinic(graph, source, sink, ThreadLocalWorkspace());
}

}  // namespace aladdin::flow
