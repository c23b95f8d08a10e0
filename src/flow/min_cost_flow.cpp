#include "flow/min_cost_flow.h"

#include <algorithm>
#include <vector>

#include "common/analysis.h"
#include "common/check.h"
#include "obs/trace.h"

namespace aladdin::flow {

namespace {

// One augmentation step: pick the bottleneck along `path`, push it, and
// account flow/cost. Returns false when the path is empty (sink unreachable
// — flow is maximum).
bool Augment(Graph& graph, const std::vector<ArcId>& path, Capacity flow_limit,
             MinCostFlowResult& result) {
  if (path.empty()) return false;
  Capacity bottleneck = flow_limit - result.flow;
  for (ArcId a : path) bottleneck = std::min(bottleneck, graph.Residual(a));
  ALADDIN_DCHECK(bottleneck > 0);
  for (ArcId a : path) {
    graph.Push(a, bottleneck);
    result.cost += graph.arc(a).cost * bottleneck;
  }
  result.flow += bottleneck;
  ++result.iterations;
  return true;
}

}  // namespace

ALADDIN_HOT MinCostFlowResult MinCostMaxFlow(Graph& graph, VertexId source,
                                             VertexId sink,
                                             Capacity flow_limit,
                                             Workspace& ws) {
  ALADDIN_TRACE_SCOPE("flow/ssp");
  ALADDIN_CHECK(source != sink);
  MinCostFlowResult result;
  while (result.flow < flow_limit) {
    const ShortestPathStats stats = SpfaInto(graph, source, ws);
    if (stats.negative_cycle) {
      result.negative_cycle = true;
      break;
    }
    ExtractPathInto(graph, source, sink, ws);
    if (!Augment(graph, ws.path, flow_limit, result)) break;
  }
  ALADDIN_METRIC_ADD("flow/ssp_iterations", result.iterations);
  return result;
}

MinCostFlowResult MinCostMaxFlow(Graph& graph, VertexId source, VertexId sink,
                                 Capacity flow_limit) {
  return MinCostMaxFlow(graph, source, sink, flow_limit,
                        ThreadLocalWorkspace());
}

}  // namespace aladdin::flow
