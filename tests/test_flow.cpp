// Unit + property tests for the flow substrate: graph mechanics, max-flow
// solvers (with cross-validation EK vs Dinic vs min-cut), shortest paths
// (SPFA vs Bellman–Ford), and min-cost max-flow optimality.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "flow/graph.h"
#include "flow/max_flow.h"
#include "flow/min_cost_flow.h"
#include "flow/shortest_path.h"

namespace aladdin::flow {
namespace {

// ------------------------------------------------ test-side flow oracles ----
//
// Two certificates for a solver's output: after a max flow, the saturated
// arcs leaving the residual-reachable set form a cut whose capacity equals
// the flow value (optimality); and the flow peels into source -> sink paths
// whose amounts sum to that value (validity).

std::size_t Idx(VertexId v) { return static_cast<std::size_t>(v.value()); }

// Vertices reachable from `source` in the residual graph.
std::vector<bool> ResidualReachable(const Graph& g, VertexId source) {
  std::vector<bool> seen(g.vertex_count(), false);
  std::vector<VertexId> stack = {source};
  seen[Idx(source)] = true;
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    for (std::int32_t raw : g.OutArcs(u)) {
      const ArcId a{raw};
      const VertexId v = g.arc(a).head;
      if (g.Residual(a) <= 0 || seen[Idx(v)]) continue;
      seen[Idx(v)] = true;
      stack.push_back(v);
    }
  }
  return seen;
}

// The forward arcs crossing from the residual-reachable side to the rest.
std::vector<ArcId> CutArcs(const Graph& g, VertexId source) {
  const std::vector<bool> reachable = ResidualReachable(g, source);
  std::vector<ArcId> cut;
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    if (!reachable[v]) continue;
    for (std::int32_t raw : g.OutArcs(VertexId(static_cast<std::int32_t>(v)))) {
      if (raw % 2 != 0) continue;  // forward arcs only
      const ArcId a{raw};
      if (!reachable[Idx(g.arc(a).head)]) cut.push_back(a);
    }
  }
  return cut;
}

struct FlowPath {
  std::vector<ArcId> arcs;
  Capacity amount = 0;
};

// Peels the current flow into source -> sink paths, consuming it: the graph
// ends with zero flow everywhere (flow left on cycles is dropped).
std::vector<FlowPath> PeelFlowPaths(Graph& g, VertexId source, VertexId sink) {
  std::vector<FlowPath> paths;
  for (;;) {
    FlowPath path;
    VertexId at = source;
    Capacity bottleneck = std::numeric_limits<Capacity>::max();
    for (std::size_t hops = 0; at != sink && hops <= g.vertex_count(); ++hops) {
      ArcId next = ArcId::Invalid();
      for (std::int32_t raw : g.OutArcs(at)) {
        if (raw % 2 == 0 && g.arc(ArcId{raw}).flow > 0) {
          next = ArcId{raw};
          break;
        }
      }
      if (!next.valid()) break;
      path.arcs.push_back(next);
      bottleneck = std::min(bottleneck, g.arc(next).flow);
      at = g.arc(next).head;
    }
    if (at != sink || path.arcs.empty()) break;
    path.amount = bottleneck;
    for (ArcId a : path.arcs) g.Push(Graph::Reverse(a), bottleneck);
    paths.push_back(std::move(path));
  }
  g.ResetFlows();
  return paths;
}

// ------------------------------------------------------------- graph ----

TEST(Graph, ArcTwinPairing) {
  Graph g;
  const VertexId a = g.AddVertex();
  const VertexId b = g.AddVertex();
  const ArcId fwd = g.AddArc(a, b, 10, 3);
  const ArcId rev = Graph::Reverse(fwd);
  EXPECT_EQ(g.arc(fwd).head, b);
  EXPECT_EQ(g.arc(rev).head, a);
  EXPECT_EQ(g.arc(fwd).cost, 3);
  EXPECT_EQ(g.arc(rev).cost, -3);
  EXPECT_EQ(g.Residual(fwd), 10);
  EXPECT_EQ(g.Residual(rev), 0);
  EXPECT_EQ(g.Tail(fwd), a);
  EXPECT_EQ(g.Tail(rev), b);
}

TEST(Graph, PushMovesFlowBothWays) {
  Graph g;
  const VertexId a = g.AddVertex();
  const VertexId b = g.AddVertex();
  const ArcId arc = g.AddArc(a, b, 10, 0);
  g.Push(arc, 4);
  EXPECT_EQ(g.Residual(arc), 6);
  EXPECT_EQ(g.Residual(Graph::Reverse(arc)), 4);
  g.Push(Graph::Reverse(arc), 1);
  EXPECT_EQ(g.Residual(arc), 7);
}

TEST(Graph, AddVerticesBulk) {
  Graph g;
  const VertexId first = g.AddVertices(5);
  EXPECT_EQ(first.value(), 0);
  EXPECT_EQ(g.vertex_count(), 5u);
}

TEST(Graph, ResetFlows) {
  Graph g;
  const VertexId a = g.AddVertex();
  const VertexId b = g.AddVertex();
  const ArcId arc = g.AddArc(a, b, 10, 0);
  g.Push(arc, 10);
  g.ResetFlows();
  EXPECT_EQ(g.Residual(arc), 10);
  EXPECT_EQ(g.arc(arc).flow, 0);
}

TEST(Graph, ConsistencyHoldsAfterMaxFlow) {
  Graph g;
  const VertexId s = g.AddVertex();
  const VertexId t = g.AddVertex();
  const VertexId m = g.AddVertex();
  g.AddArc(s, m, 5, 0);
  g.AddArc(m, t, 3, 0);
  Dinic(g, s, t);
  const VertexId exempt[] = {s, t};
  EXPECT_TRUE(g.ValidateInvariants(exempt));
}

// ---------------------------------------------------------- max flow ----

// CLRS Figure 26.1 classic network; max flow = 23.
Graph ClrsGraph(VertexId& s, VertexId& t) {
  Graph g;
  s = g.AddVertex();
  const VertexId v1 = g.AddVertex();
  const VertexId v2 = g.AddVertex();
  const VertexId v3 = g.AddVertex();
  const VertexId v4 = g.AddVertex();
  t = g.AddVertex();
  g.AddArc(s, v1, 16, 0);
  g.AddArc(s, v2, 13, 0);
  g.AddArc(v1, v3, 12, 0);
  g.AddArc(v2, v1, 4, 0);
  g.AddArc(v2, v4, 14, 0);
  g.AddArc(v3, v2, 9, 0);
  g.AddArc(v3, t, 20, 0);
  g.AddArc(v4, v3, 7, 0);
  g.AddArc(v4, t, 4, 0);
  return g;
}

TEST(MaxFlow, EdmondsKarpClrs) {
  VertexId s, t;
  Graph g = ClrsGraph(s, t);
  EXPECT_EQ(EdmondsKarp(g, s, t).value, 23);
}

TEST(MaxFlow, DinicClrs) {
  VertexId s, t;
  Graph g = ClrsGraph(s, t);
  EXPECT_EQ(Dinic(g, s, t).value, 23);
}

TEST(MaxFlow, DisconnectedIsZero) {
  Graph g;
  const VertexId s = g.AddVertex();
  const VertexId t = g.AddVertex();
  g.AddVertex();  // island
  EXPECT_EQ(Dinic(g, s, t).value, 0);
  EXPECT_EQ(EdmondsKarp(g, s, t).value, 0);
}

TEST(MaxFlow, ParallelArcsAccumulate) {
  Graph g;
  const VertexId s = g.AddVertex();
  const VertexId t = g.AddVertex();
  g.AddArc(s, t, 3, 0);
  g.AddArc(s, t, 4, 0);
  EXPECT_EQ(Dinic(g, s, t).value, 7);
}

TEST(MaxFlow, MinCutMatchesFlowValue) {
  VertexId s, t;
  Graph g = ClrsGraph(s, t);
  const Capacity value = Dinic(g, s, t).value;
  const auto reachable = ResidualReachable(g, s);
  EXPECT_TRUE(reachable[static_cast<std::size_t>(s.value())]);
  EXPECT_FALSE(reachable[static_cast<std::size_t>(t.value())]);
  // Sum of capacities crossing the cut equals the max flow.
  Capacity cut = 0;
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    if (!reachable[v]) continue;
    for (std::int32_t raw :
         g.OutArcs(VertexId(static_cast<std::int32_t>(v)))) {
      const ArcId a{raw};
      if (raw % 2 != 0) continue;  // forward arcs only
      const VertexId head = g.arc(a).head;
      if (!reachable[static_cast<std::size_t>(head.value())]) {
        cut += g.arc(a).capacity;
      }
    }
  }
  EXPECT_EQ(cut, value);
}

Graph RandomGraph(Rng& rng, std::size_t vertices, std::size_t arcs,
                  VertexId& s, VertexId& t, bool with_costs) {
  Graph g;
  for (std::size_t i = 0; i < vertices; ++i) g.AddVertex();
  s = VertexId(0);
  t = VertexId(static_cast<std::int32_t>(vertices - 1));
  for (std::size_t i = 0; i < arcs; ++i) {
    const auto a = static_cast<std::int32_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(vertices) - 1));
    const auto b = static_cast<std::int32_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(vertices) - 1));
    if (a == b) continue;
    g.AddArc(VertexId(a), VertexId(b), rng.UniformInt(1, 20),
             with_costs ? rng.UniformInt(0, 9) : 0);
  }
  return g;
}

class MaxFlowPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxFlowPropertyTest, DinicEqualsEdmondsKarp) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  VertexId s, t;
  Graph g1 = RandomGraph(rng, 20, 60, s, t, false);
  Graph g2 = g1;
  const Capacity ek = EdmondsKarp(g1, s, t).value;
  const Capacity dn = Dinic(g2, s, t).value;
  EXPECT_EQ(ek, dn);
}

TEST_P(MaxFlowPropertyTest, FlowConservationAfterSolve) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  VertexId s, t;
  Graph g = RandomGraph(rng, 15, 45, s, t, false);
  Dinic(g, s, t);
  const VertexId exempt[] = {s, t};
  EXPECT_TRUE(g.ValidateInvariants(exempt));
  EXPECT_EQ(g.NetOutflow(s), -g.NetOutflow(t));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowPropertyTest,
                         ::testing::Range(1, 21));

// ------------------------------------------------------ shortest path ----

TEST(ShortestPath, BellmanFordSimpleChain) {
  Graph g;
  const VertexId a = g.AddVertex();
  const VertexId b = g.AddVertex();
  const VertexId c = g.AddVertex();
  g.AddArc(a, b, 1, 5);
  g.AddArc(b, c, 1, 7);
  g.AddArc(a, c, 1, 20);
  const auto tree = BellmanFord(g, a);
  EXPECT_EQ(tree.dist[static_cast<std::size_t>(c.value())], 12);
  EXPECT_FALSE(tree.negative_cycle);
}

TEST(ShortestPath, HandlesNegativeArcs) {
  Graph g;
  const VertexId a = g.AddVertex();
  const VertexId b = g.AddVertex();
  const VertexId c = g.AddVertex();
  g.AddArc(a, b, 1, 10);
  g.AddArc(b, c, 1, -7);
  g.AddArc(a, c, 1, 5);
  const auto bf = BellmanFord(g, a);
  const auto sp = Spfa(g, a);
  EXPECT_EQ(bf.dist[static_cast<std::size_t>(c.value())], 3);
  EXPECT_EQ(sp.dist[static_cast<std::size_t>(c.value())], 3);
}

TEST(ShortestPath, DetectsNegativeCycle) {
  Graph g;
  const VertexId a = g.AddVertex();
  const VertexId b = g.AddVertex();
  g.AddArc(a, b, 1, -5);
  g.AddArc(b, a, 1, 2);
  EXPECT_TRUE(BellmanFord(g, a).negative_cycle);
  EXPECT_TRUE(Spfa(g, a).negative_cycle);
}

TEST(ShortestPath, IgnoresSaturatedArcs) {
  Graph g;
  const VertexId a = g.AddVertex();
  const VertexId b = g.AddVertex();
  const ArcId cheap = g.AddArc(a, b, 1, 1);
  g.AddArc(a, b, 1, 10);
  g.Push(cheap, 1);  // saturate the cheap arc
  const auto tree = Spfa(g, a);
  EXPECT_EQ(tree.dist[static_cast<std::size_t>(b.value())], 10);
}

TEST(ShortestPath, UnreachableVertexMarked) {
  Graph g;
  const VertexId a = g.AddVertex();
  const VertexId b = g.AddVertex();
  (void)b;
  const auto tree = Spfa(g, a);
  EXPECT_GE(tree.dist[1], kUnreachable);
  EXPECT_TRUE(ExtractPath(g, tree, a, VertexId(1)).empty());
}

TEST(ShortestPath, ExtractPathArcsChain) {
  Graph g;
  const VertexId a = g.AddVertex();
  const VertexId b = g.AddVertex();
  const VertexId c = g.AddVertex();
  g.AddArc(a, b, 1, 1);
  g.AddArc(b, c, 1, 1);
  const auto tree = Spfa(g, a);
  const auto path = ExtractPath(g, tree, a, c);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(g.Tail(path[0]), a);
  EXPECT_EQ(g.arc(path[0]).head, b);
  EXPECT_EQ(g.arc(path[1]).head, c);
}

class SpfaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SpfaPropertyTest, SpfaMatchesBellmanFord) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  VertexId s, t;
  Graph g = RandomGraph(rng, 25, 80, s, t, true);
  const auto bf = BellmanFord(g, s);
  const auto sp = Spfa(g, s);
  ASSERT_FALSE(bf.negative_cycle);
  ASSERT_FALSE(sp.negative_cycle);
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(bf.dist[v], sp.dist[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpfaPropertyTest, ::testing::Range(1, 21));

// ----------------------------------------------------- min cost flow ----

TEST(MinCostFlow, PrefersCheapPath) {
  Graph g;
  const VertexId s = g.AddVertex();
  const VertexId t = g.AddVertex();
  const VertexId m = g.AddVertex();
  g.AddArc(s, m, 10, 1);
  g.AddArc(m, t, 10, 1);
  g.AddArc(s, t, 10, 5);
  const auto result = MinCostMaxFlow(g, s, t);
  EXPECT_EQ(result.flow, 20);
  EXPECT_EQ(result.cost, 10 * 2 + 10 * 5);
}

TEST(MinCostFlow, RespectsFlowLimit) {
  Graph g;
  const VertexId s = g.AddVertex();
  const VertexId t = g.AddVertex();
  g.AddArc(s, t, 100, 2);
  const auto result = MinCostMaxFlow(g, s, t, 7);
  EXPECT_EQ(result.flow, 7);
  EXPECT_EQ(result.cost, 14);
}

TEST(MinCostFlow, AssignmentProblemOptimal) {
  // 2 tasks, 2 machines; costs: t0->m0=1, t0->m1=5, t1->m0=2, t1->m1=1.
  // Optimal assignment: t0->m0 (1) + t1->m1 (1) = 2.
  Graph g;
  const VertexId s = g.AddVertex();
  const VertexId t = g.AddVertex();
  const VertexId t0 = g.AddVertex();
  const VertexId t1 = g.AddVertex();
  const VertexId m0 = g.AddVertex();
  const VertexId m1 = g.AddVertex();
  g.AddArc(s, t0, 1, 0);
  g.AddArc(s, t1, 1, 0);
  g.AddArc(t0, m0, 1, 1);
  g.AddArc(t0, m1, 1, 5);
  g.AddArc(t1, m0, 1, 2);
  g.AddArc(t1, m1, 1, 1);
  g.AddArc(m0, t, 1, 0);
  g.AddArc(m1, t, 1, 0);
  const auto result = MinCostMaxFlow(g, s, t);
  EXPECT_EQ(result.flow, 2);
  EXPECT_EQ(result.cost, 2);
}

TEST(MinCostFlow, MaximalityMatchesDinic) {
  Rng rng(99);
  VertexId s, t;
  Graph g1 = RandomGraph(rng, 18, 60, s, t, true);
  Graph g2 = g1;
  EXPECT_EQ(MinCostMaxFlow(g1, s, t).flow, Dinic(g2, s, t).value);
}

TEST(MinCostFlow, GreedyPathOrderIsMonotoneInCost) {
  // Successive shortest paths augment in nondecreasing path-cost order; the
  // total cost must match a brute-force check on this small instance.
  Graph g;
  const VertexId s = g.AddVertex();
  const VertexId t = g.AddVertex();
  const VertexId a = g.AddVertex();
  const VertexId b = g.AddVertex();
  g.AddArc(s, a, 2, 1);
  g.AddArc(s, b, 2, 3);
  g.AddArc(a, t, 1, 1);
  g.AddArc(a, b, 2, 0);
  g.AddArc(b, t, 3, 1);
  const auto result = MinCostMaxFlow(g, s, t);
  EXPECT_EQ(result.flow, 4);
  // Cheapest routing: s->a->t (1u, cost 2), s->a->b->t (1u, cost 2),
  // s->b->t (2u, cost 4 each... cost 3+1=4) -> total 2+2+8 = 12.
  EXPECT_EQ(result.cost, 12);
}

// --------------------------------------------------- cut / decomposition ----

TEST(MinCut, ArcCapacitiesSumToFlowValue) {
  VertexId s, t;
  Graph g = ClrsGraph(s, t);
  const Capacity value = Dinic(g, s, t).value;
  Capacity cut_capacity = 0;
  for (ArcId a : CutArcs(g, s)) cut_capacity += g.arc(a).capacity;
  EXPECT_EQ(cut_capacity, value);
}

TEST(MinCut, SaturatedArcsOnly) {
  VertexId s, t;
  Graph g = ClrsGraph(s, t);
  Dinic(g, s, t);
  for (ArcId a : CutArcs(g, s)) {
    EXPECT_EQ(g.Residual(a), 0);
  }
}

TEST(Decompose, PathsSumToFlowValue) {
  VertexId s, t;
  Graph g = ClrsGraph(s, t);
  const Capacity value = Dinic(g, s, t).value;
  const auto paths = PeelFlowPaths(g, s, t);
  Capacity total = 0;
  for (const auto& p : paths) {
    total += p.amount;
    // Each path is a contiguous s -> t walk.
    ASSERT_FALSE(p.arcs.empty());
    EXPECT_EQ(g.Tail(p.arcs.front()), s);
    EXPECT_EQ(g.arc(p.arcs.back()).head, t);
    for (std::size_t i = 1; i < p.arcs.size(); ++i) {
      EXPECT_EQ(g.arc(p.arcs[i - 1]).head, g.Tail(p.arcs[i]));
    }
  }
  EXPECT_EQ(total, value);
  // The decomposition consumed all flow.
  const VertexId exempt[] = {s, t};
  EXPECT_TRUE(g.ValidateInvariants(exempt));
  EXPECT_EQ(g.NetOutflow(s), 0);
}

TEST(Decompose, EmptyFlowYieldsNoPaths) {
  VertexId s, t;
  Graph g = ClrsGraph(s, t);
  EXPECT_TRUE(PeelFlowPaths(g, s, t).empty());
}

class DecomposePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DecomposePropertyTest, RandomGraphsDecomposeExactly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 900);
  VertexId s, t;
  Graph g = RandomGraph(rng, 15, 50, s, t, false);
  const Capacity value = Dinic(g, s, t).value;
  const auto paths = PeelFlowPaths(g, s, t);
  Capacity total = 0;
  for (const auto& p : paths) total += p.amount;
  EXPECT_EQ(total, value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecomposePropertyTest, ::testing::Range(1, 11));

// ------------------------------------------------------- CSR adjacency ----

// Randomized oracle test for the frozen CSR layout: a nested
// vector<vector<arc id>> adjacency — the legacy representation — is
// maintained side by side through interleaved vertex adds, arc adds, and
// adjacency reads (each read after a mutation forces a CSR re-freeze).
// The CSR must reproduce the legacy per-vertex arc order exactly; solver
// iteration order, and therefore every placement decision, rides on it.
TEST(GraphFuzz, CsrMatchesNestedAdjacencyAcrossFreezeCycles) {
  for (int seed = 1; seed <= 12; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    Graph g;
    std::vector<std::vector<std::int32_t>> nested;
    std::int32_t vertices = static_cast<std::int32_t>(rng.UniformInt(2, 6));
    g.AddVertices(static_cast<std::size_t>(vertices));
    nested.resize(static_cast<std::size_t>(vertices));

    for (int round = 0; round < 8; ++round) {
      for (std::int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
        g.AddVertex();
        nested.emplace_back();
        ++vertices;
      }
      for (std::int64_t i = rng.UniformInt(1, 12); i > 0; --i) {
        const auto tail = static_cast<std::int32_t>(
            rng.UniformInt(0, vertices - 1));
        const auto head = static_cast<std::int32_t>(
            rng.UniformInt(0, vertices - 1));
        const ArcId a = g.AddArc(VertexId(tail), VertexId(head),
                                 rng.UniformInt(1, 16), rng.UniformInt(0, 7));
        nested[static_cast<std::size_t>(tail)].push_back(a.value());
        nested[static_cast<std::size_t>(head)].push_back(
            Graph::Reverse(a).value());
      }
      EXPECT_FALSE(g.frozen()) << "AddArc must dirty the CSR";
      for (std::int32_t v = 0; v < vertices; ++v) {
        const auto arcs = g.OutArcs(VertexId(v));  // freezes on first read
        const std::vector<std::int32_t> got(arcs.begin(), arcs.end());
        ASSERT_EQ(got, nested[static_cast<std::size_t>(v)])
            << "seed " << seed << " round " << round << " vertex " << v;
      }
      EXPECT_TRUE(g.frozen());
      ASSERT_TRUE(g.ValidateInvariants())
          << "seed " << seed << " round " << round;
    }

    // Push some flow and re-validate: the CSR must stay consistent with the
    // arc table after solver-style mutations (which touch flows only).
    const VertexId s(0), t(1);
    (void)Dinic(g, s, t);
    const VertexId exempt[] = {s, t};
    ASSERT_TRUE(g.ValidateInvariants(exempt)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace aladdin::flow
