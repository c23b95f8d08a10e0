// Microbenchmarks for the flow substrate (google-benchmark): SPFA vs
// Bellman–Ford shortest paths, Dinic vs Edmonds–Karp max flow, min-cost
// max-flow throughput, and the group-waterfall Aladdin solve. Not a paper
// figure; this pins the solver costs the scheduling-level latency numbers
// (Fig. 12) are built on.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/max_flow.h"
#include "flow/min_cost_flow.h"
#include "flow/shortest_path.h"
#include "flow/workspace.h"
#include "sim/experiment.h"
#include "trace/arrival.h"

using namespace aladdin;

namespace {

// Layered random DAG shaped like a scheduling graph: source -> T -> N ->
// sink, with `width` vertices per layer and `degree` arcs per task vertex.
flow::Graph MakeLayeredGraph(std::int64_t width, std::int64_t degree,
                             VertexId& source, VertexId& sink,
                             std::uint64_t seed) {
  flow::Graph graph;
  source = graph.AddVertex();
  sink = graph.AddVertex();
  const VertexId tasks = graph.AddVertices(static_cast<std::size_t>(width));
  const VertexId machines =
      graph.AddVertices(static_cast<std::size_t>(width));
  Rng rng(seed);
  for (std::int64_t i = 0; i < width; ++i) {
    const VertexId t(tasks.value() + static_cast<std::int32_t>(i));
    graph.AddArc(source, t, rng.UniformInt(1, 8), 0);
    for (std::int64_t d = 0; d < degree; ++d) {
      const VertexId n(machines.value() +
                       static_cast<std::int32_t>(rng.UniformInt(0, width - 1)));
      graph.AddArc(t, n, rng.UniformInt(1, 8), rng.UniformInt(0, 63));
    }
  }
  for (std::int64_t i = 0; i < width; ++i) {
    const VertexId n(machines.value() + static_cast<std::int32_t>(i));
    graph.AddArc(n, sink, rng.UniformInt(4, 32), 0);
  }
  return graph;
}

void BM_Spfa(benchmark::State& state) {
  VertexId s, t;
  flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::Spfa(graph, s));
  }
}
BENCHMARK(BM_Spfa)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BellmanFord(benchmark::State& state) {
  VertexId s, t;
  flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::BellmanFord(graph, s));
  }
}
BENCHMARK(BM_BellmanFord)->Arg(256)->Arg(1024);

void BM_Dinic(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    VertexId s, t;
    flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(flow::Dinic(graph, s, t));
  }
}
BENCHMARK(BM_Dinic)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EdmondsKarp(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    VertexId s, t;
    flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(flow::EdmondsKarp(graph, s, t));
  }
}
BENCHMARK(BM_EdmondsKarp)->Arg(256)->Arg(1024);

void BM_MinCostMaxFlow(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    VertexId s, t;
    flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(flow::MinCostMaxFlow(graph, s, t));
  }
}
BENCHMARK(BM_MinCostMaxFlow)->Arg(256)->Arg(1024);

// ------------------------------------------- adjacency layout A/B ----
// The CSR win in isolation: walk every out-arc list, summing arc ids.
// Csr iterates the frozen flat offsets[]/arc_ids[] arrays; Nested iterates
// a vector<vector<int32>> replica of the same adjacency (the pre-CSR
// layout, one heap block and one pointer-chase per vertex). Identical
// visit order and sum — the delta is pure memory layout.

void BM_AdjacencyScanCsr(benchmark::State& state) {
  VertexId s, t;
  const flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
  graph.Freeze();
  const auto n = static_cast<std::int32_t>(graph.vertex_count());
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (std::int32_t v = 0; v < n; ++v) {
      for (const std::int32_t a : graph.OutArcs(VertexId(v))) sum += a;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_AdjacencyScanCsr)->Arg(1024)->Arg(4096);

void BM_AdjacencyScanNested(benchmark::State& state) {
  VertexId s, t;
  const flow::Graph graph = MakeLayeredGraph(state.range(0), 8, s, t, 1);
  graph.Freeze();
  std::vector<std::vector<std::int32_t>> nested(graph.vertex_count());
  const auto n = static_cast<std::int32_t>(graph.vertex_count());
  for (std::int32_t v = 0; v < n; ++v) {
    const auto arcs = graph.OutArcs(VertexId(v));
    nested[static_cast<std::size_t>(v)].assign(arcs.begin(), arcs.end());
  }
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (std::int32_t v = 0; v < n; ++v) {
      for (const std::int32_t a : nested[static_cast<std::size_t>(v)]) {
        sum += a;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_AdjacencyScanNested)->Arg(1024)->Arg(4096);

// -------------------------------- paper-scale aggregated network ----
// The shape of Aladdin's aggregated network at evaluation scale: app
// vertices fan into a sub-cluster -> rack -> machine aggregation tree over
// `machines` machines. Built and frozen once; each iteration is the
// steady-state re-solve (ResetFlows + Dinic over the frozen CSR with a
// reused workspace) — the per-tick solver cost the end-to-end latency
// numbers decompose into.
flow::Graph MakeAggregatedNetwork(std::int64_t machines, VertexId& source,
                                  VertexId& sink) {
  constexpr std::int64_t kMachinesPerRack = 40;
  constexpr std::int64_t kRacksPerSubCluster = 10;
  constexpr std::int64_t kApps = 256;
  const std::int64_t racks = (machines + kMachinesPerRack - 1) /
                             kMachinesPerRack;
  const std::int64_t subs = (racks + kRacksPerSubCluster - 1) /
                            kRacksPerSubCluster;

  flow::Graph graph;
  source = graph.AddVertex();
  sink = graph.AddVertex();
  const VertexId apps = graph.AddVertices(static_cast<std::size_t>(kApps));
  const VertexId sub0 = graph.AddVertices(static_cast<std::size_t>(subs));
  const VertexId rack0 = graph.AddVertices(static_cast<std::size_t>(racks));
  const VertexId mach0 =
      graph.AddVertices(static_cast<std::size_t>(machines));

  Rng rng(17);
  for (std::int64_t a = 0; a < kApps; ++a) {
    const VertexId app(apps.value() + static_cast<std::int32_t>(a));
    graph.AddArc(source, app, rng.UniformInt(8, 64));
    for (int d = 0; d < 4; ++d) {  // each app spans a few sub-clusters
      const VertexId sub(sub0.value() + static_cast<std::int32_t>(
                                            rng.UniformInt(0, subs - 1)));
      graph.AddArc(app, sub, rng.UniformInt(8, 32));
    }
  }
  for (std::int64_t r = 0; r < racks; ++r) {
    const VertexId sub(sub0.value() +
                       static_cast<std::int32_t>(r / kRacksPerSubCluster));
    const VertexId rack(rack0.value() + static_cast<std::int32_t>(r));
    graph.AddArc(sub, rack, rng.UniformInt(16, 128));
  }
  for (std::int64_t m = 0; m < machines; ++m) {
    const VertexId rack(rack0.value() +
                        static_cast<std::int32_t>(m / kMachinesPerRack));
    const VertexId machine(mach0.value() + static_cast<std::int32_t>(m));
    graph.AddArc(rack, machine, rng.UniformInt(1, 8));
    graph.AddArc(machine, sink, rng.UniformInt(1, 8));
  }
  return graph;
}

void BM_AggregatedNetworkResolve(benchmark::State& state) {
  VertexId s, t;
  flow::Graph graph = MakeAggregatedNetwork(state.range(0), s, t);
  graph.Freeze();
  flow::Workspace ws;
  for (auto _ : state) {
    graph.ResetFlows();
    benchmark::DoNotOptimize(flow::Dinic(graph, s, t, ws));
  }
}
BENCHMARK(BM_AggregatedNetworkResolve)->Arg(2000)->Arg(10000);

// ------------------------------------------- group waterfall solve ----
// One whole-trace Aladdin solve, in which runs of same-app siblings take
// the sorted-capacity waterfall (PlaceGroupRun) and singletons the
// per-container best-fit walk. The /1 suffix is the row name the committed
// baseline tracks.
void BM_GroupWaterfallVsDinic(benchmark::State& state) {
  const trace::Workload workload = sim::MakeBenchWorkload(0.02, 42);
  const cluster::Topology topology =
      trace::MakeAlibabaCluster(sim::BenchMachineCount(0.02));
  const auto arrival = trace::MakeArrivalSequence(
      workload, trace::ArrivalOrder::kRandom, 1);
  for (auto _ : state) {
    state.PauseTiming();
    cluster::ClusterState cluster_state = workload.MakeState(topology);
    core::AladdinScheduler scheduler;
    sim::ScheduleRequest request;
    request.workload = &workload;
    request.arrival = &arrival;
    state.ResumeTiming();
    benchmark::DoNotOptimize(scheduler.Schedule(request, cluster_state));
  }
}
BENCHMARK(BM_GroupWaterfallVsDinic)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
