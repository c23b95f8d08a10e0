#include "core/relaxation.h"

#include "flow/max_flow.h"
#include "obs/trace.h"

namespace aladdin::core {

RelaxationNetwork BuildRelaxationNetwork(const trace::Workload& workload,
                                         const cluster::ClusterState& state) {
  ALADDIN_TRACE_SCOPE("core/relax_build");
  const cluster::Topology& topology = state.topology();
  RelaxationNetwork net;
  flow::Graph& g = net.graph;
  net.source = g.AddVertex();
  net.sink = g.AddVertex();

  // Application vertices A_j.
  const VertexId first_app =
      g.AddVertices(workload.application_count());
  // Sub-cluster vertices G_k and rack vertices R_x.
  const VertexId first_sub = g.AddVertices(topology.subcluster_count());
  const VertexId first_rack = g.AddVertices(topology.rack_count());
  // Machine vertices N_y.
  const VertexId first_machine = g.AddVertices(topology.machine_count());

  auto app_vx = [&](cluster::ApplicationId a) {
    return VertexId(first_app.value() + a.value());
  };
  auto sub_vx = [&](cluster::SubClusterId s) {
    return VertexId(first_sub.value() + s.value());
  };
  auto rack_vx = [&](cluster::RackId r) {
    return VertexId(first_rack.value() + r.value());
  };
  auto machine_vx = [&](cluster::MachineId m) {
    return VertexId(first_machine.value() + m.value());
  };

  // T_i vertices and s -> T_i -> A_j arcs for *unplaced* containers only.
  for (const auto& c : workload.containers()) {
    if (state.IsPlaced(c.id)) continue;
    const VertexId t = g.AddVertex();
    g.AddArc(net.source, t, c.request.cpu_millis());
    g.AddArc(t, app_vx(c.app), flow::kInfiniteCapacity);
  }
  // A_j -> G_k: every application may reach every sub-cluster (this is the
  // |A|·|G| <= |A|·|R| term of the paper's edge-count bound).
  for (const auto& app : workload.applications()) {
    for (std::size_t s = 0; s < topology.subcluster_count(); ++s) {
      g.AddArc(app_vx(app.id),
               sub_vx(cluster::SubClusterId(static_cast<std::int32_t>(s))),
               flow::kInfiniteCapacity);
    }
  }
  // G_k -> R_x along the physical topology.
  for (std::size_t s = 0; s < topology.subcluster_count(); ++s) {
    const cluster::SubClusterId sid(static_cast<std::int32_t>(s));
    for (cluster::RackId r : topology.SubClusterRacks(sid)) {
      g.AddArc(sub_vx(sid), rack_vx(r), flow::kInfiniteCapacity);
    }
  }
  // R_x -> N_y and N_y -> t (capacity = the machine's free CPU).
  for (std::size_t r = 0; r < topology.rack_count(); ++r) {
    const cluster::RackId rid(static_cast<std::int32_t>(r));
    for (cluster::MachineId m : topology.RackMachines(rid)) {
      g.AddArc(rack_vx(rid), machine_vx(m), flow::kInfiniteCapacity);
    }
  }
  for (const auto& machine : topology.machines()) {
    g.AddArc(machine_vx(machine.id), net.sink,
             state.Free(machine.id).cpu_millis());
  }
  net.edge_count = g.arc_count() / 2;  // forward arcs only
  return net;
}

RelaxationBound SolveRelaxation(const trace::Workload& workload,
                                const cluster::ClusterState& state) {
  ALADDIN_TRACE_SCOPE("core/relax_solve");
  RelaxationNetwork net = BuildRelaxationNetwork(workload, state);
  RelaxationBound bound;
  bound.vertices = net.graph.vertex_count();
  bound.edges = net.edge_count;
  for (const auto& c : workload.containers()) {
    if (!state.IsPlaced(c.id)) {
      bound.demand_cpu_millis += c.request.cpu_millis();
    }
  }
  bound.placeable_cpu_millis =
      flow::Dinic(net.graph, net.source, net.sink).value;
  return bound;
}

std::int64_t PlacedCpuMillis(const cluster::ClusterState& state) {
  std::int64_t total = 0;
  for (const auto& c : state.containers()) {
    if (state.IsPlaced(c.id)) total += c.request.cpu_millis();
  }
  return total;
}

}  // namespace aladdin::core
