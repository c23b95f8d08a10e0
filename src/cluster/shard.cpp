#include "cluster/shard.h"

#include <algorithm>

#include "common/check.h"

namespace aladdin::cluster {

ShardPlan ShardPlan::Build(const Topology& topology, int shards) {
  const std::size_t machines = topology.machine_count();
  ALADDIN_CHECK(machines > 0) << "ShardPlan: empty topology";
  const int k = std::clamp(shards, 1, static_cast<int>(machines));

  ShardPlan plan;
  plan.shard_of_.assign(machines, 0);
  plan.local_of_.assign(machines, 0);
  plan.shards_.resize(static_cast<std::size_t>(k));

  if (k == 1) {
    // Verbatim copy: local ids equal global ids whatever shape the topology
    // has, so a K=1 shard solve replays the unsharded solve exactly.
    plan.shards_[0].topology = topology;
    plan.shards_[0].to_global.reserve(machines);
    for (std::size_t m = 0; m < machines; ++m) {
      plan.local_of_[m] = static_cast<std::int32_t>(m);
      plan.shards_[0].to_global.push_back(MachineId(static_cast<std::int32_t>(m)));
    }
    return plan;
  }

  // Pick the coarsest partition unit that still yields K non-empty shards:
  // whole subclusters when possible (keeps the flow network's G_k layer
  // intact per shard), then racks, then single machines.
  enum class Unit : std::uint8_t { kSubCluster, kRack, kMachine };
  Unit unit = Unit::kMachine;
  std::size_t unit_count = machines;
  if (topology.subcluster_count() >= static_cast<std::size_t>(k)) {
    unit = Unit::kSubCluster;
    unit_count = topology.subcluster_count();
  } else if (topology.rack_count() >= static_cast<std::size_t>(k)) {
    unit = Unit::kRack;
    unit_count = topology.rack_count();
  }

  // Greedy balance: units in ascending id order, each to the shard with the
  // fewest machines so far (ties to the lowest shard id). Deterministic, and
  // with units in id order the first K units land on K distinct shards.
  std::vector<std::size_t> load(static_cast<std::size_t>(k), 0);
  const auto unit_machines = [&](std::size_t u) {
    std::size_t n = 0;
    switch (unit) {
      case Unit::kSubCluster:
        for (const RackId r :
             topology.SubClusterRacks(SubClusterId(static_cast<std::int32_t>(u))))
          n += topology.RackMachines(r).size();
        break;
      case Unit::kRack:
        n = topology.RackMachines(RackId(static_cast<std::int32_t>(u))).size();
        break;
      case Unit::kMachine:
        n = 1;
        break;
    }
    return n;
  };
  std::vector<std::int32_t> shard_of_unit(unit_count, 0);
  for (std::size_t u = 0; u < unit_count; ++u) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < load.size(); ++s) {
      if (load[s] < load[best]) best = s;
    }
    shard_of_unit[u] = static_cast<std::int32_t>(best);
    load[best] += unit_machines(u);
  }
  const auto shard_of_machine = [&](MachineId m) {
    const Machine& machine = topology.machine(m);
    switch (unit) {
      case Unit::kSubCluster:
        return shard_of_unit[static_cast<std::size_t>(machine.subcluster.value())];
      case Unit::kRack:
        return shard_of_unit[static_cast<std::size_t>(machine.rack.value())];
      case Unit::kMachine:
      default:
        return shard_of_unit[static_cast<std::size_t>(m.value())];
    }
  };

  // Build the per-shard local topologies by walking the global hierarchy in
  // id order, lazily creating each shard's local subcluster/rack on first
  // touch. Iteration order is global-id order, so local machine ids are
  // assigned in ascending global-id order within each shard.
  std::vector<std::int32_t> sub_local(topology.subcluster_count() *
                                          static_cast<std::size_t>(k),
                                      -1);
  std::vector<std::int32_t> rack_local(
      topology.rack_count() * static_cast<std::size_t>(k), -1);
  for (std::size_t g = 0; g < topology.subcluster_count(); ++g) {
    const SubClusterId sub(static_cast<std::int32_t>(g));
    for (const RackId r : topology.SubClusterRacks(sub)) {
      for (const MachineId m : topology.RackMachines(r)) {
        const std::int32_t s = shard_of_machine(m);
        Shard& shard = plan.shards_[static_cast<std::size_t>(s)];
        std::int32_t& lsub =
            sub_local[g * static_cast<std::size_t>(k) +
                      static_cast<std::size_t>(s)];
        if (lsub < 0) lsub = shard.topology.AddSubCluster().value();
        std::int32_t& lrack =
            rack_local[static_cast<std::size_t>(r.value()) *
                           static_cast<std::size_t>(k) +
                       static_cast<std::size_t>(s)];
        if (lrack < 0) lrack = shard.topology.AddRack(SubClusterId(lsub)).value();
        const MachineId local =
            shard.topology.AddMachine(RackId(lrack), topology.machine(m).capacity);
        plan.shard_of_[Idx(m)] = s;
        plan.local_of_[Idx(m)] = local.value();
        shard.to_global.push_back(m);
      }
    }
  }
  return plan;
}

ShardView::ShardView(const ShardPlan& plan, int shard,
                     const ClusterState& global)
    : plan_(&plan),
      shard_(shard),
      state_(plan.shard_topology(shard), global.containers(),
             global.applications(), global.constraints()) {
  const std::span<const MachineId> machines = plan.shard_machines(shard);
  for (std::size_t local = 0; local < machines.size(); ++local) {
    for (const ContainerId c : global.DeployedOn(machines[local])) {
      state_.Deploy(c, MachineId(static_cast<std::int32_t>(local)));
    }
  }
}

void ShardView::Replay(const Touch& touch) {
  const MachineId local = plan_->LocalOf(touch.machine);
  if (state_.PlacementOf(touch.container) == local) {
    state_.Evict(touch.container);
  } else {
    state_.Deploy(touch.container, local);
  }
}

}  // namespace aladdin::cluster
