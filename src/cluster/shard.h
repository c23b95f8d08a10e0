// Cluster sharding: a deterministic partition of the topology into K
// disjoint machine sets, plus the per-shard scheduling view built on it.
//
// The aggregated flow network s→T→A→G→R→N→t partitions naturally at the
// subcluster/rack layer (§III.A): no arc crosses a subcluster boundary
// except through the source side, so solving each machine subset on its own
// small network is exact for everything but cross-shard routing quality —
// which the coordinator (core::ShardedScheduler) handles above this layer.
//
// ShardPlan is pure data: the unit-granular split (subclusters when there
// are at least K of them, else racks, else single machines), the
// global↔local machine-id translation, and a per-shard Topology whose
// local ids are dense. ShardView wraps one shard's private ClusterState
// (bound to the shard topology but the *shared* container/application/
// constraint tables, so container ids never need translation), kept in
// sync with the global state by replaying the global touch log.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/state.h"
#include "cluster/topology.h"
#include "common/ids.h"

namespace aladdin::cluster {

class ShardPlan {
 public:
  // Splits `topology` into min(shards, machine_count) shards (at least 1).
  // Deterministic: units are assigned in id order to the least-loaded shard
  // (by machine count, ties to the lowest shard id), so the same topology
  // and K always produce the same plan. K=1 copies the global topology
  // verbatim — local ids equal global ids — which is what makes the K=1
  // solve bit-identical to the unsharded path on any topology.
  static ShardPlan Build(const Topology& topology, int shards);

  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] std::int32_t ShardOf(MachineId global) const {
    return shard_of_[Idx(global)];
  }
  [[nodiscard]] MachineId LocalOf(MachineId global) const {
    return MachineId(local_of_[Idx(global)]);
  }
  [[nodiscard]] MachineId GlobalOf(int shard, MachineId local) const {
    return shards_[static_cast<std::size_t>(shard)].to_global[Idx(local)];
  }
  [[nodiscard]] const Topology& shard_topology(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].topology;
  }
  // Local id -> global id, in local-id order (so .size() is the shard size).
  [[nodiscard]] std::span<const MachineId> shard_machines(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].to_global;
  }

 private:
  struct Shard {
    Topology topology;                 // dense local machine ids
    std::vector<MachineId> to_global;  // local id -> global id
  };

  static std::size_t Idx(MachineId m) {
    return static_cast<std::size_t>(m.value());
  }

  std::vector<Shard> shards_;
  std::vector<std::int32_t> shard_of_;  // per global machine
  std::vector<std::int32_t> local_of_;  // per global machine
};

// One shard's private scheduling view: a ClusterState over the shard
// topology and the global state's container tables. The owning coordinator
// replays global touches on the shard's machines in (Replay) and applies
// solver-side changes out (via the shard state's change journal) — between
// Schedule calls the shard's machines hold exactly the same containers as
// their global counterparts.
class ShardView {
 public:
  // Builds the view and deploys the global state's current residents, each
  // machine's in DeployedOn order. `plan` and `global`'s tables must outlive
  // the view.
  ShardView(const ShardPlan& plan, int shard, const ClusterState& global);

  [[nodiscard]] int shard() const { return shard_; }
  [[nodiscard]] ClusterState& state() { return state_; }
  [[nodiscard]] const ClusterState& state() const { return state_; }

  [[nodiscard]] MachineId ToGlobal(MachineId local) const {
    return plan_->GlobalOf(shard_, local);
  }

  // Replays one global touch on one of this shard's machines: an Evict if
  // the view holds the container there, else a Deploy. Touches replayed in
  // log order reproduce the global history, so every Deploy fits.
  void Replay(const Touch& touch);

 private:
  const ShardPlan* plan_;
  int shard_;
  ClusterState state_;
};

}  // namespace aladdin::cluster
