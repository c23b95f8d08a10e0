// Model Adaptor (MA) — §IV.C, Fig. 6: "decouples Kubernetes objects from
// their scheduling implementation by delegating the watching and binding
// APIs".
//
// The adaptor consumes the EHC's pre-processed event stream, maintains the
// live object store (pods, nodes), and materialises the scheduling-side
// view on demand: a trace::Workload (owners -> applications, pods ->
// containers, anti-affinity specs -> constraint rules) and a
// cluster::Topology (zone/rack labels -> sub-cluster/rack vertices), plus
// the uid <-> ContainerId and node-name <-> MachineId translations the
// resolver needs to turn placements back into Bindings.
//
// The workload snapshot is maintained *incrementally*: pods append
// containers in event-arrival order and container/application ids are
// append-only — a ContainerId handed out once never moves, which is what
// lets the resolver keep a ClusterState (and the Aladdin core keep its
// aggregated network) alive across Resolve() calls. A deleted pod leaves a
// tombstoned container behind (never scheduled again; recorded in the
// retired-container journal for the resolver to evict). Node changes are
// rare and structural, so they rebuild the topology from scratch and bump
// topology_version(), signalling every topology-derived cache to rebuild.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "k8s/events.h"
#include "k8s/objects.h"
#include "trace/workload.h"

namespace aladdin::k8s {

class ModelAdaptor {
 public:
  // Wire into an EHC: the adaptor subscribes itself.
  void Attach(EventsHandlingCenter& ehc);

  // Direct event entry (used by Attach's subscription and by tests).
  void OnEvent(const Event& event);

  // --- live object store ---------------------------------------------
  [[nodiscard]] const Pod* FindPod(PodUid uid) const;
  // Callers may mutate any field EXCEPT `phase` through this pointer: the
  // pending/bound indices are keyed on it, so phase transitions must go
  // through BindPod()/UnbindPod() (or an OnEvent).
  Pod* MutablePod(PodUid uid);
  [[nodiscard]] std::size_t pod_count() const { return pods_.size(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  // Materialised from the phase indices: O(result), uid-ascending — the
  // same order the historical full-map scans produced.
  [[nodiscard]] std::vector<PodUid> PendingPods() const;
  [[nodiscard]] std::vector<PodUid> BoundPods() const;
  // Whole store, uid-ascending, for consumers that sweep every pod anyway
  // (one ordered scan instead of a uid list plus a FindPod per entry).
  [[nodiscard]] const std::map<PodUid, Pod>& pods() const { return pods_; }

  // Phase transitions, keeping the pending/bound indices in sync. The pod
  // reference must point into this adaptor's store.
  void BindPod(Pod& pod, const std::string& node, std::int64_t tick);
  void UnbindPod(Pod& pod);

  // --- scheduling-side snapshot (lazily synced) -----------------------
  const trace::Workload& workload();
  const cluster::Topology& topology();
  // Bumps only on node (topology) changes; consumers holding
  // topology-derived state compare it to decide between incremental sync
  // and full rebuild.
  [[nodiscard]] std::int64_t topology_version() const {
    return topology_version_;
  }

  // Containers whose pods were deleted (or lost their binding to a live
  // topology) since the last call; the consumer evicts them from any
  // persistent state. Cleared by the call. Containers of pods undone by a
  // node removal are NOT reported — topology_version() covers those.
  [[nodiscard]] std::vector<cluster::ContainerId> TakeRetiredContainers();

  // Translations, valid for the current snapshot.
  [[nodiscard]] cluster::ContainerId ContainerOf(PodUid uid) const;
  [[nodiscard]] PodUid PodOfContainer(cluster::ContainerId c) const;
  [[nodiscard]] cluster::MachineId MachineOf(const std::string& node) const;
  [[nodiscard]] const std::string& NodeOfMachine(cluster::MachineId m) const;

 private:
  void SyncTopologyIfDirty();  // full rebuild; node changes are structural
  void SyncWorkloadIfDirty();  // appends containers for newly seen pods
  void RetireContainer(PodUid uid);
  // Moves `uid` between the pending/bound indices on a phase change.
  void ReindexPhase(PodUid uid, PodPhase from, PodPhase to);

  std::map<PodUid, Pod> pods_;          // ordered: deterministic scans
  std::map<std::string, Node> nodes_;
  // Phase indices over pods_: uid-sorted so PendingPods()/BoundPods() keep
  // the deterministic ascending order without rescanning the whole store.
  std::set<PodUid> pending_index_;
  std::set<PodUid> bound_index_;

  bool topology_dirty_ = true;
  bool workload_dirty_ = false;
  std::int64_t topology_version_ = 0;
  trace::Workload workload_;
  cluster::Topology topology_;

  // Pods whose containers have not been materialised yet, in arrival order.
  std::vector<PodUid> pending_materialise_;
  std::unordered_map<std::string, cluster::ApplicationId> app_of_owner_;
  // Cross-owner anti-affinity rules awaiting their target owner's first
  // pod: target owner name -> source application.
  std::multimap<std::string, cluster::ApplicationId> deferred_rules_;
  std::vector<cluster::ContainerId> retired_;

  std::unordered_map<PodUid, cluster::ContainerId> container_of_pod_;
  std::vector<PodUid> pod_of_container_;          // by container index
  std::unordered_map<std::string, cluster::MachineId> machine_of_node_;
  std::vector<std::string> node_of_machine_;      // by machine index
};

}  // namespace aladdin::k8s
