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
//
// The pod store is one hash map keyed by uid, so a tick's bookkeeping costs
// O(events + pending + expiring), never O(store). Every list the adaptor
// returns is uid-ascending; nothing depends on hash order. Two side indices
// keep the tick off the store: a pending list (appended to when a pod
// becomes pending, compacted by PendingPods()) and an expiry wheel that
// files each bound short-lived pod under the tick its lifetime elapses.
#pragma once

#include <cstdint>
#include <map>
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

  // Direct event entry (used by Attach's subscription and by tests). A
  // PodAdded without a spec, or in phase kDeleted, is ignored.
  void OnEvent(const Event& event);

  // --- live object store ---------------------------------------------
  // The pointer stays valid until the pod is deleted: store elements do
  // not move when other pods are added.
  [[nodiscard]] const Pod* FindPod(PodUid uid) const;
  [[nodiscard]] std::size_t pod_count() const { return store_.size(); }
  [[nodiscard]] std::size_t bound_count() const { return bound_count_; }
  // Pending pods, uid-ascending: compacts the pending list (drops pods no
  // longer pending; sorts only if a uid arrived out of order). O(list).
  // The reference is valid until a pod next becomes pending.
  const std::vector<PodUid>& PendingPods();
  // Bound pods, uid-ascending. O(store): collects and sorts, so the tick
  // path reads bound_count() instead.
  [[nodiscard]] std::vector<PodUid> BoundPods() const;

  // Phase transitions, by uid; with OnEvent the only writers of a pod's
  // phase, node and bound_at_tick. Each keeps the pending list, the bound
  // count and the expiry wheel in sync.
  void BindPod(PodUid uid, const std::string& node, std::int64_t tick);
  // A bound pod moves to `node` (a migration), bound again at `tick`.
  void MovePod(PodUid uid, const std::string& node, std::int64_t tick);
  void UnbindPod(PodUid uid);

  // --- expiry wheel ----------------------------------------------------
  // Replaces `out` with the bound short-lived pods whose lifetime has
  // elapsed by `now`, uid-ascending, and drops every wheel bucket at or
  // before `now`. Entries of pods since moved, unbound or deleted drop out.
  void TakeExpired(std::int64_t now, std::vector<PodUid>& out);
  // Offers `uid` to TakeExpired again at `tick` (a completion whose delete
  // did not reach the store).
  void FileExpiry(PodUid uid, std::int64_t tick);

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
  // Pods whose binding an event set or moved since the last call, in event
  // order (a pod may repeat); the consumer places them where the event
  // says. A moved pod's old placement is in TakeRetiredContainers(). Cleared
  // by the call.
  [[nodiscard]] std::vector<PodUid> TakeEventBindings();

  // Translations, valid for the current snapshot.
  [[nodiscard]] cluster::ContainerId ContainerOf(PodUid uid) const;
  [[nodiscard]] PodUid PodOfContainer(cluster::ContainerId c) const;
  [[nodiscard]] cluster::MachineId MachineOf(const std::string& node) const;
  [[nodiscard]] const std::string& NodeOfMachine(cluster::MachineId m) const;

 private:
  // One stored pod with its scheduling-side identity.
  struct Record {
    Pod pod;
    // Invalid until the workload sync materialises the pod.
    cluster::ContainerId container = cluster::ContainerId::Invalid();
    bool listed_pending = false;  // has an entry in pending_list_
  };

  void SyncTopologyIfDirty();  // full rebuild; node changes are structural
  void SyncWorkloadIfDirty();  // appends containers for newly seen pods
  void RetireContainer(const Record& record);
  // Sets the record's phase, keeping the pending list and bound count in
  // sync.
  void SetPhase(Record& record, PodPhase phase);
  // Files a bound short-lived pod under the tick its lifetime elapses.
  void FileIfShortLived(const Pod& pod);
  Record& RecordOf(PodUid uid);

  std::unordered_map<PodUid, Record> store_;
  std::map<std::string, Node> nodes_;
  // What PendingPods() last returned, then each pod that became pending
  // since. The next PendingPods() drops the entries of pods since bound or
  // deleted.
  std::vector<PodUid> pending_list_;
  bool pending_sorted_ = true;  // pending_list_ strictly ascending
  std::size_t bound_count_ = 0;
  // Expiry tick -> uids filed under it. Stale entries are filtered when
  // their bucket is taken.
  std::map<std::int64_t, std::vector<PodUid>> expiry_wheel_;

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
  std::vector<PodUid> event_bindings_;

  std::vector<PodUid> pod_of_container_;          // by container index
  std::unordered_map<std::string, cluster::MachineId> machine_of_node_;
  std::vector<std::string> node_of_machine_;      // by machine index
};

}  // namespace aladdin::k8s
