#include "k8s/adaptor.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace aladdin::k8s {

void ModelAdaptor::Attach(EventsHandlingCenter& ehc) {
  ehc.Subscribe([this](const Event& event) { OnEvent(event); });
}

void ModelAdaptor::OnEvent(const Event& event) {
  switch (event.type) {
    case EventType::kPodAdded: {
      Pod pod = event.pod;
      if (pod.phase == PodPhase::kDeleted) break;
      const auto it = pods_.find(pod.uid);
      if (it != pods_.end()) {
        // Update of a tracked pod. Its container id is already assigned and
        // never moves; if the update dropped or moved the binding, any
        // persistent consumer must evict the old placement.
        if (it->second.phase == PodPhase::kBound &&
            (pod.phase != PodPhase::kBound || pod.node != it->second.node)) {
          RetireContainer(pod.uid);
        }
        ReindexPhase(pod.uid, it->second.phase, pod.phase);
        it->second = std::move(pod);
        break;
      }
      const PodUid uid = pod.uid;
      const PodPhase phase = pod.phase;
      pods_.emplace(uid, std::move(pod));
      if (phase == PodPhase::kPending) pending_index_.insert(uid);
      if (phase == PodPhase::kBound) bound_index_.insert(uid);
      pending_materialise_.push_back(uid);
      workload_dirty_ = true;
      break;
    }
    case EventType::kPodDeleted: {
      const auto it = pods_.find(event.pod.uid);
      if (it == pods_.end()) break;
      // The container becomes a tombstone: it keeps its id (ids are
      // append-only) but is never scheduled again.
      RetireContainer(event.pod.uid);
      const auto cit = container_of_pod_.find(event.pod.uid);
      if (cit != container_of_pod_.end()) {
        pod_of_container_[static_cast<std::size_t>(cit->second.value())] = -1;
        container_of_pod_.erase(cit);
      }
      if (it->second.phase == PodPhase::kPending) {
        pending_index_.erase(event.pod.uid);
      }
      if (it->second.phase == PodPhase::kBound) {
        bound_index_.erase(event.pod.uid);
      }
      pods_.erase(it);
      break;
    }
    case EventType::kNodeAdded: {
      nodes_[event.node.name] = event.node;
      topology_dirty_ = true;
      break;
    }
    case EventType::kNodeRemoved: {
      nodes_.erase(event.node.name);
      // Pods bound to the lost node fall back to Pending (the controller
      // would recreate them; we keep the same uid for simplicity).
      for (auto& [uid, pod] : pods_) {
        if (pod.phase == PodPhase::kBound && pod.node == event.node.name) {
          ReindexPhase(uid, pod.phase, PodPhase::kPending);
          pod.phase = PodPhase::kPending;
          pod.node.clear();
        }
      }
      topology_dirty_ = true;
      break;
    }
  }
}

void ModelAdaptor::RetireContainer(PodUid uid) {
  const auto it = container_of_pod_.find(uid);
  if (it != container_of_pod_.end()) retired_.push_back(it->second);
}

std::vector<cluster::ContainerId> ModelAdaptor::TakeRetiredContainers() {
  return std::exchange(retired_, {});
}

const Pod* ModelAdaptor::FindPod(PodUid uid) const {
  const auto it = pods_.find(uid);
  return it == pods_.end() ? nullptr : &it->second;
}

Pod* ModelAdaptor::MutablePod(PodUid uid) {
  const auto it = pods_.find(uid);
  return it == pods_.end() ? nullptr : &it->second;
}

std::vector<PodUid> ModelAdaptor::PendingPods() const {
  return {pending_index_.begin(), pending_index_.end()};
}

std::vector<PodUid> ModelAdaptor::BoundPods() const {
  return {bound_index_.begin(), bound_index_.end()};
}

void ModelAdaptor::ReindexPhase(PodUid uid, PodPhase from, PodPhase to) {
  if (from == to) return;
  if (from == PodPhase::kPending) pending_index_.erase(uid);
  if (from == PodPhase::kBound) bound_index_.erase(uid);
  if (to == PodPhase::kPending) pending_index_.insert(uid);
  if (to == PodPhase::kBound) bound_index_.insert(uid);
}

void ModelAdaptor::BindPod(Pod& pod, const std::string& node,
                           std::int64_t tick) {
  ReindexPhase(pod.uid, pod.phase, PodPhase::kBound);
  pod.phase = PodPhase::kBound;
  pod.node = node;
  pod.bound_at_tick = tick;
}

void ModelAdaptor::UnbindPod(Pod& pod) {
  ReindexPhase(pod.uid, pod.phase, PodPhase::kPending);
  pod.phase = PodPhase::kPending;
  pod.node.clear();
}

// Either accessor syncs both views: the translation tables (ContainerOf,
// MachineOf) have always been "valid for the current snapshot", regardless
// of which half a caller touched first.

const trace::Workload& ModelAdaptor::workload() {
  SyncTopologyIfDirty();
  SyncWorkloadIfDirty();
  return workload_;
}

const cluster::Topology& ModelAdaptor::topology() {
  SyncTopologyIfDirty();
  SyncWorkloadIfDirty();
  return topology_;
}

cluster::ContainerId ModelAdaptor::ContainerOf(PodUid uid) const {
  const auto it = container_of_pod_.find(uid);
  return it == container_of_pod_.end() ? cluster::ContainerId::Invalid()
                                       : it->second;
}

PodUid ModelAdaptor::PodOfContainer(cluster::ContainerId c) const {
  const auto idx = static_cast<std::size_t>(c.value());
  return idx < pod_of_container_.size() ? pod_of_container_[idx] : -1;
}

cluster::MachineId ModelAdaptor::MachineOf(const std::string& node) const {
  const auto it = machine_of_node_.find(node);
  return it == machine_of_node_.end() ? cluster::MachineId::Invalid()
                                      : it->second;
}

const std::string& ModelAdaptor::NodeOfMachine(cluster::MachineId m) const {
  // analyze:allow(A102) function-local static, constructed once; empty string does not allocate
  static const std::string kUnknown;
  const auto idx = static_cast<std::size_t>(m.value());
  return idx < node_of_machine_.size() ? node_of_machine_[idx] : kUnknown;
}

void ModelAdaptor::SyncTopologyIfDirty() {
  if (!topology_dirty_) return;
  topology_dirty_ = false;
  ++topology_version_;

  // Zones -> sub-clusters, racks -> racks, by name order. Node changes
  // renumber machines, which is why every topology-derived structure keys
  // off topology_version().
  topology_ = cluster::Topology();
  machine_of_node_.clear();
  node_of_machine_.clear();
  // analyze:allow(A102) topology rebuild runs only when a node add/remove dirtied it
  std::map<std::string, cluster::SubClusterId> zones;
  std::map<std::pair<std::string, std::string>, cluster::RackId> racks;  // analyze:allow(A102) rebuild arm, as above
  for (const auto& [name, node] : nodes_) {
    auto zit = zones.find(node.zone);
    if (zit == zones.end()) {
      zit = zones.emplace(node.zone, topology_.AddSubCluster()).first;
    }
    const auto rack_key = std::make_pair(node.zone, node.rack);
    auto rit = racks.find(rack_key);
    if (rit == racks.end()) {
      rit = racks.emplace(rack_key, topology_.AddRack(zit->second)).first;
    }
    const cluster::MachineId m =
        topology_.AddMachine(rit->second, node.capacity);
    machine_of_node_[name] = m;
    node_of_machine_.push_back(name);
  }
}

void ModelAdaptor::SyncWorkloadIfDirty() {
  if (!workload_dirty_) return;
  workload_dirty_ = false;

  for (const PodUid uid : pending_materialise_) {
    const auto pit = pods_.find(uid);
    if (pit == pods_.end()) continue;  // deleted before materialising
    const Pod& pod = pit->second;
    auto ait = app_of_owner_.find(pod.spec.app);
    if (ait == app_of_owner_.end()) {
      // First pod of this owner: it is the prototype, its spec is canonical
      // for every later sibling (pods of one owner are isomorphic).
      const cluster::ApplicationId app = workload_.AddApplication(
          pod.spec.app, 1, pod.spec.requests, pod.spec.priority,
          pod.spec.anti_affinity_within);
      ait = app_of_owner_.emplace(pod.spec.app, app).first;
      // Rules other owners filed against this owner become resolvable now.
      const auto [lo, hi] = deferred_rules_.equal_range(pod.spec.app);
      for (auto rit = lo; rit != hi; ++rit) {
        workload_.AddAntiAffinity(rit->second, app);
      }
      deferred_rules_.erase(lo, hi);
      // The prototype's own cross-owner rules: resolve or defer.
      for (const std::string& other : pod.spec.anti_affinity_apps) {
        const auto oit = app_of_owner_.find(other);
        if (oit == app_of_owner_.end()) {
          LOG_DEBUG << "anti-affinity target '" << other
                    << "' has no pods yet; rule deferred";
          deferred_rules_.emplace(other, app);
        } else {
          workload_.AddAntiAffinity(app, oit->second);
        }
      }
      const cluster::ContainerId c =
          workload_.application(app).containers.front();
      container_of_pod_[uid] = c;
      // analyze:allow(A103) grows with the container high-water mark
      pod_of_container_.resize(workload_.container_count(), -1);
      pod_of_container_[static_cast<std::size_t>(c.value())] = uid;
      continue;
    }
    const cluster::ContainerId c = workload_.AddContainer(ait->second);
    container_of_pod_[uid] = c;
    // analyze:allow(A103) grows with the container high-water mark
    pod_of_container_.resize(workload_.container_count(), -1);
    pod_of_container_[static_cast<std::size_t>(c.value())] = uid;
  }
  pending_materialise_.clear();
}

}  // namespace aladdin::k8s
