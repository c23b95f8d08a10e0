#include "k8s/adaptor.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/analysis.h"
#include "common/check.h"
#include "common/log.h"

namespace aladdin::k8s {

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

// The tick a bound short-lived pod completes: bound_at_tick +
// lifetime_ticks, saturated at kNever (both are non-negative here, and a
// lifetime may be as large as INT64_MAX).
std::int64_t ExpiryTick(const Pod& pod) {
  const std::int64_t lifetime = pod.spec->lifetime_ticks;
  return lifetime > kNever - pod.bound_at_tick ? kNever
                                               : pod.bound_at_tick + lifetime;
}

// A bound short-lived pod with a binding tick: its lifetime runs out.
bool Expires(const Pod& pod) {
  return pod.phase == PodPhase::kBound && pod.spec->short_lived() &&
         pod.bound_at_tick >= 0;
}

}  // namespace

void ModelAdaptor::Attach(EventsHandlingCenter& ehc) {
  ehc.Subscribe([this](const Event& event) { OnEvent(event); });
}

ALADDIN_HOT void ModelAdaptor::OnEvent(const Event& event) {
  switch (event.type) {
    case EventType::kPodAdded: {
      const Pod& pod = event.pod;
      if (pod.spec == nullptr || pod.phase == PodPhase::kDeleted) break;
      const auto [it, inserted] = store_.try_emplace(pod.uid);
      Record& record = it->second;
      if (inserted) {
        record.pod.uid = pod.uid;
        pending_materialise_.push_back(pod.uid);
        workload_dirty_ = true;
      } else if (record.pod.phase == PodPhase::kBound &&
                 (pod.phase != PodPhase::kBound ||
                  pod.node != record.pod.node)) {
        // Update of a tracked pod. Its container id is already assigned and
        // never moves; if the update dropped or moved the binding, any
        // persistent consumer must evict the old placement.
        RetireContainer(record);
      }
      if (pod.phase == PodPhase::kBound &&
          (record.pod.phase != PodPhase::kBound ||
           pod.node != record.pod.node)) {
        event_bindings_.push_back(pod.uid);
      }
      SetPhase(record, pod.phase);
      record.pod.spec = pod.spec;
      record.pod.node = pod.node;
      record.pod.bound_at_tick = pod.bound_at_tick;
      FileIfShortLived(record.pod);
      break;
    }
    case EventType::kPodDeleted: {
      const auto it = store_.find(event.pod.uid);
      if (it == store_.end()) break;
      // The container becomes a tombstone: it keeps its id (ids are
      // append-only) but is never scheduled again. A pending-list or wheel
      // entry of the pod drops out when next read.
      const Record& record = it->second;
      RetireContainer(record);
      if (record.container.valid()) {
        pod_of_container_[static_cast<std::size_t>(record.container.value())] =
            -1;
      }
      if (record.pod.phase == PodPhase::kBound) --bound_count_;
      store_.erase(it);
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
      for (PodUid uid : BoundPods()) {
        Record& record = RecordOf(uid);
        if (record.pod.node != event.node.name) continue;
        SetPhase(record, PodPhase::kPending);
        record.pod.node.clear();
      }
      topology_dirty_ = true;
      break;
    }
  }
}

void ModelAdaptor::RetireContainer(const Record& record) {
  if (record.container.valid()) retired_.push_back(record.container);
}

std::vector<cluster::ContainerId> ModelAdaptor::TakeRetiredContainers() {
  return std::exchange(retired_, {});
}

std::vector<PodUid> ModelAdaptor::TakeEventBindings() {
  return std::exchange(event_bindings_, {});
}

const Pod* ModelAdaptor::FindPod(PodUid uid) const {
  const auto it = store_.find(uid);
  return it == store_.end() ? nullptr : &it->second.pod;
}

ModelAdaptor::Record& ModelAdaptor::RecordOf(PodUid uid) {
  const auto it = store_.find(uid);
  ALADDIN_CHECK(it != store_.end()) << "pod " << uid << " is not stored";
  return it->second;
}

const std::vector<PodUid>& ModelAdaptor::PendingPods() {
  std::size_t kept = 0;
  for (const PodUid uid : pending_list_) {
    const auto it = store_.find(uid);
    if (it == store_.end()) continue;  // deleted
    Record& record = it->second;
    if (record.pod.phase != PodPhase::kPending) {
      record.listed_pending = false;
      continue;
    }
    pending_list_[kept++] = uid;
  }
  pending_list_.erase(pending_list_.begin() + static_cast<std::ptrdiff_t>(kept),
                      pending_list_.end());
  if (!pending_sorted_) {
    // A pod fell back to pending (preempted, unbound, its node removed), or
    // a uid was deleted and re-added, so it may be listed twice.
    std::sort(pending_list_.begin(), pending_list_.end());
    pending_list_.erase(
        std::unique(pending_list_.begin(), pending_list_.end()),
        pending_list_.end());
    pending_sorted_ = true;
  }
  return pending_list_;
}

std::vector<PodUid> ModelAdaptor::BoundPods() const {
  // analyze:allow(A102) O(store) collect: topology rebuilds and node removals only, never a steady tick
  std::vector<PodUid> uids;
  // analyze:allow(D101) the collected uids are sorted before they are returned
  for (const auto& [uid, record] : store_) {
    if (record.pod.phase == PodPhase::kBound) uids.push_back(uid);
  }
  std::sort(uids.begin(), uids.end());
  return uids;
}

void ModelAdaptor::SetPhase(Record& record, PodPhase phase) {
  if (record.pod.phase == PodPhase::kBound) --bound_count_;
  if (phase == PodPhase::kBound) ++bound_count_;
  record.pod.phase = phase;
  if (phase != PodPhase::kPending || record.listed_pending) return;
  if (!pending_list_.empty() && record.pod.uid <= pending_list_.back()) {
    pending_sorted_ = false;
  }
  pending_list_.push_back(record.pod.uid);
  record.listed_pending = true;
}

void ModelAdaptor::FileIfShortLived(const Pod& pod) {
  if (!Expires(pod)) return;
  const std::int64_t at = ExpiryTick(pod);
  // The clock cannot reach kNever: a saturated lifetime never completes.
  if (at != kNever) FileExpiry(pod.uid, at);
}

void ModelAdaptor::FileExpiry(PodUid uid, std::int64_t tick) {
  expiry_wheel_[tick].push_back(uid);
}

void ModelAdaptor::TakeExpired(std::int64_t now, std::vector<PodUid>& out) {
  out.clear();
  const auto end = expiry_wheel_.upper_bound(now);
  for (auto bucket = expiry_wheel_.begin(); bucket != end; ++bucket) {
    for (const PodUid uid : bucket->second) {
      const auto it = store_.find(uid);
      if (it == store_.end()) continue;
      const Pod& pod = it->second.pod;
      if (Expires(pod) && now >= ExpiryTick(pod)) out.push_back(uid);
    }
  }
  expiry_wheel_.erase(expiry_wheel_.begin(), end);
  // A pod moved twice in one tick is filed twice.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void ModelAdaptor::BindPod(PodUid uid, const std::string& node,
                           std::int64_t tick) {
  Record& record = RecordOf(uid);
  SetPhase(record, PodPhase::kBound);
  record.pod.node = node;
  record.pod.bound_at_tick = tick;
  FileIfShortLived(record.pod);
}

void ModelAdaptor::MovePod(PodUid uid, const std::string& node,
                           std::int64_t tick) {
  Record& record = RecordOf(uid);
  ALADDIN_DCHECK(record.pod.phase == PodPhase::kBound)
      << "pod " << uid << " moved while not bound";
  record.pod.node = node;
  record.pod.bound_at_tick = tick;
  FileIfShortLived(record.pod);
}

void ModelAdaptor::UnbindPod(PodUid uid) {
  Record& record = RecordOf(uid);
  SetPhase(record, PodPhase::kPending);
  record.pod.node.clear();
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
  const auto it = store_.find(uid);
  return it == store_.end() ? cluster::ContainerId::Invalid()
                            : it->second.container;
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
    const auto rit = store_.find(uid);
    if (rit == store_.end()) continue;  // deleted before materialising
    Record& record = rit->second;
    const PodSpec& spec = *record.pod.spec;
    auto ait = app_of_owner_.find(spec.app);
    if (ait == app_of_owner_.end()) {
      // First pod of this owner: it is the prototype, its spec is canonical
      // for every later sibling (pods of one owner are isomorphic).
      const cluster::ApplicationId app = workload_.AddApplication(
          spec.app, 1, spec.requests, spec.priority,
          spec.anti_affinity_within);
      ait = app_of_owner_.emplace(spec.app, app).first;
      // Rules other owners filed against this owner become resolvable now.
      const auto [lo, hi] = deferred_rules_.equal_range(spec.app);
      for (auto rule = lo; rule != hi; ++rule) {
        workload_.AddAntiAffinity(rule->second, app);
      }
      deferred_rules_.erase(lo, hi);
      // The prototype's own cross-owner rules: resolve or defer.
      for (const std::string& other : spec.anti_affinity_apps) {
        const auto oit = app_of_owner_.find(other);
        if (oit == app_of_owner_.end()) {
          LOG_DEBUG << "anti-affinity target '" << other
                    << "' has no pods yet; rule deferred";
          deferred_rules_.emplace(other, app);
        } else {
          workload_.AddAntiAffinity(app, oit->second);
        }
      }
      record.container = workload_.application(app).containers.front();
    } else {
      record.container = workload_.AddContainer(ait->second);
    }
    // analyze:allow(A103) grows with the container high-water mark
    pod_of_container_.resize(workload_.container_count(), -1);
    pod_of_container_[static_cast<std::size_t>(record.container.value())] =
        uid;
  }
  pending_materialise_.clear();
}

}  // namespace aladdin::k8s
