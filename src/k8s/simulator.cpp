#include "k8s/simulator.h"

#include <algorithm>
#include <memory>

#include "common/analysis.h"
#include "obs/trace.h"

namespace aladdin::k8s {

ClusterSimulator::ClusterSimulator(ResolverOptions options)
    : resolver_(adaptor_, options) {
  adaptor_.Attach(ehc_);
}

std::vector<std::string> ClusterSimulator::AddNodes(
    std::size_t count, cluster::ResourceVector capacity,
    const std::string& prefix, std::size_t machines_per_rack,
    std::size_t racks_per_zone) {
  std::vector<std::string> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t index = node_counter_++;
    Node node;
    node.name = prefix + "-" + std::to_string(index);
    node.capacity = capacity;
    const auto rack_index =
        static_cast<std::size_t>(index) / machines_per_rack;
    node.rack = "rack-" + std::to_string(rack_index);
    node.zone = "zone-" + std::to_string(rack_index / racks_per_zone);
    names.push_back(node.name);
    Event event;
    event.type = EventType::kNodeAdded;
    event.node = std::move(node);
    ehc_.Submit(std::move(event));
  }
  return names;
}

void ClusterSimulator::RemoveNode(const std::string& name) {
  Event event;
  event.type = EventType::kNodeRemoved;
  event.node.name = name;
  ehc_.Submit(std::move(event));
}

std::vector<PodUid> ClusterSimulator::SubmitDeployment(const std::string& app,
                                                       std::size_t replicas,
                                                       const PodSpec& spec) {
  auto shared = std::make_shared<PodSpec>(spec);
  shared->app = app;
  shared->lifetime_ticks = 0;  // long-lived by definition
  return SubmitPods(std::move(shared), replicas);
}

std::vector<PodUid> ClusterSimulator::SubmitBatchJob(
    const std::string& job, std::size_t tasks,
    cluster::ResourceVector request, std::int64_t lifetime_ticks) {
  auto shared = std::make_shared<PodSpec>();
  shared->app = job;
  shared->requests = request;
  shared->lifetime_ticks = std::max<std::int64_t>(1, lifetime_ticks);
  return SubmitPods(std::move(shared), tasks);
}

std::vector<PodUid> ClusterSimulator::SubmitPods(
    std::shared_ptr<const PodSpec> spec, std::size_t count) {
  std::vector<PodUid> uids;
  uids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Event event;
    event.type = EventType::kPodAdded;
    event.pod.uid = NextUid();
    event.pod.spec = spec;
    uids.push_back(event.pod.uid);
    ehc_.Submit(std::move(event));
  }
  return uids;
}

void ClusterSimulator::DeletePod(PodUid uid) {
  Event event;
  event.type = EventType::kPodDeleted;
  event.pod.uid = uid;
  ehc_.Submit(std::move(event));
}

std::size_t ClusterSimulator::ScaleDown(const std::string& app,
                                        std::size_t count) {
  // Collect the app's pods, newest (highest uid) first.
  std::vector<PodUid> members;
  for (PodUid uid : adaptor_.PendingPods()) {
    if (adaptor_.FindPod(uid)->spec->app == app) members.push_back(uid);
  }
  for (PodUid uid : adaptor_.BoundPods()) {
    if (adaptor_.FindPod(uid)->spec->app == app) members.push_back(uid);
  }
  std::sort(members.rbegin(), members.rend());
  const std::size_t n = std::min(count, members.size());
  for (std::size_t i = 0; i < n; ++i) DeletePod(members[i]);
  return n;
}

ALADDIN_HOT ResolveStats ClusterSimulator::Tick(
    std::vector<Binding>* bindings) {
  ALADDIN_TRACE_SCOPE("k8s/tick");
  ALADDIN_METRIC_ADD("k8s/ticks", 1);
  ++now_;
  {
    // Complete batch pods whose lifetime elapsed, then deliver the tick's
    // queued cluster events — everything that happens "outside" the
    // resolver, kept exclusive so the tick breakdown separates event
    // handling from scheduling.
    ALADDIN_PHASE_SCOPE("k8s/events");
    // The expiry wheel yields the completed pods uid-ascending. DeletePod
    // only queues an event, so the store is not mutated until the drain.
    adaptor_.TakeExpired(now_, expired_);
    for (PodUid uid : expired_) DeletePod(uid);
    ehc_.DrainAndDispatch();
    // A completion counts once its pod has left the store. If the drain
    // coalesced the delete away (it also held an add of the pod), the pod
    // is offered again next tick.
    for (PodUid uid : expired_) {
      if (adaptor_.FindPod(uid) == nullptr) {
        ++completed_tasks_;
      } else {
        adaptor_.FileExpiry(uid, now_ + 1);
      }
    }
  }
  ResolveStats stats = resolver_.Resolve(now_, bindings);
  ALADDIN_METRIC_GAUGE_SET("k8s/pods_pending",
                           stats.pending_before - stats.new_bindings);
  ALADDIN_METRIC_GAUGE_SET("k8s/tasks_completed", completed_tasks_);
  return stats;
}

}  // namespace aladdin::k8s
