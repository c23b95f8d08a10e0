// Go-Kube baseline: Kubernetes-1.11-style queue scheduler (§V.A, Table I).
//
// One container at a time, strictly in arrival order:
//   1. Filter — machines where the request fits AND the (hard) anti-affinity
//      blacklist admits the container. Kubernetes treats
//      requiredDuringScheduling anti-affinity as a filter.
//   2. Score — GoKubeScore over a bounded node sample (k8s samples nodes on
//      large clusters via percentageOfNodesToScore); highest score wins.
//   3. Preemption — if nothing passes the filter and the container outranks
//      others, evict the lowest-priority victims on some machine to make
//      room (victims are re-queued once, then lost).
// Anti-affinity and priority are honoured *separately* — there is no global
// optimisation across both, which is the paper's explanation for Go-Kube's
// 21.2 % undeployed (§V.B) and its arrival-order sensitivity (Fig. 10).
#pragma once

#include <cstdint>
#include <string>

#include "cluster/free_index.h"
#include "sim/scheduler.h"

namespace aladdin::baselines {

struct GoKubeOptions {
  // Kubernetes-1.11 equivalence cache: predicate results are cached per
  // owning controller, so once one replica of an application fails to
  // schedule, its remaining replicas reuse the cached "unschedulable"
  // verdict instead of re-filtering the cluster. The cache was known to go
  // stale (it was removed in later releases for exactly that reason); we
  // model the stale behaviour — no invalidation within the batch — which is
  // a large part of why a queue scheduler strands whole applications while
  // a flow scheduler places them.
  bool equivalence_cache = true;
};

class GoKubeScheduler : public sim::Scheduler {
 public:
  explicit GoKubeScheduler(GoKubeOptions options = {});

  [[nodiscard]] std::string name() const override { return "Go-Kube"; }

  sim::ScheduleOutcome Schedule(const sim::ScheduleRequest& request,
                                cluster::ClusterState& state) override;

 private:
  // Filter + score; Invalid if no feasible node in the sample.
  cluster::MachineId PickNode(const cluster::ClusterState& state,
                              cluster::ContainerId c,
                              std::int64_t* explored) const;

  // k8s-style preemption: returns true if room was made and `c` deployed;
  // victims appended to `requeue`.
  bool TryPreempt(cluster::ClusterState& state, cluster::ContainerId c,
                  std::vector<cluster::ContainerId>& requeue,
                  std::int64_t* explored);

  GoKubeOptions options_;
  cluster::FreeIndex index_;
};

}  // namespace aladdin::baselines
