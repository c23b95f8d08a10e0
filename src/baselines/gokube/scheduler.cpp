#include "baselines/gokube/scheduler.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "baselines/gokube/scoring.h"
#include "obs/journal.h"

namespace aladdin::baselines {

namespace {
template <typename T>
std::size_t Idx(T id) {
  return static_cast<std::size_t>(id.value());
}

// Nodes scored per container (the k8s sampling knob,
// percentageOfNodesToScore).
constexpr int kNodesToScore = 256;
// Machines examined when looking for a preemption target.
constexpr int kPreemptionCandidates = 64;
// A preempted victim is re-queued this many times before being dropped.
constexpr int kVictimRequeues = 1;
}  // namespace

GoKubeScheduler::GoKubeScheduler(GoKubeOptions options) : options_(options) {}

cluster::MachineId GoKubeScheduler::PickNode(
    const cluster::ClusterState& state, cluster::ContainerId c,
    std::int64_t* explored) const {
  const auto& request = state.containers()[Idx(c)].request;
  cluster::MachineId best = cluster::MachineId::Invalid();
  double best_score = 0.0;
  int budget = kNodesToScore;
  // Sample from the emptiest nodes down — LeastRequested would rank those
  // highest anyway, so the bounded sample sees the max-score region first.
  index_.ScanDescending([&](cluster::MachineId m) {
    if (budget-- <= 0) return true;
    ++*explored;
    if (!request.FitsIn(state.Free(m))) return false;
    if (state.Blacklisted(c, m)) return false;  // hard anti-affinity filter
    const double score = GoKubeScore(state, c, m);
    if (!best.valid() || score > best_score) {
      best = m;
      best_score = score;
    }
    return false;
  });
  return best;
}

bool GoKubeScheduler::TryPreempt(cluster::ClusterState& state,
                                 cluster::ContainerId c,
                                 std::vector<cluster::ContainerId>& requeue,
                                 std::int64_t* explored) {
  const auto& cont = state.containers()[Idx(c)];
  if (cont.priority <= cluster::kLowestPriority) return false;

  // Go-Kube handles priority and anti-affinity *separately* (§V.B): the
  // preemption pass is resource-driven only. It considers machines that
  // already pass the pending container's anti-affinity filter and evicts
  // strictly-lower-priority tenants to free resources — it never evicts a
  // tenant to clear a blacklist. A container blocked by anti-affinity on
  // every machine therefore stays pending, which is exactly the
  // no-global-optimisation failure mode the paper attributes to Go-Kube.
  int budget = kPreemptionCandidates;
  cluster::MachineId target = cluster::MachineId::Invalid();
  std::vector<cluster::ContainerId> plan;
  index_.ScanDescending([&](cluster::MachineId m) {
    if (budget-- <= 0) return true;
    ++*explored;
    if (state.Blacklisted(c, m)) return false;  // hard filter stays hard
    // Victims: strictly lower-priority tenants, cheapest first.
    std::vector<cluster::ContainerId> lower;
    for (cluster::ContainerId v : state.DeployedOn(m)) {
      const auto& vc = state.containers()[Idx(v)];
      if (vc.priority < cont.priority) lower.push_back(v);
    }
    std::sort(lower.begin(), lower.end(),
              [&](cluster::ContainerId x, cluster::ContainerId y) {
                const auto& cx = state.containers()[Idx(x)];
                const auto& cy = state.containers()[Idx(y)];
                if (cx.priority != cy.priority) {
                  return cx.priority < cy.priority;
                }
                return cx.request.cpu_millis() < cy.request.cpu_millis();
              });
    cluster::ResourceVector available = state.Free(m);
    std::vector<cluster::ContainerId> victims;
    for (cluster::ContainerId v : lower) {
      if (cont.request.FitsIn(available)) break;
      victims.push_back(v);
      available += state.containers()[Idx(v)].request;
    }
    if (!cont.request.FitsIn(available)) return false;
    target = m;
    plan = std::move(victims);
    return true;
  });

  if (!target.valid()) return false;
  for (cluster::ContainerId v : plan) {
    state.Preempt(v);
    requeue.push_back(v);
  }
  index_.OnChanged(target);
  state.Deploy(c, target);
  index_.OnChanged(target);
  return true;
}

sim::ScheduleOutcome GoKubeScheduler::Schedule(
    const sim::ScheduleRequest& request, cluster::ClusterState& state) {
  sim::ScheduleOutcome outcome;
  index_.Attach(state);

  std::deque<cluster::ContainerId> queue(request.arrival->begin(),
                                         request.arrival->end());
  std::unordered_map<std::int32_t, int> requeues;
  std::vector<cluster::ContainerId> unplaced;
  // Equivalence cache: applications with a cached unschedulable verdict.
  std::vector<bool> app_unschedulable(state.applications().size(), false);

  while (!queue.empty()) {
    const cluster::ContainerId c = queue.front();
    queue.pop_front();
    const auto app = state.containers()[Idx(c)].app;
    if (options_.equivalence_cache &&
        app_unschedulable[static_cast<std::size_t>(app.value())]) {
      unplaced.push_back(c);  // cached predicate verdict, no re-filter
      continue;
    }

    const cluster::MachineId node =
        PickNode(state, c, &outcome.explored_paths);
    if (node.valid()) {
      state.Deploy(c, node);
      index_.OnChanged(node);
      continue;
    }
    std::vector<cluster::ContainerId> victims;
    if (TryPreempt(state, c, victims, &outcome.explored_paths)) {
      for (cluster::ContainerId v : victims) {
        if (requeues[v.value()]++ < kVictimRequeues) {
          queue.push_back(v);
        } else {
          unplaced.push_back(v);
        }
      }
      continue;
    }
    if (options_.equivalence_cache) {
      app_unschedulable[static_cast<std::size_t>(app.value())] = true;
    }
    unplaced.push_back(c);
  }

  outcome.rounds = 1;
  outcome.unplaced = std::move(unplaced);
  outcome.unplaced_causes.assign(outcome.unplaced.size(),
                                 obs::Cause::kBaselineUnplaced);
  if (obs::JournalEnabled()) {
    for (cluster::ContainerId c : outcome.unplaced) {
      obs::EmitDecision(obs::DecisionKind::kUnplaced,
                        obs::Cause::kBaselineUnplaced, c.value());
    }
  }
  return outcome;
}

}  // namespace aladdin::baselines
