#include "baselines/firmament/scheduler.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>

#include "cluster/audit.h"
#include "flow/min_cost_flow.h"
#include "obs/journal.h"

namespace aladdin::baselines {

namespace {
template <typename T>
std::size_t Idx(T id) {
  return static_cast<std::size_t>(id.value());
}

// A container evicted this many times is dropped (stays unscheduled).
constexpr int kMaxEvictionsPerContainer = 6;
// Candidate arcs per task in the scheduling graph, and machines scanned per
// relocation attempt.
constexpr int kCandidateMachines = 24;
// Salt of the synthetic Quincy locality table (PlacementArcCost).
constexpr std::uint64_t kLocalitySeed = 7;
}  // namespace

FirmamentScheduler::FirmamentScheduler(FirmamentOptions options)
    : options_(options) {}

std::string FirmamentScheduler::name() const {
  return std::string("Firmament-") + CostModelName(options_.cost_model) + "(" +
         std::to_string(options_.reschd) + ")";
}

void FirmamentScheduler::ForEachCandidate(
    const cluster::ClusterState& state, cluster::ContainerId c,
    const std::function<bool(cluster::MachineId)>& fn) {
  const std::int64_t need = state.containers()[Idx(c)].request.cpu_millis();
  int budget = kCandidateMachines;
  switch (options_.cost_model) {
    case FirmamentCostModel::kTrivial:
      // Most packed first: ascending free CPU from the tightest fit.
      index_.ScanAscending(need, [&](cluster::MachineId m) {
        if (budget-- <= 0) return true;
        return fn(m);
      });
      break;
    case FirmamentCostModel::kOctopus:
      // Least loaded first: descending free CPU.
      index_.ScanDescending([&](cluster::MachineId m) {
        if (budget-- <= 0) return true;
        return fn(m);
      });
      break;
    case FirmamentCostModel::kQuincy: {
      // Locality-driven: start at the container's preferred machine offset
      // (per-task input locality) and wrap; the cost model scores the
      // candidates.
      const auto& machines = state.topology().machines();
      const std::size_t start =
          (static_cast<std::size_t>(static_cast<std::uint32_t>(c.value())) *
           2654435761u) %
          machines.size();
      for (std::size_t k = 0; k < machines.size() && budget > 0; ++k) {
        const cluster::MachineId m(
            static_cast<std::int32_t>((start + k) % machines.size()));
        if (state.Free(m).cpu_millis() < need) continue;
        --budget;
        if (fn(m)) break;
      }
      break;
    }
  }
}

FirmamentScheduler::RoundStats FirmamentScheduler::SolveRoundGreedy(
    const std::vector<cluster::ContainerId>& queue,
    std::vector<cluster::ContainerId>& leftover,
    cluster::ClusterState& state) {
  RoundStats stats;
  for (cluster::ContainerId c : queue) {
    cluster::MachineId best = cluster::MachineId::Invalid();
    flow::Cost best_cost = std::numeric_limits<flow::Cost>::max();
    ForEachCandidate(state, c, [&](cluster::MachineId m) {
      ++stats.arcs;
      if (!state.Fits(c, m)) return false;
      const flow::Cost cost = PlacementArcCost(options_.cost_model, state, c,
                                               m, kLocalitySeed);
      if (cost < best_cost) {
        best_cost = cost;
        best = m;
      }
      return false;  // keep scanning the candidate budget
    });
    if (best.valid() &&
        best_cost < UnscheduledArcCost(options_.cost_model, state, c)) {
      state.Deploy(c, best);  // blacklist-oblivious, like the flow solve
      index_.OnChanged(best);
      ++stats.deployed;
    } else {
      leftover.push_back(c);
    }
  }
  return stats;
}

FirmamentScheduler::RoundStats FirmamentScheduler::SolveRoundMcmf(
    const std::vector<cluster::ContainerId>& queue,
    std::vector<cluster::ContainerId>& leftover,
    cluster::ClusterState& state) {
  RoundStats stats;
  flow::Graph graph;
  const VertexId source = graph.AddVertex();
  const VertexId sink = graph.AddVertex();
  const VertexId unscheduled = graph.AddVertex();
  graph.AddArc(unscheduled, sink,
               static_cast<flow::Capacity>(queue.size()), 0);

  // Machine vertices are created lazily for candidate machines only.
  std::unordered_map<std::int32_t, VertexId> machine_vertex;
  std::vector<std::int32_t> machine_of_vertex;  // vertex -> machine id
  auto machine_vx = [&](cluster::MachineId m) {
    auto [it, inserted] = machine_vertex.try_emplace(m.value());
    if (inserted) {
      it->second = graph.AddVertex();
      // Unit = one container. Capacity approximates how many more tasks the
      // machine can take; real resource fit is re-checked at decode.
      const std::int64_t free = state.Free(m).cpu_millis();
      graph.AddArc(it->second, sink, std::max<std::int64_t>(1, free / 500),
                   0);
    }
    return it->second;
  };

  struct TaskArcs {
    cluster::ContainerId task;
    VertexId vertex;
    std::vector<std::pair<ArcId, cluster::MachineId>> arcs;
  };
  std::vector<TaskArcs> tasks;
  tasks.reserve(queue.size());
  for (cluster::ContainerId c : queue) {
    TaskArcs t;
    t.task = c;
    t.vertex = graph.AddVertex();
    graph.AddArc(source, t.vertex, 1, 0);
    ForEachCandidate(state, c, [&](cluster::MachineId m) {
      ++stats.arcs;
      if (!state.Fits(c, m)) return false;
      const ArcId a = graph.AddArc(
          t.vertex, machine_vx(m), 1,
          PlacementArcCost(options_.cost_model, state, c, m, kLocalitySeed));
      t.arcs.emplace_back(a, m);
      return false;
    });
    graph.AddArc(t.vertex, unscheduled, 1,
                 UnscheduledArcCost(options_.cost_model, state, c));
    tasks.push_back(std::move(t));
  }

  flow::MinCostMaxFlow(graph, source, sink);

  // Decode: a task arc carrying flow is a placement decision; it may have
  // become infeasible because the solver over-committed a machine (unit
  // capacities approximate resources) — those tasks stay queued.
  for (const TaskArcs& t : tasks) {
    cluster::MachineId chosen = cluster::MachineId::Invalid();
    for (const auto& [arc, m] : t.arcs) {
      if (graph.arc(arc).flow > 0) {
        chosen = m;
        break;
      }
    }
    if (chosen.valid() && state.Fits(t.task, chosen)) {
      state.Deploy(t.task, chosen);
      index_.OnChanged(chosen);
      ++stats.deployed;
    } else {
      leftover.push_back(t.task);
    }
  }
  return stats;
}

FirmamentScheduler::RoundStats FirmamentScheduler::SolveRound(
    const std::vector<cluster::ContainerId>& queue,
    std::vector<cluster::ContainerId>& leftover,
    cluster::ClusterState& state) {
  if (queue.size() <= static_cast<std::size_t>(options_.mcmf_task_threshold)) {
    return SolveRoundMcmf(queue, leftover, state);
  }
  return SolveRoundGreedy(queue, leftover, state);
}

std::size_t FirmamentScheduler::RepairConflicts(
    cluster::ClusterState& state, std::vector<cluster::ContainerId>& requeue,
    std::vector<cluster::ContainerId>& dropped, std::vector<int>& evictions) {
  // The paper's multi-round mechanism (§V.B): when a machine has constraint
  // conflicts, pick a container and try to reschedule it elsewhere; "the
  // selected one sometimes may not be deployed to other machines to avoid
  // constraint violations — the solution is to choose another container on
  // the same machine to reschedule once again". reschd(i) caps how many
  // such relocation attempts each conflicted machine gets per round; higher
  // i resolves crowded machines, lower i leaves conflicts to churn and
  // eventually time out.
  const auto offenders = cluster::CollectColocationViolations(state);
  // std::map, not unordered: the per-round reschd cap below stops part-way
  // through this loop, so which machines get repair attempts depends on
  // iteration order — ordered by machine id keeps it replayable.
  std::map<std::int32_t, std::vector<cluster::ContainerId>> by_machine;
  for (cluster::ContainerId c : offenders) {
    by_machine[state.PlacementOf(c).value()].push_back(c);
  }
  std::size_t touched = 0;
  auto machine_has_conflict = [&](cluster::MachineId m) {
    const auto tenants = state.DeployedOn(m);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const auto app_i = state.containers()[Idx(tenants[i])].app;
      for (std::size_t j = i + 1; j < tenants.size(); ++j) {
        const auto app_j = state.containers()[Idx(tenants[j])].app;
        if (state.constraints().Conflicts(app_i, app_j)) return true;
      }
    }
    return false;
  };
  for (auto& [machine_raw, list] : by_machine) {
    const cluster::MachineId m(machine_raw);
    // Reschedule low-priority (cheap) containers first.
    std::sort(list.begin(), list.end(),
              [&](cluster::ContainerId a, cluster::ContainerId b) {
                const auto& ca = state.containers()[Idx(a)];
                const auto& cb = state.containers()[Idx(b)];
                if (ca.priority != cb.priority) {
                  return ca.priority < cb.priority;
                }
                return a > b;  // newest first
              });
    int attempts = options_.reschd;
    for (cluster::ContainerId v : list) {
      if (attempts-- <= 0) {
        // Out of relocation attempts: the remaining conflicting containers
        // are evicted and re-queued for the oblivious solver (or dropped
        // once their budget is gone).
        if (!state.IsPlaced(v) || state.PlacementOf(v) != m) continue;
        if (state.Blacklisted(v, m)) {
          state.Preempt(v);
          index_.OnChanged(m);
          ++touched;
          if (++evictions[Idx(v)] >= kMaxEvictionsPerContainer) {
            dropped.push_back(v);
          } else {
            requeue.push_back(v);
          }
        }
        continue;
      }
      if (!state.IsPlaced(v) || state.PlacementOf(v) != m) continue;
      // One relocation attempt: find a machine where v fits without any
      // violation (this check is constraint-aware — it is the repair step,
      // not the flow solve).
      const std::int64_t need = state.containers()[Idx(v)].request.cpu_millis();
      cluster::MachineId target = cluster::MachineId::Invalid();
      int scan = kCandidateMachines;
      index_.ScanAscending(need, [&](cluster::MachineId cand) {
        if (scan-- <= 0) return true;
        if (cand == m) return false;
        if (!state.CanPlace(v, cand)) return false;
        target = cand;
        return true;
      });
      if (target.valid()) {
        state.Migrate(v, target);
        index_.OnChanged(m);
        index_.OnChanged(target);
        ++touched;
      } else {
        state.Preempt(v);
        index_.OnChanged(m);
        ++touched;
        if (++evictions[Idx(v)] >= kMaxEvictionsPerContainer) {
          dropped.push_back(v);
        } else {
          requeue.push_back(v);
        }
      }
      // Stop early once the machine is conflict-free.
      if (!machine_has_conflict(m)) break;
    }
  }
  return touched;
}

sim::ScheduleOutcome FirmamentScheduler::Schedule(
    const sim::ScheduleRequest& request, cluster::ClusterState& state) {
  sim::ScheduleOutcome outcome;
  index_.Attach(state);

  std::vector<cluster::ContainerId> queue = *request.arrival;
  std::vector<cluster::ContainerId> dropped;
  std::vector<int> evictions(state.containers().size(), 0);

  for (int round = 0; round < options_.max_rounds && !queue.empty();
       ++round) {
    ++outcome.rounds;
    std::vector<cluster::ContainerId> leftover;
    const RoundStats stats = SolveRound(queue, leftover, state);
    outcome.explored_paths += stats.arcs;

    std::vector<cluster::ContainerId> requeue;
    const std::size_t evicted =
        RepairConflicts(state, requeue, dropped, evictions);

    if (stats.deployed == 0 && evicted == 0) {
      // No progress: everything left is unschedulable under this policy.
      queue = std::move(leftover);
      break;
    }
    queue = std::move(leftover);
    queue.insert(queue.end(), requeue.begin(), requeue.end());
  }

  // Firmament leaves conflicting work unscheduled rather than violating
  // anti-affinity (Fig. 1b): evict any conflicts that survived the rounds.
  for (cluster::ContainerId c : cluster::CollectColocationViolations(state)) {
    const auto m = state.PlacementOf(c);
    state.Preempt(c);
    index_.OnChanged(m);
    dropped.push_back(c);
  }

  outcome.unplaced = std::move(queue);
  outcome.unplaced.insert(outcome.unplaced.end(), dropped.begin(),
                          dropped.end());
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
