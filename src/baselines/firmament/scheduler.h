// Firmament baseline: flow-based scheduling with multi-round conflict
// repair and a timeout mechanism (§I, §V.A–B; Gog et al., OSDI'16).
//
// Each round solves a min-cost max-flow over the scheduling graph
// s → task → machine → t (with an unscheduled aggregator), using one of the
// three cost models. The flow solve is anti-affinity- and priority-
// oblivious; conflicts are detected after decoding and repaired by evicting
// up to `reschd` containers per conflicted machine per round — the paper's
// reschd(i) knob (§V.B). Rounds repeat until the queue drains, progress
// stops, or the round budget (timeout) expires; containers still in
// conflict at the end are evicted and reported unscheduled, matching
// Firmament's "unscheduled to avoid anti-affinity constraints" behaviour
// (Fig. 1b).
//
// Scale note: the real Firmament keeps solves fast with incremental
// min-cost flow. We run the exact MCMF (flow/min_cost_flow.h) when a
// round's task count is small and an equivalent cost-model-greedy
// assignment — the same argmin per task — for large rounds; the crossover
// is `mcmf_task_threshold`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/firmament/cost_model.h"
#include "cluster/free_index.h"
#include "sim/scheduler.h"

namespace aladdin::baselines {

struct FirmamentOptions {
  FirmamentCostModel cost_model = FirmamentCostModel::kQuincy;
  // reschd(i): max containers rescheduled per conflicted machine per round.
  int reschd = 1;
  // Timeout mechanism: scheduling rounds before giving up. Small on purpose
  // — the interaction between this budget and reschd(i) is what Fig. 9
  // sweeps: with reschd(1) only one conflicting container per machine is
  // rescheduled per round, so crowded machines cannot drain before the
  // timeout and their conflicts end up unscheduled.
  int max_rounds = 6;
  // Task-count ceiling for running the exact MCMF solver per round.
  int mcmf_task_threshold = 400;
};

class FirmamentScheduler : public sim::Scheduler {
 public:
  explicit FirmamentScheduler(FirmamentOptions options = {});

  [[nodiscard]] std::string name() const override;

  sim::ScheduleOutcome Schedule(const sim::ScheduleRequest& request,
                                cluster::ClusterState& state) override;

 private:
  struct RoundStats {
    std::size_t deployed = 0;
    std::size_t evicted = 0;
    std::int64_t arcs = 0;
  };

  // Assign-and-deploy one round of `queue`; non-assignable tasks go to
  // `leftover`. Returns stats.
  RoundStats SolveRound(const std::vector<cluster::ContainerId>& queue,
                        std::vector<cluster::ContainerId>& leftover,
                        cluster::ClusterState& state);
  RoundStats SolveRoundMcmf(const std::vector<cluster::ContainerId>& queue,
                            std::vector<cluster::ContainerId>& leftover,
                            cluster::ClusterState& state);
  RoundStats SolveRoundGreedy(const std::vector<cluster::ContainerId>& queue,
                              std::vector<cluster::ContainerId>& leftover,
                              cluster::ClusterState& state);

  // Post-round conflict repair: evict up to reschd violating containers per
  // machine; appends victims to `requeue` (or drops them once their
  // eviction budget is spent).
  std::size_t RepairConflicts(cluster::ClusterState& state,
                              std::vector<cluster::ContainerId>& requeue,
                              std::vector<cluster::ContainerId>& dropped,
                              std::vector<int>& evictions);

  // Candidate machines for task c under the active cost model.
  void ForEachCandidate(const cluster::ClusterState& state,
                        cluster::ContainerId c,
                        const std::function<bool(cluster::MachineId)>& fn);

  FirmamentOptions options_;
  cluster::FreeIndex index_;
};

}  // namespace aladdin::baselines
