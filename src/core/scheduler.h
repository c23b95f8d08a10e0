// The Aladdin scheduler: optimized maximum-flow scheduling of LLAs
// (Algorithm 1) over the aggregated network, with priority weights,
// the multidimensional nonlinear capacity function, and migration /
// preemption repair.
//
// Pipeline per Schedule() call:
//   1. Flow augmentation — containers are admitted in submission order;
//      each is routed along its shortest (tightest-fit) admissible path
//      s→T→A→G→R→N→t. IL and DL prune the search per §IV.A.
//   2. Repair — containers the augmentation could not admit are retried
//      with migration (Fig. 3b) and priority-safe preemption (Fig. 3a),
//      highest weighted flow first (Eq. 9).
//   3. Compaction — bounded rescheduling that drains lightly-used machines
//      (Fig. 7c), recovering packing quality for adversarial arrival orders
//      at a small migration cost (Fig. 13b).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/migration.h"
#include "core/network.h"
#include "core/weights.h"
#include "sim/scheduler.h"

namespace aladdin::core {

struct AladdinOptions {
  // Latency optimisations (§IV.A). The evaluation's three policies:
  //   Aladdin          -> il=false, dl=false
  //   Aladdin+IL       -> il=true,  dl=false
  //   Aladdin+IL+DL    -> il=true,  dl=true  (the default / production mode)
  bool enable_il = true;
  bool enable_dl = true;

  // Weighted-flow knob from Fig. 9: geometric base for the per-class
  // weights. 0 means "derive minimal weights per Eq. 4–5 from the workload".
  std::int64_t weight_base = 16;

  // Repair / rescheduling (§III.B, §IV.D): migration and preemption for
  // containers the augmentation could not admit, with pass and per-repair
  // budgets fixed in scheduler.cpp / migration.cpp (the cost stays within
  // the paper's O(V·E²·c) bound, §IV.D).
  bool enable_repair = true;

  // Packing compaction (bounded; see RepairEngine::Compact).
  bool enable_compaction = true;

  // Worker threads for ShardedScheduler's concurrent shard solves (0 =
  // hardware concurrency, 1 = serial); the unsharded solve is always serial
  // (DESIGN §5). Any value yields identical placements and search counters.
  int threads = 0;
};

class AladdinScheduler : public sim::Scheduler {
 public:
  explicit AladdinScheduler(AladdinOptions options = {});

  [[nodiscard]] std::string name() const override;

  // One solve: weights and one network Sync() up front, then augment →
  // repair → compact against the warm network.
  sim::ScheduleOutcome Schedule(const sim::ScheduleRequest& request,
                                cluster::ClusterState& state) override;

  [[nodiscard]] const AladdinOptions& options() const { return options_; }

 private:
  // Returns the network to schedule on: the cached one (synced with the
  // state's touch log) when it is still attached to this exact state
  // object, else a freshly attached rebuild.
  AggregatedNetwork& PrepareNetwork(cluster::ClusterState& state);
  // Eq. 3–5 weights for one solve: derives the minimal weights when
  // weight_base is 0 (geometric weights are fixed at construction), then
  // audits Eq. 5. Both read the application table, not the containers.
  void PrepareWeights(const trace::Workload& workload);

  AladdinOptions options_;
  PriorityWeights weights_;

  // The network survives Schedule() calls; the instance id (not just the
  // address — states are frequently stack- or optional-allocated) proves
  // the attached state is still the same one.
  std::unique_ptr<AggregatedNetwork> network_;
  std::uint64_t attached_state_id_ = 0;

  // Per-tick pooling: member buffers cleared per call, capacity retained.
  // The repair scratch persists the RepairEngine's working buffers across
  // ticks, sort_keys_ the augmentation order and pending_ its backlog. After
  // a warmup tick the steady-state Schedule() leaves only the escaping
  // outcome allocations.
  struct SortKey {
    std::int64_t weighted_flow;
    std::int32_t arrival_pos;
  };
  std::vector<SortKey> sort_keys_;
  RepairEngine::Scratch repair_scratch_;
  std::vector<cluster::ContainerId> pending_;
  // Group-waterfall staging: the current sibling run and its per-container
  // results (capacity retained across ticks, like pending_).
  std::vector<cluster::ContainerId> group_run_;
  std::vector<cluster::MachineId> group_out_;
};

}  // namespace aladdin::core
