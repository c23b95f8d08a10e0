#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/audit.h"
#include "common/analysis.h"
#include "common/check.h"
#include "common/log.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace aladdin::core {

namespace {

// Repair passes per solve: passes iterate until one stops making progress
// or this budget is hit (§IV.D's cost bound).
constexpr int kMaxRepairPasses = 4;
// Compaction sweeps per solve (RepairEngine::Compact's `max_passes`).
constexpr int kCompactionPasses = 3;
// Ceiling on compaction migrations, as a fraction of total containers
// (keeps Fig. 13(b) in the paper's ~1.7 % regime).
constexpr double kCompactionMigrationFraction = 0.02;

#if ALADDIN_DCHECK_IS_ON()
// Post-solve cross-check (compiled out in Release): the placements Aladdin
// emitted must survive the independent auditor. Medea-style schedulers may
// knowingly violate anti-affinity, Aladdin never does — so any colocation
// violation not already present when Schedule() started is a scheduler bug,
// as is any bookkeeping drift in the ClusterState it mutated.
void CrossCheckOutcome(const cluster::ClusterState& state,
                       const sim::ScheduleOutcome& outcome,
                       std::span<const cluster::ContainerId> pre_existing) {
  std::string error;
  ALADDIN_CHECK(state.CheckConsistency(&error))
      << "post-solve cluster state corrupt: " << error;
  for (cluster::ContainerId c : outcome.unplaced) {
    ALADDIN_CHECK(!state.IsPlaced(c))
        << "container " << c << " reported unplaced but deployed on "
        << state.PlacementOf(c);
  }
  const std::vector<cluster::ContainerId> offenders =
      cluster::CollectColocationViolations(state);
  for (cluster::ContainerId c : offenders) {
    ALADDIN_CHECK(std::find(pre_existing.begin(), pre_existing.end(), c) !=
                  pre_existing.end())
        << "scheduler-caused colocation violation: container " << c << " on "
        << state.PlacementOf(c);
  }
}
#endif

}  // namespace

AladdinScheduler::AladdinScheduler(AladdinOptions options)
    : options_(options) {
  // Geometric weights depend on the base alone.
  if (options_.weight_base > 0) {
    weights_ = MakeGeometricWeights(cluster::kPriorityClasses,
                                    options_.weight_base);
  }
}

AggregatedNetwork& AladdinScheduler::PrepareNetwork(
    cluster::ClusterState& state) {
  // Reuse requires the cached network to be attached to this very state
  // object: same address AND same instance id (stack/optional storage gets
  // recycled, so an address match alone could alias a dead state), with the
  // bound topology unchanged in size.
  const bool reusable = network_ != nullptr && network_->state() == &state &&
                        attached_state_id_ == state.instance_id();
  if (reusable) {
    network_->Sync();
    return *network_;
  }
  // analyze:allow(A101) attach arm: runs only for a new state (instance id)
  network_ = std::make_unique<AggregatedNetwork>(state.topology());
  network_->Attach(&state);
  attached_state_id_ = state.instance_id();
  return *network_;
}

std::string AladdinScheduler::name() const {
  std::string n = "Aladdin";
  if (options_.weight_base > 0) {
    n += "(" + std::to_string(options_.weight_base) + ")";
  }
  if (options_.enable_il) n += "+IL";
  if (options_.enable_dl) n += "+DL";
  return n;
}

void AladdinScheduler::PrepareWeights(const trace::Workload& workload) {
  // Eq. 3–5: priority weights. The evaluation's knob is a geometric base;
  // base 0 derives the minimal valid weights from the workload itself.
  ALADDIN_PHASE_SCOPE("core/weights");
  if (options_.weight_base <= 0) weights_ = ComputeMinimalWeights(workload);
  if (!SatisfiesEq5(weights_, workload)) {
    LOG_WARN << name() << ": weights violate Eq. 5 for this workload; "
             << "priority safety of preemption is not guaranteed";
  }
}

ALADDIN_HOT sim::ScheduleOutcome AladdinScheduler::Schedule(
    const sim::ScheduleRequest& request, cluster::ClusterState& state) {
  const trace::Workload& workload = *request.workload;
  sim::ScheduleOutcome outcome;
  // Weights and one Sync() of the warm network; the solve below folds its
  // own mutations in eagerly.
  PrepareWeights(workload);
  AggregatedNetwork& network = PrepareNetwork(state);

#if ALADDIN_DCHECK_IS_ON()
  // Violations already present on entry (online mode re-schedules into a
  // populated cluster) are not ours to answer for. The full-cluster audit
  // scans are debug-build work, but they still get their own exclusive
  // phase so the tick-coverage sum stays honest in DCHECK builds.
  // analyze:allow(A102) DCHECK-build audit snapshot, compiled out of release
  const std::vector<cluster::ContainerId> pre_existing_violations = [&] {
    ALADDIN_PHASE_SCOPE("core/verify");
    return cluster::CollectColocationViolations(state);
  }();
#endif

  const SearchOptions search{options_.enable_il, options_.enable_dl};
  SearchCounters counters;

  // --- Phase 1: flow augmentation in weighted-flow order. ----------------
  // Eq. 9 maximises Σ w_k·f(i,j): the solver augments the largest weighted
  // flows first, regardless of submission order. The sort is stable over
  // the arrival sequence, so the submission order still decides ties —
  // which is why the four arrival characteristics of §V.C produce identical
  // placements-per-machine-count but different migration/overhead costs
  // (Fig. 13): adversarial tie orders (CSA) leave more repair work.
  ALADDIN_TRACE_COUNTER("core/containers", request.arrival->size());
  std::vector<cluster::ContainerId>& pending = pending_;
  pending.clear();
  {
    ALADDIN_PHASE_SCOPE("core/augment");
    // Sort (weighted flow, arrival position) keys instead of stable-sorting
    // the id list: std::sort on the explicit tie-break reproduces the
    // stable order exactly, computes each container's weighted flow once
    // instead of O(n log n) times in a comparator, and — unlike
    // std::stable_sort — needs no temporary merge buffer. The key list is a
    // member buffer whose capacity persists across ticks.
    std::vector<SortKey>& keyed = sort_keys_;
    keyed.clear();
    for (std::size_t i = 0; i < request.arrival->size(); ++i) {
      const cluster::ContainerId c = (*request.arrival)[i];
      const auto& cont =
          workload.containers()[static_cast<std::size_t>(c.value())];
      keyed.push_back(SortKey{weights_.WeightedFlow(cont),
                              static_cast<std::int32_t>(i)});
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const SortKey& a, const SortKey& b) {
                if (a.weighted_flow != b.weighted_flow) {
                  return a.weighted_flow > b.weighted_flow;
                }
                return a.arrival_pos < b.arrival_pos;
              });

    // Group-decomposed augmentation: an application's containers are
    // isomorphic (identical requests), so siblings share one weighted flow
    // and — the sort being stable over their consecutive submission — sit
    // contiguous in `keyed`. Under DL each maximal same-app stretch of
    // length >= 2 goes through one sorted-capacity waterfall
    // (PlaceGroupRun) instead of per-container best-fit walks; the
    // waterfall replays the serial walks exactly, so everything downstream
    // (journal order included) is bit-identical. Without DL the search is a
    // full enumeration, which the waterfall does not model.
    const bool use_groups = options_.enable_dl;
    std::size_t i = 0;
    while (i < keyed.size()) {
      const cluster::ContainerId c =
          (*request.arrival)[static_cast<std::size_t>(keyed[i].arrival_pos)];
      const auto& cont =
          workload.containers()[static_cast<std::size_t>(c.value())];
      std::size_t j = i + 1;
      if (use_groups && cont.request.cpu_millis() > 0) {
        while (j < keyed.size()) {
          const cluster::ContainerId d =
              (*request
                    .arrival)[static_cast<std::size_t>(keyed[j].arrival_pos)];
          if (workload.containers()[static_cast<std::size_t>(d.value())]
                  .app != cont.app) {
            break;
          }
          ++j;
        }
      }
      if (j - i >= 2) {
        group_run_.clear();
        for (std::size_t k = i; k < j; ++k) {
          group_run_.push_back(
              (*request
                    .arrival)[static_cast<std::size_t>(keyed[k].arrival_pos)]);
        }
        // analyze:allow(A103) pooled scratch, capacity retained across ticks
        group_out_.assign(group_run_.size(), cluster::MachineId::Invalid());
        network.PlaceGroupRun(group_run_, search, counters, group_out_);
        // Deploys already happened inside the run (in sibling order);
        // failures form a suffix during which nothing mutated, so emitting
        // the per-sibling records here reproduces the serial interleave —
        // and the post-flush diagnosis equals the serial mid-stream one.
        for (std::size_t k = 0; k < group_run_.size(); ++k) {
          const cluster::ContainerId cc = group_run_[k];
          const cluster::MachineId m = group_out_[k];
          if (m.valid()) {
            if (obs::JournalEnabled()) {
              obs::EmitDecision(obs::DecisionKind::kPlace,
                                obs::Cause::kAdmittedDirect, cc.value(),
                                m.value());
            }
          } else {
            pending.push_back(cc);
            if (obs::JournalEnabled()) {
              obs::EmitDecision(obs::DecisionKind::kReject,
                                network.DiagnoseFailure(cc), cc.value());
            }
          }
        }
        i = j;
        continue;
      }
      const cluster::MachineId m = network.FindMachine(c, search, counters);
      if (m.valid()) {
        network.Deploy(c, m);
        if (obs::JournalEnabled()) {
          obs::EmitDecision(obs::DecisionKind::kPlace,
                            obs::Cause::kAdmittedDirect, c.value(), m.value());
        }
      } else {
        pending.push_back(c);
        if (obs::JournalEnabled()) {
          // Non-terminal: repair may still admit it. The diagnosis explains
          // what blocked the augmentation pass.
          obs::EmitDecision(obs::DecisionKind::kReject,
                            network.DiagnoseFailure(c), c.value());
        }
      }
      ++i;
    }
  }
  outcome.rounds = 1;

  // --- Phase 2: migration / preemption repair, to a fixpoint. ------------
  // Augmenting the network keeps going "until f(i,j) = 0": each repair pass
  // migrates blockers around, which can open paths for containers an
  // earlier pass gave up on, so we iterate until a pass makes no progress.
  RepairEngine repair(network, weights_, &repair_scratch_);
  if (options_.enable_repair) {
    ALADDIN_PHASE_SCOPE("core/repair");
    for (int pass = 0; pass < kMaxRepairPasses && !pending.empty(); ++pass) {
      const std::size_t before = pending.size();
      pending = repair.Repair(std::move(pending), search, counters);
      ++outcome.rounds;
      if (pending.size() >= before) break;  // no progress
    }
  }

  // --- Phase 3: packing compaction. --------------------------------------
  if (options_.enable_compaction) {
    ALADDIN_PHASE_SCOPE("core/compact");
    const auto budget = static_cast<std::int64_t>(
        std::llround(kCompactionMigrationFraction *
                     static_cast<double>(workload.container_count())));
    repair.Compact(search, counters, kCompactionPasses, budget);
    ++outcome.rounds;
    // Compaction may have opened admissible machines for stragglers.
    if (options_.enable_repair && !pending.empty()) {
      pending = repair.Repair(std::move(pending), search, counters);
    }
  }

  // Copy (not move): the outcome's vector escapes the tick, the scratch
  // buffer's capacity stays pooled for the next one.
  // analyze:allow(A103) per-tick output that escapes the solve
  outcome.unplaced.assign(pending.begin(), pending.end());
  // Terminal diagnosis, always on: cost is O(feasible machines) *per
  // unplaced container*, zero on the perf-gated configs where everything
  // places. Consumers (resolver stats, bench cause tables) need the causes
  // even when the journal itself is off.
  // analyze:allow(A103) per-tick output that escapes the solve
  outcome.unplaced_causes.reserve(outcome.unplaced.size());
  for (cluster::ContainerId c : outcome.unplaced) {
    const obs::Cause cause = network.DiagnoseFailure(c);
    outcome.unplaced_causes.push_back(cause);
    if (obs::JournalEnabled()) {
      obs::EmitDecision(obs::DecisionKind::kUnplaced, cause, c.value());
    }
  }
  if (obs::JournalEnabled()) {
    // Search-effort summaries: per-Schedule aggregates, not per-probe
    // records — the hot search loops never emit.
    if (counters.dl_stops > 0) {
      obs::EmitDecision(obs::DecisionKind::kEvent, obs::Cause::kDepthLimitStop,
                        -1, -1, -1, counters.dl_stops);
    }
    if (counters.il_prunes > 0) {
      obs::EmitDecision(obs::DecisionKind::kEvent,
                        obs::Cause::kIsomorphismPrune, -1, -1, -1,
                        counters.il_prunes);
    }
  }
  outcome.explored_paths = counters.explored_paths;
  outcome.il_prunes = counters.il_prunes;
  outcome.dl_stops = counters.dl_stops;
  if (obs::MetricsEnabled()) {
    // Search counters are deterministic, so bulk-adding them keeps the
    // registry bit-identical across --threads and shard pools.
    ALADDIN_METRIC_ADD("core/search_explored", counters.explored_paths);
    ALADDIN_METRIC_ADD("core/search_il_prunes", counters.il_prunes);
    ALADDIN_METRIC_ADD("core/search_dl_stops", counters.dl_stops);
    ALADDIN_METRIC_ADD("core/unplaced", outcome.unplaced.size());
  }
#if ALADDIN_DCHECK_IS_ON()
  {
    ALADDIN_PHASE_SCOPE("core/verify");
    CrossCheckOutcome(state, outcome, pre_existing_violations);
  }
#endif
  return outcome;
}

}  // namespace aladdin::core
