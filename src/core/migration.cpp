#include "core/migration.h"

#include <algorithm>

#include "obs/journal.h"
#include "obs/trace.h"

namespace aladdin::core {

namespace {
template <typename T>
std::size_t Idx(T id) {
  return static_cast<std::size_t>(id.value());
}

// Repair budgets. Together they keep a repair within the paper's
// O(V·E²·c) cost bound (§IV.D).
// Repair attempts per container within one Repair() call.
constexpr int kMaxAttemptsPerContainer = 3;
// Machines examined (descending free CPU) per repair attempt.
constexpr int kCandidateMachines = 64;
// Victims displaced per repair.
constexpr std::size_t kMaxVictims = 4;
}  // namespace

RepairEngine::RepairEngine(AggregatedNetwork& network,
                           const PriorityWeights& weights, Scratch* scratch)
    : network_(network),
      weights_(weights),
      scratch_(scratch != nullptr ? *scratch : owned_scratch_) {}

int& RepairEngine::AttemptCount(cluster::ContainerId c) {
  const auto i = static_cast<std::size_t>(c.value());
  if (i >= scratch_.attempt_stamp.size()) {
    // analyze:allow(A103) high-water growth, amortised over the workload
    scratch_.attempt_stamp.resize(i + 1, 0);
    scratch_.attempt_count.resize(i + 1, 0);  // analyze:allow(A103) high-water growth
  }
  if (scratch_.attempt_stamp[i] != scratch_.attempt_epoch) {
    scratch_.attempt_stamp[i] = scratch_.attempt_epoch;
    scratch_.attempt_count[i] = 0;
  }
  return scratch_.attempt_count[i];
}

bool RepairEngine::RepairOnMachine(cluster::ContainerId c,
                                   cluster::MachineId m,
                                   const SearchOptions& search,
                                   SearchCounters& counters,
                                   std::vector<cluster::ContainerId>& requeue) {
  cluster::ClusterState& state = *network_.state();
  const cluster::Container& cont = state.containers()[Idx(c)];
  const std::int64_t c_flow = weights_.WeightedFlow(cont);

  // Blockers that must leave: anti-affinity conflicts with c's application.
  // All four buffers below are per-tick scratch (cleared here, capacity
  // retained across calls); `requeue` alone belongs to the caller.
  std::vector<cluster::ContainerId>& victims = scratch_.victims;
  victims.clear();
  for (cluster::ContainerId v : state.DeployedOn(m)) {
    const auto& vc = state.containers()[Idx(v)];
    if (state.constraints().Conflicts(cont.app, vc.app)) victims.push_back(v);
  }
  if (victims.size() > kMaxVictims) return false;

  // Filler victims to cover the resource deficit, cheapest weighted flow
  // first (those are the legal preemption targets if no alternative exists).
  cluster::ResourceVector available = state.Free(m);
  for (cluster::ContainerId v : victims) {
    available += state.containers()[Idx(v)].request;
  }
  if (!cont.request.FitsIn(available)) {
    std::vector<cluster::ContainerId>& fillers = scratch_.fillers;
    fillers.clear();
    for (cluster::ContainerId v : state.DeployedOn(m)) {
      if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
        fillers.push_back(v);
      }
    }
    std::sort(fillers.begin(), fillers.end(),
              [&](cluster::ContainerId a, cluster::ContainerId b) {
                return weights_.WeightedFlow(state.containers()[Idx(a)]) <
                       weights_.WeightedFlow(state.containers()[Idx(b)]);
              });
    for (cluster::ContainerId v : fillers) {
      if (cont.request.FitsIn(available)) break;
      if (victims.size() >= kMaxVictims) return false;
      victims.push_back(v);
      available += state.containers()[Idx(v)].request;
    }
    if (!cont.request.FitsIn(available)) return false;
  }

  // --- Transaction: evict victims, place c, relocate victims. -----------
  for (cluster::ContainerId v : victims) network_.Evict(v);

  auto rollback = [&](const std::vector<
                          std::pair<cluster::ContainerId, cluster::MachineId>>&
                          moved,
                      bool c_deployed) {
    for (const auto& [v, m2] : moved) {
      (void)m2;
      network_.Evict(v);
    }
    if (c_deployed) network_.Evict(c);
    for (cluster::ContainerId v : victims) network_.Deploy(v, m);
  };

  // Victims covered both the resource deficit and every conflicting tenant,
  // so this holds unless the capacity function changed under us.
  if (!state.CanPlace(c, m)) {
    rollback({}, false);
    return false;
  }
  network_.Deploy(c, m);

  // Relocate victims, highest weighted flow first (they get first pick of
  // alternative machines — migration must not degrade high-priority work).
  std::sort(victims.begin(), victims.end(),
            [&](cluster::ContainerId a, cluster::ContainerId b) {
              return weights_.WeightedFlow(state.containers()[Idx(a)]) >
                     weights_.WeightedFlow(state.containers()[Idx(b)]);
            });
  std::vector<std::pair<cluster::ContainerId, cluster::MachineId>>& moved =
      scratch_.moved;
  moved.clear();
  std::vector<cluster::ContainerId>& preempted = scratch_.preempted;
  preempted.clear();
  std::int64_t preempted_flow = 0;
  for (cluster::ContainerId v : victims) {
    const cluster::MachineId m2 =
        network_.FindMachine(v, search, counters, /*exclude=*/m);
    if (m2.valid()) {
      network_.Deploy(v, m2);  // migration, counted on commit
      moved.emplace_back(v, m2);
      continue;
    }
    const std::int64_t v_flow =
        weights_.WeightedFlow(state.containers()[Idx(v)]);
    // Priority safety (each victim strictly below c) AND Eq. 9
    // monotonicity: the transaction must not displace more weighted flow
    // than it admits, or the "repair" would shrink the objective the
    // network maximises.
    if (v_flow < c_flow && preempted_flow + v_flow < c_flow) {
      preempted.push_back(v);
      preempted_flow += v_flow;
      continue;
    }
    rollback(moved, /*c_deployed=*/true);
    return false;
  }

  state.RecordMigrations(static_cast<std::int64_t>(moved.size()));
  state.RecordPreemptions(static_cast<std::int64_t>(preempted.size()));
  ALADDIN_METRIC_ADD("core/migrations", moved.size());
  ALADDIN_METRIC_ADD("core/preemptions", preempted.size());
  if (obs::JournalEnabled()) {
    // Emitted only on commit, so rolled-back transactions leave no trace —
    // the journal records what happened, not what was attempted.
    obs::EmitDecision(obs::DecisionKind::kPlace,
                      obs::Cause::kAdmittedAfterRepair, c.value(), m.value());
    for (const auto& [v, m2] : moved) {
      obs::EmitDecision(obs::DecisionKind::kMigrate,
                        obs::Cause::kMigratedForRepair, v.value(), m2.value(),
                        /*other=*/m.value());
    }
    for (cluster::ContainerId v : preempted) {
      obs::EmitDecision(obs::DecisionKind::kPreempt,
                        obs::Cause::kPreemptedByPriority, v.value(), m.value(),
                        /*other=*/c.value());
    }
  }
  requeue.insert(requeue.end(), preempted.begin(), preempted.end());
  return true;
}

bool RepairEngine::TryPlace(cluster::ContainerId c,
                            const SearchOptions& search,
                            SearchCounters& counters,
                            std::vector<cluster::ContainerId>& requeue) {
  const cluster::MachineId direct =
      network_.FindMachine(c, search, counters);
  if (direct.valid()) {
    network_.Deploy(c, direct);
    if (obs::JournalEnabled()) {
      obs::EmitDecision(obs::DecisionKind::kPlace,
                        obs::Cause::kAdmittedAfterRepair, c.value(),
                        direct.value());
    }
    return true;
  }

  // Two-tier scan, emptiest machines first. Tier 1 spends the main budget
  // on machines whose conflicting tenants all have strictly lower weighted
  // flow than c — those blockers are preemptable as a last resort, so the
  // repair usually lands. Machines pinned by an equal-or-higher-weight
  // blocker are deferred to a smaller tier-2 budget: such a blocker can
  // still *migrate* (Fig. 3b — migration is priority-blind because nobody
  // loses a placement), but when it cannot, the attempt is expensive and
  // hopeless, so we bound how many of those we try.
  const cluster::ClusterState& state = *network_.state();
  const cluster::Container& cont = state.containers()[Idx(c)];
  const std::int64_t c_flow = weights_.WeightedFlow(cont);
  auto has_heavy_blocker = [&](cluster::MachineId m) {
    for (cluster::ContainerId v : state.DeployedOn(m)) {
      const auto& vc = state.containers()[Idx(v)];
      if (weights_.WeightedFlow(vc) >= c_flow &&
          state.constraints().Conflicts(cont.app, vc.app)) {
        return true;
      }
    }
    return false;
  };
  bool placed = false;
  int budget = kCandidateMachines;
  network_.ScanDescending(
      static_cast<int>(state.topology().machine_count()),
      [&](cluster::MachineId m) {
        if (budget <= 0) return true;
        if (has_heavy_blocker(m)) return false;  // tier 2 handles these
        --budget;
        placed = RepairOnMachine(c, m, search, counters, requeue);
        return placed;
      });
  if (placed) return true;
  int heavy_budget = std::max(4, kCandidateMachines / 4);
  network_.ScanDescending(
      static_cast<int>(state.topology().machine_count()),
      [&](cluster::MachineId m) {
        if (heavy_budget <= 0) return true;
        if (!has_heavy_blocker(m)) return false;  // tier 1 already tried
        --heavy_budget;
        placed = RepairOnMachine(c, m, search, counters, requeue);
        return placed;
      });
  return placed;
}

std::vector<cluster::ContainerId> RepairEngine::Repair(
    std::vector<cluster::ContainerId> pending, const SearchOptions& search,
    SearchCounters& counters) {
  cluster::ClusterState& state = *network_.state();
  // Highest weighted flow first (Eq. 9: those flows contribute most).
  std::sort(pending.begin(), pending.end(),
            [&](cluster::ContainerId a, cluster::ContainerId b) {
              const auto wa = weights_.WeightedFlow(state.containers()[Idx(a)]);
              const auto wb = weights_.WeightedFlow(state.containers()[Idx(b)]);
              if (wa != wb) return wa > wb;
              return a < b;
            });

  // FIFO over scratch: head cursor instead of deque pops (total pushes are
  // bounded, see Scratch::queue). The moved-in `pending` buffer is recycled
  // as the unplaced output, so a steady-state Repair() allocates nothing.
  std::vector<cluster::ContainerId>& queue = scratch_.queue;
  // analyze:allow(A103) pooled scratch, capacity retained across ticks
  queue.assign(pending.begin(), pending.end());
  std::size_t head = 0;
  pending.clear();  // reused below as the unplaced list
  if (++scratch_.attempt_epoch == 0) {  // u32 wrap: invalidate stale stamps
    std::fill(scratch_.attempt_stamp.begin(), scratch_.attempt_stamp.end(),
              0U);
    scratch_.attempt_epoch = 1;
  }
  while (head < queue.size()) {
    const cluster::ContainerId c = queue[head++];
    if (AttemptCount(c)++ >= kMaxAttemptsPerContainer) {
      if (obs::JournalEnabled()) {
        obs::EmitDecision(obs::DecisionKind::kReject,
                          obs::Cause::kRepairAttemptBudget, c.value(), -1, -1,
                          kMaxAttemptsPerContainer);
      }
      pending.push_back(c);
      continue;
    }
    scratch_.requeue.clear();
    if (TryPlace(c, search, counters, scratch_.requeue)) {
      // Preempted victims re-enter the queue; their weighted flow is
      // strictly below c's, so preemption chains terminate.
      for (cluster::ContainerId v : scratch_.requeue) queue.push_back(v);
    } else {
      pending.push_back(c);
    }
  }
  return pending;
}

int RepairEngine::Compact(const SearchOptions& search,
                          SearchCounters& counters, int max_passes,
                          std::int64_t migration_budget) {
  cluster::ClusterState& state = *network_.state();
  int freed_total = 0;
  for (int pass = 0; pass < max_passes; ++pass) {
    // Snapshot used machines, least-loaded first — cheapest to drain.
    std::vector<std::pair<std::int64_t, cluster::MachineId>>& used =
        scratch_.used;
    used.clear();
    for (const auto& machine : state.topology().machines()) {
      const auto tenants = state.DeployedOn(machine.id);
      if (tenants.empty()) continue;
      const std::int64_t used_cpu =
          machine.capacity.cpu_millis() - state.Free(machine.id).cpu_millis();
      used.emplace_back(used_cpu, machine.id);
    }
    std::sort(used.begin(), used.end());

    int freed_this_pass = 0;
    for (const auto& [used_cpu, m] : used) {
      (void)used_cpu;
      if (migration_budget <= 0) return freed_total;
      const auto tenants_span = state.DeployedOn(m);
      if (tenants_span.empty()) continue;  // drained by an earlier move
      if (tenants_span.size() > kMaxVictims * 2) {
        continue;  // too expensive to drain
      }
      if (static_cast<std::int64_t>(tenants_span.size()) > migration_budget) {
        continue;
      }
      std::vector<cluster::ContainerId>& tenants = scratch_.tenants;
      // analyze:allow(A103) pooled scratch, capacity retained across ticks
      tenants.assign(tenants_span.begin(), tenants_span.end());
      std::sort(tenants.begin(), tenants.end(),
                [&](cluster::ContainerId a, cluster::ContainerId b) {
                  return weights_.WeightedFlow(state.containers()[Idx(a)]) >
                         weights_.WeightedFlow(state.containers()[Idx(b)]);
                });
      std::vector<std::pair<cluster::ContainerId, cluster::MachineId>>&
          moved = scratch_.moved;
      moved.clear();
      bool ok = true;
      for (cluster::ContainerId v : tenants) {
        network_.Evict(v);
        const cluster::MachineId m2 =
            network_.FindMachine(v, search, counters, /*exclude=*/m);
        // Moving into an empty machine trades one used machine for another;
        // only accept destinations that are already in use.
        if (m2.valid() && !state.DeployedOn(m2).empty()) {
          network_.Deploy(v, m2);
          moved.emplace_back(v, m2);
        } else {
          ok = false;
          network_.Deploy(v, m);  // put the failed tenant back first
          break;
        }
      }
      if (!ok) {
        for (auto it = moved.rbegin(); it != moved.rend(); ++it) {
          network_.Evict(it->first);
          network_.Deploy(it->first, m);
        }
        continue;
      }
      state.RecordMigrations(static_cast<std::int64_t>(moved.size()));
      ALADDIN_METRIC_ADD("core/migrations", moved.size());
      if (obs::JournalEnabled()) {
        for (const auto& [v, m2] : moved) {
          obs::EmitDecision(obs::DecisionKind::kMigrate,
                            obs::Cause::kMigratedForRebalance, v.value(),
                            m2.value(), /*other=*/m.value());
        }
      }
      migration_budget -= static_cast<std::int64_t>(moved.size());
      ++freed_this_pass;
    }
    freed_total += freed_this_pass;
    if (freed_this_pass == 0) break;
  }
  return freed_total;
}

}  // namespace aladdin::core
