#include "k8s/resolver.h"

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/analysis.h"
#include "common/check.h"
#include "common/log.h"
#include "common/timer.h"
#include "core/task_scheduler.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace aladdin::k8s {

namespace {

// Per-resolve accumulator behind ResolveStats::unschedulable_causes.
struct CauseCounts {
  std::array<std::size_t, static_cast<std::size_t>(obs::Cause::kCount)>
      counts{};

  void Add(obs::Cause cause) { ++counts[static_cast<std::size_t>(cause)]; }

  void FillStats(ResolveStats& stats) const {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] > 0) {
        stats.unschedulable_causes.emplace_back(static_cast<obs::Cause>(i),
                                                counts[i]);
      }
    }
  }
};

// Why the task-based scheduler could not place a short-lived container:
// best-fit carries no constraint machinery, so the answer is a pure
// resource question against the live state. O(machines), paid only per
// *failed* short-lived placement.
obs::Cause DiagnoseShortLived(const cluster::ClusterState& state,
                              cluster::ContainerId c) {
  const cluster::ResourceVector& request =
      state.containers()[static_cast<std::size_t>(c.value())].request;
  bool cpu_feasible = false;
  for (const auto& machine : state.topology().machines()) {
    const cluster::ResourceVector& free = state.Free(machine.id);
    if (free.cpu_millis() < request.cpu_millis()) continue;
    cpu_feasible = true;
    // A full fit would contradict the failed placement (state raced);
    // fall back to the catch-all rather than fabricate a cause.
    if (request.FitsIn(free)) return obs::Cause::kNoAdmissiblePath;
  }
  return cpu_feasible ? obs::Cause::kCapacityExhaustedMem
                      : obs::Cause::kCapacityExhaustedCpu;
}

// Deterministic solve effort of one outcome — the watchdog's regression
// signal. Bit-identical across thread counts (the equivalence tests pin
// the individual counters); wall time never feeds it.
std::int64_t SolveEffort(const sim::ScheduleOutcome& outcome) {
  return outcome.explored_paths + outcome.rounds + outcome.il_prunes +
         outcome.dl_stops;
}

// Resolve() epilogue: stamp the wall time, surface the unschedulable
// breakdown, and feed the per-resolve metrics.
void FinishStats(ResolveStats& stats, const WallTimer& timer) {
  stats.wall_seconds = timer.ElapsedSeconds();
  if (stats.unschedulable > 0) {
    // analyze:allow(A102) breakdown string built only when pods went unplaced
    std::string breakdown;
    for (const auto& [cause, n] : stats.unschedulable_causes) {
      if (!breakdown.empty()) breakdown += ' ';
      breakdown += obs::CauseName(cause);
      breakdown += '=';
      breakdown += std::to_string(n);
    }
    LOG_INFO << "tick " << stats.tick << ": " << stats.unschedulable
             << " unschedulable pod(s) [" << breakdown << "]";
  }
  if (!obs::MetricsEnabled()) return;
  ALADDIN_METRIC_ADD("k8s/resolves", 1);
  ALADDIN_METRIC_ADD("k8s/bindings", stats.new_bindings);
  ALADDIN_METRIC_ADD("k8s/migrations", stats.migrations);
  ALADDIN_METRIC_ADD("k8s/preemptions", stats.preemptions);
  ALADDIN_METRIC_ADD("k8s/unschedulable", stats.unschedulable);
  ALADDIN_METRIC_OBSERVE("k8s/resolve_ms", "ms", stats.wall_seconds * 1e3);
}

// Row caps for the lifecycle epilogue: per-app SLO rows kept in
// ResolveStats / the introspection snapshot, and the /statusz
// oldest-pending table depth.
constexpr std::size_t kSloSnapshotAppRows = 32;
constexpr std::size_t kOldestPendingRows = 10;

}  // namespace

Resolver::Resolver(ModelAdaptor& adaptor, ResolverOptions options)
    : adaptor_(adaptor),
      options_(options),
      scheduler_(options.aladdin),
      slo_(options.slo),
      watchdog_(options.watchdog_options) {
  if (options_.shards >= 2) {
    core::ShardedOptions config;
    config.shards = options_.shards;
    config.routing = options_.routing;
    config.aladdin = options_.aladdin;
    sharded_ = std::make_unique<core::ShardedScheduler>(config);
  }
}

void Resolver::RebuildState(std::int64_t tick) {
  const trace::Workload& workload = adaptor_.workload();
  const cluster::Topology& topology = adaptor_.topology();
  state_.emplace(workload.MakeState(topology));
  built_topology_version_ = adaptor_.topology_version();
  // The rebuild supersedes the retirement journal for state sync, but the
  // lifecycle ledger still needs the spans closed.
  for (cluster::ContainerId c : adaptor_.TakeRetiredContainers()) {
    ledger_.OnRetired(c.value(), tick);
  }

  // Pre-deploy bound pods into the fresh state, those bound by events
  // included.
  (void)adaptor_.TakeEventBindings();
  for (PodUid uid : adaptor_.BoundPods()) AdoptBinding(uid, tick);

  // The change journal starts *after* pre-deployment: it should only carry
  // this-tick scheduling decisions.
  state_->EnableChangeJournal();
}

void Resolver::SyncState(std::int64_t tick) {
  state_->SyncWorkloadGrowth();
  // Deleted (or externally unbound) pods leave tombstoned containers; evict
  // their placements so the space frees up — via the state directly, so the
  // touch log carries the change to the long-lived solve's indices.
  for (cluster::ContainerId c : adaptor_.TakeRetiredContainers()) {
    if (state_->IsPlaced(c)) state_->Evict(c);
    ledger_.OnRetired(c.value(), tick);
    if (obs::JournalEnabled()) {
      obs::EmitDecision(obs::DecisionKind::kEvent, obs::Cause::kPodRetired,
                        c.value());
    }
  }
  // Pods an event bound or moved: after the evictions above, so a moved
  // pod's old node has its room back. Skips pods deleted or unbound since,
  // and repeats.
  for (PodUid uid : adaptor_.TakeEventBindings()) {
    const Pod* pod = adaptor_.FindPod(uid);
    if (pod == nullptr || pod->phase != PodPhase::kBound ||
        state_->IsPlaced(adaptor_.ContainerOf(uid))) {
      continue;
    }
    AdoptBinding(uid, tick);
  }
}

void Resolver::AdoptBinding(PodUid uid, std::int64_t tick) {
  const Pod* pod = adaptor_.FindPod(uid);
  const auto c = adaptor_.ContainerOf(uid);
  const auto m = adaptor_.MachineOf(pod->node);
  if (ledger_.HasOpenSpan(c.value())) ledger_.OnRetired(c.value(), tick);
  if (!c.valid() || !m.valid() || !state_->Fits(c, m)) {
    adaptor_.UnbindPod(uid);
    return;
  }
  state_->Deploy(c, m);
}

void Resolver::TrackArrivals(const std::vector<PodUid>& pending,
                             const cluster::ClusterState& state,
                             std::int64_t tick) {
  ALADDIN_PHASE_SCOPE("k8s/lifecycle");
  slo_.BeginTick(tick);
  for (PodUid uid : pending) {
    const cluster::ContainerId c = adaptor_.ContainerOf(uid);
    if (!c.valid() || ledger_.HasOpenSpan(c.value())) continue;
    const cluster::ApplicationId app =
        state.containers()[static_cast<std::size_t>(c.value())].app;
    slo_.RegisterApp(
        app.value(),
        state.applications()[static_cast<std::size_t>(app.value())].name);
    ledger_.OnArrival(c.value(), app.value(), tick);
  }
}

void Resolver::FinishLifecycle(ResolveStats& stats,
                               const cluster::ClusterState& state,
                               std::int64_t tick, std::int64_t solve_cost,
                               std::int64_t solve_wall_micros) {
  ALADDIN_PHASE_SCOPE("k8s/lifecycle");
  // Once-per-tick summary work over the open spans and the apps' SLO
  // counts, never over closed history or per-pod.
  stats.pending_ages =
      obs::SummarizePendingAges(ledger_.PendingAgeCounts(tick));
  stats.slo = slo_.Snapshot(kSloSnapshotAppRows);

  obs::IntrospectionStatus status;
  status.tick = tick;
  status.slo = stats.slo;
  status.pending_ages = stats.pending_ages;
  status.shards = stats.shards;

  if (options_.watchdog) {
    obs::WatchdogTickInput input;
    input.tick = tick;
    input.slo_good = slo_.tick_good();
    input.slo_bad = slo_.tick_bad();
    input.slo_budget_bp = slo_.budget_bp();
    input.pending_age_p99 = stats.pending_ages.p99;
    input.pending_open = static_cast<std::int64_t>(stats.pending_ages.open);
    input.app_reopens = ledger_.TakeReopens();
    input.shards = stats.shards;
    input.solve_cost = solve_cost;
    input.solve_wall_micros = solve_wall_micros;
    // analyze:allow(A103) once-per-tick input, bounded by the cause vocabulary
    input.giveup_causes.reserve(stats.unschedulable_causes.size());
    for (const auto& [cause, n] : stats.unschedulable_causes) {
      input.giveup_causes.emplace_back(cause, static_cast<std::int64_t>(n));
    }
    watchdog_.ObserveTick(input);
    status.watchdog = watchdog_.Snapshot();
  }
  status.oldest_pending = ledger_.OldestPending(tick, kOldestPendingRows);
  // analyze:allow(A103) once-per-tick, bounded by kOldestPendingRows
  status.oldest_pending_app.reserve(status.oldest_pending.size());
  for (const obs::PendingRow& row : status.oldest_pending) {
    const auto app = static_cast<std::size_t>(row.app);
    status.oldest_pending_app.push_back(
        row.app >= 0 && app < state.applications().size()
            ? state.applications()[app].name
            // analyze:allow(A102) once-per-tick, bounded by kOldestPendingRows
            : std::string{});
  }
  obs::PublishIntrospection(std::move(status));
}

ALADDIN_HOT ResolveStats Resolver::Resolve(std::int64_t tick,
                               std::vector<Binding>* bindings) {
  WallTimer timer;
  ResolveStats stats;
  stats.tick = tick;
  // Tick stamp for every journal record this resolve emits; with a JSONL
  // sink configured this also drains the previous tick's rings.
  if (obs::JournalEnabled()) obs::SetJournalTick(tick);
  CauseCounts causes;
  // This tick's deterministic long-lived solve effort (watchdog signal).
  std::int64_t solve_cost = 0;
  // Terminal cause per unplaced container, filled by the scheduling
  // sections and consumed by reconcile (which owns the unschedulable
  // count, so the breakdown always sums to it).
  // analyze:allow(A102) empty unless pods go unplaced; default ctor does not allocate
  std::unordered_map<std::int32_t, obs::Cause> unplaced_cause;
  const auto CauseOf = [&unplaced_cause](cluster::ContainerId c) {
    const auto it = unplaced_cause.find(c.value());
    return it != unplaced_cause.end() ? it->second
                                      : obs::Cause::kNoAdmissiblePath;
  };
  // Per-tick scratch: member buffers keep their capacity across resolves.
  std::vector<cluster::ContainerId>& long_lived = long_lived_;
  long_lived.clear();
  std::vector<cluster::ContainerId>& short_lived = short_lived_;
  short_lived.clear();
  std::vector<PodUid>& pending = pending_;
  {
    ALADDIN_PHASE_SCOPE("k8s/sync_state");
    (void)adaptor_.workload();  // syncs the workload snapshot
    if (!state_.has_value() ||
        adaptor_.topology_version() != built_topology_version_) {
      ALADDIN_TRACE_INSTANT("k8s/state_rebuild");
      RebuildState(tick);
    } else {
      SyncState(tick);
    }
    ALADDIN_DCHECK(state_->placed_count() == adaptor_.bound_count())
        << "persistent state out of sync with the pod store";

    // Split the pending set. A copy: reconcile's preemptions append to the
    // adaptor's pending list.
    const std::vector<PodUid>& listed = adaptor_.PendingPods();
    // analyze:allow(A103) pooled scratch, capacity retained across ticks
    pending.assign(listed.begin(), listed.end());
    stats.pending_before = pending.size();
    ALADDIN_TRACE_COUNTER("k8s/pending", pending.size());
    for (PodUid uid : pending) {
      const cluster::ContainerId c = adaptor_.ContainerOf(uid);
      if (adaptor_.FindPod(uid)->spec->short_lived()) {
        short_lived.push_back(c);
      } else {
        long_lived.push_back(c);
      }
    }
  }
  const trace::Workload& workload = adaptor_.workload();  // already synced
  cluster::ClusterState& state = *state_;
  TrackArrivals(pending, state, tick);
  const auto ShardOfMachine = [this](cluster::MachineId m) -> std::int32_t {
    const cluster::ShardPlan* plan =
        sharded_ != nullptr ? sharded_->plan() : nullptr;
    return plan != nullptr && plan->shard_count() > 1 ? plan->ShardOf(m) : -1;
  };

  // Long-lived pods: the Aladdin core. The persistent scheduler reuses its
  // aggregated network, replaying this state's touch log (our evictions
  // above included) instead of rebuilding it.
  if (!long_lived.empty()) {
    const int deadline = std::max(options_.batch_deadline_ticks, 1);
    if ((tick + 1) % deadline != 0) {
      // Batch deadline not elapsed: defer the whole long-lived set. No
      // solve runs; reconcile below counts them unschedulable under
      // kBatchDeferred and the lifecycle/SLO clocks keep aging them.
      for (cluster::ContainerId c : long_lived) {
        unplaced_cause[c.value()] = obs::Cause::kBatchDeferred;
      }
      if (obs::JournalEnabled()) {
        obs::EmitDecision(obs::DecisionKind::kEvent,
                          obs::Cause::kBatchDeferred, -1, -1, -1,
                          static_cast<std::int64_t>(long_lived.size()));
      }
    } else {
      const sim::ScheduleRequest request{&workload, &long_lived};
      const sim::ScheduleOutcome outcome =
          sharded_ != nullptr ? sharded_->Schedule(request, state)
                              : scheduler_.Schedule(request, state);
      if (sharded_ != nullptr) stats.shards = sharded_->last_shard_stats();
      solve_cost = SolveEffort(outcome);
      for (std::size_t i = 0; i < outcome.unplaced.size(); ++i) {
        unplaced_cause[outcome.unplaced[i].value()] = outcome.unplaced_causes[i];
      }
    }
  }

  // Short-lived pods: the traditional task-based scheduler (§IV.D), on a
  // free index rebuilt from the state: sorting every machine into fresh
  // buckets costs less than re-keying a tick of touches. Each maximal run
  // of consecutive pods with identical requests (length 1 included) goes
  // through the run placer — per-pod best fit without the per-pod rescan.
  // Failures within a run are a suffix and do not mutate state, so the
  // post-run per-pod journal/diagnosis below matches the serial interleave
  // exactly.
  if (!short_lived.empty()) {
    ALADDIN_PHASE_SCOPE("core/task");
    free_index_.Attach(state);
    const auto RequestOf =
        [&state](cluster::ContainerId c) -> const cluster::ResourceVector& {
      return state.containers()[static_cast<std::size_t>(c.value())].request;
    };
    std::size_t i = 0;
    while (i < short_lived.size()) {
      std::size_t j = i + 1;
      while (j < short_lived.size() &&
             RequestOf(short_lived[j]) == RequestOf(short_lived[i])) {
        ++j;
      }
      const auto run =
          std::span<const cluster::ContainerId>(short_lived).subspan(i, j - i);
      // analyze:allow(A103) pooled scratch, capacity retained across ticks
      task_out_.assign(run.size(), cluster::MachineId::Invalid());
      core::PlaceTaskRun(state, free_index_, run, task_out_);
      for (std::size_t k = 0; k < run.size(); ++k) {
        const cluster::ContainerId c = run[k];
        const cluster::MachineId m = task_out_[k];
        if (m.valid()) {
          if (obs::JournalEnabled()) {
            obs::EmitDecision(obs::DecisionKind::kPlace,
                              obs::Cause::kShortLivedBestFit, c.value(),
                              m.value());
          }
        } else {
          const obs::Cause cause = DiagnoseShortLived(state, c);
          unplaced_cause[c.value()] = cause;
          if (obs::JournalEnabled()) {
            obs::EmitDecision(obs::DecisionKind::kUnplaced, cause, c.value());
          }
        }
      }
      i = j;
    }
  }

  // Reconcile: pending pods first, then every other container the
  // schedulers touched — the change journal replaces the full bound-pod
  // scan, so reconciliation is O(pending + changes).
  {
    ALADDIN_PHASE_SCOPE("k8s/reconcile");
    // Binary search on the pending snapshot instead of an unordered_set:
    // PendingPods() lists uids ascending, and preemptions below append to
    // the adaptor's list, not to this copy.
    ALADDIN_DCHECK(std::is_sorted(pending.begin(), pending.end()));
    const auto WasPending = [&](PodUid uid) {
      return std::binary_search(pending.begin(), pending.end(), uid);
    };
    for (PodUid uid : pending) {
      const auto c = adaptor_.ContainerOf(uid);
      if (state.IsPlaced(c)) {
        const cluster::MachineId m = state.PlacementOf(c);
        const std::string& node = adaptor_.NodeOfMachine(m);
        adaptor_.BindPod(uid, node, tick);
        ++stats.new_bindings;
        if (bindings != nullptr) bindings->push_back(Binding{uid, node});
        const std::int64_t wait =
            ledger_.OnPlaced(c.value(), m.value(), ShardOfMachine(m), tick);
        if (wait >= 0) slo_.OnAdmitted(*ledger_.MutableSpan(c.value()), wait);
      } else {
        ++stats.unschedulable;
        const obs::Cause cause = CauseOf(c);
        causes.Add(cause);
        ledger_.OnAttempt(c.value(), cause, tick);
        if (obs::LifecycleSpan* span = ledger_.MutableSpan(c.value())) {
          slo_.ObservePending(*span, tick);
        }
      }
    }
    for (cluster::ContainerId c : state.TakeChangedContainers()) {
      const PodUid uid = adaptor_.PodOfContainer(c);
      if (uid < 0) continue;  // tombstone: pod already deleted
      const Pod* pod = adaptor_.FindPod(uid);
      if (pod == nullptr || WasPending(uid)) continue;
      // A pod bound before this tick whose placement the scheduler touched.
      if (!state.IsPlaced(c)) {
        // Preempted by a higher-weighted pending pod; back to the queue.
        adaptor_.UnbindPod(uid);
        ++stats.preemptions;
        ledger_.OnPreempted(c.value(), tick);
        continue;
      }
      const std::string& node = adaptor_.NodeOfMachine(state.PlacementOf(c));
      if (node != pod->node) {
        adaptor_.MovePod(uid, node, tick);
        ++stats.migrations;
        if (bindings != nullptr) bindings->push_back(Binding{uid, node});
      }
    }
  }

  causes.FillStats(stats);
  FinishLifecycle(stats, state, tick, solve_cost,
                  static_cast<std::int64_t>(timer.ElapsedSeconds() * 1e6));
  FinishStats(stats, timer);
  return stats;
}

}  // namespace aladdin::k8s
