#include "core/sharded.h"

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace aladdin::core {

namespace {

// FNV-1a over the application *name*: stable across processes and restarts
// (never hash addresses or construction-order-dependent ids — routing must
// be reproducible from the workload alone).
std::uint64_t Fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
std::size_t Idx(T id) {
  return static_cast<std::size_t>(id.value());
}

// Spill rounds after the primary solve: containers a shard failed to admit
// are re-routed to untried shards at most this many times.
constexpr int kSpillRounds = 2;

}  // namespace

const char* ShardRoutingName(ShardRouting routing) {
  switch (routing) {
    case ShardRouting::kHash:
      return "hash";
    case ShardRouting::kLeastUtilized:
      return "least-utilized";
    case ShardRouting::kCount:
      break;
  }
  return "?";
}

ShardRouting ShardRoutingFromName(const std::string& name) {
  for (int i = 0; i < static_cast<int>(ShardRouting::kCount); ++i) {
    const auto routing = static_cast<ShardRouting>(i);
    if (name == ShardRoutingName(routing)) return routing;
  }
  return ShardRouting::kCount;
}

ShardedScheduler::ShardedScheduler(ShardedOptions options)
    : options_(std::move(options)) {
  if (options_.shards < 1) options_.shards = 1;
}

ShardedScheduler::~ShardedScheduler() = default;

std::string ShardedScheduler::name() const {
  return "Aladdin-sharded(" + std::to_string(options_.shards) + "x" +
         ShardRoutingName(options_.routing) + ")";
}

void ShardedScheduler::AttachShards(cluster::ClusterState& state) {
  plan_ = std::make_unique<cluster::ShardPlan>(
      cluster::ShardPlan::Build(state.topology(), options_.shards));
  const int k = plan_->shard_count();
  state.EnableTouchLog();
  shards_.clear();
  shards_.resize(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    ShardRuntime& rt = shards_[static_cast<std::size_t>(s)];
    BuildView(s, state);
    for (const cluster::MachineId m : plan_->shard_machines(s)) {
      rt.capacity_cpu += state.topology().machine(m).capacity.cpu_millis();
    }
    rt.solver = std::make_unique<AladdinScheduler>(options_.aladdin);
    if (k > 1) {
      // Interned once per attach; the K = 1 run registers nothing so its
      // exported counter set stays identical to the unsharded scheduler's.
      const std::string prefix = "core/shard" + std::to_string(s);
      obs::Registry& registry = obs::Registry::Get();
      rt.routed_counter = &registry.GetCounter(prefix + "/routed");
      rt.placed_counter = &registry.GetCounter(prefix + "/placed");
      rt.solve_phase = &registry.GetPhase(prefix + "/solve");
    }
  }
  log_cursor_ = state.TouchLogEnd();
  attached_state_id_ = state.instance_id();
  // The new plan may partition differently: route every application afresh.
  for (AppRoute& route : app_route_) route.home = -1;
}

void ShardedScheduler::BuildView(int s, const cluster::ClusterState& state) {
  ShardRuntime& rt = shards_[static_cast<std::size_t>(s)];
  // analyze:allow(A101) rebuild arm: attach, or a touch-log overflow
  rt.view = std::make_unique<cluster::ShardView>(*plan_, s, state);
  // After the constructor's deploys, so the journal starts empty: mirror
  // churn is input, not scheduler output, and must never reach the merge
  // diff.
  rt.view->state().EnableChangeJournal();
  rt.migrations_mark = 0;
  rt.preemptions_mark = 0;
}

void ShardedScheduler::SyncShards(cluster::ClusterState& state) {
  bool overflowed = false;
  const std::span<const cluster::Touch> touches =
      state.TouchesSince(log_cursor_, &overflowed);
  if (overflowed) {
    // The global state moved by more than its live set since the last
    // call: rebuilding every mirror is cheaper than replaying.
    for (int s = 0; s < plan_->shard_count(); ++s) BuildView(s, state);
  } else {
    for (ShardRuntime& rt : shards_) rt.view->state().SyncWorkloadGrowth();
    for (const cluster::Touch& touch : touches) {
      shards_[static_cast<std::size_t>(plan_->ShardOf(touch.machine))]
          .view->Replay(touch);
    }
    // Drop the replay churn: the change journals carry solver output only.
    for (ShardRuntime& rt : shards_) {
      (void)rt.view->state().TakeChangedContainers();
    }
  }
  log_cursor_ = state.TouchLogEnd();
}

std::size_t ShardedScheduler::EligibleMachines(
    int s, cluster::ContainerId container) const {
  const cluster::ClusterState& st =
      shards_[static_cast<std::size_t>(s)].view->state();
  const std::size_t machines = st.topology().machine_count();
  std::size_t eligible = 0;
  for (std::size_t m = 0; m < machines; ++m) {
    if (!st.Blacklisted(container,
                        cluster::MachineId(static_cast<std::int32_t>(m)))) {
      ++eligible;
    }
  }
  return eligible;
}

bool ShardedScheduler::HasEligibleMachine(int s,
                                          cluster::ContainerId container) const {
  const cluster::ClusterState& st =
      shards_[static_cast<std::size_t>(s)].view->state();
  const std::size_t machines = st.topology().machine_count();
  for (std::size_t m = 0; m < machines; ++m) {
    if (!st.Blacklisted(container,
                        cluster::MachineId(static_cast<std::int32_t>(m)))) {
      return true;
    }
  }
  return false;
}

void ShardedScheduler::RouteRound(const cluster::ClusterState& state,
                                  const std::vector<Pending>& pending,
                                  int round, std::vector<Pending>& given_up) {
  const int k = plan_->shard_count();
  const std::vector<cluster::Container>& containers = state.containers();
  const std::vector<cluster::Application>& applications = state.applications();
  const cluster::ConstraintSet& constraints = state.constraints();

  if (app_route_.size() < applications.size()) {
    // analyze:allow(A103) high-water growth with the application list
    app_route_.resize(applications.size());
  }

  // Group by application, preserving first-arrival order of the apps.
  round_apps_.clear();
  for (const Pending& p : pending) {
    const cluster::ApplicationId app = containers[Idx(p.container)].app;
    std::int32_t slot = app_route_[Idx(app)].slot;
    if (slot < 0) {
      slot = static_cast<std::int32_t>(round_apps_.size());
      app_route_[Idx(app)].slot = slot;
      RoundApp ra;
      ra.app = app;
      ra.probe = p.container;
      ra.constrained = constraints.HasWithinAntiAffinity(app) ||
                       !constraints.ConflictsOf(app).empty();
      round_apps_.push_back(ra);
    }
    ++round_apps_[static_cast<std::size_t>(slot)].count;
  }

  // Per-shard free CPU, reservation-adjusted as groups are assigned so one
  // big tick spreads instead of dog-piling the momentarily-emptiest shard.
  for (ShardRuntime& rt : shards_) {
    rt.free_cpu = rt.view->state().free_cpu_millis();
  }

  const auto argmax_free_cpu = [&](std::uint64_t tried) {
    int best = -1;
    std::int64_t best_free = 0;
    for (int s = 0; s < k; ++s) {
      if (s < 64 && ((tried >> s) & 1U) != 0) continue;
      const std::int64_t free = shards_[static_cast<std::size_t>(s)].free_cpu;
      if (best < 0 || free > best_free) {
        best = s;
        best_free = free;
      }
    }
    return best;
  };
  const auto argmax_eligible = [&](cluster::ContainerId probe,
                                   std::uint64_t tried) {
    int best = -1;
    std::size_t best_count = 0;
    for (int s = 0; s < k; ++s) {
      if (s < 64 && ((tried >> s) & 1U) != 0) continue;
      const std::size_t eligible = EligibleMachines(s, probe);
      if (best < 0 || eligible > best_count) {
        best = s;
        best_count = eligible;
      }
    }
    return best;
  };

  for (RoundApp& ra : round_apps_) {
    tick_touched_.push_back(ra.app);
    AppRoute& route = app_route_[Idx(ra.app)];
    const std::uint64_t tried = route.tried;
    int target = -1;
    if (round == 0) {
      const std::int32_t home = route.home;
      if (home >= 0 && home < k) {
        target = home;
      } else {
        switch (options_.routing) {
          case ShardRouting::kHash:
            target = static_cast<int>(
                Fnv1a(applications[Idx(ra.app)].name) %
                static_cast<std::uint64_t>(k));
            break;
          case ShardRouting::kLeastUtilized:
            target = argmax_free_cpu(0);
            break;
          case ShardRouting::kCount:
            target = 0;
            break;
        }
      }
      // Blacklist-exchange veto, any policy: a shard reporting zero
      // eligible machines for this app cannot place a single container —
      // reroute to the shard with the most eligible machines instead of
      // burning a solve on a dead shard. (If every shard reports zero, the
      // chosen solver runs anyway and diagnoses the anti-affinity cause.)
      if (ra.constrained && k > 1 && target >= 0 &&
          !HasEligibleMachine(target, ra.probe)) {
        target = argmax_eligible(ra.probe, 0);
      }
    } else {
      // Spill: best shard this app has not tried this tick.
      target = ra.constrained ? argmax_eligible(ra.probe, tried)
                              : argmax_free_cpu(tried);
    }
    ra.target = target;
    if (target < 0) continue;  // no shard left to try
    if (target < 64) route.tried |= (1ULL << target);
    if (round == 0 && route.home < 0) {
      route.home = static_cast<std::int32_t>(target);
    }
    ShardRuntime& rt = shards_[static_cast<std::size_t>(target)];
    rt.free_cpu -= applications[Idx(ra.app)].request.cpu_millis() *
                   static_cast<std::int64_t>(ra.count);
    rt.stats.routed += ra.count;
    if (round > 0) rt.stats.spilled += ra.count;
    if (rt.routed_counter != nullptr) {
      rt.routed_counter->Add(static_cast<std::int64_t>(ra.count));
    }
  }

  // Second pass: append containers in their original arrival order, so each
  // shard's queue preserves relative submission order (and the K = 1 queue
  // is exactly the unsharded one). Runs serial on the coordinator, so the
  // routed/spilled hop events below take global journal sequence numbers in
  // arrival order — gated on K > 1 to keep the K = 1 stream byte-identical
  // to the unsharded scheduler's.
  const bool journal_hops = plan_->shard_count() > 1 && obs::JournalEnabled();
  for (const Pending& p : pending) {
    const cluster::ApplicationId app = containers[Idx(p.container)].app;
    const RoundApp& ra =
        round_apps_[static_cast<std::size_t>(app_route_[Idx(app)].slot)];
    if (ra.target < 0) {
      given_up.push_back(p);
    } else {
      shards_[static_cast<std::size_t>(ra.target)].round_arrivals.push_back(
          p.container);
      if (journal_hops) {
        obs::EmitDecision(obs::DecisionKind::kEvent,
                          round == 0 ? obs::Cause::kShardRouted
                                     : obs::Cause::kShardSpilled,
                          p.container.value(), /*machine=*/-1,
                          /*other=*/ra.target, /*detail=*/round);
      }
    }
  }
  for (const RoundApp& ra : round_apps_) app_route_[Idx(ra.app)].slot = -1;
}

ThreadPool* ShardedScheduler::SolvePool() {
  const int threads = options_.aladdin.threads;
  if (threads == 1 || plan_->shard_count() <= 1) return nullptr;
  if (!pool_created_) {
    pool_created_ = true;
    pool_ = std::make_unique<ThreadPool>(
        threads == 0 ? 0 : static_cast<std::size_t>(threads));
  }
  return pool_.get();
}

void ShardedScheduler::SolveAndMerge(const sim::ScheduleRequest& request,
                                     cluster::ClusterState& state,
                                     sim::ScheduleOutcome& outcome,
                                     std::vector<Pending>& pending) {
  const int k = plan_->shard_count();
  pending.clear();

  const auto solve_shard = [&](std::size_t s) {
    ShardRuntime& rt = shards_[s];
    if (rt.round_arrivals.empty()) return;
    // Park journal emissions per shard: no global sequence numbers are
    // assigned on worker threads; the merge below replays every buffer in
    // fixed shard order from this (serial) coordinator thread.
    obs::ScopedDecisionCapture capture(
        &rt.journal, k > 1 ? static_cast<std::int32_t>(s) : -1);
    WallTimer timer;
    sim::ScheduleRequest shard_request;
    shard_request.workload = request.workload;
    shard_request.arrival = &rt.round_arrivals;
    rt.outcome = rt.solver->Schedule(shard_request, rt.view->state());
    const double seconds = timer.ElapsedSeconds();
    rt.stats.solve_seconds += seconds;
    if (rt.solve_phase != nullptr && obs::MetricsEnabled()) {
      rt.solve_phase->RecordUnchecked(
          static_cast<std::int64_t>(seconds * 1e9));
    }
  };

  {
    ALADDIN_TRACE_SCOPE("core/shard_solve");
    ThreadPool* pool = SolvePool();
    if (pool == nullptr) {
      SerialFor(0, static_cast<std::size_t>(k), solve_shard);
    } else {
      ParallelFor(*pool, 0, static_cast<std::size_t>(k), solve_shard);
    }
  }

  ALADDIN_TRACE_SCOPE("core/shard_merge");
  for (int s = 0; s < k; ++s) {
    ShardRuntime& rt = shards_[static_cast<std::size_t>(s)];
    if (rt.round_arrivals.empty()) continue;
    cluster::ShardView& view = *rt.view;
    cluster::ClusterState& shard_state = view.state();

    // Journal replay, machine ids translated local → global. `machine` is a
    // machine for every kind that sets it; `other` is a machine only for
    // migrations (it is the aggressor *container* for preemptions).
    if (!rt.journal.empty()) {
      for (obs::Decision& decision : rt.journal) {
        if (decision.machine >= 0) {
          decision.machine =
              view.ToGlobal(cluster::MachineId(decision.machine)).value();
        }
        if (decision.kind == obs::DecisionKind::kMigrate &&
            decision.other >= 0) {
          decision.other =
              view.ToGlobal(cluster::MachineId(decision.other)).value();
        }
      }
      obs::EmitCapturedDecisions(rt.journal);
      rt.journal.clear();
    }

    // Placement diff: the shard's change journal lists every container the
    // solver touched, in first-touch order; transferring exactly the net
    // placement delta keeps the global state byte-equivalent to having run
    // the solver on it directly. Evictions land first — a machine's
    // remaining residents are then a subset of its final residents, so
    // every Deploy fits no matter how the solver chained its migrations.
    merge_scratch_ = shard_state.TakeChangedContainers();
    for (const cluster::ContainerId c : merge_scratch_) {
      const cluster::MachineId local = shard_state.PlacementOf(c);
      const cluster::MachineId target =
          local.valid() ? view.ToGlobal(local) : cluster::MachineId::Invalid();
      const cluster::MachineId have = state.PlacementOf(c);
      if (have.valid() && have != target) state.Evict(c);
    }
    for (const cluster::ContainerId c : merge_scratch_) {
      const cluster::MachineId local = shard_state.PlacementOf(c);
      if (!local.valid()) continue;
      const cluster::MachineId target = view.ToGlobal(local);
      if (state.PlacementOf(c) != target) state.Deploy(c, target);
    }
    // The raw Evict/Deploy transfer above is uncounted; fold the shard
    // solver's own migration/preemption tallies instead.
    state.RecordMigrations(shard_state.migrations() - rt.migrations_mark);
    state.RecordPreemptions(shard_state.preemptions() - rt.preemptions_mark);
    rt.migrations_mark = shard_state.migrations();
    rt.preemptions_mark = shard_state.preemptions();

    outcome.explored_paths += rt.outcome.explored_paths;
    outcome.rounds += rt.outcome.rounds;
    outcome.il_prunes += rt.outcome.il_prunes;
    outcome.dl_stops += rt.outcome.dl_stops;

    const std::size_t placed =
        rt.round_arrivals.size() >= rt.outcome.unplaced.size()
            ? rt.round_arrivals.size() - rt.outcome.unplaced.size()
            : 0;
    rt.stats.placed += placed;
    if (rt.placed_counter != nullptr) {
      rt.placed_counter->Add(static_cast<std::int64_t>(placed));
    }
    for (std::size_t i = 0; i < rt.outcome.unplaced.size(); ++i) {
      pending.push_back(
          Pending{rt.outcome.unplaced[i],
                  i < rt.outcome.unplaced_causes.size()
                      ? rt.outcome.unplaced_causes[i]
                      : obs::Cause::kNoAdmissiblePath,
                  s});
    }

    rt.round_arrivals.clear();
  }
  // Nothing but the merges above wrote the global state since the last
  // sync, and the mirrors already hold what they wrote: skip it.
  log_cursor_ = state.TouchLogEnd();
}

sim::ScheduleOutcome ShardedScheduler::Schedule(
    const sim::ScheduleRequest& request, cluster::ClusterState& state) {
  sim::ScheduleOutcome outcome;

  {
    ALADDIN_TRACE_SCOPE("core/shard_sync");
    if (plan_ == nullptr || attached_state_id_ != state.instance_id()) {
      AttachShards(state);
    } else {
      SyncShards(state);
    }
  }

  const int k = plan_->shard_count();
  for (int s = 0; s < k; ++s) {
    ShardRuntime& rt = shards_[static_cast<std::size_t>(s)];
    rt.stats = obs::ShardLoad{};
    rt.stats.shard = s;
    rt.stats.machines = plan_->shard_machines(s).size();
  }

  pending_.clear();
  given_up_.clear();
  // analyze:allow(A103) pooled scratch, capacity retained across ticks
  pending_.reserve(request.arrival->size());
  for (const cluster::ContainerId c : *request.arrival) {
    pending_.push_back(Pending{c, obs::Cause::kNone, -1});
  }

  const int max_rounds = 1 + (k > 1 ? kSpillRounds : 0);
  for (int round = 0; round < max_rounds && !pending_.empty(); ++round) {
    {
      ALADDIN_TRACE_SCOPE("core/shard_route");
      RouteRound(state, pending_, round, given_up_);
    }
    SolveAndMerge(request, state, outcome, pending_);
    if (round > 0 && !round_apps_.empty()) {
      // Re-home applications whose spill fully landed: their next waves go
      // straight to the shard that actually had room. Every still-pending
      // container was routed this round, so its app is in round_apps_,
      // which also clears the flags.
      for (const Pending& p : pending_) {
        app_route_[Idx(state.containers()[Idx(p.container)].app)].failed =
            true;
      }
      for (const RoundApp& ra : round_apps_) {
        AppRoute& route = app_route_[Idx(ra.app)];
        if (ra.target >= 0 && !route.failed) {
          route.home = static_cast<std::int32_t>(ra.target);
        }
        route.failed = false;
      }
    }
  }
  for (const Pending& p : pending_) given_up_.push_back(p);
  pending_.clear();

  // analyze:allow(A103) per-tick output that escapes the solve
  outcome.unplaced.reserve(given_up_.size());
  // analyze:allow(A103) per-tick output that escapes the solve
  outcome.unplaced_causes.reserve(given_up_.size());
  for (const Pending& p : given_up_) {
    outcome.unplaced.push_back(p.container);
    outcome.unplaced_causes.push_back(
        p.cause == obs::Cause::kNone ? obs::Cause::kNoAdmissiblePath : p.cause);
    if (p.last_shard >= 0) {
      ++shards_[static_cast<std::size_t>(p.last_shard)].stats.unplaced;
    }
  }

  for (const cluster::ApplicationId app : tick_touched_) {
    app_route_[Idx(app)].tried = 0;
  }
  tick_touched_.clear();

  // End-of-tick cpu occupancy per shard (exact integers, from the merged
  // shard views) — the imbalance-detector input.
  for (ShardRuntime& rt : shards_) {
    rt.stats.free_cpu_millis = rt.view->state().free_cpu_millis();
    rt.stats.capacity_cpu_millis = rt.capacity_cpu;
  }

  last_shard_stats_.clear();
  // analyze:allow(A103) pooled scratch, capacity retained across ticks
  last_shard_stats_.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    last_shard_stats_.push_back(shards_[static_cast<std::size_t>(s)].stats);
  }
  return outcome;
}

}  // namespace aladdin::core
