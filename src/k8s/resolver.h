// Resolver (RE) — §IV.C, Fig. 6: "RE integrates Aladdin to map containers
// to resources."
//
// Each Resolve() reconciles the scheduling view with the model adaptor's
// snapshot and then:
//   * long-lived pending pods go through the Aladdin core (which may also
//     migrate or preempt bound pods — §III.B);
//   * short-lived pending pods go through the "traditional task-based
//     scheduler" (§IV.D): plain best-fit on resources, no constraint
//     machinery.
// The resulting placement diff is translated back into Bindings (new
// placements and migrations) and pod-phase updates.
//
// There is one scheduling path. One ClusterState (plus the Aladdin
// scheduler's aggregated network) lives across Resolve() calls, synced from
// the adaptor's retired-container journal and the state's own touch log, so
// a long-lived solve's cost scales with the churn, not the cluster. The
// task scheduler's free index is rebuilt per task phase. A topology change
// (node add/remove renumbers machines) rebuilds that state from the adaptor
// snapshot, keyed on ModelAdaptor::topology_version(). Every solved tick
// hands all of its long-lived pods to one serial Schedule() call (sharded
// when ResolverOptions::shards >= 2). A brand-new Resolver over a copy of
// the adaptor is the oracle the persistent one is tested against
// (tests/test_equivalence.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/free_index.h"
#include "core/scheduler.h"
#include "core/sharded.h"
#include "k8s/adaptor.h"
#include "obs/journal.h"
#include "obs/lifecycle.h"
#include "obs/slo.h"
#include "obs/watchdog.h"

namespace aladdin::k8s {

struct ResolveStats {
  std::int64_t tick = 0;
  std::size_t pending_before = 0;
  std::size_t new_bindings = 0;   // previously-pending pods now bound
  std::size_t migrations = 0;     // bound pods moved to a different node
  std::size_t preemptions = 0;    // bound pods returned to pending
  std::size_t unschedulable = 0;  // pending pods the resolver gave up on
  // Per-cause breakdown of `unschedulable` (non-zero causes only, in
  // obs::Cause enum order; counts sum to `unschedulable`). Long-lived pods
  // carry the Aladdin core's terminal diagnosis, short-lived pods a
  // resource-only one (best-fit has no constraint machinery).
  std::vector<std::pair<obs::Cause, std::size_t>> unschedulable_causes;
  double wall_seconds = 0.0;

  // Per-shard breakdown of the long-lived solve (empty unless
  // ResolverOptions::shards >= 2).
  std::vector<obs::ShardLoad> shards;

  // Lifecycle / SLO view after this resolve. Exact tick integers mutated
  // only from serial sections, so both are bit-identical across thread
  // counts — the same determinism bar as the journal.
  obs::PendingAgeStats pending_ages;  // ages of still-pending spans
  obs::SloSnapshot slo;               // cumulative attainment (capped rows)
};

struct ResolverOptions {
  // Compaction is off: in the live integration a "compaction" is a
  // disruptive pod restart, so the resolver only migrates when a placement
  // needs repair, mirroring Fig. 7's rescheduling rather than continuous
  // defragmentation.
  core::AladdinOptions aladdin{.enable_compaction = false};
  // Shard the long-lived solve across this many disjoint machine
  // partitions, solved concurrently (core::ShardedScheduler). 0 and 1 both
  // keep the single, serial AladdinScheduler; from 2 on `aladdin.threads`
  // sizes the shard-solve pool.
  int shards = 0;
  core::ShardRouting routing = core::ShardRouting::kLeastUtilized;
  // Admission objective: `slo.percent`% of containers placed within
  // `slo.wait_ticks` ticks of arrival.
  obs::SloObjective slo;
  // Long-lived pods are only solved on ticks where (tick + 1) is a multiple
  // of this deadline; other ticks defer them (cause kBatchDeferred, SLO
  // clocks keep running). 1 = solve every tick.
  int batch_deadline_ticks = 1;
  // Run the cluster health watchdog (obs/watchdog.h): six anomaly
  // detectors evaluated once per resolve from the serial epilogue, feeding
  // typed alerts into the journal, metrics and the /alertz endpoint. The
  // detectors consume the lifecycle ledger's SLO / pending-age / epoch
  // signals; placements are unaffected either way.
  bool watchdog = false;
  obs::WatchdogOptions watchdog_options;
};

class Resolver {
 public:
  explicit Resolver(ModelAdaptor& adaptor, ResolverOptions options = {});

  // One scheduling pass over the current snapshot. `tick` stamps bindings.
  ResolveStats Resolve(std::int64_t tick, std::vector<Binding>* bindings =
                                              nullptr);

  // The health watchdog (alerts, counters, determinism fingerprint). Only
  // fed when ResolverOptions::watchdog is set; snapshotting is always safe.
  [[nodiscard]] const obs::Watchdog& watchdog() const { return watchdog_; }

  // The solver options ResolverOptions{} starts from (compaction off).
  static core::AladdinOptions DefaultOptions() {
    return ResolverOptions{}.aladdin;
  }

 private:
  // Rebuilds state_ from the adaptor snapshot (bound pods pre-deployed) and
  // records the topology version it was built for.
  // `tick` closes the lifecycle spans of containers retired by the rebuild.
  void RebuildState(std::int64_t tick);
  // Brings the persistent state in line with adaptor-side changes since the
  // last tick: workload growth, retired (deleted/unbound) containers and
  // pods an event bound or moved.
  void SyncState(std::int64_t tick);
  // Deploys bound pod `uid` onto its node in state_, or unbinds it as stale
  // when it has no container, its node is gone or the node lacks room. A
  // pending span of the pod closes: an event bound it, not this resolver.
  void AdoptBinding(PodUid uid, std::int64_t tick);

  // Opens lifecycle spans (and interns app names with the SLO engine) for
  // pending pods not already tracked. Serial section; journals kPodArrived.
  // Runs under the exclusive phase k8s/lifecycle, as does FinishLifecycle.
  void TrackArrivals(const std::vector<PodUid>& pending,
                     const cluster::ClusterState& state, std::int64_t tick);
  // Lifecycle epilogue: pending-age summary, SLO snapshot into `stats`,
  // watchdog tick (options_.watchdog), introspection
  // publish for /statusz + /slo + /alertz. Expects
  // stats.unschedulable_causes to be filled already (the cause-mix
  // detector's input). `solve_cost` is the tick's deterministic solve
  // effort; `solve_wall_micros` is wall-clock evidence only.
  void FinishLifecycle(ResolveStats& stats,
                       const cluster::ClusterState& state, std::int64_t tick,
                       std::int64_t solve_cost,
                       std::int64_t solve_wall_micros);

  friend struct ResolverTestPeer;  // tests read the persistent state

  ModelAdaptor& adaptor_;
  ResolverOptions options_;
  core::AladdinScheduler scheduler_;  // owns the persistent network
  // Sharded long-lived solve (options_.shards >= 2): replaces scheduler_.
  std::unique_ptr<core::ShardedScheduler> sharded_;

  std::optional<cluster::ClusterState> state_;
  cluster::FreeIndex free_index_;  // rebuilt per task phase, buckets pooled
  std::int64_t built_topology_version_ = -1;

  // Per-tick pooling: the pending snapshot (uid-ascending) and its
  // long/short-lived splits persist as member scratch.
  std::vector<PodUid> pending_;
  std::vector<cluster::ContainerId> long_lived_;
  std::vector<cluster::ContainerId> short_lived_;
  // Short-lived run-placement output (core::PlaceTaskRun).
  std::vector<cluster::MachineId> task_out_;

  // Lifecycle ledger + SLO engine and the health watchdog
  // (options_.watchdog), mutated only from the resolve's serial sections.
  obs::LifecycleLedger ledger_;
  obs::SloEngine slo_;
  obs::Watchdog watchdog_;
};

}  // namespace aladdin::k8s
