// Sharded scale-out coordinator: partitions the cluster into K disjoint
// machine shards (cluster::ShardPlan), gives each shard its own
// AladdinScheduler + mirrored ClusterState (cluster::ShardView), and solves
// the shards concurrently on a thread pool.
//
// Per Schedule() call:
//   1. Sync     — replay the global touch log since the last call, each
//                 touch into the mirror of its machine's shard (every
//                 mirror is rebuilt if the cursor fell off the log).
//   2. Route    — assign each arriving application to a shard with a
//                 deterministic policy (hash / least-utilized). Before the
//                 parallel solve every shard reports, for each
//                 anti-affinity-constrained application, how many of its
//                 machines the blacklist (Eq. 7–8) leaves eligible — the
//                 blacklist-exchange round — and a shard with zero eligible
//                 machines is vetoed regardless of policy, so cross-shard
//                 inter-app anti-affinity steers routing instead of
//                 producing dead-on-arrival solves.
//   3. Solve    — shards with work run concurrently; each solver's journal
//                 emissions are parked in a per-shard capture buffer
//                 (obs::ScopedDecisionCapture), never touching the global
//                 sequence from a worker thread.
//   4. Merge    — in fixed shard order: replay captured journal records
//                 (machine ids translated local→global), apply each shard's
//                 placement diff to the global state, fold migration /
//                 preemption counters and search-effort counters. Fixed
//                 order makes the merged stream and counters bit-identical
//                 across thread counts; K=1 reproduces the unsharded
//                 scheduler bit-for-bit (same solver, same arrival order,
//                 verbatim topology copy).
//   5. Spill    — containers a shard could not admit are re-routed to the
//                 best untried shard and solved again (the existing
//                 migration/repair pass runs inside each shard's solver),
//                 bounding the packing cost of a bad routing choice.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/shard.h"
#include "common/thread_pool.h"
#include "core/scheduler.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "sim/scheduler.h"

namespace aladdin::core {

// Application → shard routing policies. All are deterministic functions of
// (workload, cluster state, arrival order) — never of addresses, thread
// interleavings or wall time — so a restarted process routes identically.
enum class ShardRouting : std::uint8_t {  // analyze:closed_enum
  kHash = 0,       // FNV-1a of the application name, mod K
  kLeastUtilized,  // shard with the most free CPU at routing time
  kCount
};

[[nodiscard]] const char* ShardRoutingName(ShardRouting routing);
// Inverse of ShardRoutingName; returns kCount for unknown names.
[[nodiscard]] ShardRouting ShardRoutingFromName(const std::string& name);

struct ShardedOptions {
  // Number of shards (clamped to the machine count; <= 1 means one shard,
  // which is bit-identical to the unsharded AladdinScheduler).
  int shards = 1;
  ShardRouting routing = ShardRouting::kLeastUtilized;
  // Per-shard solver configuration. `aladdin.threads` sizes the pool the
  // shards solve on (0 = hardware concurrency, 1 = serial); results are
  // bit-identical for any value.
  AladdinOptions aladdin;
};

class ShardedScheduler : public sim::Scheduler {
 public:
  explicit ShardedScheduler(ShardedOptions options = {});
  ~ShardedScheduler() override;

  [[nodiscard]] std::string name() const override;

  // Incremental like AladdinScheduler: the shard plan, mirrors and solver
  // warm-starts survive across calls against the same ClusterState object
  // (keyed on instance_id); a different state re-attaches from scratch.
  sim::ScheduleOutcome Schedule(const sim::ScheduleRequest& request,
                                cluster::ClusterState& state) override;

  [[nodiscard]] const ShardedOptions& options() const { return options_; }
  // Valid after the first Schedule() call.
  [[nodiscard]] const cluster::ShardPlan* plan() const { return plan_.get(); }
  // Per-shard activity of the most recent Schedule() call.
  [[nodiscard]] const std::vector<obs::ShardLoad>& last_shard_stats() const {
    return last_shard_stats_;
  }

 private:
  friend struct ShardedSchedulerTestPeer;  // tests read the shard mirrors

  // Everything one shard owns: its mirrored state, its solver (with the
  // solver's incremental network and pooled scratch), its journal
  // capture buffer and its merge bookkeeping.
  struct ShardRuntime {
    std::unique_ptr<cluster::ShardView> view;
    std::unique_ptr<AladdinScheduler> solver;
    std::vector<cluster::ContainerId> round_arrivals;
    std::vector<obs::Decision> journal;
    sim::ScheduleOutcome outcome;
    std::int64_t migrations_mark = 0;
    std::int64_t preemptions_mark = 0;
    std::int64_t free_cpu = 0;  // routing estimate, refreshed per round
    std::int64_t capacity_cpu = 0;  // the shard's machines, fixed at attach
    obs::ShardLoad stats;
    // Interned per-shard metric handles (K > 1 only; null otherwise so the
    // K = 1 run exports exactly the unsharded counter set).
    obs::Counter* routed_counter = nullptr;
    obs::Counter* placed_counter = nullptr;
    obs::Phase* solve_phase = nullptr;
  };

  // A container awaiting (re-)routing, with the diagnosis and shard of its
  // latest failed attempt.
  struct Pending {
    cluster::ContainerId container;
    obs::Cause cause = obs::Cause::kNone;
    int last_shard = -1;
  };

  void AttachShards(cluster::ClusterState& state);
  // (Re)builds shard `s`'s mirror from `state`; its solver re-attaches to
  // the new view state on the next solve (instance id change).
  void BuildView(int s, const cluster::ClusterState& state);
  void SyncShards(cluster::ClusterState& state);
  // Routes `pending` into the shards' round_arrivals. Round 0 applies the
  // configured policy with home-shard stickiness; later rounds pick the
  // best untried shard per application. Containers with no shard left to
  // try are moved to `given_up`.
  void RouteRound(const cluster::ClusterState& state,
                  const std::vector<Pending>& pending, int round,
                  std::vector<Pending>& given_up);
  // Solves every shard with work (parallel when configured), then merges
  // journal + placement diff + counters into `state` in fixed shard order
  // and refills `pending` with this round's unplaced containers.
  void SolveAndMerge(const sim::ScheduleRequest& request,
                     cluster::ClusterState& state,
                     sim::ScheduleOutcome& outcome,
                     std::vector<Pending>& pending);
  [[nodiscard]] ThreadPool* SolvePool();
  // Blacklist-exchange probe: machines of shard `s` on which `container`'s
  // application is not blacklisted (Eq. 7–8) right now.
  [[nodiscard]] std::size_t EligibleMachines(int s,
                                             cluster::ContainerId container)
      const;
  // Existence-only variant for the veto: stops at the first eligible
  // machine, so the common no-veto case is O(1) instead of O(machines).
  [[nodiscard]] bool HasEligibleMachine(int s,
                                        cluster::ContainerId container) const;

  ShardedOptions options_;
  std::unique_ptr<cluster::ShardPlan> plan_;
  std::vector<ShardRuntime> shards_;
  std::uint64_t attached_state_id_ = 0;
  // Touch-log cursor on the attached state: every touch before it is in
  // the mirrors (the merges' own writes are skipped, not replayed).
  std::uint64_t log_cursor_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  bool pool_created_ = false;

  // Routing state of one application. `home` persists across ticks (an
  // application's later waves land with its earlier containers) until a
  // re-attach; `slot` and `failed` are per-call and reset after use;
  // `tried` is cleared per tick for the applications in tick_touched_.
  struct AppRoute {
    std::int32_t slot = -1;  // index into round_apps_, -1 = not seen
    std::int32_t home = -1;  // home shard, -1 = unrouted
    // Shards tried this tick, as a bitmask consulted by spill rounds.
    // Shards >= 64 stay re-tryable (mild spill bias at K > 64, still
    // deterministic).
    std::uint64_t tried = 0;
    // Set while a spill round left one of its containers pending (blocks
    // re-homing).
    bool failed = false;
  };
  // Per application; grows with the append-only application list.
  std::vector<AppRoute> app_route_;
  struct RoundApp {
    cluster::ApplicationId app;
    int target = -1;
    std::size_t count = 0;       // containers in this round
    cluster::ContainerId probe;  // representative for blacklist probes
    bool constrained = false;
  };
  std::vector<RoundApp> round_apps_;
  std::vector<cluster::ApplicationId> tick_touched_;
  std::vector<Pending> pending_;
  std::vector<Pending> given_up_;
  std::vector<cluster::ContainerId> merge_scratch_;  // per-merge diff list
  std::vector<obs::ShardLoad> last_shard_stats_;
};

}  // namespace aladdin::core
