// Equivalence contract for the persistent hot path:
//
//   * the persistent scheduling state (the Aladdin scheduler's aggregated
//     network and pooled scratch, the resolver's ClusterState) must produce
//     placements bit-identical to a rebuild from scratch — the reuse is a
//     pure optimisation; a brand-new Resolver over a copy of the adaptor is
//     the per-tick oracle for the resolver;
//   * the supporting machinery (touch log, change journal, instance ids)
//     must agree with its from-scratch oracle.
//
// These tests run under the asan/tsan presets too.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cluster/audit.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/max_flow.h"
#include "flow/workspace.h"
#include "k8s/simulator.h"
#include "obs/metrics.h"
#include "obs/runtime.h"
#include "test_scenarios.h"
#include "trace/workload.h"

namespace aladdin {
namespace {

using cluster::ApplicationId;
using cluster::ContainerId;
using cluster::MachineId;
using cluster::ResourceVector;
using cluster::Topology;
using trace::Workload;

// ----------------------------------------------------- state journals ----

Workload TinyWorkload() {
  Workload wl;
  wl.AddApplication("a", 3, ResourceVector::Cores(2, 4));
  wl.AddApplication("b", 2, ResourceVector::Cores(4, 8), 1, true);
  return wl;
}

TEST(DirtyLog, RecordsMutationsSinceCursor) {
  const Workload wl = TinyWorkload();
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  cluster::ClusterState state = wl.MakeState(topo);
  state.EnableTouchLog();
  const std::uint64_t start = state.TouchLogEnd();

  state.Deploy(ContainerId(0), MachineId(1));
  state.Deploy(ContainerId(1), MachineId(2));
  state.Evict(ContainerId(0));

  bool overflowed = true;
  const auto touches = state.TouchesSince(start, &overflowed);
  EXPECT_FALSE(overflowed);
  ASSERT_EQ(touches.size(), 3u);
  EXPECT_EQ(touches[0].machine, MachineId(1));
  EXPECT_EQ(touches[0].container, ContainerId(0));
  EXPECT_EQ(touches[1].machine, MachineId(2));
  EXPECT_EQ(touches[1].container, ContainerId(1));
  EXPECT_EQ(touches[2].machine, MachineId(1));
  EXPECT_EQ(touches[2].container, ContainerId(0));

  // A cursor at the end sees nothing; an entry later it sees just that one.
  const std::uint64_t end = state.TouchLogEnd();
  EXPECT_TRUE(state.TouchesSince(end, &overflowed).empty());
  state.Migrate(ContainerId(1), MachineId(3));  // touches machines 2 and 3
  const auto moved = state.TouchesSince(end, &overflowed);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0].machine, MachineId(2));
  EXPECT_EQ(moved[1].machine, MachineId(3));
}

TEST(DirtyLog, OverflowDropsOldestAndFlagsStragglers) {
  const Workload wl = TinyWorkload();
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  cluster::ClusterState state = wl.MakeState(topo);
  state.EnableTouchLog();
  const std::uint64_t stale = state.TouchLogEnd();
  // Each Deploy+Evict pair appends two entries; push well past the cap.
  for (int i = 0; i < (1 << 16); ++i) {
    state.Deploy(ContainerId(0), MachineId(0));
    state.Evict(ContainerId(0));
  }
  bool overflowed = false;
  (void)state.TouchesSince(stale, &overflowed);
  EXPECT_TRUE(overflowed);
  // A fresh cursor still works incrementally.
  const std::uint64_t now = state.TouchLogEnd();
  state.Deploy(ContainerId(0), MachineId(3));
  const auto touches = state.TouchesSince(now, &overflowed);
  EXPECT_FALSE(overflowed);
  ASSERT_EQ(touches.size(), 1u);
  EXPECT_EQ(touches[0].machine, MachineId(3));
}

TEST(DirtyLog, CapFollowsTheLiveSet) {
  // 5,000 machines put 2 x (machines + placed) above the 4,096 floor, so
  // the live set, not the floor, sets the cap.
  Workload wl;
  wl.AddApplication("a", 3, ResourceVector::Cores(1, 2));
  const Topology topo = Topology::Uniform(5000, ResourceVector::Cores(32, 64));
  cluster::ClusterState state = wl.MakeState(topo);
  state.EnableTouchLog();
  state.Deploy(ContainerId(0), MachineId(0));
  state.Deploy(ContainerId(1), MachineId(1));
  const std::uint64_t live = topo.machine_count() + state.placed_count();
  ASSERT_GT(2 * live, 4096u);
  const std::uint64_t cursor = state.TouchLogEnd();
  // Churn one more container: each pair appends two touches and leaves the
  // live set where it was.
  const auto churn_until = [&](std::uint64_t lag) {
    while (state.TouchLogEnd() - cursor < lag) {
      state.Deploy(ContainerId(2), MachineId(2));
      state.Evict(ContainerId(2));
    }
  };
  bool overflowed = true;
  churn_until(live);
  (void)state.TouchesSince(cursor, &overflowed);
  EXPECT_FALSE(overflowed)
      << "a consumer lagging by the live set must still replay";
  churn_until(2 * live + 2);
  (void)state.TouchesSince(cursor, &overflowed);
  EXPECT_TRUE(overflowed)
      << "a consumer lagging past twice the live set must rebuild";

  // The 4,096-touch floor: on 4 machines a cursor 2,000 touches behind
  // still replays.
  const Topology small = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  cluster::ClusterState tiny = wl.MakeState(small);
  tiny.EnableTouchLog();
  const std::uint64_t tiny_cursor = tiny.TouchLogEnd();
  for (int i = 0; i < 1000; ++i) {
    tiny.Deploy(ContainerId(0), MachineId(0));
    tiny.Evict(ContainerId(0));
  }
  (void)tiny.TouchesSince(tiny_cursor, &overflowed);
  EXPECT_FALSE(overflowed) << "a small cluster keeps the floor's window";
}

TEST(ChangeJournal, DeduplicatesPerContainer) {
  const Workload wl = TinyWorkload();
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  cluster::ClusterState state = wl.MakeState(topo);
  state.EnableChangeJournal();
  state.Deploy(ContainerId(0), MachineId(0));
  state.Evict(ContainerId(0));
  state.Deploy(ContainerId(2), MachineId(1));
  const auto changed = state.TakeChangedContainers();
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0], ContainerId(0));  // first-touch order
  EXPECT_EQ(changed[1], ContainerId(2));
  EXPECT_TRUE(state.TakeChangedContainers().empty()) << "take must clear";
}

TEST(InstanceId, CopiesAreDistinctStates) {
  const Workload wl = TinyWorkload();
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  const cluster::ClusterState state = wl.MakeState(topo);
  const cluster::ClusterState copy = state;  // NOLINT: copy intended
  EXPECT_NE(state.instance_id(), copy.instance_id());
  cluster::ClusterState moved = wl.MakeState(topo);
  const std::uint64_t id = moved.instance_id();
  const cluster::ClusterState stolen = std::move(moved);
  EXPECT_EQ(stolen.instance_id(), id) << "moves keep identity";
}

TEST(WorkloadGrowth, AppendedContainersEnterState) {
  Workload wl = TinyWorkload();
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  cluster::ClusterState state = wl.MakeState(topo);
  const std::size_t before = wl.container_count();
  const ContainerId c = wl.AddContainer(ApplicationId(0));
  EXPECT_EQ(static_cast<std::size_t>(c.value()), before);
  state.SyncWorkloadGrowth();
  EXPECT_FALSE(state.IsPlaced(c));
  state.Deploy(c, MachineId(0));
  EXPECT_TRUE(state.IsPlaced(c));
  EXPECT_TRUE(state.CheckConsistency());
}

// ------------------------------------------------ scheduler equivalence ----

// Pooled scratch identity: one persistent scheduler reuses its aggregated
// network (synced from the state's touch log), sort keys, repair scratch,
// workspaces, and CSR across waves; a throwaway engine built fresh per wave
// starts cold each time. The reuse is a pure optimisation — identical
// placements and outcomes, wave after wave, or state is leaking across
// ticks. External evictions reach the persistent network only through the
// touch log. Each wave grows `apps_per_wave` apps and evicts every
// `evict_stride`-th placed container before scheduling.
void ExpectPersistentEngineMatchesFreshPerWave(std::uint64_t seed,
                                               int apps_per_wave,
                                               std::size_t evict_stride) {
  const Topology topo =
      Topology::Uniform(48, ResourceVector::Cores(32, 64), 8, 3);
  Workload wl;
  Rng rng(seed);

  const core::AladdinOptions options;  // defaults: repair + compaction on
  core::AladdinScheduler pooled(options);  // warm state across waves
  cluster::ClusterState pooled_state = wl.MakeState(topo);
  cluster::ClusterState fresh_state = wl.MakeState(topo);

  for (int wave = 0; wave < 6; ++wave) {
    const std::vector<ContainerId> arrivals =
        GrowWave(wl, rng, apps_per_wave);
    pooled_state.SyncWorkloadGrowth();
    fresh_state.SyncWorkloadGrowth();

    std::vector<ContainerId> placed;
    for (const auto& c : wl.containers()) {
      if (pooled_state.IsPlaced(c.id)) placed.push_back(c.id);
    }
    for (std::size_t i = 0; i < placed.size(); i += evict_stride) {
      pooled_state.Evict(placed[i]);
      fresh_state.Evict(placed[i]);
    }

    // Both schedulers see the same pending set (evictees + arrivals).
    std::vector<ContainerId> pending;
    for (const auto& c : wl.containers()) {
      if (!pooled_state.IsPlaced(c.id)) pending.push_back(c.id);
    }
    const sim::ScheduleRequest request{&wl, &pending};
    const auto pooled_outcome = pooled.Schedule(request, pooled_state);
    core::AladdinScheduler fresh(options);  // cold state every wave
    const auto fresh_outcome = fresh.Schedule(request, fresh_state);

    const std::string label =
        "seed " + std::to_string(seed) + " wave " + std::to_string(wave);
    EXPECT_EQ(Placements(pooled_state, wl.container_count()),
              Placements(fresh_state, wl.container_count()))
        << label;
    EXPECT_EQ(pooled_outcome.unplaced, fresh_outcome.unplaced) << label;
    // No search-counter assertion: the persistent engine's IL memo
    // legitimately prunes differently from a cold engine — placements
    // are the contract on this axis (see DESIGN §5).
    ASSERT_TRUE(pooled_state.CheckConsistency()) << label;
  }
}

TEST(PooledScratch, PersistentEngineMatchesFreshEnginePerWave) {
  ExpectPersistentEngineMatchesFreshPerWave(4711, 6, 4);
}

// The persistent engine's network learns of external churn only through
// the state's touch log; a lighter-churn scenario than the one above.
TEST(IncrementalNetwork, PlacementsMatchFreshRebuildAcrossWaves) {
  ExpectPersistentEngineMatchesFreshPerWave(2024, 4, 5);
}

// ------------------------------------------------- resolver equivalence ----

// Fresh-resolver oracle. A shadow ModelAdaptor subscribed to the
// simulator's events handling center receives every dispatched event, so
// once ClusterSimulator::Tick has dispatched, the shadow is a copy of the
// exact snapshot the persistent Resolver then resolves. After each tick a
// brand-new Resolver resolves the shadow; its bindings, stats and final
// uid -> node map must match the persistent resolver's. The shadow then
// re-copies the simulator's adaptor, so every tick is checked from the
// same starting point.
//
// Two limits:
//   * The script stays below saturation. Once repair runs, the persistent
//     resolver diverges from any rebuild: RepairOnMachine orders victims
//     and fillers, and Compact orders drain candidates, by weighted flow
//     alone, so ties between siblings follow DeployedOn(m) insertion order,
//     which a rebuild that pre-deploys bound pods in uid order cannot
//     reproduce. A container-id tie-break would remove the divergence, but
//     it moves placements at saturation.
//   * Unsharded only: a fresh sharded coordinator has none of the
//     persistent one's home-shard routing memory.
TEST(ResolverEquivalence, IncrementalMatchesRebuildPerTick) {
  k8s::ClusterSimulator sim;
  sim.AddNodes(16, cluster::ResourceVector::Cores(32, 64), "node", 4, 2);

  k8s::ModelAdaptor shadow = sim.adaptor();
  sim.ehc().Subscribe([&shadow](const k8s::Event& e) { shadow.OnEvent(e); });
  std::size_t bound = 0;
  RunScript(sim, 9,
            [&](const k8s::ResolveStats& stats,
                const std::vector<k8s::Binding>& bindings) {
              const std::string label = "tick " + std::to_string(stats.tick);
              k8s::Resolver fresh(shadow);
              std::vector<k8s::Binding> fresh_bindings;
              const k8s::ResolveStats want =
                  fresh.Resolve(stats.tick, &fresh_bindings);
              std::vector<std::pair<k8s::PodUid, std::string>> got_pairs;
              std::vector<std::pair<k8s::PodUid, std::string>> want_pairs;
              for (const k8s::Binding& b : bindings) {
                got_pairs.emplace_back(b.pod, b.node);
              }
              for (const k8s::Binding& b : fresh_bindings) {
                want_pairs.emplace_back(b.pod, b.node);
              }
              EXPECT_EQ(got_pairs, want_pairs) << label;
              EXPECT_EQ(stats.pending_before, want.pending_before) << label;
              EXPECT_EQ(stats.new_bindings, want.new_bindings) << label;
              EXPECT_EQ(stats.migrations, want.migrations) << label;
              EXPECT_EQ(stats.preemptions, want.preemptions) << label;
              EXPECT_EQ(stats.unschedulable, want.unschedulable) << label;
              EXPECT_EQ(stats.unschedulable_causes, want.unschedulable_causes)
                  << label;
              EXPECT_EQ(FinalBindings(sim.adaptor()), FinalBindings(shadow))
                  << label;
              bound += stats.new_bindings;
              shadow = sim.adaptor();
            });
  EXPECT_GT(bound, 0u) << "the script must actually bind pods";
}

// ------------------------------------------------------ flow substrate ----

flow::Graph LayeredGraph(std::int64_t width, VertexId& s, VertexId& t,
                         std::uint64_t seed) {
  flow::Graph g;
  s = g.AddVertex();
  t = g.AddVertex();
  const VertexId tasks = g.AddVertices(static_cast<std::size_t>(width));
  const VertexId machines = g.AddVertices(static_cast<std::size_t>(width));
  Rng rng(seed);
  for (std::int64_t i = 0; i < width; ++i) {
    const VertexId task(tasks.value() + static_cast<std::int32_t>(i));
    g.AddArc(s, task, rng.UniformInt(1, 8));
    for (int d = 0; d < 4; ++d) {
      const VertexId machine(machines.value() + static_cast<std::int32_t>(
                                                    rng.UniformInt(0, width - 1)));
      g.AddArc(task, machine, rng.UniformInt(1, 8), rng.UniformInt(0, 48));
    }
  }
  for (std::int64_t i = 0; i < width; ++i) {
    const VertexId machine(machines.value() + static_cast<std::int32_t>(i));
    g.AddArc(machine, t, rng.UniformInt(2, 16));
  }
  return g;
}

// ------------------------------------------------ zero-alloc witness ----

// Runtime pins of the pooled-scratch contract that aladdin-analyze's A1
// rule checks statically: warm buffers and structures are reused, never
// regrown or rebuilt, once warmup has sized them.
//
// Solver-level witness: a reused Workspace grows its buffers on the first
// run over a graph and never again — every later BeginRun lands in the
// ws_reuse bucket. This is the zero-steady-state-allocation contract at the
// layer where the counters live.
TEST(ZeroAllocSteadyState, WorkspaceGrowthStopsAfterFirstSolve) {
  obs::Registry::Get().ResetAll();
  obs::SetMetricsEnabled(true);

  VertexId s{}, t{};
  flow::Graph g = LayeredGraph(64, s, t, 97);
  g.Freeze();
  flow::Workspace ws;

  const flow::Capacity expected = flow::Dinic(g, s, t, ws).value;
  const std::int64_t grow_warm = CounterValue("flow/ws_grow");
  const std::int64_t reuse_warm = CounterValue("flow/ws_reuse");
  EXPECT_GT(grow_warm, 0) << "first solve must size the workspace";

  for (int run = 0; run < 16; ++run) {
    g.ResetFlows();
    EXPECT_EQ(flow::Dinic(g, s, t, ws).value, expected) << "run " << run;
  }
  const std::int64_t grow_steady = CounterValue("flow/ws_grow");
  const std::int64_t reuse_steady = CounterValue("flow/ws_reuse");

  obs::SetMetricsEnabled(false);
  EXPECT_EQ(grow_steady, grow_warm)
      << "a steady-state solve grew a workspace buffer";
  EXPECT_GE(reuse_steady - reuse_warm, 16)
      << "every steady-state solve must land in the reuse bucket";
}

// Scheduler-level witness: after warmup ticks, further resolver ticks reuse
// the warm aggregated network. Each solve syncs it from the state's touch
// log (core/net_syncs advances) and none rebuilds it (core/net_builds stays
// flat): the resolver's persistent state keeps its instance id, so a
// rebuild would mean the network cache was thrown away.
TEST(ZeroAllocSteadyState, ResolverTicksStayGrowFlatAfterWarmup) {
  obs::Registry::Get().ResetAll();
  obs::SetMetricsEnabled(true);

  k8s::ClusterSimulator sim;
  sim.AddNodes(24, cluster::ResourceVector::Cores(32, 64), "node", 4, 2);

  auto run_tick = [&sim](int t) {
    k8s::PodSpec spec;
    spec.requests = cluster::ResourceVector::Cores(2, 4);
    sim.SubmitDeployment("svc-" + std::to_string(t), 3, spec);
    sim.SubmitBatchJob("job-" + std::to_string(t), 10,
                       cluster::ResourceVector::Cores(1, 2),
                       /*lifetime_ticks=*/2);
    sim.Tick();
  };

  for (int t = 0; t < 4; ++t) run_tick(t);  // warmup

  const std::int64_t builds_warm = CounterValue("core/net_builds");
  const std::int64_t syncs_warm = CounterValue("core/net_syncs");
  EXPECT_GT(builds_warm, 0) << "the first solve must build the network";
  for (int t = 4; t < 10; ++t) run_tick(t);
  const std::int64_t builds_steady = CounterValue("core/net_builds");
  const std::int64_t syncs_steady = CounterValue("core/net_syncs");

  obs::SetMetricsEnabled(false);
  EXPECT_EQ(builds_steady, builds_warm)
      << "a steady-state tick rebuilt the aggregated network";
  EXPECT_GE(syncs_steady - syncs_warm, 6)
      << "every steady-state tick must sync the warm network";
}

}  // namespace
}  // namespace aladdin
