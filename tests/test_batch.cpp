// Warm-solve and group-placement contract:
//
//   * Network::Sync() exits early on an empty touch log
//     (core/net_sync_noop);
//   * the group-decomposed waterfall (AggregatedNetwork::PlaceGroupRun)
//     replays per-container FindMachine + Deploy walks exactly — machines,
//     search counters, machine epochs — including anti-affinity fixtures
//     that force the per-container fallback, and it disengages entirely
//     without DL;
//   * core::PlaceTaskRun equals a per-task best-fit scan;
//   * a batch deadline only defers (never loses) pods.
//
// These run under the asan/tsan presets too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/free_index.h"
#include "common/rng.h"
#include "core/network.h"
#include "core/scheduler.h"
#include "core/task_scheduler.h"
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

// -------------------------------------------------------- warm solve ----

// A no-arrival follow-up solve hits the Sync() fast path: the touch log is
// empty after the previous solve's own mutations were folded in, so the
// network skips the walk and says so in core/net_sync_noop.
TEST(WarmSolve, EmptyDirtyLogSyncIsCountedNoop) {
  const Topology topo = Topology::Uniform(8, ResourceVector::Cores(32, 64));
  Workload wl;
  Rng rng(7);
  const std::vector<ContainerId> wave = GrowWave(wl, rng, 6);
  cluster::ClusterState state = wl.MakeState(topo);
  core::AladdinScheduler engine;

  obs::Registry::Get().ResetAll();
  obs::SetMetricsEnabled(true);
  const sim::ScheduleRequest request{&wl, &wave};
  (void)engine.Schedule(request, state);
  const std::int64_t noops_after_first = CounterValue("core/net_sync_noop");

  const std::vector<ContainerId> empty;
  const sim::ScheduleRequest idle{&wl, &empty};
  (void)engine.Schedule(idle, state);
  const std::int64_t noops_after_idle = CounterValue("core/net_sync_noop");
  const std::int64_t dirty = CounterValue("core/net_sync_dirty");
  (void)engine.Schedule(idle, state);
  const std::int64_t dirty_still = CounterValue("core/net_sync_dirty");
  obs::SetMetricsEnabled(false);

  EXPECT_GT(noops_after_idle, noops_after_first)
      << "an idle resolve over a clean state must take the no-op exit";
  EXPECT_EQ(dirty_still, dirty)
      << "a no-op sync must not replay any dirty entries";
}

// ------------------------------------------- group waterfall identity ----

// The sorted-capacity waterfall replays the per-container walk exactly.
// Two networks over two identical states: for each same-app run, one
// network places the whole run with PlaceGroupRun while the other walks
// FindMachine + Deploy per sibling (singleton apps walk on both). After
// every run the chosen machines, search counters, machine epochs (the IL
// memo keys) and placements must agree — on workloads full of
// anti-affinity groups that force the exact-search fallback mid-run, and
// on a cluster small enough that late runs fail.
TEST(GroupWaterfall, PlacementsAndCountersMatchPerContainerWalk) {
  const Topology topo =
      Topology::Uniform(16, ResourceVector::Cores(32, 64), 4, 2);
  const core::SearchOptions search{/*enable_il=*/true, /*enable_dl=*/true};
  for (const std::uint64_t seed : {31u, 47u, 101u}) {
    Workload wl;
    Rng rng(seed);
    (void)GrowWave(wl, rng, 40);
    cluster::ClusterState group_state = wl.MakeState(topo);
    cluster::ClusterState walk_state = wl.MakeState(topo);
    core::AggregatedNetwork group_net(group_state.topology());
    core::AggregatedNetwork walk_net(walk_state.topology());
    group_net.Attach(&group_state);
    walk_net.Attach(&walk_state);
    core::SearchCounters group_counters;
    core::SearchCounters walk_counters;

    std::size_t group_runs = 0;
    std::size_t unplaced = 0;
    for (const cluster::Application& app : wl.applications()) {
      const std::vector<ContainerId>& run = app.containers;
      std::vector<MachineId> walk_out;
      for (const ContainerId c : run) {
        const MachineId m = walk_net.FindMachine(c, search, walk_counters);
        if (m.valid()) walk_net.Deploy(c, m);
        walk_out.push_back(m);
      }
      std::vector<MachineId> group_out(run.size(), MachineId::Invalid());
      if (run.size() >= 2) {
        group_net.PlaceGroupRun(run, search, group_counters, group_out);
        ++group_runs;
      } else {
        group_out[0] = group_net.FindMachine(run[0], search, group_counters);
        if (group_out[0].valid()) group_net.Deploy(run[0], group_out[0]);
      }
      unplaced += static_cast<std::size_t>(
          std::count(walk_out.begin(), walk_out.end(), MachineId::Invalid()));

      const std::string label = "seed=" + std::to_string(seed) + " app " +
                                std::to_string(app.id.value());
      ASSERT_EQ(group_out, walk_out) << label;
      ASSERT_EQ(group_counters.explored_paths, walk_counters.explored_paths)
          << label;
      ASSERT_EQ(group_counters.il_prunes, walk_counters.il_prunes) << label;
      ASSERT_EQ(group_counters.dl_stops, walk_counters.dl_stops) << label;
      ASSERT_EQ(Placements(group_state, wl.container_count()),
                Placements(walk_state, wl.container_count()))
          << label;
      for (std::size_t m = 0; m < topo.machine_count(); ++m) {
        const MachineId id(static_cast<std::int32_t>(m));
        ASSERT_EQ(group_net.MachineEpoch(id), walk_net.MachineEpoch(id))
            << label << " machine " << m;
      }
    }
    EXPECT_GT(group_runs, 0u) << "seed=" << seed;
    EXPECT_GT(unplaced, 0u)
        << "seed=" << seed << ": the fixture must exercise failing runs";
    ASSERT_TRUE(group_state.CheckConsistency()) << "seed=" << seed;
  }
}

// Without DL the search is a full enumeration the waterfall does not
// model: the scheduler must never enter it. (With DL the same wave does.)
TEST(GroupWaterfall, DisengagesWithoutDepthLimiting) {
  const Topology topo =
      Topology::Uniform(24, ResourceVector::Cores(32, 64), 6, 2);
  Workload wl;
  Rng rng(61);
  const std::vector<ContainerId> wave = GrowWave(wl, rng, 18);
  const sim::ScheduleRequest request{&wl, &wave};

  const auto group_runs = [&](bool enable_dl) {
    core::AladdinOptions options;
    options.enable_dl = enable_dl;
    obs::Registry::Get().ResetAll();
    obs::SetMetricsEnabled(true);
    cluster::ClusterState state = wl.MakeState(topo);
    core::AladdinScheduler engine(options);
    (void)engine.Schedule(request, state);
    const std::int64_t runs = CounterValue("core/group_runs");
    obs::SetMetricsEnabled(false);
    return runs;
  };
  EXPECT_EQ(group_runs(/*enable_dl=*/false), 0)
      << "no DL means no waterfall runs";
  EXPECT_GT(group_runs(/*enable_dl=*/true), 0)
      << "the fixture must engage the waterfall under DL";
}

// ------------------------------------------------ task-run placement ----

// Reference per-task best fit: rescan the index for the tightest machine
// that fits, deploy, re-key. PlaceTaskRun must reproduce it task by task.
MachineId PlaceOneBestFit(cluster::ClusterState& state,
                          cluster::FreeIndex& index, ContainerId task) {
  const auto& request =
      state.containers()[static_cast<std::size_t>(task.value())].request;
  MachineId target = MachineId::Invalid();
  index.ScanAscending(request.cpu_millis(), [&](MachineId m) {
    if (!request.FitsIn(state.Free(m))) return false;
    target = m;
    return true;
  });
  if (target.valid()) {
    state.Deploy(task, target);
    index.OnChanged(target);
  }
  return target;
}

// PlaceTaskRun == per-task best fit, including winner exhaustion mid-run
// and the all-fail suffix, under randomized pre-occupancy.
TEST(TaskRunPlacement, PlaceRunMatchesPlaceOnePerTask) {
  for (const std::uint64_t seed : {3u, 17u, 29u, 71u}) {
    Rng rng(seed);
    const Topology topo =
        Topology::Uniform(12, ResourceVector::Cores(16, 32));
    Workload wl;
    // Filler apps to randomise occupancy, then one uniform task app whose
    // containers form the run.
    wl.AddApplication("filler", 20,
                      ResourceVector::Cores(rng.UniformInt(1, 6),
                                            rng.UniformInt(2, 12)));
    const std::size_t run_first = wl.container_count();
    wl.AddApplication("tasks", 30,
                      ResourceVector::Cores(rng.UniformInt(1, 8),
                                            rng.UniformInt(2, 16)));

    cluster::ClusterState run_state = wl.MakeState(topo);
    cluster::ClusterState one_state = wl.MakeState(topo);
    for (std::size_t i = 0; i < run_first; ++i) {
      const ContainerId filler(static_cast<std::int32_t>(i));
      const MachineId m(rng.UniformInt(0, 11));
      if (run_state.Fits(filler, m)) {
        run_state.Deploy(filler, m);
        one_state.Deploy(filler, m);
      }
    }
    cluster::FreeIndex run_index;
    run_index.Attach(run_state);
    cluster::FreeIndex one_index;
    one_index.Attach(one_state);

    std::vector<ContainerId> tasks;
    for (std::size_t i = run_first; i < wl.container_count(); ++i) {
      tasks.emplace_back(static_cast<std::int32_t>(i));
    }
    std::vector<MachineId> run_out(tasks.size(), MachineId::Invalid());
    const std::size_t placed =
        core::PlaceTaskRun(run_state, run_index, tasks, run_out);

    std::size_t one_placed = 0;
    std::vector<MachineId> one_out;
    for (const ContainerId task : tasks) {
      const MachineId m = PlaceOneBestFit(one_state, one_index, task);
      one_out.push_back(m);
      if (m.valid()) ++one_placed;
    }

    const std::string label = "seed=" + std::to_string(seed);
    EXPECT_EQ(run_out, one_out) << label;
    EXPECT_EQ(placed, one_placed) << label;
    EXPECT_EQ(Placements(run_state, wl.container_count()),
              Placements(one_state, wl.container_count()))
        << label;
    // Failures form a suffix.
    bool failing = false;
    for (const MachineId m : run_out) {
      if (!m.valid()) {
        failing = true;
      } else {
        EXPECT_FALSE(failing)
            << label << ": a placement after a failure breaks the suffix";
      }
    }
    ASSERT_TRUE(run_state.CheckConsistency()) << label;
  }
}

// ---------------------------------------------------- batch deadline ----

// A deadline defers whole ticks (no long-lived bindings) and catches up on
// the next boundary without losing pods.
TEST(ResolverBatch, DeadlineDefersThenCatchesUp) {
  k8s::ResolverOptions deferred_options;
  deferred_options.batch_deadline_ticks = 2;
  k8s::ClusterSimulator sim(deferred_options);
  sim.AddNodes(16, cluster::ResourceVector::Cores(32, 64), "node", 4, 2);

  k8s::PodSpec spec;
  spec.requests = cluster::ResourceVector::Cores(2, 4);
  std::vector<k8s::ResolveStats> history;
  for (int t = 0; t < 6; ++t) {
    sim.SubmitDeployment("svc-" + std::to_string(t), 4, spec);
    history.push_back(sim.Tick());
  }

  // The simulator resolves with 1-based ticks, so the deadline boundary
  // ((tick + 1) % 2 == 0) lands on the odd resolver ticks: the first wave
  // binds immediately, then every deferred wave lands together with the
  // next one. The last wave is still parked when the run ends — deferral
  // trades latency, never loses pods that get a boundary.
  ASSERT_EQ(history.size(), 6u);
  for (std::size_t t = 0; t < history.size(); ++t) {
    const bool boundary = (history[t].tick + 1) % 2 == 0;
    if (boundary) {
      EXPECT_EQ(history[t].new_bindings, t == 0 ? 4 : 8) << "tick " << t;
      EXPECT_EQ(history[t].unschedulable, 0) << "tick " << t;
    } else {
      EXPECT_EQ(history[t].new_bindings, 0) << "tick " << t;
      EXPECT_EQ(history[t].unschedulable, 4)
          << "tick " << t << ": the parked wave must be counted, not lost";
    }
  }
  EXPECT_EQ(FinalBindings(sim.adaptor()).size(), 20u)
      << "every wave that saw a boundary must be bound";
}

}  // namespace
}  // namespace aladdin
