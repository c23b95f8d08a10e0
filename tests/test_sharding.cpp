// Sharded scale-out contract (core::ShardedScheduler + cluster::ShardPlan):
//
//   * shards=1 is bit-identical to the unsharded AladdinScheduler —
//     placements, outcome counters AND the decision journal stream;
//   * for a fixed K the result is bit-identical for any solve-pool size
//     (threads is a throughput knob, never a behaviour knob);
//   * routing is a pure function of (workload, state, arrival order): two
//     fresh coordinators — a process restart in miniature — route and
//     place identically;
//   * the blacklist-exchange round steers anti-affinity-constrained
//     applications away from shards with zero eligible machines, so
//     cross-shard inter-app anti-affinity never produces colocation
//     violations or dead-on-arrival solves;
//   * spill rounds recover from a home shard that cannot hold an
//     application's whole wave;
//   * a re-attach to a new state routes every application afresh;
//   * the supporting machinery (ShardPlan partitioning, touch replay into
//     the shard mirrors, the rebuild when the coordinator falls off the
//     touch log) agrees with its contracts in isolation.
//
// These tests run under the asan/tsan presets too; the threads>1 grid cases
// are the TSan workhorse for the parallel shard solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/audit.h"
#include "cluster/shard.h"
#include "cluster/state.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "core/sharded.h"
#include "k8s/simulator.h"
#include "obs/journal.h"
#include "test_scenarios.h"
#include "trace/workload.h"

namespace aladdin::core {

// Friend of ShardedScheduler: reads a shard's mirror and the routing table.
struct ShardedSchedulerTestPeer {
  static const cluster::ShardView& View(const ShardedScheduler& scheduler,
                                        int shard) {
    return *scheduler.shards_[static_cast<std::size_t>(shard)].view;
  }
  // The home shard of every routing-table row (-1 = unrouted), indexed by
  // application.
  static std::vector<std::int32_t> Homes(const ShardedScheduler& scheduler) {
    std::vector<std::int32_t> homes;
    for (const auto& route : scheduler.app_route_) homes.push_back(route.home);
    return homes;
  }
};

}  // namespace aladdin::core

namespace aladdin {
namespace {

using cluster::ApplicationId;
using cluster::ContainerId;
using cluster::MachineId;
using cluster::RackId;
using cluster::ResourceVector;
using cluster::ShardPlan;
using cluster::SubClusterId;
using cluster::Topology;
using trace::Workload;

// ------------------------------------------------------------ ShardPlan ----

TEST(ShardPlan, KOneIsVerbatimCopy) {
  const Topology topo = Topology::Uniform(12, ResourceVector::Cores(32, 64),
                                          4, 2);
  const ShardPlan plan = ShardPlan::Build(topo, 1);
  ASSERT_EQ(plan.shard_count(), 1);
  EXPECT_EQ(plan.shard_topology(0).machine_count(), topo.machine_count());
  EXPECT_EQ(plan.shard_topology(0).rack_count(), topo.rack_count());
  EXPECT_EQ(plan.shard_topology(0).subcluster_count(),
            topo.subcluster_count());
  for (std::size_t m = 0; m < topo.machine_count(); ++m) {
    const MachineId id(static_cast<std::int32_t>(m));
    EXPECT_EQ(plan.ShardOf(id), 0);
    EXPECT_EQ(plan.LocalOf(id), id) << "K=1 local ids must equal global ids";
    EXPECT_EQ(plan.GlobalOf(0, id), id);
  }
}

TEST(ShardPlan, PartitionCoversEveryMachineExactlyOnce) {
  const Topology topo = Topology::Uniform(48, ResourceVector::Cores(32, 64),
                                          8, 3);
  for (const int k : {2, 4, 16, 48}) {
    const ShardPlan plan = ShardPlan::Build(topo, k);
    ASSERT_EQ(plan.shard_count(), k);
    std::vector<int> seen(topo.machine_count(), 0);
    std::size_t total = 0;
    for (int s = 0; s < k; ++s) {
      EXPECT_EQ(plan.shard_topology(s).machine_count(),
                plan.shard_machines(s).size());
      EXPECT_FALSE(plan.shard_machines(s).empty()) << "empty shard " << s;
      for (const MachineId g : plan.shard_machines(s)) {
        ++seen[static_cast<std::size_t>(g.value())];
        ++total;
        EXPECT_EQ(plan.ShardOf(g), s);
        // Roundtrip: global -> (shard, local) -> global.
        EXPECT_EQ(plan.GlobalOf(s, plan.LocalOf(g)), g);
        // The local machine keeps its capacity.
        EXPECT_EQ(plan.shard_topology(s).machine(plan.LocalOf(g)).capacity,
                  topo.machine(g).capacity);
      }
    }
    EXPECT_EQ(total, topo.machine_count()) << "k=" << k;
    for (const int count : seen) EXPECT_EQ(count, 1) << "k=" << k;
  }
}

TEST(ShardPlan, RackGranularitySplitKeepsRacksWhole) {
  // 6 racks, 2 subclusters: K=4 exceeds the subcluster count, so the split
  // falls back to rack granularity — every rack's machines stay together.
  const Topology topo = Topology::Uniform(48, ResourceVector::Cores(32, 64),
                                          8, 3);
  ASSERT_LT(topo.subcluster_count(), 4u);
  ASSERT_GE(topo.rack_count(), 4u);
  const ShardPlan plan = ShardPlan::Build(topo, 4);
  for (std::size_t r = 0; r < topo.rack_count(); ++r) {
    const auto machines =
        topo.RackMachines(RackId(static_cast<std::int32_t>(r)));
    ASSERT_FALSE(machines.empty());
    const std::int32_t shard = plan.ShardOf(machines.front());
    for (const MachineId m : machines) {
      EXPECT_EQ(plan.ShardOf(m), shard) << "rack " << r << " split apart";
    }
  }
  // Greedy balance at rack granularity: 6 equal racks over 4 shards means
  // no shard holds more than 2 racks' worth of machines.
  for (int s = 0; s < 4; ++s) {
    EXPECT_LE(plan.shard_machines(s).size(), 16u);
    EXPECT_GE(plan.shard_machines(s).size(), 8u);
  }
}

TEST(ShardPlan, ShardCountClampsToMachineCount) {
  const Topology topo = Topology::Uniform(5, ResourceVector::Cores(4, 8), 2, 2);
  const ShardPlan plan = ShardPlan::Build(topo, 64);
  EXPECT_EQ(plan.shard_count(), 5);
  for (int s = 0; s < 5; ++s) {
    EXPECT_EQ(plan.shard_machines(s).size(), 1u);
  }
}

// -------------------------------------------------------- touch replay ----

std::vector<ContainerId> Residents(const cluster::ClusterState& state,
                                   MachineId m) {
  const auto list = state.DeployedOn(m);
  return {list.begin(), list.end()};
}

// The oracle for ShardView::Replay: random Deploy / Evict / Migrate /
// Preempt calls on a state, replayed touch by touch into a K=1 mirror built
// at the start, leave the mirror identical to the state after every step —
// placements, each machine's resident order, and a clean consistency audit.
TEST(ShardView, ReplayedTouchesReproduceEveryStep) {
  const Topology topo = Topology::Uniform(6, ResourceVector::Cores(8, 16),
                                          3, 2);
  Workload wl;
  wl.AddApplication("small", 16, ResourceVector::Cores(1, 2));
  wl.AddApplication("large", 8, ResourceVector::Cores(3, 6));
  cluster::ClusterState global = wl.MakeState(topo);
  global.EnableTouchLog();
  // Two residents per machine, so the mirror's initial order is checked.
  for (std::int32_t c = 0; c < 12; ++c) {
    global.Deploy(ContainerId(c), MachineId(c % 6));
  }

  const ShardPlan plan = ShardPlan::Build(topo, 1);
  cluster::ShardView view(plan, 0, global);
  std::uint64_t cursor = global.TouchLogEnd();
  const auto containers = static_cast<std::int64_t>(wl.container_count());
  const auto machines = static_cast<std::int64_t>(topo.machine_count());
  Rng rng(2026);
  for (int step = 0; step < 600; ++step) {
    const ContainerId c(
        static_cast<std::int32_t>(rng.UniformInt(0, containers - 1)));
    const MachineId m(
        static_cast<std::int32_t>(rng.UniformInt(0, machines - 1)));
    if (!global.IsPlaced(c)) {
      if (global.Fits(c, m)) global.Deploy(c, m);
    } else {
      switch (rng.UniformInt(0, 2)) {
        case 0:
          global.Evict(c);
          break;
        case 1:
          global.Preempt(c);
          break;
        default:
          if (global.PlacementOf(c) != m && global.Fits(c, m)) {
            global.Migrate(c, m);
          }
          break;
      }
    }
    bool overflowed = true;
    for (const cluster::Touch& touch :
         global.TouchesSince(cursor, &overflowed)) {
      view.Replay(touch);
    }
    ASSERT_FALSE(overflowed);
    cursor = global.TouchLogEnd();

    EXPECT_EQ(Placements(view.state(), wl.container_count()),
              Placements(global, wl.container_count()))
        << "step " << step;
    for (std::int64_t mi = 0; mi < machines; ++mi) {
      const MachineId machine(static_cast<std::int32_t>(mi));
      EXPECT_EQ(Residents(view.state(), machine), Residents(global, machine))
          << "step " << step << " machine " << mi;
    }
    std::string error;
    ASSERT_TRUE(view.state().CheckConsistency(&error))
        << "step " << step << ": " << error;
  }
}

// Churn past the touch-log cap between two Schedule() calls leaves the
// coordinator's cursor off the log: it rebuilds every mirror (so each
// shard's solver rebuilds its network too), and afterwards every mirror
// machine holds exactly its global residents.
TEST(ShardedSync, CursorOverflowRebuildsEveryMirror) {
  const Topology topo =
      Topology::Uniform(48, ResourceVector::Cores(32, 64), 8, 3);
  Workload wl;
  cluster::ClusterState state = wl.MakeState(topo);
  core::ShardedOptions options;
  options.shards = 4;
  core::ShardedScheduler scheduler(options);
  Rng rng(31);
  const auto schedule_wave = [&] {
    std::vector<ContainerId> pending = GrowWave(wl, rng, 8);
    state.SyncWorkloadGrowth();
    const sim::ScheduleRequest request{&wl, &pending};
    (void)scheduler.Schedule(request, state);
  };
  schedule_wave();

  // Net change the mirrors must pick up (every third placement evicted),
  // then churn that returns one container to its machine: several times the
  // 4,096-touch cap floor this small cluster is held to.
  std::vector<ContainerId> placed;
  for (const auto& c : wl.containers()) {
    if (state.IsPlaced(c.id)) placed.push_back(c.id);
  }
  ASSERT_GE(placed.size(), 4u);
  for (std::size_t i = 0; i < placed.size(); i += 3) state.Evict(placed[i]);
  const ContainerId churner = placed[1];
  const MachineId home = state.PlacementOf(churner);
  for (int i = 0; i < 3 * 4096; ++i) {
    state.Evict(churner);
    state.Deploy(churner, home);
  }

  obs::SetMetricsEnabled(true);
  const std::int64_t builds_before = CounterValue("core/net_builds");
  schedule_wave();
  const std::int64_t builds_after = CounterValue("core/net_builds");
  obs::SetMetricsEnabled(false);
  EXPECT_GT(builds_after, builds_before)
      << "rebuilt mirrors are new states: their solvers must re-attach";

  EXPECT_TRUE(state.CheckConsistency());
  const ShardPlan& plan = *scheduler.plan();
  for (int s = 0; s < plan.shard_count(); ++s) {
    const cluster::ClusterState& mirror =
        core::ShardedSchedulerTestPeer::View(scheduler, s).state();
    EXPECT_TRUE(mirror.CheckConsistency()) << "shard " << s;
    const auto shard_machines = plan.shard_machines(s);
    for (std::size_t local = 0; local < shard_machines.size(); ++local) {
      std::vector<ContainerId> have =
          Residents(mirror, MachineId(static_cast<std::int32_t>(local)));
      std::vector<ContainerId> want = Residents(state, shard_machines[local]);
      std::sort(have.begin(), have.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(have, want) << "shard " << s << " local machine " << local;
    }
  }
}

// ------------------------------------------------- sharded equivalence ----

// The journal stream as JSONL lines: a full-fidelity, diffable fingerprint
// (seq, tick, kind, cause, ids, detail, shard) of one run's decisions.
std::vector<std::string> JournalLines() {
  std::vector<std::string> lines;
  for (const obs::Decision& d : obs::JournalSnapshot()) {
    lines.push_back(obs::DecisionToJson(d));
  }
  return lines;
}

// Drives `scheduler` through `waves` waves of growth + scripted churn on
// `state`, journaling every decision. Returns the journal lines; placements
// stay in `state`. The churn script depends only on (wl, state), so two
// equivalent schedulers see identical inputs every wave.
std::vector<std::string> DriveWaves(sim::Scheduler& scheduler,
                                    Workload& wl,
                                    cluster::ClusterState& state, int waves,
                                    std::uint64_t seed,
                                    sim::ScheduleOutcome* last_outcome) {
  Rng rng(seed);
  obs::StartJournal();  // flight-recorder mode: in-memory ring only
  for (int wave = 0; wave < waves; ++wave) {
    obs::SetJournalTick(wave);
    (void)GrowWave(wl, rng, 4);
    state.SyncWorkloadGrowth();
    // External churn the coordinator only learns about via the touch log.
    std::vector<ContainerId> placed;
    for (const auto& c : wl.containers()) {
      if (state.IsPlaced(c.id)) placed.push_back(c.id);
    }
    for (std::size_t i = 0; i < placed.size(); i += 5) state.Evict(placed[i]);

    std::vector<ContainerId> pending;
    for (const auto& c : wl.containers()) {
      if (!state.IsPlaced(c.id)) pending.push_back(c.id);
    }
    const sim::ScheduleRequest request{&wl, &pending};
    const sim::ScheduleOutcome outcome = scheduler.Schedule(request, state);
    if (last_outcome != nullptr) *last_outcome = outcome;
    EXPECT_TRUE(state.CheckConsistency()) << "wave " << wave;
  }
  std::vector<std::string> lines = JournalLines();
  obs::StopJournal();
  return lines;
}

TEST(ShardedEquivalence, KOneMatchesUnshardedBitIdentical) {
  const Topology topo =
      Topology::Uniform(48, ResourceVector::Cores(32, 64), 8, 3);

  const core::AladdinOptions inner;

  Workload wl_a;
  cluster::ClusterState state_a = wl_a.MakeState(topo);
  core::AladdinScheduler unsharded(inner);
  sim::ScheduleOutcome outcome_a;
  const std::vector<std::string> journal_a =
      DriveWaves(unsharded, wl_a, state_a, 6, 2024, &outcome_a);

  Workload wl_b;
  cluster::ClusterState state_b = wl_b.MakeState(topo);
  core::ShardedOptions sharded_options;
  sharded_options.shards = 1;
  sharded_options.aladdin = inner;
  core::ShardedScheduler sharded(sharded_options);
  sim::ScheduleOutcome outcome_b;
  const std::vector<std::string> journal_b =
      DriveWaves(sharded, wl_b, state_b, 6, 2024, &outcome_b);

  EXPECT_EQ(Placements(state_a, wl_a.container_count()),
            Placements(state_b, wl_b.container_count()));
  EXPECT_EQ(state_a.migrations(), state_b.migrations());
  EXPECT_EQ(state_a.preemptions(), state_b.preemptions());
  EXPECT_EQ(outcome_a.unplaced, outcome_b.unplaced);
  EXPECT_EQ(outcome_a.unplaced_causes, outcome_b.unplaced_causes);
  EXPECT_EQ(outcome_a.explored_paths, outcome_b.explored_paths);
  EXPECT_EQ(outcome_a.il_prunes, outcome_b.il_prunes);
  EXPECT_EQ(outcome_a.dl_stops, outcome_b.dl_stops);
  EXPECT_EQ(outcome_a.rounds, outcome_b.rounds);
  // Bit-identity extends to the provenance stream: same records, same seq
  // order, same JSON bytes (K=1 stamps shard=-1, exactly like unsharded).
  EXPECT_EQ(journal_a, journal_b);
}

TEST(ShardedEquivalence, FixedKIsIdenticalAcrossThreadCounts) {
  const Topology topo =
      Topology::Uniform(48, ResourceVector::Cores(32, 64), 8, 3);
  for (const int k : {1, 4, 16}) {
    std::vector<MachineId> reference_placements;
    std::vector<std::string> reference_journal;
    bool have_reference = false;
    for (const int threads : {1, 8}) {
      Workload wl;
      cluster::ClusterState state = wl.MakeState(topo);
      core::ShardedOptions options;
      options.shards = k;
      options.aladdin.threads = threads;
      core::ShardedScheduler scheduler(options);
      const std::vector<std::string> journal =
          DriveWaves(scheduler, wl, state, 5, 7 + static_cast<std::uint64_t>(k),
                     nullptr);
      const std::vector<MachineId> placements =
          Placements(state, wl.container_count());
      if (!have_reference) {
        reference_placements = placements;
        reference_journal = journal;
        have_reference = true;
      } else {
        const std::string label =
            "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
        EXPECT_EQ(placements, reference_placements) << label;
        EXPECT_EQ(journal, reference_journal) << label;
      }
    }
  }
}

TEST(ShardedEquivalence, RestartedCoordinatorRoutesIdentically) {
  // Two fresh coordinators — a process restart in miniature — must route
  // and place identically under every policy: routing may depend only on
  // the workload, the state and the arrival order, never on process state.
  const Topology topo =
      Topology::Uniform(48, ResourceVector::Cores(32, 64), 8, 3);
  for (const core::ShardRouting routing :
       {core::ShardRouting::kHash, core::ShardRouting::kLeastUtilized}) {
    core::ShardedOptions options;
    options.shards = 4;
    options.routing = routing;

    std::vector<MachineId> reference;
    for (int incarnation = 0; incarnation < 2; ++incarnation) {
      Workload wl;
      cluster::ClusterState state = wl.MakeState(topo);
      core::ShardedScheduler scheduler(options);
      Rng rng(11);
      for (int wave = 0; wave < 4; ++wave) {
        std::vector<ContainerId> pending = GrowWave(wl, rng, 5);
        state.SyncWorkloadGrowth();
        const sim::ScheduleRequest request{&wl, &pending};
        (void)scheduler.Schedule(request, state);
      }
      const std::vector<MachineId> placements =
          Placements(state, wl.container_count());
      if (incarnation == 0) {
        reference = placements;
      } else {
        EXPECT_EQ(placements, reference)
            << "routing=" << core::ShardRoutingName(routing);
      }
    }
  }
}

// ------------------------------------------ cross-shard anti-affinity ----

TEST(ShardedAntiAffinity, BlacklistExchangeVetoesFullyConflictedShard) {
  // Two subclusters -> two shards. Shard 0's machines are far bigger, so
  // least-utilized routing would pick shard 0 for everything — but app B
  // conflicts with app A, which occupies every shard-0 machine. The
  // blacklist-exchange round must veto shard 0 (zero eligible machines)
  // and land B on shard 1 with no colocation violation.
  Topology topo;
  const SubClusterId sub0 = topo.AddSubCluster();
  const RackId rack0 = topo.AddRack(sub0);
  const MachineId m0 = topo.AddMachine(rack0, ResourceVector::Cores(64, 128));
  const MachineId m1 = topo.AddMachine(rack0, ResourceVector::Cores(64, 128));
  const SubClusterId sub1 = topo.AddSubCluster();
  const RackId rack1 = topo.AddRack(sub1);
  (void)topo.AddMachine(rack1, ResourceVector::Cores(8, 16));
  (void)topo.AddMachine(rack1, ResourceVector::Cores(8, 16));

  Workload wl;
  const ApplicationId a =
      wl.AddApplication("a", 2, ResourceVector::Cores(2, 4));
  const ApplicationId b =
      wl.AddApplication("b", 2, ResourceVector::Cores(2, 4));
  wl.AddAntiAffinity(a, b);

  cluster::ClusterState state = wl.MakeState(topo);
  // App A occupies both shard-0 machines before the coordinator attaches.
  state.Deploy(ContainerId(0), m0);
  state.Deploy(ContainerId(1), m1);

  core::ShardedOptions options;
  options.shards = 2;
  options.routing = core::ShardRouting::kLeastUtilized;
  core::ShardedScheduler scheduler(options);
  ASSERT_EQ(scheduler.name(), "Aladdin-sharded(2xleast-utilized)");

  std::vector<ContainerId> pending = {ContainerId(2), ContainerId(3)};
  const sim::ScheduleRequest request{&wl, &pending};
  const sim::ScheduleOutcome outcome = scheduler.Schedule(request, state);

  EXPECT_TRUE(outcome.unplaced.empty())
      << "B must land on shard 1, not die on blacklisted shard 0";
  ASSERT_NE(scheduler.plan(), nullptr);
  for (const ContainerId c : {ContainerId(2), ContainerId(3)}) {
    const MachineId m = state.PlacementOf(c);
    ASSERT_TRUE(m.valid());
    EXPECT_EQ(scheduler.plan()->ShardOf(m), 1) << "container " << c.value();
  }
  EXPECT_TRUE(cluster::CollectColocationViolations(state).empty());
  EXPECT_EQ(cluster::Audit(state).colocation_violations, 0u);
  EXPECT_TRUE(state.CheckConsistency());
}

// ---------------------------------------------------------------- spill ----

TEST(ShardedSpill, OverflowingHomeShardSpillsToUntriedShard) {
  // Shard 0 (one 10-core machine) out-frees shard 1 (one 8-core machine),
  // so least-utilized homes the whole 16-container wave on shard 0. Only 10
  // fit; the spill round must re-route the remainder to shard 1.
  Topology topo;
  const SubClusterId sub0 = topo.AddSubCluster();
  (void)topo.AddMachine(topo.AddRack(sub0), ResourceVector::Cores(10, 100));
  const SubClusterId sub1 = topo.AddSubCluster();
  (void)topo.AddMachine(topo.AddRack(sub1), ResourceVector::Cores(8, 100));

  Workload wl;
  wl.AddApplication("wave", 16, ResourceVector::Cores(1, 1));
  cluster::ClusterState state = wl.MakeState(topo);

  core::ShardedOptions options;
  options.shards = 2;
  options.routing = core::ShardRouting::kLeastUtilized;
  core::ShardedScheduler scheduler(options);

  std::vector<ContainerId> pending;
  for (const auto& c : wl.containers()) pending.push_back(c.id);
  const sim::ScheduleRequest request{&wl, &pending};
  const sim::ScheduleOutcome outcome = scheduler.Schedule(request, state);

  EXPECT_TRUE(outcome.unplaced.empty())
      << "10 on shard 0 + 6 spilled to shard 1";
  std::size_t on_shard0 = 0;
  std::size_t on_shard1 = 0;
  for (const auto& c : wl.containers()) {
    const MachineId m = state.PlacementOf(c.id);
    ASSERT_TRUE(m.valid());
    (scheduler.plan()->ShardOf(m) == 0 ? on_shard0 : on_shard1) += 1;
  }
  EXPECT_EQ(on_shard0, 10u);
  EXPECT_EQ(on_shard1, 6u);
  EXPECT_TRUE(state.CheckConsistency());
}

TEST(ShardedSpill, OverCapacityWaveSurfacesUnplacedAfterSpill) {
  // Same pair, 20 containers for 18 cores: 10 land on the home shard, the
  // spill round places 8 more on shard 1, and the last 2 have no untried
  // shard left. They must surface as unplaced with a terminal cause.
  Topology topo;
  (void)topo.AddMachine(topo.AddRack(topo.AddSubCluster()),
                        ResourceVector::Cores(10, 100));
  (void)topo.AddMachine(topo.AddRack(topo.AddSubCluster()),
                        ResourceVector::Cores(8, 100));

  Workload wl;
  wl.AddApplication("wave", 20, ResourceVector::Cores(1, 1));
  cluster::ClusterState state = wl.MakeState(topo);

  core::ShardedOptions options;
  options.shards = 2;
  options.routing = core::ShardRouting::kLeastUtilized;
  core::ShardedScheduler scheduler(options);

  std::vector<ContainerId> pending;
  for (const auto& c : wl.containers()) pending.push_back(c.id);
  const sim::ScheduleRequest request{&wl, &pending};
  const sim::ScheduleOutcome outcome = scheduler.Schedule(request, state);
  EXPECT_EQ(outcome.unplaced.size(), 2u);
  ASSERT_EQ(outcome.unplaced_causes.size(), outcome.unplaced.size())
      << "causes stay parallel to unplaced";
  for (const obs::Cause cause : outcome.unplaced_causes) {
    EXPECT_NE(cause, obs::Cause::kNone);
  }
  const auto& stats = scheduler.last_shard_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[1].spilled, 10u) << "the home shard's overflow spilled";
  EXPECT_EQ(stats[0].placed + stats[1].placed, 18u);
  EXPECT_TRUE(state.CheckConsistency());
}

// ------------------------------------------------------------ re-attach ----

TEST(ShardedReattach, TickWithoutNewApplicationRoutesAfresh) {
  // Schedule() on a state with a new instance id (the resolver's rebuild
  // after a node change) re-attaches: new plan, new mirrors, and every
  // application routed afresh, also on a tick that adds no application.
  // The routing table must still cover every application with in-plan
  // homes, and the placements must equal a fresh coordinator's.
  const Topology topo =
      Topology::Uniform(48, ResourceVector::Cores(32, 64), 8, 3);
  Workload wl;
  cluster::ClusterState state = wl.MakeState(topo);
  core::ShardedOptions options;
  options.shards = 4;
  core::ShardedScheduler scheduler(options);
  Rng rng(17);
  const std::vector<ContainerId> first = GrowWave(wl, rng, 12);
  state.SyncWorkloadGrowth();
  (void)scheduler.Schedule(sim::ScheduleRequest{&wl, &first}, state);

  // The next wave re-submits evicted containers of existing applications.
  std::vector<ContainerId> next;
  for (const auto& c : wl.containers()) {
    if (state.IsPlaced(c.id) && c.id.value() % 3 == 0) state.Evict(c.id);
    if (!state.IsPlaced(c.id)) next.push_back(c.id);
  }
  ASSERT_FALSE(next.empty());
  cluster::ClusterState copy = state;  // a fresh instance id
  cluster::ClusterState fresh_copy = state;
  ASSERT_NE(copy.instance_id(), state.instance_id());
  (void)scheduler.Schedule(sim::ScheduleRequest{&wl, &next}, copy);

  const std::vector<std::int32_t> homes =
      core::ShardedSchedulerTestPeer::Homes(scheduler);
  ASSERT_GE(homes.size(), wl.application_count())
      << "the re-attach dropped routing-table rows";
  const int k = scheduler.plan()->shard_count();
  for (std::size_t app = 0; app < homes.size(); ++app) {
    EXPECT_LT(homes[app], k) << "application " << app;
  }

  core::ShardedScheduler fresh(options);
  (void)fresh.Schedule(sim::ScheduleRequest{&wl, &next}, fresh_copy);
  EXPECT_EQ(Placements(copy, wl.container_count()),
            Placements(fresh_copy, wl.container_count()));
  EXPECT_TRUE(copy.CheckConsistency());
}

// ------------------------------------------------- resolver end-to-end ----

TEST(ResolverSharded, MultiShardRunStaysConsistent) {
  k8s::ResolverOptions options;
  options.shards = 4;

  k8s::ClusterSimulator sim(options);
  sim.AddNodes(16, cluster::ResourceVector::Cores(32, 64), "node", 4, 2);
  std::vector<k8s::ResolveStats> history;
  RunScript(sim, 9,
            [&history](const k8s::ResolveStats& stats,
                       const std::vector<k8s::Binding>&) {
              history.push_back(stats);
            });

  ASSERT_FALSE(history.empty());
  // Per-shard breakdown present and accounted: routed covers every shard.
  const auto& last = history.back();
  ASSERT_EQ(last.shards.size(), 4u);
  std::size_t machines = 0;
  for (const auto& shard : last.shards) machines += shard.machines;
  EXPECT_EQ(machines, 15u) << "node-7 was removed at tick 5";
  std::size_t bound = 0;
  for (const auto& tick : history) bound += tick.new_bindings;
  EXPECT_GT(bound, 0u);
}

}  // namespace
}  // namespace aladdin
