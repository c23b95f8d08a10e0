// Oracle-based property and fuzz tests.
//
// Each test pits an optimised implementation against a brute-force oracle
// (or an invariant recomputed from first principles) across many random
// configurations:
//   * ClusterState under random operation sequences vs recomputed free
//     resources and blacklists;
//   * AggregatedNetwork::FindMachine vs exhaustive tightest-admissible scan;
//   * the repair engine's all-or-nothing transaction semantics;
//   * min-cost max-flow vs the plain max-flow value;
//   * the auditor's colocation count vs a quadratic recount;
//   * the trace generator's guarantees across a seed sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/audit.h"
#include "common/rng.h"
#include "core/migration.h"
#include "core/network.h"
#include "core/scheduler.h"
#include "core/weights.h"
#include "flow/max_flow.h"
#include "flow/min_cost_flow.h"
#include "sim/experiment.h"
#include "trace/alibaba_gen.h"
#include "trace/trace_stats.h"

namespace aladdin {
namespace {

using cluster::ApplicationId;
using cluster::ContainerId;
using cluster::MachineId;
using cluster::ResourceVector;
using cluster::Topology;
using trace::Workload;

// Builds a random small workload with mixed constraints.
Workload RandomWorkload(Rng& rng, std::size_t apps) {
  Workload wl;
  for (std::size_t i = 0; i < apps; ++i) {
    const auto replicas = static_cast<std::size_t>(rng.UniformInt(1, 6));
    const ResourceVector request(rng.UniformInt(1, 8) * 1000,
                                 rng.UniformInt(1, 16) * 1024);
    const auto priority =
        static_cast<cluster::Priority>(rng.UniformInt(0, 3));
    wl.AddApplication("app-" + std::to_string(i), replicas, request, priority,
                      rng.Bernoulli(0.5));
  }
  // Sparse cross rules.
  for (std::size_t i = 0; i + 1 < apps; ++i) {
    if (rng.Bernoulli(0.3)) {
      const auto other = static_cast<std::int32_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(apps) - 1));
      wl.AddAntiAffinity(ApplicationId(static_cast<std::int32_t>(i)),
                         ApplicationId(other));
    }
  }
  return wl;
}

// Oracle: is `c` blacklisted on `m` by direct pairwise recount?
bool BlacklistOracle(const cluster::ClusterState& state, ContainerId c,
                     MachineId m) {
  const auto app =
      state.containers()[static_cast<std::size_t>(c.value())].app;
  for (ContainerId other : state.DeployedOn(m)) {
    const auto other_app =
        state.containers()[static_cast<std::size_t>(other.value())].app;
    if (state.constraints().Conflicts(app, other_app)) return true;
  }
  return false;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, ClusterStateRandomOperationSequence) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Workload wl = RandomWorkload(rng, 8);
  const Topology topo = Topology::Uniform(6, ResourceVector::Cores(16, 32));
  auto state = wl.MakeState(topo);

  std::vector<ContainerId> placed;
  std::vector<ContainerId> unplaced;
  for (const auto& c : wl.containers()) unplaced.push_back(c.id);

  for (int step = 0; step < 300; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 3));
    if (op == 0 && !unplaced.empty()) {  // deploy somewhere it fits
      const auto pick = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(unplaced.size()) - 1));
      const ContainerId c = unplaced[pick];
      const MachineId m(static_cast<std::int32_t>(rng.UniformInt(0, 5)));
      if (state.Fits(c, m)) {
        state.Deploy(c, m);
        unplaced.erase(unplaced.begin() + static_cast<std::ptrdiff_t>(pick));
        placed.push_back(c);
      }
    } else if (op == 1 && !placed.empty()) {  // evict
      const auto pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(placed.size()) - 1));
      const ContainerId c = placed[pick];
      state.Evict(c);
      placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(pick));
      unplaced.push_back(c);
    } else if (op == 2 && !placed.empty()) {  // migrate
      const auto pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(placed.size()) - 1));
      const ContainerId c = placed[pick];
      const MachineId to(static_cast<std::int32_t>(rng.UniformInt(0, 5)));
      if (to != state.PlacementOf(c) && state.Fits(c, to)) {
        // Fits() is against current free; after evicting c it only grows.
        state.Migrate(c, to);
      }
    } else if (op == 3 && !placed.empty()) {  // preempt
      const auto pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(placed.size()) - 1));
      const ContainerId c = placed[pick];
      state.Preempt(c);
      placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(pick));
      unplaced.push_back(c);
    }
    // Invariants after every step.
    ASSERT_TRUE(state.CheckConsistency()) << "step " << step;
  }
  // Blacklist agrees with the pairwise oracle everywhere.
  for (const auto& c : wl.containers()) {
    if (state.IsPlaced(c.id)) continue;
    for (std::size_t mi = 0; mi < topo.machine_count(); ++mi) {
      const MachineId m(static_cast<std::int32_t>(mi));
      EXPECT_EQ(state.Blacklisted(c.id, m), BlacklistOracle(state, c.id, m));
    }
  }
}

TEST_P(FuzzTest, FindMachineMatchesBruteForceOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const Workload wl = RandomWorkload(rng, 10);
  const Topology topo = Topology::Uniform(8, ResourceVector::Cores(16, 32), 4, 2);
  auto state = wl.MakeState(topo);
  core::AggregatedNetwork network(topo);
  network.Attach(&state);
  core::SearchCounters counters;

  // Random pre-placement through the network (keeps indices coherent).
  for (const auto& c : wl.containers()) {
    if (!rng.Bernoulli(0.5)) continue;
    const MachineId m(static_cast<std::int32_t>(rng.UniformInt(0, 7)));
    if (state.Fits(c.id, m)) network.Deploy(c.id, m);
  }

  // Oracle: tightest admissible machine by exhaustive scan, ties by id.
  auto oracle = [&](ContainerId c) {
    MachineId best = MachineId::Invalid();
    std::int64_t best_free = 0;
    for (std::size_t mi = 0; mi < topo.machine_count(); ++mi) {
      const MachineId m(static_cast<std::int32_t>(mi));
      if (!state.CanPlace(c, m)) continue;
      const std::int64_t free = state.Free(m).cpu_millis();
      if (!best.valid() || free < best_free ||
          (free == best_free && m < best)) {
        best = m;
        best_free = free;
      }
    }
    return best;
  };

  for (const auto& c : wl.containers()) {
    if (state.IsPlaced(c.id)) continue;
    const MachineId expected = oracle(c.id);
    for (const core::SearchOptions& options :
         {core::SearchOptions{false, false}, core::SearchOptions{true, false},
          core::SearchOptions{true, true}}) {
      EXPECT_EQ(network.FindMachine(c.id, options, counters), expected)
          << "container " << c.id << " il=" << options.enable_il
          << " dl=" << options.enable_dl;
    }
  }
}

TEST_P(FuzzTest, RepairTransactionsNeverCorruptState) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  const Workload wl = RandomWorkload(rng, 12);
  const Topology topo = Topology::Uniform(5, ResourceVector::Cores(16, 32));
  auto state = wl.MakeState(topo);
  core::AggregatedNetwork network(topo);
  network.Attach(&state);
  core::SearchCounters counters;

  // Phase-1-style fill.
  std::vector<ContainerId> pending;
  for (const auto& c : wl.containers()) {
    const MachineId m =
        network.FindMachine(c.id, core::SearchOptions{}, counters);
    if (m.valid()) {
      network.Deploy(c.id, m);
    } else {
      pending.push_back(c.id);
    }
  }
  const core::PriorityWeights weights = core::ComputeMinimalWeights(wl);
  std::int64_t flow_before = 0;
  for (const auto& c : wl.containers()) {
    if (state.IsPlaced(c.id)) flow_before += weights.WeightedFlow(c);
  }

  core::RepairEngine repair(network, weights);
  const auto still_unplaced =
      repair.Repair(pending, core::SearchOptions{}, counters);

  EXPECT_TRUE(state.CheckConsistency());
  // Eq. 9 monotonicity: every repair transaction admits at least as much
  // weighted flow as it displaces, so the objective never shrinks.
  auto total_weighted_flow = [&] {
    std::int64_t total = 0;
    for (const auto& c : wl.containers()) {
      if (state.IsPlaced(c.id)) total += weights.WeightedFlow(c);
    }
    return total;
  };
  EXPECT_GE(total_weighted_flow(), flow_before);
  // Everything is accounted: placed + reported-unplaced == total.
  EXPECT_EQ(state.placed_count() + still_unplaced.size(),
            wl.container_count());
  // Repair introduces no constraint violations.
  EXPECT_TRUE(cluster::CollectColocationViolations(state).empty());
}

TEST_P(FuzzTest, MinCostFlowValueEqualsMaxFlow) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
  flow::Graph g1;
  const std::size_t n = 12;
  for (std::size_t i = 0; i < n; ++i) g1.AddVertex();
  const VertexId s(0), t(static_cast<std::int32_t>(n - 1));
  for (int e = 0; e < 40; ++e) {
    const auto a = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
    const auto b = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
    if (a == b) continue;
    g1.AddArc(VertexId(a), VertexId(b), rng.UniformInt(1, 9),
              rng.UniformInt(0, 5));
  }
  flow::Graph g2 = g1;
  EXPECT_EQ(flow::MinCostMaxFlow(g1, s, t).flow, flow::Dinic(g2, s, t).value);
}

TEST_P(FuzzTest, AuditColocationsMatchQuadraticRecount) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 400);
  const Workload wl = RandomWorkload(rng, 10);
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  auto state = wl.MakeState(topo);
  // Random constraint-oblivious placement (violations likely).
  for (const auto& c : wl.containers()) {
    const MachineId m(static_cast<std::int32_t>(rng.UniformInt(0, 3)));
    if (state.Fits(c.id, m)) state.Deploy(c.id, m);
  }
  // Quadratic oracle: every placed container that conflicts with any
  // earlier-id placed container on the same machine.
  std::set<ContainerId> offenders;
  for (const auto& a : wl.containers()) {
    if (!state.IsPlaced(a.id)) continue;
    for (const auto& b : wl.containers()) {
      if (b.id <= a.id || !state.IsPlaced(b.id)) continue;
      if (state.PlacementOf(a.id) != state.PlacementOf(b.id)) continue;
      if (wl.constraints().Conflicts(a.app, b.app)) {
        offenders.insert(b.id);  // blame the later id, as the auditor does
      }
    }
  }
  const auto reported = cluster::CollectColocationViolations(state);
  EXPECT_EQ(std::set<ContainerId>(reported.begin(), reported.end()),
            offenders);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(1, 26));

TEST(HeavyFuzz, SearchOracleAndRepairInvariantsAcrossVariedClusters) {
  // Broad-spectrum version of the per-seed fuzzers above: varied machine
  // counts AND capacities, denser conflict graphs, all three search
  // policies against the brute-force oracle, then repair invariants.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 31 + 5);
    Workload wl;
    const auto napps = static_cast<std::size_t>(rng.UniformInt(3, 16));
    for (std::size_t i = 0; i < napps; ++i) {
      wl.AddApplication(
          "a" + std::to_string(i),
          static_cast<std::size_t>(rng.UniformInt(1, 8)),
          ResourceVector(rng.UniformInt(1, 12) * 1000,
                         rng.UniformInt(1, 24) * 1024),
          static_cast<cluster::Priority>(rng.UniformInt(0, 3)),
          rng.Bernoulli(0.5));
    }
    for (int r = 0; r < 6; ++r) {
      wl.AddAntiAffinity(
          ApplicationId(static_cast<std::int32_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(napps) - 1))),
          ApplicationId(static_cast<std::int32_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(napps) - 1))));
    }
    const auto nmach = static_cast<std::size_t>(rng.UniformInt(2, 12));
    const Topology topo = Topology::Uniform(
        nmach, ResourceVector::Cores(rng.UniformInt(8, 64), 128), 3, 2);
    auto state = wl.MakeState(topo);
    core::AggregatedNetwork net(topo);
    net.Attach(&state);
    core::SearchCounters counters;
    for (const auto& c : wl.containers()) {
      if (!rng.Bernoulli(0.5)) continue;
      const MachineId m(static_cast<std::int32_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(nmach) - 1)));
      if (state.CanPlace(c.id, m)) net.Deploy(c.id, m);
    }
    for (const auto& c : wl.containers()) {
      if (state.IsPlaced(c.id)) continue;
      MachineId best = MachineId::Invalid();
      std::int64_t best_free = 0;
      for (std::size_t mi = 0; mi < nmach; ++mi) {
        const MachineId m(static_cast<std::int32_t>(mi));
        if (!state.CanPlace(c.id, m)) continue;
        const auto free = state.Free(m).cpu_millis();
        if (!best.valid() || free < best_free ||
            (free == best_free && m < best)) {
          best = m;
          best_free = free;
        }
      }
      for (auto opt :
           {core::SearchOptions{false, false}, core::SearchOptions{true, false},
            core::SearchOptions{true, true}}) {
        ASSERT_EQ(net.FindMachine(c.id, opt, counters), best)
            << "seed " << seed << " container " << c.id;
        ++checked;
      }
    }
    std::vector<ContainerId> pending;
    for (const auto& c : wl.containers()) {
      if (!state.IsPlaced(c.id)) pending.push_back(c.id);
    }
    const auto weights = core::ComputeMinimalWeights(wl);
    std::int64_t flow_before = 0;
    for (const auto& c : wl.containers()) {
      if (state.IsPlaced(c.id)) flow_before += weights.WeightedFlow(c);
    }
    core::RepairEngine repair(net, weights);
    const auto left = repair.Repair(pending, core::SearchOptions{}, counters);
    std::int64_t flow_after = 0;
    for (const auto& c : wl.containers()) {
      if (state.IsPlaced(c.id)) flow_after += weights.WeightedFlow(c);
    }
    ASSERT_TRUE(state.CheckConsistency()) << "seed " << seed;
    ASSERT_GE(flow_after, flow_before) << "seed " << seed;
    ASSERT_TRUE(cluster::CollectColocationViolations(state).empty())
        << "seed " << seed;
    ASSERT_EQ(state.placed_count() + left.size(), wl.container_count())
        << "seed " << seed;
  }
  EXPECT_GT(checked, 100);  // the sweep actually exercised the oracle
}

// ------------------------------------------------- generator seed sweep ----

class GeneratorSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorSweepTest, InvariantsHoldAcrossSeeds) {
  trace::AlibabaTraceOptions options;
  options.scale = 0.03;
  options.seed = static_cast<std::uint64_t>(GetParam() * 1337 + 1);
  const Workload wl = trace::GenerateAlibabaLike(options);
  const trace::WorkloadStats stats = trace::ComputeWorkloadStats(wl);

  // Container total calibrated to +-4 % of target.
  EXPECT_NEAR(static_cast<double>(stats.containers), 3000.0, 120.0);
  // Singleton fraction near the paper's 64 %.
  EXPECT_NEAR(stats.SingleInstanceFraction(), 0.64, 0.08);
  // Demand calibrated to the target utilisation band of the matched
  // cluster (76 % +-5 %).
  double demand = 0.0;
  for (const auto& c : wl.containers()) {
    demand += static_cast<double>(c.request.cpu_millis());
  }
  const double capacity = 3000.0 * 3200.0;
  EXPECT_NEAR(demand / capacity, 0.76, 0.05);
  // Request cap respected.
  EXPECT_LE(stats.max_request.cpu_millis(), 16000);
  // No app exceeds the pigeonhole-safe size cap (6 % of containers).
  EXPECT_LE(stats.max_app_size, static_cast<std::size_t>(3000 * 6 / 100));
}

TEST_P(GeneratorSweepTest, AladdinPlacesEverythingAcrossSeeds) {
  trace::AlibabaTraceOptions options;
  options.scale = 0.03;
  options.seed = static_cast<std::uint64_t>(GetParam() * 1337 + 1);
  const Workload wl = trace::GenerateAlibabaLike(options);
  const Topology topo = trace::MakeAlibabaCluster(sim::BenchMachineCount(0.03));
  core::AladdinScheduler scheduler;
  const sim::RunMetrics m = sim::RunExperimentOn(
      scheduler, wl, topo, trace::ArrivalOrder::kRandom, 1);
  EXPECT_EQ(m.audit.unplaced, 0u) << "seed " << options.seed;
  EXPECT_EQ(m.audit.colocation_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSweepTest, ::testing::Range(1, 16));

}  // namespace
}  // namespace aladdin
