// Unit tests for src/cluster: resources, topology, constraints, mutable
// cluster state (incl. the Eq. 7–8 blacklist), the free index, and the
// violation auditor.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/audit.h"
#include "cluster/constraints.h"
#include "cluster/free_index.h"
#include "cluster/resources.h"
#include "cluster/state.h"
#include "cluster/topology.h"
#include "trace/workload.h"

namespace aladdin::cluster {
namespace {

// ---------------------------------------------------------- resources ----

TEST(ResourceVector, CoresConstructor) {
  const ResourceVector r = ResourceVector::Cores(4, 8);
  EXPECT_EQ(r.cpu_millis(), 4000);
  EXPECT_EQ(r.mem_mib(), 8 * 1024);
}

TEST(ResourceVector, FitsInIsComponentwise) {
  EXPECT_TRUE(ResourceVector(1000, 512).FitsIn(ResourceVector(1000, 512)));
  EXPECT_TRUE(ResourceVector(500, 100).FitsIn(ResourceVector(1000, 512)));
  EXPECT_FALSE(ResourceVector(2000, 100).FitsIn(ResourceVector(1000, 512)));
  EXPECT_FALSE(ResourceVector(500, 1024).FitsIn(ResourceVector(1000, 512)));
}

TEST(ResourceVector, Arithmetic) {
  ResourceVector a(1000, 512);
  a += ResourceVector(500, 256);
  EXPECT_EQ(a, ResourceVector(1500, 768));
  a -= ResourceVector(1500, 768);
  EXPECT_TRUE(a.IsZero());
  EXPECT_FALSE(a.AnyNegative());
  a -= ResourceVector(1, 0);
  EXPECT_TRUE(a.AnyNegative());
}

TEST(ResourceVector, DominantShare) {
  const ResourceVector cap = ResourceVector::Cores(32, 64);
  const ResourceVector used(16000, 16 * 1024);
  // CPU share 0.5, memory share 0.25 -> dominant 0.5.
  EXPECT_DOUBLE_EQ(used.DominantShareOf(cap), 0.5);
}

TEST(ResourceVector, DominantShareSkipsZeroCapacity) {
  const ResourceVector cap(32000, 0);  // CPU-only machine view
  const ResourceVector used(8000, 123456);
  EXPECT_DOUBLE_EQ(used.DominantShareOf(cap), 0.25);
}

TEST(ResourceVector, CpuOnlyDropsMemory) {
  const ResourceVector r = ResourceVector(1000, 512).CpuOnly();
  EXPECT_EQ(r.cpu_millis(), 1000);
  EXPECT_EQ(r.mem_mib(), 0);
}

TEST(ResourceVector, MaxMin) {
  const ResourceVector a(1, 10), b(5, 2);
  EXPECT_EQ(Max(a, b), ResourceVector(5, 10));
  EXPECT_EQ(Min(a, b), ResourceVector(1, 2));
}

// ----------------------------------------------------------- topology ----

TEST(Topology, UniformShape) {
  const Topology topo =
      Topology::Uniform(100, ResourceVector::Cores(32, 64), 10, 5);
  EXPECT_EQ(topo.machine_count(), 100u);
  EXPECT_EQ(topo.rack_count(), 10u);       // 100 / 10 per rack
  EXPECT_EQ(topo.subcluster_count(), 2u);  // 10 racks / 5 per subcluster
}

TEST(Topology, UniformPartialLastGroups) {
  const Topology topo =
      Topology::Uniform(25, ResourceVector::Cores(32, 64), 10, 2);
  EXPECT_EQ(topo.machine_count(), 25u);
  EXPECT_EQ(topo.rack_count(), 3u);  // 10 + 10 + 5
  EXPECT_EQ(topo.subcluster_count(), 2u);
}

TEST(Topology, MachineRackMembership) {
  const Topology topo =
      Topology::Uniform(20, ResourceVector::Cores(32, 64), 5, 2);
  for (const Machine& m : topo.machines()) {
    const auto rack_machines = topo.RackMachines(m.rack);
    EXPECT_NE(std::find(rack_machines.begin(), rack_machines.end(), m.id),
              rack_machines.end());
    EXPECT_EQ(topo.RackSubCluster(m.rack), m.subcluster);
  }
}

TEST(Topology, HeterogeneousConstruction) {
  Topology topo;
  const SubClusterId g = topo.AddSubCluster();
  const RackId r = topo.AddRack(g);
  const MachineId big = topo.AddMachine(r, ResourceVector::Cores(64, 128));
  const MachineId small = topo.AddMachine(r, ResourceVector::Cores(8, 16));
  EXPECT_EQ(topo.machine(big).capacity.cpu_millis(), 64000);
  EXPECT_EQ(topo.machine(small).capacity.cpu_millis(), 8000);
  EXPECT_EQ(topo.TotalCapacity().cpu_millis(), 72000);
}

// -------------------------------------------------------- constraints ----

TEST(ConstraintSet, SymmetricConflicts) {
  ConstraintSet cs(3);
  cs.AddAntiAffinity(ApplicationId(0), ApplicationId(1));
  EXPECT_TRUE(cs.Conflicts(ApplicationId(0), ApplicationId(1)));
  EXPECT_TRUE(cs.Conflicts(ApplicationId(1), ApplicationId(0)));
  EXPECT_FALSE(cs.Conflicts(ApplicationId(0), ApplicationId(2)));
}

TEST(ConstraintSet, WithinAppRule) {
  ConstraintSet cs(2);
  cs.AddAntiAffinity(ApplicationId(1), ApplicationId(1));
  EXPECT_TRUE(cs.HasWithinAntiAffinity(ApplicationId(1)));
  EXPECT_FALSE(cs.HasWithinAntiAffinity(ApplicationId(0)));
  EXPECT_TRUE(cs.Conflicts(ApplicationId(1), ApplicationId(1)));
}

TEST(ConstraintSet, DuplicateRulesIgnored) {
  ConstraintSet cs(2);
  cs.AddAntiAffinity(ApplicationId(0), ApplicationId(1));
  cs.AddAntiAffinity(ApplicationId(1), ApplicationId(0));
  cs.AddAntiAffinity(ApplicationId(0), ApplicationId(1));
  EXPECT_EQ(cs.rule_count(), 1u);
  EXPECT_EQ(cs.ConflictsOf(ApplicationId(0)).size(), 1u);
}

TEST(ConstraintSet, GrowsOnDemand) {
  ConstraintSet cs;
  cs.AddAntiAffinity(ApplicationId(5), ApplicationId(2));
  EXPECT_GE(cs.application_count(), 6u);
  EXPECT_TRUE(cs.Conflicts(ApplicationId(2), ApplicationId(5)));
}

TEST(ConstraintSet, ConflictingContainerCount) {
  trace::Workload wl;
  const auto a = wl.AddApplication("a", 3, ResourceVector::Cores(1, 1), 0,
                                   /*anti_affinity_within=*/true);
  const auto b = wl.AddApplication("b", 5, ResourceVector::Cores(1, 1));
  wl.AddApplication("c", 7, ResourceVector::Cores(1, 1));
  wl.AddAntiAffinity(a, b);
  // App a: conflicts with b's 5 containers + its own 2 siblings.
  EXPECT_EQ(wl.constraints().ConflictingContainerCount(a, wl.applications()),
            7);
  // App b: only the cross rule with a (3 containers).
  EXPECT_EQ(wl.constraints().ConflictingContainerCount(b, wl.applications()),
            3);
}

// ------------------------------------------------------------- state ----

class StateTest : public ::testing::Test {
 protected:
  StateTest()
      : topo_(Topology::Uniform(4, ResourceVector::Cores(32, 64), 2, 2)) {
    web_ = wl_.AddApplication("web", 2, ResourceVector::Cores(8, 16), 2,
                              /*anti_affinity_within=*/true);
    db_ = wl_.AddApplication("db", 1, ResourceVector::Cores(4, 8), 0);
    batch_ = wl_.AddApplication("batch", 3, ResourceVector::Cores(1, 2), 0);
    wl_.AddAntiAffinity(web_, db_);
  }

  ContainerId C(ApplicationId app, std::size_t i) const {
    return wl_.application(app).containers[i];
  }

  Topology topo_;
  trace::Workload wl_;
  ApplicationId web_, db_, batch_;
};

TEST_F(StateTest, DeployConsumesResources) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(web_, 0), MachineId(0));
  EXPECT_EQ(state.Free(MachineId(0)).cpu_millis(), 24000);
  EXPECT_EQ(state.placed_count(), 1u);
  EXPECT_TRUE(state.IsPlaced(C(web_, 0)));
  EXPECT_EQ(state.PlacementOf(C(web_, 0)), MachineId(0));
  EXPECT_EQ(state.DeployedOn(MachineId(0)).size(), 1u);
}

TEST_F(StateTest, EvictRestoresResources) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(web_, 0), MachineId(0));
  state.Evict(C(web_, 0));
  EXPECT_EQ(state.Free(MachineId(0)).cpu_millis(), 32000);
  EXPECT_FALSE(state.IsPlaced(C(web_, 0)));
  EXPECT_EQ(state.placed_count(), 0u);
  EXPECT_TRUE(state.DeployedOn(MachineId(0)).empty());
}

TEST_F(StateTest, BlacklistWithinApplication) {
  // Eq. 7–8: once web/0 runs on machine 0, its sibling is blacklisted there.
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(web_, 0), MachineId(0));
  EXPECT_TRUE(state.Blacklisted(C(web_, 1), MachineId(0)));
  EXPECT_FALSE(state.Blacklisted(C(web_, 1), MachineId(1)));
  EXPECT_FALSE(state.CanPlace(C(web_, 1), MachineId(0)));
  EXPECT_TRUE(state.CanPlace(C(web_, 1), MachineId(1)));
}

TEST_F(StateTest, BlacklistAcrossApplications) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(web_, 0), MachineId(0));
  EXPECT_TRUE(state.Blacklisted(C(db_, 0), MachineId(0)));
  // And symmetrically: db deployed first blocks web.
  state.Deploy(C(db_, 0), MachineId(1));
  EXPECT_TRUE(state.Blacklisted(C(web_, 1), MachineId(1)));
  // batch conflicts with nobody.
  EXPECT_FALSE(state.Blacklisted(C(batch_, 0), MachineId(0)));
  EXPECT_FALSE(state.Blacklisted(C(batch_, 0), MachineId(1)));
}

TEST_F(StateTest, BlacklistClearsAfterEvict) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(web_, 0), MachineId(0));
  state.Evict(C(web_, 0));
  EXPECT_FALSE(state.Blacklisted(C(db_, 0), MachineId(0)));
}

TEST_F(StateTest, FitsChecksResourcesOnly) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(web_, 0), MachineId(0));
  state.Deploy(C(batch_, 0), MachineId(0));
  EXPECT_TRUE(state.Fits(C(batch_, 1), MachineId(0)));
  // A conflicting container still "fits" physically; policy is separate.
  EXPECT_TRUE(state.Fits(C(db_, 0), MachineId(0)));
  EXPECT_TRUE(state.Blacklisted(C(db_, 0), MachineId(0)));
}

TEST_F(StateTest, MigrateCountsAndMoves) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(db_, 0), MachineId(0));
  state.Migrate(C(db_, 0), MachineId(2));
  EXPECT_EQ(state.PlacementOf(C(db_, 0)), MachineId(2));
  EXPECT_EQ(state.migrations(), 1);
  EXPECT_EQ(state.Free(MachineId(0)).cpu_millis(), 32000);
  EXPECT_EQ(state.Free(MachineId(2)).cpu_millis(), 28000);
}

TEST_F(StateTest, PreemptCounts) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(batch_, 0), MachineId(0));
  state.Preempt(C(batch_, 0));
  EXPECT_EQ(state.preemptions(), 1);
  EXPECT_FALSE(state.IsPlaced(C(batch_, 0)));
}

TEST_F(StateTest, RecordCountersAdjustManually) {
  ClusterState state = wl_.MakeState(topo_);
  state.RecordMigrations(5);
  state.RecordPreemptions(2);
  EXPECT_EQ(state.migrations(), 5);
  EXPECT_EQ(state.preemptions(), 2);
}

TEST_F(StateTest, UtilizationSummary) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(web_, 0), MachineId(0));  // 8/32 = 25%
  state.Deploy(C(db_, 0), MachineId(1));   // 4/32 = 12.5%
  const UtilizationSummary u = state.Utilization();
  EXPECT_EQ(u.used_machines, 2u);
  EXPECT_DOUBLE_EQ(u.min_share, 0.125);
  EXPECT_DOUBLE_EQ(u.max_share, 0.25);
  EXPECT_DOUBLE_EQ(u.avg_share, 0.1875);
  EXPECT_EQ(state.UsedMachineCount(), 2u);
}

TEST_F(StateTest, VerifyResourceInvariant) {
  ClusterState state = wl_.MakeState(topo_);
  EXPECT_TRUE(state.VerifyResourceInvariant());
  state.Deploy(C(web_, 0), MachineId(0));
  state.Deploy(C(batch_, 0), MachineId(0));
  state.Migrate(C(batch_, 0), MachineId(3));
  EXPECT_TRUE(state.VerifyResourceInvariant());
}

TEST_F(StateTest, AppsOnTracksCounts) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(batch_, 0), MachineId(0));
  state.Deploy(C(batch_, 1), MachineId(0));
  const auto& apps = state.AppsOn(MachineId(0));
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps.front().first, batch_.value());
  EXPECT_EQ(apps.front().second, 2);
  state.Evict(C(batch_, 0));
  ASSERT_EQ(state.AppsOn(MachineId(0)).size(), 1u);
  EXPECT_EQ(state.AppsOn(MachineId(0)).front().second, 1);
  state.Evict(C(batch_, 1));
  EXPECT_TRUE(state.AppsOn(MachineId(0)).empty());
}

// --------------------------------------------------------- free index ----

// The single tightest machine with free CPU >= need, or Invalid: the first
// machine an ascending scan from `need` visits.
MachineId TightestWithAtLeast(const FreeIndex& index, std::int64_t need) {
  MachineId found = MachineId::Invalid();
  index.ScanAscending(need, [&found](MachineId m) {
    found = m;
    return true;
  });
  return found;
}

TEST_F(StateTest, FreeIndexTightest) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(web_, 0), MachineId(0));  // machine 0 has 24 cores free
  FreeIndex index;
  index.Attach(state);
  // Tightest machine with >= 20 cores free is machine 0 (24 < 32).
  EXPECT_EQ(TightestWithAtLeast(index, 20000), MachineId(0));
  // Tightest with >= 30 cores is the first untouched machine.
  EXPECT_EQ(TightestWithAtLeast(index, 30000), MachineId(1));
  EXPECT_FALSE(TightestWithAtLeast(index, 33000).valid());
}

TEST_F(StateTest, FreeIndexOnChanged) {
  ClusterState state = wl_.MakeState(topo_);
  FreeIndex index;
  index.Attach(state);
  state.Deploy(C(web_, 0), MachineId(2));
  index.OnChanged(MachineId(2));
  EXPECT_EQ(TightestWithAtLeast(index, 20000), MachineId(2));
}

TEST_F(StateTest, FreeIndexScanOrder) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(web_, 0), MachineId(1));  // 24 free
  state.Deploy(C(db_, 0), MachineId(2));   // 28 free
  FreeIndex index;
  index.Attach(state);
  std::vector<std::int64_t> seen;
  index.ScanAscending(0, [&](MachineId m) {
    seen.push_back(state.Free(m).cpu_millis());
    return false;
  });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.size(), 4u);

  seen.clear();
  index.ScanDescending([&](MachineId m) {
    seen.push_back(state.Free(m).cpu_millis());
    return false;
  });
  EXPECT_TRUE(std::is_sorted(seen.rbegin(), seen.rend()));
}

// -------------------------------------------------------------- audit ----

TEST_F(StateTest, AuditCleanState) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(web_, 0), MachineId(0));
  state.Deploy(C(web_, 1), MachineId(1));
  state.Deploy(C(db_, 0), MachineId(2));
  state.Deploy(C(batch_, 0), MachineId(0));
  state.Deploy(C(batch_, 1), MachineId(1));
  state.Deploy(C(batch_, 2), MachineId(2));
  const AuditReport report = Audit(state);
  EXPECT_EQ(report.placed, 6u);
  EXPECT_EQ(report.unplaced, 0u);
  EXPECT_EQ(report.colocation_violations, 0u);
  EXPECT_DOUBLE_EQ(report.ViolationPercent(), 0.0);
}

TEST_F(StateTest, AuditDetectsColocationViolations) {
  ClusterState state = wl_.MakeState(topo_);
  // Deliberately violate: web/0 and web/1 together, plus db with them.
  state.Deploy(C(web_, 0), MachineId(0));
  state.Deploy(C(web_, 1), MachineId(0));
  state.Deploy(C(db_, 0), MachineId(0));
  const auto offenders = CollectColocationViolations(state);
  // web/1 violates against web/0; db violates against both web containers.
  EXPECT_EQ(offenders.size(), 2u);
  const AuditReport report = Audit(state);
  EXPECT_EQ(report.colocation_violations, 2u);
  EXPECT_GT(report.ViolationPercent(), 0.0);
  // Violations: 2 colocations (anti-affinity-typed) + 3 unplaced batch
  // containers (batch has no anti-affinity rule) -> share 2/5.
  EXPECT_DOUBLE_EQ(report.AntiAffinityShare(), 40.0);
}

TEST(Audit, UnplacedCauseResources) {
  // Fill the whole cluster so nothing fits.
  trace::Workload wl;
  const auto big = wl.AddApplication("big", 4, ResourceVector::Cores(32, 64));
  wl.AddApplication("extra", 1, ResourceVector::Cores(1, 1));
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  ClusterState state = wl.MakeState(topo);
  for (int i = 0; i < 4; ++i) {
    state.Deploy(wl.application(big).containers[static_cast<std::size_t>(i)],
                 MachineId(i));
  }
  const AuditReport report = Audit(state);
  EXPECT_EQ(report.unplaced, 1u);
  EXPECT_EQ(report.unplaced_resources, 1u);
  EXPECT_EQ(report.unplaced_anti_affinity, 0u);
  EXPECT_EQ(report.unplaced_scheduler, 0u);
}

TEST(Audit, UnplacedCauseAntiAffinity) {
  // Every machine hosts a conflicting container; resources abound.
  trace::Workload wl;
  const auto blocker =
      wl.AddApplication("blocker", 4, ResourceVector::Cores(1, 2));
  const auto victim =
      wl.AddApplication("victim", 1, ResourceVector::Cores(1, 2));
  wl.AddAntiAffinity(blocker, victim);
  const Topology topo = Topology::Uniform(4, ResourceVector::Cores(32, 64));
  ClusterState state = wl.MakeState(topo);
  for (int i = 0; i < 4; ++i) {
    state.Deploy(
        wl.application(blocker).containers[static_cast<std::size_t>(i)],
        MachineId(i));
  }
  (void)victim;
  const AuditReport report = Audit(state);
  EXPECT_EQ(report.unplaced, 1u);
  EXPECT_EQ(report.unplaced_anti_affinity, 1u);
  EXPECT_EQ(report.unplaced_aa_constrained, 1u);
  EXPECT_DOUBLE_EQ(report.AntiAffinityShare(), 100.0);
}

TEST_F(StateTest, AuditUnplacedCauseScheduler) {
  // A feasible machine exists; the "scheduler" just did not use it.
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(web_, 0), MachineId(0));
  // web/1, db, batch all unplaced although machines 1-3 are free.
  const AuditReport report = Audit(state);
  EXPECT_EQ(report.unplaced, 5u);
  EXPECT_EQ(report.unplaced_scheduler, 5u);
}

TEST(Audit, PriorityInversions) {
  // Low-priority container placed while a high-priority one is starved.
  trace::Workload wl;
  const auto low =
      wl.AddApplication("low", 1, ResourceVector::Cores(32, 64), 0);
  wl.AddApplication("high", 1, ResourceVector::Cores(32, 64), 2);
  const Topology topo = Topology::Uniform(1, ResourceVector::Cores(32, 64));
  ClusterState state = wl.MakeState(topo);
  state.Deploy(wl.application(low).containers[0], MachineId(0));
  const AuditReport report = Audit(state);
  EXPECT_EQ(report.unplaced, 1u);
  EXPECT_EQ(report.priority_inversions, 1u);
}

TEST(Audit, ViolationPercentMath) {
  AuditReport report;
  report.total_containers = 200;
  report.unplaced = 10;
  report.colocation_violations = 10;
  EXPECT_DOUBLE_EQ(report.ViolationPercent(), 10.0);
  EXPECT_EQ(report.TotalViolations(), 20u);
}

TEST(Audit, EmptyReportIsZero) {
  AuditReport report;
  EXPECT_DOUBLE_EQ(report.ViolationPercent(), 0.0);
  EXPECT_DOUBLE_EQ(report.AntiAffinityShare(), 0.0);
}

}  // namespace
}  // namespace aladdin::cluster
