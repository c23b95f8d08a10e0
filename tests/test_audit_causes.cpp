// cluster::Audit unplaced-cause classification (§V.B / Fig. 9): one fixture
// per UnplacedCause plus the priority-inversion counter and the retired-
// container exemption, each asserting the derived ViolationPercent() /
// AntiAffinityShare() figures exactly.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/audit.h"
#include "cluster/resources.h"
#include "cluster/state.h"
#include "cluster/topology.h"
#include "trace/workload.h"

namespace aladdin::cluster {
namespace {

// kResources: the cluster is physically full — no machine could host the
// straggler even if every policy were waived.
class UnplacedResourcesTest : public ::testing::Test {
 protected:
  UnplacedResourcesTest()
      : topo_(Topology::Uniform(2, ResourceVector::Cores(32, 64))) {
    filler_ = wl_.AddApplication("filler", 2, ResourceVector::Cores(32, 64));
    starved_ = wl_.AddApplication("starved", 1, ResourceVector::Cores(1, 1));
  }

  Topology topo_;
  trace::Workload wl_;
  ApplicationId filler_, starved_;
};

TEST_F(UnplacedResourcesTest, ClassifiedAsResources) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(wl_.application(filler_).containers[0], MachineId(0));
  state.Deploy(wl_.application(filler_).containers[1], MachineId(1));

  const AuditReport report = Audit(state);
  EXPECT_EQ(report.total_containers, 3u);
  EXPECT_EQ(report.placed, 2u);
  EXPECT_EQ(report.unplaced, 1u);
  EXPECT_EQ(report.unplaced_resources, 1u);
  EXPECT_EQ(report.unplaced_anti_affinity, 0u);
  EXPECT_EQ(report.unplaced_scheduler, 0u);
  EXPECT_EQ(report.colocation_violations, 0u);
  EXPECT_EQ(report.priority_inversions, 0u);
  // 1 violation (the unplaced container) out of 3 containers.
  EXPECT_DOUBLE_EQ(report.ViolationPercent(), 100.0 / 3.0);
  // starved has no anti-affinity rule, so no violation is AA-typed.
  EXPECT_DOUBLE_EQ(report.AntiAffinityShare(), 0.0);
}

// A retired container (its pod is gone) is neither unplaced nor in the
// violation base: the audit of an online run's append-only workload counts
// only containers still asking to be placed.
TEST(AuditRetired, RetiredContainerIsNotAViolation) {
  const Topology topo = Topology::Uniform(2, ResourceVector::Cores(32, 64));
  trace::Workload wl;
  const ApplicationId filler =
      wl.AddApplication("filler", 2, ResourceVector::Cores(32, 64));
  wl.AddApplication("starved", 1, ResourceVector::Cores(1, 1));
  const ApplicationId done =
      wl.AddApplication("done", 1, ResourceVector::Cores(1, 1));
  ClusterState state = wl.MakeState(topo);
  state.Deploy(wl.application(filler).containers[0], MachineId(0));
  state.Deploy(wl.application(filler).containers[1], MachineId(1));

  const AuditReport all = Audit(state);
  EXPECT_EQ(all.unplaced, 2u);
  EXPECT_EQ(all.retired, 0u);
  EXPECT_DOUBLE_EQ(all.ViolationPercent(), 50.0);

  const std::vector<ContainerId> retired = {
      wl.application(done).containers[0]};
  const AuditReport report = Audit(state, retired);
  EXPECT_EQ(report.total_containers, 4u);
  EXPECT_EQ(report.placed, 2u);
  EXPECT_EQ(report.retired, 1u);
  EXPECT_EQ(report.unplaced, 1u);
  EXPECT_EQ(report.unplaced_resources, 1u);
  EXPECT_EQ(report.unplaced_anti_affinity + report.unplaced_scheduler, 0u);
  EXPECT_EQ(report.TotalViolations(), 1u);
  // 1 violation (starved) out of 3 live containers.
  EXPECT_DOUBLE_EQ(report.ViolationPercent(), 100.0 / 3.0);
}

// kAntiAffinity: resources abound, but every machine with room hosts a
// conflicting application — the blacklist, not capacity, starves the victim.
class UnplacedAntiAffinityTest : public ::testing::Test {
 protected:
  UnplacedAntiAffinityTest()
      : topo_(Topology::Uniform(2, ResourceVector::Cores(32, 64))) {
    blocker_ = wl_.AddApplication("blocker", 2, ResourceVector::Cores(1, 2));
    victim_ = wl_.AddApplication("victim", 1, ResourceVector::Cores(1, 2));
    wl_.AddAntiAffinity(blocker_, victim_);
  }

  Topology topo_;
  trace::Workload wl_;
  ApplicationId blocker_, victim_;
};

TEST_F(UnplacedAntiAffinityTest, ClassifiedAsAntiAffinity) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(wl_.application(blocker_).containers[0], MachineId(0));
  state.Deploy(wl_.application(blocker_).containers[1], MachineId(1));

  const AuditReport report = Audit(state);
  EXPECT_EQ(report.unplaced, 1u);
  EXPECT_EQ(report.unplaced_anti_affinity, 1u);
  EXPECT_EQ(report.unplaced_resources, 0u);
  EXPECT_EQ(report.unplaced_scheduler, 0u);
  EXPECT_EQ(report.unplaced_aa_constrained, 1u);
  EXPECT_DOUBLE_EQ(report.ViolationPercent(), 100.0 / 3.0);
  // The single violation is anti-affinity-typed.
  EXPECT_DOUBLE_EQ(report.AntiAffinityShare(), 100.0);
}

// kScheduler: a machine satisfying both resources and policy sits idle; the
// scheduler simply failed to use it.
class UnplacedSchedulerTest : public ::testing::Test {
 protected:
  UnplacedSchedulerTest()
      : topo_(Topology::Uniform(2, ResourceVector::Cores(32, 64))) {
    placed_ = wl_.AddApplication("placed", 1, ResourceVector::Cores(4, 8));
    missed_ = wl_.AddApplication("missed", 1, ResourceVector::Cores(4, 8));
  }

  Topology topo_;
  trace::Workload wl_;
  ApplicationId placed_, missed_;
};

TEST_F(UnplacedSchedulerTest, ClassifiedAsScheduler) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(wl_.application(placed_).containers[0], MachineId(0));

  const AuditReport report = Audit(state);
  EXPECT_EQ(report.unplaced, 1u);
  EXPECT_EQ(report.unplaced_scheduler, 1u);
  EXPECT_EQ(report.unplaced_resources, 0u);
  EXPECT_EQ(report.unplaced_anti_affinity, 0u);
  EXPECT_DOUBLE_EQ(report.ViolationPercent(), 50.0);
  EXPECT_DOUBLE_EQ(report.AntiAffinityShare(), 0.0);
}

TEST_F(UnplacedSchedulerTest, PolicyFeasibleMachineTrumpsBlacklist) {
  // One machine blacklisted, another fully feasible: the cause is still the
  // scheduler, because it could have satisfied every constraint.
  trace::Workload wl;
  const auto blocker = wl.AddApplication("b", 1, ResourceVector::Cores(1, 2));
  const auto victim = wl.AddApplication("v", 1, ResourceVector::Cores(1, 2));
  wl.AddAntiAffinity(blocker, victim);
  ClusterState state = wl.MakeState(topo_);
  state.Deploy(wl.application(blocker).containers[0], MachineId(0));

  const AuditReport report = Audit(state);
  EXPECT_EQ(report.unplaced, 1u);
  EXPECT_EQ(report.unplaced_scheduler, 1u);
  EXPECT_EQ(report.unplaced_anti_affinity, 0u);
  // The victim's application carries an AA rule, so the violation is
  // AA-typed for Fig. 9(e) even though the proximate cause is the scheduler.
  EXPECT_EQ(report.unplaced_aa_constrained, 1u);
  EXPECT_DOUBLE_EQ(report.ViolationPercent(), 50.0);
  EXPECT_DOUBLE_EQ(report.AntiAffinityShare(), 100.0);
}

// Priority inversion: a starved high-priority container while a strictly
// lower-priority one holds capacity it could have used.
class PriorityInversionTest : public ::testing::Test {
 protected:
  PriorityInversionTest()
      : topo_(Topology::Uniform(1, ResourceVector::Cores(32, 64))) {
    low_ = wl_.AddApplication("low", 1, ResourceVector::Cores(32, 64),
                              /*priority=*/0);
    high_ = wl_.AddApplication("high", 1, ResourceVector::Cores(32, 64),
                               /*priority=*/2);
  }

  Topology topo_;
  trace::Workload wl_;
  ApplicationId low_, high_;
};

TEST_F(PriorityInversionTest, CountsInversionAndCause) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(wl_.application(low_).containers[0], MachineId(0));

  const AuditReport report = Audit(state);
  EXPECT_EQ(report.unplaced, 1u);
  EXPECT_EQ(report.unplaced_resources, 1u);  // machine is physically full
  EXPECT_EQ(report.priority_inversions, 1u);
  EXPECT_DOUBLE_EQ(report.ViolationPercent(), 50.0);
  EXPECT_DOUBLE_EQ(report.AntiAffinityShare(), 0.0);
}

TEST_F(PriorityInversionTest, NoInversionWhenStarvedIsLowest) {
  // Flip the roles: the high-priority container is placed, the lowest-
  // priority one starves — capacity scarcity, not an inversion.
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(wl_.application(high_).containers[0], MachineId(0));

  const AuditReport report = Audit(state);
  EXPECT_EQ(report.unplaced, 1u);
  EXPECT_EQ(report.priority_inversions, 0u);
  EXPECT_DOUBLE_EQ(report.ViolationPercent(), 50.0);
}

// Mixed scene touching every counter at once: the percentages must still be
// exact rational arithmetic over the raw counts.
TEST(AuditCausesMixed, ExactSharesAcrossAllCauses) {
  trace::Workload wl;
  const auto aa_pair = wl.AddApplication("aa", 2, ResourceVector::Cores(2, 4),
                                         /*priority=*/0,
                                         /*anti_affinity_within=*/true);
  // Unplaced by design: "missed" fits wide-open machine 1 (kScheduler),
  // "giant" fits nowhere (kResources).
  wl.AddApplication("missed", 1, ResourceVector::Cores(2, 4));
  wl.AddApplication("giant", 1, ResourceVector::Cores(64, 128));
  const Topology topo = Topology::Uniform(2, ResourceVector::Cores(32, 64));
  ClusterState state = wl.MakeState(topo);
  // Within-app violation: both aa containers on machine 0.
  state.Deploy(wl.application(aa_pair).containers[0], MachineId(0));
  state.Deploy(wl.application(aa_pair).containers[1], MachineId(0));

  const AuditReport report = Audit(state);
  EXPECT_EQ(report.total_containers, 4u);
  EXPECT_EQ(report.placed, 2u);
  EXPECT_EQ(report.colocation_violations, 1u);
  EXPECT_EQ(report.unplaced, 2u);
  EXPECT_EQ(report.unplaced_scheduler, 1u);
  EXPECT_EQ(report.unplaced_resources, 1u);
  EXPECT_EQ(report.unplaced_aa_constrained, 0u);
  EXPECT_EQ(report.TotalViolations(), 3u);
  // 3 violations over 4 containers; 1 of the 3 is anti-affinity-typed.
  EXPECT_DOUBLE_EQ(report.ViolationPercent(), 75.0);
  EXPECT_DOUBLE_EQ(report.AntiAffinityShare(), 100.0 / 3.0);
}

}  // namespace
}  // namespace aladdin::cluster
