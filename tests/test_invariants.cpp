// Correctness-tooling tests: the ALADDIN_CHECK/ALADDIN_DCHECK macros, the
// deep flow-graph validator, and the cluster-state consistency audit — each
// invariant exercised positively (clean state passes) and negatively
// (deliberate corruption is caught, by error return or by death).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "cluster/state.h"
#include "cluster/topology.h"
#include "common/check.h"
#include "flow/graph.h"
#include "flow/max_flow.h"
#include "trace/workload.h"

namespace aladdin::flow {

// Friend of Graph: reaches into private storage so tests can corrupt arcs
// and the frozen CSR adjacency to drive ValidateInvariants' failure paths.
struct GraphTestPeer {
  static Arc& arc(Graph& g, ArcId a) {
    return g.arcs_[static_cast<std::size_t>(a.value())];
  }
  // Mutable view of v's CSR slice. Freezes first so the corruption is not
  // erased by a lazy rebuild (ValidateInvariants' Freeze() is then a no-op).
  static std::span<std::int32_t> adjacency(Graph& g, VertexId v) {
    g.Freeze();
    const auto i = static_cast<std::size_t>(v.value());
    const auto begin = static_cast<std::size_t>(g.csr_offsets_[i]);
    const auto end = static_cast<std::size_t>(g.csr_offsets_[i + 1]);
    return {g.csr_arcs_.data() + begin, end - begin};
  }
  // The arc-count boundary check, callable with a synthetic slot count so
  // the int32 overflow limit is testable without 2^31 arcs of memory.
  static void CheckCanAddArcPair(std::size_t current_arc_slots) {
    Graph::CheckCanAddArcPair(current_arc_slots);
  }
};

}  // namespace aladdin::flow

namespace aladdin::cluster {

// Friend of ClusterState: corrupts the redundant bookkeeping views to drive
// CheckConsistency's failure paths.
struct ClusterStateTestPeer {
  static ResourceVector& free(ClusterState& s, MachineId m) {
    return s.free_[static_cast<std::size_t>(m.value())];
  }
  static std::vector<ContainerId>& deployed(ClusterState& s, MachineId m) {
    return s.deployed_[static_cast<std::size_t>(m.value())];
  }
  static ClusterState::AppCounts& apps_on(ClusterState& s, MachineId m) {
    return s.apps_on_[static_cast<std::size_t>(m.value())];
  }
  static MachineId& placement(ClusterState& s, ContainerId c) {
    return s.placement_[static_cast<std::size_t>(c.value())];
  }
  static std::size_t& placed_count(ClusterState& s) { return s.placed_count_; }
  static std::int64_t& free_cpu_millis(ClusterState& s) {
    return s.free_cpu_millis_;
  }
};

}  // namespace aladdin::cluster

namespace aladdin {
namespace {

using cluster::ClusterState;
using cluster::ClusterStateTestPeer;
using cluster::ContainerId;
using cluster::MachineId;
using cluster::ResourceVector;
using cluster::Topology;
using flow::Graph;
using flow::GraphTestPeer;

// ------------------------------------------------------ check macros ----

TEST(Check, PassingCheckIsSilent) {
  ALADDIN_CHECK(1 + 1 == 2) << "never evaluated";
  ALADDIN_DCHECK(true) << "never evaluated";
}

TEST(CheckDeathTest, FailingCheckAbortsWithContext) {
  const int arc = 42;
  EXPECT_DEATH(ALADDIN_CHECK(arc < 0) << "arc " << arc << " misbehaved",
               "ALADDIN_CHECK\\(arc < 0\\) failed.*arc 42 misbehaved");
}

TEST(CheckDeathTest, MessageIncludesFileAndLine) {
  EXPECT_DEATH(ALADDIN_CHECK(false), "test_invariants\\.cpp");
}

#if ALADDIN_DCHECK_IS_ON()
TEST(CheckDeathTest, ArmedDcheckAborts) {
  EXPECT_DEATH(ALADDIN_DCHECK(false) << "armed", "armed");
}
#else
TEST(Check, DisarmedDcheckNeitherEvaluatesNorAborts) {
  bool evaluated = false;
  ALADDIN_DCHECK([&] {
    evaluated = true;
    return false;
  }()) << "disarmed";
  EXPECT_FALSE(evaluated);
}
#endif

// ------------------------------------------------- graph invariants ----

// s -> a -> t with a side arc s -> t; saturating s->a->t leaves a clean
// conserved flow with only s and t imbalanced.
class GraphInvariantsTest : public ::testing::Test {
 protected:
  GraphInvariantsTest() {
    s_ = graph_.AddVertex();
    a_ = graph_.AddVertex();
    t_ = graph_.AddVertex();
    sa_ = graph_.AddArc(s_, a_, 10);
    at_ = graph_.AddArc(a_, t_, 10);
    st_ = graph_.AddArc(s_, t_, 5);
  }

  std::vector<VertexId> Endpoints() const { return {s_, t_}; }

  Graph graph_;
  VertexId s_, a_, t_;
  ArcId sa_, at_, st_;
};

TEST_F(GraphInvariantsTest, CleanGraphValidates) {
  std::string error;
  EXPECT_TRUE(graph_.ValidateInvariants(Endpoints(), &error)) << error;
  ASSERT_EQ(flow::EdmondsKarp(graph_, s_, t_).value, 15);
  EXPECT_TRUE(graph_.ValidateInvariants(Endpoints(), &error)) << error;
}

TEST_F(GraphInvariantsTest, DetectsConservationViolation) {
  graph_.Push(sa_, 3);  // flow enters a_ and never leaves
  std::string error;
  EXPECT_FALSE(graph_.ValidateInvariants(Endpoints(), &error));
  EXPECT_NE(error.find("conservation"), std::string::npos) << error;
  // Exempting the imbalanced vertex clears the complaint.
  const std::vector<VertexId> all = {s_, a_, t_};
  EXPECT_TRUE(graph_.ValidateInvariants(all, &error)) << error;
}

TEST_F(GraphInvariantsTest, DetectsFlowAboveCapacity) {
  GraphTestPeer::arc(graph_, sa_).flow = 11;
  std::string error;
  EXPECT_FALSE(graph_.ValidateInvariants(Endpoints(), &error));
  EXPECT_NE(error.find("outside [0, capacity="), std::string::npos) << error;
}

TEST_F(GraphInvariantsTest, DetectsBrokenTwinFlow) {
  graph_.Push(sa_, 4);
  GraphTestPeer::arc(graph_, Graph::Reverse(sa_)).flow = 0;
  std::string error;
  EXPECT_FALSE(graph_.ValidateInvariants(Endpoints(), &error));
  EXPECT_NE(error.find("twin flow"), std::string::npos) << error;
}

TEST_F(GraphInvariantsTest, DetectsBrokenTwinCost) {
  GraphTestPeer::arc(graph_, Graph::Reverse(at_)).cost = 7;
  std::string error;
  EXPECT_FALSE(graph_.ValidateInvariants(Endpoints(), &error));
  EXPECT_NE(error.find("twin cost"), std::string::npos) << error;
}

TEST_F(GraphInvariantsTest, DetectsNonzeroResidualCapacity) {
  GraphTestPeer::arc(graph_, Graph::Reverse(st_)).capacity = 1;
  std::string error;
  EXPECT_FALSE(graph_.ValidateInvariants(Endpoints(), &error));
  EXPECT_NE(error.find("residual twin has capacity"), std::string::npos)
      << error;
}

TEST_F(GraphInvariantsTest, DetectsDuplicateAdjacencyEntry) {
  // CSR slices are fixed-size, so a duplicate is injected by overwriting
  // s_'s second entry (st_) with its first (sa_): sa_ is now listed twice.
  auto adj_s = GraphTestPeer::adjacency(graph_, s_);
  ASSERT_EQ(adj_s.size(), 2u);
  adj_s[1] = sa_.value();
  std::string error;
  EXPECT_FALSE(graph_.ValidateInvariants(Endpoints(), &error));
  EXPECT_NE(error.find("more than once"), std::string::npos) << error;
}

TEST_F(GraphInvariantsTest, DetectsArcListedUnderWrongVertex) {
  auto adj_s = GraphTestPeer::adjacency(graph_, s_);
  auto adj_a = GraphTestPeer::adjacency(graph_, a_);
  // Swap at_ (tail a_) into s_'s slice and sa_ (tail s_) into a_'s: every
  // arc is still listed exactly once, but two sit under the wrong tail.
  auto slot_s = std::find(adj_s.begin(), adj_s.end(), sa_.value());
  auto slot_a = std::find(adj_a.begin(), adj_a.end(), at_.value());
  ASSERT_NE(slot_s, adj_s.end());
  ASSERT_NE(slot_a, adj_a.end());
  std::swap(*slot_s, *slot_a);
  std::string error;
  EXPECT_FALSE(graph_.ValidateInvariants(Endpoints(), &error));
  EXPECT_NE(error.find("but its tail is"), std::string::npos) << error;
}

TEST(GraphLimitsTest, ArcSlotLimitIsEnforcedAtTheInt32Boundary) {
  // Two slots per AddArc; the last legal pair lands exactly at kMaxArcSlots.
  GraphTestPeer::CheckCanAddArcPair(Graph::kMaxArcSlots - 2);  // last OK pair
  EXPECT_DEATH(GraphTestPeer::CheckCanAddArcPair(Graph::kMaxArcSlots - 1),
               "int32 id domain limit");
  EXPECT_DEATH(GraphTestPeer::CheckCanAddArcPair(Graph::kMaxArcSlots),
               "int32 id domain limit");
}

TEST(GraphLimitsTest, VertexLimitIsEnforced) {
  // AddVertices is an O(1) counter bump (CSR is built lazily), so the graph
  // can be driven to the id-domain edge without allocating per-vertex state.
  Graph g;
  EXPECT_EQ(g.AddVertices(Graph::kMaxVertices).value(), 0);
  EXPECT_EQ(g.vertex_count(), Graph::kMaxVertices);
  EXPECT_DEATH(g.AddVertex(), "int32 id domain");
  EXPECT_DEATH(g.AddVertices(1), "int32 id domain");
}

#if ALADDIN_DCHECK_IS_ON()
TEST_F(GraphInvariantsTest, PushBeyondResidualDies) {
  EXPECT_DEATH(graph_.Push(st_, 6), "exceeds residual");
}
#endif

// ----------------------------------------- cluster state consistency ----

class StateConsistencyTest : public ::testing::Test {
 protected:
  StateConsistencyTest()
      : topo_(Topology::Uniform(3, ResourceVector::Cores(32, 64), 2, 2)) {
    app_ = wl_.AddApplication("app", 3, ResourceVector::Cores(8, 16));
  }

  ContainerId C(std::size_t i) const {
    return wl_.application(app_).containers[i];
  }

  Topology topo_;
  trace::Workload wl_;
  ApplicationId app_;
};

TEST_F(StateConsistencyTest, CleanStatePasses) {
  ClusterState state = wl_.MakeState(topo_);
  std::string error;
  EXPECT_TRUE(state.CheckConsistency(&error)) << error;
  state.Deploy(C(0), MachineId(0));
  state.Deploy(C(1), MachineId(0));
  state.Migrate(C(1), MachineId(2));
  state.Evict(C(0));
  state.Deploy(C(0), MachineId(1));
  EXPECT_TRUE(state.CheckConsistency(&error)) << error;
  std::int64_t free_cpu = 0;
  for (std::size_t m = 0; m < topo_.machine_count(); ++m) {
    free_cpu +=
        state.Free(MachineId(static_cast<std::int32_t>(m))).cpu_millis();
  }
  EXPECT_EQ(state.free_cpu_millis(), free_cpu);
}

TEST_F(StateConsistencyTest, DetectsCorruptedFreeVector) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(0), MachineId(0));
  ClusterStateTestPeer::free(state, MachineId(0)) -=
      ResourceVector::Cores(1, 0);
  std::string error;
  EXPECT_FALSE(state.CheckConsistency(&error));
  EXPECT_NE(error.find("cached free"), std::string::npos) << error;
}

TEST_F(StateConsistencyTest, DetectsContainerDeployedTwice) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(0), MachineId(0));
  ClusterStateTestPeer::deployed(state, MachineId(1)).push_back(C(0));
  std::string error;
  EXPECT_FALSE(state.CheckConsistency(&error));
  EXPECT_NE(error.find("deployed twice"), std::string::npos) << error;
}

TEST_F(StateConsistencyTest, DetectsPlacementMapDisagreement) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(0), MachineId(0));
  ClusterStateTestPeer::placement(state, C(0)) = MachineId(2);
  std::string error;
  EXPECT_FALSE(state.CheckConsistency(&error));
  EXPECT_NE(error.find("placement map says"), std::string::npos) << error;
}

TEST_F(StateConsistencyTest, DetectsPhantomPlacement) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(0), MachineId(0));
  // Placement map claims C(1) is on machine 1, but no deployed list,
  // free-vector debit, or app count backs that up.
  ClusterStateTestPeer::placement(state, C(1)) = MachineId(1);
  std::string error;
  EXPECT_FALSE(state.CheckConsistency(&error));
  EXPECT_NE(error.find("absent from its deployed list"), std::string::npos)
      << error;
}

TEST_F(StateConsistencyTest, DetectsAppCountDrift) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(0), MachineId(0));
  ++ClusterStateTestPeer::apps_on(state, MachineId(0)).front().second;
  std::string error;
  EXPECT_FALSE(state.CheckConsistency(&error));
  EXPECT_NE(error.find("app-count map"), std::string::npos) << error;
}

TEST_F(StateConsistencyTest, DetectsPlacedCountDrift) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(0), MachineId(0));
  ++ClusterStateTestPeer::placed_count(state);
  std::string error;
  EXPECT_FALSE(state.CheckConsistency(&error));
  EXPECT_NE(error.find("placed_count"), std::string::npos) << error;
}

TEST_F(StateConsistencyTest, DetectsFreeCpuTotalDrift) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(0), MachineId(0));
  ClusterStateTestPeer::free_cpu_millis(state) += 1;
  std::string error;
  EXPECT_FALSE(state.CheckConsistency(&error));
  EXPECT_NE(error.find("free_cpu_millis"), std::string::npos) << error;
}

TEST_F(StateConsistencyTest, DeployPreconditionsDie) {
  ClusterState state = wl_.MakeState(topo_);
  state.Deploy(C(0), MachineId(0));
  EXPECT_DEATH(state.Deploy(C(0), MachineId(1)), "already on machine");
  EXPECT_DEATH(state.Evict(C(1)), "not placed");
}

TEST_F(StateConsistencyTest, DeployWithoutFitDies) {
  trace::Workload wl;
  const auto huge = wl.AddApplication("huge", 1, ResourceVector::Cores(64, 1));
  ClusterState state = wl.MakeState(topo_);
  EXPECT_DEATH(state.Deploy(wl.application(huge).containers[0], MachineId(0)),
               "does not fit");
}

}  // namespace
}  // namespace aladdin
