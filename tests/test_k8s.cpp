// Tests for the Kubernetes co-design layer (§IV.C, Fig. 6): the events
// handling center's coalescing, the model adaptor's object/scheduling
// translation, the resolver's binding/migration/preemption reconciliation,
// and the full simulator's mixed long-/short-lived lifecycle (§IV.D).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/audit.h"
#include "k8s/adaptor.h"
#include "k8s/events.h"
#include "k8s/resolver.h"
#include "common/rng.h"
#include "k8s/simulator.h"

namespace aladdin::k8s {

// Friend of Resolver: reads the persistent state.
struct ResolverTestPeer {
  static std::size_t placed_count(const Resolver& resolver) {
    return resolver.state_.has_value() ? resolver.state_->placed_count() : 0;
  }
};

namespace {

using cluster::ResourceVector;

PodSpec MakeSpec(const std::string& app, ResourceVector req,
                 cluster::Priority priority = 0, bool anti_within = false) {
  PodSpec spec;
  spec.app = app;
  spec.requests = req;
  spec.priority = priority;
  spec.anti_affinity_within = anti_within;
  return spec;
}

Pod MakePod(PodUid uid, PodSpec spec) {
  Pod pod;
  pod.uid = uid;
  pod.spec = std::make_shared<const PodSpec>(std::move(spec));
  return pod;
}

Pod MakePod(PodUid uid, const std::string& app, ResourceVector req,
            cluster::Priority priority = 0, bool anti_within = false) {
  return MakePod(uid, MakeSpec(app, req, priority, anti_within));
}

Event PodAdded(Pod pod) {
  Event e;
  e.type = EventType::kPodAdded;
  e.pod = std::move(pod);
  return e;
}

Event PodDeleted(PodUid uid) {
  Event e;
  e.type = EventType::kPodDeleted;
  e.pod.uid = uid;
  return e;
}

Event NodeAdded(const std::string& name, ResourceVector capacity,
                const std::string& rack = "r0",
                const std::string& zone = "z0") {
  Event e;
  e.type = EventType::kNodeAdded;
  e.node = Node{name, capacity, rack, zone};
  return e;
}

Event NodeRemoved(const std::string& name) {
  Event e;
  e.type = EventType::kNodeRemoved;
  e.node.name = name;
  return e;
}

// The object an event is about: its pod uid or its node name.
std::string EventKey(const Event& e) {
  return e.type == EventType::kPodAdded || e.type == EventType::kPodDeleted
             ? std::to_string(e.pod.uid)
             : e.node.name;
}

// ------------------------------------------------------------------ EHC ----

TEST(Ehc, DispatchesToSubscribersInOrder) {
  EventsHandlingCenter ehc;
  std::vector<EventType> log;
  ehc.Subscribe([&](const Event& e) { log.push_back(e.type); });
  ehc.Submit(NodeAdded("n0", ResourceVector::Cores(32, 64)));
  ehc.Submit(PodAdded(MakePod(1, "a", ResourceVector::Cores(1, 2))));
  EXPECT_EQ(ehc.pending(), 2u);
  EXPECT_EQ(ehc.DrainAndDispatch(), 2u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], EventType::kNodeAdded);
  EXPECT_EQ(log[1], EventType::kPodAdded);
  EXPECT_EQ(ehc.pending(), 0u);
}

TEST(Ehc, CoalescesAddThenDelete) {
  // A pod created and deleted in the same batch never reaches subscribers.
  EventsHandlingCenter ehc;
  int seen = 0;
  ehc.Subscribe([&](const Event&) { ++seen; });
  ehc.Submit(PodAdded(MakePod(1, "a", ResourceVector::Cores(1, 2))));
  ehc.Submit(PodDeleted(1));
  EXPECT_EQ(ehc.DrainAndDispatch(), 0u);
  EXPECT_EQ(seen, 0);
  EXPECT_EQ(ehc.coalesced_total(), 2);
}

TEST(Ehc, DeleteOfPreexistingPodPassesThrough) {
  EventsHandlingCenter ehc;
  std::vector<EventType> seen;
  ehc.Subscribe([&](const Event& e) { seen.push_back(e.type); });
  ehc.Submit(PodDeleted(42));  // pod existed before this batch
  EXPECT_EQ(ehc.DrainAndDispatch(), 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], EventType::kPodDeleted);
}

TEST(Ehc, DuplicateAddsCollapse) {
  EventsHandlingCenter ehc;
  int seen = 0;
  ehc.Subscribe([&](const Event&) { ++seen; });
  ehc.Submit(PodAdded(MakePod(1, "a", ResourceVector::Cores(1, 2))));
  ehc.Submit(PodAdded(MakePod(1, "a", ResourceVector::Cores(1, 2))));
  EXPECT_EQ(ehc.DrainAndDispatch(), 1u);
  EXPECT_EQ(seen, 1);
}

TEST(Ehc, NodeAddRemoveCancels) {
  EventsHandlingCenter ehc;
  int seen = 0;
  ehc.Subscribe([&](const Event&) { ++seen; });
  ehc.Submit(NodeAdded("n0", ResourceVector::Cores(32, 64)));
  ehc.Submit(NodeRemoved("n0"));
  EXPECT_EQ(ehc.DrainAndDispatch(), 0u);
  EXPECT_EQ(seen, 0);
}

// The hash-set coalescing rule the EHC implemented before it grouped
// events by sorting, kept as the oracle: the (type, key) of every event it
// dispatches, in order.
std::vector<std::pair<EventType, std::string>> HashSetCoalesce(
    const std::vector<Event>& queue) {
  std::unordered_map<PodUid, int> pod_adds;
  std::unordered_set<PodUid> pod_deletes;
  std::unordered_map<std::string, int> node_adds;
  std::unordered_set<std::string> node_removes;
  for (const Event& e : queue) {
    switch (e.type) {
      case EventType::kPodAdded:
        ++pod_adds[e.pod.uid];
        break;
      case EventType::kPodDeleted:
        pod_deletes.insert(e.pod.uid);
        break;
      case EventType::kNodeAdded:
        ++node_adds[e.node.name];
        break;
      case EventType::kNodeRemoved:
        node_removes.insert(e.node.name);
        break;
    }
  }
  std::vector<std::pair<EventType, std::string>> out;
  std::unordered_set<PodUid> pod_emitted;
  std::unordered_set<std::string> node_emitted;
  for (const Event& e : queue) {
    bool keep = true;
    switch (e.type) {
      case EventType::kPodAdded:
        keep = !pod_deletes.contains(e.pod.uid) &&
               pod_emitted.insert(e.pod.uid).second;
        break;
      case EventType::kPodDeleted:
        keep = !pod_adds.contains(e.pod.uid) &&
               pod_emitted.insert(e.pod.uid).second;
        break;
      case EventType::kNodeAdded:
        keep = !node_removes.contains(e.node.name) &&
               node_emitted.insert(e.node.name).second;
        break;
      case EventType::kNodeRemoved:
        keep = !node_adds.contains(e.node.name) &&
               node_emitted.insert(e.node.name).second;
        break;
    }
    if (keep) out.emplace_back(e.type, EventKey(e));
  }
  return out;
}

// Seeded random drains over a few pods and nodes, so one drain holds
// duplicate adds, an add and a delete of one pod, deletes of uids never
// added, and node add / remove / re-add sequences.
TEST(Ehc, SortCoalescingMatchesHashSetOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventsHandlingCenter ehc;
    std::vector<std::pair<EventType, std::string>> got;
    ehc.Subscribe([&got](const Event& e) {
      got.emplace_back(e.type, EventKey(e));
    });
    std::int64_t coalesced = 0;
    for (int drain = 0; drain < 50; ++drain) {
      std::vector<Event> queue;
      const std::int64_t n = rng.UniformInt(0, 24);
      for (std::int64_t i = 0; i < n; ++i) {
        const PodUid uid = rng.UniformInt(1, 10);
        const std::string node = "n" + std::to_string(rng.UniformInt(0, 3));
        switch (rng.UniformInt(0, 3)) {
          case 0:
            queue.push_back(
                PodAdded(MakePod(uid, "a", ResourceVector::Cores(1, 2))));
            break;
          case 1:
            queue.push_back(PodDeleted(uid + rng.UniformInt(0, 1) * 100));
            break;
          case 2:
            queue.push_back(NodeAdded(node, ResourceVector::Cores(8, 16)));
            break;
          default:
            queue.push_back(NodeRemoved(node));
            break;
        }
      }
      const auto want = HashSetCoalesce(queue);
      for (const Event& e : queue) ehc.Submit(e);
      got.clear();
      EXPECT_EQ(ehc.DrainAndDispatch(), want.size());
      EXPECT_EQ(got, want) << "seed " << seed << " drain " << drain;
      coalesced += n - static_cast<std::int64_t>(want.size());
      EXPECT_EQ(ehc.coalesced_total(), coalesced);
    }
  }
}

// ---------------------------------------------------------------- adaptor ----

TEST(Adaptor, BuildsWorkloadFromOwners) {
  ModelAdaptor ma;
  ma.OnEvent(NodeAdded("n0", ResourceVector::Cores(32, 64)));
  ma.OnEvent(PodAdded(MakePod(1, "web", ResourceVector::Cores(4, 8), 2, true)));
  ma.OnEvent(PodAdded(MakePod(2, "web", ResourceVector::Cores(4, 8), 2, true)));
  ma.OnEvent(PodAdded(MakePod(3, "db", ResourceVector::Cores(8, 16))));

  const trace::Workload& wl = ma.workload();
  ASSERT_EQ(wl.application_count(), 2u);
  EXPECT_EQ(wl.applications()[0].name, "web");
  EXPECT_EQ(wl.applications()[0].containers.size(), 2u);
  EXPECT_TRUE(wl.applications()[0].anti_affinity_within);
  EXPECT_EQ(wl.applications()[1].name, "db");

  // uid <-> container translation is a bijection over live pods.
  for (PodUid uid : {PodUid{1}, PodUid{2}, PodUid{3}}) {
    const auto c = ma.ContainerOf(uid);
    ASSERT_TRUE(c.valid());
    EXPECT_EQ(ma.PodOfContainer(c), uid);
  }
}

TEST(Adaptor, CrossOwnerAntiAffinityResolved) {
  ModelAdaptor ma;
  PodSpec web = MakeSpec("web", ResourceVector::Cores(4, 8));
  web.anti_affinity_apps = {"db"};
  ma.OnEvent(PodAdded(MakePod(1, web)));
  ma.OnEvent(PodAdded(MakePod(2, "db", ResourceVector::Cores(8, 16))));
  const trace::Workload& wl = ma.workload();
  EXPECT_TRUE(wl.constraints().Conflicts(wl.applications()[0].id,
                                         wl.applications()[1].id));
}

TEST(Adaptor, TopologyFromLabels) {
  ModelAdaptor ma;
  ma.OnEvent(NodeAdded("a", ResourceVector::Cores(32, 64), "r0", "z0"));
  ma.OnEvent(NodeAdded("b", ResourceVector::Cores(32, 64), "r0", "z0"));
  ma.OnEvent(NodeAdded("c", ResourceVector::Cores(32, 64), "r1", "z0"));
  ma.OnEvent(NodeAdded("d", ResourceVector::Cores(16, 32), "r2", "z1"));
  const cluster::Topology& topo = ma.topology();
  EXPECT_EQ(topo.machine_count(), 4u);
  EXPECT_EQ(topo.rack_count(), 3u);
  EXPECT_EQ(topo.subcluster_count(), 2u);
  const auto m = ma.MachineOf("d");
  ASSERT_TRUE(m.valid());
  EXPECT_EQ(topo.machine(m).capacity, ResourceVector::Cores(16, 32));
  EXPECT_EQ(ma.NodeOfMachine(m), "d");
}

TEST(Adaptor, NodeRemovalUnbindsPods) {
  ModelAdaptor ma;
  ma.OnEvent(NodeAdded("n0", ResourceVector::Cores(32, 64)));
  Pod pod = MakePod(1, "a", ResourceVector::Cores(1, 2));
  pod.phase = PodPhase::kBound;
  pod.node = "n0";
  ma.OnEvent(PodAdded(pod));
  ma.OnEvent(NodeRemoved("n0"));
  const Pod* stored = ma.FindPod(1);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->phase, PodPhase::kPending);
  EXPECT_TRUE(stored->node.empty());
}

// --------------------------------------------------------------- resolver ----

TEST(Resolver, BindsPendingPods) {
  ModelAdaptor ma;
  ma.OnEvent(NodeAdded("n0", ResourceVector::Cores(32, 64)));
  ma.OnEvent(NodeAdded("n1", ResourceVector::Cores(32, 64)));
  ma.OnEvent(PodAdded(MakePod(1, "web", ResourceVector::Cores(4, 8), 1, true)));
  ma.OnEvent(PodAdded(MakePod(2, "web", ResourceVector::Cores(4, 8), 1, true)));

  Resolver resolver(ma);
  std::vector<Binding> bindings;
  const ResolveStats stats = resolver.Resolve(1, &bindings);
  EXPECT_EQ(stats.new_bindings, 2u);
  EXPECT_EQ(stats.unschedulable, 0u);
  ASSERT_EQ(bindings.size(), 2u);
  // Anti-affinity within: the two replicas land on different nodes.
  EXPECT_NE(ma.FindPod(1)->node, ma.FindPod(2)->node);
  EXPECT_EQ(ma.FindPod(1)->phase, PodPhase::kBound);
}

TEST(Resolver, IncrementalRespectsExistingBindings) {
  ModelAdaptor ma;
  ma.OnEvent(NodeAdded("n0", ResourceVector::Cores(32, 64)));
  ma.OnEvent(PodAdded(MakePod(1, "a", ResourceVector::Cores(4, 8))));
  Resolver resolver(ma);
  resolver.Resolve(1);
  const std::string first_node = ma.FindPod(1)->node;
  // A second pod arrives; the first binding must not churn.
  ma.OnEvent(PodAdded(MakePod(2, "b", ResourceVector::Cores(4, 8))));
  const ResolveStats stats = resolver.Resolve(2);
  EXPECT_EQ(stats.new_bindings, 1u);
  EXPECT_EQ(stats.migrations, 0u);
  EXPECT_EQ(ma.FindPod(1)->node, first_node);
}

TEST(Resolver, MigratesBlockerForConstrainedArrival) {
  // The Fig. 3(b) scenario through the full stack: A bound on the big node
  // (the only node at the time); the small node joins later; then B
  // (anti-affine with A) arrives and only fits on big — A must migrate.
  ModelAdaptor ma;
  ma.OnEvent(NodeAdded("big", ResourceVector::Cores(32, 64)));
  PodSpec a = MakeSpec("A", ResourceVector::Cores(8, 16), 1);
  a.anti_affinity_apps = {"B"};
  ma.OnEvent(PodAdded(MakePod(1, a)));
  Resolver resolver(ma);
  resolver.Resolve(1);
  ASSERT_EQ(ma.FindPod(1)->node, "big");

  ma.OnEvent(NodeAdded("small", ResourceVector::Cores(8, 16)));
  ma.OnEvent(PodAdded(MakePod(2, "B", ResourceVector::Cores(24, 48))));
  const ResolveStats stats = resolver.Resolve(2);
  EXPECT_EQ(stats.new_bindings, 1u);
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(ma.FindPod(1)->node, "small");
  EXPECT_EQ(ma.FindPod(2)->node, "big");
}

TEST(Resolver, ReportsUnschedulable) {
  ModelAdaptor ma;
  ma.OnEvent(NodeAdded("n0", ResourceVector::Cores(8, 16)));
  ma.OnEvent(PodAdded(MakePod(1, "big", ResourceVector::Cores(16, 32))));
  Resolver resolver(ma);
  const ResolveStats stats = resolver.Resolve(1);
  EXPECT_EQ(stats.unschedulable, 1u);
  EXPECT_EQ(ma.FindPod(1)->phase, PodPhase::kPending);
}

// In the live integration a compaction is a disruptive pod restart, so the
// resolver's own defaults turn it off; no caller has to override them.
TEST(Resolver, DefaultOptionsTurnCompactionOff) {
  EXPECT_FALSE(ResolverOptions{}.aladdin.enable_compaction);
  EXPECT_TRUE(ResolverOptions{}.aladdin.enable_repair);
  EXPECT_FALSE(Resolver::DefaultOptions().enable_compaction);
}

// -------------------------------------------------------------- simulator ----

TEST(Simulator, EndToEndMixedWorkload) {
  ClusterSimulator sim;
  sim.AddNodes(8, ResourceVector::Cores(32, 64), "node", 4, 2);

  PodSpec web;
  web.requests = ResourceVector::Cores(8, 16);
  web.priority = 2;
  web.anti_affinity_within = true;
  sim.SubmitDeployment("web", 4, web);
  sim.SubmitBatchJob("etl", 12, ResourceVector::Cores(2, 4),
                     /*lifetime_ticks=*/2);

  const ResolveStats t1 = sim.Tick();
  EXPECT_EQ(t1.new_bindings, 16u);
  EXPECT_EQ(t1.unschedulable, 0u);

  // Batch tasks complete after two more ticks and release their resources.
  sim.Tick();
  sim.Tick();
  EXPECT_EQ(sim.completed_tasks(), 12);
  EXPECT_EQ(sim.adaptor().pod_count(), 4u);  // only the LLA remains
  for (PodUid uid : sim.adaptor().BoundPods()) {
    EXPECT_FALSE(sim.adaptor().FindPod(uid)->spec->short_lived());
  }
}

TEST(Simulator, BatchWavesReuseFreedCapacity) {
  ClusterSimulator sim;
  sim.AddNodes(2, ResourceVector::Cores(32, 64));
  // Each wave saturates the cluster; it must drain before the next fits.
  sim.SubmitBatchJob("wave1", 16, ResourceVector::Cores(4, 8), 1);
  const auto t1 = sim.Tick();
  EXPECT_EQ(t1.new_bindings, 16u);
  sim.SubmitBatchJob("wave2", 16, ResourceVector::Cores(4, 8), 1);
  const auto t2 = sim.Tick();  // wave1 completes this tick, wave2 binds
  EXPECT_EQ(t2.new_bindings, 16u);
  EXPECT_EQ(sim.completed_tasks(), 16);
  sim.Tick();
  EXPECT_EQ(sim.completed_tasks(), 32);
}

TEST(Simulator, ScaleDownRemovesNewestPods) {
  ClusterSimulator sim;
  sim.AddNodes(4, ResourceVector::Cores(32, 64));
  PodSpec spec;
  spec.requests = ResourceVector::Cores(2, 4);
  const auto uids = sim.SubmitDeployment("svc", 6, spec);
  sim.Tick();
  EXPECT_EQ(sim.ScaleDown("svc", 2), 2u);
  sim.Tick();
  EXPECT_EQ(sim.adaptor().pod_count(), 4u);
  // The two newest uids are gone.
  EXPECT_EQ(sim.adaptor().FindPod(uids.back()), nullptr);
  EXPECT_NE(sim.adaptor().FindPod(uids.front()), nullptr);
}

TEST(Simulator, NodeLossReschedulesPods) {
  ClusterSimulator sim;
  const auto names = sim.AddNodes(4, ResourceVector::Cores(32, 64));
  PodSpec spec;
  spec.requests = ResourceVector::Cores(4, 8);
  spec.anti_affinity_within = true;
  sim.SubmitDeployment("svc", 3, spec);
  sim.Tick();
  // Find a node hosting a replica and kill it.
  std::string victim;
  for (PodUid uid : sim.adaptor().BoundPods()) {
    victim = sim.adaptor().FindPod(uid)->node;
    break;
  }
  ASSERT_FALSE(victim.empty());
  sim.RemoveNode(victim);
  const ResolveStats stats = sim.Tick();
  EXPECT_EQ(stats.new_bindings, 1u);  // the displaced replica re-binds
  // All three replicas bound again, still on distinct nodes.
  std::set<std::string> nodes;
  for (PodUid uid : sim.adaptor().BoundPods()) {
    nodes.insert(sim.adaptor().FindPod(uid)->node);
  }
  EXPECT_EQ(nodes.size(), 3u);
}

TEST(Simulator, PriorityPreemptionThroughTheStack) {
  ClusterSimulator sim;
  sim.AddNodes(1, ResourceVector::Cores(32, 64));
  PodSpec low;
  low.requests = ResourceVector::Cores(16, 32);
  low.priority = 0;
  sim.SubmitDeployment("low", 2, low);
  sim.Tick();
  EXPECT_EQ(sim.adaptor().BoundPods().size(), 2u);

  PodSpec vip;
  vip.requests = ResourceVector::Cores(16, 32);
  vip.priority = 3;
  sim.SubmitDeployment("vip", 1, vip);
  const ResolveStats stats = sim.Tick();
  // The VIP pod displaces one low-priority pod (weighted flows, Eq. 3-5).
  EXPECT_EQ(stats.new_bindings, 1u);
  EXPECT_GE(stats.preemptions, 1u);
  bool vip_bound = false;
  for (PodUid uid : sim.adaptor().BoundPods()) {
    if (sim.adaptor().FindPod(uid)->spec->app == "vip") vip_bound = true;
  }
  EXPECT_TRUE(vip_bound);
}

// The simulator keeps no per-tick history (memory stays bounded by the
// live set); callers accumulate Tick()'s return value themselves.
TEST(Simulator, HistoryAccumulates) {
  ClusterSimulator sim;
  sim.AddNodes(2, ResourceVector::Cores(32, 64));
  std::vector<ResolveStats> history;
  history.push_back(sim.Tick());
  history.push_back(sim.Tick());
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].tick, 1);
  EXPECT_EQ(history[1].tick, 2);
  EXPECT_EQ(sim.now(), 2);
}

TEST(Simulator, InterleavedBatchJobsCompleteIndependently) {
  ClusterSimulator sim;
  sim.AddNodes(4, ResourceVector::Cores(32, 64));
  sim.SubmitBatchJob("fast", 8, ResourceVector::Cores(1, 2), 1);
  sim.SubmitBatchJob("slow", 8, ResourceVector::Cores(1, 2), 3);
  sim.Tick();  // both bind
  EXPECT_EQ(sim.completed_tasks(), 0);
  sim.Tick();  // fast completes (bound t=1, lifetime 1)
  EXPECT_EQ(sim.completed_tasks(), 8);
  sim.Tick();
  EXPECT_EQ(sim.completed_tasks(), 8);  // slow still running
  sim.Tick();  // slow completes at t=4 (bound 1 + 3)
  EXPECT_EQ(sim.completed_tasks(), 16);
}

// bound_at_tick + lifetime_ticks overflows for a lifetime near INT64_MAX;
// the expiry tick saturates instead, and such a pod never completes.
TEST(Simulator, MaxLifetimeBatchPodStaysBound) {
  ClusterSimulator sim;
  sim.AddNodes(1, ResourceVector::Cores(32, 64));
  const PodUid uid =
      sim.SubmitBatchJob("forever", 1, ResourceVector::Cores(1, 2),
                         std::numeric_limits<std::int64_t>::max())
          .front();
  for (int t = 0; t < 5; ++t) {
    sim.Tick();
    const Pod* pod = sim.adaptor().FindPod(uid);
    ASSERT_NE(pod, nullptr) << "tick " << sim.now();
    EXPECT_EQ(pod->phase, PodPhase::kBound) << "tick " << sim.now();
  }
  EXPECT_EQ(sim.completed_tasks(), 0);
}

// An update of a batch pod queued for its expiry tick makes the drain hold
// an add and a delete of the pod, so neither is dispatched. The pod stays,
// is offered again on the next tick, and its completion counts once.
TEST(Simulator, CoalescedCompletionIsRetriedAndCountedOnce) {
  ClusterSimulator sim;
  sim.AddNodes(1, ResourceVector::Cores(32, 64));
  const PodUid uid =
      sim.SubmitBatchJob("job", 1, ResourceVector::Cores(1, 2), 1).front();
  sim.Tick();  // binds at tick 1, expires at tick 2
  ASSERT_EQ(sim.adaptor().FindPod(uid)->phase, PodPhase::kBound);
  Event update;
  update.type = EventType::kPodAdded;
  update.pod = *sim.adaptor().FindPod(uid);
  sim.ehc().Submit(std::move(update));
  sim.Tick();
  EXPECT_NE(sim.adaptor().FindPod(uid), nullptr);
  EXPECT_EQ(sim.completed_tasks(), 0);
  sim.Tick();
  EXPECT_EQ(sim.adaptor().FindPod(uid), nullptr);
  EXPECT_EQ(sim.completed_tasks(), 1);
}

TEST(Adaptor, DeletingPendingPodRemovesIt) {
  ModelAdaptor ma;
  ma.OnEvent(NodeAdded("n0", ResourceVector::Cores(32, 64)));
  ma.OnEvent(PodAdded(MakePod(1, "a", ResourceVector::Cores(1, 2))));
  EXPECT_EQ(ma.PendingPods().size(), 1u);
  ma.OnEvent(PodDeleted(1));
  EXPECT_EQ(ma.PendingPods().size(), 0u);
  EXPECT_EQ(ma.FindPod(1), nullptr);
  // Snapshot reflects the deletion.
  EXPECT_EQ(ma.workload().container_count(), 0u);
}

// The pending list stays uid-ascending and duplicate-free when pods fall
// back to pending out of uid order, or a uid is deleted and re-added
// before the list is next read.
TEST(Adaptor, PendingPodsStayUidAscending) {
  ModelAdaptor ma;
  ma.OnEvent(NodeAdded("n0", ResourceVector::Cores(32, 64)));
  for (PodUid uid : {PodUid{1}, PodUid{2}}) {
    Pod pod = MakePod(uid, "a", ResourceVector::Cores(1, 2));
    pod.phase = PodPhase::kBound;
    pod.node = "n0";
    ma.OnEvent(PodAdded(pod));
  }
  ma.OnEvent(PodAdded(MakePod(5, "b", ResourceVector::Cores(1, 2))));
  ma.OnEvent(PodAdded(MakePod(6, "b", ResourceVector::Cores(1, 2))));
  EXPECT_EQ(ma.PendingPods(), (std::vector<PodUid>{5, 6}));
  EXPECT_EQ(ma.bound_count(), 2u);
  ma.OnEvent(PodAdded(MakePod(7, "b", ResourceVector::Cores(1, 2))));
  ma.OnEvent(PodDeleted(7));
  ma.OnEvent(PodAdded(MakePod(7, "b", ResourceVector::Cores(1, 2))));
  ma.OnEvent(NodeRemoved("n0"));
  EXPECT_EQ(ma.PendingPods(), (std::vector<PodUid>{1, 2, 5, 6, 7}));
  EXPECT_EQ(ma.bound_count(), 0u);
  EXPECT_TRUE(ma.BoundPods().empty());
}

// The wheel offers a short-lived pod when its lifetime has elapsed since
// it was last bound or moved, and drops entries of moved, unbound and
// deleted pods.
TEST(Adaptor, ExpiryWheelFollowsMovesAndDeletes) {
  ModelAdaptor ma;
  ma.OnEvent(NodeAdded("n0", ResourceVector::Cores(32, 64)));
  ma.OnEvent(NodeAdded("n1", ResourceVector::Cores(32, 64)));
  PodSpec batch = MakeSpec("job", ResourceVector::Cores(1, 2));
  batch.lifetime_ticks = 2;
  for (PodUid uid = 1; uid <= 4; ++uid) {
    ma.OnEvent(PodAdded(MakePod(uid, batch)));
    ma.BindPod(uid, "n0", 1);
  }
  std::vector<PodUid> expired;
  ma.TakeExpired(2, expired);
  EXPECT_TRUE(expired.empty());
  ma.MovePod(1, "n1", 2);  // restarts its lifetime: expires at 4
  ma.OnEvent(PodDeleted(2));
  ma.UnbindPod(3);
  ma.TakeExpired(3, expired);
  EXPECT_EQ(expired, std::vector<PodUid>{4});
  ma.TakeExpired(4, expired);
  EXPECT_EQ(expired, std::vector<PodUid>{1});
  ma.TakeExpired(10, expired);
  EXPECT_TRUE(expired.empty());
}

TEST(Adaptor, PrototypeSpecIsCanonicalPerOwner) {
  // Pods of one owner are isomorphic by contract; the adaptor trusts the
  // first (lowest-uid) pod's spec if a divergent one sneaks in.
  ModelAdaptor ma;
  ma.OnEvent(PodAdded(MakePod(1, "svc", ResourceVector::Cores(2, 4), 1)));
  ma.OnEvent(PodAdded(MakePod(2, "svc", ResourceVector::Cores(8, 16), 3)));
  const trace::Workload& wl = ma.workload();
  ASSERT_EQ(wl.application_count(), 1u);
  EXPECT_EQ(wl.applications()[0].request, ResourceVector::Cores(2, 4));
  EXPECT_EQ(wl.applications()[0].priority, 1);
}

TEST(Resolver, ShortLivedPodsBypassConstraints) {
  // Task-path pods ignore anti-affinity (SS IV.D) but still respect
  // resources; the LLA path on the same resolve honours everything.
  ModelAdaptor ma;
  ma.OnEvent(NodeAdded("n0", ResourceVector::Cores(8, 16)));
  Pod lla = MakePod(1, "svc", ResourceVector::Cores(4, 8), 1, true);
  ma.OnEvent(PodAdded(lla));
  PodSpec batch = MakeSpec("svc-batch", ResourceVector::Cores(4, 8));
  batch.lifetime_ticks = 2;
  ma.OnEvent(PodAdded(MakePod(2, batch)));
  Resolver resolver(ma);
  const ResolveStats stats = resolver.Resolve(1);
  EXPECT_EQ(stats.new_bindings, 2u);
  EXPECT_EQ(ma.FindPod(1)->node, "n0");
  EXPECT_EQ(ma.FindPod(2)->node, "n0");
}

// A pod bound to `node` by an event, as another scheduler or a user would
// bind it.
Event BoundPodAdded(PodUid uid, const std::string& app, ResourceVector req,
                    const std::string& node) {
  Pod pod = MakePod(uid, app, req);
  pod.phase = PodPhase::kBound;
  pod.node = node;
  pod.bound_at_tick = 1;
  return PodAdded(std::move(pod));
}

// No node's bound requests exceed `capacity`, and the resolver's state
// holds exactly the bound pods.
void ExpectBindingsFit(ClusterSimulator& sim, ResourceVector capacity) {
  std::map<std::string, ResourceVector> used;
  for (PodUid uid : sim.adaptor().BoundPods()) {
    const Pod* pod = sim.adaptor().FindPod(uid);
    used[pod->node] += pod->spec->requests;
  }
  for (const auto& [node, total] : used) {
    EXPECT_TRUE(total.FitsIn(capacity)) << node << " holds "
                                        << total.ToString();
  }
  EXPECT_EQ(ResolverTestPeer::placed_count(sim.resolver()),
            sim.adaptor().bound_count());
}

// A pod an event delivers already bound occupies its node: the resolver
// places nothing beside it that does not fit.
TEST(Resolver, PodBoundByAnEventOccupiesItsNode) {
  const ResourceVector capacity = ResourceVector::Cores(4, 8);
  ClusterSimulator sim;
  const std::vector<std::string> nodes = sim.AddNodes(2, capacity);
  PodSpec spec;
  spec.requests = ResourceVector::Cores(3, 6);
  const PodUid a = sim.SubmitDeployment("a", 1, spec).front();
  sim.Tick();
  ExpectBindingsFit(sim, capacity);
  const std::string a_node = sim.adaptor().FindPod(a)->node;
  const std::string other = nodes[0] == a_node ? nodes[1] : nodes[0];

  sim.ehc().Submit(
      BoundPodAdded(1000, "external", ResourceVector::Cores(3, 6), other));
  const PodUid b = sim.SubmitDeployment("b", 1, spec).front();
  sim.Tick();
  EXPECT_EQ(sim.adaptor().FindPod(b)->phase, PodPhase::kPending);
  EXPECT_EQ(sim.adaptor().FindPod(1000)->node, other);
  EXPECT_EQ(sim.adaptor().FindPod(a)->node, a_node);
  ExpectBindingsFit(sim, capacity);
}

// An update that moves a bound pod moves its container too: the new node
// fills up and the old one has room again.
TEST(Resolver, PodMovedByAnEventFollowsItsNode) {
  const ResourceVector capacity = ResourceVector::Cores(4, 8);
  ClusterSimulator sim;
  const std::vector<std::string> nodes = sim.AddNodes(2, capacity);
  PodSpec spec;
  spec.requests = ResourceVector::Cores(3, 6);
  const PodUid a = sim.SubmitDeployment("a", 1, spec).front();
  sim.Tick();
  ExpectBindingsFit(sim, capacity);
  Pod moved = *sim.adaptor().FindPod(a);
  const std::string from = moved.node;
  moved.node = nodes[0] == from ? nodes[1] : nodes[0];

  sim.ehc().Submit(PodAdded(moved));
  const std::vector<PodUid> b = sim.SubmitDeployment("b", 2, spec);
  const ResolveStats stats = sim.Tick();
  EXPECT_EQ(sim.adaptor().FindPod(a)->node, moved.node);
  // Room for one replica of b, on the node `a` left; the other stays
  // pending.
  EXPECT_EQ(stats.new_bindings, 1u);
  EXPECT_EQ(stats.unschedulable, 1u);
  for (PodUid uid : b) {
    const Pod* pod = sim.adaptor().FindPod(uid);
    EXPECT_TRUE(pod->phase == PodPhase::kPending || pod->node == from)
        << "pod " << uid << " on " << pod->node;
  }
  ExpectBindingsFit(sim, capacity);
}

// ------------------------------------------------------- churn fuzzing ----

class ChurnFuzzTest : public ::testing::TestWithParam<int> {};

// Invariants plus two oracles for the adaptor's indices: a full scan of
// BoundPods() predicts which pods the expiry wheel completes, and a scan
// of every submitted uid predicts PendingPods(), BoundPods() and the
// counts.
TEST_P(ChurnFuzzTest, RandomNodeAndPodChurnKeepsInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 77);
  ClusterSimulator sim;
  std::vector<std::string> nodes =
      sim.AddNodes(10, ResourceVector::Cores(32, 64));
  std::vector<PodUid> submitted;  // every uid handed out, ascending
  const auto Submitted = [&submitted](const std::vector<PodUid>& uids) {
    submitted.insert(submitted.end(), uids.begin(), uids.end());
  };
  const auto RemoveNode = [&sim, &nodes](std::size_t pick) {
    sim.RemoveNode(nodes[pick]);
    nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(pick));
  };

  int app_counter = 0;
  for (int tick = 0; tick < 12; ++tick) {
    // Random workload churn.
    if (rng.Bernoulli(0.8)) {
      PodSpec spec;
      spec.requests = ResourceVector::Cores(rng.UniformInt(1, 8),
                                            rng.UniformInt(2, 16));
      spec.priority = static_cast<cluster::Priority>(rng.UniformInt(0, 3));
      spec.anti_affinity_within = rng.Bernoulli(0.5);
      Submitted(sim.SubmitDeployment(
          "fuzz-" + std::to_string(app_counter++),
          static_cast<std::size_t>(rng.UniformInt(1, 5)), spec));
    }
    if (rng.Bernoulli(0.4)) {
      const std::int64_t lifetime =
          rng.Bernoulli(0.25) ? std::numeric_limits<std::int64_t>::max()
                              : rng.UniformInt(1, 3);
      Submitted(sim.SubmitBatchJob(
          "batch-" + std::to_string(tick),
          static_cast<std::size_t>(rng.UniformInt(2, 10)),
          ResourceVector::Cores(1, 2), lifetime));
    }
    // Random infrastructure churn, including the loss of a node that runs
    // batch pods.
    if (rng.Bernoulli(0.25) && nodes.size() > 4) {
      RemoveNode(static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(nodes.size()) - 1)));
    }
    if (rng.Bernoulli(0.25) && nodes.size() > 4) {
      for (PodUid uid : sim.adaptor().BoundPods()) {
        const Pod* pod = sim.adaptor().FindPod(uid);
        if (!pod->spec->short_lived()) continue;
        const auto it = std::find(nodes.begin(), nodes.end(), pod->node);
        if (it != nodes.end()) {
          RemoveNode(static_cast<std::size_t>(it - nodes.begin()));
        }
        break;
      }
    }
    if (rng.Bernoulli(0.25)) {
      const auto added = sim.AddNodes(2, ResourceVector::Cores(32, 64));
      nodes.insert(nodes.end(), added.begin(), added.end());
    }

    // Expiry oracle: the bound short-lived pods whose lifetime has elapsed
    // by the coming tick.
    std::vector<PodUid> expiring;
    for (PodUid uid : sim.adaptor().BoundPods()) {
      const Pod* pod = sim.adaptor().FindPod(uid);
      if (pod->spec->short_lived() && pod->bound_at_tick >= 0 &&
          sim.now() + 1 - pod->bound_at_tick >= pod->spec->lifetime_ticks) {
        expiring.push_back(uid);
      }
    }
    const std::int64_t completed_before = sim.completed_tasks();

    sim.Tick();

    for (PodUid uid : expiring) {
      EXPECT_EQ(sim.adaptor().FindPod(uid), nullptr)
          << "tick " << tick << " expired pod " << uid << " still stored";
    }
    EXPECT_EQ(sim.completed_tasks() - completed_before,
              static_cast<std::int64_t>(expiring.size()))
        << "tick " << tick;

    // Store oracle.
    std::vector<PodUid> want_pending;
    std::vector<PodUid> want_bound;
    for (PodUid uid : submitted) {
      const Pod* pod = sim.adaptor().FindPod(uid);
      if (pod == nullptr) continue;
      (pod->phase == PodPhase::kBound ? want_bound : want_pending)
          .push_back(uid);
    }
    EXPECT_EQ(sim.adaptor().PendingPods(), want_pending) << "tick " << tick;
    const std::vector<PodUid> bound = sim.adaptor().BoundPods();
    EXPECT_EQ(bound, want_bound) << "tick " << tick;
    EXPECT_EQ(sim.adaptor().bound_count(), bound.size()) << "tick " << tick;
    EXPECT_EQ(sim.adaptor().pod_count(),
              want_pending.size() + want_bound.size())
        << "tick " << tick;

    // Invariants: every bound pod references a live node, and the
    // scheduling-side snapshot stays violation-free for LLAs.
    for (PodUid uid : bound) {
      const Pod* pod = sim.adaptor().FindPod(uid);
      ASSERT_TRUE(sim.adaptor().MachineOf(pod->node).valid())
          << "tick " << tick << " pod " << uid << " on dead node "
          << pod->node;
    }
    // Rebuild the state from bindings and audit it: bindings must at least
    // be resource-feasible (anti-affinity can be momentarily violated only
    // never — the resolver always places via the capacity function).
    const trace::Workload& wl = sim.adaptor().workload();
    const cluster::Topology& topo = sim.adaptor().topology();
    auto state = wl.MakeState(topo);
    for (PodUid uid : bound) {
      const Pod* pod = sim.adaptor().FindPod(uid);
      const auto c = sim.adaptor().ContainerOf(uid);
      const auto m = sim.adaptor().MachineOf(pod->node);
      ASSERT_TRUE(state.Fits(c, m)) << "over-committed binding at tick "
                                    << tick;
      state.Deploy(c, m);
    }
    // No long-lived pod may sit in a violating colocation.
    for (cluster::ContainerId offender :
         cluster::CollectColocationViolations(state)) {
      const PodUid uid = sim.adaptor().PodOfContainer(offender);
      EXPECT_TRUE(sim.adaptor().FindPod(uid)->spec->short_lived())
          << "LLA pod in violating colocation at tick " << tick;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnFuzzTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace aladdin::k8s
