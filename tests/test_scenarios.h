// Scenario builders shared by the equivalence suites (test_equivalence,
// test_batch, test_sharding): a random mixed workload grown wave by wave,
// a scripted k8s cluster run, the placement / binding snapshots the suites
// compare, and a metrics-registry counter read.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cluster/state.h"
#include "common/rng.h"
#include "k8s/simulator.h"
#include "obs/metrics.h"
#include "trace/workload.h"

namespace aladdin {

// Appends `apps` random applications to `wl` — 1-6 isomorphic containers
// of 1-8 cores / 2-16 GB, a fifth in a higher priority class, half with
// intra-app anti-affinity — and returns the container ids added.
inline std::vector<cluster::ContainerId> GrowWave(trace::Workload& wl,
                                                  Rng& rng, int apps) {
  std::vector<cluster::ContainerId> added;
  for (int a = 0; a < apps; ++a) {
    const auto count = static_cast<std::size_t>(rng.UniformInt(1, 6));
    const std::size_t first = wl.container_count();
    wl.AddApplication(
        "app-" + std::to_string(wl.application_count()), count,
        cluster::ResourceVector::Cores(rng.UniformInt(1, 8),
                                       rng.UniformInt(2, 16)),
        static_cast<cluster::Priority>(
            rng.Bernoulli(0.2) ? rng.UniformInt(1, 3) : 0),
        rng.Bernoulli(0.5));
    for (std::size_t i = first; i < wl.container_count(); ++i) {
      added.emplace_back(static_cast<std::int32_t>(i));
    }
  }
  return added;
}

// The machine of every container id below `containers` (Invalid when
// unplaced).
inline std::vector<cluster::MachineId> Placements(
    const cluster::ClusterState& state, std::size_t containers) {
  std::vector<cluster::MachineId> out;
  out.reserve(containers);
  for (std::size_t i = 0; i < containers; ++i) {
    out.push_back(
        state.PlacementOf(cluster::ContainerId(static_cast<std::int32_t>(i))));
  }
  return out;
}

// A counter's current value in the metrics registry (0 if never bumped).
inline std::int64_t CounterValue(const char* name) {
  for (const auto& c : obs::Registry::Get().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// Called after every scripted tick with the tick's stats and bindings.
using TickObserver = std::function<void(const k8s::ResolveStats&,
                                        const std::vector<k8s::Binding>&)>;

// Scripted mixed cluster for 16 nodes of 32 cores: per tick three
// deployments (60% with intra-app anti-affinity) and a 12-task batch job
// living two ticks; svc-1 scales down by two pods at tick 3 and node-7 is
// removed at tick 5, which forces a topology rebuild. The load stays below
// saturation, so repair never migrates or preempts.
inline void RunScript(k8s::ClusterSimulator& sim, int ticks,
                      const TickObserver& after_tick = nullptr) {
  Rng rng(7);
  std::int64_t apps = 0;
  for (int t = 0; t < ticks; ++t) {
    for (int d = 0; d < 3; ++d) {
      k8s::PodSpec spec;
      spec.requests = cluster::ResourceVector::Cores(rng.UniformInt(1, 6),
                                                     rng.UniformInt(2, 12));
      spec.priority = rng.Bernoulli(0.2)
                          ? static_cast<cluster::Priority>(rng.UniformInt(1, 3))
                          : 0;
      spec.anti_affinity_within = rng.Bernoulli(0.6);
      sim.SubmitDeployment("svc-" + std::to_string(apps++),
                           static_cast<std::size_t>(rng.UniformInt(1, 5)),
                           spec);
    }
    sim.SubmitBatchJob("job-" + std::to_string(t), 12,
                       cluster::ResourceVector::Cores(1, 2),
                       /*lifetime_ticks=*/2);
    if (t == 3) sim.ScaleDown("svc-1", 2);
    if (t == 5) sim.RemoveNode("node-7");
    std::vector<k8s::Binding> bindings;
    const k8s::ResolveStats stats = sim.Tick(&bindings);
    if (after_tick) after_tick(stats, bindings);
  }
}

// uid -> node of every bound pod.
inline std::map<k8s::PodUid, std::string> FinalBindings(
    const k8s::ModelAdaptor& adaptor) {
  std::map<k8s::PodUid, std::string> out;
  for (k8s::PodUid uid : adaptor.BoundPods()) {
    out[uid] = adaptor.FindPod(uid)->node;
  }
  return out;
}

}  // namespace aladdin
