#include "baselines/medea/scheduler.h"

#include <algorithm>

#include "cluster/free_index.h"
#include "obs/journal.h"

namespace aladdin::baselines {

namespace {
template <typename T>
std::size_t Idx(T id) {
  return static_cast<std::size_t>(id.value());
}

// Machines examined per container during construction.
constexpr int kCandidateScan = 64;
}  // namespace

MedeaScheduler::MedeaScheduler(MedeaOptions options)
    : options_(std::move(options)) {}

std::string MedeaScheduler::name() const {
  return "Medea" + options_.weights.ToString();
}

sim::ScheduleOutcome MedeaScheduler::Schedule(
    const sim::ScheduleRequest& request, cluster::ClusterState& state) {
  sim::ScheduleOutcome outcome;
  cluster::FreeIndex index;
  index.Attach(state);

  // ILP-style global view: Medea batches the LLA queue and optimises it as a
  // whole, so construction order is an internal choice — hardest first
  // (largest request, then most constrained), independent of arrival order.
  std::vector<cluster::ContainerId> order = *request.arrival;
  const auto& apps = state.applications();
  std::sort(order.begin(), order.end(),
            [&](cluster::ContainerId a, cluster::ContainerId b) {
              const auto& ca = state.containers()[Idx(a)];
              const auto& cb = state.containers()[Idx(b)];
              if (ca.request.cpu_millis() != cb.request.cpu_millis()) {
                return ca.request.cpu_millis() > cb.request.cpu_millis();
              }
              const auto ka = state.constraints().ConflictingContainerCount(
                  ca.app, apps);
              const auto kb = state.constraints().ConflictingContainerCount(
                  cb.app, apps);
              if (ka != kb) return ka > kb;
              return a < b;
            });

  std::vector<cluster::ContainerId> unplaced;
  for (cluster::ContainerId c : order) {
    const auto& request_vec = state.containers()[Idx(c)].request;
    cluster::MachineId best = cluster::MachineId::Invalid();
    double best_cost = 0.0;
    int budget = kCandidateScan;
    index.ScanAscending(request_vec.cpu_millis(), [&](cluster::MachineId m) {
      if (budget-- <= 0) return true;
      ++outcome.explored_paths;
      if (!request_vec.FitsIn(state.Free(m))) return false;
      const double cost = PlacementCost(state, c, m, options_.weights);
      if (!best.valid() || cost < best_cost) {
        best = m;
        best_cost = cost;
        if (cost == 0.0) return true;  // tightest zero-cost fit: done
      }
      return false;
    });
    if (!best.valid() || best_cost >= UnplacedCost(options_.weights)) {
      // Rescue pass: the ILP sees the whole cluster, so before stranding a
      // container, walk the full index for the first machine whose cost
      // beats leaving it unplaced (the bounded scan may have burnt its
      // budget on blacklisted machines).
      index.ScanAscending(request_vec.cpu_millis(), [&](cluster::MachineId m) {
        ++outcome.explored_paths;
        if (!request_vec.FitsIn(state.Free(m))) return false;
        const double cost = PlacementCost(state, c, m, options_.weights);
        if (cost >= UnplacedCost(options_.weights)) return false;
        best = m;
        best_cost = cost;
        return true;
      });
    }
    if (best.valid() && best_cost < UnplacedCost(options_.weights)) {
      state.Deploy(c, best);
      index.OnChanged(best);
    } else {
      unplaced.push_back(c);
    }
  }
  outcome.rounds = 1;

  if (options_.run_local_search) {
    ImprovePlacements(state, index, unplaced, options_.weights,
                      options_.local_search);
    ++outcome.rounds;
  }

  outcome.unplaced = std::move(unplaced);
  outcome.unplaced_causes.assign(outcome.unplaced.size(),
                                 obs::Cause::kBaselineUnplaced);
  if (obs::JournalEnabled()) {
    for (cluster::ContainerId c : outcome.unplaced) {
      obs::EmitDecision(obs::DecisionKind::kUnplaced,
                        obs::Cause::kBaselineUnplaced, c.value());
    }
  }
  return outcome;
}

}  // namespace aladdin::baselines
