#include "baselines/medea/local_search.h"

#include <algorithm>

#include "common/rng.h"
#include "common/timer.h"

namespace aladdin::baselines {

namespace {

template <typename T>
std::size_t Idx(T id) {
  return static_cast<std::size_t>(id.value());
}

// Incremental cost container `c` currently contributes at its placement:
// its violating pairs plus the machine-open share if it is the only tenant.
double CurrentCost(const cluster::ClusterState& state, cluster::ContainerId c,
                   const MedeaWeights& weights) {
  const cluster::MachineId m = state.PlacementOf(c);
  const auto app = state.containers()[Idx(c)].app;
  double cost = 0.0;
  const double violation_unit = ViolationUnitCost(weights);
  for (cluster::ContainerId other : state.DeployedOn(m)) {
    if (other == c) continue;
    const auto other_app = state.containers()[Idx(other)].app;
    if (state.constraints().Conflicts(app, other_app)) cost += violation_unit;
  }
  if (state.DeployedOn(m).size() == 1) {
    cost += weights.b * kMachineOpenScale;  // moving away closes the machine
  }
  return cost;
}

// Candidate machines examined per move.
constexpr int kCandidateScan = 48;
// Seed of the move sampler.
constexpr std::uint64_t kSeed = 11;

// Best candidate machine for c by incremental cost, scanning the tightest
// fits first. Returns Invalid if nothing fits within the scan budget.
cluster::MachineId BestCandidate(const cluster::ClusterState& state,
                                 const cluster::FreeIndex& index,
                                 cluster::ContainerId c,
                                 const MedeaWeights& weights,
                                 cluster::MachineId exclude,
                                 double& best_cost_out) {
  const auto& request = state.containers()[Idx(c)].request;
  int budget = kCandidateScan;
  cluster::MachineId best = cluster::MachineId::Invalid();
  double best_cost = 0.0;
  index.ScanAscending(request.cpu_millis(), [&](cluster::MachineId m) {
    if (budget-- <= 0) return true;
    if (m == exclude) return false;
    if (!request.FitsIn(state.Free(m))) return false;
    const double cost = PlacementCost(state, c, m, weights);
    if (!best.valid() || cost < best_cost) {
      best = m;
      best_cost = cost;
      if (cost == 0.0) return true;  // cannot improve on free placement
    }
    return false;
  });
  best_cost_out = best_cost;
  return best;
}

}  // namespace

LocalSearchStats ImprovePlacements(cluster::ClusterState& state,
                                   cluster::FreeIndex& index,
                                   std::vector<cluster::ContainerId>& unplaced,
                                   const MedeaWeights& weights,
                                   const LocalSearchOptions& options) {
  LocalSearchStats stats;
  Rng rng(kSeed);
  WallTimer timer;

  std::vector<cluster::ContainerId> placed;
  placed.reserve(state.placed_count());
  for (const auto& c : state.containers()) {
    if (state.IsPlaced(c.id)) placed.push_back(c.id);
  }

  while (stats.iterations < options.max_iterations &&
         timer.ElapsedSeconds() < options.time_budget_seconds) {
    ++stats.iterations;
    // Alternate: placing strands is worth more than shuffling placements.
    const bool try_place = !unplaced.empty() && (stats.iterations % 2 == 0 ||
                                                 placed.empty());
    if (try_place) {
      const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(unplaced.size()) - 1));
      const cluster::ContainerId c = unplaced[pick];
      double cost = 0.0;
      const cluster::MachineId m = BestCandidate(
          state, index, c, weights, cluster::MachineId::Invalid(), cost);
      if (m.valid() && cost < UnplacedCost(weights)) {
        state.Deploy(c, m);
        index.OnChanged(m);
        unplaced.erase(unplaced.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        placed.push_back(c);
        ++stats.placements;
      }
    } else if (!placed.empty()) {
      const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(placed.size()) - 1));
      const cluster::ContainerId c = placed[pick];
      const double current = CurrentCost(state, c, weights);
      if (current == 0.0) continue;  // already free of cost
      const cluster::MachineId from = state.PlacementOf(c);
      double cost = 0.0;
      const cluster::MachineId to =
          BestCandidate(state, index, c, weights, from, cost);
      if (to.valid() && cost < current) {
        state.Migrate(c, to);
        index.OnChanged(from);
        index.OnChanged(to);
        ++stats.relocations;
      }
    } else {
      break;
    }
  }
  return stats;
}

}  // namespace aladdin::baselines
