// Bounded local search refining a Medea solution (the ILP-approximation
// stage). Move types:
//  * place   — try to deploy an unplaced container where the incremental
//              cost beats the unplaced weight a;
//  * relocate — move a placed container to a machine with lower incremental
//              cost (fixing violations, consolidating machines).
// Moves come from a fixed-seed sampler; stops on iteration or wall-clock
// budget.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/medea/objective.h"
#include "cluster/free_index.h"

namespace aladdin::baselines {

struct LocalSearchOptions {
  std::int64_t max_iterations = 20000;
  double time_budget_seconds = 2.0;
};

struct LocalSearchStats {
  std::int64_t iterations = 0;
  std::int64_t placements = 0;
  std::int64_t relocations = 0;
};

// Mutates `state` and `unplaced` in place; `index` must be attached to
// `state` and is kept in sync.
LocalSearchStats ImprovePlacements(cluster::ClusterState& state,
                                   cluster::FreeIndex& index,
                                   std::vector<cluster::ContainerId>& unplaced,
                                   const MedeaWeights& weights,
                                   const LocalSearchOptions& options);

}  // namespace aladdin::baselines
