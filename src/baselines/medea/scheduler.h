// Medea baseline: weighted-objective optimisation for LLA placement
// (Garefalakis et al., EuroSys'18). Greedy global construction over the
// weighted objective, refined by bounded local search — see objective.h for
// why this stands in for the ILP.
#pragma once

#include <string>

#include "baselines/medea/local_search.h"
#include "baselines/medea/objective.h"
#include "sim/scheduler.h"

namespace aladdin::baselines {

struct MedeaOptions {
  MedeaWeights weights{1.0, 1.0, 0.0};
  bool run_local_search = true;
  LocalSearchOptions local_search;
};

class MedeaScheduler : public sim::Scheduler {
 public:
  explicit MedeaScheduler(MedeaOptions options = {});

  [[nodiscard]] std::string name() const override;

  sim::ScheduleOutcome Schedule(const sim::ScheduleRequest& request,
                                cluster::ClusterState& state) override;

 private:
  MedeaOptions options_;
};

}  // namespace aladdin::baselines
