#include "sim/drill.h"

#include <algorithm>

#include "cluster/resources.h"
#include "common/check.h"
#include "common/strings.h"
#include "k8s/simulator.h"

namespace aladdin::sim {

namespace {

constexpr const char* kScenarioNames[] = {
    "baseline",       "drain_storm",         "routing_skew",
    "arrival_burst",  "deadline_starvation", "cause_shift",
};
static_assert(sizeof(kScenarioNames) / sizeof(kScenarioNames[0]) ==
                  static_cast<std::size_t>(DrillScenario::kCount),
              "kScenarioNames out of sync with DrillScenario");

// Arms exactly the detectors `scenario` is designed to trip. The baseline
// keeps everything armed — its verdict is that nothing fires anyway.
obs::WatchdogOptions MaskFor(DrillScenario scenario) {
  obs::WatchdogOptions options;
  if (scenario == DrillScenario::kBaseline) return options;
  options.slo_burn = false;
  options.pending_drift = false;
  options.app_flapping = false;
  options.shard_imbalance = false;
  options.solve_regression = false;
  options.cause_mix = false;
  for (const obs::AlertKind kind : DrillExpectedKinds(scenario)) {
    switch (kind) {
      case obs::AlertKind::kSloBurnRate:
        options.slo_burn = true;
        break;
      case obs::AlertKind::kPendingAgeDrift:
        options.pending_drift = true;
        break;
      case obs::AlertKind::kAppFlapping:
        options.app_flapping = true;
        break;
      case obs::AlertKind::kShardImbalance:
        options.shard_imbalance = true;
        break;
      case obs::AlertKind::kSolveRegression:
        options.solve_regression = true;
        break;
      case obs::AlertKind::kCauseMixShift:
        options.cause_mix = true;
        break;
      case obs::AlertKind::kCount:
        break;
    }
  }
  return options;
}

k8s::ResolverOptions BaseResolverOptions(const DrillOptions& options) {
  k8s::ResolverOptions resolver;
  resolver.watchdog = true;
  resolver.watchdog_options = MaskFor(options.scenario);
  resolver.shards = options.shards;
  resolver.aladdin.threads = options.threads;
  return resolver;
}

// Steady mixed load, generously provisioned: every pod places the tick it
// arrives, nothing is preempted, nothing gives up — all six detectors stay
// quiet or the baseline gate fails.
void RunBaseline(k8s::ClusterSimulator& sim, std::int64_t ticks) {
  sim.AddNodes(8, cluster::ResourceVector::Cores(16, 32));
  k8s::PodSpec web;
  web.app = "web";
  web.requests = cluster::ResourceVector::Cores(1, 2);
  sim.SubmitDeployment("web", 8, web);
  for (std::int64_t t = 0; t < ticks; ++t) {
    if (t > 0 && t % 4 == 0) {
      sim.SubmitDeployment("web", 1, web);
      sim.SubmitBatchJob("batch", 4, cluster::ResourceVector::Cores(1, 1),
                         /*lifetime_ticks=*/2);
    }
    sim.Tick();
  }
}

// Rolling node drains: every other tick one node is removed (its pods
// re-arrive as fresh lifecycle epochs — the flapping signal) and a
// replacement is added so capacity never actually shrinks.
void RunDrainStorm(k8s::ClusterSimulator& sim, std::int64_t ticks) {
  std::vector<std::string> nodes =
      sim.AddNodes(6, cluster::ResourceVector::Cores(8, 16));
  k8s::PodSpec spec;
  spec.app = "flappy";
  spec.requests = cluster::ResourceVector::Cores(2, 4);
  sim.SubmitDeployment("flappy", 12, spec);
  std::size_t drain_cursor = 0;
  for (std::int64_t t = 0; t < ticks; ++t) {
    if (t >= 4 && t % 2 == 0) {
      sim.RemoveNode(nodes[drain_cursor]);
      nodes.erase(nodes.begin() +
                  static_cast<std::ptrdiff_t>(drain_cursor));
      const std::vector<std::string> added =
          sim.AddNodes(1, cluster::ResourceVector::Cores(8, 16));
      nodes.insert(nodes.end(), added.begin(), added.end());
      drain_cursor = (drain_cursor + 1) % nodes.size();
    }
    sim.Tick();
  }
}

// One application, hash routing, K = 4: every replica lands on the app's
// home shard while the others idle, so the hottest shard's utilization
// dwarfs the median (and late spill rounds add the spill-ratio signal).
void RunRoutingSkew(k8s::ClusterSimulator& sim, std::int64_t ticks) {
  sim.AddNodes(16, cluster::ResourceVector::Cores(16, 32));
  k8s::PodSpec spec;
  spec.app = "mono";
  spec.requests = cluster::ResourceVector::Cores(2, 4);
  sim.SubmitDeployment("mono", 16, spec);
  for (std::int64_t t = 0; t < ticks; ++t) {
    // A replica every tick keeps the long-lived solve (and with it the
    // per-shard load stats the detector consumes) running continuously.
    if (t > 0) sim.SubmitDeployment("mono", 1, spec);
    sim.Tick();
  }
}

// Quiet drip, then a sustained arrival burst: the solver's deterministic
// effort counters jump to a large multiple of their trailing mean for
// several consecutive ticks.
void RunArrivalBurst(k8s::ClusterSimulator& sim, std::int64_t ticks) {
  sim.AddNodes(16, cluster::ResourceVector::Cores(32, 64));
  k8s::PodSpec drip;
  drip.app = "drip";
  drip.requests = cluster::ResourceVector::Cores(1, 2);
  k8s::PodSpec burst;
  burst.app = "burst";
  burst.requests = cluster::ResourceVector::Cores(1, 2);
  for (std::int64_t t = 0; t < ticks; ++t) {
    sim.SubmitDeployment("drip", 1, drip);
    if (t >= 20 && t < 24) sim.SubmitDeployment("burst", 200, burst);
    sim.Tick();
  }
}

// Warm phase of instant placements, then a backlog of oversized pods that
// can never fit: pending ages climb past the objective (drift) and the
// once-per-epoch violation flags burn the error budget (SLO burn).
void RunDeadlineStarvation(k8s::ClusterSimulator& sim, std::int64_t ticks) {
  sim.AddNodes(4, cluster::ResourceVector::Cores(8, 16));
  k8s::PodSpec svc;
  svc.app = "svc";
  svc.requests = cluster::ResourceVector::Cores(1, 2);
  k8s::PodSpec greedy;
  greedy.app = "greedy";
  greedy.requests = cluster::ResourceVector::Cores(4, 8);
  for (std::int64_t t = 0; t < ticks; ++t) {
    if (t < 8) sim.SubmitDeployment("svc", 2, svc);
    if (t == 8) sim.SubmitDeployment("greedy", 40, greedy);
    if (t > 8) sim.SubmitDeployment("greedy", 2, greedy);
    sim.Tick();
  }
}

// A backlog failing on CPU, then an equal backlog failing on memory: the
// give-up cause histogram flips and its L1 distance to the trailing
// window crosses the permille threshold. Short-lived pods make the
// diagnosis deterministic (DiagnoseShortLived is a pure resource check).
void RunCauseShift(k8s::ClusterSimulator& sim, std::int64_t ticks) {
  sim.AddNodes(2, cluster::ResourceVector::Cores(8, 8));
  for (std::int64_t t = 0; t < ticks; ++t) {
    if (t == 0) {
      // 12 cores can never fit on an 8-core node: kCapacityExhaustedCpu,
      // re-diagnosed every tick while the backlog pends.
      sim.SubmitBatchJob("cpuhog", 40, cluster::ResourceVector::Cores(12, 1),
                         /*lifetime_ticks=*/4);
    }
    if (t == 20) {
      // CPU fits, 12 GiB never does: kCapacityExhaustedMem.
      sim.SubmitBatchJob("memhog", 40, cluster::ResourceVector::Cores(1, 12),
                         /*lifetime_ticks=*/4);
    }
    sim.Tick();
  }
}

std::int64_t MinTicks(DrillScenario scenario) {
  switch (scenario) {
    case DrillScenario::kBaseline:
      return 8;
    case DrillScenario::kDrainStorm:
      return 24;
    case DrillScenario::kRoutingSkew:
      return 16;
    case DrillScenario::kArrivalBurst:
    case DrillScenario::kDeadlineStarvation:
    case DrillScenario::kCauseShift:
      return 32;
    case DrillScenario::kCount:
      break;
  }
  return 8;
}

}  // namespace

const char* DrillScenarioName(DrillScenario scenario) {
  const auto i = static_cast<std::size_t>(scenario);
  if (i >= static_cast<std::size_t>(DrillScenario::kCount)) return "?";
  return kScenarioNames[i];
}

DrillScenario DrillScenarioFromName(const std::string& name) {
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(DrillScenario::kCount); ++i) {
    if (name == kScenarioNames[i]) return static_cast<DrillScenario>(i);
  }
  return DrillScenario::kCount;
}

std::vector<obs::AlertKind> DrillExpectedKinds(DrillScenario scenario) {
  switch (scenario) {
    case DrillScenario::kBaseline:
      return {};
    case DrillScenario::kDrainStorm:
      return {obs::AlertKind::kAppFlapping};
    case DrillScenario::kRoutingSkew:
      return {obs::AlertKind::kShardImbalance};
    case DrillScenario::kArrivalBurst:
      return {obs::AlertKind::kSolveRegression};
    case DrillScenario::kDeadlineStarvation:
      return {obs::AlertKind::kSloBurnRate, obs::AlertKind::kPendingAgeDrift};
    case DrillScenario::kCauseShift:
      return {obs::AlertKind::kCauseMixShift};
    case DrillScenario::kCount:
      break;
  }
  return {};
}

DrillReport RunDrill(const DrillOptions& options) {
  ALADDIN_CHECK(options.scenario != DrillScenario::kCount)
      << "invalid drill scenario";
  DrillOptions effective = options;
  effective.ticks = std::max(options.ticks, MinTicks(options.scenario));
  if (options.scenario == DrillScenario::kRoutingSkew) {
    effective.shards = std::max(options.shards, 4);
  }
  k8s::ResolverOptions resolver = BaseResolverOptions(effective);
  if (options.scenario == DrillScenario::kRoutingSkew) {
    resolver.routing = core::ShardRouting::kHash;
  }
  k8s::ClusterSimulator sim(resolver);
  switch (effective.scenario) {
    case DrillScenario::kBaseline:
      RunBaseline(sim, effective.ticks);
      break;
    case DrillScenario::kDrainStorm:
      RunDrainStorm(sim, effective.ticks);
      break;
    case DrillScenario::kRoutingSkew:
      RunRoutingSkew(sim, effective.ticks);
      break;
    case DrillScenario::kArrivalBurst:
      RunArrivalBurst(sim, effective.ticks);
      break;
    case DrillScenario::kDeadlineStarvation:
      RunDeadlineStarvation(sim, effective.ticks);
      break;
    case DrillScenario::kCauseShift:
      RunCauseShift(sim, effective.ticks);
      break;
    case DrillScenario::kCount:
      break;
  }

  DrillReport report;
  report.scenario = effective.scenario;
  report.ticks = effective.ticks;
  report.expected = DrillExpectedKinds(effective.scenario);
  report.watchdog = sim.resolver().watchdog().Snapshot();
  report.fingerprint = sim.resolver().watchdog().Fingerprint();
  report.fired_expected = true;
  report.fired_only_expected = true;
  for (std::size_t k = 0;
       k < static_cast<std::size_t>(obs::AlertKind::kCount); ++k) {
    const auto kind = static_cast<obs::AlertKind>(k);
    const bool expected =
        std::find(report.expected.begin(), report.expected.end(), kind) !=
        report.expected.end();
    const bool fired = report.watchdog.opened_by_kind[k] > 0;
    if (expected && !fired) report.fired_expected = false;
    if (!expected && fired) report.fired_only_expected = false;
  }
  return report;
}

std::string RenderDrillReport(const DrillReport& report) {
  std::string out;
  AppendF(out, "drill %s: %lld ticks, %lld alert(s) opened, %lld resolved\n",
          DrillScenarioName(report.scenario),
          static_cast<long long>(report.ticks),
          static_cast<long long>(report.watchdog.opened_total),
          static_cast<long long>(report.watchdog.resolved_total));
  for (std::size_t k = 0;
       k < static_cast<std::size_t>(obs::AlertKind::kCount); ++k) {
    if (report.watchdog.opened_by_kind[k] == 0) continue;
    AppendF(out, "  %-18s opened=%lld\n",
            obs::AlertKindName(static_cast<obs::AlertKind>(k)),
            static_cast<long long>(report.watchdog.opened_by_kind[k]));
  }
  std::string expected;
  for (const obs::AlertKind kind : report.expected) {
    if (!expected.empty()) expected += ',';
    expected += obs::AlertKindName(kind);
  }
  AppendF(out, "  expected=[%s] fired_expected=%s only_expected=%s\n",
          expected.c_str(), report.fired_expected ? "yes" : "NO",
          report.fired_only_expected ? "yes" : "NO");
  AppendF(out, "  fingerprint=%016llx\n",
          static_cast<unsigned long long>(report.fingerprint));
  return out;
}

}  // namespace aladdin::sim
