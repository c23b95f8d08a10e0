// Trace replay CLI: generate (or load) a workload file, replay it through
// any of the four schedulers, and print the audited metrics — the smallest
// end-to-end harness for experimenting with your own traces.
//
// Run:
//   build/examples/trace_replay --scheduler=aladdin --scale=0.05
//   build/examples/trace_replay --save=/tmp/trace.csv            # export
//   build/examples/trace_replay --load=/tmp/trace.csv --scheduler=medea
#include <array>
#include <cstdio>
#include <memory>
#include <utility>

#include "baselines/firmament/scheduler.h"
#include "baselines/gokube/scheduler.h"
#include "baselines/medea/scheduler.h"
#include "common/flags.h"
#include "common/log.h"
#include "obs/cli.h"
#include "obs/lifecycle.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/watchdog.h"
#include "core/scheduler.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "trace/arrival.h"
#include "trace/serialize.h"

using namespace aladdin;

namespace {

std::unique_ptr<sim::Scheduler> MakeScheduler(const std::string& name,
                                              std::int64_t reschd,
                                              double medea_c) {
  if (name == "aladdin") return std::make_unique<core::AladdinScheduler>();
  if (name == "gokube") return std::make_unique<baselines::GoKubeScheduler>();
  if (name == "medea") {
    baselines::MedeaOptions options;
    options.weights = {1.0, 1.0, medea_c};
    return std::make_unique<baselines::MedeaScheduler>(options);
  }
  if (name == "firmament" || name == "quincy" || name == "trivial" ||
      name == "octopus") {
    baselines::FirmamentOptions options;
    options.reschd = static_cast<int>(reschd);
    if (name == "trivial") {
      options.cost_model = baselines::FirmamentCostModel::kTrivial;
    } else if (name == "octopus") {
      options.cost_model = baselines::FirmamentCostModel::kOctopus;
    }
    return std::make_unique<baselines::FirmamentScheduler>(options);
  }
  return nullptr;
}

trace::ArrivalOrder ParseOrder(const std::string& name) {
  if (name == "fifo") return trace::ArrivalOrder::kFifo;
  if (name == "chp") return trace::ArrivalOrder::kHighPriorityFirst;
  if (name == "clp") return trace::ArrivalOrder::kLowPriorityFirst;
  if (name == "cla") return trace::ArrivalOrder::kManyConflictsFirst;
  if (name == "csa") return trace::ArrivalOrder::kFewConflictsFirst;
  return trace::ArrivalOrder::kRandom;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  auto& scheduler_name = flags.String(
      "scheduler", "aladdin",
      "aladdin | quincy | trivial | octopus | medea | gokube");
  auto& scale = flags.Double("scale", 0.05, "generated workload scale");
  auto& seed = flags.Int64("seed", 42, "trace seed");
  auto& machines = flags.Int64("machines", 0, "cluster size (0 = scaled)");
  auto& order_name = flags.String(
      "order", "random", "fifo | random | chp | clp | cla | csa");
  auto& reschd = flags.Int64("reschd", 8, "Firmament reschd(i)");
  auto& medea_c = flags.Double("medea_c", 0.0, "Medea violation tolerance");
  auto& save = flags.String("save", "", "write the workload to a file, exit");
  auto& load = flags.String("load", "", "load a workload file instead");
  auto& cluster_file = flags.String(
      "cluster", "", "load a topology file (see SaveTopology) instead of the "
                     "scaled homogeneous cluster");
  obs::ObsCli obs_cli(flags);
  if (!flags.Parse(argc, argv)) return 1;
  if (!obs_cli.Apply()) return 1;

  trace::Workload workload;
  if (!load.empty()) {
    if (!trace::LoadWorkloadFromFile(load, workload)) {
      LOG_ERROR << "failed to load " << load;
      return 1;
    }
  } else {
    workload = sim::MakeBenchWorkload(scale, static_cast<std::uint64_t>(seed));
  }
  if (!save.empty()) {
    if (!trace::SaveWorkloadToFile(workload, save)) return 1;
    std::printf("wrote %zu applications / %zu containers to %s\n",
                workload.application_count(), workload.container_count(),
                save.c_str());
    return 0;
  }

  auto scheduler = MakeScheduler(scheduler_name, reschd, medea_c);
  if (!scheduler) {
    LOG_ERROR << "unknown scheduler: " << scheduler_name;
    return 1;
  }

  const trace::ArrivalOrder order = ParseOrder(order_name);
  cluster::Topology topology;
  if (!cluster_file.empty()) {
    if (!trace::LoadTopologyFromFile(cluster_file, topology)) {
      LOG_ERROR << "failed to load cluster " << cluster_file;
      return 1;
    }
  } else {
    topology = trace::MakeAlibabaCluster(
        machines > 0 ? static_cast<std::size_t>(machines)
                     : sim::BenchMachineCount(scale));
  }

  std::printf("replaying %zu containers (%zu apps) onto %zu machines with "
              "%s, order %s\n",
              workload.container_count(), workload.application_count(),
              topology.machine_count(), scheduler->name().c_str(),
              trace::ArrivalOrderName(order));
  // The phase registry diffed around the replay feeds the --timeseries
  // sample's phase_seconds.
  const std::vector<obs::PhaseDelta> phases_before = obs::CapturePhases();
  const sim::RunMetrics metrics =
      sim::RunExperimentOn(*scheduler, workload, topology, order, 1);
  const std::vector<obs::PhaseDelta> run_phases =
      obs::DiffPhases(phases_before, obs::CapturePhases());
  sim::PrintRunTable({metrics});

  // One-shot replay: the outcome's terminal diagnosis is the cause
  // histogram (every unplaced container carries exactly one cause).
  {
    std::array<std::int64_t, static_cast<std::size_t>(obs::Cause::kCount)>
        totals{};
    const auto& causes = metrics.outcome.unplaced_causes;
    for (const obs::Cause cause : causes) {
      ++totals[static_cast<std::size_t>(cause)];
    }
    std::vector<std::pair<obs::Cause, std::int64_t>> counts;
    for (std::size_t i = 0; i < totals.size(); ++i) {
      if (totals[i] > 0) {
        counts.emplace_back(static_cast<obs::Cause>(i), totals[i]);
      }
    }
    if (!counts.empty()) {
      std::printf("\nunplaced cause histogram:\n");
      sim::PrintCauseTable(counts);
    }
  }

  // Admission SLO in one-shot form: every container arrives at tick 0, a
  // placed container binds within the same tick (wait 0), and a give-up
  // never binds at all — charged as a violation by observing its span past
  // the objective window. The per-app table therefore reads as "share of
  // the app admitted at all", the degenerate case of bench_online's
  // streaming attainment table.
  {
    obs::LifecycleLedger ledger;
    obs::SloEngine slo;
    slo.BeginTick(0);
    for (const cluster::Application& app : workload.applications()) {
      slo.RegisterApp(app.id.value(), app.name);
    }
    std::vector<bool> unplaced(workload.container_count(), false);
    for (const cluster::ContainerId c : metrics.outcome.unplaced) {
      unplaced[static_cast<std::size_t>(c.value())] = true;
    }
    for (const cluster::Container& c : workload.containers()) {
      ledger.OnArrival(c.id.value(), c.app.value(), /*tick=*/0);
      obs::LifecycleSpan* span = ledger.MutableSpan(c.id.value());
      if (unplaced[static_cast<std::size_t>(c.id.value())]) {
        slo.ObservePending(*span, slo.objective().wait_ticks);
      } else {
        const std::int64_t wait =
            ledger.OnPlaced(c.id.value(), /*machine=*/-1, /*shard=*/-1,
                            /*tick=*/0);
        slo.OnAdmitted(*span, wait);
      }
    }
    std::printf(
        "\nadmission SLO (one-shot: placed = wait 0, unplaced = violation):\n");
    sim::PrintSloTable(slo.Snapshot(32));

    // One-shot watchdog (--watchdog): a replay has no tick stream, so the
    // windowed detectors degenerate to a single sample. Only the SLO burn
    // detector is meaningful here — both windows shrink to one tick and the
    // hysteresis to one breach — judging "did this replay burn the
    // admission error budget" (placed = good, unplaced = bad). The column
    // layout matches bench_online's streaming alert table.
    if (obs_cli.watchdog_requested()) {
      obs::WatchdogOptions wd;
      wd.open_after = 1;
      wd.resolve_after = 1;
      wd.burn_fast_window = 1;
      wd.burn_slow_window = 1;
      wd.pending_drift = false;
      wd.app_flapping = false;
      wd.shard_imbalance = false;
      wd.solve_regression = false;
      wd.cause_mix = false;
      obs::Watchdog watchdog(wd);
      obs::WatchdogTickInput input;
      input.tick = 0;
      input.slo_good = static_cast<std::int64_t>(metrics.audit.placed);
      input.slo_bad = static_cast<std::int64_t>(metrics.audit.unplaced);
      input.slo_budget_bp = slo.budget_bp();
      watchdog.ObserveTick(input);
      std::printf("\nwatchdog alert stream (one-shot burn check):\n");
      sim::PrintAlertTable(watchdog.Snapshot());
    }
  }

  // --timeseries degenerates to a single sample in one-shot mode; the
  // column layout matches bench_online's per-tick stream.
  if (!obs_cli.timeseries_path().empty()) {
    sim::TimeSeriesWriter timeseries(obs_cli.timeseries_path());
    if (!timeseries.ok()) return 1;
    sim::TimeSeriesPoint point;
    point.tick = 0;
    point.pending = workload.container_count();
    point.bindings = metrics.audit.placed;
    point.unschedulable = metrics.audit.unplaced;
    point.migrations = metrics.migrations;
    point.preemptions = metrics.preemptions;
    point.used_machines = metrics.used_machines;
    point.avg_util_pct = metrics.util.avg_share * 100.0;
    point.frag_pct =
        metrics.used_machines > 0 ? 100.0 - point.avg_util_pct : 0.0;
    point.wall_seconds = metrics.wall_seconds;
    point.phase_seconds = obs::ExclusiveSeconds(run_phases);
    if (!timeseries.Append(point)) {
      LOG_ERROR << "failed writing " << obs_cli.timeseries_path();
      return 1;
    }
    std::printf("timeseries written to %s\n",
                obs_cli.timeseries_path().c_str());
  }

  if (!obs_cli.Finish()) return 1;
  return 0;
}
