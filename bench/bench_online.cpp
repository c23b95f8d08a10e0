// Online scheduling bench over the co-design stack (§IV.C Fig. 6 + §IV.D
// mixed clusters): waves of long-lived deployments and short-lived batch
// jobs stream through EHC → MA → RE tick by tick. The paper's "acceptable
// placement latency" goal is that each resolve stays in the sub-second
// range even as the cluster fills; this bench reports per-tick resolver
// wall time, binding throughput, and end-state placement quality.
//
// --json=PATH emits a BENCH_*.json for tools/perf_compare.py; the final
// audit line recounts placement quality from the adaptor's bound pods.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/audit.h"
#include "common/bench_json.h"
#include "common/flags.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "k8s/simulator.h"
#include "obs/cli.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "sim/report.h"

using namespace aladdin;

namespace {

// Post-hoc placement audit: rebuild a ClusterState from the adaptor's final
// snapshot (bound pods deployed) and recount violations from scratch, so
// the number is independent of any resolver-internal state. Containers
// whose pods are gone (completed batch tasks, deleted pods) are retired,
// not unplaced.
cluster::AuditReport AuditFinalState(k8s::ModelAdaptor& adaptor) {
  const trace::Workload& workload = adaptor.workload();
  cluster::ClusterState state = workload.MakeState(adaptor.topology());
  for (k8s::PodUid uid : adaptor.BoundPods()) {
    const k8s::Pod* pod = adaptor.FindPod(uid);
    state.Deploy(adaptor.ContainerOf(uid), adaptor.MachineOf(pod->node));
  }
  std::vector<cluster::ContainerId> retired;
  for (const cluster::Container& c : workload.containers()) {
    if (adaptor.PodOfContainer(c.id) < 0) retired.push_back(c.id);
  }
  return cluster::Audit(state, retired);
}

// Cluster occupancy recomputed from the adaptor snapshot for --timeseries:
// O(bound pods + nodes) per tick, paid only when the flag is set.
struct Occupancy {
  std::size_t used_machines = 0;
  double avg_util_pct = 0.0;
};

Occupancy MeasureOccupancy(k8s::ModelAdaptor& adaptor) {
  const cluster::Topology& topology = adaptor.topology();
  std::vector<cluster::ResourceVector> used(topology.machine_count());
  for (k8s::PodUid uid : adaptor.BoundPods()) {
    const k8s::Pod* pod = adaptor.FindPod(uid);
    const cluster::MachineId m = adaptor.MachineOf(pod->node);
    if (m.valid()) {
      used[static_cast<std::size_t>(m.value())] += pod->spec->requests;
    }
  }
  Occupancy occ;
  double share_sum = 0.0;
  for (const auto& machine : topology.machines()) {
    const auto& u = used[static_cast<std::size_t>(machine.id.value())];
    if (u.IsZero()) continue;
    ++occ.used_machines;
    share_sum += u.DominantShareOf(machine.capacity);
  }
  if (occ.used_machines > 0) {
    occ.avg_util_pct =
        share_sum / static_cast<double>(occ.used_machines) * 100.0;
  }
  return occ;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  auto& nodes = flags.Int64("nodes", 400, "cluster size");
  auto& ticks = flags.Int64("ticks", 12, "simulated ticks");
  auto& lla_wave = flags.Int64("lla_wave", 40,
                               "long-lived pods submitted per tick");
  auto& batch_wave = flags.Int64("batch_wave", 120,
                                 "batch tasks submitted per tick");
  auto& seed = flags.Int64("seed", 42, "workload seed");
  auto& threads = flags.Int64("threads", 0,
                              "shard-solve pool size with --shards >= 2 "
                              "(0 = hardware concurrency, 1 = serial); the "
                              "unsharded solve is serial");
  auto& shards = flags.Int64("shards", 0,
                             "partition the cluster into this many shards "
                             "solved concurrently (0 or 1 = unsharded)");
  auto& routing = flags.String("routing", "least-utilized",
                               "shard routing policy: hash, least-utilized");
  auto& batch_deadline =
      flags.Int64("batch_deadline_ticks", 1,
                  "solve long-lived pods only every N ticks (deferred "
                  "ticks park them under batch_deferred)");
  auto& slo_ticks = flags.Int64("slo_ticks", 4,
                                "admission SLO objective: this share of pods "
                                "must bind within this many ticks");
  auto& slo_pct = flags.Double("slo_pct", 99.0,
                               "admission SLO objective percent");
  auto& slo_report = flags.String("slo_report", "",
                                  "write the final SLO snapshot (the /slo "
                                  "endpoint JSON) to this path");
  auto& json = flags.String("json", "",
                            "write BENCH json results to this path");
  obs::ObsCli obs_cli(flags);
  if (!flags.Parse(argc, argv)) return 1;
  if (!obs_cli.Apply()) return 1;

  sim::PrintExperimentHeader(
      "Online", "streaming waves through EHC -> MA -> RE (Fig. 6 stack)");

  k8s::ResolverOptions options;
  options.aladdin.threads = static_cast<int>(threads);
  options.shards = static_cast<int>(shards);
  options.routing = core::ShardRoutingFromName(routing);
  if (options.routing == core::ShardRouting::kCount) {
    LOG_ERROR << "unknown --routing '" << routing
              << "' (hash, least-utilized)";
    return 1;
  }
  options.slo.wait_ticks = slo_ticks;
  options.slo.percent = slo_pct;
  options.batch_deadline_ticks = static_cast<int>(batch_deadline);
  options.watchdog = obs_cli.watchdog_requested();
  k8s::ClusterSimulator sim(options);
  sim.AddNodes(static_cast<std::size_t>(nodes),
               cluster::ResourceVector::Cores(32, 64));

  std::optional<sim::TimeSeriesWriter> timeseries;
  if (!obs_cli.timeseries_path().empty()) {
    timeseries.emplace(obs_cli.timeseries_path());
    if (!timeseries->ok()) return 1;
  }
  // Per-cause unschedulable totals across all ticks (provenance histogram).
  std::array<std::int64_t, static_cast<std::size_t>(obs::Cause::kCount)>
      cause_totals{};

  // Per-shard totals across all ticks (--shards only).
  std::vector<obs::ShardLoad> shard_totals;

  Rng rng(static_cast<std::uint64_t>(seed));
  Sample resolve_ms;
  double total_seconds = 0.0;
  double total_tick_seconds = 0.0;
  std::int64_t total_bindings = 0;
  const std::vector<obs::PhaseDelta> phases_before =
      obs::MetricsEnabled() ? obs::CapturePhases()
                            : std::vector<obs::PhaseDelta>{};
  Table table({"tick", "pending", "bound", "migr", "preempt", "unsched",
               "batch done", "resolve ms"});
  std::int64_t app_counter = 0;
  for (std::int64_t t = 0; t < ticks; ++t) {
    // A wave of LLA deployments with mixed constraints.
    std::int64_t submitted = 0;
    while (submitted < lla_wave) {
      const auto replicas =
          static_cast<std::size_t>(rng.UniformInt(1, 12));
      k8s::PodSpec spec;
      spec.requests = cluster::ResourceVector::Cores(rng.UniformInt(1, 8),
                                                     rng.UniformInt(2, 16));
      spec.priority =
          rng.Bernoulli(0.15)
              ? static_cast<cluster::Priority>(rng.UniformInt(1, 3))
              : 0;
      spec.anti_affinity_within = rng.Bernoulli(0.7);
      sim.SubmitDeployment("lla-" + std::to_string(app_counter++), replicas,
                           spec);
      submitted += static_cast<std::int64_t>(replicas);
    }
    // And a batch job that holds resources for a couple of ticks.
    sim.SubmitBatchJob("batch-" + std::to_string(t),
                       static_cast<std::size_t>(batch_wave),
                       cluster::ResourceVector::Cores(1, 2),
                       /*lifetime_ticks=*/2);

    // The time series' phase seconds: the registry diffed around the tick.
    const bool tick_phases = timeseries.has_value() && obs::MetricsEnabled();
    const std::vector<obs::PhaseDelta> tick_phases_before =
        tick_phases ? obs::CapturePhases() : std::vector<obs::PhaseDelta>{};
    WallTimer tick_timer;
    const k8s::ResolveStats stats = sim.Tick();
    total_tick_seconds += tick_timer.ElapsedSeconds();
    const double tick_phase_seconds =
        tick_phases ? obs::ExclusiveSeconds(obs::DiffPhases(
                          tick_phases_before, obs::CapturePhases()))
                    : 0.0;
    resolve_ms.Add(stats.wall_seconds * 1e3);
    total_seconds += stats.wall_seconds;
    total_bindings += static_cast<std::int64_t>(stats.new_bindings);
    table.Cell(static_cast<std::int64_t>(stats.tick))
        .Cell(static_cast<std::int64_t>(stats.pending_before))
        .Cell(static_cast<std::int64_t>(stats.new_bindings))
        .Cell(static_cast<std::int64_t>(stats.migrations))
        .Cell(static_cast<std::int64_t>(stats.preemptions))
        .Cell(static_cast<std::int64_t>(stats.unschedulable))
        .Cell(sim.completed_tasks())
        .Cell(stats.wall_seconds * 1e3, 2)
        .EndRow();
    for (const auto& [cause, n] : stats.unschedulable_causes) {
      cause_totals[static_cast<std::size_t>(cause)] +=
          static_cast<std::int64_t>(n);
    }
    if (!stats.shards.empty()) {
      if (shard_totals.size() < stats.shards.size()) {
        shard_totals.resize(stats.shards.size());
      }
      for (const obs::ShardLoad& s : stats.shards) {
        obs::ShardLoad& total =
            shard_totals[static_cast<std::size_t>(s.shard)];
        total.shard = s.shard;
        total.machines = s.machines;
        total.routed += s.routed;
        total.placed += s.placed;
        total.unplaced += s.unplaced;
        total.solve_seconds += s.solve_seconds;
      }
    }
    if (timeseries.has_value()) {
      const Occupancy occ = MeasureOccupancy(sim.adaptor());
      sim::TimeSeriesPoint point;
      point.tick = stats.tick;
      point.pending = stats.pending_before;
      point.bindings = stats.new_bindings;
      point.unschedulable = stats.unschedulable;
      point.migrations = stats.migrations;
      point.preemptions = stats.preemptions;
      point.used_machines = occ.used_machines;
      point.avg_util_pct = occ.avg_util_pct;
      point.frag_pct =
          occ.used_machines > 0 ? 100.0 - occ.avg_util_pct : 0.0;
      point.wall_seconds = stats.wall_seconds;
      point.phase_seconds = tick_phase_seconds;
      point.slo_attainment_pct = stats.slo.attainment_pct;
      point.pending_age_p99 = stats.pending_ages.p99;
      if (options.watchdog) {
        const obs::WatchdogSnapshot alerts =
            sim.resolver().watchdog().Snapshot();
        point.alerts_open = alerts.open_now;
        point.alerts_open_by_kind = alerts.open_by_kind;
      }
      if (!timeseries->Append(point)) {
        LOG_ERROR << "failed writing " << obs_cli.timeseries_path();
        return 1;
      }
    }
  }
  table.Print();

  // Where the tick time went, from the obs phase registry. The exclusive
  // rows partition the ticks, so their coverage row should land within a
  // few percent of the measured tick wall time (tools/check_trace.py and
  // the obs tests pin this down).
  if (obs::MetricsEnabled()) {
    const std::vector<obs::PhaseDelta> run_phases =
        obs::DiffPhases(phases_before, obs::CapturePhases());
    std::printf("\nper-tick phase breakdown (%lld ticks, %.3f ms total):\n",
                static_cast<long long>(ticks), total_tick_seconds * 1e3);
    sim::PrintPhaseTable(run_phases, total_tick_seconds);
    const double covered = obs::ExclusiveSeconds(run_phases);
    std::printf("phase coverage: %.1f%% of measured tick time\n",
                total_tick_seconds > 0.0
                    ? covered / total_tick_seconds * 100.0
                    : 0.0);
  }

  // Per-shard activity (--shards): how evenly the routing spread the work
  // and where the solve wall time went. Solves run concurrently, so the
  // wall-clock win is roughly max(solve s) vs their sum.
  if (!shard_totals.empty()) {
    std::printf("\nper-shard breakdown (totals over %lld ticks):\n",
                static_cast<long long>(ticks));
    Table shard_table(
        {"shard", "machines", "routed", "placed", "unplaced", "solve s"});
    double max_solve = 0.0;
    double sum_solve = 0.0;
    for (const obs::ShardLoad& s : shard_totals) {
      shard_table.Cell(static_cast<std::int64_t>(s.shard))
          .Cell(static_cast<std::int64_t>(s.machines))
          .Cell(static_cast<std::int64_t>(s.routed))
          .Cell(static_cast<std::int64_t>(s.placed))
          .Cell(static_cast<std::int64_t>(s.unplaced))
          .Cell(s.solve_seconds, 3)
          .EndRow();
      max_solve = std::max(max_solve, s.solve_seconds);
      sum_solve += s.solve_seconds;
    }
    shard_table.Print();
    std::printf("shard solve: sum=%.3f s, critical path=%.3f s "
                "(parallel speedup bound %.2fx)\n",
                sum_solve, max_solve,
                max_solve > 0.0 ? sum_solve / max_solve : 0.0);
  }

  // Why pods went unschedulable, accumulated across all ticks from the
  // resolver's per-cause breakdown (the decision journal's vocabulary).
  std::vector<std::pair<obs::Cause, std::int64_t>> cause_counts;
  for (std::size_t i = 0; i < cause_totals.size(); ++i) {
    if (cause_totals[i] > 0) {
      cause_counts.emplace_back(static_cast<obs::Cause>(i), cause_totals[i]);
    }
  }
  if (!cause_counts.empty()) {
    std::printf("\nunschedulable cause histogram (all ticks):\n");
    sim::PrintCauseTable(cause_counts);
  }

  // Admission-SLO attainment (obs/lifecycle + obs/slo): the resolver
  // publishes the same snapshot the /statusz and /slo endpoints serve, so
  // the table here matches what a live scrape would have seen at the last
  // tick. --slo_report dumps the machine-readable form for CI artifacts.
  const obs::IntrospectionStatus introspection = obs::IntrospectionSnapshot();
  if (obs::IntrospectionPublished()) {
    std::printf("\nadmission SLO attainment (per app, worst first):\n");
    sim::PrintSloTable(introspection.slo);
    if (!slo_report.empty()) {
      std::ofstream os(slo_report, std::ios::out | std::ios::trunc);
      if (!os || !(os << obs::RenderSloJson(introspection) << '\n')) {
        LOG_ERROR << "failed to write " << slo_report;
        return 1;
      }
      std::printf("slo report written to %s\n", slo_report.c_str());
    }
  }
  // Watchdog alert stream (--watchdog): the same snapshot /alertz renders,
  // summarised one row per alert. `alert_stream` also feeds the bench json.
  const obs::WatchdogSnapshot alert_stream =
      options.watchdog ? sim.resolver().watchdog().Snapshot()
                       : obs::WatchdogSnapshot{};
  if (options.watchdog) {
    std::printf("\nwatchdog alert stream (final tick snapshot):\n");
    sim::PrintAlertTable(alert_stream);
  }
  if (timeseries.has_value()) {
    std::printf("timeseries written to %s\n",
                obs_cli.timeseries_path().c_str());
  }

  std::printf("resolve latency ms: p50=%.2f p99=%.2f max=%.2f "
              "(goal: sub-second at production scale)\n",
              resolve_ms.Percentile(50), resolve_ms.Percentile(99),
              resolve_ms.max());
  std::printf("final: %zu pods bound, %zu pending, %lld batch tasks "
              "completed over %lld ticks\n",
              sim.adaptor().BoundPods().size(),
              sim.adaptor().PendingPods().size(),
              static_cast<long long>(sim.completed_tasks()),
              static_cast<long long>(sim.now()));

  // Placement-quality witness: identical scheduling decisions (across
  // thread settings) give identical audit numbers.
  const cluster::AuditReport audit = AuditFinalState(sim.adaptor());
  std::printf("audit: %zu containers, %zu placed, %zu unplaced "
              "(%zu resources, %zu anti-affinity, %zu scheduler), "
              "%zu retired, %zu colocation violations, violation%%=%.3f\n",
              audit.total_containers, audit.placed, audit.unplaced,
              audit.unplaced_resources, audit.unplaced_anti_affinity,
              audit.unplaced_scheduler, audit.retired,
              audit.colocation_violations, audit.ViolationPercent());

  BenchJson out("online");
  {
    out.Tag("nodes", nodes);
    out.Tag("ticks", ticks);
    out.Tag("lla_wave", lla_wave);
    out.Tag("batch_wave", batch_wave);
    out.Tag("seed", seed);
    out.Tag("threads", threads);
    out.Tag("shards", shards);
    if (shards > 1) out.Tag("routing", routing);
    if (batch_deadline > 1) out.Tag("batch_deadline_ticks", batch_deadline);
    out.Percentiles("resolve_ms", resolve_ms);
    out.Metric("total_resolve_s", total_seconds, "s");
    out.Metric("bindings_per_s",
               total_seconds > 0 ? static_cast<double>(total_bindings) /
                                       total_seconds
                                 : 0.0,
               "rate");
    out.Metric("pods_bound",
               static_cast<double>(sim.adaptor().BoundPods().size()), "count");
    out.Metric("pods_pending",
               static_cast<double>(sim.adaptor().PendingPods().size()),
               "count");
    out.Metric("batch_completed", static_cast<double>(sim.completed_tasks()),
               "count");
    out.Metric("audit_placed", static_cast<double>(audit.placed), "count");
    out.Metric("audit_unplaced", static_cast<double>(audit.unplaced), "count");
    out.Metric("audit_retired", static_cast<double>(audit.retired), "count");
    out.Metric("audit_colocation_violations",
               static_cast<double>(audit.colocation_violations), "count");
    if (obs::IntrospectionPublished()) {
      out.Metric("slo_admitted",
                 static_cast<double>(introspection.slo.admitted), "count");
      out.Metric("slo_violations",
                 static_cast<double>(introspection.slo.violations), "count");
      out.Metric("slo_attainment_pct", introspection.slo.attainment_pct,
                 "pct");
      out.Metric("admission_wait_p99_ticks",
                 static_cast<double>(introspection.slo.p99), "count");
    }
    if (options.watchdog) {
      out.Metric("alerts_opened_total",
                 static_cast<double>(alert_stream.opened_total), "count");
      out.Metric("alerts_resolved_total",
                 static_cast<double>(alert_stream.resolved_total), "count");
    }
    if (!shard_totals.empty()) {
      double max_solve = 0.0;
      double sum_solve = 0.0;
      std::int64_t routed = 0;
      for (const obs::ShardLoad& s : shard_totals) {
        max_solve = std::max(max_solve, s.solve_seconds);
        sum_solve += s.solve_seconds;
        routed += static_cast<std::int64_t>(s.routed);
      }
      out.Metric("shard_solve_sum_s", sum_solve, "s");
      out.Metric("shard_solve_max_s", max_solve, "s");
      out.Metric("shard_routed", static_cast<double>(routed), "count");
    }
  }

  // Flush the obs layer: trace file, --metrics stdout dump, and the metrics
  // registry appended to the bench json (counters identity-checked by
  // tools/perf_compare.py, phase times ratio-checked).
  if (!obs_cli.Finish(json.empty() ? nullptr : &out)) return 1;

  if (!json.empty()) {
    if (!out.WriteFile(json)) {
      LOG_ERROR << "failed to write " << json;
      return 1;
    }
    std::printf("bench json written to %s\n", json.c_str());
  }
  return 0;
}
