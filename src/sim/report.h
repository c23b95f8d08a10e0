// Bench-output helpers: consistent headers and paper-vs-measured tables so
// EXPERIMENTS.md can be assembled straight from bench stdout.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/watchdog.h"
#include "sim/metrics.h"

namespace aladdin::sim {

// Prints a banner naming the figure/table being reproduced.
void PrintExperimentHeader(const std::string& experiment_id,
                           const std::string& description);

// Standard per-run row set: scheduler, placed/unplaced, violation %, AA
// share, machines, util, migrations, latency. `paper_note` (optional, same
// length as metrics) annotates each row with the paper's reported number.
Table BuildRunTable(const std::vector<RunMetrics>& metrics,
                    const std::vector<std::string>& paper_notes = {});
void PrintRunTable(const std::vector<RunMetrics>& metrics,
                   const std::vector<std::string>& paper_notes = {});

// Eq. 10 efficiency table relative to the best machine count in the set.
Table BuildEfficiencyTable(const std::vector<RunMetrics>& metrics);
void PrintEfficiencyTable(const std::vector<RunMetrics>& metrics);

// Machine-readable export for plotting: appends one row per run to `path`
// (writing a header first if the file does not exist yet). Columns:
// experiment,label,scheduler,placed,unplaced,violations_pct,aa_share_pct,
// machines,avg_util_pct,migrations,preemptions,wall_seconds,
// ms_per_container. Returns false on I/O failure. Benches expose this via
// their --csv flag.
bool AppendMetricsCsv(const std::string& path, const std::string& experiment,
                      const std::string& label,
                      const std::vector<RunMetrics>& metrics);

// Where-the-time-went breakdown from the obs phase registry (see
// obs/metrics.h). One row per phase: total ms, calls, share of
// `total_seconds` (the measured wall time the deltas are judged against),
// and whether the phase is exclusive (partitions the run) or nested detail.
// Exclusive rows print first; their share-sum is the coverage figure
// bench_online checks against its tick wall time.
Table BuildPhaseTable(const std::vector<obs::PhaseDelta>& phases,
                      double total_seconds);
void PrintPhaseTable(const std::vector<obs::PhaseDelta>& phases,
                     double total_seconds);

// Cause histogram (journal provenance): one row per cause with its count
// and share. Used by bench_online's final summary next to the phase
// breakdown; `counts` entries with zero count are skipped.
Table BuildCauseTable(
    const std::vector<std::pair<obs::Cause, std::int64_t>>& counts);
void PrintCauseTable(
    const std::vector<std::pair<obs::Cause, std::int64_t>>& counts);

// SLO attainment table (obs/slo.h snapshot rows): per-app admitted /
// within-objective / violation counts and exact wait-tick percentiles,
// worst app first, plus a cumulative "(total)" row. Printed by
// bench_online / trace_replay next to the cause histogram.
Table BuildSloTable(const obs::SloSnapshot& snapshot);
void PrintSloTable(const obs::SloSnapshot& snapshot);

// Watchdog alert summary (obs/watchdog.h snapshot): one row per alert in
// id order — kind, severity, subject, open/resolve ticks and the latest
// evidence. Printed by bench_online / drill_runner end-of-run with
// --watchdog; empty snapshots render a single "(no alerts)" row.
Table BuildAlertTable(const obs::WatchdogSnapshot& snapshot);
void PrintAlertTable(const obs::WatchdogSnapshot& snapshot);

// One per-tick time-series sample (bench_online --timeseries).
struct TimeSeriesPoint {
  std::int64_t tick = 0;
  std::size_t pending = 0;        // pending pods before the resolve
  std::size_t bindings = 0;       // new bindings this tick
  std::size_t unschedulable = 0;  // give-ups this tick
  std::size_t migrations = 0;
  std::size_t preemptions = 0;
  std::size_t used_machines = 0;
  double avg_util_pct = 0.0;   // mean dominant share over used machines
  double frag_pct = 0.0;       // 100 - avg_util_pct on used machines
  double wall_seconds = 0.0;   // resolve wall time
  double phase_seconds = 0.0;  // exclusive-phase seconds of the tick
  // Lifecycle / SLO columns (the resolver's lifecycle ledger; exact ticks).
  double slo_attainment_pct = 100.0;   // cumulative within/(within+bad)
  std::int64_t pending_age_p99 = 0;    // p99 age of still-open spans
  // Watchdog columns (--watchdog): alerts open after this tick, total and
  // per kind (obs::AlertKind order).
  std::int64_t alerts_open = 0;
  std::array<std::int64_t, static_cast<std::size_t>(obs::AlertKind::kCount)>
      alerts_open_by_kind{};
};

// Streams one row per Append() to `path` (truncating on open). The format
// follows the extension: ".jsonl" writes one JSON object per line, anything
// else CSV with a leading header row.
class TimeSeriesWriter {
 public:
  explicit TimeSeriesWriter(const std::string& path);

  // False (with a logged error) when the file could not be opened.
  [[nodiscard]] bool ok() const { return static_cast<bool>(os_); }
  // False on I/O failure.
  bool Append(const TimeSeriesPoint& point);

 private:
  std::ofstream os_;
  bool jsonl_ = false;
  bool wrote_header_ = false;
};

}  // namespace aladdin::sim
