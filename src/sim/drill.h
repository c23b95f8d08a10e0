// Watchdog drills: deterministic pathology-injection scenarios that drive
// a k8s::ClusterSimulator until a specific watchdog detector fires — and a
// quiet baseline that must fire nothing. Each scenario enables exactly the
// detectors it is designed to trip (the per-scenario mask), so the report's
// "fired only the expected kinds" verdict is a stable CI gate instead of a
// bet on every other detector's thresholds; the baseline runs with all six
// detectors armed and asserts a zero-alert stream.
//
// Determinism: every scenario is a fixed event script over the simulator's
// discrete clock — no randomness, no wall-clock dependence — so the alert
// stream (and its fingerprint) is bit-identical across runs, thread counts
// and re-runs in CI.
//
// Layering: sits above k8s (the harness needs the full resolver stack),
// which is why this lives in the aladdin_drill library rather than
// aladdin_sim despite the sim/ directory and namespace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/watchdog.h"

namespace aladdin::sim {

// One pathology script per watchdog detector, plus the quiet baseline.
enum class DrillScenario : std::uint8_t {  // analyze:closed_enum
  kBaseline = 0,        // steady mixed load; all detectors armed, 0 alerts
  kDrainStorm,          // rolling node drains -> kAppFlapping
  kRoutingSkew,         // one giant app, hash routing -> kShardImbalance
  kArrivalBurst,        // sudden long-lived burst -> kSolveRegression
  kDeadlineStarvation,  // unplaceable backlog -> kSloBurnRate +
                        //                        kPendingAgeDrift
  kCauseShift,          // give-up mix flips cpu->mem -> kCauseMixShift
  kCount
};

[[nodiscard]] const char* DrillScenarioName(DrillScenario scenario);
// Inverse of DrillScenarioName; returns kCount for unknown names.
[[nodiscard]] DrillScenario DrillScenarioFromName(const std::string& name);

struct DrillOptions {
  DrillScenario scenario = DrillScenario::kBaseline;
  // Simulated ticks. Each scenario has a floor below which its pathology
  // cannot complete; Run() clamps up to it.
  std::int64_t ticks = 48;
  // Shard count for the resolver (kRoutingSkew forces >= 4).
  int shards = 0;
  // Shard-solve pool size when the resolver is sharded (the unsharded
  // solve is serial). Results are bit-identical for any value.
  int threads = 1;
};

struct DrillReport {
  DrillScenario scenario = DrillScenario::kBaseline;
  std::int64_t ticks = 0;
  // Alert kinds this scenario is designed to fire (empty for kBaseline).
  std::vector<obs::AlertKind> expected;
  // Verdicts: every expected kind opened at least one alert / no alert of
  // any other kind opened. The baseline passes with both true and
  // opened_total == 0.
  bool fired_expected = false;
  bool fired_only_expected = false;
  // Final watchdog state + determinism fingerprint.
  obs::WatchdogSnapshot watchdog;
  std::uint64_t fingerprint = 0;
};

// Alert kinds DrillReport::expected carries for `scenario`.
[[nodiscard]] std::vector<obs::AlertKind> DrillExpectedKinds(
    DrillScenario scenario);

// Runs one scenario to completion and reports the verdict.
[[nodiscard]] DrillReport RunDrill(const DrillOptions& options);

// Human-readable one-scenario summary (drill_runner / bench logs).
[[nodiscard]] std::string RenderDrillReport(const DrillReport& report);

}  // namespace aladdin::sim
