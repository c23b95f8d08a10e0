// Cluster health watchdog: per-detector fire / no-fire unit feeds,
// hysteresis (no flapping on a boundary-riding signal), severity
// escalation, the alert-stream determinism fingerprint across shard-pool
// thread counts (via the drill scenarios), and the /alertz + /alertz.json
// endpoint contract over a live listener socket.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/watchdog.h"
#include "sim/drill.h"

namespace aladdin {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

// Healthy tick: plenty of admissions within objective, nothing pending,
// steady solve effort, one steady give-up cause above the volume floors.
obs::WatchdogTickInput HealthyInput(std::int64_t tick) {
  obs::WatchdogTickInput input;
  input.tick = tick;
  input.slo_good = 100;
  input.slo_bad = 0;
  input.slo_budget_bp = 100;  // 99% objective
  input.pending_age_p99 = 2;
  input.pending_open = 4;
  input.solve_cost = 300;
  input.solve_wall_micros = 500;
  input.giveup_causes = {{obs::Cause::kCapacityExhaustedCpu, 40}};
  return input;
}

// One shard's load sample at `util_permille` of a 1000-millicore capacity.
obs::ShardLoad Load(std::int32_t shard, std::size_t routed,
                    std::size_t spilled, std::int64_t util_permille) {
  obs::ShardLoad load;
  load.shard = shard;
  load.machines = 8;
  load.routed = routed;
  load.spilled = spilled;
  load.placed = routed;
  load.capacity_cpu_millis = 1000;
  load.free_cpu_millis = 1000 - util_permille;
  return load;
}

// Feeds `ticks` healthy ticks starting at `from`; returns the next tick.
std::int64_t WarmUp(obs::Watchdog& watchdog, std::int64_t ticks,
                    std::int64_t from = 0) {
  for (std::int64_t t = from; t < from + ticks; ++t) {
    watchdog.ObserveTick(HealthyInput(t));
  }
  return from + ticks;
}

TEST(Watchdog, QuietBaselineNeverFires) {
  obs::Watchdog watchdog;
  WarmUp(watchdog, 64);
  EXPECT_EQ(watchdog.opened_total(), 0);
  EXPECT_EQ(watchdog.open_now(), 0);
  // No transitions folded: the fingerprint is still the FNV-1a offset.
  EXPECT_EQ(watchdog.Fingerprint(), kFnvOffset);
}

TEST(Watchdog, SloBurnOpensAfterHysteresisAndResolves) {
  obs::Watchdog watchdog;
  std::int64_t t = WarmUp(watchdog, 16);
  // Sustained 100% violation rate: both windows burn >> 8x the 1% budget.
  for (int i = 0; i < 6; ++i) {
    obs::WatchdogTickInput input = HealthyInput(t++);
    input.slo_good = 0;
    input.slo_bad = 100;
    watchdog.ObserveTick(input);
  }
  ASSERT_EQ(watchdog.opened_total(), 1);
  {
    const obs::WatchdogSnapshot snapshot = watchdog.Snapshot();
    const obs::Alert& alert = snapshot.alerts.front();
    EXPECT_EQ(alert.kind, obs::AlertKind::kSloBurnRate);
    EXPECT_EQ(alert.state, obs::AlertState::kOpen);
    EXPECT_GT(alert.evidence.observed, alert.evidence.threshold);
    EXPECT_EQ(alert.evidence.window, watchdog.options().burn_fast_window);
  }
  // Back to healthy: the fast window clears in a few ticks and the alert
  // resolves after `resolve_after` clear ticks.
  WarmUp(watchdog, 12, t);
  EXPECT_EQ(watchdog.resolved_total(), 1);
  EXPECT_EQ(watchdog.open_now(), 0);
  const obs::WatchdogSnapshot snapshot = watchdog.Snapshot();
  EXPECT_EQ(snapshot.alerts.front().state, obs::AlertState::kResolved);
  EXPECT_GT(snapshot.alerts.front().resolved_tick,
            snapshot.alerts.front().opened_tick);
}

TEST(Watchdog, SingleBadTickDoesNotFireBurn) {
  obs::Watchdog watchdog;
  std::int64_t t = WarmUp(watchdog, 16);
  obs::WatchdogTickInput input = HealthyInput(t++);
  input.slo_good = 0;
  input.slo_bad = 100;
  watchdog.ObserveTick(input);
  WarmUp(watchdog, 8, t);
  EXPECT_EQ(watchdog.opened_total(), 0);
}

TEST(Watchdog, PendingDriftFiresOnSpikeAgainstTrailingBaseline) {
  obs::Watchdog watchdog;
  std::int64_t t = WarmUp(watchdog, 16);  // baseline p99 = 2
  for (int i = 0; i < 2; ++i) {
    obs::WatchdogTickInput input = HealthyInput(t++);
    input.pending_age_p99 = 12;  // 6x the trailing mean, above the floor
    watchdog.ObserveTick(input);
  }
  ASSERT_EQ(watchdog.opened_total(), 1);
  const obs::WatchdogSnapshot snapshot = watchdog.Snapshot();
  EXPECT_EQ(snapshot.alerts.front().kind, obs::AlertKind::kPendingAgeDrift);
  EXPECT_EQ(snapshot.alerts.front().evidence.observed, 12);
  EXPECT_EQ(snapshot.alerts.front().evidence.baseline, 2);
}

TEST(Watchdog, PendingDriftIgnoresGradualGrowth) {
  obs::Watchdog watchdog;
  // p99 creeps up one tick every other tick: the ratio to the trailing
  // mean never approaches 3x, so a slowly growing backlog stays quiet.
  for (std::int64_t t = 0; t < 64; ++t) {
    obs::WatchdogTickInput input = HealthyInput(t);
    input.pending_age_p99 = 10 + t / 2;
    watchdog.ObserveTick(input);
  }
  EXPECT_EQ(watchdog.opened_total(), 0);
}

TEST(Watchdog, AppFlappingOpensPerAppSubject) {
  obs::Watchdog watchdog;
  std::int64_t t = 0;
  for (int i = 0; i < 4; ++i) {
    obs::WatchdogTickInput input = HealthyInput(t++);
    input.app_reopens = {{3, 2}, {7, 2}};
    watchdog.ObserveTick(input);
  }
  // Both apps cross the window threshold; ids assigned in app order.
  ASSERT_EQ(watchdog.opened_total(), 2);
  const obs::WatchdogSnapshot snapshot = watchdog.Snapshot();
  EXPECT_EQ(snapshot.alerts[0].kind, obs::AlertKind::kAppFlapping);
  EXPECT_EQ(snapshot.alerts[0].subject, 3);
  EXPECT_EQ(snapshot.alerts[1].subject, 7);
  EXPECT_EQ(snapshot.open_by_kind[static_cast<std::size_t>(
                obs::AlertKind::kAppFlapping)],
            2);
}

TEST(Watchdog, ShardImbalanceFiresOnUtilSkewWithHottestSubject) {
  obs::Watchdog watchdog;
  for (std::int64_t t = 0; t < 3; ++t) {
    obs::WatchdogTickInput input = HealthyInput(t);
    input.shards = {Load(0, 10, 0, 100), Load(1, 10, 0, 100),
                    Load(2, 10, 0, 900),  // 9x the median
                    Load(3, 10, 0, 100)};
    watchdog.ObserveTick(input);
  }
  ASSERT_EQ(watchdog.opened_total(), 1);
  const obs::WatchdogSnapshot snapshot = watchdog.Snapshot();
  EXPECT_EQ(snapshot.alerts.front().kind, obs::AlertKind::kShardImbalance);
  EXPECT_EQ(snapshot.alerts.front().subject, 2);
  EXPECT_EQ(snapshot.alerts.front().evidence.observed, 900);
  EXPECT_EQ(snapshot.alerts.front().evidence.baseline, 100);
}

TEST(Watchdog, ShardImbalanceFiresOnSpillRatio) {
  obs::Watchdog watchdog;
  for (std::int64_t t = 0; t < 3; ++t) {
    obs::WatchdogTickInput input = HealthyInput(t);
    // Balanced util (below the hot-shard floor) but 3/8 of routings spill.
    input.shards = {Load(0, 20, 15, 100), Load(1, 20, 0, 100)};
    watchdog.ObserveTick(input);
  }
  ASSERT_EQ(watchdog.opened_total(), 1);
  const obs::WatchdogSnapshot snapshot = watchdog.Snapshot();
  EXPECT_EQ(snapshot.alerts.front().kind, obs::AlertKind::kShardImbalance);
  EXPECT_EQ(snapshot.alerts.front().subject, 0);  // spill-heaviest shard
}

TEST(Watchdog, SolveRegressionFiresOnEffortSpikeNotWallClock) {
  obs::Watchdog watchdog;
  std::int64_t t = WarmUp(watchdog, 16);  // baseline cost = 300
  for (int i = 0; i < 2; ++i) {
    obs::WatchdogTickInput input = HealthyInput(t++);
    input.solve_cost = 1200;  // 4x trailing mean
    input.solve_wall_micros = 123456;
    watchdog.ObserveTick(input);
  }
  ASSERT_EQ(watchdog.opened_total(), 1);
  const obs::WatchdogSnapshot snapshot = watchdog.Snapshot();
  EXPECT_EQ(snapshot.alerts.front().kind, obs::AlertKind::kSolveRegression);
  EXPECT_EQ(snapshot.alerts.front().evidence.observed, 1200);
  // Wall clock rides along as evidence only.
  EXPECT_EQ(snapshot.alerts.front().evidence.extra, 123456);
}

TEST(Watchdog, SolveRegressionRespectsAbsoluteEffortFloor) {
  obs::Watchdog watchdog;
  // Tiny baseline: a 10x spike that stays under the absolute effort floor
  // (kLatencyMinCost, 256) is noise.
  for (std::int64_t t = 0; t < 16; ++t) {
    obs::WatchdogTickInput input = HealthyInput(t);
    input.solve_cost = 10;
    watchdog.ObserveTick(input);
  }
  for (std::int64_t t = 16; t < 20; ++t) {
    obs::WatchdogTickInput input = HealthyInput(t);
    input.solve_cost = 100;
    watchdog.ObserveTick(input);
  }
  EXPECT_EQ(watchdog.opened_total(), 0);
}

TEST(Watchdog, CauseMixShiftFiresWhenTheHistogramFlips) {
  obs::Watchdog watchdog;
  std::int64_t t = WarmUp(watchdog, 16);  // all-CPU give-up mix
  for (int i = 0; i < 2; ++i) {
    obs::WatchdogTickInput input = HealthyInput(t++);
    input.giveup_causes = {{obs::Cause::kCapacityExhaustedMem, 40}};
    watchdog.ObserveTick(input);
  }
  ASSERT_EQ(watchdog.opened_total(), 1);
  const obs::WatchdogSnapshot snapshot = watchdog.Snapshot();
  EXPECT_EQ(snapshot.alerts.front().kind, obs::AlertKind::kCauseMixShift);
}

TEST(Watchdog, BoundaryRidingSignalNeverFlaps) {
  obs::Watchdog watchdog;
  std::int64_t t = WarmUp(watchdog, 16);
  // Alternating spike / normal p99: each spike tick breaches but the clear
  // tick in between resets the streak below open_after, so no alert ever
  // opens and the fingerprint stays untouched.
  for (int i = 0; i < 16; ++i) {
    obs::WatchdogTickInput input = HealthyInput(t++);
    input.pending_age_p99 = (i % 2 == 0) ? 12 : 2;
    watchdog.ObserveTick(input);
  }
  EXPECT_EQ(watchdog.opened_total(), 0);
  EXPECT_EQ(watchdog.Fingerprint(), kFnvOffset);
}

TEST(Watchdog, SeverityEscalatesFromWarningToCritical) {
  obs::Watchdog watchdog;
  std::int64_t t = WarmUp(watchdog, 16);  // drift baseline p99 = 2
  // Warning zone: above 3x the trailing mean but below 6x.
  for (int i = 0; i < 2; ++i) {
    obs::WatchdogTickInput input = HealthyInput(t++);
    input.pending_age_p99 = 7;
    watchdog.ObserveTick(input);
  }
  ASSERT_EQ(watchdog.opened_total(), 1);
  EXPECT_EQ(watchdog.Snapshot().alerts.front().severity,
            obs::AlertSeverity::kWarning);
  const std::uint64_t before = watchdog.Fingerprint();
  // Deep breach while open: escalates in place, no second alert.
  obs::WatchdogTickInput input = HealthyInput(t++);
  input.pending_age_p99 = 40;
  watchdog.ObserveTick(input);
  EXPECT_EQ(watchdog.opened_total(), 1);
  EXPECT_EQ(watchdog.Snapshot().alerts.front().severity,
            obs::AlertSeverity::kCritical);
  // Escalation is a folded transition: the fingerprint moves.
  EXPECT_NE(watchdog.Fingerprint(), before);
}

TEST(Watchdog, DisabledDetectorsStayQuiet) {
  obs::WatchdogOptions options;
  options.slo_burn = false;
  options.pending_drift = false;
  options.app_flapping = false;
  options.shard_imbalance = false;
  options.solve_regression = false;
  options.cause_mix = false;
  obs::Watchdog watchdog(options);
  for (std::int64_t t = 0; t < 32; ++t) {
    obs::WatchdogTickInput input = HealthyInput(t);
    input.slo_bad = 100;
    input.slo_good = 0;
    input.pending_age_p99 = 100;
    input.app_reopens = {{0, 10}};
    input.solve_cost = 100000;
    watchdog.ObserveTick(input);
  }
  EXPECT_EQ(watchdog.opened_total(), 0);
  EXPECT_EQ(watchdog.Fingerprint(), kFnvOffset);
}

TEST(Watchdog, IdenticalFeedsGiveIdenticalFingerprints) {
  obs::Watchdog a;
  obs::Watchdog b;
  for (std::int64_t t = 0; t < 20; ++t) {
    obs::WatchdogTickInput input = HealthyInput(t);
    if (t >= 16) input.pending_age_p99 = 12;
    a.ObserveTick(input);
    b.ObserveTick(input);
  }
  EXPECT_GT(a.opened_total(), 0);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // A diverging feed (a flapping app only `a` sees) moves the fingerprint.
  for (std::int64_t t = 20; t < 24; ++t) {
    obs::WatchdogTickInput flapping = HealthyInput(t);
    flapping.app_reopens = {{9, 2}};
    a.ObserveTick(flapping);
    b.ObserveTick(HealthyInput(t));
  }
  EXPECT_GT(a.opened_total(), b.opened_total());
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

// ---------------------------------------------------------------------------
// Drill-driven integration: every scenario fires exactly its expected
// kinds, the baseline is alert-free, and at a fixed shard count the alert
// stream is bit-identical across shard-pool thread counts.

TEST(WatchdogDrills, EveryScenarioFiresExactlyItsExpectedKinds) {
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(sim::DrillScenario::kCount); ++i) {
    sim::DrillOptions options;
    options.scenario = static_cast<sim::DrillScenario>(i);
    const sim::DrillReport report = sim::RunDrill(options);
    EXPECT_TRUE(report.fired_expected)
        << sim::DrillScenarioName(options.scenario)
        << " did not fire its expected kinds";
    EXPECT_TRUE(report.fired_only_expected)
        << sim::DrillScenarioName(options.scenario)
        << " fired an unexpected kind";
  }
}

TEST(WatchdogDrills, BaselineIsAlertFreeWithAllDetectorsArmed) {
  sim::DrillOptions options;
  options.scenario = sim::DrillScenario::kBaseline;
  const sim::DrillReport report = sim::RunDrill(options);
  EXPECT_EQ(report.watchdog.opened_total, 0);
  EXPECT_EQ(report.fingerprint, kFnvOffset);
}

TEST(WatchdogDrills, FixedShardCountIsThreadCountInvariant) {
  sim::DrillOptions serial;
  serial.scenario = sim::DrillScenario::kRoutingSkew;  // forces shards >= 4
  serial.threads = 1;
  sim::DrillOptions parallel = serial;
  parallel.threads = 8;
  const sim::DrillReport a = sim::RunDrill(serial);
  const sim::DrillReport b = sim::RunDrill(parallel);
  EXPECT_GT(a.watchdog.opened_total, 0);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

// ---------------------------------------------------------------------------
// /alertz endpoint contract.

std::string HttpGet(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// A watchdog with one resolved drift alert and one open flapping alert.
obs::WatchdogSnapshot FiredSnapshot() {
  obs::Watchdog watchdog;
  std::int64_t t = WarmUp(watchdog, 16);
  for (int i = 0; i < 2; ++i) {
    obs::WatchdogTickInput input = HealthyInput(t++);
    input.pending_age_p99 = 12;
    watchdog.ObserveTick(input);
  }
  t = WarmUp(watchdog, 4, t);  // resolves the drift alert
  for (int i = 0; i < 4; ++i) {
    obs::WatchdogTickInput input = HealthyInput(t++);
    input.app_reopens = {{5, 2}};
    watchdog.ObserveTick(input);
  }
  return watchdog.Snapshot();
}

TEST(WatchdogEndpoints, AlertzServesTableAndJson) {
  obs::IntrospectionStatus status;
  status.tick = 26;
  status.watchdog = FiredSnapshot();
  ASSERT_EQ(status.watchdog.opened_total, 2);
  ASSERT_EQ(status.watchdog.resolved_total, 1);
  obs::PublishIntrospection(status);

  obs::PrometheusListener listener;
  ASSERT_TRUE(listener.Start(0));
  const std::uint16_t port = listener.port();
  ASSERT_GT(port, 0);

  const std::string alertz = HttpGet(port, "/alertz");
  EXPECT_NE(alertz.find("200 OK"), std::string::npos);
  EXPECT_NE(alertz.find("open=1 opened=2 resolved=1"), std::string::npos);
  EXPECT_NE(alertz.find("pending_age_drift"), std::string::npos);
  EXPECT_NE(alertz.find("app_flapping"), std::string::npos);

  const std::string json = HttpGet(port, "/alertz.json");
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"app_flapping\""), std::string::npos);
  EXPECT_NE(json.find("\"evidence\":{\"observed\":"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"resolved\""), std::string::npos);

  listener.Stop();
}

TEST(WatchdogEndpoints, RenderersHandleDisabledAndEmptySnapshots) {
  const obs::WatchdogSnapshot disabled;  // resolver ran without --watchdog
  EXPECT_NE(obs::RenderAlertz(disabled).find("watchdog: disabled"),
            std::string::npos);
  EXPECT_NE(obs::RenderAlertsJson(disabled).find("\"enabled\":false"),
            std::string::npos);

  obs::Watchdog quiet;
  WarmUp(quiet, 4);
  const obs::WatchdogSnapshot empty = quiet.Snapshot();
  EXPECT_NE(obs::RenderAlertz(empty).find("no alerts"), std::string::npos);
  EXPECT_NE(obs::RenderAlertsJson(empty).find("\"alerts\":[]"),
            std::string::npos);
}

}  // namespace
}  // namespace aladdin
