// Observability layer: exact counters and phase totals, histogram percentiles against the
// exact-order-statistics baseline in common/stats.h, phase capture/diff, and
// the trace writer's Chrome trace-event JSON contract (globally sorted
// timestamps, balanced B/E pairs per thread — including under ThreadPool
// stress and ring-buffer wraparound).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "k8s/simulator.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/runtime.h"
#include "obs/trace.h"

namespace aladdin {
namespace {

// Every test runs with metrics armed and a clean registry; tracing is torn
// down so a failing test can't leak an armed mode bit into the next one.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetMetricsEnabled(true);
    obs::Registry::Get().ResetAll();
  }
  void TearDown() override {
    obs::StopTracing();
    obs::SetMetricsEnabled(false);
    obs::Registry::Get().ResetAll();
  }
};

// --- counters / gauges -------------------------------------------------------

TEST_F(ObsTest, CounterSumsExactlyAcrossThreads) {
  obs::Counter& counter = obs::Registry::Get().GetCounter("test/counter");
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  ParallelFor(pool, 0, kN, [&](std::size_t i) {
    counter.Add(static_cast<std::int64_t>(i % 7) + 1);
  });
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    expected += static_cast<std::int64_t>(i % 7) + 1;
  }
  EXPECT_EQ(counter.Value(), expected);
}

TEST_F(ObsTest, CounterIdenticalSerialVsParallel) {
  obs::Counter& serial = obs::Registry::Get().GetCounter("test/serial");
  obs::Counter& parallel = obs::Registry::Get().GetCounter("test/parallel");
  constexpr std::size_t kN = 5000;
  auto delta = [](std::size_t i) {
    return static_cast<std::int64_t>((i * 2654435761u) % 97);
  };
  for (std::size_t i = 0; i < kN; ++i) serial.Add(delta(i));
  ThreadPool pool(4);
  ParallelFor(pool, 0, kN, [&](std::size_t i) { parallel.Add(delta(i)); });
  // Integer adds are exact, so the totals are bit-identical no matter how
  // the iterations were sharded — the property perf_compare.py relies on to
  // identity-check "count" metrics across --threads settings.
  EXPECT_EQ(serial.Value(), parallel.Value());
}

TEST_F(ObsTest, KillSwitchMakesMetricsNoOps) {
  obs::Counter& counter = obs::Registry::Get().GetCounter("test/gated");
  obs::Gauge& gauge = obs::Registry::Get().GetGauge("test/gated_gauge");
  obs::Histogram& histogram =
      obs::Registry::Get().GetHistogram("test/gated_hist");
  const auto observe = [] {
    ALADDIN_METRIC_OBSERVE("test/gated_hist", "ms", 1.0);
  };
  obs::SetMetricsEnabled(false);
  counter.Add(5);
  gauge.Set(7);
  observe();
  EXPECT_EQ(counter.Value(), 0);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(histogram.Snapshot().count, 0u);
  obs::SetMetricsEnabled(true);
  counter.Add(5);
  gauge.Set(7);
  gauge.Add(3);
  observe();
  EXPECT_EQ(counter.Value(), 5);
  EXPECT_EQ(gauge.Value(), 10);
  EXPECT_EQ(histogram.Snapshot().count, 1u);
}

TEST_F(ObsTest, RegistryInternsByName) {
  obs::Counter& a = obs::Registry::Get().GetCounter("test/interned");
  obs::Counter& b = obs::Registry::Get().GetCounter("test/interned");
  EXPECT_EQ(&a, &b);
  a.Add(1);
  EXPECT_EQ(b.Value(), 1);
}

// --- histograms --------------------------------------------------------------

// Deterministic value stream spanning ~3 orders of magnitude.
double TestValue(std::size_t i) {
  return 0.05 * static_cast<double>((i * 37) % 400 + 1) *
         (1.0 + static_cast<double>(i % 11));
}

TEST_F(ObsTest, HistogramPercentilesTrackExactSample) {
  obs::Histogram& histogram =
      obs::Registry::Get().GetHistogram("test/latency", "ms");
  Sample exact;
  constexpr std::size_t kN = 4000;
  for (std::size_t i = 0; i < kN; ++i) {
    const double v = TestValue(i);
    histogram.ObserveUnchecked(v);
    exact.Add(v);
  }
  const obs::HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, kN);
  EXPECT_DOUBLE_EQ(snap.min, exact.min());
  EXPECT_DOUBLE_EQ(snap.max, exact.max());
  EXPECT_NEAR(snap.mean(), exact.mean(), exact.mean() * 1e-9);
  // Geometric buckets with growth 2^(1/4) bound the relative quantile error
  // by growth - 1 ~= 18.9%; allow 20% against the exact order statistics.
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    const double truth = exact.Percentile(p);
    EXPECT_NEAR(snap.Percentile(p), truth, truth * 0.20)
        << "p" << p << " diverged from the exact sample percentile";
  }
}

TEST_F(ObsTest, HistogramConcurrentObserveLosesNothing) {
  obs::Histogram& histogram =
      obs::Registry::Get().GetHistogram("test/concurrent");
  ThreadPool pool(4);
  constexpr std::size_t kN = 20000;
  // Integer-valued observations keep the CAS-accumulated sum exact
  // regardless of the order threads land their additions.
  ParallelFor(pool, 0, kN, [&](std::size_t i) {
    histogram.ObserveUnchecked(static_cast<double>(i % 128 + 1));
  });
  const obs::HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, kN);
  double expected_sum = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    expected_sum += static_cast<double>(i % 128 + 1);
  }
  EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 128.0);
}

// --- phases ------------------------------------------------------------------

TEST_F(ObsTest, PhaseCaptureDiffAndExclusiveCoverage) {
  obs::Phase& exclusive =
      obs::Registry::Get().GetPhase("test/phase_excl", /*exclusive=*/true);
  obs::Phase& nested =
      obs::Registry::Get().GetPhase("test/phase_nested", /*exclusive=*/false);
  obs::Phase& idle =
      obs::Registry::Get().GetPhase("test/phase_idle", /*exclusive=*/true);
  (void)idle;

  const std::vector<obs::PhaseDelta> before = obs::CapturePhases();
  exclusive.RecordUnchecked(5'000'000);
  exclusive.RecordUnchecked(5'000'000);
  nested.RecordUnchecked(1'000'000);
  std::vector<obs::PhaseDelta> delta =
      obs::DiffPhases(before, obs::CapturePhases());

  // Phases with no activity in the window are dropped from the diff.
  ASSERT_EQ(delta.size(), 2u);
  const auto find = [&](const std::string& name) -> const obs::PhaseDelta* {
    const auto it =
        std::find_if(delta.begin(), delta.end(),
                     [&](const obs::PhaseDelta& d) { return d.name == name; });
    return it == delta.end() ? nullptr : &*it;
  };
  const obs::PhaseDelta* excl_delta = find("test/phase_excl");
  ASSERT_NE(excl_delta, nullptr);
  EXPECT_EQ(excl_delta->ns, 10'000'000);
  EXPECT_EQ(excl_delta->calls, 2);
  EXPECT_TRUE(excl_delta->exclusive);
  const obs::PhaseDelta* nested_delta = find("test/phase_nested");
  ASSERT_NE(nested_delta, nullptr);
  EXPECT_EQ(nested_delta->ns, 1'000'000);
  EXPECT_FALSE(nested_delta->exclusive);

  // Only the exclusive phase counts toward tick coverage.
  EXPECT_DOUBLE_EQ(obs::ExclusiveSeconds(delta), 0.010);

  std::vector<obs::PhaseDelta> merged = delta;
  obs::MergePhaseDeltas(merged, delta);
  EXPECT_EQ(find("test/phase_excl")->ns, 10'000'000);  // delta untouched
  const auto it = std::find_if(
      merged.begin(), merged.end(),
      [](const obs::PhaseDelta& d) { return d.name == "test/phase_excl"; });
  ASSERT_NE(it, merged.end());
  EXPECT_EQ(it->ns, 20'000'000);
  EXPECT_EQ(it->calls, 4);
}

TEST_F(ObsTest, ScopedTraceFeedsPhaseAccumulators) {
  for (int i = 0; i < 10; ++i) {
    ALADDIN_TRACE_SCOPE("test/scoped_phase");
  }
  obs::Phase& phase = obs::Registry::Get().GetPhase("test/scoped_phase");
  EXPECT_EQ(phase.Calls(), 10);
  EXPECT_GE(phase.TotalNs(), 0);

  // With the whole obs layer off, a scope is a branch: no calls recorded.
  obs::SetMetricsEnabled(false);
  for (int i = 0; i < 10; ++i) {
    ALADDIN_TRACE_SCOPE("test/scoped_phase");
  }
  EXPECT_EQ(phase.Calls(), 10);
}

TEST_F(ObsTest, PhaseTotalsExactUnderConcurrentRecording) {
  // Shard solves record the same phases from every pool worker at once;
  // each record is two integer adds, so no call or nanosecond is lost.
  obs::Phase& phase = obs::Registry::Get().GetPhase("test/parallel_phase");
  ThreadPool pool(4);
  constexpr std::size_t kN = 20000;
  ParallelFor(pool, 0, kN, [&](std::size_t i) {
    phase.RecordUnchecked(static_cast<std::int64_t>(i % 13) + 1);
  });
  std::int64_t expected_ns = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    expected_ns += static_cast<std::int64_t>(i % 13) + 1;
  }
  EXPECT_EQ(phase.Calls(), static_cast<std::int64_t>(kN));
  EXPECT_EQ(phase.TotalNs(), expected_ns);
}

// --- trace JSON --------------------------------------------------------------

struct TraceEvent {
  std::string name;
  char ph = '?';
  double ts = 0.0;
  int tid = -1;
};

// TraceToJson() emits one event object per line; pull out the fields the
// contract is about without a JSON library.
std::vector<TraceEvent> ParseTrace(const std::string& json) {
  std::vector<TraceEvent> events;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const auto name_pos = line.find("{\"name\":\"");
    if (name_pos == std::string::npos) continue;
    TraceEvent event;
    const auto name_begin = name_pos + 9;
    const auto name_end = line.find('"', name_begin);
    event.name = line.substr(name_begin, name_end - name_begin);
    const auto ph_pos = line.find("\"ph\":\"");
    if (ph_pos == std::string::npos) continue;
    event.ph = line[ph_pos + 6];
    const auto ts_pos = line.find("\"ts\":");
    if (ts_pos != std::string::npos) {
      event.ts = std::stod(line.substr(ts_pos + 5));
    }
    const auto tid_pos = line.find("\"tid\":");
    if (tid_pos != std::string::npos) {
      event.tid = std::stoi(line.substr(tid_pos + 6));
    }
    events.push_back(event);
  }
  return events;
}

// The two invariants every consumer (Perfetto, tools/check_trace.py) needs:
// globally non-decreasing timestamps, and per-thread B/E pairs that close in
// stack order with matching names.
void ExpectSortedAndBalanced(const std::vector<TraceEvent>& events) {
  double last_ts = -1.0;
  std::map<int, std::vector<std::string>> stacks;
  for (const TraceEvent& event : events) {
    if (event.ph == 'M') continue;
    EXPECT_GE(event.ts, last_ts) << "timestamps regressed at " << event.name;
    last_ts = event.ts;
    if (event.ph == 'B') {
      stacks[event.tid].push_back(event.name);
    } else if (event.ph == 'E') {
      ASSERT_FALSE(stacks[event.tid].empty())
          << "E without matching B: " << event.name;
      EXPECT_EQ(stacks[event.tid].back(), event.name);
      stacks[event.tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed scopes on tid " << tid;
  }
}

TEST_F(ObsTest, TraceJsonSortedAndBalancedUnderThreadPoolStress) {
  obs::StartTracing();
  {
    ALADDIN_TRACE_SCOPE("test/outer");
    ALADDIN_TRACE_INSTANT("test/marker");
    for (int i = 0; i < 50; ++i) {
      ALADDIN_TRACE_SCOPE("test/inner");
      ALADDIN_TRACE_COUNTER("test/queue", i);
    }
  }
  ThreadPool pool(4);
  ParallelFor(pool, 0, 400, [&](std::size_t i) {
    ALADDIN_TRACE_SCOPE("test/worker");
    if (i % 3 == 0) {
      ALADDIN_TRACE_SCOPE("test/worker_inner");
      ALADDIN_TRACE_INSTANT("test/worker_marker");
    }
  });
  obs::StopTracing();
  EXPECT_EQ(obs::DroppedTraceEvents(), 0u);

  const std::string json = obs::TraceToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  const std::vector<TraceEvent> events = ParseTrace(json);
  ExpectSortedAndBalanced(events);

  std::map<char, int> by_ph;
  std::map<int, int> by_tid;
  for (const TraceEvent& event : events) {
    ++by_ph[event.ph];
    if (event.ph == 'B') ++by_tid[event.tid];
  }
  EXPECT_EQ(by_ph['B'], by_ph['E']);
  EXPECT_GE(by_ph['B'], 451);  // 1 outer + 50 inner + 400 workers + inners
  EXPECT_GE(by_ph['i'], 1);
  EXPECT_EQ(by_ph['C'], 50);
  // The pool workers record into their own ring buffers, so the merged
  // stream must span more than the main thread.
  EXPECT_GE(by_tid.size(), 2u);
}

TEST_F(ObsTest, TraceRingWraparoundStaysBalanced) {
  obs::TraceOptions options;
  options.ring_capacity = 64;
  obs::StartTracing(options);
  for (int i = 0; i < 1000; ++i) {
    ALADDIN_TRACE_SCOPE("test/wrap_outer");
    ALADDIN_TRACE_SCOPE("test/wrap_inner");
    ALADDIN_TRACE_COUNTER("test/wrap_count", i);
  }
  obs::StopTracing();
  // The ring wrapped many times over; whole records drop, so the surviving
  // suffix still expands to balanced B/E pairs.
  EXPECT_GT(obs::DroppedTraceEvents(), 0u);
  const std::vector<TraceEvent> events = ParseTrace(obs::TraceToJson());
  ExpectSortedAndBalanced(events);
  EXPECT_FALSE(events.empty());
}

TEST_F(ObsTest, TracingDisabledRecordsNoEvents) {
  obs::StartTracing();  // clears the rings...
  obs::StopTracing();   // ...and disarms before anything runs
  {
    ALADDIN_TRACE_SCOPE("test/untraced");
    ALADDIN_TRACE_INSTANT("test/untraced_marker");
    ALADDIN_TRACE_COUNTER("test/untraced_count", 1);
  }
  for (const TraceEvent& event : ParseTrace(obs::TraceToJson())) {
    EXPECT_EQ(event.ph, 'M') << "unexpected event " << event.name;
  }
  // The metrics side stays armed independently of tracing.
  EXPECT_EQ(obs::Registry::Get().GetPhase("test/untraced").Calls(), 1);
}

// --- Prometheus exposition edge cases ----------------------------------------

TEST_F(ObsTest, PrometheusEmptyHistogramRendersZeroSeries) {
  (void)obs::Registry::Get().GetHistogram("test/empty_hist", "ticks");
  const std::string text =
      obs::RenderPrometheus(obs::Registry::Get().Snapshot());
  EXPECT_NE(text.find("# TYPE aladdin_test_empty_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("aladdin_test_empty_hist_count 0"), std::string::npos);
  EXPECT_NE(text.find("aladdin_test_empty_hist_sum 0"), std::string::npos);
  // No NaN/inf may leak into the exposition from a zero-sample histogram.
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("-inf"), std::string::npos);
}

TEST_F(ObsTest, PrometheusSingleObservationBucketsAreCumulative) {
  obs::Histogram& hist =
      obs::Registry::Get().GetHistogram("test/one_obs", "ticks");
  hist.ObserveUnchecked(1.0);
  const std::string text =
      obs::RenderPrometheus(obs::Registry::Get().Snapshot());
  EXPECT_NE(text.find("aladdin_test_one_obs_count 1"), std::string::npos);
  // The +Inf bucket must equal the total count (cumulative contract) —
  // checked within this metric's series only (the registry may hold other
  // interned histograms from earlier tests).
  EXPECT_NE(text.find("aladdin_test_one_obs_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_EQ(text.find("aladdin_test_one_obs_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
}

TEST_F(ObsTest, PrometheusMetricNameSanitization) {
  obs::Registry::Get().GetCounter("slo/violations").Add(2);
  obs::Registry::Get().GetHistogram("admission_wait_ticks", "ticks")
      .ObserveUnchecked(3.0);
  const std::string text =
      obs::RenderPrometheus(obs::Registry::Get().Snapshot());
  // Registry names sanitize into the aladdin_* namespace: '/' and other
  // non-identifier bytes become '_', never escaping into label syntax.
  EXPECT_NE(text.find("aladdin_slo_violations 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE aladdin_admission_wait_ticks histogram"),
            std::string::npos);
  EXPECT_EQ(text.find("slo/violations"), std::string::npos);
}

// --- end to end through the k8s stack ---------------------------------------

TEST_F(ObsTest, ResolverPhaseBreakdownCoversResolveTime) {
  obs::StartTracing();
  k8s::ClusterSimulator sim;
  sim.AddNodes(16, cluster::ResourceVector::Cores(32, 64));
  k8s::PodSpec spec;
  spec.requests = cluster::ResourceVector::Cores(2, 4);
  spec.anti_affinity_within = true;
  sim.SubmitDeployment("web", 12, spec);
  sim.SubmitBatchJob("batch", 20, cluster::ResourceVector::Cores(1, 2),
                     /*lifetime_ticks=*/2);
  const std::vector<obs::PhaseDelta> before = obs::CapturePhases();
  WallTimer timer;
  (void)sim.Tick();
  const double tick_seconds = timer.ElapsedSeconds();
  const std::vector<obs::PhaseDelta> phases =
      obs::DiffPhases(before, obs::CapturePhases());
  obs::StopTracing();

  ASSERT_FALSE(phases.empty());
  std::vector<std::string> names;
  for (const obs::PhaseDelta& d : phases) names.push_back(d.name);
  for (const char* expected : {"k8s/events", "k8s/sync_state", "k8s/reconcile",
                               "k8s/lifecycle", "core/augment", "core/task"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " missing from the tick phase breakdown";
  }
  // Exclusive phases partition the tick, so their sum cannot exceed the
  // measured wall time by more than clock noise.
  const double covered = obs::ExclusiveSeconds(phases);
  EXPECT_GT(covered, 0.0);
  EXPECT_LE(covered, tick_seconds * 1.25 + 1e-4);

  // The same instrumentation produced trace scopes spanning both layers,
  // and no exclusive phase opens inside another (its time would count
  // twice in the coverage sum).
  std::vector<std::string> exclusive;
  for (const obs::PhaseDelta& d : phases) {
    if (d.exclusive) exclusive.push_back(d.name);
  }
  std::vector<std::string> trace_names;
  std::vector<std::string> open_exclusive;
  for (const TraceEvent& event : ParseTrace(obs::TraceToJson())) {
    if (event.ph == 'B') trace_names.push_back(event.name);
    if (std::find(exclusive.begin(), exclusive.end(), event.name) ==
        exclusive.end()) {
      continue;
    }
    if (event.ph == 'B') {
      EXPECT_TRUE(open_exclusive.empty())
          << event.name << " nests inside " << open_exclusive.back();
      open_exclusive.push_back(event.name);
    } else if (event.ph == 'E' && !open_exclusive.empty()) {
      open_exclusive.pop_back();
    }
  }
  for (const char* expected : {"k8s/tick", "k8s/sync_state", "core/augment"}) {
    EXPECT_NE(
        std::find(trace_names.begin(), trace_names.end(), expected),
        trace_names.end())
        << expected << " missing from the trace";
  }
}

}  // namespace
}  // namespace aladdin
