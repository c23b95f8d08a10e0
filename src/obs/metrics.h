// Metrics registry: process-global named Counters, Gauges, Histograms and
// Phase timers behind the obs/runtime.h kill switches.
//
// Counters and phase timers are relaxed atomics. Every update is an exact
// integer add, so counter totals are bit-identical between serial and
// parallel runs of the same work — tools/perf_compare.py identity-checks
// them (unit "count"), while phase times export as time units and are only
// ratio-checked. The only concurrent writers are the sharded coordinator's
// shard solves, a few thousand adds per tick, so one shared cell per metric
// does not contend measurably.
//
// Call-site idiom (one registry lookup ever, then a relaxed load + add):
//
//   ALADDIN_METRIC_ADD("core/migrations", moved.size());
//
// Phases are the unit of the per-tick breakdown: a Phase accumulates total
// nanoseconds and call counts, recorded by ALADDIN_TRACE_SCOPE /
// ALADDIN_PHASE_SCOPE (obs/trace.h). Phases created via ALADDIN_PHASE_SCOPE
// are *exclusive*: mutually disjoint in time within a scheduling tick, so
// their deltas sum to (approximately) the tick's wall time — that sum is the
// coverage check bench_online reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/runtime.h"

namespace aladdin {
class BenchJson;
}  // namespace aladdin

namespace aladdin::obs {

// Monotonic clock for phase timing and trace timestamps, in nanoseconds
// since a process-local epoch (steady_clock; comparable across threads).
[[nodiscard]] std::int64_t MonotonicNowNs();

// Monotonically increasing sum.
class Counter {
 public:
  // Gated add: a no-op unless metrics are enabled.
  void Add(std::int64_t delta = 1) {
    if (MetricsEnabled()) AddUnchecked(delta);
  }
  // Ungated add for call sites that already checked MetricsEnabled().
  void AddUnchecked(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Last-write-wins scalar (pods bound, queue depth, ...).
class Gauge {
 public:
  void Set(std::int64_t value) {
    if (MetricsEnabled()) value_.store(value, std::memory_order_relaxed);
  }
  void Add(std::int64_t delta) {
    if (MetricsEnabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// View of a Histogram: geometric buckets plus exact count / sum / min /
// max.
struct HistogramSnapshot {
  double lo = 0.0;      // upper bound of bucket 0
  double growth = 1.0;  // bucket i covers [lo*growth^(i-1), lo*growth^i)
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  [[nodiscard]] double mean() const { return count ? sum / count : 0.0; }
  // Linear interpolation inside the bucket holding the p-th percentile
  // (p in [0, 100]); relative error is bounded by growth - 1.
  [[nodiscard]] double Percentile(double p) const;
  // Bucket edges (bucket 0 is (-inf, lo); the last bucket is open-ended).
  [[nodiscard]] double BucketLow(std::size_t bucket) const;
  [[nodiscard]] double BucketHigh(std::size_t bucket) const;
};

// Lock-free geometric-bucket histogram. An observation is wait-free on the
// bucket counters; min/max/sum use CAS loops (uncontended in practice —
// histogram observations are per-tick, not per-container).
class Histogram {
 public:
  // ~24 buckets per factor-64 span: growth 2^(1/4), 96 buckets from `lo`
  // covers 7+ orders of magnitude, plenty for ms-scale latencies.
  explicit Histogram(std::string unit = "ms", double lo = 1e-3,
                     double growth = 1.1892071150027210667, // 2^(1/4)
                     std::size_t buckets = 96);

  // Ungated: ALADDIN_METRIC_OBSERVE checks MetricsEnabled() first.
  void ObserveUnchecked(double value);

  [[nodiscard]] HistogramSnapshot Snapshot() const;
  [[nodiscard]] const std::string& unit() const { return unit_; }
  void Reset();

 private:
  [[nodiscard]] std::size_t BucketOf(double value) const;

  std::string unit_;
  double lo_;
  double growth_;
  double log_growth_inv_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// Named pipeline phase: accumulated wall nanoseconds + call count.
// `exclusive` marks phases that partition a scheduling tick.
class Phase {
 public:
  Phase(std::string name, bool exclusive)
      : name_(std::move(name)), exclusive_(exclusive) {}

  void RecordUnchecked(std::int64_t ns) {
    ns_.fetch_add(ns, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool exclusive() const { return exclusive_; }
  [[nodiscard]] std::int64_t TotalNs() const {
    return ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t Calls() const {
    return calls_.load(std::memory_order_relaxed);
  }
  void Reset() {
    ns_.store(0, std::memory_order_relaxed);
    calls_.store(0, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  bool exclusive_;
  std::atomic<std::int64_t> ns_{0};
  std::atomic<std::int64_t> calls_{0};
};

// Phase activity over a window (CapturePhases() start/end diff).
struct PhaseDelta {
  std::string name;
  std::int64_t ns = 0;
  std::int64_t calls = 0;
  bool exclusive = false;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(ns) * 1e-9;
  }
};

struct MetricsSnapshot {
  struct Scalar {
    std::string name;
    std::int64_t value = 0;
  };
  struct Hist {
    std::string name;
    HistogramSnapshot snapshot;
    std::string unit;
  };
  std::vector<Scalar> counters;  // sorted by name
  std::vector<Scalar> gauges;
  std::vector<Hist> histograms;
  std::vector<PhaseDelta> phases;
};

class Registry {
 public:
  // The process-wide registry every macro records into.
  static Registry& Get();

  // Lookups intern by name; the returned reference is stable for the
  // process lifetime. A name identifies one kind of metric — asking for an
  // existing name as a different kind is a programming error (checked).
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name, std::string_view unit = "ms");
  Phase& GetPhase(std::string_view name, bool exclusive = false);

  [[nodiscard]] MetricsSnapshot Snapshot() const;
  [[nodiscard]] std::vector<PhaseDelta> PhaseTotals() const;

  // Zeroes every registered metric (names stay interned). Tests and benches
  // use this to isolate measurement windows.
  void ResetAll();

 private:
  Registry() = default;

  mutable Mutex mutex_;
  // std::map: deterministic iteration order and node-stable addresses (the
  // pointees are internally synchronised, so handing out references while
  // only the map itself is guarded is sound).
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      ALADDIN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      ALADDIN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      ALADDIN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Phase>, std::less<>> phases_
      ALADDIN_GUARDED_BY(mutex_);
};

// Snapshot of every phase's running totals (sorted by name).
[[nodiscard]] std::vector<PhaseDelta> CapturePhases();
// after - before, dropping phases with no activity in the window.
[[nodiscard]] std::vector<PhaseDelta> DiffPhases(
    const std::vector<PhaseDelta>& before,
    const std::vector<PhaseDelta>& after);
// Accumulates `more` into `into` by phase name (for per-tick aggregation).
void MergePhaseDeltas(std::vector<PhaseDelta>& into,
                      const std::vector<PhaseDelta>& more);
// Sum of the exclusive phases' seconds — the tick-coverage numerator.
[[nodiscard]] double ExclusiveSeconds(const std::vector<PhaseDelta>& phases);

// Appends the registry to an aladdin-bench-v1 file: counters and phase call
// counts as unit "count" (identity-checked by tools/perf_compare.py), phase
// totals as "ms" (ratio-checked), gauges as "gauge" and histogram
// percentiles in the histogram's unit.
void ExportMetrics(BenchJson& out);
// Human-readable dump for --metrics stdout.
[[nodiscard]] std::string FormatMetrics();

// One interned-lookup-then-add counter bump; no-op while metrics are off.
#define ALADDIN_METRIC_ADD(name, delta)                           \
  do {                                                            \
    if (::aladdin::obs::MetricsEnabled()) {                       \
      static ::aladdin::obs::Counter& obs_counter_ref =           \
          ::aladdin::obs::Registry::Get().GetCounter(name);       \
      obs_counter_ref.AddUnchecked(                               \
          static_cast<std::int64_t>(delta));                      \
    }                                                             \
  } while (false)
#define ALADDIN_METRIC_GAUGE_SET(name, value)                     \
  do {                                                            \
    if (::aladdin::obs::MetricsEnabled()) {                       \
      static ::aladdin::obs::Gauge& obs_gauge_ref =               \
          ::aladdin::obs::Registry::Get().GetGauge(name);         \
      obs_gauge_ref.Set(static_cast<std::int64_t>(value));        \
    }                                                             \
  } while (false)
#define ALADDIN_METRIC_OBSERVE(name, unit, value)                 \
  do {                                                            \
    if (::aladdin::obs::MetricsEnabled()) {                       \
      static ::aladdin::obs::Histogram& obs_hist_ref =            \
          ::aladdin::obs::Registry::Get().GetHistogram(name,      \
                                                       unit);     \
      obs_hist_ref.ObserveUnchecked(                              \
          static_cast<double>(value));                            \
    }                                                             \
  } while (false)

}  // namespace aladdin::obs
