#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "common/bench_json.h"
#include "common/check.h"

namespace aladdin::obs {

std::int64_t MonotonicNowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(std::string unit, double lo, double growth,
                     std::size_t buckets)
    : unit_(std::move(unit)),
      lo_(lo),
      growth_(growth),
      log_growth_inv_(1.0 / std::log(growth)),
      counts_(buckets) {
  ALADDIN_CHECK(lo > 0.0 && growth > 1.0 && buckets >= 2);
}

std::size_t Histogram::BucketOf(double value) const {
  if (!(value > lo_)) return 0;  // also catches NaN
  const double raw = std::log(value / lo_) * log_growth_inv_;
  const auto bucket = static_cast<std::size_t>(raw) + 1;
  return std::min(bucket, counts_.size() - 1);
}

void Histogram::ObserveUnchecked(double value) {
  counts_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
  if (n == 0) {
    // First observation seeds the extrema (no sentinel values needed).
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
    return;
  }
  double lo = min_.load(std::memory_order_relaxed);
  while (value < lo && !min_.compare_exchange_weak(
                           lo, value, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (value > hi && !max_.compare_exchange_weak(
                           hi, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.lo = lo_;
  snap.growth = growth_;
  snap.counts.resize(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double HistogramSnapshot::BucketLow(std::size_t bucket) const {
  if (bucket == 0) return 0.0;
  return lo * std::pow(growth, static_cast<double>(bucket) - 1.0);
}

double HistogramSnapshot::BucketHigh(std::size_t bucket) const {
  return lo * std::pow(growth, static_cast<double>(bucket));
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const auto next = seen + counts[i];
    if (static_cast<double>(next) >= rank) {
      const double low = std::max(BucketLow(i), min);
      const double high = std::min(BucketHigh(i), max);
      if (counts[i] == 0 || high <= low) return low;
      const double inside =
          (rank - static_cast<double>(seen)) / static_cast<double>(counts[i]);
      return low + (high - low) * std::clamp(inside, 0.0, 1.0);
    }
    seen = next;
  }
  return max;
}

// --- Registry ---------------------------------------------------------------

Registry& Registry::Get() {
  static Registry* instance = new Registry();  // never destroyed
  return *instance;
}

Counter& Registry::GetCounter(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  std::string_view unit) {
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(unit)))
             .first;
  }
  return *it->second;
}

Phase& Registry::GetPhase(std::string_view name, bool exclusive) {
  MutexLock lock(mutex_);
  auto it = phases_.find(name);
  if (it == phases_.end()) {
    it = phases_
             .emplace(std::string(name),
                      std::make_unique<Phase>(std::string(name), exclusive))
             .first;
  } else {
    ALADDIN_DCHECK(it->second->exclusive() == exclusive)
        << "phase '" << it->second->name()
        << "' declared with conflicting exclusivity";
  }
  return *it->second;
}

MetricsSnapshot Registry::Snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->Value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->Value()});
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.push_back({name, hist->Snapshot(), hist->unit()});
  }
  for (const auto& [name, phase] : phases_) {
    snap.phases.push_back(
        {name, phase->TotalNs(), phase->Calls(), phase->exclusive()});
  }
  return snap;
}

std::vector<PhaseDelta> Registry::PhaseTotals() const {
  MutexLock lock(mutex_);
  std::vector<PhaseDelta> totals;
  totals.reserve(phases_.size());
  for (const auto& [name, phase] : phases_) {
    totals.push_back(
        {name, phase->TotalNs(), phase->Calls(), phase->exclusive()});
  }
  return totals;
}

void Registry::ResetAll() {
  MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
  for (auto& [name, phase] : phases_) phase->Reset();
}

// --- Phase window helpers ---------------------------------------------------

std::vector<PhaseDelta> CapturePhases() {
  return Registry::Get().PhaseTotals();
}

std::vector<PhaseDelta> DiffPhases(const std::vector<PhaseDelta>& before,
                                   const std::vector<PhaseDelta>& after) {
  // Both vectors are name-sorted (registry order); new phases may have
  // appeared in `after`, so walk them as a merge.
  std::vector<PhaseDelta> delta;
  std::size_t i = 0;
  for (const PhaseDelta& cur : after) {
    while (i < before.size() && before[i].name < cur.name) ++i;
    PhaseDelta d = cur;
    if (i < before.size() && before[i].name == cur.name) {
      d.ns -= before[i].ns;
      d.calls -= before[i].calls;
    }
    if (d.calls != 0 || d.ns != 0) delta.push_back(std::move(d));
  }
  return delta;
}

void MergePhaseDeltas(std::vector<PhaseDelta>& into,
                      const std::vector<PhaseDelta>& more) {
  for (const PhaseDelta& d : more) {
    auto it = std::find_if(
        into.begin(), into.end(),
        [&](const PhaseDelta& existing) { return existing.name == d.name; });
    if (it == into.end()) {
      into.push_back(d);
    } else {
      it->ns += d.ns;
      it->calls += d.calls;
    }
  }
  std::sort(into.begin(), into.end(),
            [](const PhaseDelta& a, const PhaseDelta& b) {
              return a.name < b.name;
            });
}

double ExclusiveSeconds(const std::vector<PhaseDelta>& phases) {
  double total = 0.0;
  for (const PhaseDelta& d : phases) {
    if (d.exclusive) total += d.seconds();
  }
  return total;
}

// --- Export -----------------------------------------------------------------

void ExportMetrics(BenchJson& out) {
  const MetricsSnapshot snap = Registry::Get().Snapshot();
  for (const auto& c : snap.counters) {
    out.Metric(c.name, static_cast<double>(c.value), "count");
  }
  for (const auto& g : snap.gauges) {
    out.Metric(g.name, static_cast<double>(g.value), "gauge");
  }
  for (const auto& h : snap.histograms) {
    out.Metric(h.name + "_count", static_cast<double>(h.snapshot.count),
               "count");
    if (h.snapshot.count > 0) {
      out.Metric(h.name + "_p50", h.snapshot.Percentile(50), h.unit);
      out.Metric(h.name + "_p99", h.snapshot.Percentile(99), h.unit);
      out.Metric(h.name + "_max", h.snapshot.max, h.unit);
    }
  }
  for (const auto& p : snap.phases) {
    out.Metric(p.name + "_ms", static_cast<double>(p.ns) * 1e-6, "ms");
    out.Metric(p.name + "_calls", static_cast<double>(p.calls), "count");
  }
}

std::string FormatMetrics() {
  const MetricsSnapshot snap = Registry::Get().Snapshot();
  std::ostringstream os;
  os << "metrics registry:\n";
  for (const auto& c : snap.counters) {
    os << "  counter " << c.name << " = " << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    os << "  gauge   " << g.name << " = " << g.value << "\n";
  }
  for (const auto& h : snap.histograms) {
    os << "  histo   " << h.name << " count=" << h.snapshot.count;
    if (h.snapshot.count > 0) {
      os << " p50=" << h.snapshot.Percentile(50)
         << " p99=" << h.snapshot.Percentile(99) << " max=" << h.snapshot.max
         << " " << h.unit;
    }
    os << "\n";
  }
  for (const auto& p : snap.phases) {
    os << "  phase   " << p.name << (p.exclusive ? " [tick]" : "       ")
       << " total_ms=" << static_cast<double>(p.ns) * 1e-6
       << " calls=" << p.calls << "\n";
  }
  return os.str();
}

}  // namespace aladdin::obs
