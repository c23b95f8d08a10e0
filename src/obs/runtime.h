// Observability kill switch.
//
// The obs layer (metrics registry, scoped tracing, decision journal) must
// cost nothing when nobody is looking at it, so it is gated by a
// process-global mode mask, read with one relaxed atomic load at the top of
// every instrumented scope. With every bit clear a scope is a load +
// branch; no clock is read, no cell is touched.
//
// The bits are independent: kMetrics arms the counters, gauges, histograms
// and phase-time accumulators; kTracing arms the per-thread trace-event
// ring buffers; kJournal arms the decision journal. Benches typically
// enable metrics and tracing (--metrics / --trace); the library default is
// everything off.
#pragma once

#include <cstdint>

namespace aladdin::obs {

enum ModeBits : std::uint32_t {
  kMetrics = 1u << 0,  // counters / gauges / histograms / phase timers
  kTracing = 1u << 1,  // trace-event ring buffers
  kJournal = 1u << 2,  // decision provenance journal (obs/journal.h)
};

// Current mode mask (relaxed load; safe from any thread).
[[nodiscard]] std::uint32_t CurrentMode();

[[nodiscard]] inline bool MetricsEnabled() {
  return (CurrentMode() & kMetrics) != 0;
}
[[nodiscard]] inline bool TracingEnabled() {
  return (CurrentMode() & kTracing) != 0;
}
[[nodiscard]] inline bool JournalEnabled() {
  return (CurrentMode() & kJournal) != 0;
}

// Arms / disarms the metrics side. Cheap; callable at any time.
void SetMetricsEnabled(bool enabled);

// The tracing bit is owned by StartTracing()/StopTracing() in obs/trace.h,
// the journal bit by StartJournal()/StopJournal() in obs/journal.h —
// internal setter shared with those modules.
namespace internal {
void SetModeBit(std::uint32_t bit, bool enabled);
}  // namespace internal

}  // namespace aladdin::obs
