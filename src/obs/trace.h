// Scoped tracing: per-thread ring buffers of scope/instant/counter records,
// flushed to Chrome trace-event JSON that loads directly in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
//   obs::StartTracing();
//   ... run the scheduler ...
//   obs::StopTracing();
//   obs::WriteTrace("out.json");
//
// Instrumentation idiom (names must be string literals or otherwise outlive
// the flush — they are stored by pointer):
//
//   void Resolver::Resolve(...) {
//     ALADDIN_PHASE_SCOPE("k8s/sync_state");   // exclusive pipeline phase
//     ...
//   }
//   ALADDIN_TRACE_SCOPE("core/find_machine");  // nested detail scope
//   ALADDIN_TRACE_INSTANT("k8s/topology_changed");
//   ALADDIN_TRACE_COUNTER("k8s/pending", pending.size());
//
// Scopes are recorded at *exit* as complete intervals into a fixed-size
// per-thread ring (oldest records overwritten; drops counted). Because a
// dropped record removes a whole scope, the B/E expansion the writer emits
// stays balanced no matter how much the ring wrapped. Both macros also feed
// the phase-time accumulators in the metrics registry (obs/metrics.h), so
// tracing and the per-tick phase breakdown share one instrumentation point.
//
// Cost when disabled: one relaxed atomic load and a branch per scope — no
// clock read, no allocation.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/runtime.h"

namespace aladdin::obs {

struct TraceOptions {
  // Records retained per thread; one record is one scope or point event.
  std::size_t ring_capacity = 1 << 16;
};

// Clears all ring buffers, stamps the trace epoch, arms the tracing bit.
void StartTracing(const TraceOptions& options = {});
void StopTracing();

// Scope/point records overwritten because a ring wrapped since
// StartTracing(). Nonzero means the trace is a suffix of the run.
[[nodiscard]] std::uint64_t DroppedTraceEvents();

// Serialises everything currently buffered as Chrome trace-event JSON
// (object format, one event per line, globally sorted by timestamp with
// balanced B/E pairs per thread). Usable while tracing is stopped or live.
[[nodiscard]] std::string TraceToJson();

// TraceToJson() to `path`; false (with a logged error) on I/O failure.
[[nodiscard]] bool WriteTrace(const std::string& path);

namespace internal {
// Owner-thread depth bookkeeping + record append; see trace.cpp.
void EnterScope();
void ExitScope(const Phase& phase, std::int64_t start_ns, std::int64_t end_ns);
void RecordInstant(const char* name);
void RecordCounter(const char* name, double value);
}  // namespace internal

// RAII scope: snapshots the mode mask once on entry, so a mid-scope toggle
// never produces a half-recorded interval.
class ScopedTrace {
 public:
  explicit ScopedTrace(Phase& phase) : mode_(CurrentMode()) {
    if (mode_ == 0) return;
    phase_ = &phase;
    if ((mode_ & kTracing) != 0) internal::EnterScope();
    start_ns_ = MonotonicNowNs();
  }
  ~ScopedTrace() {
    if (mode_ == 0) return;
    const std::int64_t end_ns = MonotonicNowNs();
    if ((mode_ & kMetrics) != 0) phase_->RecordUnchecked(end_ns - start_ns_);
    if ((mode_ & kTracing) != 0) {
      internal::ExitScope(*phase_, start_ns_, end_ns);
    }
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  std::uint32_t mode_;
  Phase* phase_ = nullptr;
  std::int64_t start_ns_ = 0;
};

#define ALADDIN_OBS_CONCAT_INNER(a, b) a##b
#define ALADDIN_OBS_CONCAT(a, b) ALADDIN_OBS_CONCAT_INNER(a, b)

#define ALADDIN_OBS_SCOPE_IMPL(name, exclusive)                           \
  static ::aladdin::obs::Phase& ALADDIN_OBS_CONCAT(obs_phase_,            \
                                                   __LINE__) =            \
      ::aladdin::obs::Registry::Get().GetPhase(name, exclusive);          \
  ::aladdin::obs::ScopedTrace ALADDIN_OBS_CONCAT(obs_scope_, __LINE__)(   \
      ALADDIN_OBS_CONCAT(obs_phase_, __LINE__))

// Nested detail scope (search probes, solver inner loops, ...).
#define ALADDIN_TRACE_SCOPE(name) ALADDIN_OBS_SCOPE_IMPL(name, false)
// Exclusive pipeline phase: disjoint in time from every other exclusive
// phase within a tick; participates in the tick-coverage sum.
#define ALADDIN_PHASE_SCOPE(name) ALADDIN_OBS_SCOPE_IMPL(name, true)

#define ALADDIN_TRACE_INSTANT(name)                                       \
  do {                                                                    \
    if (::aladdin::obs::TracingEnabled()) {                               \
      ::aladdin::obs::internal::RecordInstant(name);                      \
    }                                                                     \
  } while (false)
#define ALADDIN_TRACE_COUNTER(name, value)                                \
  do {                                                                    \
    if (::aladdin::obs::TracingEnabled()) {                               \
      ::aladdin::obs::internal::RecordCounter(                            \
          name, static_cast<double>(value));                              \
    }                                                                     \
  } while (false)

}  // namespace aladdin::obs
