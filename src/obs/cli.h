// Shared flag wiring for the observability layer, so every bench / sim /
// tool binary grows the same switches with three lines:
//
//   Flags flags;
//   obs::ObsCli obs_cli(flags);                  // --log-level --metrics
//   ...                                          // --trace --journal ...
//   if (!flags.Parse(argc, argv)) return 1;
//   if (!obs_cli.Apply()) return 1;              // arm what was requested
//   ...run...
//   obs_cli.Finish(&json);                       // flush trace + metrics
//
// Binaries that only want --log-level (generators, offline tools) pass
// with_obs = false.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace aladdin {
class BenchJson;
class Flags;
}  // namespace aladdin

namespace aladdin::obs {

class PrometheusListener;

class ObsCli {
 public:
  explicit ObsCli(Flags& flags, bool with_obs = true);
  ~ObsCli();

  // Call once after Flags::Parse succeeded. Sets the log level and arms
  // metrics / tracing / the decision journal / the Prometheus listener as
  // requested. Returns false (after logging the offending value) on an
  // unknown --log-level or an unbindable --prom_port.
  [[nodiscard]] bool Apply();

  // End of run: stops tracing and writes --trace's file (logging the path),
  // drains the decision journal to --journal's sink, writes --prom's
  // snapshot, stops the --prom_port listener, prints the --metrics dump to
  // stdout, and, when `json` is given, appends the metrics registry to it
  // for perf_compare.py. Safe to call when nothing was enabled. Returns
  // false if any requested output file could not be written.
  [[nodiscard]] bool Finish(BenchJson* json = nullptr);

  [[nodiscard]] const std::string& journal_path() const;
  [[nodiscard]] bool journal_requested() const {
    return journal_path_ != nullptr && !journal_path_->empty();
  }
  // --timeseries is registered here for uniformity but the per-tick writer
  // lives with the binary's tick loop (sim::TimeSeriesWriter).
  [[nodiscard]] const std::string& timeseries_path() const;
  // --watchdog is registered here for uniformity; the engine itself is
  // owned by the binary's resolver (k8s::ResolverOptions::watchdog).
  [[nodiscard]] bool watchdog_requested() const {
    return watchdog_ != nullptr && *watchdog_;
  }

 private:
  std::string* log_level_ = nullptr;
  std::string* trace_path_ = nullptr;
  std::string* journal_path_ = nullptr;
  std::string* timeseries_path_ = nullptr;
  std::string* prom_path_ = nullptr;
  bool* metrics_ = nullptr;
  bool* watchdog_ = nullptr;
  std::int64_t* trace_ring_ = nullptr;
  std::int64_t* journal_ring_ = nullptr;
  std::int64_t* prom_port_ = nullptr;
  std::unique_ptr<PrometheusListener> listener_;
};

}  // namespace aladdin::obs
