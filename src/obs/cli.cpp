#include "obs/cli.h"

#include <cstdio>

#include "common/bench_json.h"
#include "common/flags.h"
#include "common/log.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aladdin::obs {

ObsCli::ObsCli(Flags& flags, bool with_obs) {
  log_level_ = &flags.String("log-level", "info",
                             "log verbosity: debug|info|warn|error");
  if (with_obs) {
    metrics_ = &flags.Bool("metrics", false,
                           "collect the metrics registry and dump it at exit");
    trace_path_ = &flags.String(
        "trace", "", "write a Chrome/Perfetto trace-event JSON to this path");
    trace_ring_ = &flags.Int64("trace_ring",
                               static_cast<std::int64_t>(
                                   TraceOptions{}.ring_capacity),
                               "per-thread trace ring capacity (records)");
    journal_path_ = &flags.String(
        "journal", "",
        "write the decision provenance journal (JSONL) to this path");
    journal_ring_ = &flags.Int64("journal_ring",
                                 static_cast<std::int64_t>(
                                     JournalOptions{}.ring_capacity),
                                 "journal ring capacity (records)");
    timeseries_path_ = &flags.String(
        "timeseries", "",
        "write per-tick time-series snapshots (.csv or .jsonl) to this path");
    watchdog_ = &flags.Bool(
        "watchdog", false,
        "run the cluster health watchdog (typed alerts on /alertz, in the "
        "journal and the aladdin_alerts_* metrics)");
    prom_path_ = &flags.String(
        "prom", "",
        "write a Prometheus text-format metrics snapshot to this path at exit");
    prom_port_ = &flags.Int64(
        "prom_port", 0,
        "serve live Prometheus metrics on 127.0.0.1:<port> (0 = off)");
  }
}

ObsCli::~ObsCli() = default;

bool ObsCli::Apply() {
  LogLevel level = LogLevel::kInfo;
  if (!ParseLogLevel(*log_level_, &level)) {
    LOG_ERROR << "unknown --log-level value \"" << *log_level_
              << "\" (want debug|info|warn|error)";
    return false;
  }
  SetLogLevel(level);
  if (metrics_ != nullptr && *metrics_) SetMetricsEnabled(true);
  if (trace_path_ != nullptr && !trace_path_->empty()) {
    TraceOptions options;
    if (*trace_ring_ > 0) {
      options.ring_capacity = static_cast<std::size_t>(*trace_ring_);
    }
    StartTracing(options);
    // Tracing needs the phase-time half of the registry armed too, so the
    // per-tick breakdown matches what the trace shows.
    SetMetricsEnabled(true);
  }
  if (journal_path_ != nullptr && !journal_path_->empty()) {
    JournalOptions options;
    if (*journal_ring_ > 0) {
      options.ring_capacity = static_cast<std::size_t>(*journal_ring_);
    }
    options.jsonl_path = *journal_path_;
    StartJournal(options);
    if (!JournalSinkOpen()) {  // StartJournal already logged the error
      StopJournal();
      return false;
    }
  }
  const bool prom_file = prom_path_ != nullptr && !prom_path_->empty();
  const bool prom_live = prom_port_ != nullptr && *prom_port_ > 0;
  if (prom_file || prom_live) {
    // Prometheus output is a view of the registry; arm it.
    SetMetricsEnabled(true);
  }
  if (prom_live) {
    listener_ = std::make_unique<PrometheusListener>();
    if (!listener_->Start(static_cast<std::uint16_t>(*prom_port_))) {
      listener_.reset();
      return false;
    }
  }
  return true;
}

bool ObsCli::Finish(BenchJson* json) {
  bool ok = true;
  if (trace_path_ != nullptr && !trace_path_->empty()) {
    StopTracing();
    if (WriteTrace(*trace_path_)) {
      LOG_INFO << "trace written to " << *trace_path_
               << " (dropped=" << DroppedTraceEvents() << ")";
    } else {
      ok = false;
    }
  }
  if (journal_path_ != nullptr && !journal_path_->empty()) {
    const std::uint64_t emitted = EmittedJournalDecisions();
    const std::uint64_t dropped = DroppedJournalDecisions();
    if (FinishJournal()) {
      LOG_INFO << "journal written to " << *journal_path_
               << " (records=" << emitted << " dropped=" << dropped << ")";
    } else {
      ok = false;
    }
  }
  if (listener_ != nullptr) {
    listener_->Stop();
    listener_.reset();
  }
  if (prom_path_ != nullptr && !prom_path_->empty()) {
    if (WritePrometheusFile(*prom_path_)) {
      LOG_INFO << "prometheus snapshot written to " << *prom_path_;
    } else {
      ok = false;
    }
  }
  if (metrics_ != nullptr && *metrics_) {
    const std::string dump = FormatMetrics();
    std::fwrite(dump.data(), 1, dump.size(), stdout);
  }
  if (json != nullptr && MetricsEnabled()) ExportMetrics(*json);
  return ok;
}

const std::string& ObsCli::journal_path() const {
  static const std::string empty;
  return journal_path_ != nullptr ? *journal_path_ : empty;
}

const std::string& ObsCli::timeseries_path() const {
  static const std::string empty;
  return timeseries_path_ != nullptr ? *timeseries_path_ : empty;
}

}  // namespace aladdin::obs
