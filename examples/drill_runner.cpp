// drill_runner: runs one watchdog drill scenario (or all of them) and
// prints each report. Exits non-zero if any scenario misses its expected
// alert kinds or fires an unexpected one — the CI perf-smoke gate.
//
//   drill_runner --scenario=drain_storm --ticks=48 --journal=drill.jsonl
//   drill_runner --scenario=all --journal=drills.jsonl   # one file per
//                                          # scenario: drills.<name>.jsonl
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/log.h"
#include "obs/cli.h"
#include "obs/journal.h"
#include "sim/drill.h"

using aladdin::sim::DrillOptions;
using aladdin::sim::DrillReport;
using aladdin::sim::DrillScenario;

namespace {

// drills.jsonl + "drain_storm" -> drills.drain_storm.jsonl
std::string PerScenarioJournalPath(const std::string& base,
                                   const char* scenario) {
  const std::size_t dot = base.rfind('.');
  const std::size_t slash = base.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + "." + scenario;
  }
  return base.substr(0, dot) + "." + scenario + base.substr(dot);
}

}  // namespace

int main(int argc, char** argv) {
  aladdin::Flags flags;
  aladdin::obs::ObsCli obs_cli(flags);
  auto& scenario_name = flags.String(
      "scenario", "all", "drill scenario (baseline, drain_storm, "
      "routing_skew, arrival_burst, deadline_starvation, cause_shift, all)");
  auto& ticks = flags.Int64("ticks", 48, "simulated ticks per scenario");
  auto& shards = flags.Int64("shards", 0,
                             "resolver shards (routing_skew forces >= 4)");
  auto& threads = flags.Int64("threads", 1,
                              "shard-solve pool size when sharded (the "
                              "unsharded solve is serial)");
  if (!flags.Parse(argc, argv)) return 1;
  if (!obs_cli.Apply()) return 1;

  std::vector<DrillScenario> scenarios;
  if (scenario_name == "all") {
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(DrillScenario::kCount); ++i) {
      scenarios.push_back(static_cast<DrillScenario>(i));
    }
  } else {
    const DrillScenario scenario =
        aladdin::sim::DrillScenarioFromName(scenario_name);
    if (scenario == DrillScenario::kCount) {
      LOG_ERROR << "unknown scenario '" << scenario_name << "'";
      return 1;
    }
    scenarios.push_back(scenario);
  }

  // Each drill is an independent run — ticks, container ids and alert ids
  // all restart at 0 — so a multi-scenario invocation rotates the journal
  // per scenario instead of interleaving incompatible streams (which
  // check_journal.py would reject) into one file.
  const bool rotate_journal =
      obs_cli.journal_requested() && scenarios.size() > 1;
  if (rotate_journal) {
    aladdin::obs::FinishJournal();
    std::remove(obs_cli.journal_path().c_str());
  }

  bool ok = true;
  for (const DrillScenario scenario : scenarios) {
    std::string journal_path;
    if (rotate_journal) {
      journal_path = PerScenarioJournalPath(
          obs_cli.journal_path(), aladdin::sim::DrillScenarioName(scenario));
      aladdin::obs::JournalOptions journal_options;
      journal_options.jsonl_path = journal_path;
      aladdin::obs::StartJournal(journal_options);
      if (!aladdin::obs::JournalSinkOpen()) {
        aladdin::obs::StopJournal();
        return 1;
      }
    }
    DrillOptions options;
    options.scenario = scenario;
    options.ticks = ticks;
    options.shards = static_cast<int>(shards);
    options.threads = static_cast<int>(threads);
    const DrillReport report = aladdin::sim::RunDrill(options);
    std::fputs(aladdin::sim::RenderDrillReport(report).c_str(), stdout);
    if (rotate_journal) {
      if (!aladdin::obs::FinishJournal()) ok = false;
      std::printf("  journal=%s\n", journal_path.c_str());
    }
    if (!report.fired_expected || !report.fired_only_expected) ok = false;
  }
  if (!obs_cli.Finish()) return 1;
  if (!ok) {
    std::fputs("DRILL FAILED: unexpected alert stream\n", stderr);
    return 1;
  }
  return 0;
}
