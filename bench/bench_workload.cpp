// Reproduces Fig. 8 (workload features): the CDF of containers per
// application and the constraint counts, next to the paper's reported
// numbers. Also self-checks the generator against every distributional fact
// stated in §V.A.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "obs/cli.h"
#include "common/table.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "trace/trace_stats.h"

using namespace aladdin;

int main(int argc, char** argv) {
  Flags flags;
  auto& scale = flags.Double("scale", 1.0, "workload scale (1.0 = paper)");
  auto& seed = flags.Int64("seed", 42, "trace seed");
  aladdin::obs::ObsCli obs_cli(flags);
  if (!flags.Parse(argc, argv)) return 1;
  if (!obs_cli.Apply()) return 1;

  trace::AlibabaTraceOptions options;
  options.scale = scale;
  options.seed = static_cast<std::uint64_t>(seed);
  const trace::Workload workload = trace::GenerateAlibabaLike(options);
  const auto heavy_threshold = static_cast<std::int64_t>(
      static_cast<double>(trace::kHeavyConflictContainers) * scale);
  const trace::WorkloadStats stats =
      trace::ComputeWorkloadStats(workload, heavy_threshold);

  sim::PrintExperimentHeader("Fig. 8(b)", "workload constraint counts");
  Table counts({"metric", "measured", "paper (scale 1.0)"});
  counts.Cell("applications")
      .Cell(static_cast<std::int64_t>(stats.applications))
      .Cell("13,056")
      .EndRow();
  counts.Cell("containers")
      .Cell(static_cast<std::int64_t>(stats.containers))
      .Cell("~100,000")
      .EndRow();
  counts.Cell("apps with anti-affinity")
      .Cell(static_cast<std::int64_t>(stats.apps_with_anti_affinity))
      .Cell("9,400 (~70%)")
      .EndRow();
  counts.Cell("apps with priority")
      .Cell(static_cast<std::int64_t>(stats.apps_with_priority))
      .Cell("2,088 (~15%)")
      .EndRow();
  counts.Cell("single-instance apps %")
      .Cell(stats.SingleInstanceFraction() * 100.0, 1)
      .Cell("64%")
      .EndRow();
  counts.Cell("apps under 50 containers %")
      .Cell(stats.Below50Fraction() * 100.0, 1)
      .Cell("85% (see EXPERIMENTS.md)")
      .EndRow();
  counts.Cell("largest app (containers)")
      .Cell(static_cast<std::int64_t>(stats.max_app_size))
      .Cell("> 2,000")
      .EndRow();
  counts.Cell("apps conflicting with > " +
              std::to_string(heavy_threshold) + " containers")
      .Cell(static_cast<std::int64_t>(stats.heavy_conflicter_apps))
      .Cell("\"several\"")
      .EndRow();
  counts.Cell("max request cpu (cores)")
      .Cell(stats.max_request.cpu_millis() / 1000)
      .Cell("16")
      .EndRow();
  counts.Print();

  sim::PrintExperimentHeader(
      "Fig. 8(a)", "CDF of container numbers per application: P(size <= v)");
  Table cdf({"app size v", "P(size <= v)", "apps <= v"});
  std::vector<std::int64_t> sizes;
  sizes.reserve(workload.application_count());
  for (const auto& app : workload.applications()) {
    sizes.push_back(static_cast<std::int64_t>(app.containers.size()));
  }
  std::sort(sizes.begin(), sizes.end());
  for (std::int64_t v : {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000}) {
    const auto below = static_cast<std::size_t>(
        std::upper_bound(sizes.begin(), sizes.end(), v) - sizes.begin());
    cdf.Cell(v)
        .Cell(static_cast<double>(below) / static_cast<double>(sizes.size()),
              4)
        .Cell(static_cast<std::int64_t>(below))
        .EndRow();
  }
  cdf.Cell(sizes.back())
      .Cell(1.0, 4)
      .Cell(static_cast<std::int64_t>(sizes.size()))
      .EndRow();
  cdf.Print();
  if (!obs_cli.Finish()) return 1;
  return 0;
}
