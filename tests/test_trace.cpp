// Unit + property tests for src/trace: workload construction, the
// Alibaba-like generator's distributional guarantees (Fig. 8 / §V.A),
// arrival orders, serialization round-trips, and workload statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "trace/alibaba_gen.h"
#include "trace/arrival.h"
#include "trace/serialize.h"
#include "trace/trace_stats.h"
#include "trace/workload.h"

namespace aladdin::trace {
namespace {

using cluster::ApplicationId;
using cluster::ContainerId;
using cluster::ResourceVector;

// ------------------------------------------------------------ workload ----

TEST(Workload, AddApplicationCreatesIsomorphicContainers) {
  Workload wl;
  const auto app = wl.AddApplication("a", 3, ResourceVector::Cores(2, 4), 1,
                                     /*anti_affinity_within=*/true);
  EXPECT_EQ(wl.application_count(), 1u);
  EXPECT_EQ(wl.container_count(), 3u);
  for (ContainerId c : wl.application(app).containers) {
    EXPECT_EQ(wl.container(c).request, ResourceVector::Cores(2, 4));
    EXPECT_EQ(wl.container(c).priority, 1);
    EXPECT_EQ(wl.container(c).app, app);
  }
  EXPECT_TRUE(wl.constraints().HasWithinAntiAffinity(app));
}

TEST(Workload, ContainerIdsAreDense) {
  Workload wl;
  wl.AddApplication("a", 2, ResourceVector::Cores(1, 1));
  wl.AddApplication("b", 3, ResourceVector::Cores(1, 1));
  for (std::size_t i = 0; i < wl.container_count(); ++i) {
    EXPECT_EQ(wl.containers()[i].id.value(), static_cast<std::int32_t>(i));
  }
}

TEST(Workload, ProjectCpuOnly) {
  Workload wl;
  wl.AddApplication("a", 2, ResourceVector::Cores(2, 4));
  wl.ProjectCpuOnly();
  EXPECT_EQ(wl.containers()[0].request.mem_mib(), 0);
  EXPECT_EQ(wl.containers()[0].request.cpu_millis(), 2000);
  EXPECT_EQ(wl.applications()[0].request.mem_mib(), 0);
}

TEST(Workload, AddAntiAffinityMarksWithinFlag) {
  Workload wl;
  const auto a = wl.AddApplication("a", 2, ResourceVector::Cores(1, 1));
  EXPECT_FALSE(wl.application(a).anti_affinity_within);
  wl.AddAntiAffinity(a, a);
  EXPECT_TRUE(wl.application(a).anti_affinity_within);
}

// ----------------------------------------------------------- generator ----

class GeneratorTest : public ::testing::Test {
 protected:
  static AlibabaTraceOptions SmallOptions() {
    AlibabaTraceOptions options;
    options.scale = 0.05;
    options.seed = 42;
    return options;
  }
};

TEST_F(GeneratorTest, PopulationCountsScale) {
  const Workload wl = GenerateAlibabaLike(SmallOptions());
  // 5% of 13,056 apps, 100k containers.
  EXPECT_NEAR(static_cast<double>(wl.application_count()), 653.0, 10.0);
  EXPECT_NEAR(static_cast<double>(wl.container_count()), 5000.0, 750.0);
}

TEST_F(GeneratorTest, SingleInstanceFraction) {
  const Workload wl = GenerateAlibabaLike(SmallOptions());
  const WorkloadStats stats = ComputeWorkloadStats(wl);
  EXPECT_NEAR(stats.SingleInstanceFraction(), 0.64, 0.06);
}

TEST_F(GeneratorTest, AntiAffinityFraction) {
  const Workload wl = GenerateAlibabaLike(SmallOptions());
  const WorkloadStats stats = ComputeWorkloadStats(wl);
  const double fraction = static_cast<double>(stats.apps_with_anti_affinity) /
                          static_cast<double>(stats.applications);
  EXPECT_NEAR(fraction, 9400.0 / 13056.0, 0.06);
}

TEST_F(GeneratorTest, PriorityFraction) {
  const Workload wl = GenerateAlibabaLike(SmallOptions());
  const WorkloadStats stats = ComputeWorkloadStats(wl);
  const double fraction = static_cast<double>(stats.apps_with_priority) /
                          static_cast<double>(stats.applications);
  EXPECT_NEAR(fraction, 2088.0 / 13056.0, 0.04);
}

TEST_F(GeneratorTest, RequestCapRespected) {
  const Workload wl = GenerateAlibabaLike(SmallOptions());
  const WorkloadStats stats = ComputeWorkloadStats(wl);
  EXPECT_LE(stats.max_request.cpu_millis(), 16000);
  EXPECT_LE(stats.max_request.mem_mib(), 32 * 1024);
}

TEST_F(GeneratorTest, GiantsExist) {
  const Workload wl = GenerateAlibabaLike(SmallOptions());
  const WorkloadStats stats = ComputeWorkloadStats(wl);
  // At scale the paper's ">2000 containers" becomes ~2% of the total.
  EXPECT_GE(stats.max_app_size,
            static_cast<std::size_t>(0.015 * 5000));
}

TEST_F(GeneratorTest, HeavyConflictersExist) {
  auto options = SmallOptions();
  const Workload wl = GenerateAlibabaLike(options);
  const auto threshold = static_cast<std::int64_t>(
      static_cast<double>(kHeavyConflictContainers) * options.scale * 0.9);
  const WorkloadStats stats = ComputeWorkloadStats(wl, threshold);
  EXPECT_GE(stats.heavy_conflicter_apps,
            static_cast<std::size_t>(kHeavyConflicters));
}

TEST_F(GeneratorTest, CpuOnlyMode) {
  auto options = SmallOptions();
  options.cpu_only = true;
  const Workload wl = GenerateAlibabaLike(options);
  for (const auto& c : wl.containers()) {
    EXPECT_EQ(c.request.mem_mib(), 0);
    EXPECT_GT(c.request.cpu_millis(), 0);
  }
}

TEST_F(GeneratorTest, MemoryModeKeepsMemory) {
  auto options = SmallOptions();
  options.cpu_only = false;
  const Workload wl = GenerateAlibabaLike(options);
  bool any_mem = false;
  for (const auto& c : wl.containers()) {
    any_mem = any_mem || c.request.mem_mib() > 0;
  }
  EXPECT_TRUE(any_mem);
}

TEST_F(GeneratorTest, DeterministicPerSeed) {
  const Workload a = GenerateAlibabaLike(SmallOptions());
  const Workload b = GenerateAlibabaLike(SmallOptions());
  ASSERT_EQ(a.application_count(), b.application_count());
  ASSERT_EQ(a.container_count(), b.container_count());
  EXPECT_EQ(a.constraints().rule_count(), b.constraints().rule_count());
  for (std::size_t i = 0; i < a.application_count(); ++i) {
    EXPECT_EQ(a.applications()[i].containers.size(),
              b.applications()[i].containers.size());
    EXPECT_EQ(a.applications()[i].request, b.applications()[i].request);
    EXPECT_EQ(a.applications()[i].priority, b.applications()[i].priority);
  }
}

TEST_F(GeneratorTest, DifferentSeedsDiffer) {
  auto options = SmallOptions();
  const Workload a = GenerateAlibabaLike(options);
  options.seed = 43;
  const Workload b = GenerateAlibabaLike(options);
  bool any_difference =
      a.container_count() != b.container_count() ||
      a.constraints().rule_count() != b.constraints().rule_count();
  if (!any_difference) {
    for (std::size_t i = 0; i < a.application_count(); ++i) {
      if (a.applications()[i].containers.size() !=
          b.applications()[i].containers.size()) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(GeneratorTest, HighPriorityAppsHaveLargerRequests) {
  const Workload wl = GenerateAlibabaLike(SmallOptions());
  double priority_sum = 0, priority_n = 0, normal_sum = 0, normal_n = 0;
  for (const auto& app : wl.applications()) {
    if (app.priority > 0) {
      priority_sum += static_cast<double>(app.request.cpu_millis());
      ++priority_n;
    } else {
      normal_sum += static_cast<double>(app.request.cpu_millis());
      ++normal_n;
    }
  }
  ASSERT_GT(priority_n, 0);
  ASSERT_GT(normal_n, 0);
  EXPECT_GT(priority_sum / priority_n, normal_sum / normal_n);
}

TEST_F(GeneratorTest, TinyScaleStillValid) {
  AlibabaTraceOptions options;
  options.scale = 0.002;  // ~26 apps
  const Workload wl = GenerateAlibabaLike(options);
  EXPECT_GE(wl.application_count(), 10u);
  EXPECT_GE(wl.container_count(), wl.application_count());
}

// ------------------------------------------------------------- arrival ----

class ArrivalTest : public ::testing::Test {
 protected:
  ArrivalTest() {
    AlibabaTraceOptions options;
    options.scale = 0.01;
    wl_ = GenerateAlibabaLike(options);
  }
  Workload wl_;
};

TEST_F(ArrivalTest, AllOrdersArePermutations) {
  for (ArrivalOrder order :
       {ArrivalOrder::kFifo, ArrivalOrder::kRandom,
        ArrivalOrder::kHighPriorityFirst, ArrivalOrder::kLowPriorityFirst,
        ArrivalOrder::kManyConflictsFirst, ArrivalOrder::kFewConflictsFirst}) {
    auto seq = MakeArrivalSequence(wl_, order);
    EXPECT_EQ(seq.size(), wl_.container_count());
    std::sort(seq.begin(), seq.end());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].value(), static_cast<std::int32_t>(i));
    }
  }
}

TEST_F(ArrivalTest, FifoIsIdentity) {
  const auto seq = MakeArrivalSequence(wl_, ArrivalOrder::kFifo);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].value(), static_cast<std::int32_t>(i));
  }
}

TEST_F(ArrivalTest, ChpSortsPrioritiesDescending) {
  const auto seq = MakeArrivalSequence(wl_, ArrivalOrder::kHighPriorityFirst);
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_GE(wl_.container(seq[i - 1]).priority,
              wl_.container(seq[i]).priority);
  }
}

TEST_F(ArrivalTest, ClpSortsPrioritiesAscending) {
  const auto seq = MakeArrivalSequence(wl_, ArrivalOrder::kLowPriorityFirst);
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_LE(wl_.container(seq[i - 1]).priority,
              wl_.container(seq[i]).priority);
  }
}

TEST_F(ArrivalTest, ClaSortsConflictMassDescending) {
  const auto seq = MakeArrivalSequence(wl_, ArrivalOrder::kManyConflictsFirst);
  const auto& apps = wl_.applications();
  auto mass = [&](ContainerId c) {
    return wl_.constraints().ConflictingContainerCount(wl_.container(c).app,
                                                       apps);
  };
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_GE(mass(seq[i - 1]), mass(seq[i]));
  }
}

TEST_F(ArrivalTest, CsaSortsConflictMassAscending) {
  const auto seq = MakeArrivalSequence(wl_, ArrivalOrder::kFewConflictsFirst);
  const auto& apps = wl_.applications();
  auto mass = [&](ContainerId c) {
    return wl_.constraints().ConflictingContainerCount(wl_.container(c).app,
                                                       apps);
  };
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_LE(mass(seq[i - 1]), mass(seq[i]));
  }
}

TEST_F(ArrivalTest, RandomIsSeedDeterministic) {
  const auto a = MakeArrivalSequence(wl_, ArrivalOrder::kRandom, 5);
  const auto b = MakeArrivalSequence(wl_, ArrivalOrder::kRandom, 5);
  const auto c = MakeArrivalSequence(wl_, ArrivalOrder::kRandom, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ArrivalOrderNames, AllDistinct) {
  EXPECT_STRNE(ArrivalOrderName(ArrivalOrder::kHighPriorityFirst),
               ArrivalOrderName(ArrivalOrder::kLowPriorityFirst));
  EXPECT_STRNE(ArrivalOrderName(ArrivalOrder::kManyConflictsFirst),
               ArrivalOrderName(ArrivalOrder::kFewConflictsFirst));
}

// ----------------------------------------------------------- serialize ----

TEST(Serialize, RoundTripPreservesEverything) {
  Workload original;
  const auto a = original.AddApplication("alpha", 3,
                                         ResourceVector::Cores(2, 4), 1, true);
  const auto b =
      original.AddApplication("beta,with comma", 1,
                              ResourceVector::Cores(16, 32), 3, false);
  const auto c = original.AddApplication("gamma", 5,
                                         ResourceVector(500, 100), 0, true);
  original.AddAntiAffinity(a, b);
  original.AddAntiAffinity(b, c);

  std::stringstream ss;
  SaveWorkload(original, ss);
  Workload loaded;
  ASSERT_TRUE(LoadWorkload(ss, loaded));

  ASSERT_EQ(loaded.application_count(), original.application_count());
  ASSERT_EQ(loaded.container_count(), original.container_count());
  for (std::size_t i = 0; i < original.application_count(); ++i) {
    const auto& lhs = original.applications()[i];
    const auto& rhs = loaded.applications()[i];
    EXPECT_EQ(lhs.name, rhs.name);
    EXPECT_EQ(lhs.containers.size(), rhs.containers.size());
    EXPECT_EQ(lhs.request, rhs.request);
    EXPECT_EQ(lhs.priority, rhs.priority);
    EXPECT_EQ(lhs.anti_affinity_within, rhs.anti_affinity_within);
  }
  EXPECT_EQ(loaded.constraints().rule_count(),
            original.constraints().rule_count());
  EXPECT_TRUE(loaded.constraints().Conflicts(a, b));
  EXPECT_TRUE(loaded.constraints().Conflicts(b, c));
  EXPECT_FALSE(loaded.constraints().Conflicts(a, c));
}

TEST(Serialize, GeneratedWorkloadRoundTrip) {
  AlibabaTraceOptions options;
  options.scale = 0.01;
  const Workload original = GenerateAlibabaLike(options);
  std::stringstream ss;
  SaveWorkload(original, ss);
  Workload loaded;
  ASSERT_TRUE(LoadWorkload(ss, loaded));
  EXPECT_EQ(loaded.container_count(), original.container_count());
  EXPECT_EQ(loaded.constraints().rule_count(),
            original.constraints().rule_count());
}

TEST(Serialize, RejectsMalformedRows) {
  {
    std::stringstream ss("#applications\n0,a,notanumber,1,1,0,0\n");
    Workload out;
    EXPECT_FALSE(LoadWorkload(ss, out));
  }
  {
    std::stringstream ss("#applications\n5,a,1,1,1,0,0\n");  // non-dense id
    Workload out;
    EXPECT_FALSE(LoadWorkload(ss, out));
  }
  {
    std::stringstream ss("#applications\n0,a,1,1,1,0,0\n#rules\n0,9\n");
    Workload out;
    EXPECT_FALSE(LoadWorkload(ss, out));  // rule references unknown app
  }
  {
    std::stringstream ss("0,a,1,1,1,0,0\n");  // data before a section header
    Workload out;
    EXPECT_FALSE(LoadWorkload(ss, out));
  }
}

TEST(Serialize, EmptyInputIsEmptyWorkload) {
  std::stringstream ss("");
  Workload out;
  EXPECT_TRUE(LoadWorkload(ss, out));
  EXPECT_EQ(out.application_count(), 0u);
}

// ----------------------------------------------------- topology (de)ser ----

TEST(SerializeTopology, RoundTripHeterogeneous) {
  cluster::Topology original;
  const auto g0 = original.AddSubCluster();
  const auto r0 = original.AddRack(g0);
  original.AddMachine(r0, ResourceVector::Cores(32, 64));
  original.AddMachine(r0, ResourceVector::Cores(64, 128));
  const auto r1 = original.AddRack(g0);
  original.AddMachine(r1, ResourceVector::Cores(16, 32));
  const auto g1 = original.AddSubCluster();
  const auto r2 = original.AddRack(g1);
  original.AddMachine(r2, ResourceVector(500, 100));

  std::stringstream ss;
  SaveTopology(original, ss);
  cluster::Topology loaded;
  ASSERT_TRUE(LoadTopology(ss, loaded));

  ASSERT_EQ(loaded.machine_count(), original.machine_count());
  EXPECT_EQ(loaded.rack_count(), original.rack_count());
  EXPECT_EQ(loaded.subcluster_count(), original.subcluster_count());
  for (std::size_t i = 0; i < original.machine_count(); ++i) {
    const auto& a = original.machines()[i];
    const auto& b = loaded.machines()[i];
    EXPECT_EQ(a.capacity, b.capacity);
    EXPECT_EQ(a.rack, b.rack);
    EXPECT_EQ(a.subcluster, b.subcluster);
  }
}

TEST(SerializeTopology, RoundTripGenerated) {
  const cluster::Topology original = MakeHeterogeneousCluster(120);
  std::stringstream ss;
  SaveTopology(original, ss);
  cluster::Topology loaded;
  ASSERT_TRUE(LoadTopology(ss, loaded));
  EXPECT_EQ(loaded.machine_count(), 120u);
  EXPECT_EQ(loaded.TotalCapacity(), original.TotalCapacity());
}

TEST(SerializeTopology, RejectsMalformed) {
  {
    std::stringstream ss("#machines\n0,0,notanumber,1\n");
    cluster::Topology out;
    EXPECT_FALSE(LoadTopology(ss, out));
  }
  {
    std::stringstream ss("0,0,1000,1024\n");  // missing section header
    cluster::Topology out;
    EXPECT_FALSE(LoadTopology(ss, out));
  }
  {
    std::stringstream ss("#machines\n0,5,1000,1024\n");  // non-dense rack
    cluster::Topology out;
    EXPECT_FALSE(LoadTopology(ss, out));
  }
}

// --------------------------------------------------------------- stats ----

TEST(TraceStats, HandBuiltWorkload) {
  Workload wl;
  const auto a = wl.AddApplication("a", 1, ResourceVector::Cores(1, 2));
  const auto b =
      wl.AddApplication("b", 60, ResourceVector::Cores(2, 4), 1, true);
  wl.AddApplication("c", 2, ResourceVector::Cores(16, 32), 0, false);
  wl.AddAntiAffinity(a, b);
  const WorkloadStats stats = ComputeWorkloadStats(wl, /*heavy=*/50);
  EXPECT_EQ(stats.applications, 3u);
  EXPECT_EQ(stats.containers, 63u);
  EXPECT_EQ(stats.single_instance_apps, 1u);
  EXPECT_EQ(stats.apps_below_50, 2u);
  EXPECT_EQ(stats.max_app_size, 60u);
  EXPECT_EQ(stats.apps_with_anti_affinity, 2u);  // a (cross) and b (within)
  EXPECT_EQ(stats.apps_with_priority, 1u);
  EXPECT_EQ(stats.max_request.cpu_millis(), 16000);
  // a conflicts with 60 containers of b -> heavy at threshold 50;
  // b conflicts with 1 (a) + 59 siblings = 60 -> heavy too.
  EXPECT_EQ(stats.heavy_conflicter_apps, 2u);
  ASSERT_FALSE(stats.app_size_cdf.empty());
  EXPECT_DOUBLE_EQ(stats.app_size_cdf.back().fraction, 1.0);
}

}  // namespace
}  // namespace aladdin::trace
