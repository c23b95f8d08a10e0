// Decision provenance journal: ring wraparound accounting, the JSONL line
// format, the guarantee that every unplaced container carries a structured
// (non-catch-all) cause, sink draining at tick boundaries, and the
// crash-time flight recorder. tools/check_journal.py and tools/explain.py
// are the journal's parsers; these tests compare emitted lines with
// DecisionToJson of the expected records.
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "baselines/gokube/scheduler.h"
#include "common/check.h"
#include "core/scheduler.h"
#include "obs/journal.h"
#include "obs/runtime.h"
#include "sim/experiment.h"
#include "trace/alibaba_gen.h"
#include "trace/arrival.h"
#include "trace/workload.h"

namespace aladdin {
namespace {

using cluster::ResourceVector;
using cluster::Topology;
using trace::Workload;

// Journal state is process-global (like the metrics registry): every test
// starts from a fresh StartJournal and tears the mode bit down so a failing
// test cannot leak an armed journal into the next one.
class JournalTest : public ::testing::Test {
 protected:
  void TearDown() override {
    (void)obs::FinishJournal();
  }
};

obs::Decision MakeDecision(std::uint64_t seq) {
  obs::Decision d;
  d.seq = seq;
  d.tick = 7;
  d.kind = obs::DecisionKind::kMigrate;
  d.cause = obs::Cause::kMigratedForRepair;
  d.container = 42;
  d.machine = 3;
  d.other = 9;
  d.detail = -12345;
  return d;
}

// --- cause / kind vocabulary -------------------------------------------------

// Distinct names are what lets the tools map a journal's cause string back
// to one cause.
TEST(JournalVocabulary, CauseNamesRoundTripAndStayClosed) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Cause::kCount);
       ++i) {
    const std::string name = obs::CauseName(static_cast<obs::Cause>(i));
    EXPECT_NE(name, "?") << "cause " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate cause name " << name;
  }
  EXPECT_STREQ(obs::CauseName(obs::Cause::kCount), "?");
}

TEST(JournalVocabulary, DecisionKindNames) {
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(obs::DecisionKind::kCount); ++i) {
    EXPECT_STRNE(obs::DecisionKindName(static_cast<obs::DecisionKind>(i)),
                 "?");
  }
}

// --- JSONL line format -------------------------------------------------------

// Golden lines: every field of a record reaches its line, and `shard`
// appears only when assigned.
TEST(JournalJson, DecisionRoundTripsThroughJsonl) {
  obs::Decision decision = MakeDecision(123456789);
  EXPECT_EQ(obs::DecisionToJson(decision),
            "{\"seq\":123456789,\"tick\":7,\"kind\":\"migrate\","
            "\"cause\":\"migrated_for_repair\",\"container\":42,"
            "\"machine\":3,\"other\":9,\"detail\":-12345}");
  decision.shard = 2;
  EXPECT_EQ(obs::DecisionToJson(decision),
            "{\"seq\":123456789,\"tick\":7,\"kind\":\"migrate\","
            "\"cause\":\"migrated_for_repair\",\"container\":42,"
            "\"machine\":3,\"other\":9,\"detail\":-12345,\"shard\":2}");
}

// --- unplaced causes (always on, journal armed or not) -----------------------

TEST(UnplacedCauses, AladdinDiagnosesCapacityExhaustion) {
  // 5 x 32-core containers onto 3 x 32-core machines: two must strand, and
  // no machine has the CPU headroom for them.
  Workload wl;
  wl.AddApplication("big", 5, ResourceVector::Cores(32, 64));
  const Topology topo = Topology::Uniform(3, ResourceVector::Cores(32, 64));
  core::AladdinScheduler scheduler;
  const auto arrival =
      trace::MakeArrivalSequence(wl, trace::ArrivalOrder::kFifo);
  auto state = wl.MakeState(topo);
  sim::ScheduleRequest request{&wl, &arrival};
  const auto outcome = scheduler.Schedule(request, state);
  ASSERT_EQ(outcome.unplaced.size(), 2u);
  ASSERT_EQ(outcome.unplaced_causes.size(), outcome.unplaced.size());
  for (const obs::Cause cause : outcome.unplaced_causes) {
    EXPECT_EQ(cause, obs::Cause::kCapacityExhaustedCpu);
  }
}

TEST(UnplacedCauses, AladdinDiagnosesMemoryExhaustion) {
  // Memory hogs leave plenty of CPU but no memory for the victims.
  Workload wl;
  wl.AddApplication("hog", 3, ResourceVector::Cores(1, 60));
  wl.AddApplication("victim", 2, ResourceVector::Cores(1, 32));
  const Topology topo = Topology::Uniform(3, ResourceVector::Cores(32, 64));
  core::AladdinScheduler scheduler;
  const auto arrival =
      trace::MakeArrivalSequence(wl, trace::ArrivalOrder::kFifo);
  auto state = wl.MakeState(topo);
  sim::ScheduleRequest request{&wl, &arrival};
  const auto outcome = scheduler.Schedule(request, state);
  ASSERT_EQ(outcome.unplaced.size(), 2u);
  ASSERT_EQ(outcome.unplaced_causes.size(), 2u);
  for (const obs::Cause cause : outcome.unplaced_causes) {
    EXPECT_EQ(cause, obs::Cause::kCapacityExhaustedMem);
  }
}

TEST(UnplacedCauses, AladdinDiagnosesIntraAppAntiAffinity) {
  // 5 self-anti-affine replicas on 3 machines: two strand with their own
  // application blocking every machine (resources are ample).
  Workload wl;
  wl.AddApplication("web", 5, ResourceVector::Cores(2, 4), 1, true);
  const Topology topo = Topology::Uniform(3, ResourceVector::Cores(32, 64));
  core::AladdinScheduler scheduler;
  const auto arrival =
      trace::MakeArrivalSequence(wl, trace::ArrivalOrder::kFifo);
  auto state = wl.MakeState(topo);
  sim::ScheduleRequest request{&wl, &arrival};
  const auto outcome = scheduler.Schedule(request, state);
  ASSERT_EQ(outcome.unplaced.size(), 2u);
  ASSERT_EQ(outcome.unplaced_causes.size(), 2u);
  for (const obs::Cause cause : outcome.unplaced_causes) {
    EXPECT_EQ(cause, obs::Cause::kAntiAffinityIntraApp);
  }
}

TEST(UnplacedCauses, EveryUnplacedContainerGetsANonCatchAllCause) {
  // Undersized cluster at trace scale: whatever strands must carry a
  // specific diagnosis, never kNone / kNoAdmissiblePath / the baseline
  // catch-all — the acceptance bar for explain.py --why-unplaced.
  trace::AlibabaTraceOptions options;
  options.scale = 0.01;
  const Workload wl = trace::GenerateAlibabaLike(options);
  const Topology topo =
      trace::MakeAlibabaCluster(sim::BenchMachineCount(0.01) / 2);
  core::AladdinScheduler scheduler;
  const auto arrival =
      trace::MakeArrivalSequence(wl, trace::ArrivalOrder::kRandom);
  auto state = wl.MakeState(topo);
  sim::ScheduleRequest request{&wl, &arrival};
  const auto outcome = scheduler.Schedule(request, state);
  ASSERT_GT(outcome.unplaced.size(), 0u) << "halved cluster still fit all";
  ASSERT_EQ(outcome.unplaced_causes.size(), outcome.unplaced.size());
  for (std::size_t i = 0; i < outcome.unplaced.size(); ++i) {
    const obs::Cause cause = outcome.unplaced_causes[i];
    EXPECT_NE(cause, obs::Cause::kNone) << "container " << i;
    EXPECT_NE(cause, obs::Cause::kNoAdmissiblePath) << "container " << i;
    EXPECT_NE(cause, obs::Cause::kBaselineUnplaced) << "container " << i;
  }
}

TEST(UnplacedCauses, BaselinesReportTheCatchAllCause) {
  Workload wl;
  wl.AddApplication("big", 5, ResourceVector::Cores(32, 64));
  const Topology topo = Topology::Uniform(3, ResourceVector::Cores(32, 64));
  baselines::GoKubeScheduler scheduler;
  const auto arrival =
      trace::MakeArrivalSequence(wl, trace::ArrivalOrder::kFifo);
  auto state = wl.MakeState(topo);
  sim::ScheduleRequest request{&wl, &arrival};
  const auto outcome = scheduler.Schedule(request, state);
  ASSERT_GT(outcome.unplaced.size(), 0u);
  ASSERT_EQ(outcome.unplaced_causes.size(), outcome.unplaced.size());
  for (const obs::Cause cause : outcome.unplaced_causes) {
    EXPECT_EQ(cause, obs::Cause::kBaselineUnplaced);
  }
}

// --- ring mechanics ----------------------------------------------------------

TEST_F(JournalTest, RingWraparoundKeepsNewestAndCountsDrops) {
  obs::JournalOptions options;
  options.ring_capacity = 8;
  obs::StartJournal(options);
  for (int i = 0; i < 100; ++i) {
    obs::EmitDecision(obs::DecisionKind::kEvent, obs::Cause::kNone,
                      /*container=*/i);
  }
  obs::StopJournal();
  const std::vector<obs::Decision> kept = obs::JournalSnapshot();
  ASSERT_EQ(kept.size(), 8u);
  // The newest 8 survive, in ascending seq order.
  for (std::size_t k = 0; k < kept.size(); ++k) {
    EXPECT_EQ(kept[k].seq, 92u + k);
    EXPECT_EQ(kept[k].container, static_cast<std::int32_t>(92 + k));
  }
  EXPECT_EQ(obs::DroppedJournalDecisions(), 92u);
  EXPECT_EQ(obs::EmittedJournalDecisions(), 100u);
}

TEST_F(JournalTest, DisarmedJournalEmitsNothing) {
  obs::StartJournal();
  obs::StopJournal();
  obs::EmitDecision(obs::DecisionKind::kEvent, obs::Cause::kNone, 1);
  EXPECT_TRUE(obs::JournalSnapshot().empty());
  EXPECT_EQ(obs::EmittedJournalDecisions(), 0u);
}

// --- sink draining -----------------------------------------------------------

TEST_F(JournalTest, TickBoundariesDrainToTheSink) {
  const std::string path = ::testing::TempDir() + "/journal_sink.jsonl";
  obs::JournalOptions options;
  options.ring_capacity = 4;  // tiny: only draining prevents wraparound
  options.jsonl_path = path;
  obs::StartJournal(options);
  for (std::int64_t tick = 1; tick <= 5; ++tick) {
    obs::SetJournalTick(tick);  // drains the previous tick's records
    for (int i = 0; i < 4; ++i) {
      obs::EmitDecision(obs::DecisionKind::kEvent, obs::Cause::kNone,
                        /*container=*/static_cast<std::int32_t>(tick));
    }
  }
  ASSERT_TRUE(obs::FinishJournal());
  EXPECT_EQ(obs::DroppedJournalDecisions(), 0u);
  EXPECT_EQ(obs::EmittedJournalDecisions(), 20u);

  // Seq-ordered across drains, each record stamped with the tick it was
  // emitted in (so ticks are non-decreasing).
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t expected_seq = 0;
  while (std::getline(in, line)) {
    obs::Decision expected;
    expected.seq = expected_seq;
    expected.tick = static_cast<std::int64_t>(expected_seq / 4) + 1;
    expected.container = static_cast<std::int32_t>(expected.tick);
    EXPECT_EQ(line, obs::DecisionToJson(expected));
    ++expected_seq;
  }
  EXPECT_EQ(expected_seq, 20u);
}

// --- provenance completeness -------------------------------------------------

TEST_F(JournalTest, TerminalRecordsAgreeWithFinalState) {
  trace::AlibabaTraceOptions options;
  options.scale = 0.01;
  const Workload wl = trace::GenerateAlibabaLike(options);
  const Topology topo =
      trace::MakeAlibabaCluster(sim::BenchMachineCount(0.01) * 3 / 4);
  const auto arrival =
      trace::MakeArrivalSequence(wl, trace::ArrivalOrder::kRandom);

  obs::StartJournal();
  core::AladdinScheduler scheduler;
  auto state = wl.MakeState(topo);
  sim::ScheduleRequest request{&wl, &arrival};
  const auto outcome = scheduler.Schedule(request, state);
  obs::StopJournal();
  ASSERT_EQ(obs::DroppedJournalDecisions(), 0u);

  // Replay the stream the way tools/explain.py does: the last terminal
  // record per container decides its fate.
  enum class Fate { kUnknown, kPlaced, kUnplaced };
  std::vector<Fate> fate(wl.container_count(), Fate::kUnknown);
  std::vector<std::int32_t> on(wl.container_count(), -1);
  for (const obs::Decision& d : obs::JournalSnapshot()) {
    if (d.container < 0 ||
        d.container >= static_cast<std::int32_t>(fate.size())) {
      continue;
    }
    switch (d.kind) {
      case obs::DecisionKind::kPlace:
      case obs::DecisionKind::kMigrate:
        fate[d.container] = Fate::kPlaced;
        on[d.container] = d.machine;
        break;
      case obs::DecisionKind::kPreempt:
      case obs::DecisionKind::kUnplaced:
        fate[d.container] = Fate::kUnplaced;
        on[d.container] = -1;
        break;
      default:
        break;  // rejections and events are not terminal
    }
  }
  for (const auto& c : wl.containers()) {
    const auto i = static_cast<std::size_t>(c.id.value());
    if (state.IsPlaced(c.id)) {
      EXPECT_EQ(fate[i], Fate::kPlaced) << "container " << i;
      EXPECT_EQ(on[i], state.PlacementOf(c.id).value()) << "container " << i;
    } else {
      EXPECT_EQ(fate[i], Fate::kUnplaced) << "container " << i;
    }
  }
  // And every give-up in the outcome produced a kUnplaced record.
  std::set<std::int32_t> journalled_unplaced;
  for (const obs::Decision& d : obs::JournalSnapshot()) {
    if (d.kind == obs::DecisionKind::kUnplaced) {
      EXPECT_NE(d.cause, obs::Cause::kNone);
      journalled_unplaced.insert(d.container);
    }
  }
  for (const auto c : outcome.unplaced) {
    EXPECT_EQ(journalled_unplaced.count(c.value()), 1u)
        << "container " << c.value() << " missing its terminal record";
  }
}

// --- crash flight recorder ---------------------------------------------------

TEST_F(JournalTest, CheckFailureDumpsFlightRecorder) {
  const std::string sink = ::testing::TempDir() + "/journal_crash.jsonl";
  const std::string crash = sink + ".crash";
  std::remove(crash.c_str());
  EXPECT_DEATH(
      {
        obs::JournalOptions options;
        options.jsonl_path = sink;
        obs::StartJournal(options);
        obs::EmitDecision(obs::DecisionKind::kPlace,
                          obs::Cause::kAdmittedDirect, /*container=*/7,
                          /*machine=*/2);
        obs::EmitDecision(obs::DecisionKind::kUnplaced,
                          obs::Cause::kCapacityExhaustedCpu,
                          /*container=*/8);
        ALADDIN_CHECK(false) << "induced crash for the flight recorder";
      },
      "induced crash for the flight recorder");
  // The dying process left its last decisions next to the sink.
  std::ifstream in(crash);
  ASSERT_TRUE(in.good()) << crash << " was not written by the check hook";
  std::vector<std::string> dumped;
  std::string line;
  while (std::getline(in, line)) dumped.push_back(line);
  obs::Decision place;
  place.kind = obs::DecisionKind::kPlace;
  place.cause = obs::Cause::kAdmittedDirect;
  place.container = 7;
  place.machine = 2;
  obs::Decision unplaced;
  unplaced.seq = 1;
  unplaced.kind = obs::DecisionKind::kUnplaced;
  unplaced.cause = obs::Cause::kCapacityExhaustedCpu;
  unplaced.container = 8;
  EXPECT_EQ(dumped, (std::vector<std::string>{obs::DecisionToJson(place),
                                              obs::DecisionToJson(unplaced)}));
}

}  // namespace
}  // namespace aladdin
