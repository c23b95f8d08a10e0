// Unit tests for src/common: ids, rng, stats, strings, csv, flags, table,
// timer, log, thread pool.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/csv.h"
#include "common/flags.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace aladdin {
namespace {

// ---------------------------------------------------------------- ids ----

TEST(Ids, DefaultIsInvalid) {
  ContainerId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, ContainerId::Invalid());
}

TEST(Ids, ValueRoundTrip) {
  MachineId m(7);
  EXPECT_TRUE(m.valid());
  EXPECT_EQ(m.value(), 7);
}

TEST(Ids, Ordering) {
  EXPECT_LT(MachineId(1), MachineId(2));
  EXPECT_EQ(MachineId(3), MachineId(3));
  EXPECT_NE(MachineId(3), MachineId(4));
}

TEST(Ids, DistinctTagTypesDoNotMix) {
  // Compile-time property: MachineId and ContainerId are different types.
  static_assert(!std::is_same_v<MachineId, ContainerId>);
}

TEST(Ids, Hashable) {
  std::unordered_map<ContainerId, int> map;
  map[ContainerId(1)] = 10;
  map[ContainerId(2)] = 20;
  EXPECT_EQ(map.at(ContainerId(1)), 10);
  EXPECT_EQ(map.at(ContainerId(2)), 20);
}

// ---------------------------------------------------------------- rng ----

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::map<std::int64_t, int> counts;
  for (int i = 0; i < 10000; ++i) ++counts[rng.UniformInt(0, 9)];
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [v, n] : counts) {
    EXPECT_GT(n, 700) << "value " << v << " under-represented";
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(Rng, ZipfStaysInRange) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.Zipf(100, 1.3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
  }
}

TEST(Rng, ZipfIsHeavyHeaded) {
  // P(X = 1) must dominate; for s = 1.5, n = 1000 it is about 38%.
  Rng rng(29);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += rng.Zipf(1000, 1.5) == 1 ? 1 : 0;
  const double p1 = static_cast<double>(ones) / n;
  EXPECT_GT(p1, 0.30);
  EXPECT_LT(p1, 0.46);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(31);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 20000.0, 0.75, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// -------------------------------------------------------------- stats ----

TEST(Sample, PercentilesExact) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(99), 99.01, 1e-9);
}

TEST(Sample, PercentileAfterInterleavedAdds) {
  Sample s;
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 3.0);
  s.Add(1.0);
  s.Add(2.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Sample, EmptyReturnsZero) {
  Sample s;
  EXPECT_EQ(s.Percentile(50), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(BuildCdf, MonotoneAndComplete) {
  std::vector<double> samples;
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) samples.push_back(rng.UniformDouble());
  const auto cdf = BuildCdf(samples, 32);
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].fraction, cdf[i].fraction);
  }
}

TEST(BuildCdf, EmptyInput) { EXPECT_TRUE(BuildCdf({}).empty()); }

// ------------------------------------------------------------ strings ----

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  x \t\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(Strings, ParseInt64) {
  std::int64_t v = 0;
  EXPECT_TRUE(ParseInt64("123", v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt64(" -42 ", v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("", v));
  EXPECT_FALSE(ParseInt64("12x", v));
  EXPECT_FALSE(ParseInt64("4.5", v));
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("1.5", v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_TRUE(ParseDouble("-3", v));
  EXPECT_DOUBLE_EQ(v, -3.0);
  EXPECT_FALSE(ParseDouble("abc", v));
  EXPECT_FALSE(ParseDouble("", v));
}

TEST(Strings, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(1234567), "1,234,567");
  EXPECT_EQ(WithThousands(-9876), "-9,876");
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(1.0, 0), "1");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_FALSE(StartsWith("", "--"));
}

// ---------------------------------------------------------------- csv ----

TEST(Csv, WriteReadRoundTrip) {
  std::stringstream ss;
  CsvWriter writer(ss);
  writer.Field("hello").Field(std::int64_t{42}).Field(2.5);
  writer.EndRow();
  writer.Field("with,comma").Field("with\"quote");
  writer.EndRow();

  CsvReader reader(ss);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.NextRow(row));
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "hello");
  EXPECT_EQ(row[1], "42");
  double v;
  ASSERT_TRUE(ParseDouble(row[2], v));
  EXPECT_DOUBLE_EQ(v, 2.5);

  ASSERT_TRUE(reader.NextRow(row));
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "with,comma");
  EXPECT_EQ(row[1], "with\"quote");

  EXPECT_FALSE(reader.NextRow(row));
}

TEST(Csv, SkipsBlankLines) {
  std::stringstream ss("a,b\n\n\nc,d\n");
  CsvReader reader(ss);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.NextRow(row));
  EXPECT_EQ(row[0], "a");
  ASSERT_TRUE(reader.NextRow(row));
  EXPECT_EQ(row[0], "c");
  EXPECT_FALSE(reader.NextRow(row));
}

TEST(Csv, HandlesCrLf) {
  std::stringstream ss("a,b\r\nc,d\r\n");
  CsvReader reader(ss);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.NextRow(row));
  EXPECT_EQ(row[1], "b");
}

// -------------------------------------------------------------- flags ----

TEST(Flags, ParsesAllSyntaxes) {
  Flags flags;
  auto& n = flags.Int64("n", 1, "count");
  auto& x = flags.Double("x", 0.5, "ratio");
  auto& b = flags.Bool("b", false, "toggle");
  auto& s = flags.String("s", "def", "name");

  const char* argv[] = {"prog", "--n=5", "--x", "2.5", "--b", "--s=abc"};
  EXPECT_TRUE(flags.Parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(n, 5);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "abc");
}

TEST(Flags, DefaultsPreservedWithoutArgs) {
  Flags flags;
  auto& n = flags.Int64("n", 7, "count");
  const char* argv[] = {"prog"};
  EXPECT_TRUE(flags.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(n, 7);
}

TEST(Flags, RejectsUnknownFlag) {
  Flags flags;
  flags.Int64("n", 1, "count");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(Flags, RejectsBadValue) {
  Flags flags;
  flags.Int64("n", 1, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(Flags, HelpReturnsFalse) {
  Flags flags;
  flags.Int64("n", 1, "count");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(Flags, BoolExplicitValues) {
  Flags flags;
  auto& b = flags.Bool("b", true, "toggle");
  const char* argv[] = {"prog", "--b=false"};
  EXPECT_TRUE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(b);
}

// -------------------------------------------------------------- table ----

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.Cell("a").Cell(std::int64_t{1}).EndRow();
  table.Cell("long-name").Cell(12345.678, 1).EndRow();
  const std::string out = table.Render();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("12345.7"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  // All lines equally wide.
  std::size_t width = 0;
  std::istringstream is(out);
  std::string line;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Table, PadsMissingCells) {
  Table table({"a", "b", "c"});
  table.Cell("only-one").EndRow();
  const std::string out = table.Render();
  EXPECT_NE(out.find("only-one"), std::string::npos);
}

// -------------------------------------------------------------- timer ----

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  // Burn a little CPU deterministically.
  volatile double x = 1.0;
  for (int i = 0; i < 100000; ++i) x = x * 1.0000001;
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  EXPECT_NEAR(timer.ElapsedMillis(), timer.ElapsedSeconds() * 1e3,
              timer.ElapsedMillis() * 0.5 + 1.0);
}

TEST(Timer, ResetRestartsClock) {
  WallTimer timer;
  volatile double x = 1.0;
  for (int i = 0; i < 100000; ++i) x = x * 1.0000001;
  const double before = timer.ElapsedSeconds();
  timer.Reset();
  EXPECT_LE(timer.ElapsedSeconds(), before + 1e-3);
}

// ---------------------------------------------------------------- log ----

TEST(Log, LevelGatingRoundTrip) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // These must be no-ops (nothing observable to assert beyond not crashing,
  // but the macros must still compile and evaluate their stream arguments
  // lazily).
  LOG_DEBUG << "suppressed " << 1;
  LOG_INFO << "suppressed " << 2;
  SetLogLevel(original);
}

TEST(Log, MacroDoesNotEvaluateStreamWhenSuppressed) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto count = [&] {
    ++evaluations;
    return "x";
  };
  LOG_DEBUG << count();
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(original);
}

// -------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { ++counter; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(pool, 0, 257, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool touched = false;
  ParallelFor(pool, 5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(SerialFor, MatchesParallelSemantics) {
  std::vector<int> hits(10, 0);
  SerialFor(2, 8, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 2 && i < 8) ? 1 : 0);
  }
}

}  // namespace
}  // namespace aladdin
