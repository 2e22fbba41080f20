// Regression tests for the benchmark harness: the guard that keeps a
// datapoint from an aborted run out of a figure (RequireCompleted exits the
// whole binary, non-zero, status on stderr, and is a no-op on a completed
// run), the point runner every figure binary calls (RunPoints), and the
// SLASH_BENCH_SCALE check.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "common/status.h"
#include "engines/engine.h"

namespace slash {
namespace {

engines::RunStats AbortedStats() {
  engines::RunStats stats;
  stats.engine = "slash";
  stats.status = Status::Unavailable("node 1 crashed with no checkpoint");
  return stats;
}

TEST(BenchHarnessDeathTest, AbortedRunExitsNonZeroWithStatus) {
  EXPECT_EXIT(
      bench::RequireCompleted(AbortedStats(), "fig6/YSB/nodes:4"),
      ::testing::ExitedWithCode(1),
      "benchmark run did not complete \\(fig6/YSB/nodes:4\\).*"
      "node 1 crashed with no checkpoint");
}

TEST(BenchHarnessDeathTest, RefusesToReportAbortedNumbers) {
  EXPECT_EXIT(bench::RequireCompleted(AbortedStats(), "table1/Slash"),
              ::testing::ExitedWithCode(1),
              "Refusing to report numbers from an aborted run");
}

TEST(BenchHarnessTest, CompletedRunPassesThrough) {
  engines::RunStats stats;
  stats.engine = "slash";
  bench::RequireCompleted(stats, "fig7/YSB/nodes:2");  // must not exit
  SUCCEED();
}

// Three points that log their name when run, in declared order.
std::vector<bench::Point> LoggingPoints(std::vector<std::string>* ran) {
  std::vector<bench::Point> points;
  for (const char* name :
       {"fig/Slash/nodes:2", "fig/UpPar/nodes:2", "fig/Slash/nodes:16"}) {
    points.push_back({name, [ran, name] { ran->push_back(name); }});
  }
  return points;
}

TEST(BenchHarnessTest, FilterSelectsASubsetInDeclaredOrder) {
  std::vector<std::string> ran;
  const char* argv[] = {"fig"};
  bench::RunPoints(1, argv, LoggingPoints(&ran));
  EXPECT_EQ(ran, (std::vector<std::string>{"fig/Slash/nodes:2",
                                           "fig/UpPar/nodes:2",
                                           "fig/Slash/nodes:16"}));

  ran.clear();
  const char* anchored[] = {"fig", "--filter=Slash/nodes:(2|16)$"};
  bench::RunPoints(2, anchored, LoggingPoints(&ran));
  EXPECT_EQ(ran, (std::vector<std::string>{"fig/Slash/nodes:2",
                                           "fig/Slash/nodes:16"}));

  // regex_search, not a full match: "nodes:2" is a substring of one name
  // per engine, and "nodes:16" does not contain it.
  ran.clear();
  const char* substring[] = {"fig", "--filter=nodes:2"};
  bench::RunPoints(2, substring, LoggingPoints(&ran));
  EXPECT_EQ(ran, (std::vector<std::string>{"fig/Slash/nodes:2",
                                           "fig/UpPar/nodes:2"}));
}

TEST(BenchHarnessDeathTest, FilterMatchingNothingExitsOne) {
  std::vector<std::string> ran;
  const char* argv[] = {"fig", "--filter=nodes:64"};
  EXPECT_EXIT(bench::RunPoints(2, argv, LoggingPoints(&ran)),
              ::testing::ExitedWithCode(1),
              "no point matches --filter=nodes:64");
}

TEST(BenchHarnessDeathTest, UnknownArgumentExitsTwo) {
  std::vector<std::string> ran;
  const char* argv[] = {"fig", "--benchmark_filter=nodes:2"};
  EXPECT_EXIT(bench::RunPoints(2, argv, LoggingPoints(&ran)),
              ::testing::ExitedWithCode(2),
              "unknown argument '--benchmark_filter=nodes:2'");
  const char* bad_regex[] = {"fig", "--filter=(nodes"};
  EXPECT_EXIT(bench::RunPoints(2, bad_regex, LoggingPoints(&ran)),
              ::testing::ExitedWithCode(2), "bad --filter=\\(nodes");
}

TEST(BenchHarnessTest, BenchScaleMultipliesRecords) {
  ::unsetenv("SLASH_BENCH_SCALE");
  EXPECT_EQ(bench::BenchRecords(1000), 1000u);
  ::setenv("SLASH_BENCH_SCALE", "0.1", 1);
  EXPECT_EQ(bench::BenchRecords(1000), 100u);
  ::unsetenv("SLASH_BENCH_SCALE");
}

TEST(BenchHarnessDeathTest, BadBenchScaleExitsOne) {
  for (const char* scale : {"abc", "-1", "0", "2x", "inf"}) {
    SCOPED_TRACE(scale);
    EXPECT_EXIT(
        {
          ::setenv("SLASH_BENCH_SCALE", scale, 1);
          bench::BenchRecords(1000);
        },
        ::testing::ExitedWithCode(1),
        "SLASH_BENCH_SCALE=.* is not a number > 0");
  }
}

}  // namespace
}  // namespace slash
