// Tests for sliding windows via general slicing: slice assignment, window
// emission semantics, slice retirement, the oracle's sliding path, and
// end-to-end distributed correctness on every engine.
#include <gtest/gtest.h>

#include <tuple>

#include "core/oracle.h"
#include "core/sliding.h"
#include "core/window.h"
#include "engines/flink_engine.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/ysb.h"

namespace slash {
namespace {

using core::ResultSink;
using core::SliceAggregate;
using core::WindowResult;
using core::WindowSpec;
using state::AggKind;

TEST(SlidingWindowSpecTest, SliceAssignment) {
  const WindowSpec w = WindowSpec::Sliding(/*size=*/400, /*slide=*/100);
  EXPECT_EQ(w.BucketWidth(), 100);
  EXPECT_EQ(w.SlicesPerWindow(), 4);
  EXPECT_EQ(w.BucketOf(0), 0);
  EXPECT_EQ(w.BucketOf(99), 0);
  EXPECT_EQ(w.BucketOf(100), 1);
  EXPECT_EQ(w.BucketEnd(3), 400);  // window [0,400) ends at 400
}

TEST(SlidingWindowSpecTest, SizeMustBeSlideMultiple) {
  EXPECT_DEATH(WindowSpec::Sliding(250, 100), "slide multiple");
}

state::AggState Agg(int64_t value) {
  state::AggState s;
  s.Apply(value);
  return s;
}

TEST(SlidingEmissionTest, WindowsMergeTheirSlices) {
  const WindowSpec w = WindowSpec::Sliding(200, 100);  // k = 2
  // Key 7: slice 0 -> 10, slice 1 -> 20, slice 2 -> 40.
  std::vector<SliceAggregate> slices = {
      {0, 7, Agg(10)}, {1, 7, Agg(20)}, {2, 7, Agg(40)}};
  ResultSink sink;
  core::EmitSlidingWindows(w, AggKind::kSum, slices,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max(), &sink);
  // Windows: e=1 (slices 0..1) = 30, e=2 (1..2) = 60, e=3 (2..3) = 40.
  // e=0 would start before the stream and is not emitted.
  const std::vector<WindowResult> expected = {
      {1, 7, 30}, {2, 7, 60}, {3, 7, 40}};
  EXPECT_EQ(sink.SortedRows(), expected);
}

TEST(SlidingEmissionTest, EmissionRangeIsExclusiveInclusive) {
  const WindowSpec w = WindowSpec::Sliding(200, 100);
  std::vector<SliceAggregate> slices = {
      {0, 1, Agg(1)}, {1, 1, Agg(2)}, {2, 1, Agg(4)}, {3, 1, Agg(8)}};
  // Only windows in (1, 3] emit: e=2 (slices 1,2) and e=3 (slices 2,3).
  ResultSink sink;
  core::EmitSlidingWindows(w, AggKind::kSum, slices, /*last_emitted=*/1,
                           /*threshold=*/3, &sink);
  const std::vector<WindowResult> expected = {{2, 1, 6}, {3, 1, 12}};
  EXPECT_EQ(sink.SortedRows(), expected);
}

TEST(SlidingEmissionTest, IncrementalEmissionCoversEverythingOnce) {
  // Emitting in two steps must equal emitting in one.
  const WindowSpec w = WindowSpec::Sliding(300, 100);
  std::vector<SliceAggregate> slices;
  for (int64_t s = 0; s < 10; ++s) {
    slices.push_back({s, 42, Agg(1 << s)});
  }
  ResultSink once, stepped;
  core::EmitSlidingWindows(w, AggKind::kSum, slices,
                           std::numeric_limits<int64_t>::min(), 11, &once);
  core::EmitSlidingWindows(w, AggKind::kSum, slices,
                           std::numeric_limits<int64_t>::min(), 5, &stepped);
  core::EmitSlidingWindows(w, AggKind::kSum, slices, 5, 11, &stepped);
  EXPECT_EQ(once.SortedRows(), stepped.SortedRows());
  EXPECT_EQ(once.checksum(), stepped.checksum());
}

TEST(SlidingEmissionTest, RetirableSlice) {
  const WindowSpec w = WindowSpec::Sliding(400, 100);  // k = 4
  // After emitting windows up to e = 10, slice 7 is the newest retirable
  // (it last participates in window 10).
  EXPECT_EQ(core::RetirableSlice(w, 10), 7);
}

TEST(SlidingOracleTest, MatchesHandComputedWindows) {
  core::QuerySpec q;
  q.type = core::QuerySpec::Type::kAggregate;
  q.window = WindowSpec::Sliding(200, 100);
  q.agg = AggKind::kCount;
  core::SourceFactory source = [](int, int) {
    // ts 50, 150, 250 for key 3: slices 0, 1, 2 with one record each.
    class Src : public core::RecordSource {
     public:
      bool Next(core::Record* out) override {
        if (i_ >= 3) return false;
        out->timestamp = 50 + i_ * 100;
        out->key = 3;
        out->value = 1;
        out->stream_id = 0;
        ++i_;
        return true;
      }

     private:
      int i_ = 0;
    };
    return std::unique_ptr<core::RecordSource>(new Src());
  };
  const core::OracleOutput out = core::ComputeOracle(q, source, 1);
  const std::vector<WindowResult> expected = {{1, 3, 2}, {2, 3, 2},
                                              {3, 3, 1}};
  EXPECT_EQ(out.rows, expected);
}

// --- End-to-end: sliding YSB on every engine matches the oracle ------------

class SlidingYsbWorkload : public workloads::YsbWorkload {
 public:
  using workloads::YsbWorkload::YsbWorkload;

  core::QuerySpec MakeQuery() const override {
    core::QuerySpec q = workloads::YsbWorkload::MakeQuery();
    // 10-minute windows sliding every 2 minutes.
    q.window = WindowSpec::Sliding(600'000, 120'000);
    return q;
  }
};

using SlidingParam = std::tuple<int /*engine*/, int /*nodes*/>;

class SlidingEngineSweep : public ::testing::TestWithParam<SlidingParam> {};

TEST_P(SlidingEngineSweep, MatchesOracle) {
  const auto [engine_id, nodes] = GetParam();
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  ycfg.windows = 4;
  SlidingYsbWorkload workload(ycfg);

  engines::ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.workers_per_node = 2;
  engines::JobConfig job;
  job.records_per_worker = 3000;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.state_lss_capacity = 1 << 16;
  job.state_index_buckets = 1 << 10;
  job.collect_rows = true;

  std::unique_ptr<engines::Engine> engine;
  switch (engine_id) {
    case 0:
      engine = std::make_unique<engines::SlashEngine>();
      break;
    case 1:
      engine = std::make_unique<engines::UpParEngine>();
      break;
    case 2:
      engine = std::make_unique<engines::FlinkLikeEngine>();
      break;
    default:
      engine = std::make_unique<engines::LightSaberEngine>();
      cluster.nodes = 1;
      break;
  }
  if (engine_id == 3 && nodes != 1) GTEST_SKIP();

  const engines::RunStats stats =
      engine->Run(engines::MakeJobSpec("", workload, cluster, job));
  const core::OracleOutput oracle = core::ComputeOracle(
      workload.MakeQuery(), workload.Sources(job.records_per_worker, job.seed),
      cluster.nodes * cluster.workers_per_node);
  EXPECT_EQ(stats.records_emitted(), oracle.count) << engine->name();
  EXPECT_EQ(stats.result_checksum(), oracle.checksum) << engine->name();
  std::vector<WindowResult> rows = stats.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, oracle.rows) << engine->name();
}

std::string SlidingCaseName(
    const ::testing::TestParamInfo<SlidingParam>& info) {
  static const char* kNames[] = {"Slash", "UpPar", "Flink", "LightSaber"};
  return std::string(kNames[std::get<0>(info.param)]) + "_n" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Engines, SlidingEngineSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2, 4)),
                         SlidingCaseName);

}  // namespace
}  // namespace slash
