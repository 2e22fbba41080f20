// Tests for the core streaming model: record wire format, window
// assignment, vector-clock progress (property P1), join-pair evaluation,
// the stateless pipeline, result sinks, and the sequential oracle.
#include <gtest/gtest.h>

#include <vector>

#include "core/join.h"
#include "core/oracle.h"
#include "core/pipeline.h"
#include "core/record.h"
#include "core/result_sink.h"
#include "core/window.h"
#include "perf/cost_model.h"
#include "sim/simulator.h"

namespace slash::core {
namespace {

TEST(RecordWireTest, RoundTripsThroughBuffer) {
  uint8_t buffer[1024];
  RecordWriter writer(buffer, sizeof(buffer));
  std::vector<Record> in = {
      {100, 7, -3, 0},
      {200, 8, 5, 1},
      {300, 9, 0, 2},
  };
  for (const Record& r : in) ASSERT_TRUE(writer.Append(r, 78));
  EXPECT_EQ(writer.count(), 3u);
  EXPECT_EQ(writer.bytes_used(), 3u * 78);

  RecordReader reader(buffer, writer.bytes_used());
  Record r;
  for (const Record& expected : in) {
    ASSERT_TRUE(reader.Next(&r));
    EXPECT_EQ(r, expected);
  }
  EXPECT_FALSE(reader.Next(&r));
}

TEST(RecordWireTest, AppendFailsWhenFull) {
  uint8_t buffer[100];
  RecordWriter writer(buffer, sizeof(buffer));
  EXPECT_TRUE(writer.Append({1, 1, 1, 0}, 78));
  EXPECT_FALSE(writer.Append({2, 2, 2, 0}, 78));
  EXPECT_EQ(writer.count(), 1u);
}

TEST(RecordWireTest, MixedWireSizes) {
  uint8_t buffer[1024];
  RecordWriter writer(buffer, sizeof(buffer));
  ASSERT_TRUE(writer.Append({1, 1, 1, 0}, 32));   // bid
  ASSERT_TRUE(writer.Append({2, 2, 2, 2}, 206));  // seller
  ASSERT_TRUE(writer.Append({3, 3, 3, 1}, 269));  // auction
  RecordReader reader(buffer, writer.bytes_used());
  Record r;
  ASSERT_TRUE(reader.Next(&r));
  EXPECT_EQ(r.stream_id, 0);
  ASSERT_TRUE(reader.Next(&r));
  EXPECT_EQ(r.stream_id, 2);
  ASSERT_TRUE(reader.Next(&r));
  EXPECT_EQ(r.stream_id, 1);
  EXPECT_FALSE(reader.Next(&r));
}

TEST(WindowTest, TumblingBuckets) {
  const WindowSpec w = WindowSpec::Tumbling(1000);
  EXPECT_EQ(w.BucketOf(0), 0);
  EXPECT_EQ(w.BucketOf(999), 0);
  EXPECT_EQ(w.BucketOf(1000), 1);
  EXPECT_EQ(w.BucketEnd(0), 1000);
}

TEST(WindowTest, SessionBucketsUseHorizon) {
  const WindowSpec w = WindowSpec::Session(/*gap=*/100, /*horizon_gaps=*/10);
  EXPECT_EQ(w.BucketWidth(), 1000);
  EXPECT_EQ(w.BucketOf(999), 0);
  EXPECT_EQ(w.BucketOf(1000), 1);
}

TEST(JoinTest, TumblingCountsCrossProduct) {
  const WindowSpec w = WindowSpec::Tumbling(1000);
  std::vector<JoinElement> elems = {
      {10, 0}, {20, 0}, {30, 1}, {40, 1}, {50, 1},
  };
  EXPECT_EQ(CountJoinPairs(w, 0, 1, &elems), 6u);
}

TEST(JoinTest, TumblingEmptySideYieldsZero) {
  const WindowSpec w = WindowSpec::Tumbling(1000);
  std::vector<JoinElement> elems = {{10, 0}, {20, 0}};
  EXPECT_EQ(CountJoinPairs(w, 0, 1, &elems), 0u);
}

TEST(JoinTest, SessionSplitsOnGap) {
  const WindowSpec w = WindowSpec::Session(/*gap=*/100);
  // Session 1: ts 0..150 (left at 0, right at 50, left at 150).
  // Gap > 100 to ts 300: session 2 (left 300, right 350).
  std::vector<JoinElement> elems = {
      {0, 0}, {50, 1}, {150, 0}, {300, 0}, {350, 1},
  };
  EXPECT_EQ(CountJoinPairs(w, 0, 1, &elems), 2u * 1 + 1u * 1);
}

TEST(JoinTest, SessionHandlesUnsortedInput) {
  const WindowSpec w = WindowSpec::Session(/*gap=*/100);
  std::vector<JoinElement> elems = {
      {350, 1}, {0, 0}, {300, 0}, {150, 0}, {50, 1},
  };
  EXPECT_EQ(CountJoinPairs(w, 0, 1, &elems), 3u);
}

TEST(PipelineTest, FilterAndProjectApply) {
  sim::Simulator sim;
  perf::CpuContext cpu(&sim, &perf::CostModel::Default());
  QuerySpec q;
  q.filter = [](const Record& r) { return r.value % 2 == 0; };
  q.project = [](Record* r) { r->value *= 10; };
  RecordPipeline pipeline(&q, &cpu);
  Record r{0, 1, 2, 0};
  EXPECT_TRUE(pipeline.Process(&r));
  EXPECT_EQ(r.value, 20);
  Record odd{0, 1, 3, 0};
  EXPECT_FALSE(pipeline.Process(&odd));
  EXPECT_EQ(pipeline.passed(), 1u);
  EXPECT_EQ(pipeline.filtered(), 1u);
  EXPECT_GT(cpu.counters().instructions, 0);
}

TEST(ResultSinkTest, ChecksumIsOrderInsensitive) {
  ResultSink a, b;
  a.Emit(1, 2, 3);
  a.Emit(4, 5, 6);
  b.Emit(4, 5, 6);
  b.Emit(1, 2, 3);
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.SortedRows(), b.SortedRows());
}

TEST(ResultSinkTest, ChecksumDetectsValueChanges) {
  ResultSink a, b;
  a.Emit(1, 2, 3);
  b.Emit(1, 2, 4);
  EXPECT_NE(a.checksum(), b.checksum());
}

// A tiny deterministic source for oracle tests.
class VectorSource : public RecordSource {
 public:
  explicit VectorSource(std::vector<Record> records)
      : records_(std::move(records)) {}
  bool Next(Record* out) override {
    if (pos_ >= records_.size()) return false;
    *out = records_[pos_++];
    return true;
  }

 private:
  std::vector<Record> records_;
  size_t pos_ = 0;
};

TEST(OracleTest, AggregateSumPerWindowAndKey) {
  QuerySpec q;
  q.type = QuerySpec::Type::kAggregate;
  q.window = WindowSpec::Tumbling(100);
  q.agg = state::AggKind::kSum;
  SourceFactory source = [](int flow, int) {
    // Flow 0: key 1 gets 5+5 in bucket 0; flow 1: key 1 gets 7 in bucket 1.
    if (flow == 0) {
      return std::make_unique<VectorSource>(std::vector<Record>{
          {10, 1, 5, 0}, {20, 1, 5, 0}, {30, 2, 1, 0}});
    }
    return std::make_unique<VectorSource>(
        std::vector<Record>{{150, 1, 7, 0}});
  };
  const OracleOutput out = ComputeOracle(q, source, 2);
  EXPECT_EQ(out.records_in, 4u);
  ASSERT_EQ(out.rows.size(), 3u);
  EXPECT_EQ(out.rows[0], (WindowResult{0, 1, 10}));
  EXPECT_EQ(out.rows[1], (WindowResult{0, 2, 1}));
  EXPECT_EQ(out.rows[2], (WindowResult{1, 1, 7}));
}

TEST(OracleTest, FilterAndProjectionRespected) {
  QuerySpec q;
  q.type = QuerySpec::Type::kAggregate;
  q.window = WindowSpec::Tumbling(100);
  q.agg = state::AggKind::kCount;
  q.filter = [](const Record& r) { return r.value == 0; };
  q.project = [](Record* r) { r->value = 1; };
  SourceFactory source = [](int, int) {
    return std::make_unique<VectorSource>(std::vector<Record>{
        {10, 1, 0, 0}, {20, 1, 1, 0}, {30, 1, 0, 0}});
  };
  const OracleOutput out = ComputeOracle(q, source, 1);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0], (WindowResult{0, 1, 2}));
}

TEST(OracleTest, JoinEmitsPairCounts) {
  QuerySpec q;
  q.type = QuerySpec::Type::kJoin;
  q.window = WindowSpec::Tumbling(1000);
  q.left_stream = 1;
  q.right_stream = 2;
  SourceFactory source = [](int, int) {
    return std::make_unique<VectorSource>(std::vector<Record>{
        {10, 7, 0, 1},   // left, key 7
        {20, 7, 0, 1},   // left, key 7
        {30, 7, 0, 2},   // right, key 7 -> 2 pairs
        {40, 8, 0, 1},   // left only, key 8 -> no output
    });
  };
  const OracleOutput out = ComputeOracle(q, source, 1);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0], (WindowResult{0, 7, 2}));
}

}  // namespace
}  // namespace slash::core
