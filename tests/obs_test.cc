// Tests for the observability layer: label-set identity, registry handle
// semantics, histogram percentile correctness against a reference
// computation, snapshot merge algebra, tracer export format, and the
// determinism property the layer exists to guarantee — two same-seed engine
// runs produce byte-identical trace files and registry snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engines/slash_engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/ysb.h"

namespace slash::obs {
namespace {

TEST(LabelSetTest, IdentityIsOrderInsensitive) {
  const LabelSet a{{"role", "worker"}, {"node", "3"}};
  const LabelSet b{{"node", "3"}, {"role", "worker"}};
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.key(), "node=3,role=worker");
  EXPECT_EQ(a.Get("role"), "worker");
  EXPECT_EQ(a.Get("absent"), "");
  EXPECT_EQ(LabelSet{}.key(), "");
}

TEST(RegistryTest, HandlesAreStableAndAddressedByNameAndLabels) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("x", {{"node", "0"}});
  Counter* c2 = registry.GetCounter("x", {{"node", "1"}});
  EXPECT_NE(c1, c2);
  // Same (name, labels) — even with reordered labels — is the same
  // instrument.
  Counter* again =
      registry.GetCounter("x", {{"node", "0"}});
  EXPECT_EQ(c1, again);
  c1->Add(7);
  c2->Add(5);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("x"), 12u);  // sums across label sets
}

TEST(HistogramTest, PercentilesBracketSamples) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i * 1000);  // 1us..1ms
  EXPECT_EQ(h.count(), 1000u);
  // p50 should be near 500us within the 8% bucket resolution.
  EXPECT_NEAR(double(h.Percentile(50)), 500000.0, 500000.0 * 0.15);
  EXPECT_GE(h.Percentile(100), 1000000);
  EXPECT_LE(h.Percentile(1), 20000);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_TRUE(h.buckets().empty());  // lazy: unused histograms cost nothing
}

TEST(HistogramTest, MergeEqualsCombinedRecording) {
  Histogram a, b, combined;
  for (int i = 1; i <= 500; ++i) {
    a.Record(i * 3000);
    combined.Record(i * 3000);
  }
  for (int i = 1; i <= 300; ++i) {
    b.Record(i * 11000);
    combined.Record(i * 11000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.buckets(), combined.buckets());
  for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(a.Percentile(p), combined.Percentile(p)) << "p" << p;
  }
}

MetricsSnapshot MakeSnapshot(uint64_t counter, double gauge, Nanos sample) {
  MetricsRegistry registry;
  registry.GetCounter("c", {{"node", std::to_string(counter % 3)}})
      ->Add(counter);
  registry.GetGauge("g")->Set(gauge);
  registry.GetHistogram("h")->Record(sample);
  registry.GetCpu(metric::kCpu, {{kLabelRole, "worker"}})->instructions =
      double(counter);
  return registry.Snapshot();
}

TEST(SnapshotTest, MergeIsAssociativeAndCommutative) {
  const MetricsSnapshot a = MakeSnapshot(1, 0.5, 100);
  const MetricsSnapshot b = MakeSnapshot(2, 0.25, 9000);
  const MetricsSnapshot c = MakeSnapshot(3, 0.125, 77);

  MetricsSnapshot ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);

  MetricsSnapshot bc = b;
  bc.Merge(c);
  MetricsSnapshot a_bc = a;
  a_bc.Merge(bc);

  MetricsSnapshot cba = c;
  cba.Merge(b);
  cba.Merge(a);

  EXPECT_EQ(ab_c.ToJson(), a_bc.ToJson());
  EXPECT_EQ(ab_c.ToJson(), cba.ToJson());
  EXPECT_EQ(ab_c.CounterValue("c"), 6u);
  EXPECT_EQ(ab_c.HistogramValue("h").count(), 3u);
}

TEST(SnapshotTest, ToJsonIsCanonicalAcrossRegistrationOrder) {
  MetricsRegistry forward, reverse;
  forward.GetCounter("a.first")->Add(1);
  forward.GetCounter("b.second", {{"node", "1"}})->Add(2);
  forward.GetCounter("b.second", {{"node", "0"}})->Add(3);
  reverse.GetCounter("b.second", {{"node", "0"}})->Add(3);
  reverse.GetCounter("b.second", {{"node", "1"}})->Add(2);
  reverse.GetCounter("a.first")->Add(1);
  EXPECT_EQ(forward.Snapshot().ToJson(), reverse.Snapshot().ToJson());
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(Tracer::Options{.capacity = 16, .enabled = false});
  EXPECT_FALSE(tracer.enabled());
  tracer.InstantNamed(10, "x", "cat", 0, kTrackEngine);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, ChromeJsonHasSpansAndInstants) {
  Tracer tracer(Tracer::Options{.capacity = 64, .enabled = true});
  const uint32_t name = tracer.Intern("epoch");
  const uint32_t cat = tracer.Intern("engine");
  tracer.SetProcessName(0, "node0");
  tracer.Begin(1000, name, cat, /*pid=*/0, kTrackEngine);
  tracer.End(3500, name, cat, /*pid=*/0, kTrackEngine);
  tracer.Instant(2000, name, cat, /*pid=*/0, kTrackEngine);
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("node0"), std::string::npos);
  // Virtual ns render as fixed-point microseconds: 1000 ns -> 1.000 us.
  EXPECT_NE(json.find("\"ts\": 1.000"), std::string::npos);
}

// The layer's headline guarantee (and the new regression oracle): two
// engine runs with identical seeds produce byte-identical Perfetto traces
// and byte-identical registry snapshots.
TEST(ObsPropertyTest, SameSeedRunsProduceIdenticalTraceAndSnapshot) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);

  engines::ClusterConfig cluster;
  cluster.nodes = 2;
  cluster.workers_per_node = 4;
  engines::JobConfig job;
  job.records_per_worker = 2000;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.state_lss_capacity = 1 << 16;
  job.state_index_buckets = 1 << 10;

  engines::SlashEngine engine;
  std::string traces[2];
  std::string snapshots[2];
  for (int i = 0; i < 2; ++i) {
    Tracer tracer(Tracer::Options{.capacity = 1 << 14, .enabled = true});
    job.tracer = &tracer;
    const engines::RunStats stats =
        engine.Run(engines::MakeJobSpec("", workload, cluster, job));
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(tracer.size(), 0u);
    traces[i] = tracer.ToChromeJson();
    snapshots[i] = stats.metrics.ToJson();
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_NE(snapshots[0].find(std::string(metric::kResultChecksum)),
            std::string::npos);
}

// A run with tracing disabled must not change the metrics snapshot: the
// tracer is pure observation.
TEST(ObsPropertyTest, TracingDoesNotPerturbMetrics) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);

  engines::ClusterConfig cluster;
  cluster.nodes = 2;
  cluster.workers_per_node = 4;
  engines::JobConfig job;
  job.records_per_worker = 2000;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.state_lss_capacity = 1 << 16;
  job.state_index_buckets = 1 << 10;

  engines::SlashEngine engine;
  const engines::RunStats plain =
      engine.Run(engines::MakeJobSpec("", workload, cluster, job));

  Tracer tracer(Tracer::Options{.capacity = 1 << 14, .enabled = true});
  job.tracer = &tracer;
  const engines::RunStats traced =
      engine.Run(engines::MakeJobSpec("", workload, cluster, job));

  EXPECT_EQ(plain.metrics.ToJson(), traced.metrics.ToJson());
}

TEST(ExporterTest, SanitizeTitleMatchesBenchArtifactNames) {
  EXPECT_EQ(Exporter::SanitizeTitle("Fig 6a: YSB"), "fig_6a_ysb");
  EXPECT_EQ(Exporter::SanitizeTitle("  --  "), "table");
}

TEST(ExporterTest, SeriesTableJsonRoundTrip) {
  SeriesTable table("Obs Test Table");
  table.Add("slash", "2", "throughput", 1.5);
  table.Add("slash", "4", "throughput", 3.0);
  const std::string json = table.ToJson();
  EXPECT_NE(json.find("\"name\": \"obs_test_table\""), std::string::npos);
  EXPECT_NE(json.find("\"series\": \"slash\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 3"), std::string::npos);
}

}  // namespace
}  // namespace slash::obs
