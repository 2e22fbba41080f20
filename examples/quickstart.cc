// Quickstart: define a custom streaming query, run it on a simulated
// 4-node Slash cluster, and check the results against the sequential
// reference.
//
//   $ ./build/examples/quickstart
//
// The query: sensor readings (key = sensor id, value = measurement) are
// filtered to positive readings, and a 1-second tumbling window computes
// the per-sensor maximum. Sources are plain RecordSource implementations —
// bring your own data by implementing that one interface.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_util/harness.h"
#include "common/random.h"
#include "core/oracle.h"
#include "core/query.h"
#include "engines/slash_engine.h"
#include "workloads/workload.h"

namespace {

using slash::core::Record;

/// A custom data flow: deterministic synthetic sensor readings.
class SensorSource : public slash::core::RecordSource {
 public:
  SensorSource(uint64_t seed, uint64_t records)
      : rng_(seed), records_(records) {}

  bool Next(Record* out) override {
    if (produced_ >= records_) return false;
    out->timestamp = int64_t(produced_ * 5);          // 5 ms between readings
    out->key = rng_.NextBounded(64);                  // 64 sensors
    out->value = int64_t(rng_.NextBounded(200)) - 40; // some negative noise
    out->stream_id = 0;
    ++produced_;
    return true;
  }

 private:
  slash::Rng rng_;
  uint64_t records_;
  uint64_t produced_ = 0;
};

/// Adapts the custom source to the Workload interface the engines consume.
class SensorWorkload : public slash::workloads::Workload {
 public:
  std::string_view name() const override { return "sensors"; }

  slash::core::QuerySpec MakeQuery() const override {
    slash::core::QuerySpec q;
    q.name = "max_reading_per_sensor";
    q.type = slash::core::QuerySpec::Type::kAggregate;
    q.filter = [](const Record& r) { return r.value >= 0; };
    q.window = slash::core::WindowSpec::Tumbling(1000);  // 1 s windows
    q.agg = slash::state::AggKind::kMax;
    return q;
  }

  uint16_t wire_size(uint16_t) const override { return 48; }

  std::unique_ptr<slash::core::RecordSource> MakeFlow(
      int flow, int total_flows, uint64_t records,
      uint64_t seed) const override {
    return std::make_unique<SensorSource>(
        slash::workloads::FlowSeed(seed, flow), records);
  }
};

}  // namespace

int main() {
  SensorWorkload workload;
  const slash::core::QuerySpec query = workload.MakeQuery();

  slash::engines::ClusterConfig cluster;
  cluster.nodes = 4;
  cluster.workers_per_node = 4;
  slash::engines::JobConfig job;
  job.records_per_worker = 25'000;
  job.collect_rows = true;

  slash::engines::SlashEngine engine;
  const slash::engines::RunStats stats =
      engine.Run(slash::engines::MakeJobSpec("", workload, cluster, job));
  slash::bench::RequireCompleted(stats, "quickstart");

  std::printf("query            : %s\n", query.name.c_str());
  std::printf("records processed: %llu\n",
              static_cast<unsigned long long>(stats.records_in()));
  std::printf("result rows      : %llu\n",
              static_cast<unsigned long long>(stats.records_emitted()));
  std::printf("virtual makespan : %s\n",
              slash::FormatNanos(stats.makespan()).c_str());
  std::printf("throughput       : %.1f M records/s\n",
              stats.throughput_rps() / 1e6);
  std::printf("network volume   : %s\n",
              slash::FormatBytes(stats.network_bytes()).c_str());

  // Verify against the sequential reference computation (property P2).
  const slash::core::OracleOutput oracle = slash::core::ComputeOracle(
      query, workload.Sources(job.records_per_worker, job.seed),
      cluster.nodes * cluster.workers_per_node);
  const bool ok = stats.result_checksum() == oracle.checksum &&
                  stats.records_emitted() == oracle.count;
  std::printf("oracle check     : %s\n", ok ? "PASS" : "FAIL");

  std::printf("\nfirst windows (bucket, sensor, max):\n");
  auto rows = stats.rows;
  std::sort(rows.begin(), rows.end());
  for (size_t i = 0; i < rows.size() && i < 8; ++i) {
    std::printf("  (%lld, %llu, %lld)\n",
                static_cast<long long>(rows[i].bucket),
                static_cast<unsigned long long>(rows[i].key),
                static_cast<long long>(rows[i].value));
  }
  return ok ? 0 : 1;
}
