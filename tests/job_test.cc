// Job-model tests (DESIGN.md §12): every engine runs a JobSpec built by
// MakeJobSpec to the sequential oracle's exact results, rejects a JobSpec
// without sources with a status instead of a crash, and keeps its results
// when a tenant label and a NIC-credit quota are attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "engines/flink_engine.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/ysb.h"

namespace slash::engines {
namespace {

ClusterConfig SmallCluster(int nodes, int workers) {
  ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.workers_per_node = workers;
  return cluster;
}

JobConfig SmallJob(uint64_t records) {
  JobConfig job;
  job.records_per_worker = records;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.state_lss_capacity = 1 << 16;
  job.state_index_buckets = 1 << 10;
  job.collect_rows = true;
  return job;
}

core::OracleOutput Oracle(const JobSpec& job) {
  return core::ComputeOracle(
      job.sources->MakeQuery(),
      job.sources->Sources(job.config.records_per_worker, job.config.seed),
      job.cluster.nodes * job.cluster.workers_per_node);
}

// --- Every engine runs a JobSpec to the oracle's results --------------------

void ExpectJobMatchesOracle(Engine* engine, const JobSpec& job) {
  const RunStats stats = engine->Run(job);
  ASSERT_TRUE(stats.ok()) << stats.status.ToString();
  const core::OracleOutput oracle = Oracle(job);
  EXPECT_EQ(stats.records_in(), oracle.records_in) << engine->name();
  EXPECT_EQ(stats.records_emitted(), oracle.count) << engine->name();
  EXPECT_EQ(stats.result_checksum(), oracle.checksum) << engine->name();
  std::vector<core::WindowResult> rows = stats.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, oracle.rows) << engine->name();
}

TEST(JobSpecOracleTest, SlashYsb) {
  workloads::YsbWorkload workload;
  SlashEngine engine;
  ExpectJobMatchesOracle(
      &engine, MakeJobSpec("", workload, SmallCluster(2, 4), SmallJob(2000)));
}

TEST(JobSpecOracleTest, SlashNb8Join) {
  workloads::Nb8Workload workload;
  SlashEngine engine;
  ExpectJobMatchesOracle(
      &engine, MakeJobSpec("", workload, SmallCluster(2, 2), SmallJob(1500)));
}

TEST(JobSpecOracleTest, UpParCm) {
  workloads::CmWorkload workload;
  UpParEngine engine;
  ExpectJobMatchesOracle(
      &engine, MakeJobSpec("", workload, SmallCluster(2, 4), SmallJob(2000)));
}

TEST(JobSpecOracleTest, FlinkYsb) {
  workloads::YsbWorkload workload;
  FlinkLikeEngine engine;
  ExpectJobMatchesOracle(
      &engine, MakeJobSpec("", workload, SmallCluster(2, 2), SmallJob(1000)));
}

TEST(JobSpecOracleTest, LightSaberNb7) {
  workloads::Nb7Workload workload;
  LightSaberEngine engine;
  ExpectJobMatchesOracle(
      &engine, MakeJobSpec("", workload, SmallCluster(1, 4), SmallJob(2000)));
}

// A JobSpec without sources fails cleanly with a status, not a crash, on
// every engine.
TEST(JobSpecTest, MissingSourcesReportsStatusOnEveryEngine) {
  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(std::make_unique<SlashEngine>());
  engines.push_back(std::make_unique<UpParEngine>());
  engines.push_back(std::make_unique<FlinkLikeEngine>());
  engines.push_back(std::make_unique<LightSaberEngine>());
  JobSpec job;
  job.cluster = SmallCluster(1, 2);
  job.config = SmallJob(100);
  for (const auto& engine : engines) {
    const RunStats stats = engine->Run(job);
    EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument)
        << engine->name();
    EXPECT_EQ(stats.engine, engine->name());
  }
}

// --- Tenant labels and quotas on the single-job path ------------------------

TEST(TenantJobTest, TenantAndQuotaPreserveResults) {
  workloads::YsbWorkload workload;
  const JobSpec job = MakeJobSpec("acme", workload, SmallCluster(2, 4),
                                  SmallJob(2000), /*quota=*/4);
  const core::OracleOutput oracle = Oracle(job);

  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  ASSERT_TRUE(stats.ok()) << stats.status.ToString();

  // A quota throttles the job's NIC credits; it must never change results.
  EXPECT_EQ(stats.records_in(), oracle.records_in);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);

  // The tenant label and the opt-in instruments are present.
  const obs::MetricsSnapshot own =
      stats.metrics.SelectLabel(obs::kLabelTenant, "acme");
  EXPECT_EQ(own.CounterValue(obs::metric::kRecordsIn), oracle.records_in);
  const obs::MetricsSnapshot other =
      stats.metrics.SelectLabel(obs::kLabelTenant, "nobody");
  EXPECT_EQ(other.CounterValue(obs::metric::kRecordsIn), 0u);
  EXPECT_NE(stats.metrics.ToJson().find("job.drain_ns"), std::string::npos);
}

}  // namespace
}  // namespace slash::engines
