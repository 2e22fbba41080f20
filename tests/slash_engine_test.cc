// Integration tests of the Slash engine: exact result equality against the
// sequential oracle (consistency property P2) across workloads, cluster
// sizes, skews, and epoch lengths; plus structural checks (network volume,
// counters, termination).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/oracle.h"
#include "engines/slash_engine.h"
#include "engines/state_writer.h"
#include "state/state_backend.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/readonly.h"
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

core::OracleOutput Oracle(const workloads::Workload& workload,
                          const ClusterConfig& cluster, const JobConfig& job) {
  return core::ComputeOracle(
      workload.MakeQuery(), workload.Sources(job.records_per_worker, job.seed),
      cluster.nodes * cluster.workers_per_node);
}

RunStats ExpectMatchesOracle(const workloads::Workload& workload,
                             const ClusterConfig& cluster,
                             const JobConfig& job) {
  SlashEngine engine;
  const RunStats stats = engine.Run(MakeJobSpec("", workload, cluster, job));
  const core::OracleOutput oracle = Oracle(workload, cluster, job);

  EXPECT_EQ(stats.records_in(), oracle.records_in);
  EXPECT_EQ(stats.records_emitted(), oracle.count);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum) << "result rows differ";
  // Full row-level equality.
  std::vector<core::WindowResult> rows = stats.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, oracle.rows);
  EXPECT_GT(stats.makespan(), 0);
  return stats;
}

// The most send backlog an nb8 node may hold: the bound, plus one epoch's
// delta, plus the delta of one input batch per worker. An appended entry
// is a 32-byte header plus the wire record, rounded up to 32 bytes: at most
// 5/4 of either nb8 record (206 B -> 256 B, 269 B -> 320 B). A drainer that
// fires a window drains late, and its siblings read meanwhile; on four
// workers the batches cover that too (EXPERIMENTS.md "Send backlog").
uint64_t Nb8BacklogLimit(const ClusterConfig& cluster, const JobConfig& job) {
  const uint64_t batch_bytes = kSourceBatch * workloads::kAuctionBytes;
  const uint64_t input_slack =
      job.epoch_bytes + uint64_t(cluster.workers_per_node) * batch_bytes;
  return SlashEngine::kBacklogEpochs * job.epoch_bytes + input_slack * 5 / 4;
}

TEST(SlashEngineTest, YsbMatchesOracleTwoNodes) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 500;
  ExpectMatchesOracle(workloads::YsbWorkload(ycfg), SmallCluster(2, 2),
                      SmallJob(3000));
}

TEST(SlashEngineTest, YsbMatchesOracleSingleNode) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100;
  ExpectMatchesOracle(workloads::YsbWorkload(ycfg), SmallCluster(1, 3),
                      SmallJob(2000));
}

TEST(SlashEngineTest, CmMatchesOracleFourNodes) {
  workloads::CmConfig ccfg;
  ccfg.jobs = 300;
  ExpectMatchesOracle(workloads::CmWorkload(ccfg), SmallCluster(4, 2),
                      SmallJob(2000));
}

TEST(SlashEngineTest, Nb7ParetoHeavyHittersMatchOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.auctions = 1000;
  ExpectMatchesOracle(workloads::Nb7Workload(ncfg), SmallCluster(3, 2),
                      SmallJob(2500));
}

TEST(SlashEngineTest, Nb8JoinMatchesOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 40;  // dense keys so joins find partners
  ExpectMatchesOracle(workloads::Nb8Workload(ncfg), SmallCluster(2, 2),
                      SmallJob(800));
}

TEST(SlashEngineTest, Nb11SessionJoinMatchesOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 30;
  ExpectMatchesOracle(workloads::Nb11Workload(ncfg), SmallCluster(2, 2),
                      SmallJob(800));
}

TEST(SlashEngineTest, RoMatchesOracle) {
  workloads::RoConfig rcfg;
  rcfg.key_range = 1000;
  ExpectMatchesOracle(workloads::RoWorkload(rcfg), SmallCluster(2, 2),
                      SmallJob(3000));
}

TEST(SlashEngineTest, SkewedYsbMatchesOracle) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 10'000;
  ycfg.keys = workloads::KeyDistribution::Zipf(1.4);
  ExpectMatchesOracle(workloads::YsbWorkload(ycfg), SmallCluster(2, 2),
                      SmallJob(4000));
}

TEST(SlashEngineTest, NetworkCarriesDeltasNotRecords) {
  // Slash ships per-key partial aggregates at epochs, not raw records: on a
  // low-cardinality aggregation the network volume must be far below the
  // raw input volume.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 64;
  workloads::YsbWorkload workload(ycfg);
  SlashEngine engine;
  const RunStats stats = engine.Run(
      MakeJobSpec("", workload, SmallCluster(2, 2), SmallJob(20'000)));
  const uint64_t input_bytes = stats.records_in() * 78;
  EXPECT_LT(stats.network_bytes(), input_bytes / 4);
  EXPECT_GT(stats.network_bytes(), 0u);
}

TEST(SlashEngineTest, CountersAccumulatePerRole) {
  workloads::RoConfig rcfg;
  rcfg.key_range = 100;
  workloads::RoWorkload workload(rcfg);
  SlashEngine engine;
  const RunStats stats = engine.Run(
      MakeJobSpec("", workload, SmallCluster(2, 2), SmallJob(2000)));
  // Merging happens on the worker cores (no dedicated leader role).
  // role_counters() returns by value: keep the map alive while reading it.
  const auto roles = stats.role_counters();
  ASSERT_TRUE(roles.count("worker"));
  const perf::Counters& workers = roles.at("worker");
  EXPECT_EQ(workers.records, stats.records_in());
  EXPECT_GT(workers.instructions, 0);
  EXPECT_GT(workers.ipc(), 0);
  EXPECT_GT(stats.memory_bandwidth_gbytes_per_sec(), 0);
}

TEST(SlashEngineTest, RdmaIngestionMatchesOracle) {
  // Fig. 1 architecture: sources stream over RDMA channels from dedicated
  // source nodes. Results must be identical to local-memory ingestion.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 400;
  workloads::YsbWorkload workload(ycfg);
  const ClusterConfig cluster = SmallCluster(2, 3);
  JobConfig job = SmallJob(3000);
  job.rdma_ingestion = true;
  SlashEngine engine;
  const RunStats stats = engine.Run(MakeJobSpec("", workload, cluster, job));
  const core::OracleOutput oracle = Oracle(workload, cluster, job);
  EXPECT_EQ(stats.records_in(), oracle.records_in);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);
  std::vector<core::WindowResult> rows = stats.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, oracle.rows);
  // The generator role did the source reads and buffer fills.
  ASSERT_TRUE(stats.role_counters().count("generator"));
  EXPECT_GT(stats.role_counters().at("generator").instructions, 0);
}

TEST(SlashEngineTest, RdmaIngestionCarriesRawRecordsOnWire) {
  // Ingestion ships every wire record over the fabric, so network volume
  // must now be at least the raw input volume (unlike local ingestion,
  // where only epoch deltas travel).
  workloads::YsbConfig ycfg;
  ycfg.key_range = 64;
  workloads::YsbWorkload workload(ycfg);
  const ClusterConfig cluster = SmallCluster(2, 2);
  JobConfig job = SmallJob(10'000);
  job.collect_rows = false;
  SlashEngine engine;
  const RunStats local = engine.Run(MakeJobSpec("", workload, cluster, job));
  job.rdma_ingestion = true;
  const RunStats ingested =
      engine.Run(MakeJobSpec("", workload, cluster, job));
  EXPECT_EQ(local.result_checksum(), ingested.result_checksum());
  EXPECT_GE(ingested.network_bytes(), ingested.records_in() * 78);
  EXPECT_LT(local.network_bytes(), ingested.network_bytes());
}

// The second run's 16 KiB epochs reach the send-backlog bound: a
// backpressured worker stops polling its ingest channels, so the
// generators wait on credits.
TEST(SlashEngineTest, RdmaIngestionJoinMatchesOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 40;
  workloads::Nb8Workload workload(ncfg);
  const ClusterConfig cluster = SmallCluster(2, 2);
  struct Case {
    uint64_t records;
    uint64_t epoch_bytes;
    bool reaches_bound;
  };
  for (const Case& c : {Case{800, 64 * kKiB, false},
                        Case{2000, 16 * kKiB, true}}) {
    SCOPED_TRACE(testing::Message() << c.records << " records per worker");
    JobConfig job = SmallJob(c.records);
    job.epoch_bytes = c.epoch_bytes;
    job.rdma_ingestion = true;
    SlashEngine engine;
    const RunStats stats =
        engine.Run(MakeJobSpec("", workload, cluster, job));
    const core::OracleOutput oracle = Oracle(workload, cluster, job);
    EXPECT_EQ(stats.result_checksum(), oracle.checksum);
    EXPECT_EQ(stats.records_emitted(), oracle.count);
    if (c.reaches_bound) {
      EXPECT_GE(stats.peak_send_backlog_bytes,
                SlashEngine::kBacklogEpochs * job.epoch_bytes);
    }
  }
}

// A node that cannot ship stops reading: on a join whose channels are the
// bottleneck, the peak per-node send backlog stays within the bound plus
// its slack, at 1x and 4x the run length (0.51 and 0.69 MB). Without the
// bound the backlog grows with the run (1.8 and 4.8 MB). Four workers on
// four nodes leave worker 3 with no partition to drain, so this also
// checks that the bound is per node, not per worker.
TEST(SlashEngineTest, JoinSendBacklogIsBoundedAtAnyRunLength) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 40;
  workloads::Nb8Workload workload(ncfg);
  const ClusterConfig cluster = SmallCluster(4, 4);
  for (const uint64_t records : {2000, 8000}) {
    SCOPED_TRACE(testing::Message() << records << " records per worker");
    JobConfig job = SmallJob(records);
    job.epoch_bytes = 16 * kKiB;
    const RunStats stats = ExpectMatchesOracle(workload, cluster, job);
    EXPECT_GE(stats.peak_send_backlog_bytes,
              SlashEngine::kBacklogEpochs * job.epoch_bytes);
    EXPECT_LE(stats.peak_send_backlog_bytes, Nb8BacklogLimit(cluster, job));
  }
}

// The staged writer applies in staging order, at most kDepth operations
// late, and Flush() applies the rest.
TEST(StateWriterTest, AppliesInStagingOrderAtMostDepthLate) {
  state::SsbConfig cfg;
  cfg.nodes = 1;
  cfg.kind = state::StateKind::kAppend;
  cfg.lss_capacity = 1 << 12;
  cfg.index_buckets = 64;
  state::StateBackend ssb(0, cfg);
  StateWriter writer(&ssb);
  const size_t kOps = 3 * StateWriter::kDepth + 1;
  for (size_t i = 0; i < kOps; ++i) {
    // Two keys, so the log order is the staging order across chains.
    uint8_t* value = writer.Append(/*key=*/i % 2, /*bucket=*/0,
                                   /*stream_id=*/uint16_t(i), /*len=*/1);
    *value = uint8_t(i);
    EXPECT_EQ(ssb.primary()->entry_count(),
              i + 1 < StateWriter::kDepth ? 0 : i + 1 - StateWriter::kDepth);
  }
  writer.Flush();
  std::vector<uint8_t> order;
  ssb.primary()->ForEachLive(
      [&](const state::EntryHeader& header, const uint8_t* value) {
        EXPECT_EQ(header.key, uint64_t(*value % 2));
        EXPECT_EQ(header.stream_id, *value);
        order.push_back(*value);
      });
  ASSERT_EQ(order.size(), kOps);
  for (size_t i = 0; i < kOps; ++i) EXPECT_EQ(order[i], i);
  writer.Flush();  // nothing staged: a no-op
  EXPECT_EQ(ssb.primary()->entry_count(), kOps);

  // Aggregates wait for a flush too.
  cfg.kind = state::StateKind::kAggregate;
  state::StateBackend agg(0, cfg);
  StateWriter agg_writer(&agg);
  agg_writer.UpdateAggregate(7, 1, 5);
  agg_writer.UpdateAggregate(7, 1, -2);
  state::AggState s;
  EXPECT_FALSE(agg.primary()->LookupAggregate({7, 1}, &s));
  agg_writer.Flush();
  ASSERT_TRUE(agg.primary()->LookupAggregate({7, 1}, &s));
  EXPECT_EQ(s, (state::AggState{3, 2, -2, 5}));
}

// Input sizes around the writer's depth and the source batch: every batch
// ends with a flush, whatever its length, with local and RDMA ingestion,
// for aggregate (YSB) and append (NB8) state.
using WriterSweepParam = std::tuple<uint64_t /*records*/, bool /*nb8*/,
                                    bool /*rdma_ingestion*/>;

class StagedWriterSweep : public ::testing::TestWithParam<WriterSweepParam> {};

TEST_P(StagedWriterSweep, MatchesOracle) {
  const auto [records, nb8, rdma_ingestion] = GetParam();
  JobConfig job = SmallJob(records);
  job.rdma_ingestion = rdma_ingestion;
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 40;
  if (nb8) {
    ExpectMatchesOracle(workloads::Nb8Workload(ncfg), SmallCluster(2, 2), job);
  } else {
    ExpectMatchesOracle(workloads::YsbWorkload(ycfg), SmallCluster(2, 2), job);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StagedWriterSweep,
    ::testing::Combine(::testing::Values(1, 3, 4, 5, 513),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<WriterSweepParam>& info) {
      return std::string(std::get<1>(info.param) ? "nb8" : "ysb") + "_r" +
             std::to_string(std::get<0>(info.param)) +
             (std::get<2>(info.param) ? "_rdma" : "_local");
    });

// Property sweep: P2 must hold for every epoch length (more/fewer syncs),
// cluster shape, and seed.
using SweepParam = std::tuple<int /*nodes*/, int /*workers*/,
                              int /*epoch_kib*/, int /*seed*/>;

class SlashConsistencySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SlashConsistencySweep, YsbAlwaysMatchesOracle) {
  const auto [nodes, workers, epoch_kib, seed] = GetParam();
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  JobConfig job = SmallJob(1500);
  job.epoch_bytes = uint64_t(epoch_kib) * kKiB;
  job.seed = uint64_t(seed);
  ExpectMatchesOracle(workloads::YsbWorkload(ycfg),
                      SmallCluster(nodes, workers), job);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SlashConsistencySweep,
    ::testing::Combine(::testing::Values(1, 2, 4),   // nodes
                       ::testing::Values(1, 3),      // workers per node
                       ::testing::Values(16, 256),   // epoch KiB
                       ::testing::Values(1, 2)),     // seed
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param)) + "_e" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace slash::engines
