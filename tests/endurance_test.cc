// Endurance and robustness tests: determinism across runs, long streams
// spanning many epochs and window generations, pathological configurations
// (single credit, tiny epoch, tiny LSS forcing adaptive resizes, chunked
// deltas), and misuse/error paths.
#include <gtest/gtest.h>

#include "core/oracle.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "sim/fault.h"
#include "state/partition.h"
#include "workloads/readonly.h"
#include "workloads/ysb.h"

namespace slash::engines {
namespace {

JobSpec BaseJob(const workloads::Workload& workload) {
  ClusterConfig cluster;
  cluster.nodes = 2;
  cluster.workers_per_node = 2;
  JobConfig config;
  config.records_per_worker = 3000;
  config.channel.slot_bytes = 16 * kKiB;
  config.epoch_bytes = 64 * kKiB;
  config.state_lss_capacity = 1 << 16;
  config.state_index_buckets = 1 << 10;
  return MakeJobSpec("", workload, cluster, config);
}

core::OracleOutput Oracle(const JobSpec& job) {
  return core::ComputeOracle(
      job.sources->MakeQuery(),
      job.sources->Sources(job.config.records_per_worker, job.config.seed),
      job.cluster.nodes * job.cluster.workers_per_node);
}

TEST(EnduranceTest, RunsAreBitDeterministic) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 5000;
  workloads::YsbWorkload workload(ycfg);
  const JobSpec job = BaseJob(workload);
  SlashEngine a, b;
  const RunStats ra = a.Run(job);
  const RunStats rb = b.Run(job);
  EXPECT_EQ(ra.makespan(), rb.makespan());
  EXPECT_EQ(ra.result_checksum(), rb.result_checksum());
  EXPECT_EQ(ra.network_bytes(), rb.network_bytes());
  EXPECT_EQ(ra.TotalCounters().instructions, rb.TotalCounters().instructions);
}

TEST(EnduranceTest, DifferentSeedsDifferentDataSameCorrectness) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 500;
  workloads::YsbWorkload workload(ycfg);
  for (uint64_t seed : {7ULL, 8ULL}) {
    JobSpec job = BaseJob(workload);
    job.config.seed = seed;
    SlashEngine engine;
    const RunStats stats = engine.Run(job);
    const core::OracleOutput oracle = Oracle(job);
    EXPECT_EQ(stats.result_checksum(), oracle.checksum) << "seed " << seed;
  }
}

TEST(EnduranceTest, ManyEpochsManyWindowGenerations) {
  // Long stream across 12 windows with epochs every 16 KiB: dozens of
  // drain/merge/trigger cycles, state retired continuously.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  ycfg.windows = 12;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = BaseJob(workload);
  job.config.records_per_worker = 20'000;
  job.config.epoch_bytes = 16 * kKiB;
  job.config.collect_rows = true;
  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  const core::OracleOutput oracle = Oracle(job);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);
  EXPECT_EQ(stats.records_emitted(), oracle.count);
  // All 12 window generations produced results.
  int64_t max_bucket = 0;
  for (const auto& row : stats.rows) {
    max_bucket = std::max(max_bucket, row.bucket);
  }
  EXPECT_EQ(max_bucket, 11);
}

TEST(EnduranceTest, SingleCreditChannelsStillCorrect) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 400;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = BaseJob(workload);
  job.config.channel.credits = 1;  // maximal back-pressure, no pipelining
  job.config.epoch_bytes = 32 * kKiB;
  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  const core::OracleOutput oracle = Oracle(job);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);
}

TEST(EnduranceTest, TinySlotsForceChunkedDeltas) {
  // Slot payloads only a few entries wide: every epoch delta ships as many
  // chunks, exercising the entry-aligned split and last-chunk watermark
  // rule.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 2000;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = BaseJob(workload);
  job.config.channel.slot_bytes = 512;  // ~6 delta entries per chunk
  job.config.epoch_bytes = 32 * kKiB;
  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  const core::OracleOutput oracle = Oracle(job);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);
}

TEST(EnduranceTest, TinyLssForcesAdaptiveResizes) {
  workloads::RoConfig rcfg;
  rcfg.key_range = 50'000;
  workloads::RoWorkload workload(rcfg);
  JobSpec job = BaseJob(workload);
  job.config.state_lss_capacity = 1 << 10;  // 1 KiB: dozens of doublings
  job.config.records_per_worker = 8000;
  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  const core::OracleOutput oracle = Oracle(job);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);
}

TEST(EnduranceTest, LargeClusterSmallInput) {
  // 12 nodes with barely any data: epochs are mostly empty envelopes;
  // termination and watermark propagation must still hold.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 50;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = BaseJob(workload);
  job.cluster.nodes = 12;
  job.config.records_per_worker = 50;
  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  const core::OracleOutput oracle = Oracle(job);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);
}

TEST(EnduranceTest, ZeroSelectivityStream) {
  // A filter that drops everything: no state, no results, but watermarks
  // and epochs must still flow to termination.
  workloads::YsbConfig ycfg;
  class DropAll : public workloads::YsbWorkload {
   public:
    using workloads::YsbWorkload::YsbWorkload;
    core::QuerySpec MakeQuery() const override {
      core::QuerySpec q = workloads::YsbWorkload::MakeQuery();
      q.filter = [](const core::Record&) { return false; };
      return q;
    }
  };
  DropAll workload(ycfg);
  JobSpec job = BaseJob(workload);
  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  EXPECT_EQ(stats.records_emitted(), 0u);
  EXPECT_GT(stats.records_in(), 0u);
}

TEST(EnduranceTest, SustainedFlakyLinkLongYsbRun) {
  // A long YSB stream over a link that flaps for the whole run: every
  // 50us one node's NIC collapses to 30% line rate for 20us, alternating
  // between the two nodes (the paper's 100ms flaps, scaled to the DES
  // makespan). The run must absorb every degradation — exact oracle
  // results, every credit returned, all input consumed — with no leak
  // accumulating across dozens of flap cycles.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 2000;
  ycfg.windows = 8;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = BaseJob(workload);
  job.config.records_per_worker = 20'000;
  job.config.epoch_bytes = 32 * kKiB;

  sim::FaultPlan plan;
  for (int i = 0; i < 40; ++i) {
    plan.nic_degrades.push_back({.at = Nanos(i) * 50 * kMicrosecond,
                                 .node = i % 2,
                                 .bandwidth_scale = 0.3,
                                 .duration = 20 * kMicrosecond});
  }
  job.cluster.fault_plan = &plan;

  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  ASSERT_TRUE(stats.ok()) << stats.status.message();
  const core::OracleOutput oracle = Oracle(job);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);
  EXPECT_EQ(stats.records_emitted(), oracle.count);
  // Monotone progress: the whole stream was consumed despite the flapping.
  EXPECT_EQ(stats.records_in(), uint64_t(job.cluster.nodes) *
                                   job.cluster.workers_per_node *
                                   job.config.records_per_worker);
  // No credit leak across the flap cycles.
  EXPECT_EQ(stats.credits_outstanding(), 0u);
  // The link actually flapped during the run (degrade + restore events).
  EXPECT_GE(stats.faults_injected(), 2u);
}

TEST(EnduranceTest, UpParDeterministicToo) {
  workloads::RoConfig rcfg;
  rcfg.key_range = 1000;
  workloads::RoWorkload workload(rcfg);
  const JobSpec job = BaseJob(workload);
  UpParEngine a, b;
  const RunStats ra = a.Run(job);
  const RunStats rb = b.Run(job);
  EXPECT_EQ(ra.makespan(), rb.makespan());
  EXPECT_EQ(ra.result_checksum(), rb.result_checksum());
}

}  // namespace
}  // namespace slash::engines
