// Checkpoint / crash-recovery integration tests: a kNodeCrash mid-run must
// not abort the run — the engine rolls back to the latest fully replicated
// checkpoint round, moves the dead node's partitions to a surviving heir,
// replays the lost input, and finishes with results bit-identical to the
// fault-free oracle. Covers both the Slash engine (epoch-aligned rounds)
// and the Flink-like baseline (barrier-aligned rounds), plus FaultPlan
// validation and the no-checkpoint abort path.
#include <gtest/gtest.h>

#include "core/oracle.h"
#include "engines/flink_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/nexmark.h"
#include "workloads/ysb.h"

namespace slash::engines {
namespace {

JobSpec RecoveryJob(const workloads::Workload& workload, int nodes, int workers,
                    uint64_t records) {
  ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.workers_per_node = workers;
  JobConfig config;
  config.records_per_worker = records;
  config.channel.slot_bytes = 16 * kKiB;
  config.epoch_bytes = 64 * kKiB;
  config.state_lss_capacity = 1 << 16;
  config.state_index_buckets = 1 << 10;
  config.collect_rows = true;
  config.checkpoint.enabled = true;
  return MakeJobSpec("", workload, cluster, config);
}

core::OracleOutput Oracle(const JobSpec& job) {
  return core::ComputeOracle(
      job.sources->MakeQuery(),
      job.sources->Sources(job.config.records_per_worker, job.config.seed),
      job.cluster.nodes * job.cluster.workers_per_node);
}

void ExpectMatchesOracle(const RunStats& stats,
                         const core::OracleOutput& oracle) {
  ASSERT_TRUE(stats.ok()) << stats.status.message();
  EXPECT_EQ(stats.records_emitted(), oracle.count);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum) << "result rows differ";
  std::vector<core::WindowResult> rows = stats.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, oracle.rows);
}

/// Runs `engine` fault-free to learn the makespan, then re-runs with node
/// `victim` crashing at `fraction` of that makespan, and returns the
/// crashed run's stats. The fault-free makespan makes the crash time
/// deterministic without hard-coding virtual-time constants.
RunStats RunWithMidRunCrash(Engine& engine, JobSpec job, int victim,
                            double fraction, sim::FaultPlan* plan_out) {
  const RunStats clean = engine.Run(job);
  EXPECT_TRUE(clean.ok()) << clean.status.message();
  EXPECT_GT(clean.makespan(), 0);

  plan_out->node_crashes.push_back(
      {.at = Nanos(double(clean.makespan()) * fraction), .node = victim});
  job.cluster.fault_plan = plan_out;
  return engine.Run(job);
}

TEST(SlashRecoveryTest, YsbNodeCrashRecoversToOracleResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 3, 2, 3000);

  SlashEngine engine;
  sim::FaultPlan plan;
  const RunStats stats =
      RunWithMidRunCrash(engine, job, /*victim=*/1, 0.5, &plan);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 1u);
  EXPECT_GT(stats.recovery_ns(), 0);
  EXPECT_GT(stats.records_replayed(), 0u);
  EXPECT_GT(stats.checkpoints_taken(), 0u);
  EXPECT_GT(stats.checkpoint_bytes_replicated(), 0u);
  EXPECT_EQ(stats.credits_outstanding(), 0u);
}

TEST(SlashRecoveryTest, NexmarkJoinNodeCrashRecoversToOracleResults) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 40;
  workloads::Nb8Workload workload(ncfg);
  JobSpec job = RecoveryJob(workload, 2, 2, 800);

  SlashEngine engine;
  sim::FaultPlan plan;
  const RunStats stats =
      RunWithMidRunCrash(engine, job, /*victim=*/0, 0.4, &plan);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 1u);
}

TEST(SlashRecoveryTest, CrashedRunIsDeterministicAcrossReplays) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 3, 2, 2500);

  SlashEngine engine;
  sim::FaultPlan plan;
  const RunStats first =
      RunWithMidRunCrash(engine, job, /*victim=*/2, 0.6, &plan);
  ASSERT_TRUE(first.ok()) << first.status.message();

  job.cluster.fault_plan = &plan;
  const RunStats second = engine.Run(job);
  ASSERT_TRUE(second.ok()) << second.status.message();

  EXPECT_EQ(first.result_checksum(), second.result_checksum());
  EXPECT_EQ(first.makespan(), second.makespan());
  EXPECT_EQ(first.records_replayed(), second.records_replayed());
  EXPECT_EQ(first.recovery_ns(), second.recovery_ns());
  EXPECT_EQ(first.fault_trace_digest(), second.fault_trace_digest());
}

TEST(SlashRecoveryTest, ReplicationFactorTwoSurvivesCrash) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 4, 2, 2000);
  job.config.checkpoint.replication_factor = 2;

  SlashEngine engine;
  sim::FaultPlan plan;
  const RunStats stats =
      RunWithMidRunCrash(engine, job, /*victim=*/1, 0.5, &plan);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 1u);
}

// Run(spec) is RunJobs({spec}, spec.cluster): a one-job RunJobs accepts a
// fault plan, recovers, and reports exactly what Run reports — the cluster
// snapshot and the job's view byte for byte, tenant labels included.
TEST(SlashRecoveryTest, OneJobRunJobsRecoversExactlyLikeRun) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 4, 2, 2000);
  job.tenant = "t0";
  job.config.checkpoint.replication_factor = 2;

  SlashEngine engine;
  sim::FaultPlan plan;
  const RunStats run = RunWithMidRunCrash(engine, job, /*victim=*/1, 0.5,
                                          &plan);
  ExpectMatchesOracle(run, Oracle(job));
  EXPECT_EQ(run.recoveries(), 1u);

  job.cluster.fault_plan = &plan;
  const MultiRunStats multi = engine.RunJobs({job}, job.cluster);
  ASSERT_TRUE(multi.ok()) << multi.status.ToString();
  ASSERT_EQ(multi.jobs.size(), 1u);
  EXPECT_EQ(multi.cluster.metrics.ToJson(), run.metrics.ToJson());
  EXPECT_EQ(multi.jobs[0].metrics.ToJson(), run.metrics.ToJson());
  EXPECT_EQ(multi.jobs[0].rows, run.rows);
}

TEST(SlashRecoveryTest, WiderCheckpointIntervalStillRecovers) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 2, 2, 3000);
  job.config.checkpoint.interval_epochs = 3;

  SlashEngine engine;
  sim::FaultPlan plan;
  const RunStats stats =
      RunWithMidRunCrash(engine, job, /*victim=*/1, 0.5, &plan);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 1u);
}

TEST(SlashRecoveryTest, RdmaIngestionNodeCrashRecoversToOracleResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 2, 2, 2500);
  job.config.rdma_ingestion = true;

  SlashEngine engine;
  sim::FaultPlan plan;
  const RunStats stats =
      RunWithMidRunCrash(engine, job, /*victim=*/1, 0.5, &plan);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 1u);
  EXPECT_GT(stats.records_replayed(), 0u);
}

TEST(SlashRecoveryTest, CrashWithoutCheckpointingAbortsCleanly) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 2, 2, 3000);
  job.config.checkpoint.enabled = false;

  SlashEngine engine;
  sim::FaultPlan plan;
  const RunStats stats =
      RunWithMidRunCrash(engine, job, /*victim=*/1, 0.5, &plan);

  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(stats.recoveries(), 0u);
}

TEST(SlashRecoveryTest, EarlyCrashBeforeFirstCheckpointRestartsFromScratch) {
  // A crash before round 1 is fully replicated rolls back to round 0:
  // fresh state and a full deterministic replay from the sources. The run
  // still completes with oracle-identical results.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 2, 2, 3000);

  SlashEngine engine;
  sim::FaultPlan plan;
  plan.node_crashes.push_back({.at = 1, .node = 1});
  job.cluster.fault_plan = &plan;
  const RunStats stats = engine.Run(job);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 1u);
}

// --- FaultPlan registration-time validation -------------------------------

TEST(FaultPlanValidationTest, RejectsUnsortedSchedule) {
  sim::FaultPlan plan;
  plan.node_crashes.push_back({.at = 100, .node = 0});
  plan.node_crashes.push_back({.at = 50, .node = 1});
  const Status s = plan.Validate(2);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(FaultPlanValidationTest, RejectsOverlappingPausesOfSameNode) {
  sim::FaultPlan plan;
  plan.node_pauses.push_back({.at = 100, .node = 0, .duration = 1000});
  plan.node_pauses.push_back({.at = 500, .node = 0, .duration = 1000});
  EXPECT_FALSE(plan.Validate(2).ok());
}

TEST(FaultPlanValidationTest, AcceptsOverlappingPausesOfDifferentNodes) {
  sim::FaultPlan plan;
  plan.node_pauses.push_back({.at = 100, .node = 0, .duration = 1000});
  plan.node_pauses.push_back({.at = 500, .node = 1, .duration = 1000});
  EXPECT_TRUE(plan.Validate(2).ok());
}

TEST(FaultPlanValidationTest, RejectsNonexistentNodeTargets) {
  sim::FaultPlan plan;
  plan.node_crashes.push_back({.at = 100, .node = 7});
  EXPECT_FALSE(plan.Validate(2).ok());

  sim::FaultPlan degrade;
  degrade.nic_degrades.push_back(
      {.at = 100, .node = -3, .bandwidth_scale = 0.5, .duration = 10});
  EXPECT_FALSE(degrade.Validate(2).ok());
}

TEST(FaultPlanValidationTest, InvalidPlanFailsRunAtRegistration) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 2, 2, 500);

  sim::FaultPlan plan;
  plan.node_crashes.push_back({.at = 100, .node = 99});
  job.cluster.fault_plan = &plan;

  SlashEngine slash;
  RunStats stats = slash.Run(job);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);

  FlinkLikeEngine flink;
  stats = flink.Run(job);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);

  UpParEngine uppar;
  JobSpec uppar_job = job;
  uppar_job.config.checkpoint.enabled = false;
  stats = uppar.Run(uppar_job);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
}

// --- Flink-like engine ----------------------------------------------------

TEST(FlinkRecoveryTest, YsbNodeCrashRecoversToOracleResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 3, 2, 3000);

  FlinkLikeEngine engine;
  sim::FaultPlan plan;
  const RunStats stats =
      RunWithMidRunCrash(engine, job, /*victim=*/1, 0.5, &plan);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 1u);
  EXPECT_GT(stats.recovery_ns(), 0);
  EXPECT_GT(stats.records_replayed(), 0u);
  EXPECT_GT(stats.checkpoints_taken(), 0u);
  EXPECT_GT(stats.checkpoint_bytes_replicated(), 0u);
}

TEST(FlinkRecoveryTest, CrashedRunIsDeterministicAcrossReplays) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 2, 2, 2500);

  FlinkLikeEngine engine;
  sim::FaultPlan plan;
  const RunStats first =
      RunWithMidRunCrash(engine, job, /*victim=*/0, 0.5, &plan);
  ASSERT_TRUE(first.ok()) << first.status.message();

  job.cluster.fault_plan = &plan;
  const RunStats second = engine.Run(job);
  ASSERT_TRUE(second.ok()) << second.status.message();

  EXPECT_EQ(first.result_checksum(), second.result_checksum());
  EXPECT_EQ(first.makespan(), second.makespan());
  EXPECT_EQ(first.records_replayed(), second.records_replayed());
}

TEST(FlinkRecoveryTest, CrashWithoutCheckpointingAbortsCleanly) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 2, 2, 3000);
  job.config.checkpoint.enabled = false;

  FlinkLikeEngine engine;
  sim::FaultPlan plan;
  const RunStats stats =
      RunWithMidRunCrash(engine, job, /*victim=*/1, 0.5, &plan);

  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace slash::engines
