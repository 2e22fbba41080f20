// Checkpoint / crash-recovery integration tests: a kNodeCrash mid-run must
// not abort the run — the engine rolls back to the latest fully replicated
// checkpoint round, moves the dead node's partitions to a surviving heir,
// replays the lost input, and finishes with results bit-identical to the
// fault-free oracle. Covers both the Slash engine (epoch-aligned rounds)
// and the Flink-like baseline (barrier-aligned rounds), including crashes
// while blobs are part-way through replication and a second crash after a
// recovery (the rollback that frees an attempt the first one built, early
// and late), plus FaultPlan validation, the no-checkpoint abort path and
// unit tests of the RecoveryCoordinator, the replica ring and the cut codec.
// One join run keeps Slash's send backlog at its bound through checkpoint
// barriers and a crash.
#include <gtest/gtest.h>

#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/oracle.h"
#include "engines/flink_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "state/partition.h"
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

/// Two rollbacks in one run: node 1 crashes at a quarter of the clean
/// makespan, and node 3 once that first recovery has ended, at `second` of
/// the rest of the one-crash run (a crash during a recovery would abort the
/// run). The second rollback tears down an attempt the first one built.
/// Returns the two-crash run's stats.
RunStats RunWithTwoCrashes(Engine& engine, JobSpec job, double second,
                           sim::FaultPlan* plan) {
  const RunStats one = RunWithMidRunCrash(engine, job, /*victim=*/1, 0.25,
                                          plan);
  EXPECT_TRUE(one.ok()) << one.status.message();
  EXPECT_EQ(one.recoveries(), 1u);
  const Nanos recovered = plan->node_crashes[0].at + one.recovery_ns();
  EXPECT_LT(recovered, one.makespan());
  plan->node_crashes.push_back(
      {.at = recovered + Nanos(second * double(one.makespan() - recovered)),
       .node = 3});
  job.cluster.fault_plan = plan;
  return engine.Run(job);
}

JobSpec TwoCrashJob(const workloads::Workload& workload) {
  JobSpec job = RecoveryJob(workload, 5, 2, 6000);
  job.config.checkpoint.replication_factor = 2;
  return job;
}

/// A second crash soon after the first recovery rolls back to that
/// recovery's own round while no newer round has a live copy. That round is
/// restored from the first victim's blob too: the victim retired at it, and
/// its heir snapshots its partitions only from the next round on.
void ExpectEarlySecondCrashesMatchOracle(Engine& engine) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  const JobSpec job = TwoCrashJob(workload);
  const core::OracleOutput oracle = Oracle(job);
  for (const double second : {0.005, 0.05, 0.2}) {
    SCOPED_TRACE(testing::Message() << "second crash at " << second);
    sim::FaultPlan plan;
    const RunStats stats = RunWithTwoCrashes(engine, job, second, &plan);
    ExpectMatchesOracle(stats, oracle);
    EXPECT_EQ(stats.recoveries(), 2u);
  }
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

// The send-backlog bound under checkpoint barriers and a crash: a join
// whose small epochs reach the bound, a round every epoch, two replicas
// per blob. Backpressure stops only nodes behind the barrier,
// whose outbound channels are not frozen, so no round can deadlock, and
// the rebuilt attempt starts from an empty backlog.
TEST(SlashRecoveryTest, JoinBacklogBoundSurvivesCheckpointAndCrash) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 40;
  workloads::Nb8Workload workload(ncfg);
  JobSpec job = RecoveryJob(workload, 4, 2, 2000);
  job.config.epoch_bytes = 16 * kKiB;
  job.config.checkpoint.interval_epochs = 1;
  job.config.checkpoint.replication_factor = 2;

  SlashEngine engine;
  sim::FaultPlan plan;
  const RunStats stats =
      RunWithMidRunCrash(engine, job, /*victim=*/1, 0.5, &plan);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_GE(stats.peak_send_backlog_bytes,
            SlashEngine::kBacklogEpochs * job.config.epoch_bytes);
  EXPECT_EQ(stats.recoveries(), 1u);
  EXPECT_EQ(stats.credits_outstanding(), 0u);
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

// A crash while snapshot blobs are only partly replicated. 4 KiB slots
// split each ~16-19 KiB round-2 blob into five chunks. At 0.354 of the
// fault-free makespan the victim (node 1) has posted four of its five
// round-2 chunks and node 2 one of its five, so the run rolls back to
// round 1 and discards node 2's round-2 blob while node 2's replicators of
// the torn-down attempt are parked between two chunks. (Checked once by
// logging every chunk post and the crash time.)
TEST(SlashRecoveryTest, CrashMidBlobReplicationRecoversToOracleResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 2000;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 4, 2, 2000);
  job.config.channel.slot_bytes = 4 * kKiB;
  job.config.checkpoint.replication_factor = 2;

  SlashEngine engine;
  sim::FaultPlan plan;
  const RunStats stats =
      RunWithMidRunCrash(engine, job, /*victim=*/1, 0.354, &plan);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 1u);
  EXPECT_GT(stats.checkpoint_bytes_replicated(), 0u);
}

TEST(SlashRecoveryTest, SecondCrashAfterARecoveryRecoversToOracleResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  const JobSpec job = TwoCrashJob(workload);

  SlashEngine engine;
  sim::FaultPlan plan;
  const RunStats stats = RunWithTwoCrashes(engine, job, 0.7, &plan);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 2u);
  EXPECT_EQ(stats.credits_outstanding(), 0u);
}

TEST(SlashRecoveryTest, EarlySecondCrashRecoversToOracleResults) {
  SlashEngine engine;
  ExpectEarlySecondCrashesMatchOracle(engine);
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

// The Flink-like engine ships each blob as one socket message. At 0.4508
// of the fault-free makespan node 2's two round-4 sends (~18 KiB each) are
// in flight and the victim (node 1) has not taken round 4, so the run rolls
// back to round 3 and discards node 2's round-4 blob while node 2's
// replicators of the torn-down attempt are parked in Send. (Checked once by
// logging every send's start and return and the crash time.)
TEST(FlinkRecoveryTest, CrashMidBlobReplicationRecoversToOracleResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 2000;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = RecoveryJob(workload, 4, 2, 2000);
  job.config.channel.slot_bytes = 4 * kKiB;
  job.config.checkpoint.replication_factor = 2;

  FlinkLikeEngine engine;
  sim::FaultPlan plan;
  const RunStats stats =
      RunWithMidRunCrash(engine, job, /*victim=*/1, 0.4508, &plan);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 1u);
  EXPECT_GT(stats.checkpoint_bytes_replicated(), 0u);
}

TEST(FlinkRecoveryTest, SecondCrashAfterARecoveryRecoversToOracleResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  const JobSpec job = TwoCrashJob(workload);

  FlinkLikeEngine engine;
  sim::FaultPlan plan;
  const RunStats stats = RunWithTwoCrashes(engine, job, 0.7, &plan);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 2u);
}

TEST(FlinkRecoveryTest, EarlySecondCrashRecoversToOracleResults) {
  FlinkLikeEngine engine;
  ExpectEarlySecondCrashesMatchOracle(engine);
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

// --- RecoveryCoordinator: the blob store ------------------------------------

std::vector<uint8_t> Bytes(uint8_t fill, size_t len) {
  return std::vector<uint8_t>(len, fill);
}

// RecordLocal takes ownership: an lvalue blob does not compile, so no
// caller can keep a second copy by accident.
static_assert(!std::is_invocable_v<decltype(&RecoveryCoordinator::RecordLocal),
                                   RecoveryCoordinator&, int, uint64_t,
                                   std::vector<uint8_t>&>);

TEST(RecoveryCoordinatorTest, RecordsLocalBlobsAndReplicaHolders) {
  obs::Counter taken;
  RecoveryCoordinator rc(3, &taken);
  std::vector<uint8_t> blob = Bytes(0xA0, 100);
  const uint8_t* data = blob.data();
  rc.RecordLocal(0, 1, std::move(blob));
  rc.RecordLocal(1, 1, Bytes(0xA1, 20));
  EXPECT_EQ(taken.value(), 2u);

  // The coordinator holds the caller's buffer itself, not a copy of it.
  ASSERT_NE(rc.BlobFor(0, 1), nullptr);
  EXPECT_EQ(rc.BlobFor(0, 1)->data(), data);
  EXPECT_EQ(*rc.BlobFor(1, 1), Bytes(0xA1, 20));
  EXPECT_EQ(rc.BlobFor(0, 2), nullptr);
  EXPECT_EQ(rc.BlobFor(2, 1), nullptr);
  EXPECT_EQ(rc.RestoreBytes(1), 120u);

  // Without a replica a dead node's heir is the next live node; with one
  // it is a live holder, and registering a holder twice changes nothing.
  const std::vector<bool> zero_dead = {false, true, true};
  EXPECT_EQ(rc.Heir(0, 1, zero_dead), 1);
  rc.RecordReplica(0, 1, 2);
  rc.RecordReplica(0, 1, 2);
  EXPECT_EQ(rc.Heir(0, 1, zero_dead), 2);
  EXPECT_EQ(rc.Heir(0, 1, {false, false, true}), 2);
  EXPECT_EQ(rc.Heir(0, 1, {false, false, false}), -1);
}

TEST(RecoveryCoordinatorTest, LatestRecoverableRoundNeedsALiveHolder) {
  obs::Counter taken;
  RecoveryCoordinator rc(3, &taken);
  // Round 1 is replicated ring-wise (node n to n + 1); round 2 is local
  // only.
  for (int n = 0; n < 3; ++n) {
    rc.RecordLocal(n, 1, Bytes(uint8_t(n), 8));
    rc.RecordReplica(n, 1, (n + 1) % 3);
    rc.RecordLocal(n, 2, Bytes(uint8_t(n), 8));
  }
  EXPECT_EQ(rc.LatestRecoverableRound({true, true, true}), 2u);
  // Node 1's round-2 blob died with it; its round-1 replica lives on 2.
  EXPECT_EQ(rc.LatestRecoverableRound({true, false, true}), 1u);
  // Nodes 1 and 2 held every copy of node 1's round-1 blob.
  EXPECT_EQ(rc.LatestRecoverableRound({true, false, false}), 0u);
  // A node that has no blob for a round blocks it even when all are alive.
  rc.RecordLocal(0, 3, Bytes(0, 8));
  EXPECT_EQ(rc.LatestRecoverableRound({true, true, true}), 2u);
  // With node 0 dead, only its round-1 blob has a live copy (on node 1).
  // Once it is retired at round 2, later rounds no longer need it.
  rc.RecordLocal(1, 3, Bytes(1, 8));
  rc.RecordLocal(2, 3, Bytes(2, 8));
  EXPECT_EQ(rc.LatestRecoverableRound({false, true, true}), 1u);
  rc.RetireDead({false, true, true}, 2);
  EXPECT_FALSE(rc.HasOwnBlob(0, 3));
  EXPECT_TRUE(rc.HasOwnBlob(0, 2));
  EXPECT_EQ(rc.LatestRecoverableRound({false, true, true}), 3u);
}

TEST(RecoveryCoordinatorTest, TerminalSnapshotStandsInForLaterRounds) {
  obs::Counter taken;
  RecoveryCoordinator rc(2, &taken);
  rc.RecordLocal(0, 1, Bytes(0xF0, 30));
  rc.MarkFinalFrom(0, 1);
  for (uint64_t r = 1; r <= 4; ++r) rc.RecordLocal(1, r, Bytes(0xF1, 10));

  EXPECT_EQ(rc.BlobFor(0, 4), rc.BlobFor(0, 1));
  EXPECT_EQ(rc.RestoreBytes(4), 40u);
  EXPECT_EQ(rc.LatestRecoverableRound({true, true}), 4u);

  // A rejoining node replays its input again: the terminal mark goes.
  rc.UnretireNode(0);
  EXPECT_EQ(rc.BlobFor(0, 4), nullptr);
  EXPECT_NE(rc.BlobFor(0, 1), nullptr);
  EXPECT_EQ(rc.LatestRecoverableRound({true, true}), 1u);
}

TEST(RecoveryCoordinatorTest, DiscardRoundsAfterDropsTheStaleTimeline) {
  obs::Counter taken;
  RecoveryCoordinator rc(2, &taken);
  for (uint64_t r = 1; r <= 3; ++r) {
    rc.RecordLocal(0, r, Bytes(uint8_t(r), 16));
    rc.RecordLocal(1, r, Bytes(uint8_t(r), 16));
  }
  rc.MarkFinalFrom(1, 3);
  const std::vector<uint8_t>* kept = rc.BlobFor(0, 1);

  rc.DiscardRoundsAfter(1);
  EXPECT_EQ(rc.BlobFor(0, 1), kept);
  EXPECT_EQ(rc.BlobFor(0, 2), nullptr);
  EXPECT_EQ(rc.BlobFor(1, 3), nullptr);
  EXPECT_EQ(rc.BlobFor(1, 7), nullptr);  // the terminal mark went with it
  EXPECT_EQ(rc.LatestRecoverableRound({true, true}), 1u);

  // The rolled-back attempt regenerates the dropped rounds: committing
  // them again is not a double commit.
  rc.RecordLocal(0, 2, Bytes(0x22, 24));
  EXPECT_EQ(*rc.BlobFor(0, 2), Bytes(0x22, 24));
  EXPECT_EQ(taken.value(), 7u);
}

// The replicators read a queued round back through BlobFor after any
// number of later snapshots: recording other rounds and nodes must not
// move a stored blob or its bytes.
TEST(RecoveryCoordinatorTest, BlobPointersSurviveLaterRecords) {
  obs::Counter taken;
  RecoveryCoordinator rc(4, &taken);
  rc.RecordLocal(2, 1, Bytes(0x5A, 4096));
  const std::vector<uint8_t>* blob = rc.BlobFor(2, 1);
  const uint8_t* data = blob->data();
  for (uint64_t r = 1; r <= 64; ++r) {
    for (int n = 0; n < 4; ++n) {
      if (n == 2 && r == 1) continue;
      rc.RecordLocal(n, r, Bytes(uint8_t(r), 512 + r));
    }
  }
  EXPECT_EQ(rc.BlobFor(2, 1), blob);
  EXPECT_EQ(blob->data(), data);
  EXPECT_EQ(*blob, Bytes(0x5A, 4096));
}

/// A blob as both engines lay it out: its round, then (here) the node.
std::vector<uint8_t> RoundBlob(uint64_t round, int node) {
  std::vector<uint8_t> blob;
  BlobWriter writer(&blob);
  writer.U64(round);
  writer.U64(uint64_t(node));
  return blob;
}

/// The nodes whose blobs ForEachRestoreBlob visits for `round`, checking
/// that each body starts past the blob's round.
std::vector<int> RestoreNodes(const RecoveryCoordinator& rc, uint64_t round) {
  std::vector<int> nodes;
  rc.ForEachRestoreBlob(round, [&](int node, BlobReader* body) {
    EXPECT_EQ(body->U64(), uint64_t(node));
    nodes.push_back(node);
  });
  return nodes;
}

TEST(RecoveryCoordinatorTest, RestoreBlobsFollowRetirementAndJoinRounds) {
  obs::Counter taken;
  RecoveryCoordinator rc(4, &taken);
  for (uint64_t r = 1; r <= 3; ++r) {
    for (int n = 0; n < 4; ++n) {
      if (n == 2 && r > 1) continue;  // node 2 went terminal at round 1
      rc.RecordLocal(n, r, RoundBlob(r, n));
    }
  }
  rc.MarkFinalFrom(2, 1);
  EXPECT_TRUE(RestoreNodes(rc, 0).empty());
  EXPECT_EQ(RestoreNodes(rc, 3), (std::vector<int>{0, 1, 2, 3}));

  // A retired node restores its own blob at or before its retirement
  // round, and is skipped after it: its heir's blobs carry it from then on.
  rc.RetireNode(1, 2);
  EXPECT_EQ(RestoreNodes(rc, 1), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(RestoreNodes(rc, 2), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(RestoreNodes(rc, 3), (std::vector<int>{0, 2, 3}));

  // A joiner has no blob of its own at or before its join round.
  rc.JoinNode(3, 2);
  EXPECT_EQ(RestoreNodes(rc, 2), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(RestoreNodes(rc, 3), (std::vector<int>{0, 2, 3}));
}

TEST(ReplicaPairsTest, NextLiveNodesCyclicallyInSourceOrder) {
  using Pairs = std::vector<std::pair<int, int>>;
  const std::vector<bool> all = {true, true, true, true};
  EXPECT_TRUE(ReplicaPairs(all, 0).empty());
  EXPECT_TRUE(ReplicaPairs(all, -1).empty());
  EXPECT_EQ(ReplicaPairs(all, 1), (Pairs{{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
  EXPECT_EQ(ReplicaPairs(all, 2), (Pairs{{0, 1}, {0, 2}, {1, 2}, {1, 3},
                                         {2, 3}, {2, 0}, {3, 0}, {3, 1}}));
  // At most live - 1 targets: a node never replicates to itself.
  EXPECT_EQ(ReplicaPairs(all, 7), ReplicaPairs(all, 3));
  EXPECT_EQ(ReplicaPairs(all, 3).size(), 12u);
  // Dead nodes neither send nor receive.
  const std::vector<bool> one_dead = {true, false, true, true};
  EXPECT_EQ(ReplicaPairs(one_dead, 1), (Pairs{{0, 2}, {2, 3}, {3, 0}}));
  EXPECT_EQ(ReplicaPairs(one_dead, 5),
            (Pairs{{0, 2}, {0, 3}, {2, 3}, {2, 0}, {3, 0}, {3, 2}}));
  EXPECT_TRUE(ReplicaPairs({false, true, false}, 2).empty());
}

// --- The cut codec: the partition and sink pieces of a blob ----------------

std::vector<uint8_t> LittleEndian(uint64_t v) {
  std::vector<uint8_t> bytes(8);
  for (int i = 0; i < 8; ++i) bytes[i] = uint8_t(v >> (8 * i));
  return bytes;
}

TEST(CutCodecTest, PiecesHaveAFixedLayout) {
  core::ResultSink sink;
  sink.Emit(/*bucket=*/5, /*key=*/6, /*value=*/-1);
  std::vector<uint8_t> blob;
  BlobWriter writer(&blob);
  writer.PartitionPiece(-2, [](std::vector<uint8_t>* out) {
    *out = {7, 8, 9};
  });
  writer.SinkPiece(sink);

  std::vector<uint8_t> expected;
  const auto put = [&](uint64_t v) {
    const std::vector<uint8_t> bytes = LittleEndian(v);
    expected.insert(expected.end(), bytes.begin(), bytes.end());
  };
  put(uint64_t(int64_t{-2}));  // trigger watermark
  put(3);                      // snapshot length, then its bytes
  expected.insert(expected.end(), {7, 8, 9});
  put(1);  // sink count, checksum, row count, then (bucket, key, value)
  put(sink.checksum());
  put(1);
  put(5);
  put(6);
  put(uint64_t(int64_t{-1}));
  EXPECT_EQ(blob, expected);
}

/// Writes `p`'s partition piece, reads it back, and checks that the
/// snapshot is a view into the blob that restores `p`'s state.
void ExpectPartitionPieceRoundTrips(const state::Partition& p,
                                    const state::PartitionConfig& config) {
  std::vector<uint8_t> snapshot;
  p.Snapshot(&snapshot);
  std::vector<uint8_t> blob;
  BlobWriter writer(&blob);
  writer.PartitionPiece(
      42, [&](std::vector<uint8_t>* out) { p.Snapshot(out); });

  BlobReader reader(blob.data(), blob.size());
  std::span<const uint8_t> state;
  EXPECT_EQ(reader.PartitionPiece(&state), 42);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(std::vector<uint8_t>(state.begin(), state.end()), snapshot);
  if (!snapshot.empty()) {
    EXPECT_EQ(state.data(), blob.data() + 16);  // no copy
  }
  state::Partition restored(p.id(), config, state::PartitionRole::kRetiring);
  ASSERT_TRUE(restored.Restore(state.data(), state.size()).ok());
  std::vector<uint8_t> again;
  restored.Snapshot(&again);
  EXPECT_EQ(again, snapshot);
}

TEST(CutCodecTest, PartitionPiecesRoundTrip) {
  const state::PartitionConfig agg{.kind = state::StateKind::kAggregate,
                                   .lss_capacity = 1 << 16,
                                   .index_buckets = 1 << 8};
  state::Partition sums(0, agg, state::PartitionRole::kRetiring);
  sums.UpdateAggregate({1, 0}, 10);
  sums.UpdateAggregate({2, 3}, -4);
  sums.UpdateAggregate({1, 0}, 5);
  ExpectPartitionPieceRoundTrips(sums, agg);

  const state::PartitionConfig append{.kind = state::StateKind::kAppend,
                                      .lss_capacity = 1 << 16,
                                      .index_buckets = 1 << 8};
  state::Partition log(1, append, state::PartitionRole::kRetiring);
  const uint8_t record[5] = {1, 2, 3, 4, 5};
  log.Append({7, 2}, 0, record, sizeof(record));
  log.Append({8, 1}, 1, record, 3);
  log.Append({7, 2}, 1, record + 1, 4);
  ExpectPartitionPieceRoundTrips(log, append);

  ExpectPartitionPieceRoundTrips(
      state::Partition(2, agg, state::PartitionRole::kRetiring), agg);
}

TEST(CutCodecTest, SinkPiecesAddUp) {
  core::ResultSink with_rows;
  with_rows.Emit(1, 10, 100);
  with_rows.Emit(2, 20, -200);
  core::ResultSink counts_only(/*keep_rows=*/false);
  counts_only.Emit(3, 30, 300);

  std::vector<uint8_t> blob;
  BlobWriter writer(&blob);
  writer.SinkPiece(with_rows);
  writer.SinkPiece(counts_only);
  writer.SinkPiece(core::ResultSink());

  // One piece restores one sink.
  BlobReader reader(blob.data(), blob.size());
  core::ResultSink restored;
  reader.SinkPiece(&restored);
  EXPECT_EQ(restored.count(), 2u);
  EXPECT_EQ(restored.checksum(), with_rows.checksum());
  EXPECT_EQ(restored.rows(), with_rows.rows());

  // Further pieces add to it, as an heir's sink sums the cuts it took over.
  reader.SinkPiece(&restored);
  reader.SinkPiece(&restored);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(restored.count(), 3u);
  EXPECT_EQ(restored.checksum(), with_rows.checksum() + counts_only.checksum());
  EXPECT_EQ(restored.rows(), with_rows.rows());

  // A sink that keeps no rows takes only the counts.
  BlobReader again(blob.data(), blob.size());
  core::ResultSink bench(/*keep_rows=*/false);
  again.SinkPiece(&bench);
  EXPECT_EQ(bench.count(), 2u);
  EXPECT_TRUE(bench.rows().empty());
}

TEST(RecoveryCoordinatorDeathTest, RejectsADoubleCommit) {
  obs::Counter taken;
  RecoveryCoordinator rc(2, &taken);
  rc.RecordLocal(0, 1, Bytes(1, 8));
  EXPECT_DEATH(rc.RecordLocal(0, 1, Bytes(1, 8)), "epoch committed twice");
  rc.RetireNode(1, 1);
  EXPECT_DEATH(rc.RecordLocal(1, 2, Bytes(1, 8)), "retired node 1");
}

TEST(RecoveryCoordinatorDeathTest, RestoreNeedsEveryBlobReadWhole) {
  obs::Counter taken;
  RecoveryCoordinator rc(2, &taken);
  rc.RecordLocal(0, 1, RoundBlob(1, 0));
  EXPECT_DEATH(RestoreNodes(rc, 1), "round 1 has no blob for node 1");
  rc.RecordLocal(1, 1, RoundBlob(1, 1));
  EXPECT_DEATH(rc.ForEachRestoreBlob(1, [](int, BlobReader*) {}), "done");
}

}  // namespace
}  // namespace slash::engines
