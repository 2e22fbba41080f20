// Golden snapshot test: the byte-identity gate for refactors.
//
// Pins, for small runs of all four engines over YSB, CM, NB7 and NB8, the
// result checksum and the FNV-1a digest of the canonical MetricsSnapshot
// JSON, plus the cluster snapshot of one 2-tenant SlashEngine::RunJobs run.
// The lifecycle suite pins Slash runs that crash, quarantine, rejoin, fence,
// join and leave — checksum, snapshot digest and the digest of a caller
// tracer's Chrome JSON — so the recovery and elastic code is gated too.
// The repartition suite pins the same three digests for UpPar and Flink on
// remote and same-node lanes, with barriers, through a crash, and through
// the two aborts (plus the abort status).
// A change that claims "same behaviour, less code" must leave every value
// here untouched; a change that moves one on purpose re-captures it (the
// failure message prints the new value) and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "engines/flink_engine.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/ysb.h"

namespace slash::engines {
namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= uint8_t(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

ClusterConfig GoldenCluster(int nodes) {
  ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.workers_per_node = 4;
  return cluster;
}

// Non-default per-job knobs, so a knob that stops reaching the engine moves
// the digest.
JobConfig GoldenJob() {
  JobConfig job;
  job.records_per_worker = 1500;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.state_lss_capacity = 1 << 16;
  job.state_index_buckets = 1 << 10;
  job.seed = 7;
  job.checkpoint.enabled = true;
  return job;
}

std::unique_ptr<workloads::Workload> MakeWorkload(std::string_view name) {
  if (name == "ysb") return std::make_unique<workloads::YsbWorkload>();
  if (name == "cm") return std::make_unique<workloads::CmWorkload>();
  if (name == "nb7") return std::make_unique<workloads::Nb7Workload>();
  return std::make_unique<workloads::Nb8Workload>();
}

std::unique_ptr<Engine> MakeEngine(std::string_view name) {
  if (name == "slash") return std::make_unique<SlashEngine>();
  if (name == "uppar") return std::make_unique<UpParEngine>();
  if (name == "flink") return std::make_unique<FlinkLikeEngine>();
  return std::make_unique<LightSaberEngine>();
}

struct GoldenCase {
  const char* engine;
  const char* workload;
  uint64_t checksum;
  uint64_t snapshot_digest;
};

// Captured before the job-API consolidation (one JobSpec, cluster-only
// ClusterConfig, no plan round-trip); it left every value unchanged. The
// slash/nb8 snapshot digest was re-captured when Slash's send backlog got
// its bound (a join run reaches it and reschedules; the checksum held).
constexpr GoldenCase kGolden[] = {
    {"slash", "ysb", 0x5d242f61fa0994ed, 0x39de999a9558199d},
    {"slash", "cm", 0xf0afe85b2cc64057, 0x2962136b00faafab},
    {"slash", "nb7", 0x75e8bb68636c5e96, 0x964fdc46d741ea83},
    {"slash", "nb8", 0x5bdece81efe2951e, 0x813816c808ef06d9},
    {"uppar", "ysb", 0x5d242f61fa0994ed, 0x4aca8e5de1c88d3b},
    {"uppar", "cm", 0xf0afe85b2cc64057, 0x6063272d9d05e7ff},
    {"uppar", "nb7", 0x75e8bb68636c5e96, 0x2a33525d433ebe2f},
    {"uppar", "nb8", 0x5bdece81efe2951e, 0x987512f680edb7aa},
    {"flink", "ysb", 0x5d242f61fa0994ed, 0x4e444574f1c3404a},
    {"flink", "cm", 0xf0afe85b2cc64057, 0xa2af80351e9a4bff},
    {"flink", "nb7", 0x75e8bb68636c5e96, 0x347e32e0cb730182},
    {"flink", "nb8", 0x5bdece81efe2951e, 0x7eee263908507206},
    {"lightsaber", "ysb", 0x08be4428aa8bee87, 0x93664c55715d4103},
    {"lightsaber", "cm", 0xa02a88701cc1e031, 0x31fd3f30e4cb8134},
    // LightSaber has no joins: no NB8.
    {"lightsaber", "nb7", 0xf992d07b29d38c03, 0xd598c019ca2f5cd8},
};

void PrintTo(const GoldenCase& golden, std::ostream* os) {
  *os << golden.engine << "/" << golden.workload;
}

class GoldenSnapshot : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenSnapshot, ChecksumAndSnapshotArePinned) {
  const GoldenCase& golden = GetParam();
  const std::unique_ptr<workloads::Workload> workload =
      MakeWorkload(golden.workload);
  const std::unique_ptr<Engine> engine = MakeEngine(golden.engine);
  const int nodes = std::string_view(golden.engine) == "lightsaber" ? 1 : 2;

  const RunStats stats =
      engine->Run(MakeJobSpec("", *workload, GoldenCluster(nodes),
                              GoldenJob()));
  ASSERT_TRUE(stats.ok()) << stats.status.ToString();
  EXPECT_GT(stats.records_emitted(), 0u);
  EXPECT_EQ(stats.result_checksum(), golden.checksum)
      << "checksum 0x" << std::hex << stats.result_checksum();
  EXPECT_EQ(Fnv1a(stats.metrics.ToJson()), golden.snapshot_digest)
      << "snapshot digest 0x" << std::hex << Fnv1a(stats.metrics.ToJson());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, GoldenSnapshot, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.engine) + "_" + info.param.workload;
    });

// Two tenants on one fabric: the cluster snapshot (tenant-labelled job
// instruments plus the shared fabric and DES ones) and each tenant's
// checksum are pinned.
TEST(GoldenMultiJob, TwoTenantClusterSnapshotIsPinned) {
  workloads::YsbWorkload ysb;
  workloads::Nb8Workload nb8;
  const ClusterConfig cluster = GoldenCluster(2);
  JobConfig job = GoldenJob();
  job.checkpoint.enabled = false;

  std::vector<JobSpec> jobs;
  jobs.push_back(MakeJobSpec("t0", ysb, cluster, job, /*quota=*/4));
  jobs.push_back(MakeJobSpec("t1", nb8, cluster, job));

  SlashEngine engine;
  const MultiRunStats multi = engine.RunJobs(jobs, cluster);
  ASSERT_TRUE(multi.ok()) << multi.status.ToString();
  ASSERT_EQ(multi.jobs.size(), 2u);
  const uint64_t digest = Fnv1a(multi.cluster.metrics.ToJson());
  // Re-captured with the send-backlog bound: the nb8 tenant reaches it.
  EXPECT_EQ(digest, 0x3841657e0f693541u)
      << "cluster snapshot digest 0x" << std::hex << digest;
  EXPECT_EQ(multi.jobs[0].result_checksum(), 0x5d242f61fa0994edu)
      << "t0 checksum 0x" << std::hex << multi.jobs[0].result_checksum();
  EXPECT_EQ(multi.jobs[1].result_checksum(), 0x5bdece81efe2951eu)
      << "t1 checksum 0x" << std::hex << multi.jobs[1].result_checksum();
}

// --- Node lifecycle --------------------------------------------------------
// Each scenario reuses the configuration of the test that covers it
// (recovery_test, health_test, elastic_test) and places its faults and
// membership events at fractions of the fault-free makespan.

JobSpec LifecycleJob(const workloads::Workload& workload, int nodes,
                     uint64_t records) {
  ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.workers_per_node = 2;
  JobConfig job;
  job.records_per_worker = records;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.state_lss_capacity = 1 << 16;
  job.state_index_buckets = 1 << 10;
  job.collect_rows = true;
  job.checkpoint.enabled = true;
  return MakeJobSpec("", workload, cluster, job);
}

// The compressed failure detector of health_test.
void EnableHealth(JobSpec* job) {
  job->cluster.health.enabled = true;
  job->cluster.health.heartbeat_interval = 20 * kMicrosecond;
  job->cluster.health.probe_timeout = 10 * kMicrosecond;
  job->cluster.health.suspicion_threshold = 4;
  job->cluster.health.recovery_deadline = 20 * kMillisecond;
}

Nanos At(Nanos makespan, double fraction) {
  return Nanos(double(makespan) * fraction);
}

/// Runs `job` fault-free for its makespan, lets `arrange` place faults and
/// membership events against it, then runs it again traced by `tracer`.
template <typename EngineT = SlashEngine, typename Arrange>
RunStats RunArranged(JobSpec job, obs::Tracer* tracer, Arrange arrange) {
  EngineT engine;
  const RunStats clean = engine.Run(job);
  EXPECT_TRUE(clean.ok()) << clean.status.ToString();
  sim::FaultPlan faults;
  elastic::ReconfigPlan plan;
  arrange(clean.makespan(), &faults, &plan);
  if (!faults.node_crashes.empty() || !faults.partitions.empty() ||
      !faults.node_slows.empty()) {
    job.cluster.fault_plan = &faults;
  }
  if (!plan.joins.empty() || !plan.leaves.empty()) job.cluster.reconfig = &plan;
  job.config.tracer = tracer;
  return engine.Run(job);
}

template <typename EngineT>
RunStats CrashRf1(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 300});
  const RunStats stats = RunArranged<EngineT>(
      LifecycleJob(ysb, 3, 3000), tracer,
      [](Nanos ms, sim::FaultPlan* faults, elastic::ReconfigPlan*) {
        faults->node_crashes.push_back({.at = At(ms, 0.5), .node = 1});
      });
  EXPECT_EQ(stats.recoveries(), 1u);
  return stats;
}

template <typename EngineT>
RunStats CrashRf2(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 200});
  JobSpec job = LifecycleJob(ysb, 4, 2000);
  job.config.checkpoint.replication_factor = 2;
  const RunStats stats = RunArranged<EngineT>(
      job, tracer,
      [](Nanos ms, sim::FaultPlan* faults, elastic::ReconfigPlan*) {
        faults->node_crashes.push_back({.at = At(ms, 0.5), .node = 1});
      });
  EXPECT_EQ(stats.recoveries(), 1u);
  return stats;
}

RunStats PartitionHeal(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 300});
  JobSpec job = LifecycleJob(ysb, 3, 30000);
  EnableHealth(&job);
  const RunStats stats = RunArranged(
      job, tracer,
      [](Nanos ms, sim::FaultPlan* faults, elastic::ReconfigPlan*) {
        faults->partitions.push_back({.at = At(ms, 0.4), .side_a = {2}});
        faults->partition_heals.push_back({.at = At(ms, 0.7)});
      });
  EXPECT_GE(stats.quarantines(), 1u);
  EXPECT_GE(stats.rejoins(), 1u);
  return stats;
}

RunStats MinorityPartition(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 300});
  JobSpec job = LifecycleJob(ysb, 3, 30000);
  EnableHealth(&job);
  const RunStats stats = RunArranged(
      job, tracer,
      [](Nanos ms, sim::FaultPlan* faults, elastic::ReconfigPlan*) {
        faults->partitions.push_back({.at = At(ms, 0.5), .side_a = {1}});
      });
  EXPECT_GE(stats.fence_events(), 1u);
  EXPECT_GE(stats.quarantines(), 1u);
  return stats;
}

RunStats GrayNode(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 300});
  JobSpec job = LifecycleJob(ysb, 3, 30000);
  EnableHealth(&job);
  const RunStats stats = RunArranged(
      job, tracer,
      [](Nanos ms, sim::FaultPlan* faults, elastic::ReconfigPlan*) {
        faults->node_slows.push_back({.at = At(ms, 0.3),
                                      .node = 2,
                                      .factor = 50.0,
                                      .duration = At(ms, 0.4)});
      });
  EXPECT_GE(stats.quarantines(), 1u);
  return stats;
}

RunStats JoinOnly(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 300});
  const RunStats stats = RunArranged(
      LifecycleJob(ysb, 4, 3000), tracer,
      [](Nanos ms, sim::FaultPlan*, elastic::ReconfigPlan* plan) {
        plan->initial_nodes = 2;
        plan->joins.push_back({.at = At(ms, 0.3), .node = 2});
        plan->joins.push_back({.at = At(ms, 0.6), .node = 3});
      });
  EXPECT_EQ(stats.elastic_joins(), 2u);
  return stats;
}

RunStats LeaveOnly(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 300});
  const RunStats stats = RunArranged(
      LifecycleJob(ysb, 4, 3000), tracer,
      [](Nanos ms, sim::FaultPlan*, elastic::ReconfigPlan* plan) {
        plan->leaves.push_back({.at = At(ms, 0.35), .node = 3});
        plan->leaves.push_back({.at = At(ms, 0.65), .node = 2});
      });
  EXPECT_EQ(stats.elastic_leaves(), 2u);
  return stats;
}

// elastic_test's CrashDuringHandoffFoldsIntoOneRecovery: node 1 crashes
// 5 us into node 2's join handoff.
RunStats CrashDuringHandoff(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 300});
  const RunStats stats = RunArranged(
      LifecycleJob(ysb, 3, 3000), tracer,
      [](Nanos ms, sim::FaultPlan* faults, elastic::ReconfigPlan* plan) {
        plan->initial_nodes = 2;
        plan->joins.push_back({.at = At(ms, 0.4), .node = 2});
        faults->node_crashes.push_back(
            {.at = At(ms, 0.4) + 5 * kMicrosecond, .node = 1});
      });
  EXPECT_EQ(stats.recoveries(), 1u);
  EXPECT_GT(stats.handoff_ns(), 0);
  return stats;
}

// elastic_test's LoadTriggerGrowsTheClusterUnderIngestPressure: the load
// trigger, not a plan, grows the cluster from 2 actives.
RunStats LoadTrigger(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 300});
  JobSpec job = LifecycleJob(ysb, 4, 4000);
  elastic::ReconfigPlan plan;
  plan.initial_nodes = 2;
  plan.trigger.enabled = true;
  plan.trigger.interval = 20 * kMicrosecond;
  plan.trigger.join_above = 1;
  plan.trigger.cooldown_intervals = 1;
  job.cluster.reconfig = &plan;
  job.config.tracer = tracer;
  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  EXPECT_GT(stats.elastic_joins(), 0u);
  return stats;
}

// join_only under a tenant label with the failure detector on: the health
// and elastic instruments are published under the job's labels.
RunStats TenantHealthJoin(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 300});
  JobSpec job = LifecycleJob(ysb, 4, 3000);
  job.tenant = "t0";
  EnableHealth(&job);
  const RunStats stats = RunArranged(
      job, tracer,
      [](Nanos ms, sim::FaultPlan*, elastic::ReconfigPlan* plan) {
        plan->initial_nodes = 2;
        plan->joins.push_back({.at = At(ms, 0.3), .node = 2});
        plan->joins.push_back({.at = At(ms, 0.6), .node = 3});
      });
  EXPECT_EQ(stats.elastic_joins(), 2u);
  return stats;
}

struct LifecycleCase {
  const char* name;
  RunStats (*run)(obs::Tracer* tracer);
  uint64_t checksum;
  uint64_t snapshot_digest;
  uint64_t trace_digest;
};

void PrintTo(const LifecycleCase& golden, std::ostream* os) {
  *os << golden.name;
}

// Captured before the node-lifecycle table replaced the engine's
// per-node flags and five rollback entry points. crash_during_handoff's
// trace digest was re-captured once, when the superseded handoff span
// started closing on the joiner's track instead of the crashed node's.
constexpr LifecycleCase kLifecycle[] = {
    {"crash_rf1", CrashRf1<SlashEngine>, 0xace90200f2f393f6,
     0x58fb1b501b2f7e02, 0x3b137ac00b28428c},
    {"crash_rf2", CrashRf2<SlashEngine>, 0x834994a81bd5b866,
     0xa7a574e0bcd5b214, 0xc6eba4b290385de1},
    {"partition_heal", PartitionHeal, 0x7508d74c0079f257,
     0xf1be81896f7273a6, 0x597e0e49a2ac695},
    {"minority_partition", MinorityPartition, 0x7508d74c0079f257,
     0x4172c63b5dbb8232, 0x3d03f7c2393d2b9},
    {"gray_node", GrayNode, 0x7508d74c0079f257,
     0xc5b89ed3841211b1, 0x7e8fee5feda5fc65},
    {"join_only", JoinOnly, 0x7dff3029de7950,
     0xd45babab8982d20c, 0xa2a9ec6015fb4334},
    {"leave_only", LeaveOnly, 0x7dff3029de7950,
     0x6ae220f6958c1090, 0x6e6f2240fff5a806},
    {"crash_during_handoff", CrashDuringHandoff, 0xace90200f2f393f6,
     0xdc8535ce860c4ffd, 0xc97679a88da8afd6},
    {"load_trigger", LoadTrigger, 0x60ae6ff2d02ff23e, 0xc696b9dd72161920,
     0xc03ee8efd624287},
    {"tenant_health_join", TenantHealthJoin, 0x7dff3029de7950,
     0xabceea252f54e7e, 0xc1f2d6bdae68eed9},
};

class GoldenLifecycle : public ::testing::TestWithParam<LifecycleCase> {};

TEST_P(GoldenLifecycle, ChecksumSnapshotAndTraceArePinned) {
  const LifecycleCase& golden = GetParam();
  obs::Tracer tracer(obs::Tracer::Options{.capacity = 1 << 18,
                                          .enabled = true});
  const RunStats stats = golden.run(&tracer);
  ASSERT_TRUE(stats.ok()) << stats.status.ToString();
  const uint64_t snapshot = Fnv1a(stats.metrics.ToJson());
  const uint64_t trace = Fnv1a(tracer.ToChromeJson());
  EXPECT_EQ(stats.result_checksum(), golden.checksum)
      << "checksum 0x" << std::hex << stats.result_checksum();
  EXPECT_EQ(snapshot, golden.snapshot_digest)
      << "snapshot digest 0x" << std::hex << snapshot;
  EXPECT_EQ(trace, golden.trace_digest)
      << "trace digest 0x" << std::hex << trace;
}

INSTANTIATE_TEST_SUITE_P(
    Slash, GoldenLifecycle, ::testing::ValuesIn(kLifecycle),
    [](const ::testing::TestParamInfo<LifecycleCase>& info) {
      return std::string(info.param.name);
    });

// --- Re-partitioning engines -----------------------------------------------
// UpPar and Flink on both lane kinds (remote and same-node), Flink with
// aligned barriers, crash recovery and the no-checkpoint abort, and UpPar's
// abort on a permanent QP error. Aborted runs pin their status as well.

template <typename EngineT>
RunStats GoldenRun(std::string_view workload_name, int nodes,
                   obs::Tracer* tracer) {
  const std::unique_ptr<workloads::Workload> workload =
      MakeWorkload(workload_name);
  JobConfig job = GoldenJob();
  job.tracer = tracer;
  EngineT engine;
  return engine.Run(MakeJobSpec("", *workload, GoldenCluster(nodes), job));
}

RunStats UpParYsb2(obs::Tracer* t) {
  return GoldenRun<UpParEngine>("ysb", 2, t);
}
RunStats UpParNb8(obs::Tracer* t) {
  return GoldenRun<UpParEngine>("nb8", 2, t);
}
RunStats UpParYsb1(obs::Tracer* t) {
  return GoldenRun<UpParEngine>("ysb", 1, t);
}
RunStats FlinkYsb(obs::Tracer* t) {
  return GoldenRun<FlinkLikeEngine>("ysb", 2, t);
}
RunStats FlinkNb8(obs::Tracer* t) {
  return GoldenRun<FlinkLikeEngine>("nb8", 2, t);
}

// recovery_test's CrashWithoutCheckpointingAbortsCleanly.
RunStats FlinkCrashNoCheckpoint(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 200});
  JobSpec job = LifecycleJob(ysb, 2, 3000);
  job.config.checkpoint.enabled = false;
  return RunArranged<FlinkLikeEngine>(
      job, tracer,
      [](Nanos ms, sim::FaultPlan* faults, elastic::ReconfigPlan*) {
        faults->node_crashes.push_back({.at = At(ms, 0.5), .node = 1});
      });
}

// fault_injection_test's UpParPermanentFailureAbortsWithCleanStatus.
RunStats UpParQpError(obs::Tracer* tracer) {
  workloads::YsbWorkload ysb(workloads::YsbConfig{.key_range = 400});
  ClusterConfig cluster;
  cluster.nodes = 2;
  cluster.workers_per_node = 2;
  sim::FaultPlan faults;
  faults.qp_errors.push_back(
      {.at = 50 * kMicrosecond, .qp_num = 1, .recover_after = 0});
  cluster.fault_plan = &faults;
  JobConfig job;
  job.records_per_worker = 2000;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.state_lss_capacity = 1 << 16;
  job.state_index_buckets = 1 << 10;
  job.tracer = tracer;
  UpParEngine engine;
  return engine.Run(MakeJobSpec("", ysb, cluster, job));
}

struct RepartitionCase {
  const char* name;
  RunStats (*run)(obs::Tracer* tracer);
  StatusCode code;
  const char* message;
  uint64_t checksum;
  uint64_t snapshot_digest;
  uint64_t trace_digest;
};

void PrintTo(const RepartitionCase& golden, std::ostream* os) {
  *os << golden.name;
}

// Captured before UpPar and Flink became one engine over two transports.
constexpr RepartitionCase kRepartition[] = {
    {"uppar_ysb", UpParYsb2, StatusCode::kOk, "", 0x5d242f61fa0994ed,
     0x4aca8e5de1c88d3b, 0x771afc6fbebffd18},
    {"uppar_nb8", UpParNb8, StatusCode::kOk, "", 0x5bdece81efe2951e,
     0x987512f680edb7aa, 0xe202f430b1326217},
    {"uppar_ysb_1node", UpParYsb1, StatusCode::kOk, "", 0x08be4428aa8bee87,
     0xb8905a6921fe2a89, 0x70fe71b8a6eccb90},
    {"flink_ysb_barriers", FlinkYsb, StatusCode::kOk, "", 0x5d242f61fa0994ed,
     0x4e444574f1c3404a, 0x8b0952d90f941394},
    {"flink_nb8_barriers", FlinkNb8, StatusCode::kOk, "", 0x5bdece81efe2951e,
     0x7eee263908507206, 0x06f5da482338c837},
    {"flink_crash_rf1", CrashRf1<FlinkLikeEngine>, StatusCode::kOk, "",
     0xace90200f2f393f6, 0xa13af05459549fc0, 0xa09a6328a9e9e66f},
    {"flink_crash_rf2", CrashRf2<FlinkLikeEngine>, StatusCode::kOk, "",
     0x834994a81bd5b866, 0xf133b5690d1adb6f, 0x2ca43c95231c7230},
    {"flink_crash_no_checkpoint", FlinkCrashNoCheckpoint,
     StatusCode::kUnavailable,
     "node 1 crashed and checkpointing is disabled; aborting",
     0x0d42b7fe0312ab8d, 0x010684d3eb2d27a0, 0xa4fdb8a548e809d8},
    {"uppar_qp_error", UpParQpError, StatusCode::kUnavailable,
     "channel retry budget exhausted: flush_err", 0x8f69408aa9cb58b1,
     0x7d9320dc213c2612, 0xc548efe7f05cace1},
};

class GoldenRepartition : public ::testing::TestWithParam<RepartitionCase> {};

TEST_P(GoldenRepartition, StatusChecksumSnapshotAndTraceArePinned) {
  const RepartitionCase& golden = GetParam();
  obs::Tracer tracer(obs::Tracer::Options{.capacity = 1 << 18,
                                          .enabled = true});
  const RunStats stats = golden.run(&tracer);
  const uint64_t snapshot = Fnv1a(stats.metrics.ToJson());
  const uint64_t trace = Fnv1a(tracer.ToChromeJson());
  EXPECT_EQ(stats.status.code(), golden.code) << stats.status.ToString();
  EXPECT_EQ(stats.status.message(), golden.message);
  EXPECT_EQ(stats.result_checksum(), golden.checksum)
      << "checksum 0x" << std::hex << stats.result_checksum();
  EXPECT_EQ(snapshot, golden.snapshot_digest)
      << "snapshot digest 0x" << std::hex << snapshot;
  EXPECT_EQ(trace, golden.trace_digest)
      << "trace digest 0x" << std::hex << trace;
}

INSTANTIATE_TEST_SUITE_P(
    UpParAndFlink, GoldenRepartition, ::testing::ValuesIn(kRepartition),
    [](const ::testing::TestParamInfo<RepartitionCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace slash::engines
