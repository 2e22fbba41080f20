// Gray-failure tolerance tests: the deterministic failure detector
// (health::HealthMonitor), the new network-partition / gray-node fault
// kinds, and their integration with the Slash engine's quarantine /
// self-fence / rejoin recovery path.
//
// The contractual outcomes under test:
//   * a partitioned-then-healed cluster finishes with results byte-identical
//     to the fault-free oracle (quarantine -> recovery -> rejoin);
//   * a gray (slowed, not crashed) node is detected and excluded the same
//     way, and the run still matches the oracle;
//   * a sub-threshold slowdown produces no suspicion at all (no false
//     positives from mere slowness);
//   * the minority side of a cut self-fences before any divergent epoch can
//     commit (the double-commit CHECK in RecoveryCoordinator::RecordLocal is
//     the in-engine split-brain assertion — reaching the oracle checksum
//     without tripping it proves the fencing invariant held).
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "channel/rdma_channel.h"
#include "core/oracle.h"
#include "engines/flink_engine.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "health/health.h"
#include "obs/metrics.h"
#include "rdma/fabric.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "workloads/ysb.h"

namespace slash {
namespace {

using engines::JobSpec;
using engines::RunStats;
using engines::SlashEngine;

// --- HealthConfig validation ----------------------------------------------

TEST(HealthConfigTest, DefaultsValidate) {
  health::HealthConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(HealthConfigTest, RejectsNonPositiveIntervals) {
  health::HealthConfig cfg;
  cfg.probe_timeout = 0;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
  cfg = health::HealthConfig{};
  cfg.heartbeat_interval = 0;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
  cfg = health::HealthConfig{};
  cfg.suspicion_threshold = 0;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(HealthConfigTest, EnforcesTimeoutHierarchy) {
  // probe rpc deadline must sit below the heartbeat interval.
  health::HealthConfig cfg;
  cfg.probe_timeout = cfg.heartbeat_interval;
  EXPECT_FALSE(cfg.Validate().ok());

  // Suspicion window (interval * threshold) must sit below the recovery
  // deadline.
  cfg = health::HealthConfig{};
  cfg.recovery_deadline = cfg.heartbeat_interval * 4;
  cfg.suspicion_threshold = 8;
  EXPECT_FALSE(cfg.Validate().ok());

  // Recovery deadline must sit below the whole-run deadline.
  cfg = health::HealthConfig{};
  cfg.run_deadline = cfg.recovery_deadline;
  EXPECT_FALSE(cfg.Validate().ok());

  // A correctly ordered hierarchy passes.
  cfg = health::HealthConfig{};
  cfg.run_deadline = cfg.recovery_deadline * 10;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(HealthConfigTest, InvalidConfigFailsRunUpFront) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100;
  workloads::YsbWorkload workload(ycfg);
  engines::ClusterConfig cluster;
  cluster.nodes = 2;
  cluster.workers_per_node = 2;
  cluster.health.enabled = true;
  cluster.health.probe_timeout = cluster.health.heartbeat_interval;  // inverted
  engines::JobConfig job;
  job.records_per_worker = 200;

  SlashEngine engine;
  const RunStats stats =
      engine.Run(engines::MakeJobSpec("", workload, cluster, job));
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
}

// --- FaultPlan validation of the new fault kinds --------------------------

TEST(FaultPlanPartitionValidationTest, RejectsMalformedSides) {
  // Empty side.
  sim::FaultPlan plan;
  plan.partitions.push_back({.at = 100, .side_a = {}});
  EXPECT_FALSE(plan.Validate(3).ok());

  // Side covering every node (not a strict subset).
  plan = sim::FaultPlan{};
  plan.partitions.push_back({.at = 100, .side_a = {0, 1, 2}});
  EXPECT_FALSE(plan.Validate(3).ok());

  // Unknown node in the side.
  plan = sim::FaultPlan{};
  plan.partitions.push_back({.at = 100, .side_a = {7}});
  EXPECT_FALSE(plan.Validate(3).ok());

  // Duplicated node in the side.
  plan = sim::FaultPlan{};
  plan.partitions.push_back({.at = 100, .side_a = {1, 1}});
  EXPECT_FALSE(plan.Validate(3).ok());
}

TEST(FaultPlanPartitionValidationTest, EnforcesPartitionHealAlternation) {
  // A heal with no preceding partition.
  sim::FaultPlan plan;
  plan.partition_heals.push_back({.at = 100});
  EXPECT_FALSE(plan.Validate(3).ok());

  // Heal scheduled before its partition.
  plan = sim::FaultPlan{};
  plan.partitions.push_back({.at = 200, .side_a = {0}});
  plan.partition_heals.push_back({.at = 100});
  EXPECT_FALSE(plan.Validate(3).ok());

  // Two un-healed partitions overlap.
  plan = sim::FaultPlan{};
  plan.partitions.push_back({.at = 100, .side_a = {0}});
  plan.partitions.push_back({.at = 200, .side_a = {1}});
  EXPECT_FALSE(plan.Validate(3).ok());

  // A healed partition followed by a second cut is fine; the trailing cut
  // may stay open (permanent).
  plan = sim::FaultPlan{};
  plan.partitions.push_back({.at = 100, .side_a = {0}});
  plan.partition_heals.push_back({.at = 200});
  plan.partitions.push_back({.at = 300, .side_a = {1}});
  EXPECT_TRUE(plan.Validate(3).ok());
}

TEST(FaultPlanGrayValidationTest, RejectsMalformedNodeSlows) {
  // Slow-down factors below 1 would be a speed-up.
  sim::FaultPlan plan;
  plan.node_slows.push_back({.at = 100, .node = 0, .factor = 0.5});
  EXPECT_FALSE(plan.Validate(2).ok());

  // Unknown node.
  plan = sim::FaultPlan{};
  plan.node_slows.push_back({.at = 100, .node = 9, .factor = 2.0});
  EXPECT_FALSE(plan.Validate(2).ok());

  // Overlapping slowdowns of the same node.
  plan = sim::FaultPlan{};
  plan.node_slows.push_back(
      {.at = 100, .node = 0, .factor = 2.0, .duration = 1000});
  plan.node_slows.push_back(
      {.at = 500, .node = 0, .factor = 4.0, .duration = 1000});
  EXPECT_FALSE(plan.Validate(2).ok());

  // Overlapping slowdowns of different nodes are fine.
  plan = sim::FaultPlan{};
  plan.node_slows.push_back(
      {.at = 100, .node = 0, .factor = 2.0, .duration = 1000});
  plan.node_slows.push_back(
      {.at = 500, .node = 1, .factor = 4.0, .duration = 1000});
  EXPECT_TRUE(plan.Validate(2).ok());
}

TEST(FaultPlanGrayValidationTest, RejectsMalformedOneWayDrops) {
  sim::FaultPlan plan;
  plan.one_way_drops.push_back({.from = 100, .src_node = 0, .dst_node = 9});
  EXPECT_FALSE(plan.Validate(2).ok());

  plan = sim::FaultPlan{};
  plan.one_way_drops.push_back({.from = 100, .src_node = 0, .dst_node = 0});
  EXPECT_FALSE(plan.Validate(2).ok());

  plan = sim::FaultPlan{};
  plan.one_way_drops.push_back(
      {.from = 100, .until = 500, .src_node = 0, .dst_node = 1});
  EXPECT_TRUE(plan.Validate(2).ok());
}

// --- Standalone detector behaviour ----------------------------------------

/// Harness: a bare fabric with a fault plan and a monitor over it, no
/// engine. Callbacks record into vectors; a scheduled Stop() lets the DES
/// queue drain.
struct MonitorHarness {
  sim::Simulator sim;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<rdma::Fabric> fabric;
  std::unique_ptr<health::HealthMonitor> monitor;
  std::vector<std::pair<int, std::vector<int>>> accusations;
  std::vector<int> fences;
  std::vector<int> unfences;
  std::vector<int> resumed;

  MonitorHarness(const sim::FaultPlan& plan, int nodes,
                 const health::HealthConfig& hcfg) {
    if (!plan.empty()) {
      injector = std::make_unique<sim::FaultInjector>(&sim, plan);
      sim.set_fault_injector(injector.get());
    }
    rdma::FabricConfig fcfg;
    fcfg.nodes = nodes;
    fabric = std::make_unique<rdma::Fabric>(&sim, fcfg);
    health::HealthMonitor::Callbacks cb;
    cb.on_suspect = [this](int m, const std::vector<int>& s) {
      accusations.push_back({m, s});
    };
    cb.on_self_fence = [this](int n) { fences.push_back(n); };
    cb.on_unfence = [this](int n) { unfences.push_back(n); };
    cb.on_liveness_resumed = [this](int n) { resumed.push_back(n); };
    monitor = std::make_unique<health::HealthMonitor>(fabric.get(), hcfg,
                                                      nodes, std::move(cb));
  }

  void RunFor(Nanos duration) {
    monitor->Start();
    sim.ScheduleAt(duration, [this] { monitor->Stop(); });
    sim.Run();
  }

  /// A counter the run published into the simulator's registry.
  uint64_t Tally(std::string_view name) {
    return sim.metrics().Snapshot().CounterValue(name);
  }
};

TEST(HealthMonitorTest, QuietClusterStaysUnsuspected) {
  health::HealthConfig hcfg;
  hcfg.enabled = true;
  MonitorHarness h(sim::FaultPlan{}, 3, hcfg);
  h.RunFor(5 * kMillisecond);

  EXPECT_GT(h.Tally(obs::metric::kHealthProbesSent), 0u);
  EXPECT_EQ(h.Tally(obs::metric::kHealthProbeMisses), 0u);
  EXPECT_EQ(h.Tally(obs::metric::kHealthSuspicions), 0u);
  EXPECT_EQ(h.Tally(obs::metric::kHealthFalsePositives), 0u);
  EXPECT_TRUE(h.accusations.empty());
  EXPECT_TRUE(h.fences.empty());
}

TEST(HealthMonitorTest, PartitionDrivesMonotonicSuspicionAndMajorityAccuses) {
  // Cut {2} away from {0, 1} at 1 ms, permanently. The majority side must
  // accuse node 2; node 2, seeing no majority, must self-fence — and its
  // own accusations must never fire.
  sim::FaultPlan plan;
  plan.partitions.push_back({.at = 1 * kMillisecond, .side_a = {2}});
  health::HealthConfig hcfg;
  hcfg.enabled = true;
  MonitorHarness h(plan, 3, hcfg);

  // Sample node 0's suspicion of node 2 over time: it must never decrease
  // while the cut stands (monotone accrual, no flapping detector).
  std::vector<uint32_t> samples;
  for (int i = 0; i < 40; ++i) {
    h.sim.ScheduleAt(1 * kMillisecond + Nanos(i) * 100 * kMicrosecond,
                     [&h, &samples] {
                       samples.push_back(h.monitor->suspicion(0, 2));
                     });
  }
  h.RunFor(6 * kMillisecond);

  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i], samples[i - 1]) << "suspicion flapped at " << i;
  }
  EXPECT_GE(h.Tally(obs::metric::kHealthSuspicions), 1u);
  ASSERT_FALSE(h.accusations.empty());
  for (const auto& [monitor, suspects] : h.accusations) {
    EXPECT_NE(monitor, 2) << "minority node drove a cluster decision";
    ASSERT_EQ(suspects.size(), 1u);
    EXPECT_EQ(suspects[0], 2);
  }
  ASSERT_FALSE(h.fences.empty());
  EXPECT_EQ(h.fences[0], 2);
  EXPECT_TRUE(h.unfences.empty());  // the cut never heals
}

TEST(HealthMonitorTest, HealUnfencesAndResumesLiveness) {
  sim::FaultPlan plan;
  plan.partitions.push_back({.at = 1 * kMillisecond, .side_a = {2}});
  plan.partition_heals.push_back({.at = 4 * kMillisecond});
  health::HealthConfig hcfg;
  hcfg.enabled = true;
  MonitorHarness h(plan, 3, hcfg);

  // Engine feedback loop stand-in: quarantine node 2 on first accusation.
  h.sim.ScheduleAt(2 * kMillisecond, [&h] {
    if (!h.accusations.empty()) h.monitor->SetQuarantined(2, true);
  });
  h.RunFor(8 * kMillisecond);

  ASSERT_FALSE(h.fences.empty());
  EXPECT_EQ(h.fences[0], 2);
  EXPECT_FALSE(h.unfences.empty()) << "healed minority never unfenced";
  EXPECT_FALSE(h.resumed.empty()) << "healed quarantined peer never resumed";
  for (int n : h.resumed) EXPECT_EQ(n, 2);
}

TEST(HealthMonitorTest, PlannedRetirementSilencesTheDetector) {
  // Elastic scale-in regression: a node that LEFT via SetMembership(false)
  // is retired, not dead. When it later becomes unreachable (here: a
  // permanent cut at 1 ms), no monitor may accrue suspicion against it,
  // no accusation may fire, and the retiree must not self-fence — a
  // planned departure is not a failure. Contrast with
  // PartitionDrivesMonotonicSuspicionAndMajorityAccuses above, where the
  // same cut without the retirement accuses node 2.
  sim::FaultPlan plan;
  plan.partitions.push_back({.at = 1 * kMillisecond, .side_a = {2}});
  health::HealthConfig hcfg;
  hcfg.enabled = true;
  MonitorHarness h(plan, 3, hcfg);
  h.sim.ScheduleAt(500 * kMicrosecond,
                   [&h] { h.monitor->SetMembership(2, false); });
  h.RunFor(6 * kMillisecond);

  EXPECT_EQ(h.monitor->suspicion(0, 2), 0u);
  EXPECT_EQ(h.monitor->suspicion(1, 2), 0u);
  EXPECT_EQ(h.Tally(obs::metric::kHealthSuspicions), 0u);
  EXPECT_TRUE(h.accusations.empty())
      << "a planned leave was accused as a failure";
  EXPECT_TRUE(h.fences.empty()) << "a retired node self-fenced";
  // The survivors keep probing.
  EXPECT_GT(h.Tally(obs::metric::kHealthProbesSent), 0u);
}

// The registry is the simulator's and always present: a channel and a
// monitor built on a bare simulator, with no set-up call, publish their
// tallies into it.
TEST(HealthMonitorTest, BareSimulatorPublishesChannelAndHealthTallies) {
  sim::FaultPlan plan;
  plan.drop_rules.push_back({.src_node = 0, .dst_node = 1, .max_drops = 1});
  health::HealthConfig hcfg;
  hcfg.enabled = true;
  MonitorHarness h(plan, 2, hcfg);
  auto ch = channel::RdmaChannel::Create(h.fabric.get(), 0, 1,
                                         channel::ChannelConfig{});
  perf::CpuContext cpu(&h.sim, &perf::CostModel::Default());
  channel::SlotRef slot;
  ASSERT_TRUE(ch->TryAcquire(&slot, &cpu));
  // Posted before the first probe, so the one-shot drop takes this write.
  ASSERT_TRUE(ch->Post(slot, 64, /*user_tag=*/0, /*watermark=*/0, &cpu).ok());
  h.RunFor(1 * kMillisecond);

  EXPECT_EQ(ch->retries(), 1u);
  EXPECT_EQ(h.Tally(obs::metric::kChannelRetries), 1u);
  EXPECT_GT(h.Tally(obs::metric::kHealthProbesSent), 0u);
}

// --- Engine integration ----------------------------------------------------

JobSpec HealthJob(const workloads::Workload& workload, int nodes, int workers,
                  uint64_t records) {
  engines::ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.workers_per_node = workers;
  cluster.health.enabled = true;
  // Test-scale detector: these runs drain in under a millisecond of
  // virtual time, so the production-scale defaults (100 us heartbeat,
  // 8-miss window) would never fire. Same hierarchy, compressed.
  cluster.health.heartbeat_interval = 20 * kMicrosecond;
  cluster.health.probe_timeout = 10 * kMicrosecond;
  cluster.health.suspicion_threshold = 4;
  cluster.health.recovery_deadline = 20 * kMillisecond;
  engines::JobConfig config;
  config.records_per_worker = records;
  config.channel.slot_bytes = 16 * kKiB;
  config.epoch_bytes = 64 * kKiB;
  config.state_lss_capacity = 1 << 16;
  config.state_index_buckets = 1 << 10;
  config.collect_rows = true;
  config.checkpoint.enabled = true;
  return engines::MakeJobSpec("", workload, cluster, config);
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

/// Fault-free makespan of `job` (health on), used to place faults at
/// deterministic fractions without hard-coding virtual-time constants.
Nanos CleanMakespan(SlashEngine& engine, const JobSpec& job) {
  const RunStats clean = engine.Run(job);
  EXPECT_TRUE(clean.ok()) << clean.status.message();
  EXPECT_GT(clean.makespan(), 0);
  return clean.makespan();
}

TEST(SlashHealthTest, PartitionThenHealRecoversToOracleResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = HealthJob(workload, 3, 2, 30000);

  SlashEngine engine;
  const Nanos makespan = CleanMakespan(engine, job);

  sim::FaultPlan plan;
  plan.partitions.push_back(
      {.at = Nanos(double(makespan) * 0.4), .side_a = {2}});
  plan.partition_heals.push_back({.at = Nanos(double(makespan) * 0.7)});
  job.cluster.fault_plan = &plan;
  const RunStats stats = engine.Run(job);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_GE(stats.suspicions(), 1u);
  EXPECT_GE(stats.quarantines(), 1u);
  EXPECT_GE(stats.recoveries(), 1u);
  EXPECT_GE(stats.fence_events(), 1u);  // the cut-off node self-fenced
}

TEST(SlashHealthTest, PermanentMinorityPartitionFencesAndExcludes) {
  // Permanent cut: {1} never comes back. The majority quarantines it and
  // finishes without it; node 1 self-fences, so no epoch is ever committed
  // twice (RecordLocal's double-commit CHECK would abort the test binary).
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = HealthJob(workload, 3, 2, 30000);

  SlashEngine engine;
  const Nanos makespan = CleanMakespan(engine, job);

  sim::FaultPlan plan;
  plan.partitions.push_back(
      {.at = Nanos(double(makespan) * 0.5), .side_a = {1}});
  job.cluster.fault_plan = &plan;
  const RunStats stats = engine.Run(job);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_GE(stats.fence_events(), 1u);
  EXPECT_GE(stats.quarantines(), 1u);
  EXPECT_EQ(stats.rejoins(), 0u);  // the cut never heals
}

TEST(SlashHealthTest, GrayNodeIsDetectedAndRunMatchesOracle) {
  // A gray node: 50x slower NIC + CPU for a window, no errors anywhere.
  // The detector must notice (probes queue behind crawling data-plane
  // slots), quarantine it, and the run must still match the oracle.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = HealthJob(workload, 3, 2, 30000);

  SlashEngine engine;
  const Nanos makespan = CleanMakespan(engine, job);

  sim::FaultPlan plan;
  plan.node_slows.push_back({.at = Nanos(double(makespan) * 0.3),
                             .node = 2,
                             .factor = 50.0,
                             .duration = Nanos(double(makespan) * 0.4)});
  job.cluster.fault_plan = &plan;
  const RunStats stats = engine.Run(job);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_GE(stats.suspicions(), 1u);
  EXPECT_GE(stats.quarantines(), 1u);
}

TEST(SlashHealthTest, SubThresholdSlowdownCausesNoSuspicion) {
  // A mildly slow node (2x) must never be suspected: the detector's rpc
  // deadline has enough headroom that gray detection does not misfire on
  // ordinary congestion.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = HealthJob(workload, 3, 2, 20000);

  SlashEngine engine;
  const Nanos makespan = CleanMakespan(engine, job);

  sim::FaultPlan plan;
  plan.node_slows.push_back({.at = Nanos(double(makespan) * 0.2),
                             .node = 1,
                             .factor = 2.0,
                             .duration = Nanos(double(makespan) * 0.5)});
  job.cluster.fault_plan = &plan;
  const RunStats stats = engine.Run(job);

  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.suspicions(), 0u);
  EXPECT_EQ(stats.health_false_positives(), 0u);
  EXPECT_EQ(stats.quarantines(), 0u);
  EXPECT_EQ(stats.recoveries(), 0u);
}

TEST(SlashHealthTest, HealthRunsAreDeterministicAcrossReplays) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = HealthJob(workload, 3, 2, 25000);

  SlashEngine engine;
  const Nanos makespan = CleanMakespan(engine, job);

  sim::FaultPlan plan;
  plan.partitions.push_back(
      {.at = Nanos(double(makespan) * 0.4), .side_a = {0}});
  plan.partition_heals.push_back({.at = Nanos(double(makespan) * 0.75)});
  job.cluster.fault_plan = &plan;

  const RunStats first = engine.Run(job);
  ASSERT_TRUE(first.ok()) << first.status.message();
  const RunStats second = engine.Run(job);
  ASSERT_TRUE(second.ok()) << second.status.message();

  EXPECT_EQ(first.metrics.ToJson(), second.metrics.ToJson())
      << "health-instrumented replay diverged";
}

TEST(SlashHealthTest, HealthOffKeepsBaselineByteIdentical) {
  // The master switch really is a master switch: enabling the header,
  // engine plumbing, and instruments must not move a single byte of a
  // health-off run.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = HealthJob(workload, 2, 2, 1500);
  job.cluster.health.enabled = false;

  SlashEngine engine;
  const RunStats first = engine.Run(job);
  const RunStats second = engine.Run(job);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.metrics.ToJson(), second.metrics.ToJson());
  EXPECT_EQ(first.health_probes_sent(), 0u);
}

TEST(BaselineEnginesTest, RejectHealthMonitoring) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = HealthJob(workload, 2, 2, 500);

  engines::FlinkLikeEngine flink;
  RunStats stats = flink.Run(job);
  EXPECT_EQ(stats.status.code(), StatusCode::kUnimplemented);

  engines::UpParEngine uppar;
  JobSpec uppar_job = job;
  uppar_job.config.checkpoint.enabled = false;
  stats = uppar.Run(uppar_job);
  EXPECT_EQ(stats.status.code(), StatusCode::kUnimplemented);

  engines::LightSaberEngine lightsaber;
  JobSpec lightsaber_job = uppar_job;
  lightsaber_job.cluster.nodes = 1;
  stats = lightsaber.Run(lightsaber_job);
  EXPECT_EQ(stats.status.code(), StatusCode::kUnimplemented);
}

// LightSaber has no network to inject faults into: a non-empty fault plan
// is rejected up front rather than silently never firing.
TEST(BaselineEnginesTest, LightSaberRejectsFaultPlan) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = HealthJob(workload, 1, 2, 500);
  job.cluster.health.enabled = false;
  job.config.checkpoint.enabled = false;
  sim::FaultPlan plan;
  plan.node_pauses.push_back({.at = 100, .node = 0, .duration = 1000});
  job.cluster.fault_plan = &plan;

  engines::LightSaberEngine lightsaber;
  const RunStats stats = lightsaber.Run(job);
  EXPECT_EQ(stats.status.code(), StatusCode::kUnimplemented)
      << stats.status.ToString();
}

}  // namespace
}  // namespace slash
