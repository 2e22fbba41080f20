// Elastic reconfiguration tier: runtime node join/leave on a RUNNING Slash
// job with live state migration (DESIGN.md §13).
//
// The contractual outcomes under test:
//   * a scheduled NodeJoin activates a provisioned-but-inactive node
//     mid-run: the handoff pauses at an epoch boundary, moves the node's
//     partitions and flows onto it by one-sided READs of checkpoint blobs,
//     replays the tail, and the run finishes byte-identical to the
//     fault-free oracle — zero dropped records;
//   * a scheduled NodeLeave retires an active node gracefully the same way
//     (the leaver stays reachable through the handoff, so its blobs are
//     still readable), with no recovery and no health accusation;
//   * the ISSUE scenario — autoscale 4 -> 16 -> 8 under a scheduled plan —
//     completes with oracle-identical output and byte-identical replays
//     (result_checksum AND the full MetricsSnapshot JSON);
//   * malformed plans are rejected at registration time, before any virtual
//     time elapses: below-quorum leaves, joins of already-active nodes,
//     membership events inside an un-healed network partition;
//   * reconfiguration composes with checkpointing only (it IS the handoff
//     mechanism), and only on the Slash engine — the baselines reject it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/oracle.h"
#include "elastic/coordinator.h"
#include "elastic/rebalancer.h"
#include "elastic/reconfig.h"
#include "engines/flink_engine.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "workloads/nexmark.h"
#include "workloads/ysb.h"

namespace slash {
namespace {

using engines::JobSpec;
using engines::RunStats;
using engines::SlashEngine;

/// A checkpointed job of `workload` on a cluster of `nodes` provisioned
/// nodes (the elastic maximum).
JobSpec ElasticJob(const workloads::Workload& workload, int nodes, int workers,
                   uint64_t records) {
  engines::ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.workers_per_node = workers;
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
  EXPECT_EQ(stats.records_emitted(), oracle.count) << "records were dropped";
  EXPECT_EQ(stats.result_checksum(), oracle.checksum) << "result rows differ";
  std::vector<core::WindowResult> rows = stats.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, oracle.rows);
}

/// Fault-free, static-membership makespan of `job`: the yardstick used to
/// place reconfiguration events at deterministic mid-run fractions without
/// hard-coding virtual-time constants.
Nanos StaticMakespan(SlashEngine& engine, JobSpec job) {
  job.cluster.reconfig = nullptr;
  const RunStats clean = engine.Run(job);
  EXPECT_TRUE(clean.ok()) << clean.status.message();
  EXPECT_GT(clean.makespan(), 0);
  return clean.makespan();
}

// --- Scheduled join ---------------------------------------------------------

TEST(ElasticJoinTest, JoinOnlyScalesOutToOracleResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 4, 2, 3000);

  SlashEngine engine;
  const Nanos makespan = StaticMakespan(engine, job);

  // Start on nodes {0,1}; activate 2 then 3 mid-run.
  elastic::ReconfigPlan plan;
  plan.initial_nodes = 2;
  plan.joins.push_back({.at = Nanos(double(makespan) * 0.3), .node = 2});
  plan.joins.push_back({.at = Nanos(double(makespan) * 0.6), .node = 3});
  ASSERT_TRUE(plan.Validate(job.cluster.nodes).ok());
  job.cluster.reconfig = &plan;

  const RunStats stats = engine.Run(job);
  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.elastic_joins(), 2u);
  EXPECT_EQ(stats.elastic_leaves(), 0u);
  EXPECT_EQ(stats.reconfigs(), 2u);
  EXPECT_EQ(stats.recoveries(), 0u) << "a planned join is not a failure";
  EXPECT_GT(stats.handoff_ns(), 0);
  EXPECT_GT(stats.partitions_moved(), 0u);
  EXPECT_NE(stats.reconfig_trace_digest(), 0u);
}

TEST(ElasticJoinTest, LateJoinMovesCheckpointedStateAndInputIntervals) {
  // A join after checkpoint rounds exist must restore the joiner's
  // partitions from the incumbents' blobs (bytes READ across the fabric)
  // and re-home flows whose checkpointed prefix the joiner re-reads.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 3, 2, 4000);

  SlashEngine engine;
  const Nanos makespan = StaticMakespan(engine, job);

  elastic::ReconfigPlan plan;
  plan.initial_nodes = 2;
  plan.joins.push_back({.at = Nanos(double(makespan) * 0.6), .node = 2});
  job.cluster.reconfig = &plan;

  const RunStats stats = engine.Run(job);
  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.elastic_joins(), 1u);
  EXPECT_GT(stats.checkpoints_taken(), 0u);
  EXPECT_GT(stats.state_bytes_moved(), 0u)
      << "the joiner's partitions should restore from incumbent blobs";
  EXPECT_GT(stats.records_migrated(), 0u)
      << "flows re-homed onto the joiner re-read their checkpointed prefix";
}

// --- Scheduled leave --------------------------------------------------------

TEST(ElasticLeaveTest, LeaveOnlyScalesInToOracleResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 4, 2, 3000);

  SlashEngine engine;
  const Nanos makespan = StaticMakespan(engine, job);

  // All four start; 3 then 2 retire gracefully mid-run.
  elastic::ReconfigPlan plan;
  plan.leaves.push_back({.at = Nanos(double(makespan) * 0.35), .node = 3});
  plan.leaves.push_back({.at = Nanos(double(makespan) * 0.65), .node = 2});
  ASSERT_TRUE(plan.Validate(job.cluster.nodes).ok());
  job.cluster.reconfig = &plan;

  const RunStats stats = engine.Run(job);
  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.elastic_leaves(), 2u);
  EXPECT_EQ(stats.elastic_joins(), 0u);
  EXPECT_EQ(stats.recoveries(), 0u) << "a planned leave is not a failure";
  EXPECT_GT(stats.partitions_moved(), 0u)
      << "the leavers' partitions must move to surviving owners";
}

TEST(ElasticLeaveTest, LeaveDuringCheckpointTrafficStaysConsistent) {
  // Per-epoch checkpointing keeps snapshot traffic continuous, so the
  // leave lands while rounds are actively being recorded and replicated.
  // The handoff's rollback/discard must not corrupt the blob store: the
  // run still matches the oracle and later rounds regenerate cleanly.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 3, 2, 4000);
  job.config.checkpoint.interval_epochs = 1;
  job.config.checkpoint.replication_factor = 2;

  SlashEngine engine;
  const Nanos makespan = StaticMakespan(engine, job);

  elastic::ReconfigPlan plan;
  plan.leaves.push_back({.at = Nanos(double(makespan) * 0.5), .node = 1});
  job.cluster.reconfig = &plan;

  const RunStats stats = engine.Run(job);
  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.elastic_leaves(), 1u);
  EXPECT_GT(stats.checkpoints_taken(), 0u);
}

TEST(ElasticLeaveTest, LeaveOfACrashedNodeIsNotCounted) {
  // Node 3 crashes before its scheduled leave fires. The leave is consumed
  // as moot (the node is already out), so no handoff runs and the elastic
  // counters, which count executed handoffs, stay at zero.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 4, 2, 3000);

  SlashEngine engine;
  const Nanos makespan = StaticMakespan(engine, job);

  sim::FaultPlan faults;
  faults.node_crashes.push_back({.at = Nanos(double(makespan) * 0.3),
                                 .node = 3});
  job.cluster.fault_plan = &faults;
  elastic::ReconfigPlan plan;
  plan.leaves.push_back({.at = Nanos(double(makespan) * 0.6), .node = 3});
  ASSERT_TRUE(plan.Validate(job.cluster.nodes).ok());
  job.cluster.reconfig = &plan;

  const RunStats stats = engine.Run(job);
  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.recoveries(), 1u);
  EXPECT_EQ(stats.elastic_leaves(), 0u);
  EXPECT_EQ(stats.reconfigs(), 0u);
  EXPECT_EQ(stats.partitions_moved(), 0u);
  EXPECT_EQ(stats.handoff_ns(), 0);
}

/// The "ts" (virtual microseconds, 3 decimals) and "pid" of the first
/// Chrome-trace event named `name` with phase `phase`, or {"", -1}.
std::pair<std::string, int> FindTraceEvent(const std::string& json,
                                           std::string_view name,
                                           char phase) {
  const std::string head = "{\"name\": \"" + std::string(name) + "\"";
  const std::string ph = "\"ph\": \"" + std::string(1, phase) + "\"";
  for (size_t at = json.find(head); at != std::string::npos;
       at = json.find(head, at + 1)) {
    const std::string event = json.substr(at, json.find('}', at) - at);
    if (event.find(ph) == std::string::npos) continue;
    const size_t ts = event.find("\"ts\": ") + 6;
    const size_t pid = event.find("\"pid\": ") + 7;
    return {event.substr(ts, event.find(',', ts) - ts),
            std::stoi(event.substr(pid))};
  }
  return {"", -1};
}

TEST(ElasticJoinTest, CrashDuringHandoffFoldsIntoOneRecovery) {
  // A node that is not the joiner crashes while the join's rebuild is
  // still pending: the aborted handoff and the crash fold into one
  // recovery (no second teardown), which must still reach the oracle.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 3, 2, 3000);

  SlashEngine engine;
  const Nanos makespan = StaticMakespan(engine, job);

  elastic::ReconfigPlan plan;
  plan.initial_nodes = 2;
  const Nanos join_at = Nanos(double(makespan) * 0.4);
  plan.joins.push_back({.at = join_at, .node = 2});
  job.cluster.reconfig = &plan;
  // The rebuild waits at least one channel set-up (10 us) per new channel,
  // so 5 us after the join the handoff is still in flight.
  const Nanos crash_at = join_at + 5 * kMicrosecond;
  sim::FaultPlan faults;
  faults.node_crashes.push_back({.at = crash_at, .node = 1});
  job.cluster.fault_plan = &faults;

  std::string traces[2];
  std::string snapshots[2];
  for (int i = 0; i < 2; ++i) {
    obs::Tracer tracer(obs::Tracer::Options{.capacity = 1 << 18,
                                            .enabled = true});
    job.config.tracer = &tracer;
    const RunStats stats = engine.Run(job);
    ExpectMatchesOracle(stats, Oracle(job));
    EXPECT_EQ(stats.elastic_joins(), 1u);
    EXPECT_EQ(stats.recoveries(), 1u);
    EXPECT_GT(stats.handoff_ns(), 0);
    EXPECT_EQ(tracer.dropped(), 0u);
    traces[i] = tracer.ToChromeJson();
    snapshots[i] = stats.metrics.ToJson();
  }
  EXPECT_EQ(traces[0], traces[1]) << "crash-during-handoff replay diverged";
  EXPECT_EQ(snapshots[0], snapshots[1]);

  // The handoff span opens on the joiner at the join and is closed on the
  // same track by the crash that superseded it.
  const auto begin = FindTraceEvent(traces[0], "elastic.handoff", 'B');
  const auto end = FindTraceEvent(traces[0], "elastic.handoff", 'E');
  char crash_us[32];
  std::snprintf(crash_us, sizeof(crash_us), "%lld.%03lld",
                static_cast<long long>(crash_at / 1000),
                static_cast<long long>(crash_at % 1000));
  EXPECT_EQ(begin.second, 2);
  EXPECT_EQ(end.first, crash_us);
  EXPECT_EQ(end.second, begin.second);
}

// --- Join then leave --------------------------------------------------------

TEST(ElasticJoinLeaveTest, JoinThenLeaveOfDifferentNodesMatchesOracle) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 4, 2, 3000);

  SlashEngine engine;
  const Nanos makespan = StaticMakespan(engine, job);

  // Grow {0,1,2} -> {0,1,2,3}, then shrink to {0,2,3}.
  elastic::ReconfigPlan plan;
  plan.initial_nodes = 3;
  plan.joins.push_back({.at = Nanos(double(makespan) * 0.3), .node = 3});
  plan.leaves.push_back({.at = Nanos(double(makespan) * 0.65), .node = 1});
  ASSERT_TRUE(plan.Validate(job.cluster.nodes).ok());
  job.cluster.reconfig = &plan;

  const RunStats stats = engine.Run(job);
  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.elastic_joins(), 1u);
  EXPECT_EQ(stats.elastic_leaves(), 1u);
  EXPECT_EQ(stats.reconfigs(), 2u);
}

TEST(ElasticJoinLeaveTest, JoinWorksOnNexmarkJoinQuery) {
  // The handoff machinery is query-agnostic: a two-stream join workload
  // (keyed join state, two input kinds per flow) survives a mid-run join.
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 40;
  workloads::Nb8Workload workload(ncfg);
  JobSpec job = ElasticJob(workload, 3, 2, 900);

  SlashEngine engine;
  const Nanos makespan = StaticMakespan(engine, job);

  elastic::ReconfigPlan plan;
  plan.initial_nodes = 2;
  plan.joins.push_back({.at = Nanos(double(makespan) * 0.4), .node = 2});
  job.cluster.reconfig = &plan;

  const RunStats stats = engine.Run(job);
  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.elastic_joins(), 1u);
}

// --- Planned leave is retirement, not failure (health integration) ----------

TEST(ElasticHealthTest, PlannedLeaveRaisesNoSuspicionOrQuarantine) {
  // With the failure detector on, a graceful leave must be communicated as
  // a membership retirement: the departed node is dropped from the probe
  // rotation and the majority denominator, never accused. Zero suspicions,
  // zero quarantines, zero recoveries — and oracle-identical output.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 4, 2, 3000);
  job.cluster.health.enabled = true;
  job.cluster.health.heartbeat_interval = 20 * kMicrosecond;
  job.cluster.health.probe_timeout = 10 * kMicrosecond;
  job.cluster.health.suspicion_threshold = 4;
  job.cluster.health.recovery_deadline = 10 * kMillisecond;

  SlashEngine engine;
  const Nanos makespan = StaticMakespan(engine, job);

  elastic::ReconfigPlan plan;
  plan.leaves.push_back({.at = Nanos(double(makespan) * 0.4), .node = 3});
  job.cluster.reconfig = &plan;

  const RunStats stats = engine.Run(job);
  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.elastic_leaves(), 1u);
  EXPECT_EQ(stats.suspicions(), 0u)
      << "the failure detector accused a node that left on purpose";
  EXPECT_EQ(stats.quarantines(), 0u);
  EXPECT_EQ(stats.recoveries(), 0u);
  EXPECT_GT(stats.health_probes_sent(), 0u);
}

TEST(ElasticHealthTest, JoinerEntersTheProbeRotation) {
  // A joiner becomes a health member: probes flow to and from it after the
  // handoff, and its silence before the join is never counted against it.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 3, 2, 3000);
  job.cluster.health.enabled = true;
  job.cluster.health.heartbeat_interval = 20 * kMicrosecond;
  job.cluster.health.probe_timeout = 10 * kMicrosecond;
  job.cluster.health.suspicion_threshold = 4;
  job.cluster.health.recovery_deadline = 10 * kMillisecond;

  SlashEngine engine;
  const Nanos makespan = StaticMakespan(engine, job);

  elastic::ReconfigPlan plan;
  plan.initial_nodes = 2;
  plan.joins.push_back({.at = Nanos(double(makespan) * 0.4), .node = 2});
  job.cluster.reconfig = &plan;

  const RunStats stats = engine.Run(job);
  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_EQ(stats.elastic_joins(), 1u);
  EXPECT_EQ(stats.suspicions(), 0u)
      << "pre-join silence must not be counted as probe misses";
  EXPECT_EQ(stats.quarantines(), 0u);
}

// --- The ISSUE scenario: autoscale 4 -> 16 -> 8 -----------------------------

TEST(ElasticAutoscaleTest, FourToSixteenToEightIsExactAndDeterministic) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 600;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 16, 1, 1500);

  SlashEngine engine;
  const Nanos makespan = StaticMakespan(engine, job);

  // Scale out 4 -> 16 across [8%, 30%] of the static makespan, then back
  // down 16 -> 8 across [45%, 80%]. Handoffs are serialized by deferral,
  // so closely spaced events simply queue behind each other.
  elastic::ReconfigPlan plan;
  plan.initial_nodes = 4;
  plan.min_active = 4;
  for (int i = 0; i < 12; ++i) {
    const double f = 0.08 + 0.02 * double(i);
    plan.joins.push_back({.at = Nanos(double(makespan) * f), .node = 4 + i});
  }
  for (int i = 0; i < 8; ++i) {
    const double f = 0.45 + 0.05 * double(i);
    plan.leaves.push_back({.at = Nanos(double(makespan) * f), .node = 15 - i});
  }
  ASSERT_TRUE(plan.Validate(job.cluster.nodes).ok());
  job.cluster.reconfig = &plan;

  const RunStats first = engine.Run(job);
  ExpectMatchesOracle(first, Oracle(job));
  EXPECT_EQ(first.elastic_joins(), 12u);
  EXPECT_EQ(first.elastic_leaves(), 8u);
  EXPECT_EQ(first.reconfigs(), 20u);
  EXPECT_EQ(first.recoveries(), 0u);
  EXPECT_GT(first.handoff_ns(), 0);
  EXPECT_GT(first.partitions_moved(), 0u);

  // Byte-identical replay: the reconfiguration control plane is part of
  // the deterministic surface — same plan, same seed, same everything.
  const RunStats second = engine.Run(job);
  ASSERT_TRUE(second.ok()) << second.status.message();
  EXPECT_EQ(first.result_checksum(), second.result_checksum());
  EXPECT_EQ(first.makespan(), second.makespan());
  EXPECT_EQ(first.reconfig_trace_digest(), second.reconfig_trace_digest());
  EXPECT_EQ(first.metrics.ToJson(), second.metrics.ToJson())
      << "autoscale replay diverged";
}

// --- Load-triggered autoscaling ---------------------------------------------

TEST(ElasticTriggerTest, LoadTriggerGrowsTheClusterUnderIngestPressure) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 4, 2, 4000);

  // Any sustained ingest trips the grow threshold; the cluster should
  // climb from 2 actives toward the max while records are flowing.
  elastic::ReconfigPlan plan;
  plan.initial_nodes = 2;
  plan.trigger.enabled = true;
  plan.trigger.interval = 20 * kMicrosecond;
  plan.trigger.join_above = 1;
  plan.trigger.cooldown_intervals = 1;
  ASSERT_TRUE(plan.Validate(job.cluster.nodes).ok());
  job.cluster.reconfig = &plan;

  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  ExpectMatchesOracle(stats, Oracle(job));
  EXPECT_GT(stats.elastic_joins(), 0u) << "the load trigger never fired";

  const RunStats replay = engine.Run(job);
  ASSERT_TRUE(replay.ok()) << replay.status.message();
  EXPECT_EQ(stats.metrics.ToJson(), replay.metrics.ToJson())
      << "trigger-driven autoscale replay diverged";
}

// --- Plan validation --------------------------------------------------------

TEST(ReconfigPlanValidationTest, RejectsLeaveBelowQuorumFloor) {
  elastic::ReconfigPlan plan;
  plan.min_active = 3;
  plan.leaves.push_back({.at = 100, .node = 3});
  plan.leaves.push_back({.at = 200, .node = 2});  // would leave 2 < 3 active
  const Status s = plan.Validate(4);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  plan.leaves.pop_back();  // 4 -> 3 actives is exactly at the floor: fine
  EXPECT_TRUE(plan.Validate(4).ok());
}

TEST(ReconfigPlanValidationTest, RejectsJoinOfAlreadyActiveNode) {
  elastic::ReconfigPlan plan;  // initial_nodes = 0: everyone starts active
  plan.joins.push_back({.at = 100, .node = 1});
  EXPECT_FALSE(plan.Validate(4).ok());

  elastic::ReconfigPlan partial;
  partial.initial_nodes = 2;
  partial.joins.push_back({.at = 100, .node = 1});  // 1 is already active
  EXPECT_FALSE(partial.Validate(4).ok());

  partial.joins[0].node = 2;  // 2 is genuinely inactive
  EXPECT_TRUE(partial.Validate(4).ok());
}

TEST(ReconfigPlanValidationTest, RejectsStructurallyInvalidSchedules) {
  // Leave of a node that is not active.
  elastic::ReconfigPlan absent;
  absent.initial_nodes = 2;
  absent.leaves.push_back({.at = 100, .node = 3});
  EXPECT_FALSE(absent.Validate(4).ok());

  // Re-join after a planned leave.
  elastic::ReconfigPlan rejoin;
  rejoin.leaves.push_back({.at = 100, .node = 3});
  rejoin.joins.push_back({.at = 200, .node = 3});
  EXPECT_FALSE(rejoin.Validate(4).ok());

  // Unsorted events, duplicate times, out-of-range nodes.
  elastic::ReconfigPlan unsorted;
  unsorted.initial_nodes = 1;
  unsorted.joins.push_back({.at = 200, .node = 1});
  unsorted.joins.push_back({.at = 100, .node = 2});
  EXPECT_FALSE(unsorted.Validate(4).ok());

  elastic::ReconfigPlan dup;
  dup.initial_nodes = 2;
  dup.joins.push_back({.at = 100, .node = 2});
  dup.leaves.push_back({.at = 100, .node = 0});
  EXPECT_FALSE(dup.Validate(4).ok());

  elastic::ReconfigPlan range;
  range.initial_nodes = 2;
  range.joins.push_back({.at = 100, .node = 9});
  EXPECT_FALSE(range.Validate(4).ok());

  // initial_nodes below the quorum floor.
  elastic::ReconfigPlan tiny;
  tiny.initial_nodes = 1;
  tiny.min_active = 2;
  EXPECT_FALSE(tiny.Validate(4).ok());
}

TEST(ReconfigPlanValidationTest, RejectsMembershipEventsInsidePartitions) {
  // A membership change scheduled inside an un-healed partition window
  // cannot reach consensus and must fail cross-validation.
  sim::FaultPlan faults;
  faults.partitions.push_back({.at = 1000, .side_a = {0}});
  faults.partition_heals.push_back({.at = 5000});

  elastic::ReconfigPlan inside;
  inside.initial_nodes = 2;
  inside.joins.push_back({.at = 2000, .node = 2});
  ASSERT_TRUE(inside.Validate(4).ok());
  EXPECT_FALSE(inside.ValidateWithFaults(faults, 4).ok());

  elastic::ReconfigPlan after_heal;
  after_heal.initial_nodes = 2;
  after_heal.joins.push_back({.at = 6000, .node = 2});
  EXPECT_TRUE(after_heal.ValidateWithFaults(faults, 4).ok());

  // A permanent partition blocks everything scheduled after it.
  sim::FaultPlan permanent;
  permanent.partitions.push_back({.at = 1000, .side_a = {0}});
  EXPECT_FALSE(after_heal.ValidateWithFaults(permanent, 4).ok());

  elastic::ReconfigPlan leave_inside;
  leave_inside.leaves.push_back({.at = 2000, .node = 3});
  ASSERT_TRUE(leave_inside.Validate(4).ok());
  EXPECT_FALSE(leave_inside.ValidateWithFaults(faults, 4).ok());
}

TEST(ReconfigPlanValidationTest, RejectsMalformedTriggers) {
  elastic::ReconfigPlan plan;
  plan.trigger.enabled = true;
  plan.trigger.interval = 0;
  EXPECT_FALSE(plan.Validate(4).ok());

  plan = elastic::ReconfigPlan{};
  plan.trigger.enabled = true;
  plan.trigger.min_active = 0;
  EXPECT_FALSE(plan.Validate(4).ok());

  plan = elastic::ReconfigPlan{};
  plan.trigger.enabled = true;
  plan.trigger.join_above = 10;
  plan.trigger.leave_below = 20;  // inverted hysteresis band
  EXPECT_FALSE(plan.Validate(4).ok());
}

// --- Registration-time rejection through the engines ------------------------

TEST(ElasticRejectionTest, InvalidPlanFailsRunBeforeAnyVirtualTime) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 4, 2, 500);

  elastic::ReconfigPlan plan;
  plan.joins.push_back({.at = 100, .node = 1});  // already active
  job.cluster.reconfig = &plan;

  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.makespan(), 0);
}

TEST(ElasticRejectionTest, PlanOverlappingFaultPartitionFailsRun) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 4, 2, 500);

  sim::FaultPlan faults;
  faults.partitions.push_back({.at = 1000, .side_a = {0}});
  job.cluster.fault_plan = &faults;

  elastic::ReconfigPlan plan;
  plan.initial_nodes = 3;
  plan.joins.push_back({.at = 2000, .node = 3});  // inside the cut
  job.cluster.reconfig = &plan;

  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
}

TEST(ElasticRejectionTest, ReconfigWithoutCheckpointingIsRejected) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ElasticJob(workload, 4, 2, 500);
  job.config.checkpoint.enabled = false;

  elastic::ReconfigPlan plan;
  plan.initial_nodes = 3;
  plan.joins.push_back({.at = 1000, .node = 3});
  job.cluster.reconfig = &plan;

  SlashEngine engine;
  const RunStats stats = engine.Run(job);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
}

TEST(ElasticRejectionTest, BaselineEnginesRejectReconfiguration) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100;
  workloads::YsbWorkload workload(ycfg);

  elastic::ReconfigPlan plan;
  plan.initial_nodes = 1;
  plan.joins.push_back({.at = 1000, .node = 1});

  JobSpec job = ElasticJob(workload, 2, 2, 500);
  job.cluster.reconfig = &plan;

  engines::FlinkLikeEngine flink;
  RunStats stats = flink.Run(job);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kUnimplemented);

  engines::UpParEngine uppar;
  JobSpec uppar_job = job;
  uppar_job.config.checkpoint.enabled = false;
  stats = uppar.Run(uppar_job);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kUnimplemented);

  engines::LightSaberEngine lightsaber;
  JobSpec lightsaber_job = ElasticJob(workload, 1, 2, 500);
  elastic::ReconfigPlan lplan;
  lplan.trigger.enabled = true;
  lightsaber_job.cluster.reconfig = &lplan;
  lightsaber_job.config.checkpoint.enabled = false;
  stats = lightsaber.Run(lightsaber_job);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kUnimplemented);
}

// --- Rebalancer placement unit coverage -------------------------------------

TEST(RebalancerTest, ActiveNodesKeepIdentityPartitions) {
  const std::vector<bool> active = {true, false, true, true};
  const std::vector<int> owner =
      elastic::Rebalancer::PlacePartitions(active, {});
  ASSERT_EQ(owner.size(), 4u);
  EXPECT_EQ(owner[0], 0);
  EXPECT_EQ(owner[2], 2);
  EXPECT_EQ(owner[3], 3);
  EXPECT_TRUE(owner[1] == 0 || owner[1] == 2 || owner[1] == 3);
}

TEST(RebalancerTest, OrphansGoToLeastLoadedActives) {
  const std::vector<bool> active = {true, true, false, false};
  // Node 0 already carries heavy load; both orphans should land on node 1
  // first, then balance.
  const std::vector<uint64_t> load = {1000, 10, 300, 200};
  const std::vector<int> owner =
      elastic::Rebalancer::PlacePartitions(active, load);
  EXPECT_EQ(owner[2], 1);  // heaviest orphan -> least-loaded active
  EXPECT_EQ(owner[3], 1);  // 10+300 still below 1000
}

TEST(RebalancerTest, PlacementIsDeterministicUnderTies) {
  const std::vector<bool> active = {true, true, false, false};
  const std::vector<uint64_t> load = {5, 5, 7, 7};
  const std::vector<int> a = elastic::Rebalancer::PlacePartitions(active, load);
  const std::vector<int> b = elastic::Rebalancer::PlacePartitions(active, load);
  EXPECT_EQ(a, b);
}

TEST(RebalancerTest, FlowsFollowIdentityThenBalance) {
  const std::vector<bool> active = {true, false, true};
  const std::vector<int> home =
      elastic::Rebalancer::PlaceFlows(active, /*workers_per_node=*/2,
                                      /*total_flows=*/6);
  ASSERT_EQ(home.size(), 6u);
  EXPECT_EQ(home[0], 0);
  EXPECT_EQ(home[1], 0);
  EXPECT_EQ(home[4], 2);
  EXPECT_EQ(home[5], 2);
  // Node 1's flows split across the actives.
  EXPECT_TRUE(home[2] == 0 || home[2] == 2);
  EXPECT_TRUE(home[3] == 0 || home[3] == 2);
  EXPECT_NE(home[2], home[3]);
}

}  // namespace
}  // namespace slash
