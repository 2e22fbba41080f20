// Chaos tier: randomized FaultPlan sweeps over the gray-failure kinds,
// alone and combined with randomized elastic membership schedules.
//
// Each seed derives a different deterministic schedule of network
// partitions (with or without heals), gray-node slowdowns, and one-way link
// drops — and, in the reconfiguration sweep, joins/leaves whose handoffs
// overlap those fault windows — then runs the Slash engine with the failure
// detector on and a virtual-time run deadline armed. The sweeps assert the
// three robustness contracts:
//   1. No hang: every run terminates — either OK or with a clean Status
//      (kDeadlineExceeded from the watchdog / run deadline, kUnavailable
//      when the schedule was genuinely unsurvivable). Never a CHECK crash,
//      never a stuck event loop.
//   2. Determinism: re-running the same seed reproduces the full
//      MetricsSnapshot byte for byte (virtual-time failure detection is
//      part of the deterministic replay surface).
//   3. Correctness: every run that reports OK matches the fault-free
//      oracle checksum exactly — recovery, quarantine, and rejoin never
//      surface a wrong answer; failures are loud, results are right.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "core/oracle.h"
#include "elastic/reconfig.h"
#include "engines/slash_engine.h"
#include "sim/fault.h"
#include "workloads/ysb.h"

namespace slash {
namespace {

using engines::JobSpec;
using engines::RunStats;
using engines::SlashEngine;

constexpr int kSeeds = 24;

JobSpec ChaosJob(const workloads::Workload& workload) {
  engines::ClusterConfig cluster;
  cluster.nodes = 3;
  cluster.workers_per_node = 2;
  cluster.health.enabled = true;
  cluster.health.heartbeat_interval = 20 * kMicrosecond;
  cluster.health.probe_timeout = 10 * kMicrosecond;
  cluster.health.suspicion_threshold = 4;
  cluster.health.recovery_deadline = 10 * kMillisecond;
  cluster.health.run_deadline = 200 * kMillisecond;  // hang -> clean abort
  engines::JobConfig config;
  config.records_per_worker = 8000;
  config.channel.slot_bytes = 16 * kKiB;
  config.epoch_bytes = 64 * kKiB;
  config.state_lss_capacity = 1 << 16;
  config.state_index_buckets = 1 << 10;
  config.checkpoint.enabled = true;
  return engines::MakeJobSpec("", workload, cluster, config);
}

/// Derives a deterministic random failure schedule from `seed`. Fault
/// times are placed across [10%, 120%] of the fault-free makespan so some
/// land mid-flight and some near (or past) the natural drain.
sim::FaultPlan ChaosPlan(uint64_t seed, int nodes, Nanos makespan) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  sim::FaultPlan plan;
  plan.seed = seed + 1;
  auto at = [&](double lo, double hi) {
    return Nanos(double(makespan) * (lo + (hi - lo) * rng.NextDouble()));
  };

  switch (rng.NextBounded(3)) {
    case 0: {  // partition, healed or permanent
      const int cut = int(rng.NextBounded(uint64_t(nodes)));
      const Nanos start = at(0.1, 0.6);
      plan.partitions.push_back({.at = start, .side_a = {cut}});
      if (rng.NextBounded(2) == 0) {
        plan.partition_heals.push_back(
            {.at = start + at(0.2, 0.6)});
      }
      break;
    }
    case 1: {  // gray node, bounded or permanent slowdown
      const int gray = int(rng.NextBounded(uint64_t(nodes)));
      const double factor = 20.0 + 60.0 * rng.NextDouble();
      const Nanos duration =
          rng.NextBounded(2) == 0 ? at(0.2, 0.5) : Nanos(0);
      plan.node_slows.push_back({.at = at(0.1, 0.6),
                                 .node = gray,
                                 .factor = factor,
                                 .duration = duration});
      break;
    }
    default: {  // one-way link drop, bounded or permanent
      const int src = int(rng.NextBounded(uint64_t(nodes)));
      int dst = int(rng.NextBounded(uint64_t(nodes - 1)));
      if (dst >= src) ++dst;
      const Nanos from = at(0.1, 0.6);
      const Nanos until =
          rng.NextBounded(2) == 0 ? from + at(0.2, 0.6) : Nanos(0);
      plan.one_way_drops.push_back(
          {.from = from, .until = until, .src_node = src, .dst_node = dst});
      break;
    }
  }
  return plan;
}

TEST(ChaosSweepTest, RandomGrayFailureSchedulesNeverHangOrCorrupt) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ChaosJob(workload);

  SlashEngine engine;
  const RunStats clean = engine.Run(job);
  ASSERT_TRUE(clean.ok()) << clean.status.message();
  const Nanos makespan = clean.makespan();
  const core::OracleOutput oracle = core::ComputeOracle(
      workload.MakeQuery(),
      workload.Sources(job.config.records_per_worker, job.config.seed),
      job.cluster.nodes * job.cluster.workers_per_node);

  int completed = 0;
  int aborted = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    sim::FaultPlan plan = ChaosPlan(seed, job.cluster.nodes, makespan);
    ASSERT_TRUE(plan.Validate(job.cluster.nodes).ok());
    JobSpec chaos_job = job;
    chaos_job.cluster.fault_plan = &plan;

    const RunStats first = engine.Run(chaos_job);
    if (first.ok()) {
      ++completed;
      EXPECT_EQ(first.result_checksum(), oracle.checksum)
          << "recovered run diverged from the fault-free oracle";
      EXPECT_EQ(first.records_emitted(), oracle.count);
    } else {
      ++aborted;
      // A failed chaos run must fail *cleanly*: a Status the caller can
      // act on, from the fault/health tier — never a crash or a hang.
      EXPECT_TRUE(first.status.code() == StatusCode::kUnavailable ||
                  first.status.code() == StatusCode::kDeadlineExceeded)
          << first.status.message();
    }

    // Byte-identical replay: virtual-time failure detection is part of
    // the deterministic surface.
    const RunStats second = engine.Run(chaos_job);
    EXPECT_EQ(first.status.code(), second.status.code());
    EXPECT_EQ(first.metrics.ToJson(), second.metrics.ToJson())
        << "chaos replay diverged";
  }

  // The schedule mix must actually exercise the recovery path, not abort
  // everything: most single-fault schedules on a 3-node cluster are
  // survivable.
  EXPECT_GT(completed, kSeeds / 2)
      << "chaos sweep aborted too often (completed=" << completed
      << " aborted=" << aborted << ")";
}

// --- Reconfiguration x gray-failure sweep -----------------------------------

/// Derives a deterministic membership schedule from `seed`: a join of the
/// provisioned spare, a leave of the highest active node, or both. Placed
/// across [15%, 70%] of the fault-free makespan so handoffs overlap the
/// fault windows ChaosPlan derives from the same seed space.
elastic::ReconfigPlan ChaosReconfigPlan(uint64_t seed, int nodes,
                                        Nanos makespan, Rng* rng) {
  elastic::ReconfigPlan plan;
  auto at = [&](double lo, double hi) {
    return Nanos(double(makespan) * (lo + (hi - lo) * rng->NextDouble()));
  };
  switch (rng->NextBounded(3)) {
    case 0:  // scale-out: the spare joins mid-run
      plan.initial_nodes = nodes - 1;
      plan.joins.push_back({.at = at(0.15, 0.5), .node = nodes - 1});
      break;
    case 1:  // scale-in: the top node leaves mid-run
      plan.leaves.push_back({.at = at(0.15, 0.5), .node = nodes - 1});
      break;
    default:  // join, then a different node leaves later
      plan.initial_nodes = nodes - 1;
      plan.joins.push_back({.at = at(0.15, 0.4), .node = nodes - 1});
      plan.leaves.push_back({.at = at(0.5, 0.7), .node = nodes - 2});
      break;
  }
  return plan;
}

TEST(ChaosSweepTest, ReconfigUnderGrayFailuresStaysDeterministic) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  JobSpec job = ChaosJob(workload);
  job.cluster.nodes = 4;  // room for a provisioned spare

  SlashEngine engine;
  const RunStats clean = engine.Run(job);
  ASSERT_TRUE(clean.ok()) << clean.status.message();
  const Nanos makespan = clean.makespan();
  const core::OracleOutput oracle = core::ComputeOracle(
      workload.MakeQuery(),
      workload.Sources(job.config.records_per_worker, job.config.seed),
      job.cluster.nodes * job.cluster.workers_per_node);

  int completed = 0;
  int aborted = 0;
  int skipped = 0;
  uint64_t reconfigs_executed = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("reconfig chaos seed " + std::to_string(seed));
    Rng rng(seed * 0xD1B54A32D192ED03ull + 7);
    elastic::ReconfigPlan reconfig =
        ChaosReconfigPlan(seed, job.cluster.nodes, makespan, &rng);
    sim::FaultPlan faults = ChaosPlan(seed, job.cluster.nodes, makespan);
    ASSERT_TRUE(reconfig.Validate(job.cluster.nodes).ok());
    if (!reconfig.ValidateWithFaults(faults, job.cluster.nodes).ok()) {
      // A membership event inside an un-healed partition window is a plan
      // error by contract; this sweep covers runtime interleavings, not
      // rejected plans (those have their own tests in the elastic tier).
      ++skipped;
      continue;
    }
    JobSpec chaos_job = job;
    chaos_job.cluster.fault_plan = &faults;
    chaos_job.cluster.reconfig = &reconfig;

    const RunStats first = engine.Run(chaos_job);
    if (first.ok()) {
      ++completed;
      reconfigs_executed += first.reconfigs();
      EXPECT_EQ(first.result_checksum(), oracle.checksum)
          << "elastic run under faults diverged from the oracle";
      EXPECT_EQ(first.records_emitted(), oracle.count);
    } else {
      ++aborted;
      EXPECT_TRUE(first.status.code() == StatusCode::kUnavailable ||
                  first.status.code() == StatusCode::kDeadlineExceeded)
          << first.status.message();
    }

    const RunStats second = engine.Run(chaos_job);
    EXPECT_EQ(first.status.code(), second.status.code());
    EXPECT_EQ(first.metrics.ToJson(), second.metrics.ToJson())
        << "reconfig chaos replay diverged";
  }

  EXPECT_GT(completed, (kSeeds - skipped) / 2)
      << "reconfig chaos sweep aborted too often (completed=" << completed
      << " aborted=" << aborted << " skipped=" << skipped << ")";
  EXPECT_GT(reconfigs_executed, 0u)
      << "no seed ever executed a membership change";
}

}  // namespace
}  // namespace slash
