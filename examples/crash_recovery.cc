// Crash recovery demo: a YSB run on a 3-node Slash cluster loses a node
// mid-run and still finishes with results identical to the fault-free
// oracle — the headline robustness property of epoch-aligned
// checkpointing.
//
//   $ ./build/examples/crash_recovery
//
// The program first runs the cluster fault-free to learn the makespan,
// then re-runs the identical workload with a kNodeCrash injected at 50%
// of that makespan. Survivors restore the dead node's partition from the
// latest replicated checkpoint, replay the lost input from the sources,
// and finish the run; the recovery metrics below come out of RunStats.
#include <cstdio>

#include "bench_util/harness.h"
#include "core/oracle.h"
#include "engines/slash_engine.h"
#include "sim/fault.h"
#include "workloads/ysb.h"

int main() {
  using namespace slash;  // NOLINT: example brevity

  workloads::YsbConfig ycfg;
  ycfg.key_range = 20'000;
  workloads::YsbWorkload workload(ycfg);

  engines::ClusterConfig cluster;
  cluster.nodes = 3;
  cluster.workers_per_node = 2;
  engines::JobConfig job;
  job.records_per_worker = 20'000;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.collect_rows = true;
  job.checkpoint.enabled = true;
  job.checkpoint.replication_factor = 2;

  engines::SlashEngine engine;

  // Pass 1: fault-free, to learn when to strike.
  const engines::RunStats clean =
      engine.Run(engines::MakeJobSpec("", workload, cluster, job));
  bench::RequireCompleted(clean, "crash_recovery/clean");

  // Pass 2: kill node 1 halfway through the run.
  sim::FaultPlan plan;
  plan.node_crashes.push_back(
      {.at = Nanos(double(clean.makespan()) * 0.5), .node = 1});
  cluster.fault_plan = &plan;
  const engines::RunStats stats =
      engine.Run(engines::MakeJobSpec("", workload, cluster, job));
  bench::RequireCompleted(stats, "crash_recovery/crashed");

  std::printf("workload              : YSB, %d nodes x %d workers\n",
              cluster.nodes, cluster.workers_per_node);
  std::printf("crash injected        : node 1 at %s\n",
              FormatNanos(plan.node_crashes[0].at).c_str());
  std::printf("makespan (clean)      : %s\n",
              FormatNanos(clean.makespan()).c_str());
  std::printf("makespan (crashed)    : %s\n",
              FormatNanos(stats.makespan()).c_str());
  std::printf("checkpoints taken     : %llu\n",
              static_cast<unsigned long long>(stats.checkpoints_taken()));
  std::printf("bytes replicated      : %s\n",
              FormatBytes(stats.checkpoint_bytes_replicated()).c_str());
  std::printf("recoveries            : %llu\n",
              static_cast<unsigned long long>(stats.recoveries()));
  std::printf("recovery time         : %s\n",
              FormatNanos(stats.recovery_ns()).c_str());
  std::printf("records replayed      : %llu\n",
              static_cast<unsigned long long>(stats.records_replayed()));

  // The point of the exercise: the crashed run's windowed results are
  // bit-identical to the sequential reference computation.
  const core::OracleOutput oracle = core::ComputeOracle(
      workload.MakeQuery(), workload.Sources(job.records_per_worker, job.seed),
      cluster.nodes * cluster.workers_per_node);
  const bool ok = stats.records_emitted() == oracle.count &&
                  stats.result_checksum() == oracle.checksum;
  std::printf("oracle check          : %s (%llu rows, checksum %016llx)\n",
              ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(stats.records_emitted()),
              static_cast<unsigned long long>(stats.result_checksum()));
  return ok ? 0 : 1;
}
