// Multi-query multi-tenant execution bench (DESIGN.md §12): N ∈ {1,2,4,8}
// concurrent tenant jobs — a heterogeneous mix of YSB, Cluster Monitoring,
// and NEXMark NB8 joins — run on ONE simulated cluster via
// SlashEngine::RunJobs: one DES, one RDMA fabric, per-tenant NIC-credit
// quotas enforced at the channel layer, per-tenant metric labels splitting
// one registry snapshot into per-job RunStats views.
//
// Three questions, one binary:
//
//  1. Correctness under co-location — every tenant's result checksum is
//     CHECKed against the sequential oracle of its own query: neighbors
//     and quota throttling shift virtual time, never results.
//  2. Fairness — per-tenant drain times (obs::metric::kJobDrainNs) and
//     their min/max ratio: the DES's timestamp-ordered event queue
//     round-robins every job's coroutines, so equal jobs drain equally
//     and the mix's spread stays bounded.
//  3. Aggregate capacity — cluster throughput vs the job count, plus the
//     quota-denial counts that show the credit caps actually engaging.
//
// Every datapoint is virtual-time or a count, so the committed
// bench/baselines/BENCH_multitenant.json pins them exactly
// (tools/bench_compare.py in CI); only "sim events/s (wall)" is host-speed.
#include <benchmark/benchmark.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "common/logging.h"
#include "core/oracle.h"
#include "engines/slash_engine.h"
#include "obs/metrics.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

SeriesTable* Table() {
  static SeriesTable* table = new SeriesTable("multitenant");
  return table;
}

std::unique_ptr<workloads::Workload> MakeWorkload(int j) {
  switch (j % 3) {
    case 0:
      return std::make_unique<workloads::YsbWorkload>();
    case 1:
      return std::make_unique<workloads::CmWorkload>();
    default:
      return std::make_unique<workloads::Nb8Workload>();
  }
}

const char* WorkloadName(int j) {
  switch (j % 3) {
    case 0:
      return "ysb";
    case 1:
      return "cm";
    default:
      return "nb8";
  }
}

void MultiTenant(benchmark::State& state) {
  const int njobs = int(state.range(0));
  for (auto _ : state) {
    const engines::ClusterConfig cluster = BenchCluster(4, 4);
    engines::JobConfig job = BenchJob();
    job.records_per_worker = BenchRecords(3000);

    // Alternating gold/silver quotas: half the tenants may hold 64 NIC
    // credits in flight across all their channels, half only 32 (each
    // job's full mesh alone could hold 4*3 channels * 8 credits = 96).
    std::vector<std::unique_ptr<workloads::Workload>> workloads;
    std::vector<engines::JobSpec> jobs;
    for (int j = 0; j < njobs; ++j) {
      workloads.push_back(MakeWorkload(j));
      const uint32_t quota = (j % 2 == 0) ? 64 : 32;
      jobs.push_back(engines::MakeJobSpec("t" + std::to_string(j),
                                          *workloads.back(), cluster, job,
                                          quota));
    }

    engines::SlashEngine engine;
    const engines::MultiRunStats multi = engine.RunJobs(jobs, cluster);
    RequireCompleted(multi, "multitenant/jobs=" + std::to_string(njobs));

    // Correctness gate: each tenant's results are exactly what its query
    // computes sequentially, co-location notwithstanding.
    for (int j = 0; j < njobs; ++j) {
      const core::OracleOutput oracle = core::ComputeOracle(
          workloads[j]->MakeQuery(),
          workloads[j]->Sources(job.records_per_worker, job.seed),
          cluster.nodes * cluster.workers_per_node);
      SLASH_CHECK_EQ(multi.jobs[j].records_in(), oracle.records_in);
      SLASH_CHECK_EQ(multi.jobs[j].records_emitted(), oracle.count);
      SLASH_CHECK_EQ(multi.jobs[j].result_checksum(), oracle.checksum);
    }

    const std::string x = "jobs=" + std::to_string(njobs);
    const Nanos makespan = multi.cluster.makespan();
    Nanos min_drain = std::numeric_limits<Nanos>::max();
    Nanos max_drain = 0;
    uint64_t denials = 0;
    for (int j = 0; j < njobs; ++j) {
      const engines::RunStats& job = multi.jobs[j];
      const Nanos drain =
          Nanos(job.metrics.CounterValue(obs::metric::kJobDrainNs));
      min_drain = std::min(min_drain, drain);
      max_drain = std::max(max_drain, drain);
      denials += job.metrics.CounterValue(obs::metric::kChannelQuotaDenials);
      const std::string series =
          "t" + std::to_string(j) + "/" + WorkloadName(j);
      Table()->Add(series, x, "drain [ms]", double(drain) / 1e6);
      Table()->Add(series, x, "records in", double(job.records_in()));
      Table()->Add(series, x, "quota denials",
                   double(job.metrics.CounterValue(
                       obs::metric::kChannelQuotaDenials)));
      Table()->Add(series, x, "checksum lo32",
                   double(job.result_checksum() & 0xffffffffu));
    }

    Table()->Add("cluster", x, "makespan [ms]", double(makespan) / 1e6);
    Table()->Add("cluster", x, "aggregate throughput [M rec/s]",
                 makespan > 0 ? double(multi.cluster.records_in()) * 1e3 /
                                    double(makespan)
                              : 0.0);
    Table()->Add("cluster", x, "fairness (min/max drain)",
                 max_drain > 0 ? double(min_drain) / double(max_drain) : 1.0);
    Table()->Add("cluster", x, "quota denials", double(denials));
    Table()->Add("cluster", x, "sim events/s (wall)",
                 multi.cluster.sim_events_per_sec_wall);

    state.counters["Mrec/s"] =
        makespan > 0
            ? double(multi.cluster.records_in()) * 1e3 / double(makespan)
            : 0.0;
    state.counters["denials"] = double(denials);
    state.counters["makespan_ms"] = double(makespan) / 1e6;
  }
}

BENCHMARK(MultiTenant)
    ->ArgName("jobs")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  slash::bench::Table()->PrintAll();
  return 0;
}
