// Figure 7: COST analysis (McSherry et al.) — Slash on 2/4/8/16 nodes
// versus the LightSaber-like scale-up engine on a single node, on the
// aggregation workloads both support (YSB, CM, NB7; LightSaber has no
// joins).
//
// Paper shape: Slash beats LightSaber already at 2 nodes and reaches up to
// 11.6x on YSB/CM and 4.4x on NB7 at 16 nodes (sub-linear on NB7 due to
// the heavy-hitter key distribution).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_util/harness.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

std::unique_ptr<workloads::Workload> MakeWorkload(int id) {
  switch (id) {
    case 0: {
      workloads::YsbConfig cfg;
      cfg.key_range = 100'000;  // keyspace scaled with input size
      return std::make_unique<workloads::YsbWorkload>(cfg);
    }
    case 1:
      return std::make_unique<workloads::CmWorkload>(workloads::CmConfig{});
    default:
      return std::make_unique<workloads::Nb7Workload>(
          workloads::NexmarkConfig{});
  }
}

const char* WorkloadName(int id) {
  switch (id) {
    case 0:
      return "YSB";
    case 1:
      return "CM";
    default:
      return "NB7";
  }
}

SeriesTable* Table() {
  static SeriesTable* table = new SeriesTable("Fig 7: COST vs LightSaber");
  return table;
}

void RunCase(benchmark::State& state, int workload_id, int nodes) {
  auto workload = MakeWorkload(workload_id);
  const int workers = 10;  // paper configuration: 10 threads per node
  engines::JobConfig job = BenchJob();
  job.records_per_worker = BenchRecords(10'000);
  const engines::JobSpec spec =
      engines::MakeJobSpec("", *workload, BenchCluster(nodes, workers), job);
  engines::RunStats stats;
  for (auto _ : state) {
    if (nodes == 1) {
      engines::LightSaberEngine engine;
      stats = engine.Run(spec);
    } else {
      engines::SlashEngine engine;
      stats = engine.Run(spec);
    }
    RequireCompleted(stats, std::string(WorkloadName(workload_id)) +
                                "/nodes:" + std::to_string(nodes));
  }
  state.counters["Mrec/s"] = stats.throughput_rps() / 1e6;
  Table()->Add(nodes == 1 ? "LightSaber (L)" : "Slash",
               nodes == 1 ? "L" : "n=" + std::to_string(nodes),
               std::string("throughput [M rec/s] — ") +
                   WorkloadName(workload_id),
               stats.throughput_rps() / 1e6);
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using slash::bench::RunCase;
  using slash::bench::WorkloadName;
  for (int workload = 0; workload < 3; ++workload) {
    for (int nodes : {1, 2, 4, 8, 16}) {
      const std::string name =
          std::string("fig7/") + WorkloadName(workload) + "/" +
          (nodes == 1 ? "LightSaber" : "Slash_n" + std::to_string(nodes));
      benchmark::RegisterBenchmark(
          name.c_str(),
          [workload, nodes](benchmark::State& state) {
            RunCase(state, workload, nodes);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  slash::bench::Table()->PrintAll();
  return 0;
}
