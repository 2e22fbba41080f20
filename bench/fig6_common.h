// Shared weak-scaling driver for Fig. 6 (a-e): runs Flink-like, RDMA
// UpPar, and Slash on 2/4/8/16 nodes over one workload and prints the
// throughput series the paper plots.
//
// Scaled-down defaults (see DESIGN.md): 4 workers/node instead of 10 and
// tens of thousands of records per worker instead of 1 GB; set
// SLASH_BENCH_SCALE to multiply the input size. Weak scaling is preserved:
// input grows with the number of nodes.
#ifndef SLASH_BENCH_FIG6_COMMON_H_
#define SLASH_BENCH_FIG6_COMMON_H_

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <string>

#include "bench_util/harness.h"
#include "engines/flink_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/workload.h"

namespace slash::bench {

using WorkloadFactory = std::function<std::unique_ptr<workloads::Workload>()>;

inline std::unique_ptr<engines::Engine> MakeSut(int sut) {
  switch (sut) {
    case 0:
      return std::make_unique<engines::FlinkLikeEngine>();
    case 1:
      return std::make_unique<engines::UpParEngine>();
    default:
      return std::make_unique<engines::SlashEngine>();
  }
}

inline int WeakScalingMain(int argc, char** argv, const std::string& title,
                           const WorkloadFactory& factory,
                           uint64_t base_records_per_worker,
                           int workers_per_node = 4) {
  static SeriesTable* table = new SeriesTable(title);
  for (int sut = 0; sut < 3; ++sut) {
    for (int nodes : {2, 4, 8, 16}) {
      auto engine = MakeSut(sut);
      const std::string name =
          title + "/" + std::string(engine->name()) + "/nodes:" +
          std::to_string(nodes);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [sut, nodes, &factory, base_records_per_worker,
           workers_per_node](benchmark::State& state) {
            auto workload = factory();
            auto sut_engine = MakeSut(sut);
            engines::JobConfig job = BenchJob();
            job.records_per_worker = BenchRecords(base_records_per_worker);
            const engines::JobSpec spec = engines::MakeJobSpec(
                "", *workload, BenchCluster(nodes, workers_per_node), job);
            engines::RunStats stats;
            for (auto _ : state) {
              stats = sut_engine->Run(spec);
              RequireCompleted(stats, std::string(sut_engine->name()) +
                                          "/nodes:" + std::to_string(nodes));
            }
            state.counters["Mrec/s"] = stats.throughput_rps() / 1e6;
            state.counters["net_GB/s"] = stats.network_gbytes_per_sec();
            state.counters["results"] = double(stats.records_emitted());
            table->Add(std::string(sut_engine->name()),
                       "n=" + std::to_string(nodes), "throughput [M rec/s]",
                       stats.throughput_rps() / 1e6);
            table->Add(std::string(sut_engine->name()),
                       "n=" + std::to_string(nodes), "sim events/s (wall)",
                       stats.sim_events_per_sec_wall);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  table->PrintAll();
  return 0;
}

}  // namespace slash::bench

#endif  // SLASH_BENCH_FIG6_COMMON_H_
