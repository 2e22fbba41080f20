// Supplementary experiment: RDMA ingestion (paper Fig. 1 / Sec. 6 intro).
//
// The paper's evaluation streams pre-generated data from local memory
// (Sec. 8.2.1 methodology); the architecture, however, ingests streams over
// RDMA channels from source nodes "at full RDMA network speed". This bench
// compares the two ingestion paths on the same queries: with RDMA
// ingestion, raw records cross the fabric (bounded by the 11.8 GB/s NIC),
// while state-delta traffic rides the same links.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_util/harness.h"
#include "engines/slash_engine.h"
#include "workloads/readonly.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

SeriesTable* Table() {
  static SeriesTable* table =
      new SeriesTable("Supplementary: local-memory vs RDMA ingestion (Slash)");
  return table;
}

void RunCase(benchmark::State& state, bool ysb, bool rdma_ingestion) {
  std::unique_ptr<workloads::Workload> workload;
  if (ysb) {
    workloads::YsbConfig cfg;
    cfg.key_range = 100'000;
    workload = std::make_unique<workloads::YsbWorkload>(cfg);
  } else {
    workloads::RoConfig cfg;
    cfg.key_range = 100'000;
    workload = std::make_unique<workloads::RoWorkload>(cfg);
  }
  engines::JobConfig job = BenchJob();
  job.records_per_worker = BenchRecords(15'000);
  job.rdma_ingestion = rdma_ingestion;
  const engines::JobSpec spec =
      engines::MakeJobSpec("", *workload, BenchCluster(4, 8), job);
  engines::RunStats stats;
  for (auto _ : state) {
    engines::SlashEngine engine;
    stats = engine.Run(spec);
    RequireCompleted(stats, rdma_ingestion ? "ingestion/rdma"
                                           : "ingestion/local");
  }
  state.counters["Mrec/s"] = stats.throughput_rps() / 1e6;
  state.counters["net_GB/s"] = stats.network_gbytes_per_sec();
  Table()->Add(rdma_ingestion ? "RDMA ingestion" : "local memory",
               ysb ? "YSB" : "RO", "throughput [M rec/s]",
               stats.throughput_rps() / 1e6);
  Table()->Add(rdma_ingestion ? "RDMA ingestion" : "local memory",
               ysb ? "YSB" : "RO", "network [GB/s]", stats.network_gbytes_per_sec());
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  for (const bool ysb : {false, true}) {
    for (const bool ingest : {false, true}) {
      const std::string name = std::string("ingestion/") +
                               (ysb ? "YSB" : "RO") + "/" +
                               (ingest ? "rdma" : "local");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [ysb, ingest](benchmark::State& state) {
            slash::bench::RunCase(state, ysb, ingest);
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
