// Ablation: epoch length of the SSB coherence protocol (Sec. 8.1.1 fixes
// it at 64 MiB of processed input).
//
// Shorter epochs synchronize more often (more, smaller deltas; lower
// result latency; less RMW consolidation per delta), longer epochs
// amortize the drain but delay window results and grow fragments. This
// sweep shows the throughput/merge-volume trade-off on YSB.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util/harness.h"
#include "engines/slash_engine.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

SeriesTable* Table() {
  static SeriesTable* table =
      new SeriesTable("Ablation: SSB epoch length (Slash, YSB, 4 nodes)");
  return table;
}

void RunCase(benchmark::State& state, uint64_t epoch_kib) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100'000;
  workloads::YsbWorkload workload(ycfg);
  engines::JobConfig job = BenchJob();
  job.records_per_worker = BenchRecords(20'000);
  job.epoch_bytes = epoch_kib * kKiB;
  const engines::JobSpec spec =
      engines::MakeJobSpec("", workload, BenchCluster(4, 8), job);
  engines::RunStats stats;
  for (auto _ : state) {
    engines::SlashEngine engine;
    stats = engine.Run(spec);
    RequireCompleted(stats, "ablation_epoch/" + std::to_string(epoch_kib) +
                                "KiB");
  }
  state.counters["Mrec/s"] = stats.throughput_rps() / 1e6;
  state.counters["net_MB"] = double(stats.network_bytes()) / 1e6;
  Table()->Add("Slash", std::to_string(epoch_kib) + "KiB",
               "throughput [M rec/s]", stats.throughput_rps() / 1e6);
  Table()->Add("Slash", std::to_string(epoch_kib) + "KiB",
               "network volume [MB]", double(stats.network_bytes()) / 1e6);
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  for (const uint64_t kib : {64, 256, 1024, 4096, 16384}) {
    const std::string name = "ablation_epoch/e:" + std::to_string(kib) + "KiB";
    benchmark::RegisterBenchmark(
        name.c_str(),
        [kib](benchmark::State& state) { slash::bench::RunCase(state, kib); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  slash::bench::Table()->PrintAll();
  return 0;
}
