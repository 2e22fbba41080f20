// Figure 10: execution breakdown of YSB (end-to-end) — top-down pipeline
// categories for Slash and for RDMA UpPar's senders and receivers, using
// the best configurations (2 nodes, 10 workers, 64 KiB buffers).
//
// Paper shape: Slash is primarily memory-bound (RMWs against the SSB) and
// spends ~20% of its cycles retiring; UpPar's sender suffers front-end
// stalls from partitioning and its receiver is core-bound (pause-loop
// polling on many channels), retiring only ~10%.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_util/harness.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

void PrintBreakdown(const char* label, const perf::Counters& c) {
  std::printf("%-16s", label);
  for (int i = 0; i < perf::kNumCategories; ++i) {
    std::printf("  %s=%5.1f%%",
                std::string(perf::CategoryName(perf::Category(i))).c_str(),
                c.fraction(perf::Category(i)) * 100.0);
  }
  std::printf("\n");
}

void BM_Fig10(benchmark::State& state) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100'000;  // keyspace scaled with input size
  workloads::YsbWorkload workload(ycfg);
  engines::JobConfig job = BenchJob();
  job.records_per_worker = BenchRecords(20'000);
  const engines::JobSpec spec =
      engines::MakeJobSpec("", workload, BenchCluster(2, 10), job);

  engines::RunStats uppar, slash;
  for (auto _ : state) {
    engines::UpParEngine uppar_engine;
    engines::SlashEngine slash_engine;
    uppar = uppar_engine.Run(spec);
    slash = slash_engine.Run(spec);
    RequireCompleted(uppar, "fig10/UpPar");
    RequireCompleted(slash, "fig10/Slash");
  }

  std::printf("\nFig 10: execution breakdown of YSB (top-down categories)\n");
  PrintBreakdown("UpPar sender", uppar.role_counters().at("sender"));
  PrintBreakdown("UpPar receiver", uppar.role_counters().at("receiver"));
  PrintBreakdown("Slash", slash.TotalCounters());

  const perf::Counters slash_all = slash.TotalCounters();
  state.counters["slash_MemB_pct"] =
      slash_all.fraction(perf::Category::kBackEndMemory) * 100.0;
  state.counters["slash_Ret_pct"] =
      slash_all.fraction(perf::Category::kRetiring) * 100.0;
  state.counters["uppar_snd_FeB_pct"] =
      uppar.role_counters().at("sender").fraction(perf::Category::kFrontEnd) *
      100.0;
}

BENCHMARK(BM_Fig10)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slash::bench

BENCHMARK_MAIN();
