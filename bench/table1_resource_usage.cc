// Table 1: resource utilization of RDMA UpPar (sender and receiver) and
// Slash on YSB using two nodes — IPC, instructions and cycles per record,
// cache misses per record, and aggregate memory bandwidth.
//
// Paper values (hardware counters on the authors' testbed):
//              IPC  Instr/Rec  Cyc/Rec  L1d/Rec  L2d/Rec  LLC/Rec  MemBW
//   UpPar snd  0.6     166       274      1.36     1.31     1.2    4.1 GB/s
//   UpPar rcv  0.4      78       276      1.74     1.42     0.4    4.2 GB/s
//   Slash      0.9      42        53      1.75     1.52     1.3   70.2 GB/s
//
// Ours come from the calibrated cost model (see DESIGN.md substitutions):
// identical metric definitions, software-accounted.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util/harness.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

engines::JobSpec Table1Job(const workloads::Workload& workload) {
  engines::JobConfig job = BenchJob();
  job.records_per_worker = BenchRecords(20'000);
  return engines::MakeJobSpec("", workload,
                              BenchCluster(/*nodes=*/2, /*workers=*/10), job);
}

void PrintRow(const char* label, const perf::Counters& c, Nanos makespan) {
  const double r = c.records ? double(c.records) : 1.0;
  std::printf(
      "%-16s %5.2f %9.1f %8.1f %9.2f %9.2f %9.2f %9.1f\n", label, c.ipc(),
      c.instructions / r, c.total_cycles() / r, c.l1d_misses / r,
      c.l2d_misses / r, c.llc_misses / r,
      makespan > 0 ? double(c.mem_bytes) / double(makespan) : 0.0);
}

void BM_Table1(benchmark::State& state) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100'000;  // keyspace scaled with input size (see DESIGN.md)
  workloads::YsbWorkload workload(ycfg);
  const engines::JobSpec job = Table1Job(workload);

  engines::RunStats uppar, slash;
  for (auto _ : state) {
    engines::UpParEngine uppar_engine;
    engines::SlashEngine slash_engine;
    uppar = uppar_engine.Run(job);
    slash = slash_engine.Run(job);
    RequireCompleted(uppar, "table1/UpPar");
    RequireCompleted(slash, "table1/Slash");
  }

  std::printf(
      "\nTable 1: resource utilization on YSB, 2 nodes (simulated)\n"
      "%-16s %5s %9s %8s %9s %9s %9s %9s\n",
      "", "IPC", "Instr/Rec", "Cyc/Rec", "L1d/Rec", "L2d/Rec", "LLC/Rec",
      "MemGB/s");
  PrintRow("UpPar sender", uppar.role_counters().at("sender"), uppar.makespan());
  PrintRow("UpPar receiver", uppar.role_counters().at("receiver"),
           uppar.makespan());
  perf::Counters slash_all = slash.TotalCounters();
  PrintRow("Slash", slash_all, slash.makespan());

  state.counters["slash_Mrec/s"] = slash.throughput_rps() / 1e6;
  state.counters["uppar_Mrec/s"] = uppar.throughput_rps() / 1e6;
  state.counters["speedup"] = slash.throughput_rps() / uppar.throughput_rps();
}

BENCHMARK(BM_Table1)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slash::bench

BENCHMARK_MAIN();
