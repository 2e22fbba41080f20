// Figure 10 and Table 1 from one pair of YSB runs (RDMA UpPar and Slash,
// 2 nodes, 10 workers, 64 KiB buffers: the best configurations).
//
// Figure 10: execution breakdown — top-down pipeline categories for Slash
// and for UpPar's senders and receivers.
//
// Paper shape: Slash is primarily memory-bound (RMWs against the SSB) and
// spends ~20% of its cycles retiring; UpPar's sender suffers front-end
// stalls from partitioning and its receiver is core-bound (pause-loop
// polling on many channels), retiring only ~10%.
//
// Table 1: resource utilization — IPC, instructions and cycles per record,
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
#include <string>

#include "bench_util/harness.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

void AddResourceUsage(SeriesTable& table, const std::string& role,
                      const perf::Counters& c, Nanos makespan) {
  constexpr const char* kMetric = "resource usage";
  const double r = c.records ? double(c.records) : 1.0;
  table.Add(role, "IPC", kMetric, c.ipc());
  table.Add(role, "Instr/Rec", kMetric, c.instructions / r);
  table.Add(role, "Cyc/Rec", kMetric, c.total_cycles() / r);
  table.Add(role, "L1d/Rec", kMetric, c.l1d_misses / r);
  table.Add(role, "L2d/Rec", kMetric, c.l2d_misses / r);
  table.Add(role, "LLC/Rec", kMetric, c.llc_misses / r);
  table.Add(role, "MemGB/s", kMetric,
            makespan > 0 ? double(c.mem_bytes) / double(makespan) : 0.0);
}

void RunPair(SeriesTable& fig10, SeriesTable& table1) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100'000;  // keyspace scaled with input size
  workloads::YsbWorkload workload(ycfg);
  engines::JobConfig job = BenchJob();
  job.records_per_worker = BenchRecords(20'000);
  const engines::JobSpec spec =
      engines::MakeJobSpec("", workload, BenchCluster(2, 10), job);

  engines::UpParEngine uppar_engine;
  engines::SlashEngine slash_engine;
  const engines::RunStats uppar = uppar_engine.Run(spec);
  const engines::RunStats slash = slash_engine.Run(spec);
  RequireCompleted(uppar, "fig10/UpPar");
  RequireCompleted(slash, "fig10/Slash");

  const auto roles = uppar.role_counters();
  const perf::Counters& sender = roles.at("sender");
  const perf::Counters& receiver = roles.at("receiver");
  const perf::Counters slash_all = slash.TotalCounters();
  AddTopDown(fig10, "UpPar sender", sender);
  AddTopDown(fig10, "UpPar receiver", receiver);
  AddTopDown(fig10, "Slash", slash_all);
  AddResourceUsage(table1, "UpPar sender", sender, uppar.makespan());
  AddResourceUsage(table1, "UpPar receiver", receiver, uppar.makespan());
  AddResourceUsage(table1, "Slash", slash_all, slash.makespan());
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable fig10("Fig 10: execution breakdown of YSB");
  SeriesTable table1("Table 1: resource utilization on YSB, 2 nodes");
  RunPoints(argc, argv, {{"BM_Fig10", [&] { RunPair(fig10, table1); }}});
  fig10.PrintAll();
  table1.PrintAll();
  return 0;
}
