// Ablation: epoch length of the SSB coherence protocol (Sec. 8.1.1 fixes
// it at 64 MiB of processed input).
//
// Shorter epochs synchronize more often (more, smaller deltas; lower
// result latency; less RMW consolidation per delta), longer epochs
// amortize the drain but delay window results and grow fragments. This
// sweep shows the throughput/merge-volume trade-off on YSB.
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "engines/slash_engine.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

void RunCase(SeriesTable& table, uint64_t epoch_kib) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100'000;
  workloads::YsbWorkload workload(ycfg);
  engines::JobConfig job = BenchJob();
  job.records_per_worker = BenchRecords(20'000);
  job.epoch_bytes = epoch_kib * kKiB;
  const engines::JobSpec spec =
      engines::MakeJobSpec("", workload, BenchCluster(4, 8), job);
  engines::SlashEngine engine;
  const engines::RunStats stats = engine.Run(spec);
  const std::string x = std::to_string(epoch_kib) + "KiB";
  RequireCompleted(stats, "ablation_epoch/" + x);
  table.Add("Slash", x, "throughput [M rec/s]", stats.throughput_rps() / 1e6);
  table.Add("Slash", x, "network volume [MB]",
            double(stats.network_bytes()) / 1e6);
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table("Ablation: SSB epoch length (Slash, YSB, 4 nodes)");
  std::vector<Point> points;
  for (const uint64_t kib : {64, 256, 1024, 4096, 16384}) {
    points.push_back({"ablation_epoch/e:" + std::to_string(kib) + "KiB",
                      [&table, kib] { RunCase(table, kib); }});
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}
