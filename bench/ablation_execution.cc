// Ablation: interpretation- vs compilation-based execution (Sec. 5.3).
//
// Slash is agnostic to the execution strategy. Under compiled execution
// the stateless prefix (parse, filter, projection, window assignment, key
// hash) fuses into one code unit with no per-operator dispatch; the
// memory-bound state access does not compile away. The expected shape:
// compilation helps, but modestly, because streaming aggregation is
// state-access-bound — matching Grizzly's observation that fusion gains
// shrink as state costs dominate.
#include <memory>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "engines/slash_engine.h"
#include "workloads/readonly.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

void RunCase(SeriesTable& table, bool ysb, bool compiled) {
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
  job.records_per_worker = BenchRecords(40'000);
  job.execution = compiled ? core::ExecutionStrategy::kCompiled
                           : core::ExecutionStrategy::kInterpreted;
  const engines::JobSpec spec =
      engines::MakeJobSpec("", *workload, BenchCluster(2, 8), job);
  engines::SlashEngine engine;
  const engines::RunStats stats = engine.Run(spec);
  RequireCompleted(stats, compiled ? "ablation_execution/compiled"
                                   : "ablation_execution/interpreted");
  table.Add(compiled ? "compiled (fused)" : "interpreted", ysb ? "YSB" : "RO",
            "throughput [M rec/s]", stats.throughput_rps() / 1e6);
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table("Ablation: execution strategy (Slash, 2 nodes)");
  std::vector<Point> points;
  for (const bool ysb : {true, false}) {
    for (const bool compiled : {false, true}) {
      points.push_back({std::string("ablation_execution/") +
                            (ysb ? "YSB" : "RO") + "/" +
                            (compiled ? "compiled" : "interpreted"),
                        [&table, ysb, compiled] {
                          RunCase(table, ysb, compiled);
                        }});
    }
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}
