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

#include <functional>
#include <memory>
#include <string>
#include <vector>

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
  SeriesTable table(title);
  std::vector<Point> points;
  for (int sut = 0; sut < 3; ++sut) {
    for (int nodes : {2, 4, 8, 16}) {
      const std::string engine(MakeSut(sut)->name());
      const std::string name =
          title + "/" + engine + "/nodes:" + std::to_string(nodes);
      points.push_back({name, [&, sut, nodes, engine, name] {
        auto workload = factory();
        engines::JobConfig job = BenchJob();
        job.records_per_worker = BenchRecords(base_records_per_worker);
        const engines::RunStats stats = MakeSut(sut)->Run(engines::MakeJobSpec(
            "", *workload, BenchCluster(nodes, workers_per_node), job));
        RequireCompleted(stats, name);
        const std::string x = "n=" + std::to_string(nodes);
        table.Add(engine, x, "throughput [M rec/s]",
                  stats.throughput_rps() / 1e6);
        table.Add(engine, x, "sim events/s (wall)",
                  stats.sim_events_per_sec_wall);
      }});
    }
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}

}  // namespace slash::bench

#endif  // SLASH_BENCH_FIG6_COMMON_H_
