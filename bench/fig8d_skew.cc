// Figure 8d: throughput under skewed partitioning-key distributions
// (Zipf z = 0.2 .. 2.0) for Slash and RDMA UpPar on the RO and YSB
// workloads (2 nodes, 8 workers).
//
// Paper shape: Slash is skew-agnostic on RO and even *gains* throughput on
// YSB with rising skew (fewer key-value pairs to merge at epochs); RDMA
// UpPar loses throughput steeply because hash partitioning concentrates
// load on single receivers.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "bench_util/transfer.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/readonly.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

std::unique_ptr<workloads::Workload> MakeWorkload(bool ysb, double z) {
  const workloads::KeyDistribution keys =
      z == 0.0 ? workloads::KeyDistribution::Uniform()
               : workloads::KeyDistribution::Zipf(z);
  if (ysb) {
    workloads::YsbConfig cfg;
    cfg.key_range = 1'000'000;
    cfg.keys = keys;
    return std::make_unique<workloads::YsbWorkload>(cfg);
  }
  workloads::RoConfig cfg;
  cfg.key_range = 1'000'000;
  cfg.keys = keys;
  return std::make_unique<workloads::RoWorkload>(cfg);
}

void RunCase(SeriesTable& table, bool ysb, bool slash_engine, double z) {
  const std::string context = std::string(slash_engine ? "Slash" : "UpPar") +
                              "/z=" + std::to_string(z);
  double mrec_per_s = 0;
  if (ysb) {
    // End-to-end stateful query on the full engines.
    auto workload = MakeWorkload(ysb, z);
    engines::JobConfig job = BenchJob();
    job.records_per_worker = BenchRecords(12'000);
    const engines::JobSpec spec =
        engines::MakeJobSpec("", *workload, BenchCluster(2, 8), job);
    engines::RunStats stats;
    if (slash_engine) {
      engines::SlashEngine engine;
      stats = engine.Run(spec);
    } else {
      engines::UpParEngine engine;
      stats = engine.Run(spec);
    }
    RequireCompleted(stats, context);
    mrec_per_s = stats.throughput_rps() / 1e6;
  } else {
    // RO uses the paper's two-instance transfer setup (Sec. 8.3.2): the
    // skew knob only affects the *partitioning* key, so the direct (Slash)
    // transfer is data-independent while hash fan-out concentrates load.
    TransferConfig cfg;
    cfg.producers = 4;
    cfg.consumers = 4;
    cfg.records_per_producer = BenchRecords(200'000);
    cfg.partitioned = !slash_engine;
    cfg.keys = z == 0.0 ? workloads::KeyDistribution::Uniform()
                        : workloads::KeyDistribution::Zipf(z);
    cfg.key_range = 1'000'000;
    const TransferResult result = RunTransfer(cfg);
    RequireCompleted(result.status, "RO/" + context);
    mrec_per_s = result.records_per_second() / 1e6;
  }
  char zbuf[16];
  std::snprintf(zbuf, sizeof(zbuf), "z=%.1f", z);
  table.Add(std::string(slash_engine ? "Slash" : "RDMA UpPar") + " " +
                (ysb ? "YSB" : "RO"),
            zbuf, "throughput [M rec/s]", mrec_per_s);
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table("Fig 8d: throughput vs key skew (Zipf z)");
  std::vector<Point> points;
  for (const bool ysb : {false, true}) {
    for (const bool slash_engine : {true, false}) {
      for (const double z : {0.2, 0.6, 1.0, 1.4, 1.8, 2.0}) {
        char name[128];
        std::snprintf(name, sizeof(name), "fig8d/%s/%s/z:%.1f",
                      ysb ? "YSB" : "RO",
                      slash_engine ? "Slash" : "UpPar", z);
        points.push_back({name, [&table, ysb, slash_engine, z] {
                            RunCase(table, ysb, slash_engine, z);
                          }});
      }
    }
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}
