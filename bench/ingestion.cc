// Supplementary experiment: RDMA ingestion (paper Fig. 1 / Sec. 6 intro).
//
// The paper's evaluation streams pre-generated data from local memory
// (Sec. 8.2.1 methodology); the architecture, however, ingests streams over
// RDMA channels from source nodes "at full RDMA network speed". This bench
// compares the two ingestion paths on the same queries: with RDMA
// ingestion, raw records cross the fabric (bounded by the 11.8 GB/s NIC),
// while state-delta traffic rides the same links.
#include <memory>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "engines/slash_engine.h"
#include "workloads/readonly.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

void RunCase(SeriesTable& table, bool ysb, bool rdma_ingestion) {
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
  engines::SlashEngine engine;
  const engines::RunStats stats = engine.Run(spec);
  RequireCompleted(stats,
                   rdma_ingestion ? "ingestion/rdma" : "ingestion/local");
  const char* series = rdma_ingestion ? "RDMA ingestion" : "local memory";
  table.Add(series, ysb ? "YSB" : "RO", "throughput [M rec/s]",
            stats.throughput_rps() / 1e6);
  table.Add(series, ysb ? "YSB" : "RO", "network [GB/s]",
            stats.network_gbytes_per_sec());
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table("Supplementary: local-memory vs RDMA ingestion (Slash)");
  std::vector<Point> points;
  for (const bool ysb : {false, true}) {
    for (const bool ingest : {false, true}) {
      points.push_back({std::string("ingestion/") + (ysb ? "YSB" : "RO") +
                            "/" + (ingest ? "rdma" : "local"),
                        [&table, ysb, ingest] {
                          RunCase(table, ysb, ingest);
                        }});
    }
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}
