// Figure 8c: throughput versus producer-thread parallelism on the RO
// benchmark (64 KiB buffers, two nodes).
//
// Paper shape: Slash saturates the link (~11.2 of 11.8 GB/s) with just two
// producer threads; RDMA UpPar needs all ten threads to reach ~91% because
// per-record partitioning limits each sender.
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "bench_util/transfer.h"

namespace slash::bench {
namespace {

void RunCase(SeriesTable& table, bool partitioned, int producers) {
  TransferConfig cfg;
  cfg.producers = producers;
  cfg.consumers = 10;
  cfg.slot_bytes = 64 * kKiB;
  cfg.records_per_producer = BenchRecords(300'000);
  cfg.partitioned = partitioned;
  const TransferResult result = RunTransfer(cfg);
  const char* series = partitioned ? "RDMA UpPar" : "Slash";
  const std::string x = "t=" + std::to_string(producers);
  RequireCompleted(result.status, std::string("fig8c/") + series + "/" + x);
  table.Add(series, x, "goodput [GB/s]", result.goodput_gbytes_per_sec());
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table("Fig 8c: RO throughput vs producer threads");
  std::vector<Point> points;
  for (const bool partitioned : {false, true}) {
    for (const int threads : {1, 2, 4, 6, 8, 10}) {
      points.push_back(
          {std::string("fig8c/") + (partitioned ? "UpPar" : "Slash") +
               "/threads:" + std::to_string(threads),
           [&table, partitioned, threads] {
             RunCase(table, partitioned, threads);
           }});
    }
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}
