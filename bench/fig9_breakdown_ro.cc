// Figure 9: execution breakdown of the RO benchmark — top-down pipeline
// categories (Retiring, Front-end, Bad speculation, Back-end memory,
// Back-end core) for the senders and receivers of Slash (direct transfer)
// and RDMA UpPar (partitioned transfer), with 2 and 10 producer threads at
// 64 KiB buffers.
//
// Paper shape: UpPar senders are front-end bound (22-33% of cycles) from
// the branchy partitioning code and retire up to 2x the u-ops of Slash;
// Slash senders are core-bound (pause loops while the saturated NIC
// drains) and its receivers memory-bound (waiting for in-flight data).
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "bench_util/transfer.h"

namespace slash::bench {
namespace {

void RunCase(SeriesTable& table, bool partitioned, int threads) {
  TransferConfig cfg;
  cfg.producers = threads;
  cfg.consumers = 10;
  cfg.slot_bytes = 64 * kKiB;
  cfg.records_per_producer = BenchRecords(200'000);
  cfg.partitioned = partitioned;
  const TransferResult result = RunTransfer(cfg);
  const std::string engine = partitioned ? "UpPar" : "Slash";
  const std::string t = " (t=" + std::to_string(threads) + ")";
  RequireCompleted(result.status, "fig9/" + engine + t);
  AddTopDown(table, engine + " snd" + t, result.sender);
  AddTopDown(table, engine + " rcv" + t, result.receiver);
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table("Fig 9: execution breakdown of RO");
  std::vector<Point> points;
  for (const bool partitioned : {false, true}) {
    for (const int threads : {2, 10}) {
      points.push_back(
          {std::string("fig9/") + (partitioned ? "UpPar" : "Slash") +
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
