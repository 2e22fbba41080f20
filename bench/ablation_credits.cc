// Ablation: credit count of the RDMA channel (Sec. 8.3.2).
//
// The paper fixes c = 8 credits as the best configuration and reports that
// c = 16 costs up to ~3% and c = 64 up to ~10% throughput (larger rings
// spread the working set over more memory and deepen queues), while too
// few credits cannot cover the bandwidth-delay product of the link.
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "bench_util/transfer.h"

namespace slash::bench {
namespace {

void RunCase(SeriesTable& table, uint32_t credits) {
  TransferConfig cfg;
  cfg.producers = 2;
  cfg.consumers = 2;  // one lane per producer: credits gate the pipeline
  cfg.update_state = false;  // pure transfer: isolate flow-control effects
  // Small buffers: the bandwidth-delay product spans several slots, so the
  // credit count visibly gates pipelining (with 64 KiB slots a single
  // credit already covers the BDP and the sweep is flat).
  cfg.slot_bytes = 4 * kKiB;
  cfg.credits = credits;
  cfg.records_per_producer = BenchRecords(300'000);
  const TransferResult result = RunTransfer(cfg);
  const std::string x = "c=" + std::to_string(credits);
  RequireCompleted(result.status, "ablation_credits/" + x);
  table.Add("Slash channel", x, "goodput [GB/s]",
            result.goodput_gbytes_per_sec());
  table.Add("Slash channel", x, "latency p50 [us]",
            double(result.buffer_latency.Percentile(50)) /
                double(kMicrosecond));
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table(
      "Ablation: RDMA channel credits (RO, 2 threads, 4 KiB slots)");
  std::vector<Point> points;
  for (const uint32_t credits : {1, 2, 4, 8, 16, 32, 64}) {
    points.push_back({"ablation_credits/c:" + std::to_string(credits),
                      [&table, credits] { RunCase(table, credits); }});
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}
