// Ablation: push-based RDMA WRITE channels versus a pull-based RDMA READ
// design (Sec. 6.3, "RDMA verbs").
//
// The paper selects WRITE because a READ costs a full round-trip per
// message and pull-model polling generates network traffic (the consumer
// repeatedly reads remote memory until data appears). This ablation
// measures both designs on the same RO transfer: the pull channel's
// goodput collapses and its wire volume exceeds the payload.
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "bench_util/transfer.h"

namespace slash::bench {
namespace {

void RunCase(SeriesTable& table, bool pull, uint64_t slot_kib) {
  TransferConfig cfg;
  cfg.producers = 2;
  cfg.consumers = 2;
  cfg.slot_bytes = slot_kib * kKiB;
  cfg.records_per_producer = BenchRecords(50'000);
  cfg.pull = pull;
  const TransferResult result = RunTransfer(cfg);
  const char* series = pull ? "READ pull" : "WRITE push";
  const std::string x = std::to_string(slot_kib) + "KiB";
  RequireCompleted(result.status, std::string("ablation_verbs/") + series +
                                      "/" + x);
  table.Add(series, x, "goodput [GB/s]", result.goodput_gbytes_per_sec());
  table.Add(series, x, "wire amplification",
            result.payload_bytes > 0
                ? double(result.wire_bytes) / double(result.payload_bytes)
                : 0.0);
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table("Ablation: WRITE push vs READ pull channels (RO)");
  std::vector<Point> points;
  for (const bool pull : {false, true}) {
    for (const uint64_t kib : {16, 64, 256}) {
      points.push_back({std::string("ablation_verbs/") +
                            (pull ? "READ_pull" : "WRITE_push") +
                            "/buffer:" + std::to_string(kib) + "KiB",
                        [&table, pull, kib] { RunCase(table, pull, kib); }});
    }
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}
