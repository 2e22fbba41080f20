// Figure 8a: throughput versus buffer size on the RO benchmark, for the
// direct (Slash) and partitioned (RDMA UpPar) transfer modes on two nodes,
// plus the verbs-batched direct mode (doorbell batching + inline sends).
//
// Paper shape: Slash reaches ~95% of the 11.8 GB/s achievable bandwidth
// from 32 KiB buffers with two producer threads; RDMA UpPar plateaus
// around 50% at the same thread count because per-record partitioning
// saturates the sender CPU first. The batched series shows the batch-size
// crossover: amortized doorbells and inline WQEs win while per-message
// overhead dominates (small buffers), and give the lead back once
// transfers are large enough that deferring the NIC start until the flush
// costs more than the saved MMIOs.
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "bench_util/transfer.h"

namespace slash::bench {
namespace {

enum class Mode { kDirect, kBatched, kPartitioned };

const char* SeriesName(Mode mode) {
  switch (mode) {
    case Mode::kDirect: return "Slash";
    case Mode::kBatched: return "Slash batched";
    case Mode::kPartitioned: return "RDMA UpPar";
  }
  return "?";
}

void RunCase(SeriesTable& table, Mode mode, uint64_t slot_kib) {
  TransferConfig cfg;
  cfg.producers = 2;
  cfg.consumers = 10;
  cfg.slot_bytes = slot_kib * kKiB;
  cfg.records_per_producer = BenchRecords(400'000);
  cfg.partitioned = mode == Mode::kPartitioned;
  if (mode == Mode::kBatched) {
    cfg.post_batch = 4;                  // one doorbell per 4 queued WRs
    cfg.inline_threshold = 4 * kKiB;     // small slots ride in the WQE
  }
  const TransferResult result = RunTransfer(cfg);
  RequireCompleted(result.status, std::string("fig8a/") + SeriesName(mode) +
                                      "/" + std::to_string(slot_kib) + "KiB");
  table.Add(SeriesName(mode), std::to_string(slot_kib) + "KiB",
            "goodput [GB/s]", result.goodput_gbytes_per_sec());
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table("Fig 8a: buffer throughput");
  std::vector<Point> points;
  for (const Mode mode :
       {Mode::kDirect, Mode::kBatched, Mode::kPartitioned}) {
    for (const uint64_t kib : {1, 4, 16, 32, 64, 128, 256, 1024}) {
      points.push_back({std::string("fig8a/") + SeriesName(mode) +
                            "/buffer:" + std::to_string(kib) + "KiB",
                        [&table, mode, kib] { RunCase(table, mode, kib); }});
    }
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}
