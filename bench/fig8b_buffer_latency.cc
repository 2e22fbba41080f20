// Figure 8b: per-buffer transfer latency versus buffer size on the RO
// benchmark (acquire-to-poll, two nodes), including the verbs-batched
// direct mode.
//
// Paper shape: latencies stay below 100 us for buffers under 128 KiB and
// reach ~1 ms at 1 MiB; RDMA UpPar runs ~10% above Slash at every size.
// The batched series pays queueing delay for the doorbell amortization:
// small buffers come out ahead (fewer MMIOs per delivered byte), large
// buffers sit on the producer until the flush and report higher
// acquire-to-poll latency — the same crossover as Fig 8a, seen from the
// latency side.
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
  cfg.records_per_producer = BenchRecords(200'000);
  cfg.partitioned = mode == Mode::kPartitioned;
  if (mode == Mode::kBatched) {
    cfg.post_batch = 4;
    cfg.inline_threshold = 4 * kKiB;
  }
  const TransferResult result = RunTransfer(cfg);
  const std::string x = std::to_string(slot_kib) + "KiB";
  RequireCompleted(result.status,
                   std::string("fig8b/") + SeriesName(mode) + "/" + x);
  for (const int p : {50, 99}) {
    table.Add(SeriesName(mode), x, "latency p" + std::to_string(p) + " [us]",
              double(result.buffer_latency.Percentile(p)) /
                  double(kMicrosecond));
  }
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table("Fig 8b: buffer latency");
  std::vector<Point> points;
  for (const Mode mode :
       {Mode::kDirect, Mode::kBatched, Mode::kPartitioned}) {
    for (const uint64_t kib : {4, 16, 32, 64, 128, 256, 1024}) {
      points.push_back({std::string("fig8b/") + SeriesName(mode) +
                            "/buffer:" + std::to_string(kib) + "KiB",
                        [&table, mode, kib] { RunCase(table, mode, kib); }});
    }
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}
