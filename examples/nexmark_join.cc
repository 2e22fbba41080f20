// Example: distributed windowed stream joins on Slash — NEXMark Q8
// (tumbling-window join of auctions and sellers) and Q11 (session-window
// join of bids and sellers), verified against the sequential reference.
//
// Demonstrates holistic window state: both streams' records are appended
// into the distributed hash table (CRDT = grow-only set), shipped as epoch
// deltas, and joined lazily at trigger time on the merged state.
//
//   $ ./build/examples/nexmark_join
#include <cstdio>
#include <memory>

#include "bench_util/harness.h"
#include "core/oracle.h"
#include "engines/slash_engine.h"
#include "workloads/nexmark.h"

namespace {

void RunJoin(const slash::workloads::Workload& workload) {
  slash::engines::ClusterConfig cluster;
  cluster.nodes = 4;
  cluster.workers_per_node = 4;
  slash::engines::JobConfig job;
  job.records_per_worker = 8'000;
  job.collect_rows = true;

  slash::engines::SlashEngine engine;
  const slash::engines::RunStats stats =
      engine.Run(slash::engines::MakeJobSpec("", workload, cluster, job));
  slash::bench::RequireCompleted(stats, "nexmark_join");

  const slash::core::OracleOutput oracle = slash::core::ComputeOracle(
      workload.MakeQuery(), workload.Sources(job.records_per_worker, job.seed),
      cluster.nodes * cluster.workers_per_node);

  uint64_t total_pairs = 0;
  for (const auto& row : stats.rows) total_pairs += uint64_t(row.value);

  std::printf("%-5s | %9.1f Mrec/s | %7llu joined keys | %9llu pairs | %s\n",
              std::string(workload.name()).c_str(),
              stats.throughput_rps() / 1e6,
              static_cast<unsigned long long>(stats.records_emitted()),
              static_cast<unsigned long long>(total_pairs),
              stats.result_checksum() == oracle.checksum ? "oracle PASS"
                                                       : "oracle FAIL");
}

}  // namespace

int main() {
  std::printf("Distributed windowed joins on Slash (4 nodes x 4 workers)\n\n");

  slash::workloads::NexmarkConfig cfg;
  cfg.sellers = 2'000;

  slash::workloads::Nb8Workload nb8(cfg);
  RunJoin(nb8);

  slash::workloads::Nb11Workload nb11(cfg);
  RunJoin(nb11);

  std::printf(
      "\nNB8 appends 269 B auction / 206 B seller tuples (large state);\n"
      "NB11 sessions split lazily at trigger time on the merged state.\n");
  return 0;
}
