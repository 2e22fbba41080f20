// Example: the Yahoo! Streaming Benchmark on all four systems under test —
// Slash, RDMA UpPar, the Flink-like IPoIB baseline, and the LightSaber-like
// scale-up engine — on identical input, printing throughput, network
// volume, and the top-down breakdown that explains the differences.
//
//   $ ./build/examples/ysb_comparison [nodes] [workers]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_util/harness.h"
#include "engines/flink_engine.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/ysb.h"

int main(int argc, char** argv) {
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 4;
  const int workers = argc > 2 ? std::atoi(argv[2]) : 8;

  slash::workloads::YsbConfig ycfg;
  ycfg.key_range = 100'000;
  slash::workloads::YsbWorkload workload(ycfg);

  slash::engines::ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.workers_per_node = workers;
  slash::engines::JobConfig job;
  job.records_per_worker = 20'000;
  const slash::engines::JobSpec spec =
      slash::engines::MakeJobSpec("", workload, cluster, job);

  std::vector<std::unique_ptr<slash::engines::Engine>> engines;
  engines.push_back(std::make_unique<slash::engines::SlashEngine>());
  engines.push_back(std::make_unique<slash::engines::UpParEngine>());
  engines.push_back(std::make_unique<slash::engines::FlinkLikeEngine>());

  std::printf("YSB on %d nodes x %d workers, %llu records/worker\n\n", nodes,
              workers,
              static_cast<unsigned long long>(job.records_per_worker));
  std::printf("%-16s %12s %12s %10s %10s %10s\n", "engine", "Mrec/s",
              "net GB/s", "results", "checksum", "mem GB/s");

  uint64_t reference_checksum = 0;
  for (auto& engine : engines) {
    const slash::engines::RunStats stats = engine->Run(spec);
    slash::bench::RequireCompleted(stats, std::string(engine->name()));
    if (reference_checksum == 0) reference_checksum = stats.result_checksum();
    std::printf("%-16s %12.1f %12.2f %10llu %10s %10.1f\n",
                std::string(engine->name()).c_str(),
                stats.throughput_rps() / 1e6, stats.network_gbytes_per_sec(),
                static_cast<unsigned long long>(stats.records_emitted()),
                stats.result_checksum() == reference_checksum ? "match"
                                                            : "MISMATCH",
                stats.memory_bandwidth_gbytes_per_sec());
  }

  // LightSaber runs single-node; shown for the COST comparison.
  {
    slash::engines::LightSaberEngine lightsaber;
    slash::engines::JobSpec single = spec;
    single.cluster.nodes = 1;
    const slash::engines::RunStats stats = lightsaber.Run(single);
    slash::bench::RequireCompleted(stats, "LightSaber");
    std::printf("%-16s %12.1f %12s %10llu %10s %10.1f   (1 node)\n",
                std::string(lightsaber.name()).c_str(),
                stats.throughput_rps() / 1e6, "-",
                static_cast<unsigned long long>(stats.records_emitted()), "-",
                stats.memory_bandwidth_gbytes_per_sec());
  }

  std::printf(
      "\nWhy the gap (top-down breakdown of the costliest roles):\n");
  {
    slash::engines::UpParEngine uppar;
    const slash::engines::RunStats stats = uppar.Run(spec);
    const auto roles = stats.role_counters();
    const auto& receiver = roles.at("receiver");
    std::printf("  UpPar receiver : %.0f%% memory-bound, %.0f%% core-bound "
                "(cold DMA buffers + scattered co-partitioned state)\n",
                receiver.fraction(slash::perf::Category::kBackEndMemory) * 100,
                receiver.fraction(slash::perf::Category::kBackEndCore) * 100);
    const auto& sender = roles.at("sender");
    std::printf("  UpPar sender   : %.0f%% front-end bound "
                "(branchy per-record partitioning)\n",
                sender.fraction(slash::perf::Category::kFrontEnd) * 100);
  }
  return 0;
}
