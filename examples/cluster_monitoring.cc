// Example: the Cluster Monitoring workload with operational knobs —
// sweeping the SSB epoch length to show the throughput / result-latency /
// network-volume trade-off of the coherence protocol, and the skew
// robustness of the shared-mutable-state design.
//
//   $ ./build/examples/cluster_monitoring
#include <cstdio>

#include "bench_util/harness.h"
#include "engines/slash_engine.h"
#include "workloads/cluster_monitoring.h"

int main() {
  slash::workloads::CmWorkload workload;
  slash::engines::ClusterConfig cluster;
  cluster.nodes = 4;
  cluster.workers_per_node = 6;

  std::printf(
      "Cluster Monitoring (2 s tumbling AVG of per-job CPU usage)\n"
      "4 nodes x 6 workers; sweeping the SSB epoch length\n\n");
  std::printf("%-12s %12s %14s %16s\n", "epoch", "Mrec/s", "net volume",
              "p50 delta latency");

  for (const uint64_t epoch_kib : {64ULL, 512ULL, 4096ULL}) {
    slash::engines::JobConfig job;
    job.records_per_worker = 25'000;
    job.epoch_bytes = epoch_kib * slash::kKiB;

    slash::engines::SlashEngine engine;
    const slash::engines::RunStats stats =
        engine.Run(slash::engines::MakeJobSpec("", workload, cluster, job));
    slash::bench::RequireCompleted(stats, "cluster_monitoring");
    std::printf("%8llu KiB %12.1f %14s %16s\n",
                static_cast<unsigned long long>(epoch_kib),
                stats.throughput_rps() / 1e6,
                slash::FormatBytes(stats.network_bytes()).c_str(),
                slash::FormatNanos(stats.buffer_latency().Percentile(50))
                    .c_str());
  }

  std::printf("\nSkew robustness (job-popularity Zipf exponent):\n");
  std::printf("%-8s %12s\n", "z", "Mrec/s");
  for (const double z : {0.0, 0.9, 1.5}) {
    slash::workloads::CmConfig cfg;
    cfg.keys = z == 0.0 ? slash::workloads::KeyDistribution::Uniform()
                        : slash::workloads::KeyDistribution::Zipf(z);
    slash::workloads::CmWorkload skewed(cfg);
    slash::engines::JobConfig job;
    job.records_per_worker = 25'000;
    slash::engines::SlashEngine engine;
    const slash::engines::RunStats stats =
        engine.Run(slash::engines::MakeJobSpec("", skewed, cluster, job));
    slash::bench::RequireCompleted(stats, "cluster_monitoring/skew");
    std::printf("%-8.1f %12.1f\n", z, stats.throughput_rps() / 1e6);
  }
  return 0;
}
