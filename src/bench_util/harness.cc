#include "bench_util/harness.h"

#include <cstdio>
#include <cstdlib>

namespace slash::bench {

engines::ClusterConfig BenchCluster(int nodes, int workers) {
  engines::ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.workers_per_node = workers;
  return cluster;
}

engines::JobConfig BenchJob() {
  engines::JobConfig job;
  job.channel.slot_bytes = 32 * kKiB;
  job.channel.credits = 8;
  job.epoch_bytes = 1 * kMiB;
  job.state_lss_capacity = 1ULL << 20;
  job.state_index_buckets = 1ULL << 14;
  job.collect_rows = false;
  return job;
}

uint64_t BenchRecords(uint64_t base) {
  const char* scale = std::getenv("SLASH_BENCH_SCALE");
  if (scale == nullptr) return base;
  const double factor = std::atof(scale);
  if (factor <= 0) return base;
  return static_cast<uint64_t>(double(base) * factor);
}

void RequireCompleted(const engines::RunStats& stats,
                      const std::string& context) {
  RequireCompleted(stats.status, context);
}

void RequireCompleted(const engines::MultiRunStats& stats,
                      const std::string& context) {
  RequireCompleted(stats.status, context);
  for (size_t j = 0; j < stats.jobs.size(); ++j) {
    RequireCompleted(stats.jobs[j].status,
                     context + " job#" + std::to_string(j));
  }
}

void RequireCompleted(const Status& status, const std::string& context) {
  if (status.ok()) return;
  std::fprintf(stderr,
               "FATAL: benchmark run did not complete (%s): %s\n"
               "Refusing to report numbers from an aborted run.\n",
               context.c_str(), status.ToString().c_str());
  std::exit(1);
}

}  // namespace slash::bench
