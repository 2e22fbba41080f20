#include "bench_util/harness.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <regex>
#include <string_view>

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
  if (scale == nullptr || scale[0] == '\0') return base;
  char* end = nullptr;
  const double factor = std::strtod(scale, &end);
  if (*end != '\0' || !std::isfinite(factor) || factor <= 0) {
    std::fprintf(stderr,
                 "FATAL: SLASH_BENCH_SCALE=%s is not a number > 0\n", scale);
    std::exit(1);
  }
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

void RunPoints(int argc, const char* const* argv,
               const std::vector<Point>& points) {
  constexpr std::string_view kFilter = "--filter=";
  std::string pattern;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with(kFilter)) {
      std::fprintf(stderr, "unknown argument '%s'\nusage: %s [%s<regex>]\n",
                   argv[i], argv[0], kFilter.data());
      std::exit(2);
    }
    pattern = arg.substr(kFilter.size());
  }
  std::regex filter;
  try {
    filter = std::regex(pattern);
  } catch (const std::regex_error& e) {
    std::fprintf(stderr, "bad %s%s: %s\n", kFilter.data(), pattern.c_str(),
                 e.what());
    std::exit(2);
  }
  std::vector<const Point*> selected;
  for (const Point& point : points) {
    if (std::regex_search(point.name, filter)) selected.push_back(&point);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no point matches %s%s\n", kFilter.data(),
                 pattern.c_str());
    std::exit(1);
  }
  for (const Point* point : selected) {
    const auto start = std::chrono::steady_clock::now();
    point->run();
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - start;
    // Flushed per point: a CHECK failure in a later point aborts without
    // flushing stdio.
    std::printf("%-56s %10.1f ms\n", point->name.c_str(), wall.count());
    std::fflush(stdout);
  }
}

void AddTopDown(SeriesTable& table, const std::string& role,
                const perf::Counters& counters) {
  constexpr const char* kMetric = "top-down breakdown";
  for (int i = 0; i < perf::kNumCategories; ++i) {
    const auto category = perf::Category(i);
    table.Add(role, std::string(perf::CategoryName(category)) + " %", kMetric,
              counters.fraction(category) * 100.0);
  }
  table.Add(role, "instr M", kMetric, counters.instructions / 1e6);
}

}  // namespace slash::bench
