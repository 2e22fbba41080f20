// Helpers for the benchmark binaries (one binary per paper table/figure):
// shared cluster presets, environment-controlled scaling, the point runner
// every figure's main() calls, and the paper-style series table each
// figure fills.
#ifndef SLASH_BENCH_UTIL_HARNESS_H_
#define SLASH_BENCH_UTIL_HARNESS_H_

#include <functional>
#include <string>
#include <vector>

#include "engines/engine.h"
#include "obs/export.h"
#include "perf/counters.h"

namespace slash::bench {

/// The simulated-cluster preset used by the end-to-end figures. Scaled-down
/// worker counts keep host memory bounded (the paper's 10 threads/node
/// times 16 nodes with per-lane channel queues exceeds a laptop); set
/// `workers` explicitly where the figure depends on it.
engines::ClusterConfig BenchCluster(int nodes, int workers);

/// The per-job preset of the end-to-end figures: 32 KiB slots, 8 credits
/// and a 1 MiB epoch, which keeps the paper's input:epoch ratio at bench
/// scale. Callers set records_per_worker.
engines::JobConfig BenchJob();

/// Records per worker for end-to-end figures, scaled by the
/// SLASH_BENCH_SCALE environment variable (default 1.0). Raising it runs
/// the experiments at larger input sizes. A value that is not a finite
/// number > 0 exits the binary with status 1 and a message on stderr.
uint64_t BenchRecords(uint64_t base);

/// Guards every benchmark datapoint: a run that did not complete reports
/// bogus numbers (partial makespan, missing results), so an aborted run
/// fails the whole binary loudly — status printed to stderr, non-zero
/// exit — instead of being averaged into a figure. `context` names the
/// datapoint (engine/workload/shape) for the error message.
void RequireCompleted(const engines::RunStats& stats,
                      const std::string& context);

/// Same guard for harnesses that report a bare Status (e.g. the transfer
/// harness behind Figs. 8-9 and the verbs ablations).
void RequireCompleted(const Status& status, const std::string& context);

/// Same guard for a multi-job run (SlashEngine::RunJobs): the cluster
/// status and every per-tenant job status must be OK.
void RequireCompleted(const engines::MultiRunStats& stats,
                      const std::string& context);

/// The paper-figure series table now lives in the observability layer; the
/// bench namespace keeps the historical name. Emission (text matrix,
/// SLASH_BENCH_JSON artifact) goes through obs::Exporter.
using SeriesTable = obs::SeriesTable;

/// One named datapoint of a figure; running it fills the figure's table(s).
struct Point {
  std::string name;
  std::function<void()> run;
};

/// Runs `points` in declared order and prints each one's name and host
/// wall-clock time. The one flag, `--filter=<regex>`, keeps only the points
/// whose name matches (std::regex_search). Exits 1 when no point matches
/// and 2 on any other argument or a malformed regex.
void RunPoints(int argc, const char* const* argv,
               const std::vector<Point>& points);

/// Adds one role's row of a top-down execution breakdown (Figs. 9 and 10)
/// to `table` under the metric "top-down breakdown": series `role`, x =
/// "<category> %" (share of the role's cycles) and "instr M" (retired
/// instructions, millions).
void AddTopDown(SeriesTable& table, const std::string& role,
                const perf::Counters& counters);

}  // namespace slash::bench

#endif  // SLASH_BENCH_UTIL_HARNESS_H_
