// Failure-detector overhead bench: the Slash engine on the YSB workload
// with the HealthMonitor off vs on.
//
// The detector rides the same simulated fabric as the data plane — every
// liveness probe is an 8-byte one-sided READ that serializes through the
// NIC cost model — so "is the detector ~free when idle?" is a virtual-time
// question with a deterministic answer. This bench records that answer:
//
//   * makespan with health off and on, plus the on/off ratio (the binary
//     itself CHECKs the ratio stays inside [0.75, 1.25]: probe traffic and
//     heartbeat-grid drain rounding may perturb the schedule a few percent
//     either way, but the detector must never tax the data plane),
//   * probe volume, misses, fence events, and the suspicion count — all of
//     which must stay at zero misses / zero suspicions on a fault-free
//     run (no false quarantines, no transient self-fencing).
//
// The probe timeout is set to 50 us (vs the 20 us config default): this
// cluster preset runs 4 workers/node with 32 KiB slots, so a probe READ
// can queue ~30 us behind data-plane slots on a busy NIC. The default is
// tuned for the lighter test clusters; a deployment sets the rpc timeout
// above its loaded RTT, and so does this bench.
//
// Every run is CHECKed to produce the identical result checksum: the
// detector is an observer on clean runs, never a participant.
//
// Datapoints land in the "health_overhead" series table; with
// SLASH_BENCH_JSON set the table is written to BENCH_health_overhead.json
// and compared against bench/baselines/ by tools/bench_compare.py in CI.
// The makespan and ratio metrics compare under --rel-tol there (the gate
// checks "still ~free", not bit-equal schedules); the counting metrics
// compare exactly.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util/harness.h"
#include "common/logging.h"
#include "engines/slash_engine.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

SeriesTable* Table() {
  static SeriesTable* table = new SeriesTable("health_overhead");
  return table;
}

constexpr uint64_t kBaseRecordsPerWorker = 40000;
constexpr int kWorkersPerNode = 4;

engines::RunStats RunOnce(int nodes, bool health_on) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100'000;
  workloads::YsbWorkload workload(ycfg);

  engines::ClusterConfig cluster = BenchCluster(nodes, kWorkersPerNode);
  if (health_on) {
    cluster.health.enabled = true;
    cluster.health.probe_timeout = 50 * kMicrosecond;  // above the loaded RTT
  }
  engines::JobConfig job = BenchJob();
  job.records_per_worker = BenchRecords(kBaseRecordsPerWorker);
  job.checkpoint.enabled = true;

  engines::SlashEngine engine;
  engines::RunStats stats =
      engine.Run(engines::MakeJobSpec("", workload, cluster, job));
  RequireCompleted(stats, "health_overhead/nodes:" + std::to_string(nodes));
  return stats;
}

void HealthOverhead(benchmark::State& state) {
  const int nodes = int(state.range(0));
  for (auto _ : state) {
    const engines::RunStats off = RunOnce(nodes, false);
    const engines::RunStats on = RunOnce(nodes, true);

    // The detector observes a clean run; it never changes the answer and
    // never cries wolf.
    SLASH_CHECK_EQ(off.result_checksum(), on.result_checksum());
    SLASH_CHECK_EQ(on.suspicions(), 0u);
    SLASH_CHECK_EQ(on.quarantines(), 0u);
    SLASH_CHECK_EQ(on.health_probe_misses(), 0u);
    SLASH_CHECK_GT(on.health_probes_sent(), 0u);

    // The hard overhead gate: schedule perturbation from probe traffic
    // (and up to one heartbeat of drain rounding) stays within a quarter
    // of the fault-free makespan in either direction.
    const double ratio = double(on.makespan()) / double(off.makespan());
    SLASH_CHECK_MSG(ratio > 0.75 && ratio < 1.25,
                    "health-on makespan diverged from health-off by more "
                    "than 25%: ratio " << ratio);

    const std::string x = "n=" + std::to_string(nodes);
    struct Row {
      const char* name;
      const engines::RunStats* stats;
    };
    const Row rows[] = {{"off", &off}, {"on", &on}};
    for (const Row& row : rows) {
      Table()->Add(row.name, x, "makespan [us]",
                   double(row.stats->makespan()) / 1e3);
      Table()->Add(row.name, x, "probes sent",
                   double(row.stats->health_probes_sent()));
      Table()->Add(row.name, x, "probe misses",
                   double(row.stats->health_probe_misses()));
      Table()->Add(row.name, x, "fence events",
                   double(row.stats->fence_events()));
      Table()->Add(row.name, x, "suspicions",
                   double(row.stats->suspicions()));
      Table()->Add(row.name, x, "checksum lo32",
                   double(row.stats->result_checksum() & 0xffffffffu));
      Table()->Add(row.name, x, "sim events/s (wall)",
                   row.stats->sim_events_per_sec_wall);
    }
    Table()->Add("on", x, "makespan ratio vs off", ratio);
    state.counters["makespan_off_us"] = double(off.makespan()) / 1e3;
    state.counters["makespan_on_us"] = double(on.makespan()) / 1e3;
    state.counters["probes"] = double(on.health_probes_sent());
    state.counters["ratio"] = ratio;
  }
}

BENCHMARK(HealthOverhead)
    ->ArgName("nodes")
    ->Arg(2)
    ->Arg(4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  slash::bench::Table()->PrintAll();
  return 0;
}
