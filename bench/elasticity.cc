// Elasticity bench: what does runtime scale-out/scale-in cost on the
// Slash engine, versus provisioning the full fleet from t=0?
//
// Each datapoint runs the YSB workload twice on an N-node provisioned
// cluster:
//
//   * "static"  — all N nodes active from the first record,
//   * "elastic" — the autoscale arc from the elastic test tier: start on
//     N/4 nodes, scale out to all N across [8%, 35%] of the static
//     makespan, then scale back in to N/2 across [50%, 80%]. Every
//     membership change is a live handoff: quiesce at an epoch boundary,
//     re-partition, restore from snapshots, replay — the same rollback
//     machinery crash recovery uses.
//
// Recorded per shape: both makespans and the elastic/static ratio (the
// headline elasticity tax: time spent under-provisioned plus handoff
// pauses), total virtual time paused in handoffs, partitions/state
// bytes/source records re-homed, and join/leave/deferral counts. The
// binary CHECKs the contracts the elastic tier proves at test scale:
// identical result checksum for both runs, zero recoveries (a planned
// leave is not a failure), and every scheduled membership event executed.
//
// Datapoints land in the "elasticity" series table; with SLASH_BENCH_JSON
// set the table is written to BENCH_elasticity.json and compared against
// bench/baselines/ by tools/bench_compare.py in CI. Makespans, the ratio,
// and the pause compare under --rel-tol there (they shift when the cost
// model is retuned; the gate asserts the tax stays bounded, not a bit
// pattern) — the counting metrics (checksums, reconfig/migration counts)
// compare exactly.
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "common/logging.h"
#include "elastic/reconfig.h"
#include "engines/slash_engine.h"
#include "workloads/ysb.h"

namespace slash::bench {
namespace {

constexpr uint64_t kBaseRecordsPerWorker = 20000;
constexpr int kWorkersPerNode = 2;

engines::JobSpec ElasticityJob(const workloads::Workload& workload,
                               int nodes) {
  engines::JobConfig job = BenchJob();
  job.records_per_worker = BenchRecords(kBaseRecordsPerWorker);
  job.epoch_bytes = 64 * kKiB;  // frequent boundaries: early joins already
                                // find a committed round to hand off from
  job.checkpoint.enabled = true;  // handoff rides the snapshot/rollback path
  return engines::MakeJobSpec("", workload,
                              BenchCluster(nodes, kWorkersPerNode), job);
}

engines::RunStats RunShape(const engines::JobSpec& job,
                           const std::string& context) {
  engines::SlashEngine engine;
  engines::RunStats stats = engine.Run(job);
  RequireCompleted(stats, context);
  return stats;
}

void Elasticity(SeriesTable& table, int nodes) {
  SLASH_CHECK_GE(nodes, 8);
  SLASH_CHECK_EQ(nodes % 4, 0);
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100'000;
  workloads::YsbWorkload workload(ycfg);
  const std::string label = "elasticity/nodes:" + std::to_string(nodes);

  const engines::JobSpec job = ElasticityJob(workload, nodes);
  const engines::RunStats st = RunShape(job, label + "/static");

  // The autoscale arc, placed at fractions of the static makespan so the
  // shape is self-scaling: N/4 initial, out to N, back in to N/2.
  // Handoffs serialize by deferral, so closely spaced events queue.
  elastic::ReconfigPlan plan;
  plan.initial_nodes = nodes / 4;
  plan.min_active = nodes / 4;
  const int joins = nodes - plan.initial_nodes;
  for (int i = 0; i < joins; ++i) {
    const double f = 0.08 + 0.27 * double(i) / double(joins);
    plan.joins.push_back({.at = Nanos(double(st.makespan()) * f),
                          .node = plan.initial_nodes + i});
  }
  const int leaves = nodes / 2;
  for (int i = 0; i < leaves; ++i) {
    const double f = 0.50 + 0.30 * double(i) / double(leaves);
    plan.leaves.push_back({.at = Nanos(double(st.makespan()) * f),
                           .node = nodes - 1 - i});
  }
  SLASH_CHECK(plan.Validate(job.cluster.nodes).ok());
  engines::JobSpec elastic_job = job;
  elastic_job.cluster.reconfig = &plan;
  const engines::RunStats el = RunShape(elastic_job, label + "/elastic");

  // The elastic tier's contracts, re-CHECKed at bench scale: same
  // answer, every event executed, no membership change mistaken for a
  // failure, and the handoffs actually moved state.
  SLASH_CHECK_EQ(st.result_checksum(), el.result_checksum());
  SLASH_CHECK_EQ(st.records_emitted(), el.records_emitted());
  SLASH_CHECK_EQ(el.elastic_joins(), uint64_t(joins));
  SLASH_CHECK_EQ(el.elastic_leaves(), uint64_t(leaves));
  SLASH_CHECK_EQ(el.reconfigs(), uint64_t(joins + leaves));
  SLASH_CHECK_EQ(el.recoveries(), 0u);
  SLASH_CHECK_GT(el.handoff_ns(), 0);
  SLASH_CHECK_GT(el.partitions_moved(), 0u);
  SLASH_CHECK_GT(el.state_bytes_moved(), 0u);
  SLASH_CHECK_GT(el.records_migrated(), 0u);

  // The elasticity tax: time under-provisioned plus handoff pauses. It
  // must cost something (>1) but stay within 3x the worst case of
  // running the whole job on the N/4 initial fleet — each handoff is a
  // full rollback+replay cycle, so the tax grows with the event count,
  // not just the provisioning gap. The committed baseline pins the
  // exact-ish value; this band only catches a runaway.
  const double worst = 3.0 * double(nodes) / double(plan.initial_nodes);
  const double ratio = double(el.makespan()) / double(st.makespan());
  SLASH_CHECK_MSG(ratio > 1.0 && ratio < worst,
                  "elastic/static makespan ratio out of band: " << ratio);

  const std::string x = "n=" + std::to_string(nodes);
  struct Row {
    const char* name;
    const engines::RunStats* stats;
  };
  const Row rows[] = {{"static", &st}, {"elastic", &el}};
  for (const Row& row : rows) {
    table.Add(row.name, x, "makespan [us]",
              double(row.stats->makespan()) / 1e3);
    table.Add(row.name, x, "checksum lo32",
              double(row.stats->result_checksum() & 0xffffffffu));
    table.Add(row.name, x, "sim events/s (wall)",
              row.stats->sim_events_per_sec_wall);
  }
  table.Add("elastic", x, "makespan ratio vs static", ratio);
  table.Add("elastic", x, "handoff pause [us]", double(el.handoff_ns()) / 1e3);
  table.Add("elastic", x, "joins", double(el.elastic_joins()));
  table.Add("elastic", x, "leaves", double(el.elastic_leaves()));
  table.Add("elastic", x, "deferrals", double(el.elastic_deferrals()));
  table.Add("elastic", x, "partitions moved", double(el.partitions_moved()));
  table.Add("elastic", x, "state moved [KiB]",
            double(el.state_bytes_moved()) / double(kKiB));
  table.Add("elastic", x, "records migrated", double(el.records_migrated()));
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table("elasticity");
  std::vector<Point> points;
  for (const int n : {8, 16}) {
    points.push_back({"Elasticity/nodes:" + std::to_string(n),
                      [&table, n] { Elasticity(table, n); }});
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}
