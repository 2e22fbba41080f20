#include "engines/lightsaber_engine.h"

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/record.h"
#include "engines/trigger.h"
#include "state/partition.h"

namespace slash::engines {

namespace {

using core::Record;
using perf::Op;

struct LightSaberRun {
  explicit LightSaberRun(sim::Simulator& sim) : sim(sim) {}

  const core::QuerySpec* query;
  const workloads::Workload* workload;
  ClusterConfig cluster;
  JobConfig job;
  sim::Simulator& sim;  // owned by the ClusterRuntime
  std::vector<std::unique_ptr<perf::CpuContext>> worker_cpus;
  std::vector<std::unique_ptr<state::Partition>> partials;  // per worker
  std::unique_ptr<state::Partition> merged;  // shared merge target
  core::ResultSink sink{true};
  uint64_t records_in = 0;
  int finished_workers = 0;
  int64_t last_trigger_wm = core::kWatermarkMin;
  obs::Tracer* tracer = nullptr;
  uint32_t trace_window = 0;
  uint32_t trace_cat = 0;
};

/// A worker thread: eagerly folds its flow into thread-local partial
/// state, then participates in the parallel late merge — each worker
/// merges its own partial aggregates into the shared merged table, and the
/// last one emits. This is LightSaber's task-parallel "late merge": the
/// merge is work every core shares, not a single merger thread.
sim::Task Worker(LightSaberRun* run, int w) {
  perf::CpuContext* cpu = run->worker_cpus[w].get();
  core::RecordPipeline pipeline(run->query, cpu, run->job.execution);
  auto source = run->workload->MakeFlow(w, run->cluster.workers_per_node,
                                        run->job.records_per_worker,
                                        run->job.seed);
  state::Partition* partial = run->partials[w].get();
  Record r;
  bool more = true;
  while (more) {
    uint64_t batch_records = 0;
    while (batch_records < kSourceBatch && (more = source->Next(&r))) {
      ++batch_records;
      const uint16_t wire_size = run->workload->wire_size(r.stream_id);
      cpu->ChargeBytes(Op::kSourceReadPerByte, wire_size);
      if (!pipeline.Process(&r)) continue;
      pipeline.ChargeStatefulPrologue();
      cpu->Charge(Op::kIndexProbe);
      cpu->Charge(Op::kStateRmw);
      partial->UpdateAggregate(
          {r.key, run->query->window.BucketOf(r.timestamp)}, r.value);
    }
    run->records_in += batch_records;
    cpu->CountRecords(batch_records);
    co_await cpu->Sync();
  }

  // Late merge: fold this worker's partials into the shared merged table
  // (thread-safe CRDT merges), charging this worker's core.
  partial->ForEachLive(
      [&](const state::EntryHeader& header, const uint8_t* value) {
        cpu->Charge(Op::kCrdtMergePerPair);
        state::AggState s;
        std::memcpy(&s, value, sizeof(s));
        run->merged->MergeAggregate({header.key, header.bucket}, s);
      });
  co_await cpu->Sync();

  if (++run->finished_workers == run->cluster.workers_per_node) {
    // Last worker emits the merged windows.
    TriggerWindows(*run->query, core::kWatermarkMax, run->merged.get(),
                   &run->sink, cpu, &run->last_trigger_wm);
    if (run->tracer != nullptr) {
      run->tracer->Instant(run->sim.now(), run->trace_window, run->trace_cat,
                           /*pid=*/0, obs::kTrackEngine);
    }
    co_await cpu->Sync();
  }
}

}  // namespace

RunStats LightSaberEngine::Run(const JobSpec& spec) {
  RunStats stats;
  stats.engine = std::string(name());
  if (spec.sources == nullptr) {
    stats.status = Status::InvalidArgument("JobSpec has no workload (sources)");
    return stats;
  }
  stats.status = CheckUntenanted(spec, name());
  if (!stats.ok()) return stats;
  const ClusterConfig& cluster = spec.cluster;
  const JobConfig& job = spec.config;
  const core::QuerySpec query = spec.sources->MakeQuery();
  SLASH_CHECK_MSG(!query.is_join(),
                  "LightSaber does not support join operators "
                  "(paper Sec. 8.2.4)");
  SLASH_CHECK_MSG(cluster.nodes == 1, "LightSaber is a single-node engine");

  auto runtime = ClusterRuntime::Create(cluster, /*fabric_nodes=*/0,
                                        kSupport, job.tracer);
  if (!runtime.ok()) {
    stats.status = runtime.status();
    return stats;
  }
  ClusterRuntime& rt = **runtime;
  obs::MetricsRegistry& registry = rt.registry();
  LightSaberRun run(*rt.sim());
  run.query = &query;
  run.workload = spec.sources;
  run.cluster = cluster;
  run.job = job;
  run.sink = core::ResultSink(job.collect_rows);
  run.tracer = run.sim.tracer();
  if (run.tracer != nullptr) {
    run.trace_window = run.tracer->Intern("engine.window_fire");
    run.trace_cat = run.tracer->Intern("lightsaber");
  }

  state::PartitionConfig pcfg;
  pcfg.kind = state::StateKind::kAggregate;
  pcfg.lss_capacity = job.state_lss_capacity;
  pcfg.index_buckets = job.state_index_buckets;
  for (int w = 0; w < cluster.workers_per_node; ++w) {
    run.worker_cpus.push_back(std::make_unique<perf::CpuContext>(
        &run.sim, &perf::CostModel::Default(), cluster.cpu_ghz));
    run.partials.push_back(std::make_unique<state::Partition>(w, pcfg));
  }
  run.merged = std::make_unique<state::Partition>(-1, pcfg);

  for (int w = 0; w < cluster.workers_per_node; ++w) {
    run.sim.Spawn(Worker(&run, w));
  }

  rt.Run(&stats);
  registry.GetCounter(obs::metric::kRecordsIn)->Add(run.records_in);
  registry.GetCounter(obs::metric::kRecordsEmitted)->Add(run.sink.count());
  registry.GetCounter(obs::metric::kResultChecksum)
      ->Add(run.sink.checksum());
  if (job.collect_rows) stats.rows = run.sink.rows();
  perf::Counters* workers =
      registry.GetCpu(obs::metric::kCpu, {{obs::kLabelRole, "worker"}});
  for (auto& cpu : run.worker_cpus) workers->Merge(cpu->counters());
  rt.Finish(&stats);
  return stats;
}

}  // namespace slash::engines
