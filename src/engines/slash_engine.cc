#include "engines/slash_engine.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/record.h"
#include "elastic/coordinator.h"
#include "elastic/rebalancer.h"
#include "engines/membership.h"
#include "engines/state_writer.h"
#include "engines/trigger.h"
#include "state/state_backend.h"

namespace slash::engines {

namespace {

using channel::InboundBuffer;
using channel::RdmaChannel;
using channel::SlotRef;
using core::Record;
using perf::Op;

// Recovery is not free: each channel of the rebuilt attempt costs a
// connection setup, and restoring checkpoint blobs streams them back
// through memory at a finite rate. Both feed the modeled recovery delay.
constexpr Nanos kChannelSetupCost = 10 * kMicrosecond;
constexpr uint64_t kRestoreBytesPerNs = 4;

/// One input flow assigned to a worker. Flow ids are global and stable
/// across recovery attempts; a crashed node's flows are re-homed to its
/// heir, which re-derives the exact checkpoint cut by skipping the
/// deterministic generator to the checkpointed offset.
struct Lane {
  uint64_t flow = 0;
  std::unique_ptr<core::RecordSource> source;  // local-read mode
  RdmaChannel* ingest = nullptr;               // rdma_ingestion mode
  uint64_t consumed = 0;
  int64_t last_ts = core::kWatermarkMin;
  bool done = false;
};

/// One inbound state-synchronization channel. Helper `helper` ships the
/// deltas of exactly one partition `partition` through it, so the stream is
/// a strict epoch FIFO carrying exactly one delta (terminated by a
/// user_tag == 1 chunk) per epoch — the property the checkpoint barrier
/// counts on to align snapshots across nodes.
struct InChannel {
  int helper = 0;
  int partition = 0;
  RdmaChannel* ch = nullptr;
  uint64_t finals_merged = 0;  // epochs fully merged from this channel
  bool final_seen = false;     // end-of-stream delta received
  // Low watermark of the last fully merged delta on *this* channel. Window
  // triggering joins these per-channel values per led partition instead of
  // keeping one clock entry per helper: helper deltas ship per partition,
  // so when this node leads several partitions one partition's final chunk
  // can announce an epoch watermark while a sibling partition's delta for
  // the same epoch is still in flight — a per-helper clock would emit that
  // sibling's windows before its below-watermark records merge.
  int64_t wm = core::kWatermarkMin;
};

/// What the job as a whole is doing: running an attempt, or between
/// attempts because a recovery (crash, quarantine, rejoin) or a membership
/// handoff (join, leave) tore the last one down and the next is pending.
enum class RunPhase : uint8_t { kRunning, kRecovering, kHandoff };

struct NodeState {
  int node = 0;
  std::unique_ptr<state::StateBackend> ssb;
  std::vector<std::unique_ptr<perf::CpuContext>> worker_cpus;
  std::vector<int64_t> worker_watermarks;
  std::vector<std::vector<Lane>> worker_lanes;  // per worker
  int finished_workers = 0;
  // Epoch coordination: any worker that observes the byte threshold bumps
  // `epoch_seq`; every worker then drains *its assigned partitions* for
  // that epoch (parallel drain). `epoch_low_wm` is the node low watermark
  // frozen at the bump.
  uint64_t epoch_seq = 0;
  int64_t epoch_low_wm = core::kWatermarkMin;
  bool final_bumped = false;  // the end-of-stream epoch has been announced
  // Per-worker drain progress (mirrors each worker's local drained_seq).
  // Input admission at a checkpoint boundary must wait until EVERY worker
  // has serialized its share of the announced epoch: a fragment is one
  // mutable accumulator per partition, so a post-boundary record pushed
  // before the assigned worker drains would contaminate the boundary
  // epoch's delta — the leader would then snapshot state the helper's
  // recorded input offsets do not cover, and replay after a rollback
  // would double-count those records.
  std::vector<uint64_t> worker_drained_seq;
  std::vector<int64_t> trigger_wms;  // per led partition
  core::ResultSink sink;
  // out[p]: channel towards partition p's current leader (nullptr when this
  // node leads p itself); in: one entry per (helper, partition) feeding us.
  std::vector<RdmaChannel*> out;
  std::vector<InChannel> in;
  // Checkpointing: rounds this node has snapshotted (starts at the restored
  // round), and whether the terminal snapshot has been taken.
  uint64_t snapshots_taken = 0;
  bool terminal_snapshotted = false;
  ReplState* repl = nullptr;
  // Notified on any inbound arrival or credit return at this node; the
  // epoch-drain loop parks here so it can keep pumping inbound channels
  // (releasing their credits) while waiting for its own send credits —
  // without this, two nodes draining towards each other can deadlock.
  std::unique_ptr<sim::Event> activity;

  int64_t NodeLowWatermark() const {
    return *std::min_element(worker_watermarks.begin(),
                             worker_watermarks.end());
  }

  bool channels_done() const {
    for (const InChannel& ic : in) {
      if (!ic.final_seen) return false;
    }
    return true;
  }
};

// One job's full execution state. The DES and the fabric are NOT owned:
// RunJobs' ClusterRuntime owns them and every concurrent job shares them
// (DESIGN.md §12) — which is the whole point of the multi-tenant design:
// fairness falls out of one timestamp-ordered event queue, and the NIC
// model contends naturally because every job's channels live on the same
// simulated fabric.
struct SlashRun {
  const core::QuerySpec* query;
  const workloads::Workload* workload;
  ClusterConfig cluster;
  JobConfig job;
  state::SsbConfig ssb_config;
  sim::Simulator* sim = nullptr;
  rdma::Fabric* fabric = nullptr;
  // Multi-tenant identity: a non-empty tenant labels this job's instruments
  // {tenant=...} and gives it dedicated trace tracks; the quota (job.quota
  // > 0) caps the job's in-flight NIC credits across all of its channels.
  std::string tenant;
  std::unique_ptr<channel::CreditQuota> quota;
  int track_engine = obs::kTrackEngine;
  int track_recovery = obs::kTrackRecovery;
  Nanos drained_at = 0;  // virtual time when the last worker exited
  std::vector<std::unique_ptr<RdmaChannel>> channels;
  size_t attempt_channel_start = 0;  // first channel of the current attempt
  // All NodeStates ever built (coroutines of a torn-down attempt may still
  // be unwinding and referencing theirs); `nodes` indexes the current
  // attempt by physical node id, nullptr for dead nodes.
  std::vector<std::unique_ptr<NodeState>> node_storage;
  std::vector<NodeState*> nodes;
  std::vector<std::unique_ptr<perf::CpuContext>> generator_cpus;
  std::vector<std::unique_ptr<perf::CpuContext>> repl_cpus;
  std::vector<std::unique_ptr<ReplState>> repl_storage;
  // Recovery control plane: the blob store, the node-lifecycle table (the
  // only record of who is a member; retirement and join rounds live in the
  // coordinator), the current placement, and the rollback in flight.
  std::unique_ptr<RecoveryCoordinator> coordinator;
  std::unique_ptr<Membership> members;
  std::vector<int> owner;      // partition -> leading node
  std::vector<int> flow_home;  // flow -> node reading it
  int attempt = 1;
  RunPhase phase = RunPhase::kRunning;
  bool in_teardown = false;  // close handlers fire synchronously in teardown
  Nanos recovery_start = 0;  // when the rollback in flight began
  int rollback_node = 0;     // its trace node
  uint64_t records_at_crash = 0;
  // Failure detection (health.enabled) and elastic reconfiguration
  // (cluster.reconfig): the detector and the plan executor keep their own
  // state; the engine's transition handlers feed them membership changes.
  // For a handoff the engine keeps the pre-handoff placement (migration
  // accounting) and the per-partition load the Rebalancer consumes.
  std::unique_ptr<health::HealthMonitor> health;
  std::unique_ptr<elastic::ReconfigCoordinator> reconfig_coord;
  std::vector<int> prev_owner;
  std::vector<int> prev_flow_home;
  std::vector<uint64_t> partition_load;  // delta entries merged per partition
  int workers_running = 0;
  uint64_t restore_floor = 0;  // records_in right after the last restore
  // Records ingested by the current timeline: reset on restore, read by the
  // watchdog and the reconfiguration load trigger, published at the end.
  uint64_t records_in = 0;
  // Tallies published in place, under the job's labels. The health ones
  // are resolved only with a monitor and the elastic ones only with a plan,
  // so a run without those planes registers none of their instruments.
  obs::Counter* recoveries = nullptr;
  obs::Counter* recovery_ns = nullptr;
  obs::Counter* records_replayed = nullptr;
  obs::Counter* bytes_replicated = nullptr;
  obs::Counter* rejoins = nullptr;
  obs::Counter* fence_suppressions = nullptr;
  obs::Counter* reconfigs = nullptr;
  obs::Counter* joins = nullptr;
  obs::Counter* leaves = nullptr;
  obs::Counter* handoff_ns = nullptr;
  obs::Counter* partitions_moved = nullptr;
  obs::Counter* state_bytes_moved = nullptr;
  obs::Counter* records_migrated = nullptr;
  // Observability handles (resolved once in Run; tracer null when disabled).
  obs::Histogram* latency = nullptr;  // channel.transfer_latency_ns
  obs::Tracer* tracer = nullptr;
  uint32_t trace_epoch = 0;
  uint32_t trace_snapshot = 0;
  uint32_t trace_window = 0;
  uint32_t trace_recovery = 0;
  uint32_t trace_handoff = 0;
  uint32_t trace_cat = 0;
  bool failed = false;
  Status failure;

  int total_workers() const { return cluster.nodes * cluster.workers_per_node; }
  bool checkpointing() const { return job.checkpoint.enabled; }
  bool elastic() const { return cluster.reconfig != nullptr; }
  /// Whether a task of attempt `a` must stop: the run failed, or a crash
  /// tore its attempt down.
  bool Halted(int a) const { return failed || attempt != a; }
  uint64_t interval() const {
    return std::max<uint32_t>(1u, job.checkpoint.interval_epochs);
  }
};

void BuildAttempt(SlashRun* run, uint64_t round);
void ArmRecoveryWatchdog(SlashRun* run);

/// Aborts the run cleanly after an unrecoverable fault: records the cause
/// and wakes every parked coroutine so it can observe `failed` and unwind
/// (instead of deadlocking on a channel that will never move again).
void FailRun(SlashRun* run, const Status& cause) {
  if (run->failed) return;
  run->failed = true;
  run->failure = cause;
  if (run->health != nullptr) run->health->Stop();
  if (run->reconfig_coord != nullptr) run->reconfig_coord->Stop();
  for (NodeState* ns : run->nodes) {
    if (ns != nullptr) ns->activity->Notify();
  }
  for (auto& ch : run->channels) {
    ch->credit_event().Notify();
    ch->data_event().Notify();
  }
  for (auto& rs : run->repl_storage) rs->event->Notify();
}

/// Emits and retires every bucket of the partitions this node leads whose
/// trigger watermark passed min(V).
void TryTrigger(SlashRun* run, NodeState* ns, perf::CpuContext* cpu) {
  if (run->members->fenced(ns->node)) {
    // Fencing invariant: a node without majority contact must not emit.
    // Reached only in the narrow window before the worker observes the
    // fence and parks; the suppressed windows re-fire on unfence (the
    // trigger watermarks make emission idempotent catch-up).
    run->fence_suppressions->Add(1);
    return;
  }
  for (int p = 0; p < run->cluster.nodes; ++p) {
    if (!ns->ssb->leads(p)) continue;
    // Per-partition watermark: the local epoch low watermark joined with
    // the last delta watermark delivered on each inbound channel feeding
    // this partition (see the InChannel::wm comment for why a per-helper
    // clock would be unsound here).
    int64_t wm = ns->epoch_low_wm;
    for (const InChannel& ic : ns->in) {
      if (ic.partition == p) wm = std::min(wm, ic.wm);
    }
    const int64_t before = ns->trigger_wms[p];
    TriggerWindows(*run->query, wm, ns->ssb->local(p), &ns->sink, cpu,
                   &ns->trigger_wms[p]);
    if (run->tracer != nullptr && ns->trigger_wms[p] != before) {
      run->tracer->Instant(run->sim->now(), run->trace_window, run->trace_cat,
                           ns->node, run->track_engine);
    }
  }
}

/// True when the next checkpoint round's barrier is complete at this node:
/// it announced the boundary epoch itself (or finished its input for good),
/// and every inbound channel has delivered all deltas up to the boundary
/// (or its end-of-stream delta).
bool SnapshotReady(const SlashRun* run, const NodeState* ns) {
  if (!run->checkpointing() || run->failed || ns->terminal_snapshotted) {
    return false;
  }
  // A fenced node must not cut (= commit) a round: the majority side may be
  // recovering past it right now, and a commit here would be the epoch-
  // committed-twice split-brain the fence exists to prevent.
  if (run->members->fenced(ns->node)) return false;
  const uint64_t boundary = (ns->snapshots_taken + 1) * run->interval();
  if (ns->epoch_seq < boundary && !ns->final_bumped) return false;
  for (const InChannel& ic : ns->in) {
    if (!ic.final_seen && ic.finals_merged < boundary) return false;
  }
  return true;
}

/// Cuts one checkpoint round: serializes every led partition, the input
/// offsets of every lane, and the sink into a blob; registers it with the
/// coordinator; and hands it to the replication stream. When the node's
/// input and every inbound channel are fully drained the snapshot is
/// terminal — it stands in for every later round.
void TakeSnapshot(SlashRun* run, NodeState* ns, perf::CpuContext* cpu) {
  SLASH_CHECK_MSG(!run->members->fenced(ns->node),
                  "fenced node " << ns->node << " attempted to cut a snapshot");
  // At the barrier every node has merged exactly the same per-peer epoch
  // prefix, so fire any due windows now: the snapshot then captures state,
  // trigger watermarks and sink consistently *after* them.
  TryTrigger(run, ns, cpu);
  const uint64_t round = ns->snapshots_taken + 1;
  std::vector<uint8_t> blob;
  BlobWriter writer(&blob);
  writer.U64(round);
  uint64_t led = 0;
  for (int p = 0; p < run->cluster.nodes; ++p) {
    if (ns->ssb->leads(p)) ++led;
  }
  writer.U64(led);
  for (int p = 0; p < run->cluster.nodes; ++p) {
    if (!ns->ssb->leads(p)) continue;
    writer.U64(uint64_t(p));
    writer.I64(ns->trigger_wms[p]);
    std::vector<uint8_t> state;
    ns->ssb->SnapshotPartition(p, &state);
    writer.Bytes(state);
  }
  uint64_t flows = 0;
  for (const auto& lanes : ns->worker_lanes) flows += lanes.size();
  writer.U64(flows);
  for (const auto& lanes : ns->worker_lanes) {
    for (const Lane& lane : lanes) {
      writer.U64(lane.flow);
      writer.U64(lane.consumed);
      writer.I64(lane.last_ts);
    }
  }
  writer.U64(ns->sink.count());
  writer.U64(ns->sink.checksum());
  const auto& rows = ns->sink.rows();
  writer.U64(rows.size());
  for (const auto& row : rows) {
    writer.I64(row.bucket);
    writer.U64(row.key);
    writer.I64(row.value);
  }
  cpu->ChargeBytes(Op::kEpochScanPerByte, blob.size());

  const bool terminal = ns->final_bumped && ns->channels_done();
  if (run->tracer != nullptr) {
    run->tracer->Instant(run->sim->now(), run->trace_snapshot, run->trace_cat,
                         ns->node, run->track_recovery);
  }
  run->coordinator->RecordLocal(ns->node, round, std::move(blob));
  if (terminal) {
    run->coordinator->MarkFinalFrom(ns->node, round);
    ns->terminal_snapshotted = true;
  }
  ns->snapshots_taken = round;
  if (ns->repl != nullptr) {
    ns->repl->rounds.push_back(round);
    if (terminal) ns->repl->terminal = true;
    ns->repl->event->Notify();
  }
  // The checkpoint covers everything consumed so far: prune the ingest
  // replay buffers and release any back-pressured generator.
  for (const auto& lanes : ns->worker_lanes) {
    for (const Lane& lane : lanes) {
      if (lane.ingest != nullptr) lane.ingest->MarkCheckpoint();
    }
  }
  ns->activity->Notify();  // input suppression lifted
}

void MaybeSnapshot(SlashRun* run, NodeState* ns, perf::CpuContext* cpu) {
  while (SnapshotReady(run, ns)) TakeSnapshot(run, ns, cpu);
}

/// Polls the node's inbound channels and merges delta chunks into the led
/// primaries. Every chunk is entry-aligned and independently mergeable, so
/// *any* worker can take any chunk — merge work spreads across all worker
/// cores, interleaved with query processing (Sec. 7.2.1). Returns true if
/// anything was consumed.
///
/// Watermark rule: only a delta's last chunk (user_tag == 1) carries the
/// helper's low watermark; earlier chunks must not advance the vector
/// clock or a window could trigger before all its state arrived.
bool PollAndMerge(SlashRun* run, NodeState* ns, perf::CpuContext* cpu) {
  bool progressed = false;
  const bool ckpt = run->checkpointing();
  const uint64_t boundary = (ns->snapshots_taken + 1) * run->interval();
  for (InChannel& ic : ns->in) {
    // Checkpoint barrier: once this channel delivered every epoch up to the
    // boundary, its stream is frozen until the round's snapshot is cut —
    // later deltas stay buffered in the channel (credits bound them).
    if (ckpt && !ic.final_seen && ic.finals_merged >= boundary) continue;
    InboundBuffer buffer;
    while (ic.ch->TryPoll(&buffer, cpu)) {
      progressed = true;
      run->latency->Record(run->sim->now() - buffer.send_time);
      state::DeltaEnvelope envelope;
      SLASH_CHECK(ns->ssb
                      ->MergeIntoPrimary(buffer.payload, buffer.payload_len,
                                         &envelope)
                      .ok());
      cpu->Charge(Op::kCrdtMergePerPair, double(envelope.entry_count));
      // Load signal for the Rebalancer: delta entries merged per partition
      // (allocated only for elastic runs).
      if (!run->partition_load.empty()) {
        run->partition_load[ic.partition] += envelope.entry_count;
      }
      const bool last_chunk = buffer.user_tag == 1;
      const int64_t watermark = buffer.watermark;
      SLASH_CHECK(ic.ch->Release(buffer, cpu).ok());
      if (last_chunk) {
        if (watermark > ic.wm) ic.wm = watermark;
        ++ic.finals_merged;
        if (watermark == core::kWatermarkMax) ic.final_seen = true;
        if (ckpt && !ic.final_seen && ic.finals_merged >= boundary) break;
      }
    }
  }
  return progressed;
}

/// The helper partitions worker `w` is responsible for draining (and whose
/// channels it effectively owns as a producer).
std::vector<int> AssignedPartitions(const SlashRun& run, const NodeState& ns,
                                    int w) {
  std::vector<int> partitions;
  int slot = 0;
  for (int p = 0; p < run.cluster.nodes; ++p) {
    if (ns.ssb->leads(p)) continue;
    if (slot % run.cluster.workers_per_node == w) partitions.push_back(p);
    ++slot;
  }
  return partitions;
}

/// A serialized delta queued for transmission on one channel: the drain is
/// *non-blocking* — a worker serializes its fragments the moment it
/// observes a new epoch (freeing them for fresh RMWs immediately) and then
/// ships the chunks opportunistically between processing batches, never
/// stalling on credits. This is the full compute/RDMA interleaving of
/// Sec. 5.3: an out-of-credit channel parks only the *send*, not the core.
struct PendingDelta {
  int partition = 0;
  state::DeltaEnvelope envelope;
  std::vector<uint8_t> bytes;  // entries only (envelope re-written per chunk)
  std::vector<state::Partition::DeltaChunk> chunks;
  size_t next_chunk = 0;
  int64_t low_wm = 0;
};

/// Serializes this worker's share of the fragments for the current epoch
/// and appends the resulting deltas to its send queue (protocol steps 1-2
/// and the sender half of step 4).
void SerializeShare(SlashRun* run, NodeState* ns,
                    const std::vector<int>& partitions, int64_t low_wm,
                    std::deque<PendingDelta>* queue, perf::CpuContext* cpu) {
  for (int p : partitions) {
    PendingDelta delta;
    delta.partition = p;
    delta.low_wm = low_wm;
    std::vector<uint8_t> scratch;
    delta.envelope = ns->ssb->DrainFragment(p, low_wm, &scratch);
    cpu->Charge(Op::kEpochScanPerByte, double(scratch.size()));
    delta.bytes.assign(scratch.begin() + sizeof(state::DeltaEnvelope),
                       scratch.end());
    delta.chunks = state::Partition::SplitDelta(
        delta.bytes.data(), delta.bytes.size(),
        ns->out[p]->payload_capacity() - sizeof(state::DeltaEnvelope));
    queue->push_back(std::move(delta));
  }
}

/// Ships as many queued delta chunks as credits currently allow (protocol
/// step 3). Never blocks; returns true if anything was sent.
bool PumpSendQueue(SlashRun* run, NodeState* ns,
                   std::deque<PendingDelta>* queue, perf::CpuContext* cpu) {
  bool sent = false;
  while (!queue->empty()) {
    PendingDelta& delta = queue->front();
    RdmaChannel* ch = ns->out[delta.partition];
    while (delta.next_chunk < delta.chunks.size()) {
      SlotRef slot;
      if (!ch->TryAcquire(&slot, cpu)) return sent;  // out of credit: later
      const auto& chunk = delta.chunks[delta.next_chunk];
      state::DeltaEnvelope chunk_envelope = delta.envelope;
      chunk_envelope.entry_count = chunk.entries;
      std::memcpy(slot.payload, &chunk_envelope, sizeof(chunk_envelope));
      if (chunk.length > 0) {  // empty delta: bytes.data() may be null
        std::memcpy(slot.payload + sizeof(chunk_envelope),
                    delta.bytes.data() + chunk.offset, chunk.length);
      }
      cpu->ChargeBytes(Op::kBufferCopyPerByte,
                       sizeof(chunk_envelope) + chunk.length);
      const bool last = delta.next_chunk + 1 == delta.chunks.size();
      const Status post = ch->Post(slot, sizeof(chunk_envelope) + chunk.length,
                                   /*user_tag=*/last ? 1 : 0,
                                   /*watermark=*/last ? delta.low_wm
                                                      : core::kWatermarkMin,
                                   cpu);
      if (!post.ok()) {
        // Only a broken channel rejects an in-order post; the close handler
        // (or the crash teardown) has already dealt with the run — stop
        // pumping and let the worker exit.
        SLASH_CHECK(ch->broken());
        return sent;
      }
      sent = true;
      ++delta.next_chunk;
    }
    queue->pop_front();
  }
  return sent;
}

/// Bumps the node epoch (step 1): freezes the low watermark and advances
/// the per-partition epoch counters; workers drain their shares when they
/// observe the new sequence number.
void BumpEpoch(SlashRun* run, NodeState* ns) {
  if (run->tracer != nullptr) {
    run->tracer->Instant(run->sim->now(), run->trace_epoch, run->trace_cat,
                         ns->node, run->track_engine);
  }
  ns->ssb->BeginEpoch();
  ++ns->epoch_seq;
  ns->epoch_low_wm = ns->NodeLowWatermark();
  ns->activity->Notify();  // wake idle workers to drain their shares
}

/// A source-node generator (rdma_ingestion mode): streams one flow's wire
/// records into its executor worker's ingest channel at line rate, then
/// posts a final marker. On recovery the generator is restarted with a
/// `skip`: the flow is deterministic, so fast-forwarding past the
/// checkpointed offset re-derives the exact cut (the skip is part of the
/// modeled recovery delay, not the data path).
sim::Task Generator(SlashRun* run, RdmaChannel* ch, uint64_t flow,
                    uint64_t skip, perf::CpuContext* cpu, int attempt) {
  auto source = run->workload->MakeFlow(int(flow), run->total_workers(),
                                        run->job.records_per_worker,
                                        run->job.seed);
  Record r;
  bool more = true;
  for (uint64_t i = 0; i < skip && more; ++i) more = source->Next(&r);
  if (more) more = source->Next(&r);
  int64_t last_ts = core::kWatermarkMin;
  while (more) {
    SlotRef slot;
    while (!ch->TryAcquire(&slot, cpu)) {
      if (run->Halted(attempt) || ch->broken()) co_return;
      co_await cpu->Park(ch->credit_event());
    }
    core::RecordWriter writer(slot.payload, ch->payload_capacity());
    do {
      const uint16_t wire_size = run->workload->wire_size(r.stream_id);
      cpu->ChargeBytes(Op::kSourceReadPerByte, wire_size);
      cpu->ChargeBytes(Op::kBufferCopyPerByte, wire_size);
      if (!writer.Append(r, wire_size)) break;
      last_ts = r.timestamp;
      more = source->Next(&r);
    } while (more);
    if (!ch->Post(slot, writer.bytes_used(), /*user_tag=*/0,
                  /*watermark=*/last_ts, cpu)
             .ok()) {
      SLASH_CHECK(ch->broken());
      co_return;
    }
    co_await cpu->Sync();
  }
  SlotRef final_slot;
  while (!ch->TryAcquire(&final_slot, cpu)) {
    if (run->Halted(attempt) || ch->broken()) co_return;
    co_await cpu->Park(ch->credit_event());
  }
  if (!ch->Post(final_slot, 0, /*user_tag=*/1,
                /*watermark=*/core::kWatermarkMax, cpu)
           .ok()) {
    SLASH_CHECK(ch->broken());
    co_return;
  }
  co_await cpu->Sync();
}

// Replication user_tag encoding: (round << 2) | flags, flag 1 = last chunk
// of a blob, flag 2 = terminal marker (the source will snapshot no more).
constexpr uint64_t kReplLastChunk = 1;
constexpr uint64_t kReplTerminal = 2;

/// Ships every snapshot a node takes to one replication target, chunked to
/// the channel's slot size, then a terminal marker once the node's terminal
/// snapshot is enqueued.
sim::Task Replicator(SlashRun* run, int node, ReplState* rs, RdmaChannel* ch,
                     perf::CpuContext* cpu, int attempt) {
  size_t cursor = 0;
  for (;;) {
    if (run->Halted(attempt) || ch->broken()) co_return;
    if (cursor < rs->rounds.size()) {
      const uint64_t round = rs->rounds[cursor];
      const uint64_t cap = ch->payload_capacity();
      uint64_t size = 0;
      uint64_t off = 0;
      do {
        SlotRef slot;
        while (!ch->TryAcquire(&slot, cpu)) {
          if (run->Halted(attempt) || ch->broken()) co_return;
          co_await cpu->Park(ch->credit_event());
        }
        // A rollback aborts the attempt's channels before it discards
        // rounds, so holding a slot means the blob is still recorded. Read
        // it only until the next suspension.
        const std::vector<uint8_t>* blob =
            run->coordinator->BlobFor(node, round);
        SLASH_CHECK_MSG(blob != nullptr, "replicating a discarded blob: node "
                                             << node << " round " << round);
        size = blob->size();
        const uint64_t len = std::min(cap, size - off);
        std::memcpy(slot.payload, blob->data() + off, len);
        cpu->ChargeBytes(Op::kBufferCopyPerByte, len);
        off += len;
        const bool last = off == size;
        const uint64_t tag = (round << 2) | (last ? kReplLastChunk : 0);
        if (!ch->Post(slot, len, tag, /*watermark=*/0, cpu).ok()) {
          SLASH_CHECK(ch->broken());
          co_return;
        }
        co_await cpu->Sync();
      } while (off < size);
      ++cursor;
      continue;
    }
    if (rs->terminal) break;
    co_await cpu->Park(*rs->event);
  }
  SlotRef slot;
  while (!ch->TryAcquire(&slot, cpu)) {
    if (run->Halted(attempt) || ch->broken()) co_return;
    co_await cpu->Park(ch->credit_event());
  }
  if (!ch->Post(slot, 0, kReplTerminal, /*watermark=*/0, cpu).ok()) co_return;
  co_await cpu->Sync();
}

/// Receives a peer's snapshot stream on node `holder` and registers each
/// completed blob with the coordinator (the holder now owns a full copy the
/// dead node's heir can restore from). Exits on the terminal marker.
sim::Task ReplicaReceiver(SlashRun* run, int src, int holder, RdmaChannel* ch,
                          perf::CpuContext* cpu, int attempt) {
  for (;;) {
    if (run->Halted(attempt)) co_return;
    InboundBuffer buffer;
    if (!ch->TryPoll(&buffer, cpu)) {
      if (ch->broken()) co_return;
      co_await cpu->Park(ch->data_event());
      continue;
    }
    const uint64_t tag = buffer.user_tag;
    const uint64_t len = buffer.payload_len;
    SLASH_CHECK(ch->Release(buffer, cpu).ok());
    if (tag & kReplTerminal) co_return;
    run->bytes_replicated->Add(len);
    if (tag & kReplLastChunk) {
      run->coordinator->RecordReplica(src, tag >> 2, holder);
    }
  }
}

/// One worker coroutine: processes this worker's input lanes push-based,
/// interleaved with draining its assigned helper partitions, merging
/// inbound deltas, cutting checkpoint snapshots at round barriers, and
/// shipping queued chunks — the compute/RDMA coroutine interleaving of
/// Sec. 5.3.
sim::Task Worker(SlashRun* run, NodeState* ns, int w, int attempt) {
  ++run->workers_running;
  perf::CpuContext* cpu = ns->worker_cpus[w].get();
  core::RecordPipeline pipeline(run->query, cpu, run->job.execution);
  std::vector<Lane>& lanes = ns->worker_lanes[w];
  const std::vector<int> my_partitions = AssignedPartitions(*run, *ns, w);
  // A fresh (post-restore) worker starts at the restored epoch sequence:
  // every epoch up to the checkpoint cut was drained by the previous
  // attempt and is part of the restored state.
  uint64_t drained_seq = ns->epoch_seq;
  std::deque<PendingDelta> send_queue;
  // Every state operation of an input batch is staged here and flushed
  // before the batch ends: nothing below reads or drains the SSB, or
  // suspends, between two process() calls.
  StateWriter state_writer(ns->ssb.get());
  size_t lane_cursor = 0;
  Record r;
  bool more = true;

  uint64_t batch_records = 0;
  uint64_t batch_bytes = 0;
  auto process = [&](Record* rec) {
    ++batch_records;
    const uint16_t wire_size = run->workload->wire_size(rec->stream_id);
    batch_bytes += wire_size;
    if (!run->job.rdma_ingestion) {
      cpu->ChargeBytes(Op::kSourceReadPerByte, wire_size);
    }
    if (!pipeline.Process(rec)) return;
    pipeline.ChargeStatefulPrologue();
    const int64_t bucket = run->query->window.BucketOf(rec->timestamp);
    cpu->Charge(Op::kIndexProbe);
    if (run->query->is_join()) {
      // Holistic state: append the full wire record (state realism).
      SerializeWireRecord(
          *rec, wire_size,
          state_writer.Append(rec->key, bucket, rec->stream_id, wire_size));
      cpu->Charge(Op::kStateAppend);
      cpu->ChargeBytes(Op::kBufferCopyPerByte, wire_size);
    } else {
      cpu->Charge(Op::kStateRmw);
      state_writer.UpdateAggregate(rec->key, bucket, rec->value);
    }
  };

  // A worker may only exit once the node's end-of-stream epoch has been
  // announced and it has shipped its share of it — otherwise its
  // partitions' final deltas (and watermarks) would never reach their
  // leaders. A failed or torn-down run releases workers immediately.
  while (!run->Halted(attempt) &&
         (more || !ns->channels_done() || drained_seq < ns->epoch_seq ||
          !ns->final_bumped || !send_queue.empty())) {
    // Self-fenced (no majority contact): park without processing, draining,
    // committing, or emitting until the fence lifts or the attempt is torn
    // down. The health monitor keeps ticking, so a healed link unfences.
    if (run->members->fenced(ns->node)) {
      co_await cpu->Park(*ns->activity);
      continue;
    }
    // Serialize this worker's share of any newly announced epoch (frees
    // the fragments for fresh RMWs immediately) and ship whatever chunks
    // current credits allow — without ever stalling the core.
    if (drained_seq < ns->epoch_seq) {
      drained_seq = ns->epoch_seq;
      ns->worker_drained_seq[w] = drained_seq;
      SerializeShare(run, ns, my_partitions, ns->epoch_low_wm, &send_queue,
                     cpu);
      TryTrigger(run, ns, cpu);
      // Siblings may be parked waiting for this drain before they can admit
      // post-epoch input (see the suppression condition below).
      ns->activity->Notify();
    }
    const bool sent = PumpSendQueue(run, ns, &send_queue, cpu);
    // RDMA coroutine work: merge inbound delta chunks (cheap when none
    // pending); any worker takes any chunk.
    const bool merged = PollAndMerge(run, ns, cpu);
    if (merged) TryTrigger(run, ns, cpu);
    MaybeSnapshot(run, ns, cpu);
    if (run->Halted(attempt)) break;

    // Input suppression at a checkpoint boundary: once this node announced
    // the boundary epoch, no worker may push post-boundary records into the
    // led primaries until the round's snapshot is cut — the input offsets
    // recorded in the blob must cover exactly the records whose remote
    // contributions sit in epochs the barrier includes. The snapshot cut
    // alone is not enough to re-admit input: a sibling worker may not have
    // drained its share of the boundary epoch yet, and a partition fragment
    // is one mutable accumulator — a post-boundary RMW pushed before that
    // drain would ride inside the boundary delta, land in the LEADER's
    // round blob, and be double-counted when a later rollback replays this
    // node's input from the recorded offsets.
    bool epoch_drained = true;
    for (const uint64_t seq : ns->worker_drained_seq) {
      epoch_drained = epoch_drained && seq >= ns->epoch_seq;
    }
    const bool suppressed =
        run->checkpointing() &&
        (!epoch_drained ||
         ns->epoch_seq >= (ns->snapshots_taken + 1) * run->interval());

    bool input_progress = false;
    if (more && !suppressed) {
      batch_records = 0;
      batch_bytes = 0;
      if (!run->job.rdma_ingestion) {
        // Round-robin across this worker's lanes (an heir's workers carry
        // the crashed node's flows alongside their own).
        while (!lanes.empty() && batch_records < kSourceBatch) {
          Lane* lane = nullptr;
          const size_t n = lanes.size();
          for (size_t step = 0; step < n; ++step) {
            const size_t idx = (lane_cursor + step) % n;
            if (!lanes[idx].done) {
              lane = &lanes[idx];
              lane_cursor = (idx + 1) % n;
              break;
            }
          }
          if (lane == nullptr) break;
          if (!lane->source->Next(&r)) {
            lane->done = true;
            lane->last_ts = core::kWatermarkMax;
            continue;
          }
          lane->last_ts = r.timestamp;
          ++lane->consumed;
          process(&r);
        }
      } else {
        // Ingest one RDMA-delivered buffer per lane, if any has landed.
        for (Lane& lane : lanes) {
          if (lane.done) continue;
          InboundBuffer buffer;
          if (!lane.ingest->TryPoll(&buffer, cpu)) continue;
          if (buffer.user_tag == 1) {
            lane.done = true;
            lane.last_ts = core::kWatermarkMax;
            SLASH_CHECK(lane.ingest->Release(buffer, cpu).ok());
            input_progress = true;
            continue;
          }
          core::RecordReader reader(buffer.payload, buffer.payload_len);
          while (reader.Next(&r)) {
            lane.last_ts = r.timestamp;
            ++lane.consumed;
            process(&r);
          }
          SLASH_CHECK(lane.ingest->Release(buffer, cpu).ok());
        }
      }
      state_writer.Flush();
      bool lanes_done = true;
      int64_t wm = core::kWatermarkMax;
      for (const Lane& lane : lanes) {
        lanes_done = lanes_done && lane.done;
        if (!lane.done) wm = std::min(wm, lane.last_ts);
      }
      ns->worker_watermarks[w] = lanes_done ? core::kWatermarkMax : wm;
      input_progress = input_progress || batch_records > 0 || lanes_done;
      run->records_in += batch_records;
      cpu->CountRecords(batch_records);
      ns->ssb->AccountProcessedBytes(batch_bytes);
      co_await cpu->Sync();
      if (run->Halted(attempt)) break;
      if (lanes_done) {
        more = false;
        if (++ns->finished_workers == run->cluster.workers_per_node) {
          // Ahead-of-time epoch termination at end of stream: the final
          // drain carries watermark kWatermarkMax.
          ns->final_bumped = true;
          BumpEpoch(run, ns);
        }
      } else if (ns->ssb->EpochDue()) {
        BumpEpoch(run, ns);
      }
    }
    if (!merged && !sent && !input_progress && !run->Halted(attempt) &&
        drained_seq == ns->epoch_seq && !SnapshotReady(run, ns) &&
        (more || !ns->channels_done() || !ns->final_bumped ||
         !send_queue.empty())) {
      // Nothing mergeable, nothing sendable (blocked on credits), no input
      // admissible, but not exit-ready either: park until credits return,
      // data arrives, a new epoch is announced, or a snapshot lifts the
      // suppression. The exit- and snapshot-readiness checks in the
      // condition guarantee we never park past the last event.
      co_await cpu->Park(*ns->activity);
    } else {
      co_await cpu->Sync();
    }
  }
  if (!run->Halted(attempt) && !run->members->fenced(ns->node)) {
    // Fully drained: cut any outstanding boundary/terminal snapshot, then
    // fire the final safety trigger — whichever worker observes global
    // completion last emits the remaining windows (idempotent via
    // trigger_wms). Skipped on an aborted or torn-down attempt.
    MaybeSnapshot(run, ns, cpu);
    TryTrigger(run, ns, cpu);
  }
  co_await cpu->Sync();
  --run->workers_running;
  if (run->workers_running == 0 && run->attempt == attempt &&
      run->phase == RunPhase::kRunning && !run->failed) {
    // The last worker of the surviving attempt is out. Record the per-job
    // drain point (obs::metric::kJobDrainNs: in a multi-job run the shared
    // makespan is the LAST job's drain), and stop the heartbeat and the
    // reconfiguration chains so the event queue can drain — a drained job
    // takes no further membership changes. (A failed run stops them in
    // FailRun; workers of a torn-down attempt never match the attempt.)
    run->drained_at = run->sim->now();
    if (run->health != nullptr) run->health->Stop();
    if (run->reconfig_coord != nullptr) run->reconfig_coord->Stop();
  }
}

/// True while an active network partition cuts the mesh an attempt would
/// be built on: the live members plus `extra` (a joiner or leaver, which
/// serves or receives blobs during its handoff; -1 for none). OpenFlow and
/// Connect across an active cut are control-plane refusals, so a rebuild
/// or membership change waits until it heals — or, if it never does, until
/// the watchdog or run-deadline abort.
bool PartitionCutsMesh(const SlashRun* run, int extra) {
  auto member = [&](int n) { return n == extra || run->members->alive(n); };
  for (int a = 0; a < run->cluster.nodes; ++a) {
    if (!member(a)) continue;
    for (int b = a + 1; b < run->cluster.nodes; ++b) {
      if (member(b) && run->fabric->Partitioned(a, b)) return true;
    }
  }
  return false;
}

/// Closes the rollback in flight: accounts its duration as handoff or
/// recovery time and ends its trace span on the track it began on.
void CloseRollback(SlashRun* run) {
  const Nanos now = run->sim->now();
  const bool handoff = run->phase == RunPhase::kHandoff;
  (handoff ? run->handoff_ns : run->recovery_ns)
      ->Add(uint64_t(now - run->recovery_start));
  if (run->tracer != nullptr) {
    run->tracer->End(now, handoff ? run->trace_handoff : run->trace_recovery,
                     run->trace_cat, run->rollback_node,
                     handoff ? obs::kTrackElastic : run->track_recovery);
  }
}

/// The prologue of every membership event — crash, quarantine, rejoin,
/// join, leave: bump the attempt, enter `phase`, open the trace span on
/// `trace_node`, and tear the attempt down. A crash during a handoff
/// supersedes it: that attempt is already torn down, so the handoff is
/// only closed.
void BeginRollback(SlashRun* run, RunPhase phase, int trace_node) {
  const bool superseding = run->phase != RunPhase::kRunning;
  if (superseding) CloseRollback(run);
  ++run->attempt;
  run->phase = phase;
  run->recovery_start = run->sim->now();
  run->records_at_crash = run->records_in;
  run->rollback_node = trace_node;
  if (run->tracer != nullptr) {
    const bool handoff = phase == RunPhase::kHandoff;
    run->tracer->Begin(run->sim->now(),
                       handoff ? run->trace_handoff : run->trace_recovery,
                       run->trace_cat, trace_node,
                       handoff ? obs::kTrackElastic : run->track_recovery);
  }
  if (superseding) return;
  // Tear the attempt down: every channel of it dies (survivors' channels
  // carry in-flight epochs that are ahead of the rollback point).
  // Coroutines observe the attempt bump and unwind; close handlers must not
  // fail the run while we do this on purpose.
  run->in_teardown = true;
  for (size_t i = run->attempt_channel_start; i < run->channels.size(); ++i) {
    run->channels[i]->Abort(
        Status::Unavailable("attempt torn down for crash recovery"));
  }
  for (NodeState* ns : run->nodes) {
    if (ns != nullptr) ns->activity->Notify();
  }
  for (auto& rs : run->repl_storage) rs->event->Notify();
  run->in_teardown = false;
}

/// Completes a scheduled rebuild once the modeled recovery delay elapsed.
/// A network partition that opened during the delay blocks completion —
/// the new mesh would OpenFlow across the cut — so the attempt holds and
/// re-polls until the cut heals; the recovery watchdog converts a cut that
/// never heals into a clean deadline abort instead of a stuck rebuild.
void FinishRebuild(SlashRun* run, uint64_t round, int attempt) {
  // A crash during the wait superseded this rebuild (it bumped the attempt
  // and scheduled its own).
  if (run->Halted(attempt)) return;
  if (PartitionCutsMesh(run, -1)) {
    const Nanos retry = std::max<Nanos>(run->cluster.health.heartbeat_interval,
                                        10 * kMicrosecond);
    run->sim->ScheduleAt(run->sim->now() + retry, [run, round, attempt] {
      FinishRebuild(run, round, attempt);
    });
    return;
  }
  CloseRollback(run);
  BuildAttempt(run, round);
  run->phase = RunPhase::kRunning;
}

/// The epilogue of every membership event: drops the rounds past the
/// rollback point — they describe the torn-down timeline, which the new
/// attempt regenerates under the new placement — then schedules the
/// rebuild at `round` after the modeled recovery delay (channel setup +
/// restore streaming) and arms the progress watchdog over it.
void ScheduleRebuild(SlashRun* run, uint64_t round) {
  run->coordinator->DiscardRoundsAfter(round);
  const uint64_t restore_bytes = run->coordinator->RestoreBytes(round);
  uint64_t new_channels = 0;
  for (int h = 0; h < run->cluster.nodes; ++h) {
    if (!run->members->alive(h)) continue;
    for (int p = 0; p < run->cluster.nodes; ++p) {
      if (run->owner[p] != h) ++new_channels;
    }
  }
  const Nanos delay = kChannelSetupCost * Nanos(new_channels) +
                      Nanos(restore_bytes / kRestoreBytesPerNs);
  const int attempt = run->attempt;
  run->sim->ScheduleAt(run->sim->now() + delay, [run, round, attempt] {
    FinishRebuild(run, round, attempt);
  });
  ArmRecoveryWatchdog(run);
}

/// Hands `node`'s partitions and flows to its heir
/// (RecoveryCoordinator::Heir).
void RehomeToHeir(SlashRun* run, int node, uint64_t round) {
  const int heir =
      run->coordinator->Heir(node, round, run->members->alive_mask());
  std::replace(run->owner.begin(), run->owner.end(), node, heir);
  std::replace(run->flow_home.begin(), run->flow_home.end(), node, heir);
}

/// Recovery from the loss of `failed_nodes` (crashed or quarantined, and
/// already out of the table): rolls every survivor back to the latest round
/// with a live copy of every node's snapshot and hands each failed node's
/// partitions and flows to an heir holding its replica.
void StartRecovery(SlashRun* run, const std::vector<int>& failed_nodes) {
  BeginRollback(run, RunPhase::kRecovering, failed_nodes.front());
  run->recoveries->Add(1);
  const uint64_t round = run->coordinator->LatestRecoverableRound(
      run->members->alive_mask());
  for (int node : failed_nodes) RehomeToHeir(run, node, round);
  ScheduleRebuild(run, round);
}

/// Fabric crash callback: turns a kNodeCrash fault into either a clean
/// abort (no checkpointing to recover from) or a recovery. A crash during
/// a handoff folds both events into one recovery.
void OnNodeCrash(SlashRun* run, int node) {
  if (run->failed) return;
  if (node >= run->cluster.nodes) {
    FailRun(run, Status::Unavailable(
                     "ingestion source node crashed: no upstream to replay"));
    return;
  }
  // A node that is not a live member (quarantined, not yet joined, or
  // left) only becomes kCrashed: its partitions already live elsewhere,
  // and it can simply never come back.
  const bool was_alive = run->members->alive(node);
  run->members->Apply(node, NodeEvent::kCrash);
  if (!was_alive) return;
  if (!run->checkpointing()) {
    FailRun(run,
            Status::Unavailable("node crashed with checkpointing disabled"));
    return;
  }
  if (run->phase == RunPhase::kRecovering) {
    FailRun(run, Status::Unavailable(
                     "node crashed while a recovery was already in flight"));
    return;
  }
  if (run->members->live_count() == 0) {
    FailRun(run, Status::Unavailable("last node crashed: no survivors"));
    return;
  }
  StartRecovery(run, {node});
}

/// HealthMonitor accusation: a majority-side monitor reports `suspects`
/// unreachable. Quarantines them and runs the exact crash-recovery path —
/// epoch-aligned rollback, heirs, replay. Unlike a declared crash, a
/// quarantined node may later rejoin (the monitor keeps probing it).
void OnSuspicion(SlashRun* run, int monitor, const std::vector<int>& suspects) {
  if (run->failed || run->phase != RunPhase::kRunning || run->in_teardown) {
    return;
  }
  // A quarantined node's opinion must not drive cluster decisions.
  if (monitor < run->cluster.nodes &&
      run->members->phase(monitor) == NodePhase::kQuarantined) {
    return;
  }
  std::vector<int> fresh;
  for (int s : suspects) {
    if (s >= 0 && s < run->cluster.nodes &&
        run->members->Apply(s, NodeEvent::kSuspect)) {
      fresh.push_back(s);
    }
  }
  if (fresh.empty()) return;
  if (!run->checkpointing()) {
    FailRun(run, Status::Unavailable(
                     "node suspected unreachable with checkpointing "
                     "disabled: nothing to recover from"));
    return;
  }
  for (int s : fresh) run->health->SetQuarantined(s, true);
  if (run->members->live_count() == 0) {
    FailRun(run, Status::Unavailable("every node suspected: no survivors"));
    return;
  }
  StartRecovery(run, fresh);
}

/// A node lost (kFence) or regained (kUnfence) contact with the majority.
/// A fenced node's workers park on its activity event until the fence
/// lifts or the attempt is torn down.
void OnFenceChange(SlashRun* run, int node, NodeEvent event) {
  if (run->failed || node >= run->cluster.nodes) return;
  run->members->Apply(node, event);
  if (run->nodes[node] != nullptr) run->nodes[node]->activity->Notify();
}

/// A quarantined node answered a liveness probe within the rpc deadline:
/// the partition healed (or the gray episode ended). Rejoin it via the
/// snapshot-restore path: roll the cluster back to the latest round that
/// includes the node's own blobs, restore its identity placement, replay.
void OnRejoin(SlashRun* run, int node) {
  if (run->failed || run->phase != RunPhase::kRunning || run->in_teardown) {
    return;
  }
  if (node >= run->cluster.nodes) return;
  if (run->health->fenced(node)) return;  // it cannot see the majority yet
  // The table refuses a node that is not quarantined, one that actually
  // crashed, and one that flaps.
  if (!run->members->Apply(node, NodeEvent::kRejoin)) return;
  run->health->SetQuarantined(node, false);
  run->coordinator->UnretireNode(node);
  run->rejoins->Add(1);
  BeginRollback(run, RunPhase::kRecovering, node);
  // The rejoined node takes its identity placement back: its own partition
  // and the flows that originally homed on it.
  run->owner[node] = node;
  for (size_t f = 0; f < run->flow_home.size(); ++f) {
    if (int(f) / run->cluster.workers_per_node == node) {
      run->flow_home[f] = node;
    }
  }
  ScheduleRebuild(run, run->coordinator->LatestRecoverableRound(
                           run->members->alive_mask()));
}

/// Places every partition and flow over the current members by observed
/// load, keeping the previous placement for migration accounting.
void Rebalance(SlashRun* run) {
  const std::vector<bool>& alive = run->members->alive_mask();
  run->prev_owner = run->owner;
  run->prev_flow_home = run->flow_home;
  run->owner = elastic::Rebalancer::PlacePartitions(alive, run->partition_load);
  run->flow_home = elastic::Rebalancer::PlaceFlows(
      alive, run->cluster.workers_per_node, run->total_workers());
}

/// ReconfigCoordinator join and leave callback (`event` is kJoin or
/// kLeave). Returns false (defer + retry) while a recovery or an earlier
/// handoff is in flight — handoffs are serialized — or while a network
/// partition cuts the membership, and true when the event is consumed:
/// executed, or moot (run drained, node already in or out, or crashed).
/// The handoff is a rollback like any other — epoch-aligned teardown,
/// restore from checkpoint blobs by one-sided READs, deterministic tail
/// replay — with a REBALANCED placement instead of an heir map.
bool OnMembershipChange(SlashRun* run, int node, NodeEvent event) {
  if (run->failed) return true;
  if (run->phase != RunPhase::kRunning || run->in_teardown) return false;
  if (run->workers_running == 0) return true;
  if (!run->members->Allows(node, event)) return true;
  if (PartitionCutsMesh(run, node)) return false;
  const bool join = event == NodeEvent::kJoin;
  // Crashes ate the headroom: skip the leave.
  if (!join && run->members->live_count() <=
                   std::max(run->cluster.reconfig->min_active, 1)) {
    return true;
  }
  // Only an executed handoff counts; the moot returns above do not.
  run->reconfigs->Add(1);
  (join ? run->joins : run->leaves)->Add(1);
  BeginRollback(run, RunPhase::kHandoff, node);
  // The rollback round is what the incumbents can restore — typically the
  // latest boundary — chosen before the membership changes. A joiner holds
  // no blobs and, retired at round 0, is exempt from the round requirement
  // (JoinNode keeps it exempt up to `round`); a leaver still counts as a
  // live holder of its own blobs, readable until the handoff ends, after
  // which BuildAttempt retires it at `round`.
  const uint64_t round = run->coordinator->LatestRecoverableRound(
      run->members->alive_mask());
  run->members->Apply(node, event);
  if (join) run->coordinator->JoinNode(node, round);
  // The detector admits a joiner and retires a leaver instead of accusing
  // it: a planned departure is not a failure.
  if (run->health != nullptr) run->health->SetMembership(node, join);
  Rebalance(run);
  for (int p = 0; p < run->cluster.nodes; ++p) {
    if (run->owner[p] != run->prev_owner[p]) run->partitions_moved->Add(1);
  }
  ScheduleRebuild(run, round);
  return true;
}

/// One poll of the recovery watchdog; re-arms itself while the attempt is
/// still stuck and the deadline has not passed.
void PollRecoveryWatchdog(SlashRun* run, int attempt, Nanos deadline_at) {
  if (run->Halted(attempt)) return;
  const bool stuck =
      run->phase != RunPhase::kRunning ||
      (run->workers_running > 0 && run->records_in <= run->restore_floor);
  if (!stuck) return;  // restored and progressing: the watchdog stands down
  if (run->sim->now() >= deadline_at) {
    if (run->tracer != nullptr) {
      run->tracer->InstantNamed(run->sim->now(), "recovery.watchdog_abort",
                                "health", 0, obs::kTrackHealth);
    }
    FailRun(run, Status::DeadlineExceeded(
                     "recovery round made no progress within "
                     "health.recovery_deadline"));
    return;
  }
  const Nanos interval = run->cluster.health.heartbeat_interval * 4;
  run->sim->ScheduleAt(std::min(run->sim->now() + interval, deadline_at),
                      [run, attempt, deadline_at] {
                        PollRecoveryWatchdog(run, attempt, deadline_at);
                      });
}

/// One poll of the whole-run deadline (health.run_deadline); re-arms while
/// the run is still in flight. Polls on a heartbeat-scale cadence rather
/// than one shot at the far-future deadline for the same reason as the
/// recovery watchdog below: the DES has no event cancellation, and a
/// single far-future event would pin a drained run's reported makespan to
/// the deadline instead of the natural drain time.
void PollRunDeadline(SlashRun* run, Nanos deadline_at) {
  if (run->failed) return;
  if (run->workers_running == 0 && run->phase == RunPhase::kRunning) return;
  if (run->sim->now() >= deadline_at) {
    FailRun(run, Status::DeadlineExceeded(
                     "run exceeded its virtual-time deadline"));
    return;
  }
  const Nanos interval = run->cluster.health.heartbeat_interval * 4;
  run->sim->ScheduleAt(
      std::min(run->sim->now() + interval, deadline_at),
      [run, deadline_at] { PollRunDeadline(run, deadline_at); });
}

/// Progress watchdog (health.recovery_deadline): a recovery round that is
/// still in flight — or whose rebuilt attempt has made no input progress —
/// when the deadline expires aborts the run with kDeadlineExceeded instead
/// of spinning. Armed per attempt; a later attempt supersedes it. Polls on
/// a heartbeat-scale cadence rather than one far-future event: the DES has
/// no event cancellation, and a single shot at the full deadline would pin
/// the drain time (and thus the reported makespan) to the deadline. Armed
/// mid-rollback, so the first poll only schedules the next.
void ArmRecoveryWatchdog(SlashRun* run) {
  const Nanos deadline = run->cluster.health.recovery_deadline;
  if (run->health == nullptr || deadline <= 0) return;
  PollRecoveryWatchdog(run, run->attempt, run->sim->now() + deadline);
}

/// A channel closing outside a deliberate teardown fails the run.
void FailRunOnClose(SlashRun* run, RdmaChannel* ch) {
  ch->SetCloseHandler([run](const Status& cause) {
    if (!run->in_teardown) FailRun(run, cause);
  });
}

/// Builds one execution attempt: fresh node states (restored from the
/// round-`round` checkpoint blobs when round > 0), the per-(helper,
/// partition) channel mesh for the current ownership map, input lanes
/// skipped to their checkpointed offsets, replication streams, and the
/// worker/generator coroutines. Attempt 1 is the degenerate case: identity
/// ownership, round 0, nothing to restore.
void BuildAttempt(SlashRun* run, uint64_t round) {
  const ClusterConfig& cluster = run->cluster;
  const JobConfig& job = run->job;
  const uint64_t interval = run->interval();
  const int attempt = run->attempt;
  run->attempt_channel_start = run->channels.size();

  std::vector<NodeState*> nodes(cluster.nodes, nullptr);
  for (int n = 0; n < cluster.nodes; ++n) {
    if (!run->members->alive(n)) continue;
    auto ns = std::make_unique<NodeState>();
    ns->node = n;
    ns->ssb = std::make_unique<state::StateBackend>(n, run->ssb_config);
    for (int p = 0; p < cluster.nodes; ++p) {
      if (run->owner[p] == n && p != n) ns->ssb->AddLeadership(p);
    }
    ns->trigger_wms.assign(cluster.nodes, core::kWatermarkMin);
    ns->worker_watermarks.assign(cluster.workers_per_node, core::kWatermarkMin);
    ns->worker_drained_seq.assign(cluster.workers_per_node, round * interval);
    ns->worker_lanes.resize(cluster.workers_per_node);
    ns->out.assign(cluster.nodes, nullptr);
    ns->activity = std::make_unique<sim::Event>(run->sim);
    // Workers blocked by the tenant quota park on their node's activity
    // event; quota releases (from any of the job's channels) must wake them.
    if (run->quota != nullptr) run->quota->AddObserver(ns->activity.get());
    ns->sink = core::ResultSink(job.collect_rows);
    ns->epoch_seq = round * interval;
    ns->snapshots_taken = round;
    for (int w = 0; w < cluster.workers_per_node; ++w) {
      ns->worker_cpus.push_back(std::make_unique<perf::CpuContext>(
          run->sim, &perf::CostModel::Default(), cluster.cpu_ghz));
      // Gray-node faults (kNodeSlow) stretch this node's compute too.
      ns->worker_cpus.back()->BindSpeedDial(run->fabric->speed_dial(n));
    }
    nodes[n] = ns.get();
    run->node_storage.push_back(std::move(ns));
  }
  run->nodes = nodes;

  // Restore: parse every active node's round-`round` blob and route each
  // piece to its current owner. The just-crashed node's blob restores on
  // its heir (partitions, result rows); nodes retired by earlier crashes
  // are skipped — their content lives on in their heirs' blobs.
  std::vector<uint64_t> flow_offset(run->flow_home.size(), 0);
  std::vector<int64_t> flow_last_ts(run->flow_home.size(),
                                    core::kWatermarkMin);
  if (round > 0) {
    struct SinkAccum {
      uint64_t count = 0;
      uint64_t checksum = 0;
      std::vector<core::WindowResult> rows;
    };
    std::vector<SinkAccum> sinks(cluster.nodes);
    for (int n = 0; n < cluster.nodes; ++n) {
      // A node retired by an earlier crash/quarantine is skipped for rounds
      // past its retirement (its heirs' blobs carry its content), an
      // elastic joiner for rounds up to its join (the pre-join owners'
      // blobs carry its partitions) — the coordinator's round requirement.
      if (!run->coordinator->HasOwnBlob(n, round)) continue;
      const std::vector<uint8_t>* blob = run->coordinator->BlobFor(n, round);
      SLASH_CHECK_MSG(blob != nullptr,
                      "recoverable round " << round
                                           << " missing a blob for node "
                                           << n);
      BlobReader reader(blob->data(), blob->size());
      reader.U64();  // blob round; may precede `round` (terminal snapshot)
      const uint64_t nled = reader.U64();
      for (uint64_t i = 0; i < nled; ++i) {
        const int p = int(reader.U64());
        const int64_t wm = reader.I64();
        const std::vector<uint8_t> state = reader.Bytes();
        NodeState* leader = nodes[run->owner[p]];
        SLASH_CHECK(leader != nullptr);
        SLASH_CHECK(leader->ssb->leads(p));
        SLASH_CHECK(
            leader->ssb->RestorePartition(p, state.data(), state.size()).ok());
        leader->trigger_wms[p] = wm;
        // Handoff accounting: a partition restoring onto a NEW owner is
        // state that moved across the fabric (one-sided READ volume).
        if (run->phase == RunPhase::kHandoff &&
            run->owner[p] != run->prev_owner[p]) {
          run->state_bytes_moved->Add(state.size());
        }
      }
      const uint64_t nflows = reader.U64();
      for (uint64_t i = 0; i < nflows; ++i) {
        const uint64_t f = reader.U64();
        flow_offset[f] = reader.U64();
        flow_last_ts[f] = reader.I64();
      }
      SinkAccum& acc = sinks[run->members->alive(n) ? n : run->owner[n]];
      acc.count += reader.U64();
      acc.checksum += reader.U64();
      const uint64_t nrows = reader.U64();
      for (uint64_t i = 0; i < nrows; ++i) {
        core::WindowResult row;
        row.bucket = reader.I64();
        row.key = reader.U64();
        row.value = reader.I64();
        acc.rows.push_back(row);
      }
      SLASH_CHECK(reader.done());
    }
    for (int n = 0; n < cluster.nodes; ++n) {
      if (nodes[n] == nullptr) continue;
      nodes[n]->sink.Restore(sinks[n].count, sinks[n].checksum,
                             std::move(sinks[n].rows));
    }
  }
  if (attempt > 1) {
    uint64_t restored_records = 0;
    for (uint64_t off : flow_offset) restored_records += off;
    run->records_replayed->Add(run->records_at_crash - restored_records);
    run->records_in = restored_records;
  }
  // Handoff accounting: a flow restoring onto a new home re-reads its
  // checkpointed prefix on the new node — those records migrated.
  if (run->phase == RunPhase::kHandoff) {
    for (size_t f = 0; f < run->flow_home.size(); ++f) {
      if (run->flow_home[f] != run->prev_flow_home[f]) {
        run->records_migrated->Add(flow_offset[f]);
      }
    }
  }

  // The state-synchronization mesh: one channel per (helper, partition), so
  // each carries a strict one-delta-per-epoch FIFO towards the partition's
  // current leader.
  for (int h = 0; h < cluster.nodes; ++h) {
    NodeState* helper = nodes[h];
    if (helper == nullptr) continue;
    for (int p = 0; p < cluster.nodes; ++p) {
      const int leader = run->owner[p];
      if (leader == h) continue;
      auto ch =
          RdmaChannel::Create(run->fabric, h, leader, job.channel);
      helper->out[p] = ch.get();
      nodes[leader]->in.push_back(
          InChannel{h, p, ch.get(), round * interval, false});
      ch->AddDataObserver(nodes[leader]->activity.get());
      ch->AddCreditObserver(helper->activity.get());
      FailRunOnClose(run, ch.get());
      run->channels.push_back(std::move(ch));
    }
  }

  // Input lanes (and, in ingestion mode, the generator channels feeding
  // them — with the bounded upstream replay buffer when checkpointing).
  channel::ChannelConfig ingest_config = job.channel;
  if (run->checkpointing()) {
    // Bound (in messages) of the upstream replay buffer retained between
    // checkpoints; producers back-pressure at the bound.
    constexpr uint32_t kReplayBufferSlots = 32;
    ingest_config.replay_buffer_slots = kReplayBufferSlots;
  }
  for (int n = 0; n < cluster.nodes; ++n) {
    NodeState* ns = nodes[n];
    if (ns == nullptr) continue;
    std::vector<uint64_t> flows;
    for (uint64_t f = 0; f < run->flow_home.size(); ++f) {
      if (run->flow_home[f] == n) flows.push_back(f);
    }
    for (size_t i = 0; i < flows.size(); ++i) {
      const int w = int(i) % cluster.workers_per_node;
      Lane lane;
      lane.flow = flows[i];
      lane.consumed = flow_offset[flows[i]];
      lane.last_ts = flow_last_ts[flows[i]];
      if (job.rdma_ingestion) {
        auto ch = RdmaChannel::Create(run->fabric, cluster.nodes + n, n,
                                      ingest_config);
        ch->AddDataObserver(ns->activity.get());
        FailRunOnClose(run, ch.get());
        lane.ingest = ch.get();
        run->generator_cpus.push_back(std::make_unique<perf::CpuContext>(
            run->sim, &perf::CostModel::Default(), cluster.cpu_ghz));
        run->generator_cpus.back()->BindSpeedDial(
            run->fabric->speed_dial(cluster.nodes + n));
        run->sim->Spawn(Generator(run, ch.get(), lane.flow, lane.consumed,
                                 run->generator_cpus.back().get(), attempt));
        run->channels.push_back(std::move(ch));
      } else {
        lane.source = run->workload->MakeFlow(int(lane.flow),
                                              run->total_workers(),
                                              job.records_per_worker,
                                              job.seed);
        // Fast-forward to the checkpoint cut: the flow is deterministic, so
        // the skip re-derives the exact position. Its cost is part of the
        // modeled recovery delay, not the data path.
        Record r;
        bool alive_source = true;
        for (uint64_t k = 0; k < lane.consumed && alive_source; ++k) {
          alive_source = lane.source->Next(&r);
        }
      }
      ns->worker_lanes[w].push_back(std::move(lane));
    }
    for (int w = 0; w < cluster.workers_per_node; ++w) {
      bool all_done = true;
      int64_t wm = core::kWatermarkMax;
      for (const Lane& lane : ns->worker_lanes[w]) {
        const bool lane_done = lane.last_ts == core::kWatermarkMax;
        all_done = all_done && lane_done;
        if (!lane_done) wm = std::min(wm, lane.last_ts);
      }
      ns->worker_watermarks[w] = all_done ? core::kWatermarkMax : wm;
    }
  }

  // Snapshot replication: each live node streams its blobs to the next
  // `replication_factor` live peers (cyclically) over dedicated channels.
  if (run->checkpointing()) {
    const int targets =
        std::min(std::max(job.checkpoint.replication_factor, 0),
                 run->members->live_count() - 1);
    for (int n = 0; n < cluster.nodes; ++n) {
      NodeState* ns = nodes[n];
      if (ns == nullptr) continue;
      auto rs = std::make_unique<ReplState>();
      rs->event = std::make_unique<sim::Event>(run->sim);
      ns->repl = rs.get();
      int made = 0;
      for (int i = 1; i < cluster.nodes && made < targets; ++i) {
        const int t = (n + i) % cluster.nodes;
        if (!run->members->alive(t)) continue;
        auto ch =
            RdmaChannel::Create(run->fabric, n, t, job.channel);
        FailRunOnClose(run, ch.get());
        run->repl_cpus.push_back(std::make_unique<perf::CpuContext>(
            run->sim, &perf::CostModel::Default(), cluster.cpu_ghz));
        perf::CpuContext* send_cpu = run->repl_cpus.back().get();
        send_cpu->BindSpeedDial(run->fabric->speed_dial(n));
        run->repl_cpus.push_back(std::make_unique<perf::CpuContext>(
            run->sim, &perf::CostModel::Default(), cluster.cpu_ghz));
        perf::CpuContext* recv_cpu = run->repl_cpus.back().get();
        recv_cpu->BindSpeedDial(run->fabric->speed_dial(t));
        run->sim->Spawn(
            Replicator(run, n, rs.get(), ch.get(), send_cpu, attempt));
        run->sim->Spawn(
            ReplicaReceiver(run, n, t, ch.get(), recv_cpu, attempt));
        run->channels.push_back(std::move(ch));
        ++made;
      }
      run->repl_storage.push_back(std::move(rs));
    }
  }

  for (int n = 0; n < cluster.nodes; ++n) {
    if (nodes[n] == nullptr) continue;
    for (int w = 0; w < cluster.workers_per_node; ++w) {
      run->sim->Spawn(Worker(run, nodes[n], w, attempt));
    }
  }

  // Nodes dead before this attempt never appear in a future barrier: their
  // partitions are snapshotted by their heirs from now on.
  run->coordinator->RetireDead(run->members->alive_mask(), round);

  // Watchdog baseline: input progress beyond this level proves the rebuilt
  // attempt is actually running.
  run->restore_floor = run->records_in;
}

/// Labels carried by this job's instruments: empty for a single-job run
/// with no tenant, {tenant=...} otherwise.
obs::LabelSet JobLabels(const SlashRun& run) {
  if (run.tenant.empty()) return obs::LabelSet{};
  return obs::LabelSet{{obs::kLabelTenant, run.tenant}};
}

/// Resolves the job's observability handles (histogram, tracer interns)
/// from the simulator's telemetry plane.
void ResolveObs(SlashRun* run) {
  run->latency =
      run->sim->metrics().GetHistogram(obs::metric::kTransferLatencyNs);
  run->tracer = run->sim->tracer();
  if (run->tracer != nullptr) {
    run->trace_epoch = run->tracer->Intern("engine.epoch");
    run->trace_snapshot = run->tracer->Intern("checkpoint.snapshot");
    run->trace_window = run->tracer->Intern("engine.window_fire");
    run->trace_recovery = run->tracer->Intern("recovery");
    run->trace_handoff = run->tracer->Intern("elastic.handoff");
    run->trace_cat = run->tracer->Intern("slash");
  }
}

/// Per-job setup: derives the SSB config, seeds
/// the recovery control plane and the identity placement, threads the
/// tenant identity and quota into the job's channel config, and builds
/// attempt 1. The fabric and obs handles must already be wired up.
void SetUpJob(SlashRun* run) {
  const ClusterConfig& cluster = run->cluster;
  const JobConfig& job = run->job;

  // Every channel of this job inherits the tenant label and the shared
  // credit quota (both no-ops for an untenanted job without a quota).
  run->job.channel.tenant = run->tenant;
  run->job.channel.quota = run->quota.get();

  run->ssb_config = [&] {
    state::SsbConfig c;
    c.nodes = cluster.nodes;
    c.kind = run->query->is_join() ? state::StateKind::kAppend
                                   : state::StateKind::kAggregate;
    c.lss_capacity = job.state_lss_capacity;
    c.index_buckets = job.state_index_buckets;
    c.epoch_bytes = job.epoch_bytes;
    return c;
  }();

  // In-place tallies; the health and elastic ones register only for a run
  // that constructs the monitor or the reconfiguration coordinator.
  auto counter = [&](std::string_view name) {
    return run->sim->metrics().GetCounter(name, JobLabels(*run));
  };
  run->coordinator = std::make_unique<RecoveryCoordinator>(
      cluster.nodes, counter(obs::metric::kCheckpointsTaken));
  run->recoveries = counter(obs::metric::kRecoveries);
  run->recovery_ns = counter(obs::metric::kRecoveryNs);
  run->records_replayed = counter(obs::metric::kRecordsReplayed);
  run->bytes_replicated = counter(obs::metric::kCheckpointBytesReplicated);
  if (cluster.health.enabled) {
    run->rejoins = counter(obs::metric::kHealthRejoins);
    run->fence_suppressions = counter(obs::metric::kHealthFenceSuppressions);
  }
  if (run->elastic()) {
    run->reconfigs = counter(obs::metric::kElasticReconfigs);
    run->joins = counter(obs::metric::kElasticJoins);
    run->leaves = counter(obs::metric::kElasticLeaves);
    run->handoff_ns = counter(obs::metric::kElasticHandoffNs);
    run->partitions_moved = counter(obs::metric::kElasticPartitionsMoved);
    run->state_bytes_moved = counter(obs::metric::kElasticStateBytesMoved);
    run->records_migrated = counter(obs::metric::kElasticRecordsMigrated);
  }
  run->owner.resize(cluster.nodes);
  for (int p = 0; p < cluster.nodes; ++p) run->owner[p] = p;
  run->flow_home.resize(size_t(run->total_workers()));
  for (int f = 0; f < run->total_workers(); ++f) {
    run->flow_home[f] = f / cluster.workers_per_node;
  }

  // Elastic runs start on the plan's initial subset of the provisioned
  // `nodes` maximum: the rest begin kInactive (auto-retired at round 0 by
  // BuildAttempt), with their identity partitions and flows re-placed over
  // the active set. The full flow set runs regardless of membership, which
  // is why an elastic run's results equal the static run's.
  const int initial =
      run->elastic() && run->cluster.reconfig->initial_nodes > 0
          ? run->cluster.reconfig->initial_nodes
          : cluster.nodes;
  run->members = std::make_unique<Membership>(cluster.nodes, initial);
  if (run->elastic()) {
    run->partition_load.assign(size_t(cluster.nodes), 0);
    Rebalance(run);
  }

  BuildAttempt(run, /*round=*/0);
}

/// Publishes the job's end-of-run values under its labels; its tallies,
/// channel retries, quota denials and NIC tx bytes were published in place.
/// The drain time and quota denials are opt-in instruments that only
/// register for jobs that carry a tenant / quota, so an untenanted job's
/// snapshot has no job-scoped extras.
void PublishJobStats(SlashRun& run, RunStats* stats) {
  obs::MetricsRegistry& registry = run.sim->metrics();
  const obs::LabelSet labels = JobLabels(run);
  if (!run.failed) {
    // Only the surviving attempt's channels can owe credits; channels of a
    // torn-down attempt legitimately strand some mid-transfer.
    uint64_t credits = 0;
    for (size_t i = run.attempt_channel_start; i < run.channels.size(); ++i) {
      credits += run.channels[i]->credits_outstanding();
    }
    registry.GetCounter(obs::metric::kChannelCreditsOutstanding, labels)
        ->Add(credits);
  }
  registry.GetCounter(obs::metric::kRecordsIn, labels)->Add(run.records_in);
  if (run.reconfig_coord != nullptr) {
    registry.GetCounter(obs::metric::kElasticTraceDigest, labels)
        ->Add(run.reconfig_coord->trace_digest());
    for (int p = 0; p < run.cluster.nodes; ++p) {
      registry
          .GetGauge(obs::metric::kElasticPartitionLoad,
                    labels.With("partition", std::to_string(p)))
          ->Set(double(run.partition_load[size_t(p)]));
    }
  }
  obs::Counter* emitted =
      registry.GetCounter(obs::metric::kRecordsEmitted, labels);
  obs::Counter* checksum =
      registry.GetCounter(obs::metric::kResultChecksum, labels);
  for (NodeState* ns : run.nodes) {
    if (ns == nullptr) continue;
    emitted->Add(ns->sink.count());
    checksum->Add(ns->sink.checksum());
    if (run.job.collect_rows) {
      const auto& rows = ns->sink.rows();
      stats->rows.insert(stats->rows.end(), rows.begin(), rows.end());
    }
  }
  // CPU counters accumulate across every attempt — a torn-down attempt
  // still burned the cycles.
  perf::Counters* workers = registry.GetCpu(
      obs::metric::kCpu, labels.With(obs::kLabelRole, "worker"));
  for (auto& ns : run.node_storage) {
    for (auto& cpu : ns->worker_cpus) workers->Merge(cpu->counters());
  }
  if (!run.generator_cpus.empty()) {
    perf::Counters* generators = registry.GetCpu(
        obs::metric::kCpu, labels.With(obs::kLabelRole, "generator"));
    for (auto& cpu : run.generator_cpus) generators->Merge(cpu->counters());
  }
  if (!run.repl_cpus.empty()) {
    perf::Counters* replication = registry.GetCpu(
        obs::metric::kCpu, labels.With(obs::kLabelRole, "replication"));
    for (auto& cpu : run.repl_cpus) replication->Merge(cpu->counters());
  }
  if (!run.tenant.empty()) {
    registry.GetCounter(obs::metric::kJobDrainNs, labels)
        ->Add(uint64_t(run.drained_at));
  }
}

MultiRunStats Rejected(std::string engine, Status status) {
  MultiRunStats multi;
  multi.cluster.engine = std::move(engine);
  multi.cluster.status = status;
  multi.status = std::move(status);
  return multi;
}

}  // namespace

RunStats SlashEngine::Run(const JobSpec& spec) {
  MultiRunStats multi = RunJobs({spec}, spec.cluster);
  if (!multi.jobs.empty()) multi.cluster.rows = std::move(multi.jobs[0].rows);
  return std::move(multi.cluster);
}

MultiRunStats SlashEngine::RunJobs(const std::vector<JobSpec>& jobs,
                                   const ClusterConfig& cluster) {
  const std::string engine(name());
  if (jobs.empty()) {
    return Rejected(engine,
                    Status::InvalidArgument("RunJobs needs at least one job"));
  }
  for (const JobSpec& job : jobs) {
    if (job.sources == nullptr) {
      return Rejected(
          engine, Status::InvalidArgument("JobSpec has no workload (sources)"));
    }
  }
  const bool one_job = jobs.size() == 1;
  for (size_t j = 0; j < jobs.size() && !one_job; ++j) {
    if (jobs[j].tenant.empty()) {
      return Rejected(engine,
                      Status::InvalidArgument(
                          "every job of a multi-job run needs a non-empty "
                          "tenant"));
    }
    // One trace covers every job of the shared DES, so a per-job tracer
    // has nowhere to go: the run traces through SLASH_TRACE instead.
    if (jobs[j].config.tracer != nullptr) {
      return Rejected(engine, Status::InvalidArgument(
                                  "tenant '" + jobs[j].tenant +
                                  "' sets a tracer; a multi-job run traces "
                                  "through SLASH_TRACE"));
    }
    for (size_t k = 0; k < j; ++k) {
      if (jobs[k].tenant == jobs[j].tenant) {
        return Rejected(engine, Status::InvalidArgument(
                                    "duplicate tenant '" + jobs[j].tenant +
                                    "' in a multi-job run"));
      }
    }
  }

  // Every job runs on the SHARED cluster description: one fabric, one node
  // set — job.cluster is ignored here. One shared set of source nodes as
  // soon as any job ingests over RDMA.
  bool any_ingestion = false;
  for (const JobSpec& job : jobs) any_ingestion |= job.config.rdma_ingestion;
  const int fabric_nodes = any_ingestion ? 2 * cluster.nodes : cluster.nodes;
  auto runtime = ClusterRuntime::Create(
      cluster, fabric_nodes, one_job ? kOneJobSupport : kMultiJobSupport,
      one_job ? jobs[0].config.tracer : nullptr);
  if (!runtime.ok()) return Rejected(engine, runtime.status());
  ClusterRuntime& rt = **runtime;
  if (cluster.reconfig != nullptr && !jobs[0].config.checkpoint.enabled) {
    return Rejected(engine, Status::InvalidArgument(
                                "elastic reconfiguration requires "
                                "checkpointing: handoffs restore state from "
                                "checkpoint blobs and replay the tail"));
  }

  std::vector<core::QuerySpec> queries;
  queries.reserve(jobs.size());
  for (const JobSpec& job : jobs) queries.push_back(job.sources->MakeQuery());

  // Stable addresses: coroutines and close handlers capture SlashRun*.
  std::vector<std::unique_ptr<SlashRun>> runs;
  runs.reserve(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    auto run = std::make_unique<SlashRun>();
    run->sim = rt.sim();
    run->fabric = rt.fabric();
    run->query = &queries[j];
    run->workload = jobs[j].sources;
    run->cluster = cluster;
    run->job = jobs[j].config;
    run->tenant = jobs[j].tenant;
    if (jobs[j].quota > 0) {
      run->quota = std::make_unique<channel::CreditQuota>(
          jobs[j].quota,
          rt.registry().GetCounter(obs::metric::kChannelQuotaDenials,
                                   JobLabels(*run)));
    }
    // A multi-job run gives every job dedicated trace tracks, named after
    // its tenant, so one trace file shows every job's epochs and recovery
    // side by side; a one-job run keeps the conventional tracks.
    if (!one_job) {
      run->track_engine = obs::kTrackElastic + 1 + int(2 * j);
      run->track_recovery = obs::kTrackElastic + 2 + int(2 * j);
      if (obs::Tracer* tracer = rt.sim()->tracer(); tracer != nullptr) {
        for (int n = 0; n < fabric_nodes; ++n) {
          tracer->SetTrackName(n, run->track_engine,
                               "engine/" + jobs[j].tenant);
          tracer->SetTrackName(n, run->track_recovery,
                               "recovery/" + jobs[j].tenant);
        }
      }
    }
    ResolveObs(run.get());
    runs.push_back(std::move(run));
  }

  for (auto& run : runs) SetUpJob(run.get());

  // Faults, health and reconfiguration reason about one job's ownership
  // map and recovery rounds, so the runtime admits them for one job only.
  SlashRun* rp = runs[0].get();
  if (one_job) {
    rt.fabric()->SetNodeCrashHandler(
        [rp](int node) { OnNodeCrash(rp, node); });
  }
  // The monitor is constructed after the first attempt so its probe QPs
  // number after the data plane's (QPNs are assigned in Connect order);
  // health off keeps every baseline byte-identical.
  if (cluster.health.enabled) {
    health::HealthMonitor::Callbacks callbacks;
    callbacks.on_suspect = [rp](int monitor, const std::vector<int>& s) {
      OnSuspicion(rp, monitor, s);
    };
    auto fence = [rp](NodeEvent event) {
      return [rp, event](int node) { OnFenceChange(rp, node, event); };
    };
    callbacks.on_self_fence = fence(NodeEvent::kFence);
    callbacks.on_unfence = fence(NodeEvent::kUnfence);
    callbacks.on_liveness_resumed = [rp](int node) { OnRejoin(rp, node); };
    rp->health = std::make_unique<health::HealthMonitor>(
        rp->fabric, cluster.health, cluster.nodes, std::move(callbacks));
    // Provisioned-but-inactive nodes of an elastic run are not members yet:
    // they must not be probed, accused, or counted toward quorum until
    // their join executes.
    for (int n = 0; n < cluster.nodes; ++n) {
      if (!rp->members->alive(n)) rp->health->SetMembership(n, false);
    }
    rp->health->Start();
    if (cluster.health.run_deadline > 0) {
      const Nanos deadline_at = cluster.health.run_deadline;
      rt.sim()->ScheduleAt(
          std::min(cluster.health.heartbeat_interval * 4, deadline_at),
          [rp, deadline_at] { PollRunDeadline(rp, deadline_at); });
    }
  }
  // The reconfiguration control plane starts after the health monitor so
  // membership callbacks find it constructed; scheduled joins/leaves and
  // the load trigger all run on the shared DES clock.
  if (cluster.reconfig != nullptr) {
    elastic::ReconfigCoordinator::Callbacks reconfig_callbacks;
    reconfig_callbacks.on_join = [rp](int n) {
      return OnMembershipChange(rp, n, NodeEvent::kJoin);
    };
    reconfig_callbacks.on_leave = [rp](int n) {
      return OnMembershipChange(rp, n, NodeEvent::kLeave);
    };
    reconfig_callbacks.sample_records = [rp] { return rp->records_in; };
    rp->reconfig_coord = std::make_unique<elastic::ReconfigCoordinator>(
        rt.sim(), cluster.reconfig, cluster.nodes, JobLabels(*rp),
        std::move(reconfig_callbacks));
    rp->reconfig_coord->Start();
  }

  // One DES drives every job's coroutines: fairness is the timestamp order
  // of the shared event queue, contention is the shared NIC model.
  MultiRunStats multi;
  multi.cluster.engine = engine;
  rt.Run(&multi.cluster);
  multi.jobs.resize(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    SlashRun& run = *runs[j];
    RunStats& stats = multi.jobs[j];
    stats.engine = engine;
    stats.status = run.failed ? run.failure : Status::OK();
    if (!stats.ok() && multi.status.ok()) multi.status = stats.status;
    PublishJobStats(run, &stats);
  }
  multi.cluster.status = multi.status;
  // Faults run with one job only, so their counters carry its labels.
  rt.Finish(&multi.cluster, JobLabels(*rp));
  // Per-job views: the cluster snapshot filtered to each tenant's label
  // (shared, unlabeled instruments — makespan, NIC bytes, DES counters —
  // are retained, so the RunStats accessors work unchanged).
  for (size_t j = 0; j < jobs.size(); ++j) {
    multi.jobs[j].metrics =
        multi.cluster.metrics.SelectLabel(obs::kLabelTenant, jobs[j].tenant);
    multi.jobs[j].sim_events_per_sec_wall =
        multi.cluster.sim_events_per_sec_wall;
  }
  return multi;
}

}  // namespace slash::engines
