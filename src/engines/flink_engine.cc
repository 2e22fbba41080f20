#include "engines/flink_engine.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/record.h"
#include "core/record_batch.h"
#include "engines/repartition_common.h"
#include "engines/trigger.h"
#include "state/partition.h"

namespace slash::engines {

namespace {

using core::Record;
using perf::Op;
using rdma::SocketConnection;

// Recovery takes virtual time: a socket (re-)connect pays a TCP-style
// handshake, and restored snapshot bytes stream back into memory.
constexpr Nanos kSocketSetupCost = 30 * kMicrosecond;
constexpr uint64_t kRestoreBytesPerNs = 4;

// Checkpoint part kinds inside a node blob.
constexpr uint64_t kSenderPart = 0;
constexpr uint64_t kConsumerPart = 1;

/// Framing header prepended to every socket message. `barrier != 0` marks a
/// record-free checkpoint-barrier frame closing that round on this lane
/// (Chandy-Lamport aligned barriers, as Flink injects them into the
/// exchange streams).
struct SocketFrame {
  int64_t watermark = 0;
  uint64_t final_marker = 0;
  uint64_t barrier = 0;
};

struct FlinkRun;

/// One outbound lane from a sender to a consumer.
struct Outbound {
  SocketConnection* socket = nullptr;  // remote lane
  LocalQueue* local = nullptr;         // same-node lane
  std::vector<uint8_t> staging;        // frame + serialized records
  std::unique_ptr<core::RecordWriter> writer;
};

struct SenderState {
  int global_id = 0;
  int node = 0;  // current placement (heir after recovery)
  int attempt = 1;
  std::unique_ptr<perf::CpuContext> cpu;
  std::unique_ptr<FlowMux> mux;
  std::vector<Outbound> outbound;
  uint64_t consumed_total = 0;  // across flows, including restored skip
  uint64_t next_barrier = 1;
};

struct ConsumerState {
  int global_id = 0;
  int node = 0;  // current placement
  int attempt = 1;
  std::unique_ptr<perf::CpuContext> cpu;
  std::unique_ptr<state::Partition> partition;
  // Columnar staging buffer for ProcessFrame (sized to operator_batch,
  // allocated once — the receive path stays allocation-free per frame).
  std::unique_ptr<core::RecordBatch> batch;
  core::ResultSink sink;
  std::vector<int64_t> sender_wm;
  std::vector<bool> sender_final;
  int finals = 0;
  int64_t last_trigger_wm = core::kWatermarkMin;
  uint64_t rounds_complete = 0;  // checkpoint rounds aligned so far
  std::unique_ptr<sim::Event> arrivals;
  struct Inbound {
    int sender = 0;
    SocketConnection* socket = nullptr;
    LocalQueue* local = nullptr;
    uint64_t barrier_seen = 0;  // highest barrier round this lane delivered
  };
  std::vector<Inbound> inbound;

  int64_t Watermark() const {
    return *std::min_element(sender_wm.begin(), sender_wm.end());
  }
};

/// Accumulates one node's per-entity checkpoint parts into round blobs.
/// A round-r blob is complete when every entity placed on the node has
/// contributed its part for r (or has gone terminal — its last part then
/// stands in for every later round).
struct NodeCkpt {
  std::vector<int> entity_keys;  // senders: gid; consumers: S_total + gid
  std::map<uint64_t, std::map<int, std::vector<uint8_t>>> parts;
  std::map<int, std::vector<uint8_t>> terminal_parts;
  uint64_t assembled = 0;  // last fully assembled round
  bool final_marked = false;
};

/// Snapshot bytes queued for replication to this node's peers.
struct ReplState {
  struct Item {
    uint64_t round = 0;
    bool terminal = false;
    std::vector<uint8_t> bytes;
  };
  // Deque, not vector: the Replicator coroutine holds a reference to the
  // item it is chunking across suspension points while checkpoint rounds
  // keep appending; push_back must not invalidate references.
  std::deque<Item> items;
  std::unique_ptr<sim::Event> event;
};

struct FlinkRun {
  FlinkRun(sim::Simulator& sim, rdma::Fabric* fabric)
      : sim(sim), fabric(fabric) {}

  const core::QuerySpec* query;
  const workloads::Workload* workload;
  ClusterConfig cluster;
  JobConfig job;
  sim::Simulator& sim;   // owned by the ClusterRuntime
  rdma::Fabric* fabric;  // owned by the ClusterRuntime
  state::PartitionConfig pcfg;

  // Append-only across attempts; *_start marks the current attempt's slice.
  std::vector<std::unique_ptr<SocketConnection>> sockets;
  std::vector<std::unique_ptr<LocalQueue>> local_queues;
  std::vector<std::unique_ptr<SenderState>> senders;
  std::vector<std::unique_ptr<ConsumerState>> consumers;
  std::vector<std::unique_ptr<perf::CpuContext>> repl_cpus;
  std::vector<std::unique_ptr<ReplState>> repl_storage;
  size_t attempt_socket_start = 0;
  size_t attempt_sender_start = 0;
  size_t attempt_consumer_start = 0;
  size_t attempt_repl_start = 0;

  // Recovery control plane.
  std::unique_ptr<RecoveryCoordinator> coordinator;
  std::vector<NodeCkpt> ckpt;          // per node, current attempt
  std::vector<ReplState*> repl;        // per node, current attempt
  std::vector<bool> alive;
  std::vector<bool> retired;
  std::vector<int> sender_node;        // placement by sender gid
  std::vector<int> consumer_node;      // placement by consumer gid
  int attempt = 1;
  bool recovering = false;
  bool in_teardown = false;
  Nanos recovery_start = 0;
  uint64_t records_at_crash = 0;
  uint64_t recoveries = 0;
  Nanos recovery_ns = 0;
  uint64_t records_replayed = 0;
  uint64_t bytes_replicated = 0;
  bool failed = false;
  Status failure;

  uint64_t records_in = 0;
  // Observability handles (tracer null when disabled). No transfer-latency
  // histogram here: the socket exchange has no acquire/poll slot pair.
  obs::Tracer* tracer = nullptr;
  uint32_t trace_barrier = 0;
  uint32_t trace_window = 0;
  uint32_t trace_recovery = 0;
  uint32_t trace_cat = 0;
  int senders_per_node = 0;
  int receivers_per_node = 0;

  int senders_total() const { return cluster.nodes * senders_per_node; }
  int consumers_total() const { return cluster.nodes * receivers_per_node; }
  bool checkpointing() const { return job.checkpoint.enabled; }
  uint64_t BarrierInterval() const {
    if (job.checkpoint.interval_records > 0) {
      return job.checkpoint.interval_records;
    }
    return std::max<uint64_t>(1, job.records_per_worker / 4);
  }
};

void BuildAttempt(FlinkRun* run, uint64_t round);

void FailRun(FlinkRun* run, const Status& cause) {
  if (run->failed) return;
  run->failed = true;
  run->failure = cause;
  // Wake every parked coroutine (all attempts) so it can unwind.
  for (auto& socket : run->sockets) socket->Abort();
  for (auto& c : run->consumers) c->arrivals->Notify();
  for (auto& rs : run->repl_storage) rs->event->Notify();
}

uint64_t LaneCapacity(const FlinkRun& run) {
  return run.job.channel.slot_bytes - channel::kFooterBytes;
}

void OpenLane(FlinkRun* run, Outbound* ob) {
  ob->staging.resize(sizeof(SocketFrame) + LaneCapacity(*run));
  ob->writer = std::make_unique<core::RecordWriter>(
      ob->staging.data() + sizeof(SocketFrame), LaneCapacity(*run));
}

sim::Task SendFrame(FlinkRun* run, SenderState* s, Outbound* ob,
                    uint64_t payload_len, const SocketFrame& frame) {
  perf::CpuContext* cpu = s->cpu.get();
  const uint64_t len = sizeof(SocketFrame) + payload_len;
  std::memcpy(ob->staging.data(), &frame, sizeof(frame));
  if (ob->socket != nullptr) {
    co_await ob->socket->Send(s->node, ob->staging.data(), len, cpu);
  } else {
    LocalQueue::Buffer buffer;
    buffer.bytes.assign(ob->staging.begin(), ob->staging.begin() + len);
    buffer.watermark = frame.watermark;
    // Flink's exchange is queue-based even locally, with an extra handoff
    // between the producing operator and the network stack's buffer pool.
    cpu->Charge(Op::kQueueSync);
    ob->local->Push(std::move(buffer), cpu);
  }
  co_await cpu->Sync();
}

sim::Task FlushLane(FlinkRun* run, SenderState* s, Outbound* ob,
                    int64_t watermark, bool final_marker) {
  if (ob->writer == nullptr && !final_marker) co_return;
  if (ob->writer == nullptr) OpenLane(run, ob);
  SocketFrame frame;
  frame.watermark = final_marker ? core::kWatermarkMax : watermark;
  frame.final_marker = final_marker ? 1 : 0;
  const uint64_t payload = ob->writer->bytes_used();
  ob->writer.reset();
  co_await SendFrame(run, s, ob, payload, frame);
}

/// A record-free frame closing checkpoint round `round` on this lane.
sim::Task SendBarrier(FlinkRun* run, SenderState* s, Outbound* ob,
                      uint64_t round, int64_t watermark) {
  if (run->tracer != nullptr) {
    run->tracer->Instant(run->sim.now(), run->trace_barrier, run->trace_cat,
                         s->node, obs::kTrackEngine);
  }
  if (ob->staging.empty()) OpenLane(run, ob);
  ob->writer.reset();
  SocketFrame frame;
  frame.watermark = watermark;
  frame.barrier = round;
  co_await SendFrame(run, s, ob, /*payload_len=*/0, frame);
}

// --- Checkpoint assembly ---------------------------------------------------

void TryAssemble(FlinkRun* run, int node);

void Contribute(FlinkRun* run, int node, int entity_key, uint64_t round,
                std::vector<uint8_t> part, bool terminal) {
  if (run->failed) return;
  NodeCkpt& nc = run->ckpt[node];
  if (terminal) {
    nc.terminal_parts[entity_key] = std::move(part);
  } else {
    nc.parts[round][entity_key] = std::move(part);
  }
  TryAssemble(run, node);
}

void TryAssemble(FlinkRun* run, int node) {
  NodeCkpt& nc = run->ckpt[node];
  ReplState* repl = run->repl[node];
  // Sequential rounds first: round r is complete when every entity
  // contributed it (terminal entities stand in with their last part).
  for (;;) {
    const uint64_t r = nc.assembled + 1;
    auto rit = nc.parts.find(r);
    bool complete = true;
    for (int key : nc.entity_keys) {
      const bool in_round = rit != nc.parts.end() && rit->second.count(key);
      if (!in_round && !nc.terminal_parts.count(key)) {
        complete = false;
        break;
      }
    }
    // Purely-terminal "rounds" are handled below, not here: without at
    // least one fresh part there is no barrier driving round r.
    if (!complete || rit == nc.parts.end() || rit->second.empty()) break;
    std::vector<uint8_t> blob;
    BlobWriter w(&blob);
    w.U64(r);
    w.U64(nc.entity_keys.size());
    for (int key : nc.entity_keys) {
      const auto pit = rit->second.find(key);
      w.Bytes(pit != rit->second.end() ? pit->second
                                       : nc.terminal_parts.at(key));
    }
    run->coordinator->RecordLocal(node, r, blob);
    nc.parts.erase(rit);
    nc.assembled = r;
    repl->items.push_back({r, /*terminal=*/false, std::move(blob)});
    repl->event->Notify();
  }
  // All entities drained: one terminal blob stands in for every later round.
  if (!nc.final_marked &&
      nc.terminal_parts.size() == nc.entity_keys.size()) {
    const uint64_t r = nc.assembled + 1;
    std::vector<uint8_t> blob;
    BlobWriter w(&blob);
    w.U64(r);
    w.U64(nc.entity_keys.size());
    for (int key : nc.entity_keys) w.Bytes(nc.terminal_parts.at(key));
    run->coordinator->RecordLocal(node, r, blob);
    run->coordinator->MarkFinalFrom(node, r);
    nc.final_marked = true;
    nc.assembled = r;
    repl->items.push_back({r, /*terminal=*/true, std::move(blob)});
    repl->event->Notify();
  }
}

std::vector<uint8_t> SenderPart(const SenderState& s,
                                const std::vector<uint64_t>& offsets) {
  std::vector<uint8_t> part;
  BlobWriter w(&part);
  w.U64(kSenderPart);
  w.U64(uint64_t(s.global_id));
  w.U64(offsets.size());
  for (uint64_t o : offsets) w.U64(o);
  return part;
}

std::vector<uint8_t> ConsumerPart(const FlinkRun& run, ConsumerState* c) {
  std::vector<uint8_t> part;
  BlobWriter w(&part);
  w.U64(kConsumerPart);
  w.U64(uint64_t(c->global_id));
  w.I64(c->last_trigger_wm);
  std::vector<uint8_t> state;
  c->partition->Snapshot(&state);
  w.Bytes(state);
  w.U64(c->sink.count());
  w.U64(c->sink.checksum());
  const auto& rows = run.job.collect_rows
                         ? c->sink.rows()
                         : std::vector<core::WindowResult>{};
  w.U64(rows.size());
  for (const core::WindowResult& row : rows) {
    w.I64(row.bucket);
    w.U64(row.key);
    w.I64(row.value);
  }
  return part;
}

// --- Snapshot replication over sockets -------------------------------------

sim::Task Replicator(FlinkRun* run, int node, ReplState* repl,
                     SocketConnection* socket, perf::CpuContext* cpu,
                     int attempt) {
  const auto halted = [=] {
    return run->failed || run->attempt != attempt;
  };
  size_t cursor = 0;
  std::vector<uint8_t> staging;
  while (!halted()) {
    while (cursor < repl->items.size()) {
      const ReplState::Item& item = repl->items[cursor];
      staging.clear();
      BlobWriter w(&staging);
      w.U64(uint64_t(node));
      w.U64(item.round);
      w.U64(item.terminal ? 1 : 0);
      w.Bytes(item.bytes);
      co_await socket->Send(node, staging.data(), staging.size(), cpu);
      if (halted()) co_return;
      const bool terminal = repl->items[cursor].terminal;
      ++cursor;
      if (terminal) co_return;  // nothing further will be queued
    }
    const Nanos wait_start = run->sim.now();
    co_await repl->event->Wait();
    cpu->ChargeWait(run->sim.now() - wait_start);
  }
}

sim::Task ReplicaReceiver(FlinkRun* run, int target, SocketConnection* socket,
                          perf::CpuContext* cpu, int attempt) {
  const auto halted = [=] {
    return run->failed || run->attempt != attempt;
  };
  std::vector<uint8_t> message;
  while (!halted()) {
    bool terminal = false;
    while (socket->TryReceive(target, &message, cpu)) {
      BlobReader r(message.data(), message.size());
      const int src = int(r.U64());
      const uint64_t round = r.U64();
      terminal = r.U64() != 0;
      const std::vector<uint8_t> blob = r.Bytes();
      run->bytes_replicated += blob.size();
      run->coordinator->RecordReplica(src, round, target);
      if (terminal) break;
    }
    if (terminal) co_return;
    const Nanos wait_start = run->sim.now();
    co_await socket->readable(target).Wait();
    cpu->ChargeWait(run->sim.now() - wait_start);
  }
}

// --- Data plane ------------------------------------------------------------

sim::Task Sender(FlinkRun* run, SenderState* s) {
  const int attempt = s->attempt;
  const auto halted = [=] {
    return run->failed || run->attempt != attempt;
  };
  perf::CpuContext* cpu = s->cpu.get();
  core::RecordPipeline pipeline(run->query, cpu, run->job.execution);
  const int total_consumers = run->consumers_total();
  const uint64_t interval = run->BarrierInterval();
  const size_t nflows = s->mux->flow_count();
  // Columnar staging (job.operator_batch > 1): records are pulled from
  // the mux charge-free — capturing the watermark each one observed at read
  // time — and replayed in append order through the exact scalar per-record
  // sequence (DESIGN.md §11). A staged chunk never crosses an aligned-
  // barrier boundary: the barrier block reads the mux's flow offsets and
  // watermark directly, so the mux must not be read ahead of the cut.
  const uint32_t operator_batch =
      std::max<uint32_t>(1u, run->job.operator_batch);
  core::RecordBatch staged(operator_batch);
  Record r;
  uint64_t batch = 0;
  bool more = s->mux->Next(&r);
  while (!halted() && more) {
    uint64_t bound = operator_batch;
    if (run->checkpointing()) {
      const uint64_t target = s->next_barrier * interval;
      const uint64_t until_barrier =
          target > s->consumed_total ? target - s->consumed_total : 1;
      bound = std::min<uint64_t>(bound, until_barrier);
    }
    staged.Clear();
    staged.Append(r, s->mux->watermark());
    // Short-circuit keeps the mux un-read past the chunk: the next chunk's
    // first record is pulled only after this chunk (and any barrier on its
    // last record) has been replayed.
    while (staged.size() < bound && s->mux->Next(&r)) {
      staged.Append(r, s->mux->watermark());
    }
    for (uint32_t i = 0; !halted() && i < staged.size(); ++i) {
      Record cur = staged.Get(i);
      const int64_t staged_wm = staged.watermark(i);
      ++run->records_in;
      ++s->consumed_total;
      cpu->CountRecords(1);
      const uint16_t wire_size = run->workload->wire_size(cur.stream_id);
      cpu->ChargeBytes(Op::kSourceReadPerByte, wire_size);
      // Managed-runtime record handling: deserialization into objects,
      // virtual operator dispatch, serialization back into network buffers.
      cpu->Charge(Op::kRuntimeOverhead);
      if (pipeline.Process(&cur)) {
        cpu->Charge(Op::kHashCompute);
        cpu->Charge(Op::kPartitionSelect);
        cpu->Charge(Op::kFanoutWrite);
        const int c = ConsumerOf(cur.key, total_consumers);
        Outbound* ob = &s->outbound[c];
        if (ob->writer == nullptr) OpenLane(run, ob);
        if (!ob->writer->Append(cur, wire_size)) {
          co_await FlushLane(run, s, ob, staged_wm,
                             /*final_marker=*/false);
          if (halted()) co_return;
          OpenLane(run, ob);
          SLASH_CHECK(ob->writer->Append(cur, wire_size));
        }
      }
      // Aligned checkpoint barrier: flush pending data on every lane, then
      // close the round on every lane and record the flow offsets of this
      // exact cut (the round's replay positions). The staging bound
      // guarantees this fires only on the chunk's last record, when the
      // mux holds exactly the cut's offsets and watermark.
      if (run->checkpointing() &&
          s->consumed_total >= s->next_barrier * interval) {
        const uint64_t round = s->next_barrier++;
        std::vector<uint64_t> offsets(nflows);
        for (size_t f = 0; f < nflows; ++f) offsets[f] = s->mux->consumed(f);
        const int64_t wm = s->mux->watermark();
        for (Outbound& ob : s->outbound) {
          co_await FlushLane(run, s, &ob, wm, /*final_marker=*/false);
          if (halted()) co_return;
        }
        for (Outbound& ob : s->outbound) {
          co_await SendBarrier(run, s, &ob, round, wm);
          if (halted()) co_return;
        }
        Contribute(run, s->node, s->global_id, round, SenderPart(*s, offsets),
                   /*terminal=*/false);
      }
      if (++batch >= run->job.source_batch) {
        batch = 0;
        co_await cpu->Sync();
      }
    }
    if (halted()) break;
    more = s->mux->Next(&r);
  }
  if (halted()) co_return;
  for (Outbound& ob : s->outbound) {
    co_await FlushLane(run, s, &ob, s->mux->watermark(),
                       /*final_marker=*/false);
    if (halted()) co_return;
  }
  for (Outbound& ob : s->outbound) {
    co_await FlushLane(run, s, &ob, core::kWatermarkMax,
                       /*final_marker=*/true);
    if (halted()) co_return;
  }
  if (run->checkpointing()) {
    std::vector<uint64_t> offsets(nflows);
    for (size_t f = 0; f < nflows; ++f) offsets[f] = s->mux->consumed(f);
    Contribute(run, s->node, s->global_id, /*round=*/0,
               SenderPart(*s, offsets), /*terminal=*/true);
  }
  co_await cpu->Sync();
}

/// Applies one frame. Returns the barrier round it closed (0 for data and
/// final frames).
///
/// The frame's records are staged charge-free into the consumer's columnar
/// batch (chunked to operator_batch) and replayed in append order through
/// the scalar per-record sequence — byte-identical charges across batch
/// sizes (DESIGN.md §11).
uint64_t ProcessFrame(FlinkRun* run, ConsumerState* c, const uint8_t* data,
                      uint64_t len, int sender) {
  perf::CpuContext* cpu = c->cpu.get();
  SLASH_CHECK_GE(len, sizeof(SocketFrame));
  SocketFrame frame;
  std::memcpy(&frame, data, sizeof(frame));
  core::RecordBatch* staged = c->batch.get();
  core::RecordReader reader(data + sizeof(SocketFrame),
                            len - sizeof(SocketFrame));
  Record r;
  uint8_t wire_buf[512];
  bool more = reader.Next(&r);
  while (more) {
    staged->Clear();
    do {
      staged->Append(r);
      more = reader.Next(&r);
    } while (more && !staged->full());
    for (uint32_t i = 0; i < staged->size(); ++i) {
      const Record cur = staged->Get(i);
      cpu->CountRecords(1);
      cpu->Charge(Op::kRecordParse);
      cpu->Charge(Op::kDmaColdRead);
      cpu->Charge(Op::kRuntimeOverhead);
      cpu->Charge(Op::kWindowAssign);
      cpu->Charge(Op::kIndexProbe);
      const int64_t bucket = run->query->window.BucketOf(cur.timestamp);
      if (run->query->is_join()) {
        const uint16_t wire_size = run->workload->wire_size(cur.stream_id);
        SLASH_CHECK_LE(size_t{wire_size}, sizeof(wire_buf));
        SerializeWireRecord(cur, wire_size, wire_buf);
        cpu->Charge(Op::kStateAppend);
        cpu->ChargeBytes(Op::kBufferCopyPerByte, wire_size);
        c->partition->Append({cur.key, bucket}, cur.stream_id, wire_buf,
                             wire_size);
      } else {
        cpu->Charge(Op::kStateRmw);
        c->partition->UpdateAggregate({cur.key, bucket}, cur.value);
      }
    }
  }
  c->sender_wm[sender] = std::max(c->sender_wm[sender], frame.watermark);
  if (frame.final_marker != 0 && !c->sender_final[sender]) {
    c->sender_final[sender] = true;
    c->sender_wm[sender] = core::kWatermarkMax;
    ++c->finals;
  }
  return frame.barrier;
}

/// Completes checkpoint round rounds_complete+1 once every lane has either
/// delivered its barrier or gone final: force a trigger at the aligned
/// watermark (deterministic — it only depends on the cut), then snapshot.
void MaybeCompleteRound(FlinkRun* run, ConsumerState* c) {
  if (!run->checkpointing() || run->failed) return;
  for (;;) {
    const uint64_t r = c->rounds_complete + 1;
    bool all = true;
    bool any_barrier = false;
    for (const auto& in : c->inbound) {
      if (c->sender_final[in.sender]) continue;
      if (in.barrier_seen < r) {
        all = false;
        break;
      }
      any_barrier = true;
    }
    // All-final is the terminal path, not a barrier round.
    if (!all || !any_barrier) return;
    TriggerWindows(*run->query, c->Watermark(), c->partition.get(), &c->sink,
                   c->cpu.get(), &c->last_trigger_wm);
    Contribute(run, c->node, run->senders_total() + c->global_id, r,
               ConsumerPart(*run, c), /*terminal=*/false);
    c->rounds_complete = r;
  }
}

sim::Task Receiver(FlinkRun* run, ConsumerState* c) {
  const int attempt = c->attempt;
  const auto halted = [=] {
    return run->failed || run->attempt != attempt;
  };
  perf::CpuContext* cpu = c->cpu.get();
  const int total_senders = run->senders_total();
  std::vector<uint8_t> message;
  while (!halted() && c->finals < total_senders) {
    bool progressed = false;
    for (auto& in : c->inbound) {
      // Barrier alignment: a lane that already closed the next round is
      // not drained until every other lane catches up (its post-barrier
      // frames belong to the next checkpoint interval).
      if (run->checkpointing() && !c->sender_final[in.sender] &&
          in.barrier_seen > c->rounds_complete) {
        continue;
      }
      if (in.socket != nullptr) {
        while (in.socket->TryReceive(c->node, &message, cpu)) {
          progressed = true;
          // Handoff from the dedicated network thread to the processing
          // thread through a software queue.
          cpu->Charge(Op::kQueueSync);
          const uint64_t barrier =
              ProcessFrame(run, c, message.data(), message.size(), in.sender);
          if (barrier != 0) {
            in.barrier_seen = barrier;
            break;
          }
        }
      } else {
        LocalQueue::Buffer buffer;
        while (in.local->TryPop(&buffer, cpu)) {
          progressed = true;
          const uint64_t barrier = ProcessFrame(
              run, c, buffer.bytes.data(), buffer.bytes.size(), in.sender);
          if (barrier != 0) {
            in.barrier_seen = barrier;
            break;
          }
        }
      }
    }
    if (halted()) co_return;
    MaybeCompleteRound(run, c);
    if (progressed) {
      const int64_t before = c->last_trigger_wm;
      TriggerWindows(*run->query, c->Watermark(), c->partition.get(),
                     &c->sink, cpu, &c->last_trigger_wm);
      if (run->tracer != nullptr && c->last_trigger_wm != before) {
        run->tracer->Instant(run->sim.now(), run->trace_window, run->trace_cat,
                             c->node, obs::kTrackEngine);
      }
      co_await cpu->Sync();
    } else {
      const Nanos wait_start = run->sim.now();
      co_await c->arrivals->Wait();
      cpu->ChargeWait(run->sim.now() - wait_start);
    }
  }
  if (halted()) co_return;
  TriggerWindows(*run->query, c->Watermark(), c->partition.get(), &c->sink,
                 cpu, &c->last_trigger_wm);
  if (run->checkpointing()) {
    Contribute(run, c->node, run->senders_total() + c->global_id, /*round=*/0,
               ConsumerPart(*run, c), /*terminal=*/true);
  }
  co_await cpu->Sync();
}

// --- Crash recovery --------------------------------------------------------

void OnNodeCrash(FlinkRun* run, int node) {
  if (run->failed) return;
  if (!run->checkpointing()) {
    FailRun(run, Status::Unavailable(
                     "node " + std::to_string(node) +
                     " crashed and checkpointing is disabled; aborting"));
    return;
  }
  if (run->recovering) {
    FailRun(run, Status::Unavailable(
                     "node " + std::to_string(node) +
                     " crashed while a recovery was already in flight"));
    return;
  }
  run->alive[node] = false;
  int live = 0;
  for (int n = 0; n < run->cluster.nodes; ++n) live += run->alive[n] ? 1 : 0;
  if (live == 0) {
    FailRun(run, Status::Unavailable("last node crashed: no survivors"));
    return;
  }
  run->recovering = true;
  ++run->recoveries;
  ++run->attempt;
  run->recovery_start = run->sim.now();
  run->records_at_crash = run->records_in;
  if (run->tracer != nullptr) {
    run->tracer->Begin(run->sim.now(), run->trace_recovery, run->trace_cat,
                       node, obs::kTrackRecovery);
  }

  // Tear the whole attempt down: abort every socket so window-blocked
  // senders and parked receivers wake, observe the attempt bump, and
  // unwind. Survivors' in-flight exchanges are ahead of the rollback point
  // anyway.
  run->in_teardown = true;
  for (size_t i = run->attempt_socket_start; i < run->sockets.size(); ++i) {
    run->sockets[i]->Abort();
  }
  for (size_t i = run->attempt_consumer_start; i < run->consumers.size();
       ++i) {
    run->consumers[i]->arrivals->Notify();
  }
  for (size_t i = run->attempt_repl_start; i < run->repl_storage.size();
       ++i) {
    run->repl_storage[i]->event->Notify();
  }
  run->in_teardown = false;

  // Roll every task back to the latest round with a live copy of every
  // node's blob; the dead node's entities restart on an heir holding its
  // replica.
  const uint64_t round = run->coordinator->LatestRecoverableRound(run->alive);
  int heir = run->coordinator->FirstLiveHolder(node, round, run->alive);
  if (heir < 0) {
    for (int i = 1; i <= run->cluster.nodes && heir < 0; ++i) {
      const int cand = (node + i) % run->cluster.nodes;
      if (run->alive[cand]) heir = cand;
    }
  }
  run->coordinator->DiscardRoundsAfter(round);
  for (int& n : run->sender_node) {
    if (n == node) n = heir;
  }
  for (int& n : run->consumer_node) {
    if (n == node) n = heir;
  }

  uint64_t restore_bytes = 0;
  for (int n = 0; n < run->cluster.nodes; ++n) {
    const std::vector<uint8_t>* blob = run->coordinator->BlobFor(n, round);
    if (blob != nullptr) restore_bytes += blob->size();
  }
  uint64_t new_sockets = 0;
  for (int s = 0; s < run->senders_total(); ++s) {
    for (int cns = 0; cns < run->consumers_total(); ++cns) {
      if (run->sender_node[s] != run->consumer_node[cns]) ++new_sockets;
    }
  }
  const int rf = std::min(run->job.checkpoint.replication_factor, live - 1);
  new_sockets += uint64_t(live) * uint64_t(std::max(rf, 0));
  const Nanos delay = kSocketSetupCost * Nanos(new_sockets) +
                      Nanos(restore_bytes / kRestoreBytesPerNs);
  run->sim.ScheduleAt(run->sim.now() + delay, [run, round, node] {
    if (run->failed) return;
    run->recovery_ns += run->sim.now() - run->recovery_start;
    if (run->tracer != nullptr) {
      run->tracer->End(run->sim.now(), run->trace_recovery, run->trace_cat,
                       node, obs::kTrackRecovery);
    }
    BuildAttempt(run, round);
    run->recovering = false;
  });
}

/// Builds one attempt's task graph: fresh sender/consumer entities (stable
/// global ids, nodes per the current placement), exchange lanes, and
/// replication pairs; restores entity state from the round-`round` blobs
/// (round 0 = fresh start).
void BuildAttempt(FlinkRun* run, uint64_t round) {
  const ClusterConfig& cluster = run->cluster;
  const JobConfig& job = run->job;
  const int attempt = run->attempt;
  run->attempt_socket_start = run->sockets.size();
  run->attempt_sender_start = run->senders.size();
  run->attempt_consumer_start = run->consumers.size();
  run->attempt_repl_start = run->repl_storage.size();

  // Restore parts from the blobs of every node that was ever primary,
  // including a just-dead one (its heir restores the replica). Nodes
  // retired by *earlier* recoveries have no usable blobs — their entities
  // were folded into their heir's blobs.
  std::map<int, std::vector<uint64_t>> sender_offsets;
  struct ConsumerRestore {
    int64_t last_trigger_wm = core::kWatermarkMin;
    std::vector<uint8_t> state;
    uint64_t count = 0;
    uint64_t checksum = 0;
    std::vector<core::WindowResult> rows;
  };
  std::map<int, ConsumerRestore> consumer_restore;
  if (round >= 1) {
    for (int n = 0; n < cluster.nodes; ++n) {
      if (run->retired[n]) continue;
      const std::vector<uint8_t>* blob = run->coordinator->BlobFor(n, round);
      SLASH_CHECK_MSG(blob != nullptr, "no restorable blob for node "
                                           << n << " at round " << round);
      BlobReader r(blob->data(), blob->size());
      r.U64();  // stored round (may predate `round` for terminal blobs)
      const uint64_t nparts = r.U64();
      for (uint64_t i = 0; i < nparts; ++i) {
        const std::vector<uint8_t> part = r.Bytes();
        BlobReader p(part.data(), part.size());
        const uint64_t kind = p.U64();
        const int gid = int(p.U64());
        if (kind == kSenderPart) {
          const uint64_t nflows = p.U64();
          std::vector<uint64_t> offsets(nflows);
          for (uint64_t f = 0; f < nflows; ++f) offsets[f] = p.U64();
          sender_offsets[gid] = std::move(offsets);
        } else {
          ConsumerRestore cr;
          cr.last_trigger_wm = p.I64();
          cr.state = p.Bytes();
          cr.count = p.U64();
          cr.checksum = p.U64();
          const uint64_t nrows = p.U64();
          cr.rows.resize(nrows);
          for (uint64_t j = 0; j < nrows; ++j) {
            cr.rows[j].bucket = p.I64();
            cr.rows[j].key = p.U64();
            cr.rows[j].value = p.I64();
          }
          consumer_restore[gid] = std::move(cr);
        }
      }
    }
  }

  // Fresh per-node checkpoint accumulators for this attempt's placement.
  run->ckpt.assign(size_t(cluster.nodes), NodeCkpt{});
  for (int s = 0; s < run->senders_total(); ++s) {
    run->ckpt[run->sender_node[s]].entity_keys.push_back(s);
  }
  for (int cns = 0; cns < run->consumers_total(); ++cns) {
    run->ckpt[run->consumer_node[cns]].entity_keys.push_back(
        run->senders_total() + cns);
  }
  for (int n = 0; n < cluster.nodes; ++n) run->ckpt[n].assembled = round;

  run->repl.assign(size_t(cluster.nodes), nullptr);
  if (run->checkpointing()) {
    for (int n = 0; n < cluster.nodes; ++n) {
      if (!run->alive[n]) continue;
      auto rs = std::make_unique<ReplState>();
      rs->event = std::make_unique<sim::Event>(&run->sim);
      run->repl[n] = rs.get();
      run->repl_storage.push_back(std::move(rs));
    }
  }

  // Consumers (stable gids; heir placement after a crash).
  const size_t consumer_base = run->consumers.size();
  for (int gid = 0; gid < run->consumers_total(); ++gid) {
    auto c = std::make_unique<ConsumerState>();
    c->global_id = gid;
    c->node = run->consumer_node[gid];
    c->attempt = attempt;
    c->cpu = std::make_unique<perf::CpuContext>(&run->sim, cluster.cost_model,
                                                cluster.cpu_ghz);
    c->partition = std::make_unique<state::Partition>(gid, run->pcfg);
    c->batch = std::make_unique<core::RecordBatch>(
        std::max<uint32_t>(1u, job.operator_batch));
    c->sink = core::ResultSink(job.collect_rows);
    c->arrivals = std::make_unique<sim::Event>(&run->sim);
    c->rounds_complete = round;
    const auto rit = consumer_restore.find(gid);
    if (rit != consumer_restore.end()) {
      ConsumerRestore& cr = rit->second;
      if (!cr.state.empty()) {
        const Status restored =
            c->partition->Restore(cr.state.data(), cr.state.size());
        SLASH_CHECK_MSG(restored.ok(), restored.message());
      }
      c->sink.Restore(cr.count, cr.checksum, std::move(cr.rows));
      c->last_trigger_wm = cr.last_trigger_wm;
    }
    c->sender_wm.assign(size_t(run->senders_total()), core::kWatermarkMin);
    c->sender_final.assign(size_t(run->senders_total()), false);
    run->consumers.push_back(std::move(c));
  }

  // Senders. Flow ids derive from the sender's *home* decomposition so a
  // replay re-reads exactly the flows the dead node owned.
  const int flows_per_sender = cluster.workers_per_node / run->senders_per_node;
  const int total_flows = cluster.nodes * cluster.workers_per_node;
  uint64_t restored_records = 0;
  for (int gid = 0; gid < run->senders_total(); ++gid) {
    auto s = std::make_unique<SenderState>();
    s->global_id = gid;
    s->node = run->sender_node[gid];
    s->attempt = attempt;
    s->next_barrier = round + 1;
    s->cpu = std::make_unique<perf::CpuContext>(&run->sim, cluster.cost_model,
                                                cluster.cpu_ghz);
    const int home = gid / run->senders_per_node;
    const int snd = gid % run->senders_per_node;
    std::vector<std::unique_ptr<core::RecordSource>> flows;
    for (int f = 0; f < flows_per_sender; ++f) {
      const int flow =
          home * cluster.workers_per_node + snd * flows_per_sender + f;
      flows.push_back(run->workload->MakeFlow(
          flow, total_flows, job.records_per_worker, job.seed));
    }
    s->mux = std::make_unique<FlowMux>(std::move(flows));
    const auto oit = sender_offsets.find(gid);
    if (oit != sender_offsets.end()) {
      for (size_t f = 0; f < oit->second.size(); ++f) {
        s->mux->SkipTo(f, oit->second[f]);
        s->consumed_total += oit->second[f];
        restored_records += oit->second[f];
      }
    }
    s->outbound.resize(size_t(run->consumers_total()));
    for (int cgid = 0; cgid < run->consumers_total(); ++cgid) {
      ConsumerState* c = run->consumers[consumer_base + size_t(cgid)].get();
      Outbound& ob = s->outbound[cgid];
      if (c->node == s->node) {
        run->local_queues.push_back(std::make_unique<LocalQueue>(&run->sim));
        ob.local = run->local_queues.back().get();
        ob.local->AddObserver(c->arrivals.get());
        c->inbound.push_back({gid, /*socket=*/nullptr, ob.local, round});
      } else {
        auto socket = std::make_unique<SocketConnection>(
            run->fabric, s->node, c->node, cluster.socket);
        ob.socket = socket.get();
        socket->AddReadableObserver(c->node, c->arrivals.get());
        c->inbound.push_back({gid, socket.get(), /*local=*/nullptr, round});
        run->sockets.push_back(std::move(socket));
      }
    }
    run->senders.push_back(std::move(s));
  }

  // Replication pairs: each live node ships its blobs to the next
  // replication_factor live nodes (cyclically).
  if (run->checkpointing()) {
    std::vector<int> live_nodes;
    for (int n = 0; n < cluster.nodes; ++n) {
      if (run->alive[n]) live_nodes.push_back(n);
    }
    const int rf = std::min<int>(job.checkpoint.replication_factor,
                                 int(live_nodes.size()) - 1);
    for (size_t i = 0; i < live_nodes.size(); ++i) {
      const int src = live_nodes[i];
      for (int k = 1; k <= rf; ++k) {
        const int target = live_nodes[(i + size_t(k)) % live_nodes.size()];
        auto socket = std::make_unique<SocketConnection>(
            run->fabric, src, target, cluster.socket);
        auto send_cpu = std::make_unique<perf::CpuContext>(
            &run->sim, cluster.cost_model, cluster.cpu_ghz);
        auto recv_cpu = std::make_unique<perf::CpuContext>(
            &run->sim, cluster.cost_model, cluster.cpu_ghz);
        run->sim.Spawn(Replicator(run, src, run->repl[src], socket.get(),
                                  send_cpu.get(), attempt));
        run->sim.Spawn(ReplicaReceiver(run, target, socket.get(),
                                       recv_cpu.get(), attempt));
        run->repl_cpus.push_back(std::move(send_cpu));
        run->repl_cpus.push_back(std::move(recv_cpu));
        run->sockets.push_back(std::move(socket));
      }
    }
  }

  if (attempt > 1) {
    run->records_replayed += run->records_at_crash - restored_records;
    run->records_in = restored_records;
  }
  if (!run->alive.empty()) {
    for (int n = 0; n < cluster.nodes; ++n) {
      if (!run->alive[n] && !run->retired[n]) {
        run->coordinator->RetireNode(n, round);
        run->retired[n] = true;
      }
    }
  }

  for (size_t i = run->attempt_sender_start; i < run->senders.size(); ++i) {
    run->sim.Spawn(Sender(run, run->senders[i].get()));
  }
  for (size_t i = run->attempt_consumer_start; i < run->consumers.size();
       ++i) {
    run->sim.Spawn(Receiver(run, run->consumers[i].get()));
  }
}

}  // namespace

RunStats FlinkLikeEngine::Run(const JobSpec& spec) {
  RunStats stats;
  stats.engine = std::string(name());
  if (spec.sources == nullptr) {
    stats.status = Status::InvalidArgument("JobSpec has no workload (sources)");
    return stats;
  }
  const ClusterConfig& cluster = spec.cluster;
  const JobConfig& job = spec.config;
  SLASH_CHECK_MSG(cluster.workers_per_node >= 2,
                  "re-partitioning engines need at least one sender and one "
                  "receiver per node");
  auto runtime =
      ClusterRuntime::Create(cluster, cluster.nodes, kSupport, job.tracer);
  if (!runtime.ok()) {
    stats.status = runtime.status();
    return stats;
  }
  ClusterRuntime& rt = **runtime;
  obs::MetricsRegistry* registry = rt.registry();
  const core::QuerySpec query = spec.sources->MakeQuery();
  FlinkRun run(*rt.sim(), rt.fabric());
  run.query = &query;
  run.workload = spec.sources;
  run.cluster = cluster;
  run.job = job;
  run.senders_per_node = cluster.workers_per_node / 2;
  run.receivers_per_node = cluster.workers_per_node - run.senders_per_node;
  run.tracer = run.sim.tracer();
  if (run.tracer != nullptr) {
    run.trace_barrier = run.tracer->Intern("engine.barrier");
    run.trace_window = run.tracer->Intern("engine.window_fire");
    run.trace_recovery = run.tracer->Intern("recovery");
    run.trace_cat = run.tracer->Intern("flink");
  }
  run.fabric->SetNodeCrashHandler(
      [run_ptr = &run](int node) { OnNodeCrash(run_ptr, node); });

  run.pcfg.kind = query.is_join() ? state::StateKind::kAppend
                                  : state::StateKind::kAggregate;
  run.pcfg.lss_capacity = job.state_lss_capacity;
  run.pcfg.index_buckets = job.state_index_buckets;

  run.coordinator = std::make_unique<RecoveryCoordinator>(cluster.nodes);
  run.coordinator->AttachMetrics(registry);
  run.alive.assign(size_t(cluster.nodes), true);
  run.retired.assign(size_t(cluster.nodes), false);
  run.sender_node.resize(size_t(run.senders_total()));
  for (int s = 0; s < run.senders_total(); ++s) {
    run.sender_node[s] = s / run.senders_per_node;
  }
  run.consumer_node.resize(size_t(run.consumers_total()));
  for (int c = 0; c < run.consumers_total(); ++c) {
    run.consumer_node[c] = c / run.receivers_per_node;
  }

  BuildAttempt(&run, /*round=*/0);

  rt.Run(&stats);
  stats.status = run.failed ? run.failure : Status::OK();
  registry->GetCounter(obs::metric::kRecordsIn)->Add(run.records_in);
  registry->GetCounter(obs::metric::kCheckpointBytesReplicated)
      ->Add(run.bytes_replicated);
  registry->GetCounter(obs::metric::kRecoveries)->Add(run.recoveries);
  registry->GetCounter(obs::metric::kRecoveryNs)->Add(run.recovery_ns);
  registry->GetCounter(obs::metric::kRecordsReplayed)
      ->Add(run.records_replayed);
  // Results come from the surviving attempt's consumers only; CPU counters
  // accumulate across every attempt — a torn-down attempt still burned the
  // cycles.
  obs::Counter* emitted = registry->GetCounter(obs::metric::kRecordsEmitted);
  obs::Counter* checksum = registry->GetCounter(obs::metric::kResultChecksum);
  for (size_t i = run.attempt_consumer_start; i < run.consumers.size(); ++i) {
    const ConsumerState* c = run.consumers[i].get();
    emitted->Add(c->sink.count());
    checksum->Add(c->sink.checksum());
    if (job.collect_rows) {
      const auto& rows = c->sink.rows();
      stats.rows.insert(stats.rows.end(), rows.begin(), rows.end());
    }
  }
  perf::Counters* senders =
      registry->GetCpu(obs::metric::kCpu, {{obs::kLabelRole, "sender"}});
  for (auto& s : run.senders) senders->Merge(s->cpu->counters());
  perf::Counters* receivers =
      registry->GetCpu(obs::metric::kCpu, {{obs::kLabelRole, "receiver"}});
  for (auto& c : run.consumers) receivers->Merge(c->cpu->counters());
  if (!run.repl_cpus.empty()) {
    perf::Counters* replication =
        registry->GetCpu(obs::metric::kCpu, {{obs::kLabelRole, "replication"}});
    for (auto& cpu : run.repl_cpus) replication->Merge(cpu->counters());
  }
  rt.Finish(&stats);
  return stats;
}

}  // namespace slash::engines
