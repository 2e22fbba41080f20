#include "engines/repartition_engine.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/pipeline.h"
#include "core/record.h"
#include "engines/membership.h"
#include "engines/trigger.h"
#include "state/partition.h"

namespace slash::engines {

namespace {

using channel::InboundBuffer;
using channel::RdmaChannel;
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

/// Round-robin multiplexer over several flows assigned to one sender
/// thread, tracking the sender's low watermark (min over its flows).
class FlowMux {
 public:
  explicit FlowMux(std::vector<std::unique_ptr<core::RecordSource>> flows)
      : flows_(std::move(flows)),
        last_ts_(flows_.size(), core::kWatermarkMin),
        consumed_(flows_.size(), 0) {}

  /// Next record, round-robin across non-exhausted flows. False when all
  /// flows are drained.
  bool Next(core::Record* out) {
    const size_t n = flows_.size();
    for (size_t step = 0; step < n; ++step) {
      const size_t f = (cursor_ + step) % n;
      if (flows_[f] == nullptr) continue;
      if (flows_[f]->Next(out)) {
        last_ts_[f] = out->timestamp;
        ++consumed_[f];
        cursor_ = (f + 1) % n;
        return true;
      }
      flows_[f] = nullptr;  // exhausted
      last_ts_[f] = core::kWatermarkMax;
    }
    return false;
  }

  /// The sender's low watermark.
  int64_t watermark() const {
    int64_t wm = core::kWatermarkMax;
    for (int64_t ts : last_ts_) wm = std::min(wm, ts);
    return wm;
  }

  size_t flow_count() const { return flows_.size(); }

  /// Records consumed from flow `f` so far (checkpoint offsets).
  uint64_t consumed(size_t f) const { return consumed_[f]; }

  /// Fast-forwards flow `f` past its first `count` records (recovery
  /// replays a flow deterministically from a checkpointed offset; the
  /// sources are seeded generators, so skipping re-derives the exact
  /// position and watermark of the checkpoint cut).
  void SkipTo(size_t f, uint64_t count) {
    core::Record r;
    for (uint64_t i = 0; i < count; ++i) {
      if (flows_[f] == nullptr || !flows_[f]->Next(&r)) {
        flows_[f] = nullptr;
        last_ts_[f] = core::kWatermarkMax;
        consumed_[f] = count;
        return;
      }
      last_ts_[f] = r.timestamp;
    }
    consumed_[f] = count;
  }

 private:
  std::vector<std::unique_ptr<core::RecordSource>> flows_;
  std::vector<int64_t> last_ts_;
  std::vector<uint64_t> consumed_;
  size_t cursor_ = 0;
};

/// The consumer a key is re-partitioned to (identical on every sender).
int ConsumerOf(uint64_t key, int total_consumers) {
  return static_cast<int>(Mix64(key ^ 0x9a97e17ULL) %
                          uint64_t(total_consumers));
}

/// A same-node exchange: an in-memory queue of frames between a sender and
/// a receiver thread. Queue-based handoff costs the synchronization penalty
/// the paper attributes to software queues [Kalia NSDI'19].
class LocalQueue {
 public:
  explicit LocalQueue(sim::Event* arrivals) : arrivals_(arrivals) {}

  void Push(std::vector<uint8_t> frame, perf::CpuContext* cpu) {
    cpu->Charge(Op::kQueueSync);
    queue_.push_back(std::move(frame));
    arrivals_->Notify();
  }

  bool TryPop(std::vector<uint8_t>* out, perf::CpuContext* cpu) {
    if (queue_.empty()) {
      cpu->Charge(Op::kPollPause);
      return false;
    }
    cpu->Charge(Op::kQueueSync);
    *out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

 private:
  std::deque<std::vector<uint8_t>> queue_;
  sim::Event* arrivals_;  // the receiver's
};

/// The header of every frame: prepended to socket and local frames, carried
/// by an RDMA slot's footer (watermark) and user_tag (final_marker).
/// `barrier != 0` marks a record-free frame closing checkpoint round
/// `barrier` on its lane (Chandy-Lamport aligned barriers, as Flink injects
/// them into the exchange streams).
struct FrameHeader {
  int64_t watermark = 0;
  uint64_t final_marker = 0;
  uint64_t barrier = 0;
};

/// One sender -> consumer exchange over exactly one transport: an RDMA
/// channel or a socket to another node, or a same-node queue. The sender
/// serializes records straight into the open buffer: the acquired channel
/// slot (zero-copy fan-out), or `staging` behind a FrameHeader.
struct Lane {
  int sender = 0;  // global id
  RdmaChannel* channel = nullptr;
  SocketConnection* socket = nullptr;
  LocalQueue* local = nullptr;
  channel::SlotRef slot;
  std::vector<uint8_t> staging;
  std::unique_ptr<core::RecordWriter> writer;  // null: no open buffer
  uint64_t barrier_seen = 0;  // highest barrier round the lane delivered
};

struct SenderState {
  int global_id = 0;
  int node = 0;  // current placement (heir after recovery)
  int attempt = 1;
  std::unique_ptr<perf::CpuContext> cpu;
  std::unique_ptr<FlowMux> mux;
  std::vector<Lane> outbound;   // per consumer
  uint64_t consumed_total = 0;  // across flows, including restored skip
  uint64_t next_barrier = 1;
};

struct ConsumerState {
  int global_id = 0;
  int node = 0;  // current placement
  int attempt = 1;
  std::unique_ptr<perf::CpuContext> cpu;
  std::unique_ptr<state::Partition> partition;
  core::ResultSink sink;
  std::vector<int64_t> sender_wm;
  std::vector<bool> sender_final;
  int finals = 0;
  int64_t last_trigger_wm = core::kWatermarkMin;
  uint64_t rounds_complete = 0;  // checkpoint rounds aligned so far
  std::unique_ptr<sim::Event> arrivals;
  std::vector<Lane*> inbound;  // in sender order

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

/// Where one attempt's slice starts in the run's append-only vectors.
struct AttemptStart {
  size_t sockets = 0;
  size_t channels = 0;
  size_t senders = 0;
  size_t consumers = 0;
  size_t repl = 0;
};

struct RepartitionRun {
  RepartitionRun(const RepartitionDesign& design, sim::Simulator& sim,
                 rdma::Fabric* fabric, int nodes)
      : design(design), sim(sim), fabric(fabric), membership(nodes, nodes) {}

  const RepartitionDesign& design;
  const core::QuerySpec* query = nullptr;
  const workloads::Workload* workload = nullptr;
  ClusterConfig cluster;
  JobConfig job;
  sim::Simulator& sim;   // owned by the ClusterRuntime
  rdma::Fabric* fabric;  // owned by the ClusterRuntime
  state::PartitionConfig pcfg;
  int senders_per_node = 0;
  int receivers_per_node = 0;

  // Append-only across attempts; `current` marks the current attempt.
  std::vector<std::unique_ptr<RdmaChannel>> channels;
  std::vector<std::unique_ptr<SocketConnection>> sockets;
  std::vector<std::unique_ptr<LocalQueue>> local_queues;
  std::vector<std::unique_ptr<SenderState>> senders;
  std::vector<std::unique_ptr<ConsumerState>> consumers;
  std::vector<std::unique_ptr<perf::CpuContext>> repl_cpus;
  std::vector<std::unique_ptr<ReplState>> repl_storage;
  AttemptStart current;

  // Recovery control plane (a design with a recovery path).
  Membership membership;
  std::unique_ptr<RecoveryCoordinator> coordinator;
  std::vector<NodeCkpt> ckpt;     // per node, current attempt
  std::vector<ReplState*> repl;   // per node, current attempt
  std::vector<int> sender_node;   // placement by sender gid
  std::vector<int> consumer_node; // placement by consumer gid
  int attempt = 1;
  Nanos recovery_start = 0;
  uint64_t records_at_crash = 0;
  bool failed = false;
  Status failure;
  uint64_t records_in = 0;

  // Instruments resolved at set-up; null where the design has none.
  obs::Histogram* latency = nullptr;  // RDMA lanes: acquire -> poll
  obs::Counter* recoveries = nullptr;
  obs::Counter* recovery_ns = nullptr;
  obs::Counter* records_replayed = nullptr;
  obs::Counter* bytes_replicated = nullptr;
  obs::Tracer* tracer = nullptr;  // null when disabled
  uint32_t trace_barrier = 0;
  uint32_t trace_window = 0;
  uint32_t trace_recovery = 0;
  uint32_t trace_cat = 0;

  int senders_total() const { return cluster.nodes * senders_per_node; }
  int consumers_total() const { return cluster.nodes * receivers_per_node; }
  bool checkpointing() const {
    return design.recovery && job.checkpoint.enabled;
  }
  /// Whether a task of attempt `a` must stop: the run failed, or a crash
  /// tore its attempt down.
  bool Halted(int a) const { return failed || attempt != a; }
  /// Whether a halted task stops at once. With a recovery path the rollback
  /// re-runs its work; without one, an aborted task finishes the record in
  /// hand and settles its clock.
  bool Abandoned(int a) const { return design.recovery && Halted(a); }
  /// A crash bumped the attempt and its rebuild is still pending.
  bool recovering() const { return consumers.back()->attempt != attempt; }
  uint64_t LaneCapacity() const {
    return job.channel.slot_bytes - channel::kFooterBytes;
  }
  uint64_t BarrierInterval() const {
    return std::max<uint64_t>(1, job.records_per_worker / 4);
  }
};

void BuildAttempt(RepartitionRun* run, uint64_t round);

/// Wakes every parked coroutine of the attempts from `from` on so it can
/// observe the failure or the attempt bump and unwind: aborting a socket
/// releases its window-blocked senders.
void Wake(RepartitionRun* run, const AttemptStart& from) {
  for (size_t i = from.sockets; i < run->sockets.size(); ++i) {
    run->sockets[i]->Abort();
  }
  for (size_t i = from.consumers; i < run->consumers.size(); ++i) {
    run->consumers[i]->arrivals->Notify();
  }
  for (size_t i = from.channels; i < run->channels.size(); ++i) {
    run->channels[i]->credit_event().Notify();
    run->channels[i]->data_event().Notify();
  }
  for (size_t i = from.repl; i < run->repl_storage.size(); ++i) {
    run->repl_storage[i]->event->Notify();
  }
}

/// Aborts the run: records the cause and wakes every attempt.
void FailRun(RepartitionRun* run, const Status& cause) {
  if (run->failed) return;
  run->failed = true;
  run->failure = cause;
  Wake(run, AttemptStart{});
}

// --- Lanes -----------------------------------------------------------------

/// Opens `lane`'s buffer: acquires the next channel slot, charging the
/// credit wait, or stages behind a frame header. Leaves the lane closed when
/// the run failed or the channel broke while waiting for credit.
sim::Task OpenLane(RepartitionRun* run, SenderState* s, Lane* lane) {
  const uint64_t capacity = run->LaneCapacity();
  if (lane->channel == nullptr) {
    lane->staging.resize(sizeof(FrameHeader) + capacity);
    lane->writer = std::make_unique<core::RecordWriter>(
        lane->staging.data() + sizeof(FrameHeader), capacity);
    co_return;
  }
  perf::CpuContext* cpu = s->cpu.get();
  while (!lane->channel->TryAcquire(&lane->slot, cpu)) {
    if (run->failed || lane->channel->broken()) co_return;
    co_await cpu->Park(lane->channel->credit_event());
  }
  lane->writer =
      std::make_unique<core::RecordWriter>(lane->slot.payload, capacity);
}

/// Ships `lane`'s open buffer as one frame with `header`. A closed lane
/// ships only a control frame (end-of-stream or a barrier), as an empty
/// buffer.
sim::Task FlushLane(RepartitionRun* run, SenderState* s, Lane* lane,
                    FrameHeader header) {
  if (lane->writer == nullptr) {
    if (header.final_marker == 0 && header.barrier == 0) co_return;
    co_await OpenLane(run, s, lane);
    if (lane->writer == nullptr) co_return;
  }
  perf::CpuContext* cpu = s->cpu.get();
  const uint64_t payload = lane->writer->bytes_used();
  lane->writer.reset();
  if (lane->channel != nullptr) {
    cpu->Charge(Op::kRdmaPost, 0);  // Post() itself charges the post cost
    const Status post =
        lane->channel->Post(lane->slot, payload, header.final_marker,
                            header.watermark, cpu);
    if (!post.ok()) SLASH_CHECK(lane->channel->broken());
  } else {
    std::memcpy(lane->staging.data(), &header, sizeof(header));
    const uint64_t len = sizeof(FrameHeader) + payload;
    if (lane->socket != nullptr) {
      co_await lane->socket->Send(s->node, lane->staging.data(), len, cpu);
    } else {
      // A managed runtime's exchange is queue-based even locally, with an
      // extra handoff between the producing operator and the network
      // stack's buffer pool.
      if (run->design.managed_runtime) cpu->Charge(Op::kQueueSync);
      lane->local->Push(std::vector<uint8_t>(lane->staging.begin(),
                                             lane->staging.begin() + len),
                        cpu);
    }
  }
  co_await cpu->Sync();
}

// --- Checkpoint assembly ---------------------------------------------------

void TryAssemble(RepartitionRun* run, int node) {
  NodeCkpt& nc = run->ckpt[node];
  ReplState* repl = run->repl[node];
  // Records round r's blob (each entity's part from `fresh`, else its
  // terminal part) and queues it for replication.
  const auto commit = [&](uint64_t r, const auto& fresh, bool terminal) {
    std::vector<uint8_t> blob;
    BlobWriter w(&blob);
    w.U64(r);
    w.U64(nc.entity_keys.size());
    for (int key : nc.entity_keys) {
      const auto it = fresh.find(key);
      w.Bytes(it != fresh.end() ? it->second : nc.terminal_parts.at(key));
    }
    run->coordinator->RecordLocal(node, r, std::move(blob));
    if (terminal) run->coordinator->MarkFinalFrom(node, r);
    nc.assembled = r;
    SLASH_CHECK(!repl->terminal);  // nothing follows the terminal round
    repl->rounds.push_back(r);
    repl->terminal = terminal;
    repl->event->Notify();
  };
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
    commit(r, rit->second, /*terminal=*/false);
    nc.parts.erase(rit);
  }
  // All entities drained: one terminal blob stands in for every later round.
  if (!nc.final_marked &&
      nc.terminal_parts.size() == nc.entity_keys.size()) {
    nc.final_marked = true;
    commit(nc.assembled + 1, std::map<int, std::vector<uint8_t>>{},
           /*terminal=*/true);
  }
}

void Contribute(RepartitionRun* run, int node, int entity_key, uint64_t round,
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

/// The sender's replay position: its flows' offsets at the cut.
std::vector<uint8_t> SenderPart(const SenderState& s) {
  std::vector<uint8_t> part;
  BlobWriter w(&part);
  w.U64(kSenderPart);
  w.U64(uint64_t(s.global_id));
  w.U64(s.mux->flow_count());
  for (size_t f = 0; f < s.mux->flow_count(); ++f) w.U64(s.mux->consumed(f));
  return part;
}

std::vector<uint8_t> ConsumerPart(ConsumerState* c) {
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
  // The sink keeps rows only when the job collects them.
  const std::vector<core::WindowResult>& rows = c->sink.rows();
  w.U64(rows.size());
  for (const core::WindowResult& row : rows) {
    w.I64(row.bucket);
    w.U64(row.key);
    w.I64(row.value);
  }
  return part;
}

/// Fast-forwards a fresh sender to the cut SenderPart recorded.
void RestoreSender(SenderState* s, const std::vector<uint8_t>& part) {
  BlobReader p(part.data(), part.size());
  p.U64();  // kind
  p.U64();  // gid
  for (size_t f = 0, nflows = p.U64(); f < nflows; ++f) {
    const uint64_t offset = p.U64();
    s->mux->SkipTo(f, offset);
    s->consumed_total += offset;
  }
}

/// Restores a fresh consumer to the cut ConsumerPart recorded.
void RestoreConsumer(ConsumerState* c, const std::vector<uint8_t>& part) {
  BlobReader p(part.data(), part.size());
  p.U64();  // kind
  p.U64();  // gid
  c->last_trigger_wm = p.I64();
  const std::vector<uint8_t> state = p.Bytes();
  if (!state.empty()) {
    const Status restored = c->partition->Restore(state.data(), state.size());
    SLASH_CHECK_MSG(restored.ok(), restored.message());
  }
  const uint64_t count = p.U64();
  const uint64_t checksum = p.U64();
  std::vector<core::WindowResult> rows(p.U64());
  for (core::WindowResult& row : rows) {
    row.bucket = p.I64();
    row.key = p.U64();
    row.value = p.I64();
  }
  c->sink.Restore(count, checksum, std::move(rows));
}

// --- Snapshot replication over sockets -------------------------------------

sim::Task Replicator(RepartitionRun* run, int node, ReplState* repl,
                     SocketConnection* socket, perf::CpuContext* cpu,
                     int attempt) {
  size_t cursor = 0;
  std::vector<uint8_t> staging;
  while (!run->Halted(attempt)) {
    while (cursor < repl->rounds.size()) {
      const uint64_t round = repl->rounds[cursor];
      const bool terminal =
          repl->terminal && cursor + 1 == repl->rounds.size();
      // The attempt is live (checked since the last suspension), so the
      // blob is still recorded; it is copied out before the send suspends.
      const std::vector<uint8_t>* blob = run->coordinator->BlobFor(node, round);
      SLASH_CHECK_MSG(blob != nullptr, "replicating a discarded blob: node "
                                           << node << " round " << round);
      staging.clear();
      BlobWriter w(&staging);
      w.U64(uint64_t(node));
      w.U64(round);
      w.U64(terminal ? 1 : 0);
      w.Bytes(*blob);
      co_await socket->Send(node, staging.data(), staging.size(), cpu);
      if (run->Halted(attempt)) co_return;
      ++cursor;
      if (terminal) co_return;  // nothing further will be queued
    }
    co_await cpu->Park(*repl->event);
  }
}

sim::Task ReplicaReceiver(RepartitionRun* run, int target,
                          SocketConnection* socket, perf::CpuContext* cpu,
                          int attempt) {
  std::vector<uint8_t> message;
  while (!run->Halted(attempt)) {
    bool terminal = false;
    while (socket->TryReceive(target, &message, cpu)) {
      BlobReader r(message.data(), message.size());
      const int src = int(r.U64());
      const uint64_t round = r.U64();
      terminal = r.U64() != 0;
      run->bytes_replicated->Add(r.U64());  // the blob's length prefix
      run->coordinator->RecordReplica(src, round, target);
      if (terminal) break;
    }
    if (terminal) co_return;
    co_await cpu->Park(socket->readable(target));
  }
}

// --- Data plane ------------------------------------------------------------

/// A sender thread: source -> stateless stages -> partition -> fan-out.
sim::Task Sender(RepartitionRun* run, SenderState* s) {
  const int attempt = s->attempt;
  perf::CpuContext* cpu = s->cpu.get();
  core::RecordPipeline pipeline(run->query, cpu, run->job.execution);
  const int total_consumers = run->consumers_total();
  const uint64_t interval = run->BarrierInterval();
  Record r;
  uint64_t batch = 0;
  bool more = s->mux->Next(&r);
  while (!run->Halted(attempt) && more) {
    ++run->records_in;
    ++s->consumed_total;
    cpu->CountRecords(1);
    const uint16_t wire_size = run->workload->wire_size(r.stream_id);
    cpu->ChargeBytes(Op::kSourceReadPerByte, wire_size);
    // Managed-runtime record handling: deserialization into objects,
    // virtual operator dispatch, serialization back into network buffers.
    if (run->design.managed_runtime) cpu->Charge(Op::kRuntimeOverhead);
    if (pipeline.Process(&r)) {
      // The costly part of the design: per-record destination selection
      // and the data-dependent write into the destination's fan-out
      // buffer.
      cpu->Charge(Op::kHashCompute);
      cpu->Charge(Op::kPartitionSelect);
      cpu->Charge(Op::kFanoutWrite);
      Lane* lane = &s->outbound[ConsumerOf(r.key, total_consumers)];
      if (lane->writer == nullptr) {
        co_await OpenLane(run, s, lane);
        if (lane->writer == nullptr) co_return;
      }
      if (!lane->writer->Append(r, wire_size)) {
        co_await FlushLane(run, s, lane, {.watermark = s->mux->watermark()});
        if (run->Abandoned(attempt)) co_return;
        // A fresh buffer always fits one record.
        co_await OpenLane(run, s, lane);
        if (lane->writer == nullptr) co_return;
        SLASH_CHECK(lane->writer->Append(r, wire_size));
      }
    }
    // Aligned checkpoint barrier: flush pending data on every lane, then
    // close the round on every lane and record the flow offsets of this
    // exact cut (the round's replay positions). The mux is read one record
    // at a time, so it holds exactly the cut's offsets and watermark.
    if (run->checkpointing() &&
        s->consumed_total >= s->next_barrier * interval) {
      const uint64_t round = s->next_barrier++;
      const int64_t wm = s->mux->watermark();
      for (Lane& lane : s->outbound) {
        co_await FlushLane(run, s, &lane, {.watermark = wm});
        if (run->Abandoned(attempt)) co_return;
      }
      for (Lane& lane : s->outbound) {
        if (run->tracer != nullptr) {
          run->tracer->Instant(run->sim.now(), run->trace_barrier,
                               run->trace_cat, s->node, obs::kTrackEngine);
        }
        co_await FlushLane(run, s, &lane,
                           {.watermark = wm, .barrier = round});
        if (run->Abandoned(attempt)) co_return;
      }
      Contribute(run, s->node, s->global_id, round, SenderPart(*s),
                 /*terminal=*/false);
    }
    if (++batch >= kSourceBatch) {
      batch = 0;
      co_await cpu->Sync();
    }
    if (run->Halted(attempt)) break;
    more = s->mux->Next(&r);
  }
  if (run->Halted(attempt)) co_return;
  // Drain every lane, then mark end-of-stream to every consumer.
  for (Lane& lane : s->outbound) {
    co_await FlushLane(run, s, &lane, {.watermark = s->mux->watermark()});
    if (run->Abandoned(attempt)) co_return;
  }
  for (Lane& lane : s->outbound) {
    co_await FlushLane(run, s, &lane,
                       {.watermark = core::kWatermarkMax, .final_marker = 1});
    if (run->Abandoned(attempt)) co_return;
  }
  if (run->checkpointing()) {
    Contribute(run, s->node, s->global_id, /*round=*/0, SenderPart(*s),
               /*terminal=*/true);
  }
  co_await cpu->Sync();
}

/// Applies one frame's records to the consumer's co-partitioned state and
/// returns the barrier round it closed (0 for data and final frames).
uint64_t ApplyFrame(RepartitionRun* run, ConsumerState* c,
                    const uint8_t* records, uint64_t len,
                    const FrameHeader& header, int sender) {
  perf::CpuContext* cpu = c->cpu.get();
  core::RecordReader reader(records, len);
  Record r;
  uint8_t wire_buf[512];
  while (reader.Next(&r)) {
    cpu->CountRecords(1);
    cpu->Charge(Op::kRecordParse);
    cpu->Charge(Op::kDmaColdRead);
    if (run->design.managed_runtime) cpu->Charge(Op::kRuntimeOverhead);
    cpu->Charge(Op::kWindowAssign);
    cpu->Charge(Op::kIndexProbe);
    const int64_t bucket = run->query->window.BucketOf(r.timestamp);
    if (run->query->is_join()) {
      const uint16_t wire_size = run->workload->wire_size(r.stream_id);
      SLASH_CHECK_LE(size_t{wire_size}, sizeof(wire_buf));
      SerializeWireRecord(r, wire_size, wire_buf);
      cpu->Charge(Op::kStateAppend);
      cpu->ChargeBytes(Op::kBufferCopyPerByte, wire_size);
      c->partition->Append({r.key, bucket}, r.stream_id, wire_buf,
                           wire_size);
    } else {
      cpu->Charge(Op::kStateRmw);
      c->partition->UpdateAggregate({r.key, bucket}, r.value);
    }
  }
  c->sender_wm[sender] = std::max(c->sender_wm[sender], header.watermark);
  if (header.final_marker != 0 && !c->sender_final[sender]) {
    c->sender_final[sender] = true;
    c->sender_wm[sender] = core::kWatermarkMax;
    ++c->finals;
  }
  return header.barrier;
}

/// Receives and applies `lane`'s next frame, if one arrived; `frame` is the
/// receive buffer of socket and local lanes. Sets `*barrier` to the round a
/// barrier frame closed.
bool PollLane(RepartitionRun* run, ConsumerState* c, Lane* lane,
              std::vector<uint8_t>* frame, uint64_t* barrier) {
  perf::CpuContext* cpu = c->cpu.get();
  if (lane->channel != nullptr) {
    InboundBuffer buffer;
    if (!lane->channel->TryPoll(&buffer, cpu)) return false;
    run->latency->Record(run->sim.now() - buffer.send_time);
    *barrier = ApplyFrame(run, c, buffer.payload, buffer.payload_len,
                          {.watermark = buffer.watermark,
                           .final_marker = buffer.user_tag},
                          lane->sender);
    SLASH_CHECK(lane->channel->Release(buffer, cpu).ok());
    return true;
  }
  if (lane->socket != nullptr) {
    if (!lane->socket->TryReceive(c->node, frame, cpu)) return false;
    // Handoff from the dedicated network thread to the processing thread
    // through a software queue.
    if (run->design.managed_runtime) cpu->Charge(Op::kQueueSync);
  } else if (!lane->local->TryPop(frame, cpu)) {
    return false;
  }
  SLASH_CHECK_GE(frame->size(), sizeof(FrameHeader));
  FrameHeader header;
  std::memcpy(&header, frame->data(), sizeof(header));
  *barrier = ApplyFrame(run, c, frame->data() + sizeof(header),
                        frame->size() - sizeof(header), header, lane->sender);
  return true;
}

/// Completes checkpoint round rounds_complete+1 once every lane has either
/// delivered its barrier or gone final: force a trigger at the aligned
/// watermark (deterministic — it only depends on the cut), then snapshot.
void MaybeCompleteRound(RepartitionRun* run, ConsumerState* c) {
  if (!run->checkpointing() || run->failed) return;
  for (;;) {
    const uint64_t r = c->rounds_complete + 1;
    bool all = true;
    bool any_barrier = false;
    for (const Lane* lane : c->inbound) {
      if (c->sender_final[lane->sender]) continue;
      if (lane->barrier_seen < r) {
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
               ConsumerPart(c), /*terminal=*/false);
    c->rounds_complete = r;
  }
}

/// A receiver thread: polls its inbound lanes, updates co-partitioned
/// state, and triggers windows on its watermark.
sim::Task Receiver(RepartitionRun* run, ConsumerState* c) {
  const int attempt = c->attempt;
  perf::CpuContext* cpu = c->cpu.get();
  const int total_senders = run->senders_total();
  std::vector<uint8_t> frame;
  while (!run->Halted(attempt) && c->finals < total_senders) {
    bool progressed = false;
    for (Lane* lane : c->inbound) {
      // Barrier alignment: a lane that already closed the next round is
      // not drained until every other lane catches up (its post-barrier
      // frames belong to the next checkpoint interval).
      if (run->checkpointing() && !c->sender_final[lane->sender] &&
          lane->barrier_seen > c->rounds_complete) {
        continue;
      }
      uint64_t barrier = 0;
      while (barrier == 0 && PollLane(run, c, lane, &frame, &barrier)) {
        progressed = true;
      }
      if (barrier != 0) lane->barrier_seen = barrier;
    }
    if (run->Halted(attempt)) break;
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
      co_await cpu->Park(*c->arrivals);
    }
  }
  if (run->Abandoned(attempt)) co_return;
  // An aborted receiver skips the final trigger: partial windows would
  // pollute the result digest.
  if (!run->Halted(attempt)) {
    TriggerWindows(*run->query, c->Watermark(), c->partition.get(), &c->sink,
                   cpu, &c->last_trigger_wm);
    if (run->checkpointing()) {
      Contribute(run, c->node, run->senders_total() + c->global_id,
                 /*round=*/0, ConsumerPart(c), /*terminal=*/true);
    }
  }
  co_await cpu->Sync();
}

// --- Crash recovery --------------------------------------------------------

void OnNodeCrash(RepartitionRun* run, int node) {
  if (run->failed) return;
  if (!run->checkpointing()) {
    FailRun(run, Status::Unavailable(
                     "node " + std::to_string(node) +
                     " crashed and checkpointing is disabled; aborting"));
    return;
  }
  if (run->recovering()) {
    FailRun(run, Status::Unavailable(
                     "node " + std::to_string(node) +
                     " crashed while a recovery was already in flight"));
    return;
  }
  run->membership.Apply(node, NodeEvent::kCrash);
  const int live = run->membership.live_count();
  if (live == 0) {
    FailRun(run, Status::Unavailable("last node crashed: no survivors"));
    return;
  }
  run->recoveries->Add(1);
  ++run->attempt;
  run->recovery_start = run->sim.now();
  run->records_at_crash = run->records_in;
  if (run->tracer != nullptr) {
    run->tracer->Begin(run->sim.now(), run->trace_recovery, run->trace_cat,
                       node, obs::kTrackRecovery);
  }

  // Tear the whole attempt down: window-blocked senders and parked
  // receivers wake, observe the attempt bump, and unwind. Survivors'
  // in-flight exchanges are ahead of the rollback point anyway.
  Wake(run, run->current);

  // Roll every task back to the latest round with a live copy of every
  // node's blob; the dead node's entities restart on an heir holding its
  // replica.
  const std::vector<bool>& alive = run->membership.alive_mask();
  const uint64_t round = run->coordinator->LatestRecoverableRound(alive);
  const int heir = run->coordinator->Heir(node, round, alive);
  run->coordinator->DiscardRoundsAfter(round);
  for (int& n : run->sender_node) {
    if (n == node) n = heir;
  }
  for (int& n : run->consumer_node) {
    if (n == node) n = heir;
  }

  const uint64_t restore_bytes = run->coordinator->RestoreBytes(round);
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
    run->recovery_ns->Add(uint64_t(run->sim.now() - run->recovery_start));
    if (run->tracer != nullptr) {
      run->tracer->End(run->sim.now(), run->trace_recovery, run->trace_cat,
                       node, obs::kTrackRecovery);
    }
    BuildAttempt(run, round);
  });
}

/// Builds one attempt's task graph: fresh sender/consumer entities (stable
/// global ids, nodes per the current placement), exchange lanes, and
/// replication pairs; restores entity state from the round-`round` blobs
/// (round 0 = fresh start).
void BuildAttempt(RepartitionRun* run, uint64_t round) {
  const ClusterConfig& cluster = run->cluster;
  const JobConfig& job = run->job;
  const int attempt = run->attempt;
  run->current = {.sockets = run->sockets.size(),
                  .channels = run->channels.size(),
                  .senders = run->senders.size(),
                  .consumers = run->consumers.size(),
                  .repl = run->repl_storage.size()};

  // Every entity's round-`round` part, keyed like NodeCkpt::entity_keys,
  // from the blobs of every node that was ever primary, including a
  // just-dead one (its heir restores the replica). Nodes retired by
  // *earlier* recoveries have no usable blobs — their entities were folded
  // into their heir's blobs.
  std::map<int, std::vector<uint8_t>> parts;
  for (int n = 0; round >= 1 && n < cluster.nodes; ++n) {
    if (run->coordinator->retired(n)) continue;
    const std::vector<uint8_t>* blob = run->coordinator->BlobFor(n, round);
    SLASH_CHECK_MSG(blob != nullptr, "no restorable blob for node "
                                         << n << " at round " << round);
    BlobReader r(blob->data(), blob->size());
    r.U64();  // stored round (may predate `round` for terminal blobs)
    for (uint64_t i = r.U64(); i > 0; --i) {
      std::vector<uint8_t> part = r.Bytes();
      BlobReader p(part.data(), part.size());
      const uint64_t kind = p.U64();
      const int gid = int(p.U64());
      parts[kind == kSenderPart ? gid : run->senders_total() + gid] =
          std::move(part);
    }
  }

  if (run->checkpointing()) {
    // Fresh per-node checkpoint accumulators for this attempt's placement,
    // and a replication queue per live node.
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
    for (int n = 0; n < cluster.nodes; ++n) {
      if (!run->membership.alive(n)) continue;
      auto rs = std::make_unique<ReplState>();
      rs->event = std::make_unique<sim::Event>(&run->sim);
      run->repl[n] = rs.get();
      run->repl_storage.push_back(std::move(rs));
    }
  }

  // Consumers (stable gids; heir placement after a crash).
  for (int gid = 0; gid < run->consumers_total(); ++gid) {
    auto c = std::make_unique<ConsumerState>();
    c->global_id = gid;
    c->node = run->consumer_node[gid];
    c->attempt = attempt;
    c->cpu = std::make_unique<perf::CpuContext>(
        &run->sim, &perf::CostModel::Default(), cluster.cpu_ghz);
    c->partition = std::make_unique<state::Partition>(gid, run->pcfg);
    c->sink = core::ResultSink(job.collect_rows);
    c->arrivals = std::make_unique<sim::Event>(&run->sim);
    c->rounds_complete = round;
    const auto part = parts.find(run->senders_total() + gid);
    if (part != parts.end()) RestoreConsumer(c.get(), part->second);
    c->sender_wm.assign(size_t(run->senders_total()), core::kWatermarkMin);
    c->sender_final.assign(size_t(run->senders_total()), false);
    run->consumers.push_back(std::move(c));
  }

  // Senders, each with one lane per consumer. Flow ids derive from the
  // sender's *home* decomposition so a replay re-reads exactly the flows
  // the dead node owned.
  const int flows_per_sender = cluster.workers_per_node / run->senders_per_node;
  const int total_flows = cluster.nodes * cluster.workers_per_node;
  uint64_t restored_records = 0;
  for (int gid = 0; gid < run->senders_total(); ++gid) {
    auto s = std::make_unique<SenderState>();
    s->global_id = gid;
    s->node = run->sender_node[gid];
    s->attempt = attempt;
    s->next_barrier = round + 1;
    s->cpu = std::make_unique<perf::CpuContext>(
        &run->sim, &perf::CostModel::Default(), cluster.cpu_ghz);
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
    const auto part = parts.find(gid);
    if (part != parts.end()) RestoreSender(s.get(), part->second);
    restored_records += s->consumed_total;
    s->outbound.resize(size_t(run->consumers_total()));
    for (int cgid = 0; cgid < run->consumers_total(); ++cgid) {
      ConsumerState* c =
          run->consumers[run->current.consumers + size_t(cgid)].get();
      Lane& lane = s->outbound[cgid];
      lane.sender = gid;
      lane.barrier_seen = round;
      if (c->node == s->node) {
        run->local_queues.push_back(
            std::make_unique<LocalQueue>(c->arrivals.get()));
        lane.local = run->local_queues.back().get();
      } else if (run->design.remote == RemoteTransport::kRdmaChannel) {
        auto ch = RdmaChannel::Create(run->fabric, s->node, c->node,
                                      job.channel);
        ch->AddDataObserver(c->arrivals.get());
        ch->SetCloseHandler(
            [run](const Status& cause) { FailRun(run, cause); });
        lane.channel = ch.get();
        run->channels.push_back(std::move(ch));
      } else {
        auto socket = std::make_unique<SocketConnection>(
            run->fabric, s->node, c->node, cluster.socket);
        socket->AddReadableObserver(c->node, c->arrivals.get());
        lane.socket = socket.get();
        run->sockets.push_back(std::move(socket));
      }
      c->inbound.push_back(&lane);
    }
    run->senders.push_back(std::move(s));
  }

  // Replication pairs: each live node ships its blobs to the next
  // replication_factor live nodes (cyclically).
  if (run->checkpointing()) {
    std::vector<int> live_nodes;
    for (int n = 0; n < cluster.nodes; ++n) {
      if (run->membership.alive(n)) live_nodes.push_back(n);
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
            &run->sim, &perf::CostModel::Default(), cluster.cpu_ghz);
        auto recv_cpu = std::make_unique<perf::CpuContext>(
            &run->sim, &perf::CostModel::Default(), cluster.cpu_ghz);
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
    run->records_replayed->Add(run->records_at_crash - restored_records);
    run->records_in = restored_records;
    run->coordinator->RetireDead(run->membership.alive_mask(), round);
  }

  for (size_t i = run->current.senders; i < run->senders.size(); ++i) {
    run->sim.Spawn(Sender(run, run->senders[i].get()));
  }
  for (size_t i = run->current.consumers; i < run->consumers.size(); ++i) {
    run->sim.Spawn(Receiver(run, run->consumers[i].get()));
  }
}

}  // namespace

RunStats RunRepartition(const JobSpec& spec, const EngineSupport& support,
                        const RepartitionDesign& design) {
  RunStats stats;
  stats.engine = std::string(support.engine);
  if (spec.sources == nullptr) {
    stats.status = Status::InvalidArgument("JobSpec has no workload (sources)");
    return stats;
  }
  stats.status = CheckUntenanted(spec, support.engine);
  if (!stats.ok()) return stats;
  const ClusterConfig& cluster = spec.cluster;
  const JobConfig& job = spec.config;
  SLASH_CHECK_MSG(cluster.workers_per_node >= 2,
                  "re-partitioning engines need at least one sender and one "
                  "receiver per node");
  auto runtime =
      ClusterRuntime::Create(cluster, cluster.nodes, support, job.tracer);
  if (!runtime.ok()) {
    stats.status = runtime.status();
    return stats;
  }
  ClusterRuntime& rt = **runtime;
  obs::MetricsRegistry& registry = rt.registry();
  const core::QuerySpec query = spec.sources->MakeQuery();
  RepartitionRun run(design, *rt.sim(), rt.fabric(), cluster.nodes);
  run.query = &query;
  run.workload = spec.sources;
  run.cluster = cluster;
  run.job = job;
  run.senders_per_node = cluster.workers_per_node / 2;
  run.receivers_per_node = cluster.workers_per_node - run.senders_per_node;
  run.pcfg.kind = query.is_join() ? state::StateKind::kAppend
                                  : state::StateKind::kAggregate;
  run.pcfg.lss_capacity = job.state_lss_capacity;
  run.pcfg.index_buckets = job.state_index_buckets;
  // A transfer latency exists only where a channel slot stamps it.
  if (design.remote == RemoteTransport::kRdmaChannel) {
    run.latency = registry.GetHistogram(obs::metric::kTransferLatencyNs);
  }
  run.tracer = run.sim.tracer();
  if (run.tracer != nullptr) {
    if (design.recovery) {
      run.trace_barrier = run.tracer->Intern("engine.barrier");
    }
    run.trace_window = run.tracer->Intern("engine.window_fire");
    if (design.recovery) run.trace_recovery = run.tracer->Intern("recovery");
    run.trace_cat = run.tracer->Intern(design.trace_category);
  }
  if (design.recovery) {
    run.fabric->SetNodeCrashHandler(
        [run_ptr = &run](int node) { OnNodeCrash(run_ptr, node); });
    run.coordinator = std::make_unique<RecoveryCoordinator>(
        cluster.nodes, registry.GetCounter(obs::metric::kCheckpointsTaken));
    run.recoveries = registry.GetCounter(obs::metric::kRecoveries);
    run.recovery_ns = registry.GetCounter(obs::metric::kRecoveryNs);
    run.records_replayed = registry.GetCounter(obs::metric::kRecordsReplayed);
    run.bytes_replicated =
        registry.GetCounter(obs::metric::kCheckpointBytesReplicated);
  }
  for (int s = 0; s < run.senders_total(); ++s) {
    run.sender_node.push_back(s / run.senders_per_node);
  }
  for (int c = 0; c < run.consumers_total(); ++c) {
    run.consumer_node.push_back(c / run.receivers_per_node);
  }

  BuildAttempt(&run, /*round=*/0);

  rt.Run(&stats);
  stats.status = run.failed ? run.failure : Status::OK();
  // Channel retries and NIC tx bytes were published live.
  if (design.remote == RemoteTransport::kRdmaChannel && !run.failed) {
    uint64_t credits = 0;
    for (auto& ch : run.channels) credits += ch->credits_outstanding();
    registry.GetCounter(obs::metric::kChannelCreditsOutstanding)
        ->Add(credits);
  }
  registry.GetCounter(obs::metric::kRecordsIn)->Add(run.records_in);
  // Results come from the surviving attempt's consumers only; CPU counters
  // accumulate across every attempt — a torn-down attempt still burned the
  // cycles.
  obs::Counter* emitted = registry.GetCounter(obs::metric::kRecordsEmitted);
  obs::Counter* checksum = registry.GetCounter(obs::metric::kResultChecksum);
  for (size_t i = run.current.consumers; i < run.consumers.size(); ++i) {
    const ConsumerState* c = run.consumers[i].get();
    emitted->Add(c->sink.count());
    checksum->Add(c->sink.checksum());
    stats.rows.insert(stats.rows.end(), c->sink.rows().begin(),
                      c->sink.rows().end());
  }
  perf::Counters* senders =
      registry.GetCpu(obs::metric::kCpu, {{obs::kLabelRole, "sender"}});
  for (auto& s : run.senders) senders->Merge(s->cpu->counters());
  perf::Counters* receivers =
      registry.GetCpu(obs::metric::kCpu, {{obs::kLabelRole, "receiver"}});
  for (auto& c : run.consumers) receivers->Merge(c->cpu->counters());
  if (!run.repl_cpus.empty()) {
    perf::Counters* replication =
        registry.GetCpu(obs::metric::kCpu, {{obs::kLabelRole, "replication"}});
    for (auto& cpu : run.repl_cpus) replication->Merge(cpu->counters());
  }
  rt.Finish(&stats);
  return stats;
}

}  // namespace slash::engines
