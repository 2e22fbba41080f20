// The RDMA Channel: Slash's data channel for streaming records between
// nodes at line rate (paper Sec. 6).
//
// An RDMA channel connects one producer to one consumer through an
// RDMA-shared circular queue with credit-based flow control (CFC):
//
//   * Setup phase: both sides allocate a circular queue of `c` fixed-size
//     RDMA-capable slots of `m` bytes and connect a reliable QP.
//   * Transfer phase: the producer (1) acquires the next free local slot
//     and fills it, (2) posts one RDMA WRITE of the whole slot into the
//     consumer's mirror slot (the wire carries all `m` bytes; only the
//     payload and the footer land, see rdma::UnreadRange), (3) waits for
//     credit when none remain. The consumer (1) polls the footer of the
//     next expected slot, (2) marks the buffer for processing, (3) returns
//     a credit after processing.
//
// Design choices from Sec. 6.3, reproduced here:
//   * Flat memory layout: the queue is one contiguous region of c*m bytes;
//     payload and footer are contiguous inside a slot, so one WRITE moves
//     both (no pointer chasing, single request per message).
//   * Push-based transfer via RDMA WRITE: one network trip per message and
//     the consumer polls *local* memory. (A READ-based pull variant exists
//     for the ablation study: every poll crosses the network.)
//   * Footer polling: the footer sits at the fixed tail of the slot and is
//     written last (RDMA WRITE fills memory from lower to higher
//     addresses), so observing the footer guarantees the payload is fully
//     visible. The footer carries a wrapping sequence number, so slots
//     never need to be scrubbed between rounds.
//
// Credits return as a cumulative count: the consumer RDMA-WRITEs its total
// number of released buffers into a small counter region on the producer,
// which computes available credits as `c - (sent - released)`. A cumulative
// ack is idempotent and naturally coalesces.
//
// Fault tolerance: all channel writes are unsignaled, but error completions
// are always delivered (RC semantics), so a lost or flushed transfer
// surfaces on the owning QP's send CQ. The channel intercepts those
// completions and transparently re-posts the transfer with exponential
// backoff in virtual time (slots are never reused before their credit
// returns, so the bytes are still intact; cumulative credit writes are
// idempotent). After ChannelConfig::max_retries consecutive failures of one
// transfer the channel closes cleanly: posts return kUnavailable, both
// sides' events fire, and the close handler reports the terminal Status.
// Everything is scheduled on the DES clock, so recovery behavior replays
// deterministically under a fixed sim::FaultPlan.
#ifndef SLASH_CHANNEL_RDMA_CHANNEL_H_
#define SLASH_CHANNEL_RDMA_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "perf/cost_model.h"
#include "rdma/fabric.h"
#include "sim/simulator.h"

namespace slash::obs {
class Counter;
class Tracer;
}  // namespace slash::obs

namespace slash::channel {

/// A per-tenant cap on NIC credits in flight across every channel of one
/// job (multi-tenant execution, DESIGN.md §12). Each TryAcquire charges one
/// unit; the unit returns when the slot's credit is acked back to the
/// producer (or the channel closes). A producer denied by the quota parks
/// exactly like one that is out of channel credits; registered observers
/// are notified on every Release so parked parties re-check.
///
/// The quota is engine-owned and outlives every channel that references it.
class CreditQuota {
 public:
  /// `denials` is the job's channel.quota_denials registry counter.
  CreditQuota(uint32_t limit, obs::Counter* denials)
      : limit_(limit), denials_(denials) {}

  CreditQuota(const CreditQuota&) = delete;
  CreditQuota& operator=(const CreditQuota&) = delete;

  /// Charges one credit if the tenant is under its limit; counts a denial
  /// and returns false otherwise.
  bool TryCharge() {
    if (in_flight_ >= limit_) {
      denials_->Add(1);
      return false;
    }
    ++in_flight_;
    return true;
  }

  /// Returns `n` charged credits and wakes every observer.
  void Release(uint64_t n) {
    in_flight_ -= (n < in_flight_) ? n : in_flight_;
    for (sim::Event* observer : observers_) observer->Notify();
  }

  /// Registers an event notified on every Release. Observers must outlive
  /// the quota's last Release (engine-owned events do).
  void AddObserver(sim::Event* event) { observers_.push_back(event); }

  uint32_t limit() const { return limit_; }
  uint64_t in_flight() const { return in_flight_; }

 private:
  uint32_t limit_;
  uint64_t in_flight_ = 0;
  obs::Counter* denials_;
  std::vector<sim::Event*> observers_;
};

/// Backoff before a channel's first re-post of a failed transfer; each
/// further attempt doubles it (ChannelConfig::max_retries).
inline constexpr Nanos kRetryBackoffBase = 8 * kMicrosecond;

/// Channel sizing parameters. The paper's best configuration is c = 8
/// credits with 32-64 KiB buffers (Sec. 8.3.2).
struct ChannelConfig {
  uint32_t credits = 8;
  uint64_t slot_bytes = 64 * kKiB;  // includes the footer

  /// Fault recovery: how many times a failed transfer (error completion
  /// from the QP) is re-posted before the channel is declared broken and
  /// closed. Retries back off exponentially in virtual time:
  /// kRetryBackoffBase, 2x, 4x, ... per attempt. Retry is transparent —
  /// slots are re-posted from the producer staging queue, which is never
  /// reused before its credit returns, so payloads are still intact.
  uint32_t max_retries = 10;

  /// Upstream replay buffer: when > 0, the producer counts every posted
  /// message as retained until the consumer acknowledges a checkpoint
  /// covering it (MarkCheckpoint()). The buffer is bounded: once
  /// `replay_buffer_slots` messages are retained, TryAcquire back-pressures
  /// the producer until the next checkpoint resets the count. No payload
  /// is copied: the replay itself re-runs the deterministic generators
  /// (DESIGN.md §7), so the bound is the buffer's only observable effect.
  /// 0 disables retention. Only enable on channels whose consumer actually
  /// checkpoints, or the producer wedges permanently once the bound is hit.
  uint32_t replay_buffer_slots = 0;

  // --- Verbs-level batching (both opt-in; the defaults keep the channel
  // byte-identical to the unbatched protocol, including its cost-model
  // charge sequence) -------------------------------------------------------

  /// Doorbell batching: when > 1, Post() builds the work request
  /// (kRdmaWqeBuild) and queues it instead of ringing the doorbell; the
  /// doorbell (kRdmaDoorbell) rings once per Flush() — automatic when
  /// `post_batch` WRs are queued or the producer runs out of credits,
  /// explicit via Flush(). Amortizes the MMIO cost over the batch. Flush
  /// additionally coalesces queued WRITEs to adjacent ring slots into one
  /// spanning WRITE (the flat layout makes consecutive slots contiguous on
  /// both sides), so a full batch of small slots pays one per-message NIC
  /// overhead instead of `post_batch` — the main reason batching wins at
  /// small buffer sizes. Message order and delivery semantics are
  /// unchanged. Producers that can go idle must Flush() before parking, or
  /// queued messages never leave.
  uint32_t post_batch = 1;

  /// Inline-send fast path: a coalesced WRITE whose wire size (run length
  /// x slot_bytes) is <= this is posted inline — the payload is copied
  /// into the WQE at Flush() (kRdmaInlineCopyPerByte per byte) and the NIC
  /// skips the payload DMA fetch (NicConfig::inline_overhead_discount).
  /// 0 disables. Setting either batching knob switches Post() to the
  /// decomposed build+doorbell charging even at post_batch = 1.
  uint32_t inline_threshold = 0;

  // --- Multi-tenant execution (engines/job.h) ------------------------------

  /// Per-tenant NIC-credit quota shared by every channel of one job, or
  /// nullptr (no quota — the single-job default, byte-identical to the
  /// pre-quota protocol). Non-owning; the engine owns the quota.
  CreditQuota* quota = nullptr;

  /// Tenant carried by this channel. When non-empty the channel's obs
  /// counters are labeled {tenant=...} so multi-job snapshots split per
  /// job; empty (the default) keeps the unlabeled instruments and hence
  /// byte-identical single-job snapshots.
  std::string tenant;
};

/// Slot footer, stored in the last kFooterBytes of every slot and written
/// (conceptually) last. `seq` is the 1-based message sequence number for
/// this slot's queue position; a consumer expecting round r polls for
/// seq == r. `user_tag` and `watermark` let engines piggyback metadata
/// (e.g. epoch ids and event-time watermarks) for free.
struct SlotFooter {
  uint32_t payload_len = 0;
  uint32_t seq = 0;
  uint64_t user_tag = 0;
  int64_t watermark = 0;
  Nanos send_time = 0;  // producer acquire time, for latency accounting
};

inline constexpr uint64_t kFooterBytes = sizeof(SlotFooter);

/// A writable slot handed to the producer.
struct SlotRef {
  uint8_t* payload = nullptr;   // fill up to `capacity` bytes
  uint64_t capacity = 0;
  uint32_t slot_index = 0;
  Nanos acquire_time = 0;
};

/// A received buffer handed to the consumer (points into the consumer's
/// queue memory: zero-copy). Must be released to return the credit.
struct InboundBuffer {
  const uint8_t* payload = nullptr;
  uint64_t payload_len = 0;
  uint64_t user_tag = 0;
  int64_t watermark = 0;
  Nanos send_time = 0;
  uint32_t slot_index = 0;
};

/// A unidirectional producer->consumer RDMA channel.
///
/// The producer-side API (TryAcquire/Post/credit_event) must only be used
/// from coroutines of the producer node, the consumer-side API
/// (TryPoll/Release/data_event) only from the consumer node. All CPU costs
/// are charged to the CpuContext passed per call.
///
/// Connection scaling: the channel posts through a fabric Flow, not raw
/// QPs, so how its traffic maps onto physical connections is decided by
/// FabricConfig::connection (rdma/srq.h) — a dedicated QP pair in the
/// default full-mesh mode, shared per-node endpoints in the SRQ/shared
/// modes. The protocol (and its determinism) is mode-independent: flows
/// keep per-flow FIFO ordering and route completions back here even on a
/// shared CQ.
class RdmaChannel {
 public:
  /// Creates a channel: registers both circular queues and the credit
  /// counter, and opens the flow.
  static std::unique_ptr<RdmaChannel> Create(rdma::Fabric* fabric,
                                             int producer_node,
                                             int consumer_node,
                                             const ChannelConfig& config);

  RdmaChannel(const RdmaChannel&) = delete;
  RdmaChannel& operator=(const RdmaChannel&) = delete;

  int producer_node() const { return producer_node_; }
  int consumer_node() const { return consumer_node_; }
  const ChannelConfig& config() const { return config_; }

  /// Usable payload bytes per slot.
  uint64_t payload_capacity() const {
    return config_.slot_bytes - kFooterBytes;
  }

  // --- Producer side -------------------------------------------------------

  /// Acquires the next slot if a credit is available. Returns false when
  /// the producer must wait (then: co_await cpu->Park(credit_event())).
  bool TryAcquire(SlotRef* out, perf::CpuContext* cpu);

  /// Publishes `payload_len` bytes of the acquired slot to the consumer as
  /// one RDMA WRITE of the whole fixed-size slot, whose unused payload area
  /// is marked unread (rdma::UnreadRange). Consumes one credit. Slots must
  /// be posted in acquisition order.
  Status Post(const SlotRef& slot, uint64_t payload_len, uint64_t user_tag,
              int64_t watermark, perf::CpuContext* cpu);

  /// Rings the doorbell for every queued work request (doorbell batching;
  /// no-op when nothing is queued). Charges one kRdmaDoorbell and posts
  /// the WRs in order as coalesced WRITEs: each run of adjacent ring slots
  /// goes as one spanning WRITE, inline when it fits inline_threshold.
  /// Producers must call this before parking (end of input, waiting on
  /// something other than credits) so queued messages drain.
  Status Flush(perf::CpuContext* cpu);

  /// Work requests built but not yet doorbelled (doorbell batching).
  size_t pending_posts() const { return pending_.size(); }

  /// True when at least one credit is available.
  bool has_credit() const;

  /// Notified when credits return from the consumer.
  sim::Event& credit_event() { return credit_event_; }

  /// Registers an additional event notified when credits return (lets a
  /// producer park on one event across many channels and other conditions).
  void AddCreditObserver(sim::Event* event) {
    credit_observers_.push_back(event);
  }

  /// Messages posted so far.
  uint64_t sent_count() const { return sent_count_; }

  // --- Upstream replay buffer ----------------------------------------------

  /// Messages posted since the last MarkCheckpoint: the replay buffer's
  /// occupancy. Only the count is kept — recovery regenerates lost input
  /// from the deterministic sources, so no payload copy is ever read back.
  uint64_t retained() const { return retained_; }

  /// Consumer-side checkpoint acknowledgement: everything posted so far is
  /// covered by a durable checkpoint, so the retained count drops to 0.
  /// Wakes producers blocked on the replay-buffer bound.
  void MarkCheckpoint();

  // --- Fault handling ------------------------------------------------------

  /// True once the channel has been closed by the retry machinery: a
  /// transfer failed more than max_retries times (dead link / unrecovered
  /// QP). A broken channel rejects new posts with kUnavailable, stops
  /// retrying, and has notified both sides' events plus the close handler.
  bool broken() const { return broken_; }

  /// OK while healthy; the terminal error after close.
  const Status& channel_status() const { return channel_status_; }

  /// Registers a callback invoked exactly once if the channel closes
  /// permanently. Engines use it to fail the run gracefully (abort with a
  /// Status instead of deadlocking or CHECK-crashing).
  void SetCloseHandler(std::function<void(const Status&)> handler) {
    close_handler_ = std::move(handler);
  }

  /// Transfers re-posted after an error completion (transparent recovery).
  uint64_t retries() const { return retries_; }

  /// The fabric flow carrying this channel (tests: QP accounting and
  /// targeted fault injection on the underlying endpoints).
  rdma::Flow* flow() const { return flow_; }

  /// Closes the channel immediately with `cause` (e.g. the peer node
  /// crashed). Equivalent to the retry machinery exhausting its budget:
  /// both sides' events fire, posts fail with kUnavailable, and later
  /// error completions are swallowed instead of spawning retries. The
  /// channel is dead for good, so its staging and queue rings go back to
  /// the OS (MemoryRegion::Discard); a WRITE still in flight lands in
  /// zeroed pages nobody reads.
  void Abort(const Status& cause);

  /// Credits currently held by the producer side: acquired slots whose
  /// release has not yet become visible. Zero after a fully drained run —
  /// the endurance tests assert this to prove no credit leaks under faults.
  uint64_t credits_outstanding() const {
    return acquired_count_ - released_acked();
  }

  // --- Consumer side -------------------------------------------------------

  /// Polls the next expected slot's footer. On success fills `out` (which
  /// points into channel memory) and marks the buffer as in-processing.
  /// On failure charges one pause-loop iteration.
  bool TryPoll(InboundBuffer* out, perf::CpuContext* cpu);

  /// Finishes processing a polled buffer and returns its credit to the
  /// producer (one small RDMA WRITE of the cumulative release counter).
  Status Release(const InboundBuffer& buffer, perf::CpuContext* cpu);

  /// Notified when a new buffer lands in the consumer queue.
  sim::Event& data_event() { return data_event_; }

  /// Registers an additional event notified on buffer arrival. Lets one
  /// consumer coroutine park on a single event while polling many channels
  /// (the fan-in pattern of re-partitioning receivers and SSB leaders).
  void AddDataObserver(sim::Event* event) { data_observers_.push_back(event); }

  /// Messages fully received (polled) so far.
  uint64_t received_count() const { return received_count_; }

 private:
  RdmaChannel(rdma::Fabric* fabric, int producer_node, int consumer_node,
              const ChannelConfig& config);

  uint64_t SlotOffset(uint32_t slot) const {
    return uint64_t(slot) * config_.slot_bytes;
  }
  uint64_t FooterOffset(uint32_t slot) const {
    return SlotOffset(slot) + config_.slot_bytes - kFooterBytes;
  }
  uint64_t released_acked() const;  // producer-visible cumulative releases

  // The unread range of a slot WRITE covering `run` ring slots from
  // `first`: the unused payload area of its last slot, read back from that
  // slot's staged footer. The consumer reads only a slot's payload and
  // footer, so these bytes need not land; an earlier slot's padding in a
  // coalesced run is copied, which keeps one range per WRITE.
  rdma::UnreadRange UnusedPayload(uint32_t first, uint32_t run) const;

  // Work-request id encoding: wr_id = message_number * 4 + kind. The kind
  // tells the retry machinery what to re-post when a completion comes back
  // with an error status; the message number locates the slot (and hence
  // the still-intact bytes) in the staging queue. Kinds 1 and 2 are unused;
  // kWrCredit keeps its value so no wr_id changes.
  enum WrKind : uint64_t {
    kWrSlot = 0,    // Post(): one write of the whole slot
    kWrCredit = 3,  // Release(): cumulative credit-counter write
  };
  static uint64_t MakeWrId(uint64_t msg, WrKind kind) {
    return msg * 4 + kind;
  }

  // Flow completion handlers (every WR this channel posts routes back
  // here, so they consume all completions).
  bool OnProducerCompletion(const rdma::Completion& c);
  bool OnConsumerCompletion(const rdma::Completion& c);

  // Re-posts the transfer identified by `wr_id` (scheduled after backoff).
  void RetryPost(uint64_t wr_id);
  // Re-posts the latest cumulative credit count (idempotent).
  void RetryCreditWrite();

  // Producer-side reaction to the consumer's credit write: returns newly
  // acked credits to the tenant quota, then wakes parked producers.
  void OnCreditReturn();

  // Declares the channel permanently broken: wakes both sides, then fires
  // the close handler.
  void CloseChannel(const Status& cause);

  rdma::Fabric* fabric_;
  sim::Simulator* sim_;
  int producer_node_;
  int consumer_node_;
  ChannelConfig config_;

  // Observability handles, resolved once at Create() from the simulator's
  // registry and tracer. The batching instruments are null unless
  // batched_mode_, so default-config runs register no batching metrics;
  // the tracer is null when tracing is disabled.
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::Counter* doorbells_counter_ = nullptr;
  obs::Counter* inline_counter_ = nullptr;
  obs::Counter* coalesced_counter_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  uint32_t trace_transfer_ = 0;  // interned names (hot path emits by id)
  uint32_t trace_retry_ = 0;
  uint32_t trace_close_ = 0;
  uint32_t trace_cat_ = 0;

  // The logical connection carrying both directions (data + credits).
  rdma::Flow* flow_ = nullptr;

  // Producer-side state.
  rdma::MemoryRegion* staging_ = nullptr;   // producer circular queue
  rdma::MemoryRegion* credit_mr_ = nullptr; // cumulative release counter
  uint64_t sent_count_ = 0;
  uint64_t acquired_count_ = 0;
  // Credits already returned to the tenant quota (cumulative, mirrors
  // released_acked(); only meaningful when config_.quota is set).
  uint64_t quota_released_ = 0;
  sim::Event credit_event_;
  std::vector<sim::Event*> credit_observers_;

  // Verbs-level batching state. batched_mode_ is true when any batching
  // knob is set: Post() then charges the decomposed kRdmaWqeBuild +
  // kRdmaDoorbell sequence instead of the fused kRdmaPost (numerically
  // different even at post_batch = 1, which is why it is opt-in).
  struct PendingWr {
    uint64_t msg = 0;   // 1-based message number
    uint32_t slot = 0;  // staging/queue slot index
  };
  bool batched_mode_ = false;
  std::vector<PendingWr> pending_;            // capacity reserved at Create
  // Slots covered by the last wire WRITE that started at each slot index
  // (WR coalescing merges adjacent-slot WRs into one spanning WRITE at
  // Flush). RetryPost consults this to re-post a failed merged transfer in
  // full. Entries are only read for in-flight messages, whose slots cannot
  // be reused (credits return in order), so overwriting at the next post
  // of the same slot is safe. Sized `credits` at Create; runs never cross
  // the ring wrap.
  std::vector<uint32_t> merged_run_len_;
  // Upstream replay buffer occupancy (bounded; see
  // ChannelConfig::replay_buffer_slots).
  uint64_t retained_ = 0;

  // Fault-recovery state.
  bool broken_ = false;
  Status channel_status_;
  std::function<void(const Status&)> close_handler_;
  std::map<uint64_t, uint32_t> retry_attempts_;  // wr_id -> failures so far
  uint32_t credit_attempts_ = 0;
  bool credit_retry_pending_ = false;
  uint64_t retries_ = 0;

  // Consumer-side state.
  rdma::MemoryRegion* queue_ = nullptr;      // consumer circular queue
  rdma::MemoryRegion* credit_src_ = nullptr; // staging for the credit write
  uint64_t received_count_ = 0;
  uint64_t released_count_ = 0;
  sim::Event data_event_;
  std::vector<sim::Event*> data_observers_;
};

/// READ-based pull channel used only by the verbs ablation
/// (bench/ablation_verbs). The consumer polls the *producer's* memory over
/// the network with RDMA READs until a slot's footer becomes valid — the
/// pull model the paper rejects (extra network traffic per poll, full
/// round-trip latency).
class PullChannel {
 public:
  static std::unique_ptr<PullChannel> Create(rdma::Fabric* fabric,
                                             int producer_node,
                                             int consumer_node,
                                             const ChannelConfig& config);

  PullChannel(const PullChannel&) = delete;
  PullChannel& operator=(const PullChannel&) = delete;

  uint64_t payload_capacity() const {
    return config_.slot_bytes - kFooterBytes;
  }

  /// Producer: acquire + publish locally (no network; data stays local
  /// until the consumer pulls it).
  bool TryAcquire(SlotRef* out, perf::CpuContext* cpu);
  Status Post(const SlotRef& slot, uint64_t payload_len, uint64_t user_tag,
              int64_t watermark, perf::CpuContext* cpu);
  sim::Event& credit_event() { return credit_event_; }

  /// Consumer: issues one RDMA READ of the next expected slot and waits
  /// for it; fills `out` and reports whether the slot was ready. Each call
  /// costs a full network round-trip regardless of readiness. The returned
  /// payload points into the consumer-local read buffer.
  struct PullResult {
    bool ready = false;
    InboundBuffer buffer;
  };
  sim::Task Pull(PullResult* result, perf::CpuContext* cpu);

  /// Returns the credit for a pulled buffer.
  Status Release(const InboundBuffer& buffer, perf::CpuContext* cpu);

 private:
  PullChannel(rdma::Fabric* fabric, int producer_node, int consumer_node,
              const ChannelConfig& config);

  uint64_t SlotOffset(uint32_t slot) const {
    return uint64_t(slot) * config_.slot_bytes;
  }

  rdma::Fabric* fabric_;
  sim::Simulator* sim_;
  int producer_node_;
  int consumer_node_;
  ChannelConfig config_;

  rdma::MemoryRegion* source_ = nullptr;      // producer-side slots
  rdma::MemoryRegion* credit_mr_ = nullptr;   // producer-side release counter
  rdma::MemoryRegion* read_buffer_ = nullptr; // consumer-side landing area
  rdma::QpEndpoint* producer_qp_ = nullptr;
  rdma::QpEndpoint* consumer_qp_ = nullptr;
  uint64_t produced_count_ = 0;
  uint64_t acquired_count_ = 0;
  uint64_t pulled_count_ = 0;
  uint64_t released_count_ = 0;
  sim::Event credit_event_;
};

}  // namespace slash::channel

#endif  // SLASH_CHANNEL_RDMA_CHANNEL_H_
