// The simulated RDMA fabric: nodes, NICs, protection domains, and reliable
// connections, all driven by the DES clock.
//
// A Fabric models the paper's rack: n nodes, one single-port NIC each, one
// full-bisection switch (the only contended resources are the per-node NIC
// transmit and receive paths). It owns all RDMA objects so lifetime is
// simple: build a fabric, connect QPs, run the simulation, read stats.
#ifndef SLASH_RDMA_FABRIC_H_
#define SLASH_RDMA_FABRIC_H_

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdma/memory.h"
#include "rdma/nic.h"
#include "rdma/queue_pair.h"
#include "rdma/srq.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace slash::rdma {

class Flow;

/// Fabric topology and link parameters.
struct FabricConfig {
  int nodes = 2;
  NicConfig nic;
  /// How flows map onto connections (rdma/srq.h): dedicated full-mesh QPs
  /// (default, the paper's setup), per-node SRQ transports, or a shared
  /// per-node QP pool.
  ConnectionConfig connection;
};

/// A connected pair of QP endpoints.
struct QpPair {
  QpEndpoint* first = nullptr;   // endpoint on node a
  QpEndpoint* second = nullptr;  // endpoint on node b
};

/// A logical producer->consumer connection handed out by Fabric::OpenFlow.
///
/// The flow is the unit the channel layer (and anything above it) programs
/// against; which physical QP endpoints carry it is the connection mode's
/// business. In kFullMesh each flow owns a dedicated QP pair (identical to
/// Fabric::Connect); in kSrq/kShared many flows multiplex shared hub
/// endpoints. Flows preserve the RC contract the channel protocol needs:
/// posts of one flow complete in order, and completions are routed back to
/// the flow that posted them even on a shared CQ.
///
/// Both directions are one-sided WRITEs: data toward the consumer, credit
/// returns toward the producer. Neither side ever posts a receive.
///
/// Routing works by tagging: the flow packs its id (and the direction) into
/// the high bits of every wr_id it posts, and a fabric-installed CQ
/// interceptor demultiplexes completions back to the flow's handler with
/// the caller's original wr_id restored. Callers therefore keep at most
/// kWrPayloadBits of wr_id space — plenty for the channel layer's
/// message-number encoding.
class Flow {
 public:
  /// Caller-visible wr_id bits; the rest carry the flow id + direction.
  static constexpr int kWrPayloadBits = 43;
  static constexpr uint64_t kWrPayloadMask =
      (uint64_t(1) << kWrPayloadBits) - 1;

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  uint32_t id() const { return id_; }
  int producer_node() const { return fwd_from_->node(); }
  int consumer_node() const { return fwd_to_->node(); }

  /// The physical endpoints carrying each direction (dedicated in
  /// kFullMesh, shared hubs otherwise). Tests use these for QP accounting
  /// and targeted fault injection.
  QpEndpoint* producer_endpoint() const { return fwd_from_; }
  QpEndpoint* consumer_endpoint() const { return fwd_to_; }

  /// One-sided write, producer side -> consumer node. `inline_send` marks
  /// a WR whose payload the poster embedded in the WQE: the sending NIC
  /// skips the payload DMA fetch (NicConfig::inline_overhead_discount).
  /// `unread` names bytes of the span the consumer never reads (UnreadRange).
  Status PostToConsumer(MemorySpan local, RemoteKey rkey,
                        uint64_t remote_offset, uint64_t wr_id, bool signaled,
                        bool inline_send = false, UnreadRange unread = {});

  /// One-sided write, consumer side -> producer node (credit returns).
  Status PostToProducer(MemorySpan local, RemoteKey rkey,
                        uint64_t remote_offset, uint64_t wr_id, bool signaled);

  /// Handlers for completions of work this flow posted (producer-direction
  /// posts report to the producer handler, consumer-direction posts to the
  /// consumer handler). Semantics match CompletionQueue::SetInterceptor:
  /// return true to consume the completion; returning false (or having no
  /// handler) enqueues it on the carrying endpoint's send CQ with the
  /// tagged wr_id. The channel layer always consumes.
  using CompletionHandler = std::function<bool(const Completion&)>;
  void SetProducerHandler(CompletionHandler handler) {
    producer_handler_ = std::move(handler);
  }
  void SetConsumerHandler(CompletionHandler handler) {
    consumer_handler_ = std::move(handler);
  }

 private:
  friend class Fabric;

  Flow(uint32_t id, QpEndpoint* fwd_from, QpEndpoint* fwd_to,
       QpEndpoint* rev_from, QpEndpoint* rev_to)
      : id_(id),
        fwd_from_(fwd_from),
        fwd_to_(fwd_to),
        rev_from_(rev_from),
        rev_to_(rev_to) {}

  uint64_t Tag(uint64_t wr_id, bool reverse) const;

  uint32_t id_;
  QpEndpoint* fwd_from_;  // producer-side source endpoint
  QpEndpoint* fwd_to_;    // consumer-side destination endpoint
  QpEndpoint* rev_from_;  // consumer-side source endpoint
  QpEndpoint* rev_to_;    // producer-side destination endpoint
  CompletionHandler producer_handler_;
  CompletionHandler consumer_handler_;
};

/// The fabric is also the substrate's fault-injection target: when a
/// sim::FaultInjector is registered on the simulator before the fabric is
/// built, the fabric attaches itself and (a) executes the plan's timed
/// actions (QP errors, NIC degradations, node pauses), (b) consults the
/// injector per transfer for drop/delay decisions. Without an injector,
/// every fault path is dead code and execution is byte-identical to the
/// fault-free substrate.
class Fabric : public sim::FaultTarget {
 public:
  Fabric(sim::Simulator* sim, const FabricConfig& config);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Simulator* simulator() const { return sim_; }
  const FabricConfig& config() const { return config_; }
  int nodes() const { return config_.nodes; }

  /// The protection domain of `node`.
  ProtectionDomain* pd(int node);

  /// The NIC of `node`.
  Nic* nic(int node);

  /// Creates a reliable connection between `node_a` and `node_b`.
  /// Both endpoints (and their CQs) are owned by the fabric. Always a
  /// dedicated pair, regardless of connection mode — the mode governs how
  /// *flows* map to connections; direct users (the pull-channel ablation,
  /// substrate tests) keep private QPs.
  QpPair Connect(int node_a, int node_b);

  /// Opens a logical producer->consumer flow mapped onto connections
  /// according to config().connection.mode (see rdma/srq.h). The flow is
  /// owned by the fabric.
  Flow* OpenFlow(int producer_node, int consumer_node);

  /// Connection-layer resource accounting: QP/SRQ counts and modeled QP
  /// memory, cluster-wide and per-node maxima. kSrq models one SRQ per
  /// node; the other modes have none.
  ConnectionStats connection_stats() const;

  /// Flows opened so far.
  size_t flow_count() const { return flows_.size(); }

  /// Total bytes moved across all NICs (transmit side).
  uint64_t total_tx_bytes() const;

  /// The fabric-wide free-list pool for transfer-sized byte buffers (the
  /// channel layer's retained-message copies). Shared by all channels of
  /// the run so steady-state sends recycle instead of allocating.
  BufferPool& buffer_pool() { return buffer_pool_; }

  /// The endpoint with QP number `qp_num`; nullptr if unknown. QP numbers
  /// are dense, assigned in creation order starting at 1 (endpoint
  /// qp_num - 1), so tests can name a specific connection in a FaultPlan
  /// deterministically.
  QpEndpoint* FindQp(uint32_t qp_num) const;

  /// True once `node` has been crashed. Dead nodes cannot open new
  /// connections; their existing QPs are all in the error state.
  bool node_dead(int node) const { return dead_[node]; }

  /// Registers the engine-side crash handler. CrashNode invokes it
  /// synchronously *before* erroring the dead node's QPs, so the engine can
  /// mark channels broken ahead of the flush completions and start
  /// recovery from a consistent view.
  void SetNodeCrashHandler(std::function<void(int)> handler) {
    crash_handler_ = std::move(handler);
  }

  // --- sim::FaultTarget ------------------------------------------------------
  // Connection-wide: failing either QP number errors both endpoints. On a
  // shared hub endpoint (no fixed peer) only that endpoint errors — every
  // flow multiplexed over it is affected, flows on other endpoints are not.
  void FailQp(uint32_t qp_num) override;
  void RecoverQp(uint32_t qp_num) override;
  void SetNicBandwidthScale(int node, double scale) override;
  void PauseNode(int node, Nanos until) override;
  void CrashNode(int node) override;
  void PartitionNodes(const std::vector<int>& side_a) override;
  void HealPartition() override;
  void SetNodeSpeedFactor(int node, double factor) override;

  /// True while an active network partition separates `a` and `b`. Control
  /// plane operations (Connect/OpenFlow) across an active cut are refused
  /// with a check failure; data plane transfers are dropped by the injector.
  bool Partitioned(int a, int b) const;

  /// Gray-node speed dial for `node`: 1.0 at full speed, > 1.0 while a
  /// kNodeSlow fault is active. The pointer stays valid for the fabric's
  /// lifetime, so perf::CpuContext can bind it and scale compute costs in
  /// lockstep with the NIC slowdown.
  const double* speed_dial(int node) const { return &node_speed_[node]; }

 private:
  friend class QpEndpoint;
  friend class Flow;

  // Executes the timing model + data movement of the verbs. Called by
  // QpEndpoint with an explicit destination endpoint (the fixed peer for
  // connected QPs, the flow's destination for hub endpoints).
  Status ExecuteWrite(QpEndpoint* from, QpEndpoint* to, MemorySpan local,
                      RemoteKey rkey, uint64_t remote_offset, uint64_t wr_id,
                      bool signaled, bool inline_send, UnreadRange unread);
  Status ExecuteRead(QpEndpoint* from, QpEndpoint* to, MemorySpan local,
                     RemoteKey rkey, uint64_t remote_offset, uint64_t wr_id);

  // Schedules an immediate flush completion for a WR posted while (or
  // delivered after) the QP entered the error state. Error completions are
  // always delivered, even for unsignaled WRs.
  void FlushWr(QpEndpoint* from, WorkType type, uint64_t wr_id, uint64_t len);

  // Shared tail of ExecuteWrite: the delivery + ack events for a write that
  // made it onto the wire (faults may still strike it mid-flight).
  void ScheduleWriteDelivery(QpEndpoint* from, QpEndpoint* to,
                             MemoryRegion* remote, MemorySpan local,
                             uint64_t remote_offset, UnreadRange unread,
                             uint64_t wr_id, bool signaled, Nanos arrival,
                             Nanos lat);

  // The injector registered on the simulator, or nullptr (fault-free).
  sim::FaultInjector* injector() const { return sim_->fault_injector(); }

  // Emits a fault-action instant on `node`'s channel track (no-op without a
  // tracer registered on the simulator).
  void TraceFault(std::string_view name, int node);

  // Pooled in-flight "delivered" flags. Each transfer's delivery and ack
  // events share one flag; the ack always fires after the delivery (it is
  // scheduled at a strictly later time), so the ack event owns the release.
  // Chunked stable storage + a free list replaces a shared_ptr control
  // block allocation per transfer on the hot send path.
  bool* AcquireFlag();
  void ReleaseFlag(bool* flag);

  // All endpoint creation funnels through here: assigns the QP number,
  // updates per-node QP accounting and the NIC's active-QP count (the
  // context-cache pressure input).
  QpEndpoint* MakeEndpoint(int node, bool hub);

  // Routes a tagged completion back to the posting flow's handler with the
  // caller wr_id restored; returns false for untagged completions so they
  // take the normal CQ path. Installed as the send-CQ interceptor of every
  // endpoint that carries flows.
  bool DemuxFlowCompletion(const Completion& c);

  sim::Simulator* sim_;
  FabricConfig config_;
  RegionArena arena_;  // memory of every domain's regions; outlives pds_
  std::vector<std::unique_ptr<ProtectionDomain>> pds_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<QpEndpoint>> endpoints_;  // [qp_num - 1]
  std::vector<bool> dead_;
  // Active bipartition: 0 = side B / no cut, 1 = side A. Sized at
  // construction; node_speed_ never reallocates (speed_dial hands out
  // stable pointers).
  bool partition_active_ = false;
  std::vector<char> partition_side_;
  std::vector<double> node_speed_;
  std::function<void(int)> crash_handler_;
  BufferPool buffer_pool_;
  std::vector<std::unique_ptr<bool[]>> flag_chunks_;
  std::vector<bool*> free_flags_;

  // Connection-scaling state (rdma/srq.h). kSrq: per-node {initiator,
  // SRQ-attached target} hub endpoints; kShared: per-node duplex hub pools.
  // Built eagerly at construction so QP numbering and accounting do not
  // depend on flow-open order.
  struct SrqTransport {
    QpEndpoint* initiator = nullptr;
    QpEndpoint* target = nullptr;
  };
  std::vector<SrqTransport> srq_transports_;
  std::vector<std::vector<QpEndpoint*>> shared_pools_;
  std::vector<std::unique_ptr<Flow>> flows_;
  std::vector<uint32_t> qp_per_node_;
};

}  // namespace slash::rdma

#endif  // SLASH_RDMA_FABRIC_H_
