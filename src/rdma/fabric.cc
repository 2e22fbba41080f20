#include "rdma/fabric.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace slash::rdma {

Fabric::Fabric(sim::Simulator* sim, const FabricConfig& config)
    : sim_(sim), config_(config) {
  SLASH_CHECK_GT(config.nodes, 0);
  pds_.reserve(config.nodes);
  nics_.reserve(config.nodes);
  dead_.assign(config.nodes, false);
  partition_side_.assign(config.nodes, 0);
  node_speed_.assign(config.nodes, 1.0);
  qp_per_node_.assign(config.nodes, 0);
  for (int n = 0; n < config.nodes; ++n) {
    pds_.push_back(std::make_unique<ProtectionDomain>(n, &arena_));
    // Per-node tx counters; their sum is exactly total_tx_bytes().
    nics_.push_back(std::make_unique<Nic>(
        n, config.nic,
        sim_->metrics().GetCounter(obs::metric::kNetworkTxBytes,
                                   {{obs::kLabelNode, std::to_string(n)}})));
  }
  // Shared transports are built eagerly so QP numbering, accounting, and
  // fault-plan targets do not depend on the order flows open in.
  const ConnectionConfig& conn = config_.connection;
  switch (conn.mode) {
    case ConnectionMode::kFullMesh:
      break;
    case ConnectionMode::kSrq:
      srq_transports_.resize(config.nodes);
      for (int n = 0; n < config.nodes; ++n) {
        srq_transports_[n].initiator = MakeEndpoint(n, /*hub=*/true);
        srq_transports_[n].target = MakeEndpoint(n, /*hub=*/true);
        srq_transports_[n].target->srq_ = true;
      }
      break;
    case ConnectionMode::kShared:
      SLASH_CHECK_GT(conn.shared_pool_size, 0u);
      shared_pools_.resize(config.nodes);
      for (int n = 0; n < config.nodes; ++n) {
        shared_pools_[n].reserve(conn.shared_pool_size);
        for (uint32_t s = 0; s < conn.shared_pool_size; ++s) {
          shared_pools_[n].push_back(MakeEndpoint(n, /*hub=*/true));
        }
      }
      break;
  }
  if (sim::FaultInjector* inj = sim_->fault_injector()) {
    inj->Attach(this);
  }
}

ProtectionDomain* Fabric::pd(int node) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, config_.nodes);
  return pds_[node].get();
}

Nic* Fabric::nic(int node) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, config_.nodes);
  return nics_[node].get();
}

QpEndpoint* Fabric::MakeEndpoint(int node, bool hub) {
  const uint32_t qp_num = uint32_t(endpoints_.size()) + 1;
  endpoints_.push_back(std::make_unique<QpEndpoint>(this, node, qp_num, hub));
  QpEndpoint* ep = endpoints_.back().get();
  ++qp_per_node_[node];
  // The NIC's context-cache pressure model (opt-in) keys off how many live
  // QP contexts compete for its cache.
  nics_[node]->set_active_qps(qp_per_node_[node]);
  return ep;
}

QpPair Fabric::Connect(int node_a, int node_b) {
  SLASH_CHECK_MSG(!dead_[node_a] && !dead_[node_b],
                  "Connect() touching a crashed node");
  SLASH_CHECK_MSG(!Partitioned(node_a, node_b),
                  "Connect() across an active network partition");
  QpEndpoint* a = MakeEndpoint(node_a, /*hub=*/false);
  QpEndpoint* b = MakeEndpoint(node_b, /*hub=*/false);
  a->peer_ = b;
  b->peer_ = a;
  return QpPair{a, b};
}

Flow* Fabric::OpenFlow(int producer_node, int consumer_node) {
  SLASH_CHECK_MSG(!dead_[producer_node] && !dead_[consumer_node],
                  "OpenFlow() touching a crashed node");
  SLASH_CHECK_MSG(!Partitioned(producer_node, consumer_node),
                  "OpenFlow() across an active network partition");
  const uint32_t id = static_cast<uint32_t>(flows_.size());
  QpEndpoint* fwd_from = nullptr;
  QpEndpoint* fwd_to = nullptr;
  QpEndpoint* rev_from = nullptr;
  QpEndpoint* rev_to = nullptr;
  switch (config_.connection.mode) {
    case ConnectionMode::kFullMesh: {
      // Dedicated QP pair, exactly the pre-scaling substrate.
      QpPair pair = Connect(producer_node, consumer_node);
      fwd_from = pair.first;
      fwd_to = pair.second;
      rev_from = pair.second;
      rev_to = pair.first;
      break;
    }
    case ConnectionMode::kSrq: {
      // All outbound posts of a node share its initiator; all inbound
      // traffic lands on its SRQ-fed target.
      fwd_from = srq_transports_[producer_node].initiator;
      fwd_to = srq_transports_[consumer_node].target;
      rev_from = srq_transports_[consumer_node].initiator;
      rev_to = srq_transports_[producer_node].target;
      break;
    }
    case ConnectionMode::kShared: {
      // Static assignment onto the duplex pool by flow id: deterministic
      // and balanced for dense flow populations.
      const auto& ppool = shared_pools_[producer_node];
      const auto& cpool = shared_pools_[consumer_node];
      fwd_from = ppool[id % ppool.size()];
      fwd_to = cpool[id % cpool.size()];
      rev_from = fwd_to;
      rev_to = fwd_from;
      break;
    }
  }
  flows_.push_back(std::unique_ptr<Flow>(
      new Flow(id, fwd_from, fwd_to, rev_from, rev_to)));
  Flow* flow = flows_.back().get();
  // Both carrying endpoints demux through the fabric. Re-installing the
  // same interceptor on a shared endpoint is idempotent.
  auto demux = [this](const Completion& c) { return DemuxFlowCompletion(c); };
  fwd_from->send_cq().SetInterceptor(demux);
  rev_from->send_cq().SetInterceptor(demux);
  return flow;
}

ConnectionStats Fabric::connection_stats() const {
  ConnectionStats stats;
  stats.flows = flows_.size();
  stats.qp_endpoints = endpoints_.size();
  // kSrq models one shared receive queue per node: its footprint joins the
  // node's QP memory even though no receive is ever posted to it.
  const bool srq_mode = config_.connection.mode == ConnectionMode::kSrq;
  stats.srqs = srq_mode ? uint64_t(config_.nodes) : 0;
  std::vector<uint64_t> mem_per_node(
      config_.nodes, srq_mode ? SrqMemoryBytes() : 0);
  for (const auto& ep : endpoints_) {
    mem_per_node[ep->node()] += QpMemoryBytes(ep->srq());
  }
  for (int n = 0; n < config_.nodes; ++n) {
    stats.qp_memory_bytes += mem_per_node[n];
    stats.max_qp_memory_bytes_per_node =
        std::max(stats.max_qp_memory_bytes_per_node, mem_per_node[n]);
    stats.max_qp_endpoints_per_node = std::max(
        stats.max_qp_endpoints_per_node, uint64_t(qp_per_node_[n]));
  }
  return stats;
}

uint64_t Flow::Tag(uint64_t wr_id, bool reverse) const {
  SLASH_CHECK_LE(wr_id, kWrPayloadMask);
  return (uint64_t(id_ + 1) << (kWrPayloadBits + 1)) |
         (uint64_t(reverse) << kWrPayloadBits) | wr_id;
}

bool Fabric::DemuxFlowCompletion(const Completion& c) {
  const uint64_t tag = c.wr_id >> (Flow::kWrPayloadBits + 1);
  if (tag == 0 || tag > flows_.size()) return false;
  Flow* flow = flows_[tag - 1].get();
  const bool reverse = (c.wr_id >> Flow::kWrPayloadBits) & 1;
  Completion inner = c;
  inner.wr_id = c.wr_id & Flow::kWrPayloadMask;
  const Flow::CompletionHandler& handler =
      reverse ? flow->consumer_handler_ : flow->producer_handler_;
  return handler ? handler(inner) : false;
}

Status Flow::PostToConsumer(MemorySpan local, RemoteKey rkey,
                            uint64_t remote_offset, uint64_t wr_id,
                            bool signaled, bool inline_send,
                            UnreadRange unread) {
  return fwd_from_->PostWriteTo(fwd_to_, local, rkey, remote_offset,
                                Tag(wr_id, /*reverse=*/false), signaled,
                                inline_send, unread);
}

Status Flow::PostToProducer(MemorySpan local, RemoteKey rkey,
                            uint64_t remote_offset, uint64_t wr_id,
                            bool signaled) {
  return rev_from_->PostWriteTo(rev_to_, local, rkey, remote_offset,
                                Tag(wr_id, /*reverse=*/true), signaled);
}

uint64_t Fabric::total_tx_bytes() const {
  uint64_t total = 0;
  for (const auto& nic : nics_) total += nic->tx_bytes();
  return total;
}

bool* Fabric::AcquireFlag() {
  if (free_flags_.empty()) {
    constexpr size_t kFlagsPerChunk = 256;
    flag_chunks_.emplace_back(new bool[kFlagsPerChunk]());
    bool* flags = flag_chunks_.back().get();
    free_flags_.reserve(free_flags_.size() + kFlagsPerChunk);
    for (size_t i = 0; i < kFlagsPerChunk; ++i) free_flags_.push_back(&flags[i]);
  }
  bool* flag = free_flags_.back();
  free_flags_.pop_back();
  *flag = false;
  return flag;
}

void Fabric::ReleaseFlag(bool* flag) { free_flags_.push_back(flag); }

QpEndpoint* Fabric::FindQp(uint32_t qp_num) const {
  if (qp_num == 0 || qp_num > endpoints_.size()) return nullptr;
  return endpoints_[qp_num - 1].get();
}

// Fault actions are rare (a handful per run), so they use the tracer's
// interning convenience path instead of cached ids.
void Fabric::TraceFault(std::string_view name, int node) {
  if (obs::Tracer* tracer = sim_->tracer()) {
    tracer->InstantNamed(sim_->now(), name, "fault", node,
                         obs::kTrackChannel);
  }
}

void Fabric::FailQp(uint32_t qp_num) {
  QpEndpoint* ep = FindQp(qp_num);
  SLASH_CHECK_MSG(ep != nullptr, "FaultPlan names unknown qp_num " << qp_num);
  TraceFault("fabric.qp_fail", ep->node());
  ep->state_ = QpState::kError;
  if (ep->peer() != nullptr) ep->peer()->state_ = QpState::kError;
}

void Fabric::RecoverQp(uint32_t qp_num) {
  QpEndpoint* ep = FindQp(qp_num);
  SLASH_CHECK_MSG(ep != nullptr, "FaultPlan names unknown qp_num " << qp_num);
  TraceFault("fabric.qp_recover", ep->node());
  ep->state_ = QpState::kReady;
  if (ep->peer() != nullptr) ep->peer()->state_ = QpState::kReady;
}

void Fabric::SetNicBandwidthScale(int node, double scale) {
  TraceFault("fabric.nic_bandwidth_scale", node);
  nic(node)->set_bandwidth_scale(scale);
}

void Fabric::PauseNode(int node, Nanos until) {
  TraceFault("fabric.node_pause", node);
  nic(node)->PauseUntil(until);
}

void Fabric::CrashNode(int node) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, config_.nodes);
  if (dead_[node]) return;
  dead_[node] = true;
  TraceFault("fabric.node_crash", node);
  // The engine observes the crash before any flush completion can fire:
  // it marks the affected channels broken so the retry machinery does not
  // fight the teardown, then schedules recovery.
  if (crash_handler_) crash_handler_(node);
  // Every connection with an endpoint on the dead node dies. In-flight
  // work flushes with error completions through the normal async path.
  // Hub endpoints on surviving nodes stay healthy: their other flows are
  // unaffected (the per-transfer destination check handles the dead side).
  for (const auto& ep : endpoints_) {
    if (ep->node() != node) continue;
    ep->state_ = QpState::kError;
    if (ep->peer() != nullptr) ep->peer()->state_ = QpState::kError;
  }
}

void Fabric::PartitionNodes(const std::vector<int>& side_a) {
  partition_active_ = true;
  std::fill(partition_side_.begin(), partition_side_.end(), 0);
  for (int n : side_a) {
    SLASH_CHECK_GE(n, 0);
    SLASH_CHECK_LT(n, config_.nodes);
    partition_side_[n] = 1;
    TraceFault("fabric.partition", n);
  }
}

void Fabric::HealPartition() {
  partition_active_ = false;
  for (int n = 0; n < config_.nodes; ++n) {
    if (partition_side_[n]) TraceFault("fabric.partition_heal", n);
  }
  std::fill(partition_side_.begin(), partition_side_.end(), 0);
}

bool Fabric::Partitioned(int a, int b) const {
  if (!partition_active_) return false;
  return partition_side_[a] != partition_side_[b];
}

void Fabric::SetNodeSpeedFactor(int node, double factor) {
  SLASH_CHECK_GE(factor, 1.0);
  TraceFault(factor > 1.0 ? "fabric.node_slow" : "fabric.node_restore_speed",
             node);
  node_speed_[node] = factor;
  nic(node)->set_speed_factor(factor);
}

void Fabric::FlushWr(QpEndpoint* from, WorkType type, uint64_t wr_id,
                     uint64_t len) {
  // Flush asynchronously at the current time: a poller parked on the CQ is
  // woken through the normal event path, and post-call code runs first —
  // the same ordering as a real NIC reporting through the CQ.
  ++from->outstanding_;
  sim_->ScheduleAt(sim_->now(), [from, type, wr_id, len] {
    --from->outstanding_;
    from->send_cq().Push(Completion{wr_id, type, len, WcStatus::kFlushErr});
  });
}

Status Fabric::ExecuteWrite(QpEndpoint* from, QpEndpoint* to, MemorySpan local,
                            RemoteKey rkey, uint64_t remote_offset,
                            uint64_t wr_id, bool signaled, bool inline_send,
                            UnreadRange unread) {
  MemoryRegion* remote = pd(to->node())->FindByRkey(rkey.rkey);
  if (remote == nullptr) {
    return Status::NotFound("unknown rkey on destination node");
  }
  if (remote_offset + local.length > remote->size()) {
    return Status::OutOfRange("remote write beyond region bounds");
  }
  const uint64_t len = local.length;
  // Hub endpoints are peer-less, so the destination's health must be
  // checked explicitly (connected pairs error in lockstep, shared
  // endpoints do not: a dead consumer must not flush a producer hub that
  // still serves other flows).
  if (from->state_ == QpState::kError || to->state_ == QpState::kError) {
    FlushWr(from, WorkType::kWrite, wr_id, len);
    return Status::OK();
  }

  const Nanos now = sim_->now();
  const Nanos lat = config_.nic.wire_latency;
  const Nanos tx_end = nic(from->node())->ReserveTx(now, len, inline_send);

  if (sim::FaultInjector* inj = injector()) {
    const auto fault =
        inj->OnTransfer(from->node(), to->node(), from->qp_num(), len);
    if (fault.drop) {
      // The transfer is lost on the wire: it consumed the transmit path but
      // nothing lands. The sender learns after the transport retransmit
      // budget expires — always signaled, like every error completion.
      ++from->outstanding_;
      sim_->ScheduleAt(tx_end + sim::kDropReportDelay, [=] {
        --from->outstanding_;
        from->send_cq().Push(
            Completion{wr_id, WorkType::kWrite, len, WcStatus::kRetryExceeded});
      });
      return Status::OK();
    }
    if (fault.extra_delay > 0) {
      const Nanos arrival = nic(to->node())
                                ->ReserveRx(tx_end + lat + fault.extra_delay,
                                            len);
      ScheduleWriteDelivery(from, to, remote, local, remote_offset, unread,
                            wr_id, signaled, arrival, lat);
      return Status::OK();
    }
  }

  const Nanos arrival = nic(to->node())->ReserveRx(tx_end + lat, len);
  ScheduleWriteDelivery(from, to, remote, local, remote_offset, unread,
                        wr_id, signaled, arrival, lat);
  return Status::OK();
}

void Fabric::ScheduleWriteDelivery(QpEndpoint* from, QpEndpoint* to,
                                   MemoryRegion* remote, MemorySpan local,
                                   uint64_t remote_offset,
                                   UnreadRange unread, uint64_t wr_id,
                                   bool signaled, Nanos arrival, Nanos lat) {
  ++from->outstanding_;
  // Capture the source bytes lazily at delivery time: RDMA reads the send
  // buffer via DMA as the message serializes, and our protocol layers never
  // reuse a slot before its credit returns, so reading at arrival is
  // equivalent and avoids a copy in the common case.
  const uint64_t len = local.length;
  // Shared between the delivery and ack events so a connection error that
  // strikes (and maybe recovers) mid-flight can never report success for a
  // write that was not materialized. The ack event fires strictly after the
  // delivery event and releases the flag.
  bool* delivered = AcquireFlag();
  sim_->ScheduleAt(arrival, [=, this] {
    // A connection that errored while the message was in flight never
    // materializes it (the responder tears the RC context down). For
    // shared endpoints, either side erroring kills the transfer.
    if (from->state_ == QpState::kError || to->state_ == QpState::kError) {
      return;
    }
    *delivered = true;
    // Only the bytes the receiver may read move: [0, begin) and
    // [end, len). A full WRITE has an empty unread range.
    uint8_t* dst = remote->data() + remote_offset;
    const uint8_t* src = local.data();
    std::memcpy(dst, src, unread.begin);
    std::memcpy(dst + unread.end, src + unread.end, len - unread.end);
    // RDMA WRITE fills memory from lower to higher addresses: the channel
    // layer relies on this to poll the final footer byte (Sec. 6.3). In the
    // simulation the whole message materializes atomically at `arrival`,
    // which preserves exactly the "footer last" guarantee.
    remote->NotifyRemoteWrite(remote_offset, len);
  });
  // The sender's completion means "acked by the responder": one extra
  // latency after remote delivery.
  sim_->ScheduleAt(arrival + lat, [=, this] {
    --from->outstanding_;
    const bool ok = *delivered;
    ReleaseFlag(delivered);
    if (!ok || from->state_ == QpState::kError) {
      from->send_cq().Push(
          Completion{wr_id, WorkType::kWrite, len, WcStatus::kFlushErr});
      return;
    }
    if (signaled) {
      from->send_cq().Push(Completion{wr_id, WorkType::kWrite, len});
    }
  });
}

Status Fabric::ExecuteRead(QpEndpoint* from, QpEndpoint* to, MemorySpan local,
                           RemoteKey rkey, uint64_t remote_offset,
                           uint64_t wr_id) {
  MemoryRegion* remote = pd(to->node())->FindByRkey(rkey.rkey);
  if (remote == nullptr) {
    return Status::NotFound("unknown rkey on destination node");
  }
  if (remote_offset + local.length > remote->size()) {
    return Status::OutOfRange("remote read beyond region bounds");
  }
  const uint64_t len = local.length;
  if (from->state_ == QpState::kError || to->state_ == QpState::kError) {
    FlushWr(from, WorkType::kRead, wr_id, len);
    return Status::OK();
  }

  constexpr uint64_t kReadRequestBytes = 16;
  const Nanos now = sim_->now();
  const Nanos lat = config_.nic.wire_latency;

  Nanos extra_delay = 0;
  if (sim::FaultInjector* inj = injector()) {
    // One decision covers the whole request/response exchange: a drop on
    // either leg surfaces identically to the requester.
    const auto fault = inj->OnTransfer(from->node(), to->node(),
                                       from->qp_num(), len,
                                       /*round_trip=*/true);
    if (fault.drop) {
      const Nanos req_tx =
          nic(from->node())->ReserveTx(now, kReadRequestBytes);
      ++from->outstanding_;
      sim_->ScheduleAt(req_tx + sim::kDropReportDelay, [=] {
        --from->outstanding_;
        from->send_cq().Push(
            Completion{wr_id, WorkType::kRead, len, WcStatus::kRetryExceeded});
      });
      return Status::OK();
    }
    extra_delay = fault.extra_delay;
  }

  // Request travels to the responder...
  const Nanos req_tx = nic(from->node())->ReserveTx(now, kReadRequestBytes);
  const Nanos req_arrival = nic(to->node())
                                ->ReserveRx(req_tx + lat + extra_delay,
                                            kReadRequestBytes);
  // ...the responder NIC DMA-reads and serializes the payload back...
  const Nanos resp_tx = nic(to->node())->ReserveTx(req_arrival, local.length);
  const Nanos resp_arrival =
      nic(from->node())->ReserveRx(resp_tx + lat, local.length);

  ++from->outstanding_;
  sim_->ScheduleAt(resp_arrival, [=] {
    --from->outstanding_;
    if (from->state_ == QpState::kError || to->state_ == QpState::kError) {
      // Connection died while the read was in flight.
      from->send_cq().Push(
          Completion{wr_id, WorkType::kRead, len, WcStatus::kFlushErr});
      return;
    }
    std::memcpy(local.data(), remote->data() + remote_offset, len);
    local.region->NotifyRemoteWrite(local.offset, len);
    from->send_cq().Push(Completion{wr_id, WorkType::kRead, len});
  });
  return Status::OK();
}

}  // namespace slash::rdma
