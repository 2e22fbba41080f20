// Connection scaling for the simulated RDMA substrate: shared receive
// queues and connection-sharing modes.
//
// The paper's protocol assumes full-mesh reliable connections — one private
// QP per producer/consumer flow — which is fine at its 16-node scale but
// hits the well-known RDMA scalability wall beyond that: every RC QP is
// per-connection state (a NIC-resident context plus host-memory send/recv
// rings), so all-pairs traffic costs O(N^2) QPs cluster-wide and the NIC's
// small on-chip context cache starts thrashing. Storm's connection-
// scalability analysis quantifies the cache cliff; RDMAvisor recovers
// scalability by multiplexing many logical flows over a shared pool of QPs.
// This header provides the substrate's three connection modes:
//
//  * kFullMesh — the paper's configuration: every flow gets a dedicated
//    QP pair. O(N^2) QPs for all-pairs traffic.
//  * kSrq     — XRC/DC-style: each node owns one initiator endpoint (all
//    outbound flows) and one target endpoint attached to a node-wide
//    shared receive queue. 2 QPs per node, O(N) total. Every flow moves
//    its bytes with one-sided WRITEs, so no receive is ever posted: the
//    SRQ is modeled by its footprint alone (kSrqDepth x kWqeBytes per
//    node, SrqMemoryBytes()).
//  * kShared  — RDMAvisor-style: each node owns a small pool of duplex
//    shared endpoints; flows are assigned to pool members statically by
//    flow id. pool_size QPs per node, O(N) total.
//
// The mode is a *resource* knob, not a semantics knob: flows keep their
// per-flow FIFO ordering (RC in-order delivery is per connection, and a
// flow always maps to exactly one connection in every mode), and with the
// NIC's QP-context cache model disabled (the default) all three modes
// produce byte-identical runs — same schedule, same MetricsSnapshot, same
// result checksums. What changes is the accounting: QP counts and modeled
// QP memory, and (opt-in) the NIC cache-pressure penalty.
#ifndef SLASH_RDMA_SRQ_H_
#define SLASH_RDMA_SRQ_H_

#include <cstdint>

namespace slash::rdma {

/// How logical flows map onto reliable connections.
enum class ConnectionMode : uint8_t {
  kFullMesh = 0,
  kSrq = 1,
  kShared = 2,
};

/// Connection-layer configuration, part of FabricConfig (and surfaced
/// per-run through engines::ClusterConfig).
struct ConnectionConfig {
  ConnectionMode mode = ConnectionMode::kFullMesh;

  /// kShared: duplex shared endpoints per node. Flows hash onto the pool
  /// by flow id.
  uint32_t shared_pool_size = 2;
};

/// Modeled per-QP footprint: NIC-resident connection context plus the host
/// send/recv work-queue rings (entries x descriptor bytes). The values land
/// in the tens-of-KiB-per-QP range reported for RC contexts by the
/// connection-scalability literature. SRQ-attached endpoints share the
/// node-wide receive ring and skip the private one.
inline constexpr uint64_t kQpContextBytes = 512;
inline constexpr uint64_t kSendWqeEntries = 256;
inline constexpr uint64_t kRecvWqeEntries = 256;
inline constexpr uint64_t kWqeBytes = 64;
/// kSrq: receive-ring entries of each node-wide shared receive queue.
inline constexpr uint64_t kSrqDepth = 1024;

/// Modeled bytes of one QP endpoint (context + rings).
constexpr uint64_t QpMemoryBytes(bool srq_attached) {
  return kQpContextBytes + kSendWqeEntries * kWqeBytes +
         (srq_attached ? 0 : kRecvWqeEntries * kWqeBytes);
}

/// Modeled bytes of one node-wide shared receive queue.
constexpr uint64_t SrqMemoryBytes() { return kSrqDepth * kWqeBytes; }

/// Connection-layer resource accounting, computed on demand by
/// Fabric::connection_stats(). This is what the weak-scaling bench plots:
/// full-mesh QP counts grow O(N^2) with all-pairs flows while kSrq/kShared
/// stay O(N).
struct ConnectionStats {
  uint64_t flows = 0;
  uint64_t qp_endpoints = 0;
  uint64_t srqs = 0;
  uint64_t max_qp_endpoints_per_node = 0;
  uint64_t qp_memory_bytes = 0;              // cluster-wide modeled total
  uint64_t max_qp_memory_bytes_per_node = 0;
};

}  // namespace slash::rdma

#endif  // SLASH_RDMA_SRQ_H_
