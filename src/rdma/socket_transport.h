// Socket-over-IPoIB transport: the "plug-and-play integration" baseline.
//
// RDMA-capable NICs also carry socket traffic via IP-over-InfiniBand, which
// is how the paper deploys Apache Flink (Sec. 8.1.1). IPoIB traverses the
// kernel network stack, so compared to verbs it (1) cannot saturate the
// link, (2) pays a system call and a user<->kernel copy per message on both
// ends, and (3) adds interrupt handling on the receive path [Binnig et al.,
// VLDB'16]. This transport models exactly those three penalties on top of
// the same simulated NICs, and additionally enforces a TCP-style bounded
// in-flight window (the sender blocks when the window is full).
#ifndef SLASH_RDMA_SOCKET_TRANSPORT_H_
#define SLASH_RDMA_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "perf/cost_model.h"
#include "rdma/fabric.h"
#include "sim/simulator.h"

namespace slash::rdma {

/// Effective IPoIB goodput; far below the verbs-achievable 11.8 GB/s
/// (the paper cites IPoIB's failure to saturate bandwidth).
inline constexpr double kIpoibBandwidthBps = 2.8e9;
/// Kernel network-stack latency added per message (each direction).
inline constexpr Nanos kIpoibStackLatency = 12 * kMicrosecond;

/// IPoIB transport parameters.
struct SocketConfig {
  /// Maximum un-acknowledged bytes in flight (TCP window).
  uint64_t window_bytes = 4 * kMiB;
};

/// A reliable, message-oriented socket connection between two nodes.
///
/// Unlike the verbs path, both ends spend CPU per message; callers pass
/// their CpuContext so the syscall/copy/interrupt costs are charged to the
/// right role.
class SocketConnection {
 public:
  SocketConnection(Fabric* fabric, int node_a, int node_b,
                   const SocketConfig& config);
  SocketConnection(const SocketConnection&) = delete;
  SocketConnection& operator=(const SocketConnection&) = delete;

  /// Sends `len` bytes from `data` to the other end. Blocks (suspends) while
  /// the flow-control window is full. The bytes are copied at call time
  /// (socket semantics: the kernel owns a copy once send() returns).
  sim::Task Send(int from_node, const uint8_t* data, uint64_t len,
                 perf::CpuContext* cpu);

  /// Dequeues one inbound message at `at_node`, charging receive-side CPU.
  /// Returns false if none is pending.
  bool TryReceive(int at_node, std::vector<uint8_t>* out,
                  perf::CpuContext* cpu);

  /// Event notified when a message becomes readable at `node`.
  sim::Event& readable(int node);

  /// Registers an extra event notified when `node`'s inbox gains a message
  /// (fan-in consumers parking on one event across many connections).
  void AddReadableObserver(int node, sim::Event* event);

  /// Bytes currently buffered but unread at `node`.
  uint64_t pending_bytes(int node) const;

  /// Tears the connection down (peer crashed or the run is rolling back).
  /// Subsequent and window-blocked Sends return without transmitting, and
  /// every parked coroutine on either side is woken so it can observe the
  /// abort. Messages still in flight are lost, and delivered but unread
  /// ones are freed: nothing is readable afterwards.
  void Abort();

  /// True once Abort() has been called.
  bool aborted() const { return aborted_; }

 private:
  struct Side {
    explicit Side(sim::Simulator* sim) : readable(sim), window_open(sim) {}
    std::deque<std::vector<uint8_t>> inbox;
    uint64_t inbox_bytes = 0;
    sim::Event readable;
    std::vector<sim::Event*> observers;
    // Sender-side window accounting for traffic *towards* this side.
    uint64_t in_flight = 0;
    sim::Event window_open;
  };

  int SideIndex(int node) const;

  Fabric* fabric_;
  sim::Simulator* sim_;
  int nodes_[2];
  SocketConfig config_;
  double inflation_;  // line-rate bytes per IPoIB byte
  bool aborted_ = false;
  Side sides_[2];
};

}  // namespace slash::rdma

#endif  // SLASH_RDMA_SOCKET_TRANSPORT_H_
