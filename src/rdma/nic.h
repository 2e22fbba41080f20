// The simulated RDMA NIC: a serialization resource with line rate and
// per-message latency.
//
// Model (see DESIGN.md substitution table): each node has one single-port
// NIC. A transfer of `size` bytes occupies the sender NIC's transmit path
// for `overhead + size/bandwidth` and arrives at the receiver after an
// additional one-way wire latency, subject to the receiver NIC's receive
// path also being free (this is what creates fan-in contention — the hot
// consumer in skewed re-partitioning). Defaults reproduce the paper's
// testbed: ConnectX-4 EDR whose achievable bandwidth the authors measured
// at 11.8 GB/s with ib_write_bw, and ~2 us round-trip latency.
#ifndef SLASH_RDMA_NIC_H_
#define SLASH_RDMA_NIC_H_

#include <cstdint>

#include "common/units.h"
#include "obs/metrics.h"

namespace slash::rdma {

/// NIC and link model parameters.
struct NicConfig {
  /// Achievable unidirectional bandwidth in bytes/second.
  double bandwidth_bps = 11.8e9;
  /// One-way wire + switch latency.
  Nanos wire_latency = 900;
  /// Fixed per-message NIC processing overhead (WQE fetch, DMA setup).
  Nanos per_message_overhead = 60;

  /// NIC-side benefit of an inline send: the payload travels inside the
  /// WQE, so the NIC skips the payload DMA fetch. Subtracted from
  /// per_message_overhead (floor 0) for transfers posted with the inline
  /// flag; everything else (serialization, wire latency) is unchanged.
  /// The CPU-side cost of building the inline WQE is charged separately
  /// (perf::Op::kRdmaInlineCopyPerByte).
  Nanos inline_overhead_discount = 30;

  /// QP-context cache pressure model (opt-in; see rdma/srq.h). When
  /// `qp_cache_entries` > 0 and a node has more live QPs than fit, every
  /// message pays the deterministic expected context-fetch cost
  /// perf::QpContextFetchOverhead(active_qps, entries, penalty) on top of
  /// per_message_overhead — the NIC-cache cliff full-mesh clusters hit at
  /// scale and connection sharing avoids. 0 disables the model entirely
  /// (the default), keeping timing identical across connection modes.
  uint32_t qp_cache_entries = 0;
  /// Cost of re-fetching one evicted QP context over PCIe.
  Nanos qp_cache_miss_penalty = 200;
};

/// Per-node NIC state: transmit/receive serialization clocks and traffic
/// accounting.
class Nic {
 public:
  /// `tx_bytes` is the node's `fabric.tx_bytes` registry counter (the
  /// fabric resolves it); ReserveTx publishes every transmitted byte there.
  Nic(int node, const NicConfig& config, obs::Counter* tx_bytes)
      : node_(node), config_(config), tx_bytes_(tx_bytes) {}

  int node() const { return node_; }
  const NicConfig& config() const { return config_; }

  /// Reserves the transmit path for a message of `bytes` starting no
  /// earlier than `now`. Returns the time the last byte leaves the NIC.
  /// `inline_send` applies NicConfig::inline_overhead_discount (the WQE
  /// carried the payload, so there is no payload DMA fetch).
  Nanos ReserveTx(Nanos now, uint64_t bytes, bool inline_send = false);

  /// Reserves the receive path for a message whose last byte reaches this
  /// NIC no earlier than `earliest`. Returns delivery-complete time.
  Nanos ReserveRx(Nanos earliest, uint64_t bytes);

  /// Duration the wire transfer of `bytes` occupies the link at the
  /// current (possibly degraded) line rate.
  Nanos TransferDuration(uint64_t bytes, bool inline_send = false) const;

  /// Fault injection: scales the effective line rate. 1.0 restores full
  /// bandwidth; values in (0, 1) model a flapping/congested link. Already
  /// reserved transfers keep their original timing; only new reservations
  /// see the degraded rate.
  void set_bandwidth_scale(double scale);
  double bandwidth_scale() const { return bandwidth_scale_; }

  /// Fault injection: freezes both NIC paths until virtual time `until`
  /// (node pause: GC stall, VM migration). Transfers reserved afterwards
  /// start no earlier than `until`.
  void PauseUntil(Nanos until);

  /// Fault injection: gray-node slowdown. Multiplies every subsequent
  /// transfer duration (overhead and serialization alike) by `factor`
  /// (>= 1); 1.0 restores full speed. Unlike set_bandwidth_scale this
  /// models the whole NIC path crawling, not just the line rate.
  void set_speed_factor(double factor);
  double speed_factor() const { return speed_factor_; }

  uint64_t tx_bytes() const { return tx_bytes_->value(); }
  uint64_t rx_bytes() const { return rx_bytes_; }
  uint64_t tx_messages() const { return tx_messages_; }
  uint64_t rx_messages() const { return rx_messages_; }

  /// Time at which the transmit path becomes idle.
  Nanos tx_busy_until() const { return tx_free_; }

  /// Live QP contexts on this NIC; maintained by the fabric as endpoints
  /// are created. Recomputes the cached context-fetch overhead, which is 0
  /// unless the cache model is enabled and oversubscribed.
  void set_active_qps(uint32_t count);
  uint32_t active_qps() const { return active_qps_; }

  /// The expected per-message QP-context fetch cost currently in effect.
  Nanos qp_fetch_overhead() const { return qp_fetch_overhead_; }

 private:
  int node_;
  NicConfig config_;
  uint32_t active_qps_ = 0;
  Nanos qp_fetch_overhead_ = 0;
  double bandwidth_scale_ = 1.0;
  double speed_factor_ = 1.0;
  Nanos tx_free_ = 0;
  Nanos rx_free_ = 0;
  obs::Counter* tx_bytes_;
  uint64_t rx_bytes_ = 0;
  uint64_t tx_messages_ = 0;
  uint64_t rx_messages_ = 0;
};

}  // namespace slash::rdma

#endif  // SLASH_RDMA_NIC_H_
