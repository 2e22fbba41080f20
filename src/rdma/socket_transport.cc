#include "rdma/socket_transport.h"

#include <cstring>

#include "common/logging.h"

namespace slash::rdma {

SocketConnection::SocketConnection(Fabric* fabric, int node_a, int node_b,
                                   const SocketConfig& config)
    : fabric_(fabric),
      sim_(fabric->simulator()),
      nodes_{node_a, node_b},
      config_(config),
      inflation_(fabric->config().nic.bandwidth_bps / kIpoibBandwidthBps),
      sides_{Side(fabric->simulator()), Side(fabric->simulator())} {
  SLASH_CHECK_NE(node_a, node_b);
  SLASH_CHECK_GE(inflation_, 1.0);
}

int SocketConnection::SideIndex(int node) const {
  if (node == nodes_[0]) return 0;
  SLASH_CHECK_EQ(node, nodes_[1]);
  return 1;
}

sim::Task SocketConnection::Send(int from_node, const uint8_t* data,
                                 uint64_t len, perf::CpuContext* cpu) {
  const int from = SideIndex(from_node);
  const int to = 1 - from;
  Side& dst = sides_[to];

  if (aborted_) co_return;
  // TCP-style flow control: block while the window towards the peer is full.
  while (!aborted_ && dst.in_flight + len > config_.window_bytes &&
         dst.in_flight > 0) {
    co_await cpu->Park(dst.window_open);
  }
  if (aborted_) co_return;
  // Reserve window space before suspending again so concurrent senders
  // cannot all pass the check at the same instant.
  dst.in_flight += len;

  // send(): one syscall plus a user->kernel copy, on the sender's CPU.
  cpu->Charge(perf::Op::kSyscall);
  cpu->ChargeBytes(perf::Op::kSocketCopyPerByte, len);
  co_await cpu->Sync();

  std::vector<uint8_t> message(data, data + len);

  // The IPoIB segment occupies the shared physical NIC port. Inflating the
  // reserved byte count caps effective goodput at the IPoIB rate while
  // still contending with verbs traffic on the same port.
  const uint64_t wire_bytes =
      static_cast<uint64_t>(double(len) * inflation_) + 1;
  const Nanos lat = fabric_->config().nic.wire_latency + kIpoibStackLatency;
  const Nanos tx_end = fabric_->nic(from_node)->ReserveTx(sim_->now(), wire_bytes);
  const Nanos arrival =
      fabric_->nic(nodes_[to])->ReserveRx(tx_end + lat, wire_bytes);

  Side* dst_ptr = &dst;
  sim_->ScheduleAt(arrival, [this, dst_ptr, len,
                             message = std::move(message)]() mutable {
    dst_ptr->in_flight -= len;
    if (aborted_) return;  // lost with the connection
    dst_ptr->inbox_bytes += len;
    dst_ptr->inbox.push_back(std::move(message));
    dst_ptr->readable.Notify();
    for (sim::Event* observer : dst_ptr->observers) observer->Notify();
    // ACK opens the window (we release on delivery; the extra half-RTT is
    // folded into kIpoibStackLatency).
    dst_ptr->window_open.Notify();
  });
}

void SocketConnection::Abort() {
  if (aborted_) return;
  aborted_ = true;
  for (Side& side : sides_) {
    side.inbox.clear();
    side.inbox_bytes = 0;
    side.readable.Notify();
    side.window_open.Notify();
    for (sim::Event* observer : side.observers) observer->Notify();
  }
}

bool SocketConnection::TryReceive(int at_node, std::vector<uint8_t>* out,
                                  perf::CpuContext* cpu) {
  Side& side = sides_[SideIndex(at_node)];
  if (side.inbox.empty()) return false;
  *out = std::move(side.inbox.front());
  side.inbox.pop_front();
  side.inbox_bytes -= out->size();
  // recv(): interrupt + syscall + kernel->user copy on the receiver's CPU.
  cpu->Charge(perf::Op::kInterruptHandling);
  cpu->Charge(perf::Op::kSyscall);
  cpu->ChargeBytes(perf::Op::kSocketCopyPerByte, out->size());
  return true;
}

sim::Event& SocketConnection::readable(int node) {
  return sides_[SideIndex(node)].readable;
}

void SocketConnection::AddReadableObserver(int node, sim::Event* event) {
  sides_[SideIndex(node)].observers.push_back(event);
}

uint64_t SocketConnection::pending_bytes(int node) const {
  return sides_[SideIndex(node)].inbox_bytes;
}

}  // namespace slash::rdma
