#include "rdma/nic.h"

#include <algorithm>

#include "common/logging.h"
#include "perf/cost_model.h"

namespace slash::rdma {

Nanos Nic::TransferDuration(uint64_t bytes, bool inline_send) const {
  const Nanos overhead =
      inline_send ? std::max<Nanos>(0, config_.per_message_overhead -
                                           config_.inline_overhead_discount)
                  : config_.per_message_overhead;
  const Nanos base =
      overhead + qp_fetch_overhead_ +
      static_cast<Nanos>(double(bytes) /
                         (config_.bandwidth_bps * bandwidth_scale_) * 1e9);
  if (speed_factor_ == 1.0) return base;
  return static_cast<Nanos>(double(base) * speed_factor_);
}

void Nic::set_active_qps(uint32_t count) {
  active_qps_ = count;
  qp_fetch_overhead_ = perf::QpContextFetchOverhead(
      active_qps_, config_.qp_cache_entries, config_.qp_cache_miss_penalty);
}

void Nic::set_bandwidth_scale(double scale) {
  SLASH_CHECK_GT(scale, 0.0);
  bandwidth_scale_ = scale;
}

void Nic::set_speed_factor(double factor) {
  SLASH_CHECK_GE(factor, 1.0);
  speed_factor_ = factor;
}

void Nic::PauseUntil(Nanos until) {
  tx_free_ = std::max(tx_free_, until);
  rx_free_ = std::max(rx_free_, until);
}

Nanos Nic::ReserveTx(Nanos now, uint64_t bytes, bool inline_send) {
  const Nanos start = std::max(now, tx_free_);
  tx_free_ = start + TransferDuration(bytes, inline_send);
  tx_bytes_->Add(bytes);
  ++tx_messages_;
  return tx_free_;
}

Nanos Nic::ReserveRx(Nanos earliest, uint64_t bytes) {
  // The receive path drains at line rate. If it is busy (fan-in), delivery
  // is pushed back; if idle, the message flows through store-and-forward
  // style with no extra serialization charge beyond the overhead (the bytes
  // were already serialized on the wire by the sender).
  rx_free_ = std::max(earliest, rx_free_ + TransferDuration(bytes));
  rx_bytes_ += bytes;
  ++rx_messages_;
  return rx_free_;
}

}  // namespace slash::rdma
