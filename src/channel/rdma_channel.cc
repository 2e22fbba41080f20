#include "channel/rdma_channel.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace slash::channel {

namespace {

void WriteFooter(uint8_t* dst, const SlotFooter& footer) {
  std::memcpy(dst, &footer, sizeof(footer));
}

SlotFooter ReadFooter(const uint8_t* src) {
  SlotFooter footer;
  std::memcpy(&footer, src, sizeof(footer));
  return footer;
}

}  // namespace

// ---------------------------------------------------------------------------
// RdmaChannel (push model, the production path)
// ---------------------------------------------------------------------------

RdmaChannel::RdmaChannel(rdma::Fabric* fabric, int producer_node,
                         int consumer_node, const ChannelConfig& config)
    : fabric_(fabric),
      sim_(fabric->simulator()),
      producer_node_(producer_node),
      consumer_node_(consumer_node),
      config_(config),
      credit_event_(fabric->simulator()),
      data_event_(fabric->simulator()) {}

std::unique_ptr<RdmaChannel> RdmaChannel::Create(rdma::Fabric* fabric,
                                                 int producer_node,
                                                 int consumer_node,
                                                 const ChannelConfig& config) {
  SLASH_CHECK_GT(config.credits, 0u);
  SLASH_CHECK_GT(config.slot_bytes, kFooterBytes);
  auto channel = std::unique_ptr<RdmaChannel>(
      new RdmaChannel(fabric, producer_node, consumer_node, config));

  const uint64_t queue_bytes = uint64_t(config.credits) * config.slot_bytes;
  channel->staging_ = fabric->pd(producer_node)->RegisterRegion(queue_bytes);
  channel->queue_ = fabric->pd(consumer_node)->RegisterRegion(queue_bytes);
  channel->credit_mr_ = fabric->pd(producer_node)->RegisterRegion(64);
  channel->credit_src_ = fabric->pd(consumer_node)->RegisterRegion(64);

  channel->flow_ = fabric->OpenFlow(producer_node, consumer_node);
  channel->merged_run_len_.assign(config.credits, 1);
  channel->batched_mode_ =
      config.post_batch > 1 || config.inline_threshold > 0;

  RdmaChannel* ch = channel.get();
  if (config.quota != nullptr) {
    // A producer denied by the quota parks on this channel's credit event
    // (or on an engine event registered via AddCreditObserver); waking it
    // when ANY channel of the tenant releases quota units is what keeps a
    // quota-parked producer from deadlocking.
    config.quota->AddObserver(&channel->credit_event_);
  }
  if (channel->batched_mode_) {
    channel->pending_.reserve(std::max<uint32_t>(config.post_batch, 1));
  }
  channel->queue_->AddRemoteWriteListener([ch](uint64_t, uint64_t) {
    ch->data_event_.Notify();
    for (sim::Event* observer : ch->data_observers_) observer->Notify();
  });
  channel->credit_mr_->AddRemoteWriteListener(
      [ch](uint64_t, uint64_t) { ch->OnCreditReturn(); });
  // Every completion of work this channel posts routes back through the
  // flow to the retry machinery (channel writes are unsignaled: the only
  // completions are error reports and acks of retried transfers), even
  // when the carrying endpoints are shared with other channels.
  channel->flow_->SetProducerHandler(
      [ch](const rdma::Completion& c) { return ch->OnProducerCompletion(c); });
  channel->flow_->SetConsumerHandler(
      [ch](const rdma::Completion& c) { return ch->OnConsumerCompletion(c); });

  // Resolve observability handles once. Channels of a tenant-carrying job
  // label their counters {tenant=...} so multi-job snapshots split per
  // job; the default empty tenant keeps the unlabeled instruments
  // (byte-identical single-job snapshots).
  sim::Simulator* sim = fabric->simulator();
  obs::MetricsRegistry& registry = sim->metrics();
  const obs::LabelSet labels =
      config.tenant.empty()
          ? obs::LabelSet{}
          : obs::LabelSet{{obs::kLabelTenant, config.tenant}};
  channel->retries_counter_ =
      registry.GetCounter(obs::metric::kChannelRetries, labels);
  if (channel->batched_mode_) {
    // Opt-in instruments: never registered on default-config channels so
    // the canonical engine snapshots stay byte-identical.
    channel->batches_counter_ =
        registry.GetCounter(obs::metric::kChannelBatches, labels);
    channel->doorbells_counter_ =
        registry.GetCounter(obs::metric::kChannelDoorbells, labels);
    channel->inline_counter_ =
        registry.GetCounter(obs::metric::kChannelInlineSends, labels);
    channel->coalesced_counter_ =
        registry.GetCounter(obs::metric::kChannelCoalescedSlots, labels);
  }
  if (obs::Tracer* tracer = sim->tracer()) {
    channel->tracer_ = tracer;
    channel->trace_transfer_ = tracer->Intern("channel.transfer");
    channel->trace_retry_ = tracer->Intern("channel.qp_retry");
    channel->trace_close_ = tracer->Intern("channel.close");
    channel->trace_cat_ = tracer->Intern("channel");
  }
  return channel;
}

uint64_t RdmaChannel::released_acked() const {
  uint64_t v;
  std::memcpy(&v, credit_mr_->data(), sizeof(v));
  return v;
}

rdma::UnreadRange RdmaChannel::UnusedPayload(uint32_t first,
                                             uint32_t run) const {
  const uint32_t last = first + run - 1;
  const SlotFooter footer = ReadFooter(staging_->data() + FooterOffset(last));
  const uint64_t base = SlotOffset(last) - SlotOffset(first);
  return rdma::UnreadRange{base + footer.payload_len,
                           base + payload_capacity()};
}

bool RdmaChannel::has_credit() const {
  return acquired_count_ - released_acked() < config_.credits;
}

bool RdmaChannel::TryAcquire(SlotRef* out, perf::CpuContext* cpu) {
  if (broken_) {
    cpu->Charge(perf::Op::kPollPause);
    return false;
  }
  if (!has_credit()) {
    if (!pending_.empty()) {
      // Out of credits with queued WRs: ring the doorbell now, or the
      // consumer never sees the messages whose credits we are waiting for.
      const Status status = Flush(cpu);
      if (!status.ok()) return false;
    }
    // Empty credit check: one pause-loop iteration on the producer.
    cpu->Charge(perf::Op::kPollPause);
    return false;
  }
  if (config_.replay_buffer_slots > 0 &&
      retained_ >= config_.replay_buffer_slots) {
    // Replay buffer full: the producer may not outrun the consumer's
    // checkpoints by more than the bound.
    cpu->Charge(perf::Op::kPollPause);
    return false;
  }
  if (config_.quota != nullptr && !config_.quota->TryCharge()) {
    // Tenant over its NIC-credit quota: back-pressure exactly like credit
    // exhaustion. The quota's observers fire on every release, so parked
    // producers re-check.
    cpu->Charge(perf::Op::kPollPause);
    return false;
  }
  const uint32_t slot = static_cast<uint32_t>(acquired_count_ % config_.credits);
  out->payload = staging_->data() + SlotOffset(slot);
  out->capacity = payload_capacity();
  out->slot_index = slot;
  out->acquire_time = sim_->now();
  ++acquired_count_;
  return true;
}

Status RdmaChannel::Post(const SlotRef& slot, uint64_t payload_len,
                         uint64_t user_tag, int64_t watermark,
                         perf::CpuContext* cpu) {
  if (broken_) {
    return Status::Unavailable("channel closed: " +
                               std::string(channel_status_.message()));
  }
  if (payload_len > payload_capacity()) {
    return Status::InvalidArgument("payload exceeds slot capacity");
  }
  const uint32_t expected_slot =
      static_cast<uint32_t>(sent_count_ % config_.credits);
  if (slot.slot_index != expected_slot) {
    return Status::FailedPrecondition("slots must be posted in order");
  }

  SlotFooter footer;
  footer.payload_len = static_cast<uint32_t>(payload_len);
  footer.seq = static_cast<uint32_t>(sent_count_ / config_.credits + 1);
  footer.user_tag = user_tag;
  footer.watermark = watermark;
  footer.send_time = slot.acquire_time;
  WriteFooter(staging_->data() + FooterOffset(slot.slot_index), footer);

  if (config_.replay_buffer_slots > 0) ++retained_;

  if (batched_mode_) {
    // Decomposed post: build the WQE now, ring the doorbell at Flush().
    // The inline decision waits until Flush(), where adjacent-slot WRs
    // coalesce and the final wire size of each WRITE is known.
    cpu->Charge(perf::Op::kRdmaWqeBuild);
    ++sent_count_;
    pending_.push_back(PendingWr{sent_count_, slot.slot_index});
    if (pending_.size() >= config_.post_batch) return Flush(cpu);
    return Status::OK();
  }

  // One RDMA WRITE of the whole fixed-size slot (flat layout: payload and
  // footer move in a single request). Unsignaled: credit return already
  // proves completion, so no sender CQE is needed (selective signaling) —
  // error completions still surface and drive the retry machinery.
  cpu->Charge(perf::Op::kRdmaPost);
  ++sent_count_;
  return flow_->PostToConsumer(
      rdma::MemorySpan{staging_, SlotOffset(slot.slot_index),
                       config_.slot_bytes},
      queue_->remote_key(), SlotOffset(slot.slot_index),
      MakeWrId(sent_count_, kWrSlot), /*signaled=*/false,
      /*inline_send=*/false, UnusedPayload(slot.slot_index, 1));
}

Status RdmaChannel::Flush(perf::CpuContext* cpu) {
  if (pending_.empty()) return Status::OK();
  if (broken_) {
    pending_.clear();
    return Status::Unavailable("channel closed: " +
                               std::string(channel_status_.message()));
  }
  // One doorbell (MMIO write) covers the whole queued batch — the
  // amortization doorbell batching exists for.
  cpu->Charge(perf::Op::kRdmaDoorbell);
  if (doorbells_counter_ != nullptr) doorbells_counter_->Add(1);
  if (batches_counter_ != nullptr) batches_counter_->Add(1);
  for (size_t i = 0; i < pending_.size();) {
    const PendingWr& wr = pending_[i];
    // WR coalescing: queued WRITEs to consecutive ring slots are contiguous
    // in both the producer staging queue and the consumer mirror (flat
    // layout), so one spanning WRITE carries the whole run — one wire
    // message (one per-message overhead at each NIC) instead of run_len.
    // Runs never cross the ring wrap (slot c-1 -> 0 is not contiguous).
    size_t run = 1;
    while (i + run < pending_.size() &&
           pending_[i + run].slot == wr.slot + run) {
      ++run;
    }
    const uint64_t wire_bytes = uint64_t(run) * config_.slot_bytes;
    // Inline decision on the coalesced message: the payload travels in the
    // WQE (kRdmaInlineCopyPerByte on the producer CPU) and the NIC skips
    // the payload DMA fetch (NicConfig::inline_overhead_discount).
    const bool inline_write = config_.inline_threshold > 0 &&
                              wire_bytes <= config_.inline_threshold;
    if (inline_write) {
      cpu->Charge(perf::Op::kRdmaInlineCopyPerByte, double(wire_bytes));
    }
    merged_run_len_[wr.slot] = static_cast<uint32_t>(run);
    const Status status = flow_->PostToConsumer(
        rdma::MemorySpan{staging_, SlotOffset(wr.slot), wire_bytes},
        queue_->remote_key(), SlotOffset(wr.slot), MakeWrId(wr.msg, kWrSlot),
        /*signaled=*/false, inline_write,
        UnusedPayload(wr.slot, static_cast<uint32_t>(run)));
    if (!status.ok()) {
      pending_.clear();
      return status;
    }
    if (inline_counter_ != nullptr && inline_write) inline_counter_->Add(1);
    if (coalesced_counter_ != nullptr && run > 1) coalesced_counter_->Add(run);
    i += run;
  }
  pending_.clear();
  return Status::OK();
}

void RdmaChannel::MarkCheckpoint() {
  if (retained_ == 0) return;
  retained_ = 0;
  // Producers blocked on the replay-buffer bound can acquire again.
  credit_event_.Notify();
  for (sim::Event* observer : credit_observers_) observer->Notify();
}

bool RdmaChannel::TryPoll(InboundBuffer* out, perf::CpuContext* cpu) {
  const uint32_t slot = static_cast<uint32_t>(received_count_ % config_.credits);
  const SlotFooter footer = ReadFooter(queue_->data() + FooterOffset(slot));
  const uint32_t expected_seq =
      static_cast<uint32_t>(received_count_ / config_.credits + 1);
  if (footer.seq != expected_seq) {
    cpu->Charge(perf::Op::kPollPause);
    return false;
  }
  cpu->Charge(perf::Op::kCqPoll);
  out->payload = queue_->data() + SlotOffset(slot);
  out->payload_len = footer.payload_len;
  out->user_tag = footer.user_tag;
  out->watermark = footer.watermark;
  out->send_time = footer.send_time;
  out->slot_index = slot;
  ++received_count_;
  if (tracer_ != nullptr) {
    // acquire -> poll, stamped on the consumer's channel track.
    tracer_->Complete(footer.send_time, sim_->now() - footer.send_time,
                      trace_transfer_, trace_cat_, consumer_node_,
                      obs::kTrackChannel);
  }
  return true;
}

Status RdmaChannel::Release(const InboundBuffer& buffer,
                            perf::CpuContext* cpu) {
  if (broken_) return Status::OK();  // credits are moot on a dead channel
  const uint32_t expected_slot =
      static_cast<uint32_t>(released_count_ % config_.credits);
  if (buffer.slot_index != expected_slot) {
    return Status::FailedPrecondition("buffers must be released in order");
  }
  ++released_count_;
  // Publish the cumulative release count into the producer's credit
  // counter: one header-only RDMA WRITE, idempotent and coalescing (a
  // retried credit write simply re-publishes the latest count).
  std::memcpy(credit_src_->data(), &released_count_, 8);
  cpu->Charge(perf::Op::kCreditUpdate);
  return flow_->PostToProducer(rdma::MemorySpan{credit_src_, 0, 8},
                               credit_mr_->remote_key(), /*remote_offset=*/0,
                               MakeWrId(released_count_, kWrCredit),
                               /*signaled=*/false);
}

// ---------------------------------------------------------------------------
// Fault handling: bounded retry with exponential backoff in virtual time
// ---------------------------------------------------------------------------

bool RdmaChannel::OnProducerCompletion(const rdma::Completion& c) {
  if (c.ok()) {
    retry_attempts_.erase(c.wr_id);
    return true;
  }
  if (broken_) return true;  // already closed: swallow the flush storm
  const uint32_t attempts = ++retry_attempts_[c.wr_id];
  if (attempts > config_.max_retries) {
    CloseChannel(Status::Unavailable(
        "channel retry budget exhausted: " +
        std::string(rdma::WcStatusName(c.status))));
    return true;
  }
  ++retries_;
  retries_counter_->Add(1);
  if (tracer_ != nullptr) {
    tracer_->Instant(sim_->now(), trace_retry_, trace_cat_, producer_node_,
                     obs::kTrackChannel);
  }
  const Nanos backoff = kRetryBackoffBase << (attempts > 1 ? attempts - 1 : 0);
  const uint64_t wr_id = c.wr_id;
  sim_->ScheduleAt(sim_->now() + backoff, [this, wr_id] { RetryPost(wr_id); });
  return true;
}

bool RdmaChannel::OnConsumerCompletion(const rdma::Completion& c) {
  if (c.ok()) {
    credit_attempts_ = 0;
    credit_retry_pending_ = false;
    return true;
  }
  if (broken_) return true;
  if (credit_retry_pending_) return true;  // one retry in flight is enough
  const uint32_t attempts = ++credit_attempts_;
  if (attempts > config_.max_retries) {
    CloseChannel(Status::Unavailable(
        "credit-return retry budget exhausted: " +
        std::string(rdma::WcStatusName(c.status))));
    return true;
  }
  ++retries_;
  retries_counter_->Add(1);
  if (tracer_ != nullptr) {
    tracer_->Instant(sim_->now(), trace_retry_, trace_cat_, consumer_node_,
                     obs::kTrackChannel);
  }
  credit_retry_pending_ = true;
  const Nanos backoff = kRetryBackoffBase << (attempts > 1 ? attempts - 1 : 0);
  sim_->ScheduleAt(sim_->now() + backoff, [this] { RetryCreditWrite(); });
  return true;
}

void RdmaChannel::RetryPost(uint64_t wr_id) {
  if (broken_) return;
  // Only slot writes complete on the producer side; credit writes retry
  // through RetryCreditWrite.
  SLASH_CHECK_EQ(wr_id % 4, uint64_t(kWrSlot));
  const uint64_t msg = wr_id / 4;
  const uint32_t slot = static_cast<uint32_t>((msg - 1) % config_.credits);
  // The staging bytes for `msg` are intact: slots are not reused until the
  // consumer releases them, and the consumer polls in order, so a lost
  // message blocks release of its own slot. A coalesced WRITE (doorbell
  // batching) failed as one wire message: re-post the whole recorded span.
  // Every covered slot's bytes are still intact — none of their credits can
  // have returned, because the in-order consumer cannot poll past the lost
  // message.
  const uint32_t run = merged_run_len_[slot];
  const Status status = flow_->PostToConsumer(
      rdma::MemorySpan{staging_, SlotOffset(slot),
                       uint64_t(run) * config_.slot_bytes},
      queue_->remote_key(), SlotOffset(slot), wr_id, /*signaled=*/true,
      /*inline_send=*/false, UnusedPayload(slot, run));
  if (!status.ok()) CloseChannel(status);
}

void RdmaChannel::RetryCreditWrite() {
  credit_retry_pending_ = false;
  if (broken_) return;
  // Cumulative counter: just re-publish the latest value.
  std::memcpy(credit_src_->data(), &released_count_, 8);
  Status status = flow_->PostToProducer(
      rdma::MemorySpan{credit_src_, 0, 8}, credit_mr_->remote_key(),
      /*remote_offset=*/0, MakeWrId(released_count_, kWrCredit),
      /*signaled=*/true);
  if (!status.ok()) CloseChannel(status);
}

void RdmaChannel::OnCreditReturn() {
  if (config_.quota != nullptr) {
    const uint64_t acked = released_acked();
    if (acked > quota_released_) {
      config_.quota->Release(acked - quota_released_);
      quota_released_ = acked;
    }
  }
  credit_event_.Notify();
  for (sim::Event* observer : credit_observers_) observer->Notify();
}

void RdmaChannel::CloseChannel(const Status& status) {
  if (broken_) return;
  broken_ = true;
  channel_status_ = status;
  if (config_.quota != nullptr && acquired_count_ > quota_released_) {
    // Credits held by a dead channel never come back on the wire; return
    // them to the tenant so its surviving channels are not starved.
    config_.quota->Release(acquired_count_ - quota_released_);
    quota_released_ = acquired_count_;
  }
  if (tracer_ != nullptr) {
    tracer_->Instant(sim_->now(), trace_close_, trace_cat_, producer_node_,
                     obs::kTrackChannel);
  }
  // Wake every parked producer/consumer so it can observe broken() and
  // unwind instead of sleeping forever on a channel that will never move.
  credit_event_.Notify();
  data_event_.Notify();
  for (sim::Event* observer : data_observers_) observer->Notify();
  for (sim::Event* observer : credit_observers_) observer->Notify();
  if (close_handler_) close_handler_(status);
}

// ---------------------------------------------------------------------------
// PullChannel (READ-based pull model, ablation only)
// ---------------------------------------------------------------------------

PullChannel::PullChannel(rdma::Fabric* fabric, int producer_node,
                         int consumer_node, const ChannelConfig& config)
    : fabric_(fabric),
      sim_(fabric->simulator()),
      producer_node_(producer_node),
      consumer_node_(consumer_node),
      config_(config),
      credit_event_(fabric->simulator()) {}

std::unique_ptr<PullChannel> PullChannel::Create(rdma::Fabric* fabric,
                                                 int producer_node,
                                                 int consumer_node,
                                                 const ChannelConfig& config) {
  SLASH_CHECK_GT(config.credits, 0u);
  SLASH_CHECK_GT(config.slot_bytes, kFooterBytes);
  auto channel = std::unique_ptr<PullChannel>(
      new PullChannel(fabric, producer_node, consumer_node, config));
  const uint64_t queue_bytes = uint64_t(config.credits) * config.slot_bytes;
  channel->source_ = fabric->pd(producer_node)->RegisterRegion(queue_bytes);
  channel->credit_mr_ = fabric->pd(producer_node)->RegisterRegion(64);
  channel->read_buffer_ =
      fabric->pd(consumer_node)->RegisterRegion(config.slot_bytes + 64);
  rdma::QpPair qp = fabric->Connect(producer_node, consumer_node);
  channel->producer_qp_ = qp.first;
  channel->consumer_qp_ = qp.second;
  PullChannel* ch = channel.get();
  channel->credit_mr_->AddRemoteWriteListener(
      [ch](uint64_t, uint64_t) { ch->credit_event_.Notify(); });
  return channel;
}

bool PullChannel::TryAcquire(SlotRef* out, perf::CpuContext* cpu) {
  uint64_t released;
  std::memcpy(&released, credit_mr_->data(), sizeof(released));
  if (acquired_count_ - released >= config_.credits) {
    cpu->Charge(perf::Op::kPollPause);
    return false;
  }
  const uint32_t slot = static_cast<uint32_t>(acquired_count_ % config_.credits);
  out->payload = source_->data() + SlotOffset(slot);
  out->capacity = payload_capacity();
  out->slot_index = slot;
  out->acquire_time = sim_->now();
  ++acquired_count_;
  return true;
}

Status PullChannel::Post(const SlotRef& slot, uint64_t payload_len,
                         uint64_t user_tag, int64_t watermark,
                         perf::CpuContext* cpu) {
  if (payload_len > payload_capacity()) {
    return Status::InvalidArgument("payload exceeds slot capacity");
  }
  SlotFooter footer;
  footer.payload_len = static_cast<uint32_t>(payload_len);
  footer.seq = static_cast<uint32_t>(produced_count_ / config_.credits + 1);
  footer.user_tag = user_tag;
  footer.watermark = watermark;
  footer.send_time = slot.acquire_time;
  WriteFooter(source_->data() + SlotOffset(slot.slot_index) +
                  config_.slot_bytes - kFooterBytes,
              footer);
  ++produced_count_;
  // Publication is a local store; the consumer pulls over the network.
  cpu->Charge(perf::Op::kProjectField);
  return Status::OK();
}

sim::Task PullChannel::Pull(PullResult* result, perf::CpuContext* cpu) {
  result->ready = false;
  const uint32_t slot = static_cast<uint32_t>(pulled_count_ % config_.credits);
  cpu->Charge(perf::Op::kRdmaPost);
  co_await cpu->Sync();
  const uint64_t wr_id = pulled_count_ + 1;
  SLASH_CHECK(consumer_qp_
                  ->PostRead(rdma::MemorySpan{read_buffer_, 0,
                                              config_.slot_bytes},
                             source_->remote_key(), SlotOffset(slot), wr_id)
                  .ok());
  rdma::Completion c;
  while (!consumer_qp_->send_cq().TryPoll(&c)) {
    co_await cpu->Park(consumer_qp_->send_cq().ready_event());
  }
  cpu->Charge(perf::Op::kCqPoll);
  if (!c.ok()) co_return;  // failed READ: not ready, caller decides
  const SlotFooter footer =
      ReadFooter(read_buffer_->data() + config_.slot_bytes - kFooterBytes);
  const uint32_t expected_seq =
      static_cast<uint32_t>(pulled_count_ / config_.credits + 1);
  if (footer.seq != expected_seq) co_return;  // not ready: wasted round-trip

  result->ready = true;
  result->buffer.payload = read_buffer_->data();
  result->buffer.payload_len = footer.payload_len;
  result->buffer.user_tag = footer.user_tag;
  result->buffer.watermark = footer.watermark;
  result->buffer.send_time = footer.send_time;
  result->buffer.slot_index = slot;
  ++pulled_count_;
}

Status PullChannel::Release(const InboundBuffer& buffer,
                            perf::CpuContext* cpu) {
  ++released_count_;
  std::memcpy(read_buffer_->data() + config_.slot_bytes, &released_count_, 8);
  cpu->Charge(perf::Op::kCreditUpdate);
  return consumer_qp_->PostWrite(
      rdma::MemorySpan{read_buffer_, config_.slot_bytes, 8},
      credit_mr_->remote_key(), /*remote_offset=*/0,
      /*wr_id=*/released_count_, /*signaled=*/false);
}

}  // namespace slash::channel
