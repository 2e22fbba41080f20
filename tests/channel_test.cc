// Tests for the RDMA channel: credit-based flow control invariants, FIFO
// delivery, footer semantics, zero-copy external posts, and the pull-model
// ablation channel. Includes parameterized property sweeps over credit
// counts, slot sizes, and message counts (Sec. 6.2 "Properties": FIFO
// order, no overwrite of unread buffers, producer stalls without credit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "channel/rdma_channel.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "perf/cost_model.h"
#include "rdma/fabric.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace slash::channel {
namespace {

struct Harness {
  sim::Simulator sim;
  rdma::Fabric fabric;
  perf::CpuContext producer_cpu;
  perf::CpuContext consumer_cpu;

  explicit Harness(int nodes = 2)
      : fabric(&sim,
               [] {
                 rdma::FabricConfig cfg;
                 cfg.nodes = 2;
                 return cfg;
               }()),
        producer_cpu(&sim, &perf::CostModel::Default()),
        consumer_cpu(&sim, &perf::CostModel::Default()) {}
};

// Producer: sends `count` messages, each payload filled with a marker byte
// derived from the message id and carrying the id as user_tag.
sim::Task Producer(RdmaChannel* ch, int count, uint64_t payload_len,
                   perf::CpuContext* cpu, uint64_t* max_in_flight) {
  for (int i = 0; i < count; ++i) {
    SlotRef slot;
    while (!ch->TryAcquire(&slot, cpu)) {
      co_await ch->credit_event().Wait();
    }
    std::memset(slot.payload, i % 251, payload_len);
    SLASH_CHECK(ch->Post(slot, payload_len, /*user_tag=*/i,
                         /*watermark=*/i * 10, cpu)
                    .ok());
    const uint64_t in_flight = ch->sent_count() - ch->received_count();
    if (in_flight > *max_in_flight) *max_in_flight = in_flight;
    co_await cpu->Sync();
  }
}

// Consumer: polls `count` messages, verifies content and order.
sim::Task Consumer(RdmaChannel* ch, int count, uint64_t payload_len,
                   perf::CpuContext* cpu, std::vector<uint64_t>* tags,
                   Nanos process_time = 0) {
  for (int i = 0; i < count; ++i) {
    InboundBuffer buffer;
    while (!ch->TryPoll(&buffer, cpu)) {
      co_await ch->data_event().Wait();
    }
    EXPECT_EQ(buffer.payload_len, payload_len);
    bool intact = true;
    for (uint64_t b = 0; b < buffer.payload_len; ++b) {
      intact &= buffer.payload[b] == buffer.user_tag % 251;
    }
    EXPECT_TRUE(intact) << "corrupted payload in message " << buffer.user_tag;
    tags->push_back(buffer.user_tag);
    EXPECT_EQ(buffer.watermark, int64_t(buffer.user_tag) * 10);
    if (process_time > 0) co_await cpu->simulator()->Delay(process_time);
    SLASH_CHECK(ch->Release(buffer, cpu).ok());
    co_await cpu->Sync();
  }
}

TEST(RdmaChannelTest, DeliversMessagesFifoWithIntactPayload) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 4096;
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  std::vector<uint64_t> tags;
  uint64_t max_in_flight = 0;
  h.sim.Spawn(Producer(ch.get(), 50, 1000, &h.producer_cpu, &max_in_flight));
  h.sim.Spawn(Consumer(ch.get(), 50, 1000, &h.consumer_cpu, &tags));
  h.sim.Run();
  ASSERT_EQ(tags.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(tags[i], uint64_t(i));
  EXPECT_EQ(h.sim.pending_tasks(), 0);
}

TEST(RdmaChannelTest, ProducerNeverExceedsCredits) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 3;
  cfg.slot_bytes = 2048;
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  std::vector<uint64_t> tags;
  uint64_t max_in_flight = 0;
  // Slow consumer: forces the producer against the credit limit.
  h.sim.Spawn(Producer(ch.get(), 40, 512, &h.producer_cpu, &max_in_flight));
  h.sim.Spawn(Consumer(ch.get(), 40, 512, &h.consumer_cpu, &tags,
                       /*process_time=*/50000));
  h.sim.Run();
  EXPECT_EQ(tags.size(), 40u);
  // Invariant: un-released messages in flight never exceed the credit count.
  EXPECT_LE(max_in_flight, cfg.credits);
}

// --- Verbs-level batching ----------------------------------------------------

// Producer for the batched configs: identical wire behaviour to Producer,
// plus the mandatory Flush before parking so the queued tail drains.
sim::Task FlushingProducer(RdmaChannel* ch, int count, perf::CpuContext* cpu,
                           uint64_t small_len, uint64_t large_len) {
  for (int i = 0; i < count; ++i) {
    SlotRef slot;
    while (!ch->TryAcquire(&slot, cpu)) {
      co_await ch->credit_event().Wait();
    }
    const uint64_t len = i % 2 == 0 ? small_len : large_len;
    std::memset(slot.payload, i % 251, len);
    SLASH_CHECK(ch->Post(slot, len, /*user_tag=*/i, /*watermark=*/i * 10, cpu)
                    .ok());
    co_await cpu->Sync();
  }
  SLASH_CHECK(ch->Flush(cpu).ok());
}

sim::Task MixedSizeConsumer(RdmaChannel* ch, int count, perf::CpuContext* cpu,
                            std::vector<uint64_t>* tags, uint64_t small_len,
                            uint64_t large_len) {
  for (int i = 0; i < count; ++i) {
    InboundBuffer buffer;
    while (!ch->TryPoll(&buffer, cpu)) {
      co_await ch->data_event().Wait();
    }
    EXPECT_EQ(buffer.payload_len,
              buffer.user_tag % 2 == 0 ? small_len : large_len);
    bool intact = true;
    for (uint64_t b = 0; b < buffer.payload_len; ++b) {
      intact &= buffer.payload[b] == buffer.user_tag % 251;
    }
    EXPECT_TRUE(intact) << "corrupted payload in message " << buffer.user_tag;
    EXPECT_EQ(buffer.watermark, int64_t(buffer.user_tag) * 10);
    tags->push_back(buffer.user_tag);
    SLASH_CHECK(ch->Release(buffer, cpu).ok());
    co_await cpu->Sync();
  }
}

TEST(RdmaChannelTest, DoorbellBatchingPreservesFifoAndDrainsOnFlush) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 4096;
  cfg.post_batch = 4;  // doorbell batching on, protocol unchanged
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  std::vector<uint64_t> tags;
  h.sim.Spawn(FlushingProducer(ch.get(), 50, &h.producer_cpu, 1000, 1000));
  h.sim.Spawn(MixedSizeConsumer(ch.get(), 50, &h.consumer_cpu, &tags, 1000,
                                1000));
  h.sim.Run();
  ASSERT_EQ(tags.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(tags[i], uint64_t(i));
  EXPECT_EQ(ch->pending_posts(), 0u);
  EXPECT_EQ(h.sim.pending_tasks(), 0);
}

TEST(RdmaChannelTest, MixedSizesUnderBatchingStayFifoAndIntact) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 4096;
  cfg.post_batch = 2;
  cfg.inline_threshold = 2 * 4096;  // every coalesced run goes inline
  obs::MetricsRegistry& registry = h.sim.metrics();
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  std::vector<uint64_t> tags;
  // Alternating small/large payloads: every slot ships whole, so the
  // consumer's in-order footer poll must see intact payloads of either
  // size whether a message went alone or inside a coalesced WRITE.
  h.sim.Spawn(FlushingProducer(ch.get(), 60, &h.producer_cpu, 32, 2000));
  h.sim.Spawn(MixedSizeConsumer(ch.get(), 60, &h.consumer_cpu, &tags, 32,
                                2000));
  h.sim.Run();
  ASSERT_EQ(tags.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(tags[i], uint64_t(i));
  EXPECT_EQ(ch->pending_posts(), 0u);
  EXPECT_EQ(h.sim.pending_tasks(), 0);
  // Runs hold at most post_batch = 2 slots, so the wire WRITEs are the
  // coalesced pairs plus the single-slot rest; every one of them inline.
  const uint64_t paired =
      registry.GetCounter(obs::metric::kChannelCoalescedSlots)->value();
  EXPECT_GT(paired, 0u);
  EXPECT_EQ(registry.GetCounter(obs::metric::kChannelInlineSends)->value(),
            paired / 2 + (60 - paired));
}

TEST(RdmaChannelTest, PollOnEmptyChannelFailsAndChargesPause) {
  Harness h;
  ChannelConfig cfg;
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  InboundBuffer buffer;
  const double before =
      h.consumer_cpu.counters().cycles[int(perf::Category::kBackEndCore)];
  EXPECT_FALSE(ch->TryPoll(&buffer, &h.consumer_cpu));
  EXPECT_GT(h.consumer_cpu.counters().cycles[int(perf::Category::kBackEndCore)],
            before);
}

TEST(RdmaChannelTest, AcquireFailsWhenNoCredit) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 2;
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  SlotRef a, b, c;
  EXPECT_TRUE(ch->TryAcquire(&a, &h.producer_cpu));
  EXPECT_TRUE(ch->TryAcquire(&b, &h.producer_cpu));
  EXPECT_FALSE(ch->TryAcquire(&c, &h.producer_cpu));
  EXPECT_FALSE(ch->has_credit());
}

TEST(RdmaChannelTest, PostValidatesPayloadSizeAndOrder) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 1024;
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  SlotRef a, b;
  ASSERT_TRUE(ch->TryAcquire(&a, &h.producer_cpu));
  ASSERT_TRUE(ch->TryAcquire(&b, &h.producer_cpu));
  EXPECT_EQ(ch->Post(a, 5000, 0, 0, &h.producer_cpu).code(),
            StatusCode::kInvalidArgument);
  // Posting slot b before slot a violates ordering.
  EXPECT_EQ(ch->Post(b, 10, 0, 0, &h.producer_cpu).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(ch->Post(a, 10, 0, 0, &h.producer_cpu).ok());
  EXPECT_TRUE(ch->Post(b, 10, 0, 0, &h.producer_cpu).ok());
}

TEST(RdmaChannelTest, ReleaseOutOfOrderRejected) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 4;
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  InboundBuffer fake;
  fake.slot_index = 2;  // expected release order starts at slot 0
  EXPECT_EQ(ch->Release(fake, &h.consumer_cpu).code(),
            StatusCode::kFailedPrecondition);
}

TEST(RdmaChannelTest, WatermarkAndTagPiggybackIntact) {
  Harness h;
  ChannelConfig cfg;
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  SlotRef slot;
  ASSERT_TRUE(ch->TryAcquire(&slot, &h.producer_cpu));
  std::memset(slot.payload, 0xAB, 64);
  ASSERT_TRUE(ch->Post(slot, 64, /*user_tag=*/0xFEED,
                       /*watermark=*/-123456789, &h.producer_cpu)
                  .ok());
  h.sim.Run();
  InboundBuffer buffer;
  ASSERT_TRUE(ch->TryPoll(&buffer, &h.consumer_cpu));
  EXPECT_EQ(buffer.user_tag, 0xFEEDu);
  EXPECT_EQ(buffer.watermark, -123456789);
  EXPECT_EQ(buffer.payload_len, 64u);
}

// --- Slot WRITEs deliver payload and footer ---------------------------------

// Posts one message per entry of `lens`, message i filled with byte
// i % 251 + 1 and tagged i, then flushes.
sim::Task SizedProducer(RdmaChannel* ch, std::vector<uint64_t> lens,
                        perf::CpuContext* cpu) {
  for (size_t i = 0; i < lens.size(); ++i) {
    SlotRef slot;
    while (!ch->TryAcquire(&slot, cpu)) {
      co_await ch->credit_event().Wait();
    }
    std::memset(slot.payload, int(i % 251) + 1, lens[i]);
    SLASH_CHECK(ch->Post(slot, lens[i], /*user_tag=*/i, 0, cpu).ok());
    co_await cpu->Sync();
  }
  SLASH_CHECK(ch->Flush(cpu).ok());
}

// Receives `count` messages in order and keeps a copy of each payload.
sim::Task CopyingConsumer(RdmaChannel* ch, size_t count, perf::CpuContext* cpu,
                          std::vector<std::vector<uint8_t>>* payloads) {
  while (payloads->size() < count) {
    InboundBuffer buffer;
    while (!ch->TryPoll(&buffer, cpu)) {
      co_await ch->data_event().Wait();
    }
    EXPECT_EQ(buffer.user_tag, payloads->size());
    payloads->emplace_back(buffer.payload, buffer.payload + buffer.payload_len);
    SLASH_CHECK(ch->Release(buffer, cpu).ok());
    co_await cpu->Sync();
  }
}

void ExpectPayloads(const std::vector<uint64_t>& lens,
                    const std::vector<std::vector<uint8_t>>& payloads) {
  ASSERT_EQ(payloads.size(), lens.size());
  for (size_t i = 0; i < lens.size(); ++i) {
    EXPECT_EQ(payloads[i], std::vector<uint8_t>(lens[i], uint8_t(i % 251 + 1)))
        << "message " << i << " of " << lens[i] << " bytes";
  }
}

// Parameter: ChannelConfig::post_batch (1 = one WRITE per slot, > 1 =
// coalesced runs whose last slot carries the unread range).
class SlotWriteTest : public ::testing::TestWithParam<uint32_t> {};

// Each slot WRITE leaves its unused payload area unread at the consumer.
// Partial, empty and full slots round-trip intact over several laps of the
// ring, so a short message lands in a slot that last held a longer one.
TEST_P(SlotWriteTest, PartialEmptyAndFullSlotsRoundTrip) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 1024;
  cfg.post_batch = GetParam();
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  const uint64_t cap = ch->payload_capacity();
  std::vector<uint64_t> lens;
  for (int lap = 0; lap < 6; ++lap) {
    for (const uint64_t len : {cap, uint64_t(0), uint64_t(1), cap - 1,
                               uint64_t(100), cap}) {
      lens.push_back(len);
    }
  }
  std::vector<std::vector<uint8_t>> payloads;
  h.sim.Spawn(SizedProducer(ch.get(), lens, &h.producer_cpu));
  h.sim.Spawn(
      CopyingConsumer(ch.get(), lens.size(), &h.consumer_cpu, &payloads));
  h.sim.Run();
  ExpectPayloads(lens, payloads);
  EXPECT_EQ(ch->pending_posts(), 0u);
  EXPECT_EQ(h.sim.pending_tasks(), 0);
}

// A dropped slot WRITE is re-posted with the same unread range, built from
// the staged footer: the retry delivers the payload intact.
TEST_P(SlotWriteTest, DroppedSlotWriteRetriesWithPayloadIntact) {
  sim::Simulator sim;
  sim::FaultPlan plan;
  plan.drop_rules.push_back({.from = 0,
                             .until = 0,  // forever
                             .src_node = 0,
                             .dst_node = 1,
                             .probability = 1.0,
                             .max_drops = 2});
  sim::FaultInjector injector(&sim, plan);
  sim.set_fault_injector(&injector);
  rdma::Fabric fabric(&sim, rdma::FabricConfig{});
  perf::CpuContext producer_cpu(&sim, &perf::CostModel::Default());
  perf::CpuContext consumer_cpu(&sim, &perf::CostModel::Default());
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 2048;
  cfg.post_batch = GetParam();
  auto ch = RdmaChannel::Create(&fabric, 0, 1, cfg);
  const std::vector<uint64_t> lens = {700, 0, ch->payload_capacity(), 33,
                                      1500, 2, 900, 64};
  std::vector<std::vector<uint8_t>> payloads;
  sim.Spawn(SizedProducer(ch.get(), lens, &producer_cpu));
  sim.Spawn(CopyingConsumer(ch.get(), lens.size(), &consumer_cpu, &payloads));
  sim.Run();
  ExpectPayloads(lens, payloads);
  EXPECT_EQ(injector.dropped_transfers(), 2u);
  EXPECT_EQ(ch->retries(), 2u);
  EXPECT_FALSE(ch->broken());
}

INSTANTIATE_TEST_SUITE_P(PostBatch, SlotWriteTest, ::testing::Values(1u, 3u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "batch" + std::to_string(info.param);
                         });

// --- Property sweep: protocol invariants across configurations -------------

using SweepParam = std::tuple<int /*credits*/, int /*slot_kib*/,
                              int /*messages*/, int /*consumer_delay_us*/>;

class ChannelSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ChannelSweepTest, FifoNoLossNoOverwriteUnderAnyConfig) {
  const auto [credits, slot_kib, messages, delay_us] = GetParam();
  Harness h;
  ChannelConfig cfg;
  cfg.credits = credits;
  cfg.slot_bytes = uint64_t(slot_kib) * kKiB;
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  const uint64_t payload = cfg.slot_bytes - kFooterBytes - 7;
  std::vector<uint64_t> tags;
  uint64_t max_in_flight = 0;
  h.sim.Spawn(
      Producer(ch.get(), messages, payload, &h.producer_cpu, &max_in_flight));
  h.sim.Spawn(Consumer(ch.get(), messages, payload, &h.consumer_cpu, &tags,
                       Nanos(delay_us) * 1000));
  h.sim.Run();
  // No loss, no duplication, FIFO order.
  ASSERT_EQ(tags.size(), size_t(messages));
  for (int i = 0; i < messages; ++i) ASSERT_EQ(tags[i], uint64_t(i));
  // Credit bound respected.
  EXPECT_LE(max_in_flight, uint64_t(credits));
  // Everything terminated (no deadlock).
  EXPECT_EQ(h.sim.pending_tasks(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Protocol, ChannelSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 8, 64),    // credits
                       ::testing::Values(1, 32, 256),     // slot KiB
                       ::testing::Values(1, 17, 100),     // messages
                       ::testing::Values(0, 3)),          // consumer delay us
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "c" + std::to_string(std::get<0>(info.param)) + "_kib" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param)) + "_d" +
             std::to_string(std::get<3>(info.param));
    });

// --- Pull-model ablation channel -------------------------------------------

sim::Task PullProducer(PullChannel* ch, int count, uint64_t payload_len,
                       perf::CpuContext* cpu) {
  for (int i = 0; i < count; ++i) {
    SlotRef slot;
    while (!ch->TryAcquire(&slot, cpu)) {
      co_await ch->credit_event().Wait();
    }
    std::memset(slot.payload, i % 251, payload_len);
    SLASH_CHECK(ch->Post(slot, payload_len, i, 0, cpu).ok());
    co_await cpu->Sync();
  }
}

sim::Task PullConsumer(PullChannel* ch, int count, uint64_t payload_len,
                       perf::CpuContext* cpu, std::vector<uint64_t>* tags,
                       int* wasted_round_trips) {
  int received = 0;
  while (received < count) {
    PullChannel::PullResult result;
    co_await ch->Pull(&result, cpu);
    if (!result.ready) {
      ++*wasted_round_trips;
      continue;
    }
    EXPECT_EQ(result.buffer.payload_len, payload_len);
    bool intact = true;
    for (uint64_t b = 0; b < payload_len; ++b) {
      intact &= result.buffer.payload[b] == result.buffer.user_tag % 251;
    }
    EXPECT_TRUE(intact);
    tags->push_back(result.buffer.user_tag);
    SLASH_CHECK(ch->Release(result.buffer, cpu).ok());
    ++received;
    co_await cpu->Sync();
  }
}

TEST(PullChannelTest, DeliversFifoButPollsOverNetwork) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 4096;
  auto ch = PullChannel::Create(&h.fabric, 0, 1, cfg);
  std::vector<uint64_t> tags;
  int wasted = 0;
  h.sim.Spawn(PullProducer(ch.get(), 30, 512, &h.producer_cpu));
  h.sim.Spawn(PullConsumer(ch.get(), 30, 512, &h.consumer_cpu, &tags,
                           &wasted));
  h.sim.Run();
  ASSERT_EQ(tags.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(tags[i], uint64_t(i));
  EXPECT_EQ(h.sim.pending_tasks(), 0);
}

TEST(PullChannelTest, SlowerThanPushForSameWorkload) {
  const int messages = 50;
  const uint64_t payload = 2048;

  Harness push;
  ChannelConfig cfg;
  cfg.credits = 8;
  cfg.slot_bytes = 4096;
  auto push_ch = RdmaChannel::Create(&push.fabric, 0, 1, cfg);
  std::vector<uint64_t> tags;
  uint64_t max_in_flight = 0;
  push.sim.Spawn(
      Producer(push_ch.get(), messages, payload, &push.producer_cpu,
               &max_in_flight));
  push.sim.Spawn(
      Consumer(push_ch.get(), messages, payload, &push.consumer_cpu, &tags));
  const Nanos push_time = push.sim.Run();

  Harness pull;
  auto pull_ch = PullChannel::Create(&pull.fabric, 0, 1, cfg);
  std::vector<uint64_t> pull_tags;
  int wasted = 0;
  pull.sim.Spawn(PullProducer(pull_ch.get(), messages, payload,
                              &pull.producer_cpu));
  pull.sim.Spawn(PullConsumer(pull_ch.get(), messages, payload,
                              &pull.consumer_cpu, &pull_tags, &wasted));
  const Nanos pull_time = pull.sim.Run();

  EXPECT_EQ(pull_tags.size(), size_t(messages));
  // The pull model pays a round-trip per message: strictly slower.
  EXPECT_GT(pull_time, push_time);
}

// --- Abort -------------------------------------------------------------------

// Aborting a channel returns its rings' pages but keeps them registered: a
// WRITE already in flight still lands, without an error completion, into
// pages that now read zero, and nothing becomes pollable.
TEST(RdmaChannelTest, AbortDiscardsRingsAndAnInFlightWriteStillLands) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 4096;
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  // Keys are (node, registration order): each ring is its node's first
  // region.
  rdma::MemoryRegion* staging = h.fabric.pd(0)->FindByRkey(
      (0u << rdma::ProtectionDomain::kSlotBits) | 1u);
  rdma::MemoryRegion* queue = h.fabric.pd(1)->FindByRkey(
      (1u << rdma::ProtectionDomain::kSlotBits) | 1u);
  ASSERT_NE(staging, nullptr);
  ASSERT_NE(queue, nullptr);
  ASSERT_EQ(queue->size(), uint64_t(cfg.credits) * cfg.slot_bytes);
  int landed = 0;
  queue->AddRemoteWriteListener([&](uint64_t, uint64_t) { ++landed; });

  SlotRef slot;
  ASSERT_TRUE(ch->TryAcquire(&slot, &h.producer_cpu));
  std::memset(slot.payload, 0x7e, 1000);
  ASSERT_TRUE(ch->Post(slot, 1000, /*user_tag=*/1, /*watermark=*/0,
                       &h.producer_cpu)
                  .ok());
  ch->Abort(Status::Unavailable("torn down"));
  EXPECT_TRUE(ch->broken());
  h.sim.Run();

  EXPECT_EQ(landed, 1);
  EXPECT_EQ(ch->retries(), 0u);
  EXPECT_EQ(ch->channel_status().message(), "torn down");
  for (const rdma::MemoryRegion* ring : {staging, queue}) {
    EXPECT_EQ(std::count(ring->data(), ring->data() + ring->size(), 0),
              std::ptrdiff_t(ring->size()));
  }
  InboundBuffer buffer;
  EXPECT_FALSE(ch->TryPoll(&buffer, &h.consumer_cpu));
}

// --- Upstream replay buffer (checkpointing) ---------------------------------

TEST(ReplayBufferTest, CountsPostedMessagesUntilCheckpoint) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 8;
  cfg.slot_bytes = 2048;
  cfg.replay_buffer_slots = 16;
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  std::vector<uint64_t> tags;
  uint64_t max_in_flight = 0;
  h.sim.Spawn(Producer(ch.get(), 10, 700, &h.producer_cpu, &max_in_flight));
  h.sim.Spawn(Consumer(ch.get(), 10, 700, &h.consumer_cpu, &tags));
  h.sim.Run();
  ASSERT_EQ(tags.size(), 10u);

  // Every message posted since the last checkpoint is counted; no payload
  // is copied (replay re-runs the deterministic generators).
  EXPECT_EQ(ch->retained(), 10u);

  ch->MarkCheckpoint();
  EXPECT_EQ(ch->retained(), 0u);
}

TEST(ReplayBufferTest, BoundBackpressuresProducerUntilCheckpoint) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 8;
  cfg.slot_bytes = 2048;
  cfg.replay_buffer_slots = 4;  // tighter than the credit window
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  std::vector<uint64_t> tags;

  // Producer wants 12 messages but the consumer only checkpoints every 4:
  // without MarkCheckpoint the producer would wedge at the bound.
  auto producer = [](RdmaChannel* c, perf::CpuContext* cpu,
                     uint64_t* high_water) -> sim::Task {
    for (int i = 0; i < 12; ++i) {
      SlotRef slot;
      while (!c->TryAcquire(&slot, cpu)) {
        co_await c->credit_event().Wait();
      }
      std::memset(slot.payload, i % 251, 256);
      SLASH_CHECK(c->Post(slot, 256, i, i * 10, cpu).ok());
      *high_water = std::max(*high_water, c->retained());
      co_await cpu->Sync();
    }
  };
  auto consumer = [](RdmaChannel* c, perf::CpuContext* cpu,
                     std::vector<uint64_t>* out) -> sim::Task {
    for (int i = 0; i < 12; ++i) {
      InboundBuffer buffer;
      while (!c->TryPoll(&buffer, cpu)) {
        co_await c->data_event().Wait();
      }
      out->push_back(buffer.user_tag);
      SLASH_CHECK(c->Release(buffer, cpu).ok());
      if (out->size() % 4 == 0) c->MarkCheckpoint();
      co_await cpu->Sync();
    }
  };
  uint64_t high_water = 0;
  h.sim.Spawn(producer(ch.get(), &h.producer_cpu, &high_water));
  h.sim.Spawn(consumer(ch.get(), &h.consumer_cpu, &tags));
  h.sim.Run();

  ASSERT_EQ(tags.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(tags[i], uint64_t(i));
  // The bound held: retention never exceeded replay_buffer_slots.
  EXPECT_LE(high_water, cfg.replay_buffer_slots);
  EXPECT_EQ(h.sim.pending_tasks(), 0);
}

TEST(ReplayBufferTest, DisabledByDefaultRetainsNothing) {
  Harness h;
  ChannelConfig cfg;
  cfg.credits = 4;
  auto ch = RdmaChannel::Create(&h.fabric, 0, 1, cfg);
  std::vector<uint64_t> tags;
  uint64_t max_in_flight = 0;
  h.sim.Spawn(Producer(ch.get(), 8, 128, &h.producer_cpu, &max_in_flight));
  h.sim.Spawn(Consumer(ch.get(), 8, 128, &h.consumer_cpu, &tags));
  h.sim.Run();
  EXPECT_EQ(tags.size(), 8u);
  EXPECT_EQ(ch->retained(), 0u);
}

}  // namespace
}  // namespace slash::channel
