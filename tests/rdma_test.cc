// Unit tests for the simulated RDMA layer: memory registration and
// discard, NIC timing model, one-sided verbs, completion semantics, error
// paths, and the socket/IPoIB transport.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <vector>

#include "perf/cost_model.h"
#include "rdma/fabric.h"
#include "rdma/socket_transport.h"
#include "sim/simulator.h"

namespace slash::rdma {
namespace {

FabricConfig TwoNodeConfig() {
  FabricConfig cfg;
  cfg.nodes = 2;
  cfg.nic.bandwidth_bps = 10e9;     // 10 GB/s for round numbers
  cfg.nic.wire_latency = 1000;      // 1 us
  cfg.nic.per_message_overhead = 0; // exact arithmetic in tests
  return cfg;
}

TEST(MemoryTest, RegisterAndFindByRkey) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* mr = fabric.pd(0)->RegisterRegion(4096);
  ASSERT_NE(mr, nullptr);
  EXPECT_EQ(mr->size(), 4096u);
  EXPECT_EQ(mr->node(), 0);
  EXPECT_EQ(fabric.pd(0)->FindByRkey(mr->remote_key().rkey), mr);
  EXPECT_EQ(fabric.pd(0)->FindByRkey(0xdeadbeef), nullptr);
  EXPECT_EQ(fabric.pd(0)->registered_bytes(), 4096u);
}

// Keys are per domain: they depend only on the node and its registration
// order, not on which fabrics lived earlier in the process.
TEST(MemoryTest, RkeysRepeatAcrossFabrics) {
  auto register_all = [] {
    sim::Simulator sim;
    Fabric fabric(&sim, TwoNodeConfig());
    std::vector<uint32_t> keys;
    for (int i = 0; i < 3; ++i) {
      for (int node = 0; node < 2; ++node) {
        keys.push_back(fabric.pd(node)->RegisterRegion(64)->remote_key().rkey);
      }
    }
    return keys;
  };
  const std::vector<uint32_t> first = register_all();
  EXPECT_EQ(register_all(), first);
}

// A key of another node's domain, key 0 and a slot past the last region
// resolve nowhere: both verbs fail with NotFound and move no bytes.
TEST(MemoryTest, ForeignZeroAndPastTheEndKeysAreNotFound) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* local = fabric.pd(0)->RegisterRegion(64);
  MemoryRegion* remote = fabric.pd(1)->RegisterRegion(64);
  QpPair qp = fabric.Connect(0, 1);
  const uint32_t past_the_end = remote->remote_key().rkey + 1;
  for (const RemoteKey key :
       {local->remote_key(), RemoteKey{}, RemoteKey{past_the_end}}) {
    EXPECT_EQ(fabric.pd(1)->FindByRkey(key.rkey), nullptr);
    EXPECT_EQ(qp.first->PostWrite(MemorySpan{local, 0, 8}, key, 0, 1, true)
                  .code(),
              StatusCode::kNotFound);
    EXPECT_EQ(qp.first->PostRead(MemorySpan{local, 0, 8}, key, 0, 2).code(),
              StatusCode::kNotFound);
  }
  sim.Run();
  Completion c;
  EXPECT_FALSE(qp.first->send_cq().TryPoll(&c));
  EXPECT_EQ(fabric.total_tx_bytes(), 0u);
}

TEST(MemoryTest, RegionsZeroInitialized) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* mr = fabric.pd(0)->RegisterRegion(128);
  for (size_t i = 0; i < 128; ++i) EXPECT_EQ(mr->data()[i], 0);
}

// Regions are carved from the fabric's few mappings, which both domains
// share: enough small and large registrations to outgrow several mappings
// still hand out zeroed, disjoint, aligned regions under the usual keys and
// byte counts.
TEST(MemoryTest, DomainsCarveZeroedDisjointAlignedRegions) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  const uint64_t sizes[] = {64, 8, 4096, 100, 256 * 1024, 2000, 64 * 1024,
                            1, 300 * 1024, 4095, 4097, 1 << 20};
  std::vector<MemoryRegion*> regions;
  uint64_t total[2] = {0, 0};
  uint32_t slots[2] = {0, 0};
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < std::size(sizes); ++i) {
      const int node = int(i % 2);
      MemoryRegion* mr = fabric.pd(node)->RegisterRegion(sizes[i]);
      regions.push_back(mr);
      total[node] += sizes[i];
      EXPECT_EQ(mr->size(), sizes[i]);
      EXPECT_EQ(mr->node(), node);
      ++slots[node];
      EXPECT_EQ(mr->remote_key().rkey,
                (uint32_t(node) << ProtectionDomain::kSlotBits) | slots[node]);
      EXPECT_EQ(fabric.pd(node)->FindByRkey(mr->remote_key().rkey), mr);
      const uint64_t align = mr->size() >= RegionArena::kPageBytes
                                 ? RegionArena::kPageBytes
                                 : RegionArena::kSmallAlign;
      EXPECT_EQ(reinterpret_cast<uintptr_t>(mr->data()) % align, 0u);
      EXPECT_EQ(std::count(mr->data(), mr->data() + mr->size(), 0),
                std::ptrdiff_t(mr->size()))
          << "region of " << mr->size() << " bytes not zeroed";
    }
  }
  // Several times the first mapping, so the arena mapped several.
  ASSERT_GT(total[0] + total[1], 8 * RegionArena::kFirstMappingBytes);
  EXPECT_EQ(fabric.pd(0)->registered_bytes(), total[0]);
  EXPECT_EQ(fabric.pd(1)->registered_bytes(), total[1]);
  // Disjoint: fill each region with its own byte, then every region still
  // holds only its own.
  for (size_t i = 0; i < regions.size(); ++i) {
    std::memset(regions[i]->data(), int(i % 251) + 1, regions[i]->size());
  }
  for (size_t i = 0; i < regions.size(); ++i) {
    const uint8_t mark = uint8_t(i % 251 + 1);
    EXPECT_EQ(std::count(regions[i]->data(),
                         regions[i]->data() + regions[i]->size(), mark),
              std::ptrdiff_t(regions[i]->size()))
        << "region " << i << " overlaps another";
  }
}

// Pages of [data, data + bytes) the OS reports resident (mincore).
size_t ResidentPages(const uint8_t* data, uint64_t bytes) {
  const uint64_t page = uint64_t(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident((bytes + page - 1) / page);
  EXPECT_EQ(mincore(const_cast<uint8_t*>(data), bytes, resident.data()), 0);
  return size_t(std::count_if(resident.begin(), resident.end(),
                              [](unsigned char v) { return (v & 1) != 0; }));
}

// Discard hands a page-sized region's pages back but keeps the region: it
// reads zero, its key still resolves, and a later WRITE lands and fires
// its listener (how a torn-down channel's in-flight WRITEs end up).
TEST(MemoryTest, DiscardReturnsPagesAndKeepsTheRegionRegistered) {
  if (uint64_t(sysconf(_SC_PAGESIZE)) != RegionArena::kPageBytes) {
    GTEST_SKIP() << "OS page size differs from the arena's";
  }
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* src = fabric.pd(0)->RegisterRegion(64);
  const uint64_t bytes = 4 * RegionArena::kPageBytes;
  MemoryRegion* mr = fabric.pd(1)->RegisterRegion(bytes);
  std::memset(mr->data(), 0x5a, bytes);
  EXPECT_EQ(ResidentPages(mr->data(), bytes), 4u);

  mr->Discard();
  EXPECT_EQ(ResidentPages(mr->data(), bytes), 0u);
  EXPECT_EQ(std::count(mr->data(), mr->data() + bytes, 0),
            std::ptrdiff_t(bytes));
  EXPECT_EQ(fabric.pd(1)->FindByRkey(mr->remote_key().rkey), mr);

  int notified = 0;
  mr->AddRemoteWriteListener([&](uint64_t, uint64_t) { ++notified; });
  std::memcpy(src->data(), "late", 4);
  QpPair qp = fabric.Connect(0, 1);
  ASSERT_TRUE(qp.first
                  ->PostWrite(MemorySpan{src, 0, 4}, mr->remote_key(),
                              /*remote_offset=*/bytes - 4, /*wr_id=*/1,
                              /*signaled=*/true)
                  .ok());
  sim.Run();
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(std::memcmp(mr->data() + bytes - 4, "late", 4), 0);
  Completion c;
  ASSERT_TRUE(qp.first->send_cq().TryPoll(&c));
  EXPECT_TRUE(c.ok());
}

// A sub-page region shares a heap chunk with its neighbours: Discard leaves
// it and them intact.
TEST(MemoryTest, DiscardLeavesSubPageRegionsAlone) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* regions[] = {fabric.pd(0)->RegisterRegion(64),
                             fabric.pd(0)->RegisterRegion(100),
                             fabric.pd(0)->RegisterRegion(64)};
  for (int i = 0; i < 3; ++i) {
    std::memset(regions[i]->data(), i + 1, regions[i]->size());
  }
  regions[1]->Discard();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(std::count(regions[i]->data(),
                         regions[i]->data() + regions[i]->size(), i + 1),
              std::ptrdiff_t(regions[i]->size()))
        << "region " << i;
  }
}

TEST(MemoryTest, SpanValidation) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* mr = fabric.pd(0)->RegisterRegion(100);
  EXPECT_TRUE((MemorySpan{mr, 0, 100}).valid());
  EXPECT_TRUE((MemorySpan{mr, 50, 50}).valid());
  EXPECT_FALSE((MemorySpan{mr, 50, 51}).valid());
  EXPECT_FALSE((MemorySpan{nullptr, 0, 0}).valid());
}

TEST(NicTest, TransferDurationMatchesBandwidth) {
  NicConfig cfg;
  cfg.bandwidth_bps = 10e9;
  cfg.per_message_overhead = 0;
  obs::Counter tx_bytes;
  Nic nic(0, cfg, &tx_bytes);
  // 10 GB/s => 10 bytes per ns.
  EXPECT_EQ(nic.TransferDuration(10000), 1000);
}

TEST(NicTest, TxSerializesBackToBack) {
  NicConfig cfg;
  cfg.bandwidth_bps = 10e9;
  cfg.per_message_overhead = 0;
  obs::Counter tx_bytes;
  Nic nic(0, cfg, &tx_bytes);
  EXPECT_EQ(nic.ReserveTx(0, 10000), 1000);
  // Second message posted at t=0 starts after the first finishes.
  EXPECT_EQ(nic.ReserveTx(0, 10000), 2000);
  // A later post on an idle NIC starts at its post time.
  EXPECT_EQ(nic.ReserveTx(10000, 10000), 11000);
  EXPECT_EQ(nic.tx_bytes(), 30000u);
  EXPECT_EQ(nic.tx_messages(), 3u);
}

TEST(NicTest, RxFanInPushesDeliveryBack) {
  NicConfig cfg;
  cfg.bandwidth_bps = 10e9;
  cfg.per_message_overhead = 0;
  obs::Counter tx_bytes;
  Nic nic(0, cfg, &tx_bytes);
  EXPECT_EQ(nic.ReserveRx(1000, 10000), 1000);
  // Second arrival at the same time queues behind the first.
  EXPECT_EQ(nic.ReserveRx(1000, 10000), 2000);
}

struct WriteResult {
  bool remote_notified = false;
  uint64_t notified_offset = 0;
};

TEST(QueuePairTest, OneSidedWriteMovesBytesAndSignals) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* src = fabric.pd(0)->RegisterRegion(1024);
  MemoryRegion* dst = fabric.pd(1)->RegisterRegion(1024);
  QpPair qp = fabric.Connect(0, 1);

  std::memcpy(src->data(), "hello rdma", 10);
  WriteResult result;
  dst->AddRemoteWriteListener([&](uint64_t off, uint64_t len) {
    result.remote_notified = true;
    result.notified_offset = off;
    EXPECT_EQ(len, 10u);
  });

  ASSERT_TRUE(qp.first
                  ->PostWrite(MemorySpan{src, 0, 10}, dst->remote_key(),
                              /*remote_offset=*/100, /*wr_id=*/7,
                              /*signaled=*/true)
                  .ok());
  sim.Run();
  EXPECT_TRUE(result.remote_notified);
  EXPECT_EQ(result.notified_offset, 100u);
  EXPECT_EQ(std::memcmp(dst->data() + 100, "hello rdma", 10), 0);
  Completion c;
  EXPECT_TRUE(qp.first->send_cq().TryPoll(&c));
  EXPECT_EQ(c.wr_id, 7u);
  EXPECT_EQ(c.type, WorkType::kWrite);
  EXPECT_EQ(c.byte_len, 10u);
  // Timing: 10B at 10 GB/s = 1ns tx, +1us wire, ack +1us = completion at
  // 2001ns, so the final sim time reflects the ack event.
  EXPECT_EQ(sim.now(), 2001);
}

TEST(QueuePairTest, UnsignaledWriteProducesNoCompletion) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* src = fabric.pd(0)->RegisterRegion(64);
  MemoryRegion* dst = fabric.pd(1)->RegisterRegion(64);
  QpPair qp = fabric.Connect(0, 1);
  ASSERT_TRUE(qp.first
                  ->PostWrite(MemorySpan{src, 0, 64}, dst->remote_key(), 0, 1,
                              /*signaled=*/false)
                  .ok());
  sim.Run();
  Completion c;
  EXPECT_FALSE(qp.first->send_cq().TryPoll(&c));
  EXPECT_EQ(qp.first->outstanding(), 0);
}

TEST(QueuePairTest, WritesCompleteInOrder) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* src = fabric.pd(0)->RegisterRegion(100000);
  MemoryRegion* dst = fabric.pd(1)->RegisterRegion(100000);
  QpPair qp = fabric.Connect(0, 1);
  // Post a large write then a small one; RC ordering demands the small one
  // lands second.
  std::vector<Nanos> landing;
  dst->AddRemoteWriteListener(
      [&](uint64_t off, uint64_t len) { landing.push_back(off); });
  ASSERT_TRUE(qp.first
                  ->PostWrite(MemorySpan{src, 0, 90000}, dst->remote_key(), 0,
                              1, false)
                  .ok());
  ASSERT_TRUE(qp.first
                  ->PostWrite(MemorySpan{src, 0, 10}, dst->remote_key(),
                              90000, 2, false)
                  .ok());
  sim.Run();
  ASSERT_EQ(landing.size(), 2u);
  EXPECT_EQ(landing[0], 0u);
  EXPECT_EQ(landing[1], 90000u);
}

TEST(QueuePairTest, ErrorPaths) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* src = fabric.pd(0)->RegisterRegion(64);
  MemoryRegion* dst = fabric.pd(1)->RegisterRegion(64);
  QpPair qp = fabric.Connect(0, 1);
  // Unknown rkey.
  EXPECT_EQ(qp.first
                ->PostWrite(MemorySpan{src, 0, 8}, RemoteKey{0xbad}, 0, 1,
                            true)
                .code(),
            StatusCode::kNotFound);
  // Remote out of bounds.
  EXPECT_EQ(qp.first
                ->PostWrite(MemorySpan{src, 0, 8}, dst->remote_key(), 60, 1,
                            true)
                .code(),
            StatusCode::kOutOfRange);
  // Local span invalid.
  EXPECT_EQ(qp.first
                ->PostWrite(MemorySpan{src, 60, 8}, dst->remote_key(), 0, 1,
                            true)
                .code(),
            StatusCode::kInvalidArgument);
  // Wrong node's region as local buffer.
  EXPECT_EQ(qp.first
                ->PostWrite(MemorySpan{dst, 0, 8}, dst->remote_key(), 0, 1,
                            true)
                .code(),
            StatusCode::kInvalidArgument);
}

// What one WRITE of a 1000-byte span did, as seen by both sides.
struct SpanWriteOutcome {
  Nanos arrival = -1;
  Nanos completion = -1;
  uint64_t tx_bytes = 0;
  std::vector<uint8_t> landed;  // the destination region afterwards
};

// Writes a 1000-byte patterned span over a flow into a destination
// pre-filled with a 0xEE sentinel, marking `unread` as the bytes the
// receiver never reads.
SpanWriteOutcome WriteSpan(UnreadRange unread) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* src = fabric.pd(0)->RegisterRegion(1000);
  MemoryRegion* dst = fabric.pd(1)->RegisterRegion(1000);
  Flow* flow = fabric.OpenFlow(0, 1);
  for (int i = 0; i < 1000; ++i) src->data()[i] = uint8_t(i % 251);
  std::memset(dst->data(), 0xEE, 1000);
  SpanWriteOutcome out;
  dst->AddRemoteWriteListener([&](uint64_t off, uint64_t len) {
    EXPECT_EQ(off, 0u);
    EXPECT_EQ(len, 1000u);
    out.arrival = sim.now();
  });
  SLASH_CHECK(flow->PostToConsumer(MemorySpan{src, 0, 1000},
                                   dst->remote_key(), 0, /*wr_id=*/5,
                                   /*signaled=*/true, /*inline_send=*/false,
                                   unread)
                  .ok());
  sim.Run();
  Completion c;
  if (flow->producer_endpoint()->send_cq().TryPoll(&c)) {
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.byte_len, 1000u);
    out.completion = sim.now();
  }
  out.tx_bytes = fabric.total_tx_bytes();
  out.landed.assign(dst->data(), dst->data() + 1000);
  return out;
}

// The NIC times and counts the whole span; delivery skips only the unread
// bytes, which keep whatever the receiver held.
TEST(QueuePairTest, UnreadRangeCostsTheSpanAndDeliversTheRest) {
  const SpanWriteOutcome full = WriteSpan(UnreadRange{});
  const SpanWriteOutcome partial = WriteSpan(UnreadRange{100, 900});
  ASSERT_GT(full.arrival, 0);
  ASSERT_GT(full.completion, full.arrival);
  EXPECT_EQ(partial.arrival, full.arrival);
  EXPECT_EQ(partial.completion, full.completion);
  EXPECT_EQ(partial.tx_bytes, full.tx_bytes);
  EXPECT_EQ(full.tx_bytes, 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(full.landed[i], uint8_t(i % 251)) << i;
    const bool unread = i >= 100 && i < 900;
    EXPECT_EQ(partial.landed[i], unread ? 0xEE : uint8_t(i % 251)) << i;
  }
  // Ranges touching either end of the span.
  const SpanWriteOutcome head = WriteSpan(UnreadRange{0, 10});
  const SpanWriteOutcome tail = WriteSpan(UnreadRange{990, 1000});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(head.landed[i], i < 10 ? 0xEE : uint8_t(i % 251)) << i;
    EXPECT_EQ(tail.landed[i], i >= 990 ? 0xEE : uint8_t(i % 251)) << i;
  }
}

TEST(QueuePairTest, UnreadRangeOutsideTheSpanIsRejected) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* src = fabric.pd(0)->RegisterRegion(64);
  MemoryRegion* dst = fabric.pd(1)->RegisterRegion(64);
  Flow* flow = fabric.OpenFlow(0, 1);
  std::memset(src->data(), 0x11, 64);
  bool notified = false;
  dst->AddRemoteWriteListener([&](uint64_t, uint64_t) { notified = true; });
  for (const UnreadRange unread :
       {UnreadRange{0, 33}, UnreadRange{20, 10}, UnreadRange{33, 33}}) {
    EXPECT_EQ(flow->PostToConsumer(MemorySpan{src, 0, 32}, dst->remote_key(),
                                   0, 1, /*signaled=*/true,
                                   /*inline_send=*/false, unread)
                  .code(),
              StatusCode::kInvalidArgument);
  }
  sim.Run();
  Completion c;
  EXPECT_FALSE(flow->producer_endpoint()->send_cq().TryPoll(&c));
  EXPECT_FALSE(notified);
  EXPECT_EQ(fabric.total_tx_bytes(), 0u);
  EXPECT_EQ(std::count(dst->data(), dst->data() + 64, 0), 64);
}

TEST(QueuePairTest, ReadPullsBytesWithRoundTrip) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  MemoryRegion* local = fabric.pd(0)->RegisterRegion(1024);
  MemoryRegion* remote = fabric.pd(1)->RegisterRegion(1024);
  QpPair qp = fabric.Connect(0, 1);
  std::memcpy(remote->data() + 5, "payload", 7);
  ASSERT_TRUE(
      qp.first->PostRead(MemorySpan{local, 0, 7}, remote->remote_key(), 5, 3)
          .ok());
  sim.Run();
  Completion c;
  ASSERT_TRUE(qp.first->send_cq().TryPoll(&c));
  EXPECT_EQ(c.type, WorkType::kRead);
  EXPECT_EQ(std::memcmp(local->data(), "payload", 7), 0);
  // Round trip: request 16B (~2ns) + 1us, then response 7B (~1ns) + 1us.
  EXPECT_GT(sim.now(), 2000);
}

sim::Task SocketSender(SocketConnection* conn, int node,
                       std::vector<uint8_t> msg, perf::CpuContext* cpu) {
  co_await conn->Send(node, msg.data(), msg.size(), cpu);
}

TEST(SocketTransportTest, DeliversMessagesInOrder) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  SocketConfig scfg;
  SocketConnection conn(&fabric, 0, 1, scfg);
  perf::CpuContext cpu(&sim, &perf::CostModel::Default());

  sim.Spawn(SocketSender(&conn, 0, {1, 2, 3}, &cpu));
  sim.Spawn(SocketSender(&conn, 0, {4, 5}, &cpu));
  sim.Run();

  std::vector<uint8_t> out;
  perf::CpuContext rx_cpu(&sim, &perf::CostModel::Default());
  ASSERT_TRUE(conn.TryReceive(1, &out, &rx_cpu));
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3}));
  ASSERT_TRUE(conn.TryReceive(1, &out, &rx_cpu));
  EXPECT_EQ(out, (std::vector<uint8_t>{4, 5}));
  EXPECT_FALSE(conn.TryReceive(1, &out, &rx_cpu));
  // Both sides paid CPU: syscalls on tx, interrupt+syscall on rx.
  EXPECT_GT(cpu.counters().instructions, 0);
  EXPECT_GT(rx_cpu.counters().instructions, 0);
}

TEST(SocketTransportTest, SlowerThanVerbsForSamePayload) {
  sim::Simulator sim;
  FabricConfig fcfg = TwoNodeConfig();
  Fabric fabric(&sim, fcfg);
  SocketConfig scfg;
  SocketConnection conn(&fabric, 0, 1, scfg);
  perf::CpuContext cpu(&sim, &perf::CostModel::Default());

  const uint64_t payload = 1 * kMiB;
  std::vector<uint8_t> msg(payload, 7);
  sim.Spawn(SocketSender(&conn, 0, msg, &cpu));
  const Nanos socket_done = sim.Run();

  // Same payload over verbs on a fresh fabric.
  sim::Simulator sim2;
  Fabric fabric2(&sim2, fcfg);
  MemoryRegion* src = fabric2.pd(0)->RegisterRegion(payload);
  MemoryRegion* dst = fabric2.pd(1)->RegisterRegion(payload);
  QpPair qp = fabric2.Connect(0, 1);
  ASSERT_TRUE(qp.first
                  ->PostWrite(MemorySpan{src, 0, payload}, dst->remote_key(),
                              0, 1, true)
                  .ok());
  const Nanos verbs_done = sim2.Run();
  EXPECT_GT(socket_done, 2 * verbs_done);
}

TEST(SocketTransportTest, WindowLimitsInFlight) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  SocketConfig scfg;
  scfg.window_bytes = 1024;
  SocketConnection conn(&fabric, 0, 1, scfg);
  perf::CpuContext cpu(&sim, &perf::CostModel::Default());
  // Three 1000-byte messages: the second and third must wait for delivery of
  // predecessors, so total time is at least 2x the single-message time.
  std::vector<uint8_t> msg(1000, 1);
  sim.Spawn(SocketSender(&conn, 0, msg, &cpu));
  sim::Simulator single_sim;
  Fabric single_fabric(&single_sim, TwoNodeConfig());
  SocketConnection single_conn(&single_fabric, 0, 1, scfg);
  perf::CpuContext single_cpu(&single_sim, &perf::CostModel::Default());
  single_sim.Spawn(SocketSender(&single_conn, 0, msg, &single_cpu));
  const Nanos one = single_sim.Run();

  sim.Spawn(SocketSender(&conn, 0, msg, &cpu));
  sim.Spawn(SocketSender(&conn, 0, msg, &cpu));
  const Nanos three = sim.Run();
  EXPECT_GT(three, 2 * one);
  EXPECT_EQ(conn.pending_bytes(1), 3000u);
}

// Abort frees the frames delivered but never read, and a frame still in
// flight is lost: afterwards nothing is pending or readable.
TEST(SocketTransportTest, AbortFreesUnreadFramesAndDropsInFlightOnes) {
  sim::Simulator sim;
  Fabric fabric(&sim, TwoNodeConfig());
  SocketConnection conn(&fabric, 0, 1, SocketConfig{});
  perf::CpuContext cpu(&sim, &perf::CostModel::Default());
  sim.Spawn(SocketSender(&conn, 0, std::vector<uint8_t>(1000, 1), &cpu));
  sim.Run();
  ASSERT_EQ(conn.pending_bytes(1), 1000u);

  // The next frame leaves at once and arrives no sooner than the stack
  // latency plus the wire latency later; the abort falls in between.
  sim.Spawn(SocketSender(&conn, 0, std::vector<uint8_t>(500, 2), &cpu));
  const Nanos abort_at = sim.now() + kIpoibStackLatency;
  sim.ScheduleAt(abort_at, [&] { conn.Abort(); });
  EXPECT_GT(sim.Run(), abort_at);  // the delivery event came after it

  EXPECT_TRUE(conn.aborted());
  EXPECT_EQ(conn.pending_bytes(1), 0u);
  std::vector<uint8_t> out;
  perf::CpuContext rx_cpu(&sim, &perf::CostModel::Default());
  EXPECT_FALSE(conn.TryReceive(1, &out, &rx_cpu));
}

}  // namespace
}  // namespace slash::rdma
