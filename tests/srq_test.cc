// Connection-scaling substrate tests (rdma/srq.h): the flow abstraction
// over shared hub endpoints, exact QP accounting per connection mode,
// fault isolation on shared QPs, and teardown with work still in flight.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "rdma/fabric.h"
#include "sim/simulator.h"

namespace slash::rdma {
namespace {

FabricConfig Config(int nodes, ConnectionMode mode) {
  FabricConfig cfg;
  cfg.nodes = nodes;
  cfg.nic.bandwidth_bps = 10e9;
  cfg.nic.wire_latency = 1000;
  cfg.nic.per_message_overhead = 0;
  cfg.connection.mode = mode;
  return cfg;
}

// ---------------------------------------------------------------------------
// Exact QP accounting per mode
// ---------------------------------------------------------------------------

// Opens the all-pairs flow population (every ordered pair) and returns the
// fabric's resource accounting.
ConnectionStats AllPairsStats(const FabricConfig& cfg) {
  sim::Simulator sim;
  Fabric fabric(&sim, cfg);
  for (int p = 0; p < cfg.nodes; ++p) {
    for (int c = 0; c < cfg.nodes; ++c) {
      if (p != c) fabric.OpenFlow(p, c);
    }
  }
  return fabric.connection_stats();
}

TEST(ConnectionStatsTest, FullMeshCountsQuadratic) {
  const int n = 4;
  FabricConfig cfg = Config(n, ConnectionMode::kFullMesh);
  ConnectionStats stats = AllPairsStats(cfg);
  const uint64_t flows = uint64_t(n) * (n - 1);
  EXPECT_EQ(stats.flows, flows);
  // One dedicated endpoint pair per flow.
  EXPECT_EQ(stats.qp_endpoints, 2 * flows);
  EXPECT_EQ(stats.srqs, 0u);
  // Each node terminates 2(n-1) flows (n-1 outbound + n-1 inbound).
  EXPECT_EQ(stats.max_qp_endpoints_per_node, uint64_t(2 * (n - 1)));
  const uint64_t per_qp = QpMemoryBytes(false);
  EXPECT_EQ(stats.qp_memory_bytes, 2 * flows * per_qp);
  EXPECT_EQ(stats.max_qp_memory_bytes_per_node, 2 * (n - 1) * per_qp);
}

TEST(ConnectionStatsTest, SrqCountsLinear) {
  const int n = 4;
  FabricConfig cfg = Config(n, ConnectionMode::kSrq);
  ConnectionStats stats = AllPairsStats(cfg);
  EXPECT_EQ(stats.flows, uint64_t(n) * (n - 1));
  // Exactly {initiator, target} per node, however many flows are open.
  EXPECT_EQ(stats.qp_endpoints, uint64_t(2 * n));
  EXPECT_EQ(stats.srqs, uint64_t(n));
  EXPECT_EQ(stats.max_qp_endpoints_per_node, 2u);
  // Initiator keeps a private recv ring; the SRQ-attached target does not.
  const uint64_t per_node =
      QpMemoryBytes(false) + QpMemoryBytes(true) + SrqMemoryBytes();
  EXPECT_EQ(stats.qp_memory_bytes, uint64_t(n) * per_node);
  EXPECT_EQ(stats.max_qp_memory_bytes_per_node, per_node);
}

TEST(ConnectionStatsTest, SharedPoolCountsLinear) {
  const int n = 4;
  FabricConfig cfg = Config(n, ConnectionMode::kShared);
  cfg.connection.shared_pool_size = 3;
  ConnectionStats stats = AllPairsStats(cfg);
  EXPECT_EQ(stats.flows, uint64_t(n) * (n - 1));
  EXPECT_EQ(stats.qp_endpoints, uint64_t(3 * n));
  EXPECT_EQ(stats.srqs, 0u);
  EXPECT_EQ(stats.max_qp_endpoints_per_node, 3u);
  const uint64_t per_qp = QpMemoryBytes(false);
  EXPECT_EQ(stats.qp_memory_bytes, uint64_t(3 * n) * per_qp);
  EXPECT_EQ(stats.max_qp_memory_bytes_per_node, 3 * per_qp);
}

// The scaling claim itself: doubling the cluster quadruples full-mesh QPs
// but only doubles the scalable modes'.
TEST(ConnectionStatsTest, ScalableModesGrowLinearly) {
  auto endpoints = [](int n, ConnectionMode mode) {
    return AllPairsStats(Config(n, mode)).qp_endpoints;
  };
  // Full mesh follows 2n(n-1): quadratic in the cluster size.
  EXPECT_EQ(endpoints(4, ConnectionMode::kFullMesh), 2u * 4 * 3);
  EXPECT_EQ(endpoints(8, ConnectionMode::kFullMesh), 2u * 8 * 7);
  EXPECT_EQ(endpoints(8, ConnectionMode::kSrq),
            2 * endpoints(4, ConnectionMode::kSrq));
  EXPECT_EQ(endpoints(8, ConnectionMode::kShared),
            2 * endpoints(4, ConnectionMode::kShared));
  // And the crossover is real: at 8 nodes full-mesh already needs 7x the
  // endpoints of the SRQ transport.
  EXPECT_EQ(endpoints(8, ConnectionMode::kFullMesh), 112u);
  EXPECT_EQ(endpoints(8, ConnectionMode::kSrq), 16u);
}

// ---------------------------------------------------------------------------
// Fault isolation on shared QPs
// ---------------------------------------------------------------------------

// Failing one pool endpoint must break exactly the flows mapped onto it:
// their posts flush with errors, while flows on the other pool member keep
// moving bytes.
TEST(SharedModeTest, QpFaultAffectsOnlyItsFlows) {
  sim::Simulator sim;
  FabricConfig cfg = Config(2, ConnectionMode::kShared);
  cfg.connection.shared_pool_size = 2;
  Fabric fabric(&sim, cfg);
  MemoryRegion* src = fabric.pd(0)->RegisterRegion(256);
  MemoryRegion* dst = fabric.pd(1)->RegisterRegion(256);
  std::memcpy(src->data(), "flow-zero", 9);
  std::memcpy(src->data() + 64, "flow-one", 8);

  // Flow ids assign round-robin onto the pool: flow 0 -> pool[0],
  // flow 1 -> pool[1].
  Flow* flow0 = fabric.OpenFlow(0, 1);
  Flow* flow1 = fabric.OpenFlow(0, 1);
  ASSERT_NE(flow0->producer_endpoint(), flow1->producer_endpoint());

  std::vector<Completion> done0, done1;
  flow0->SetProducerHandler([&](const Completion& c) {
    done0.push_back(c);
    return true;
  });
  flow1->SetProducerHandler([&](const Completion& c) {
    done1.push_back(c);
    return true;
  });

  // Error flow0's producer-side hub. Hub endpoints have no fixed peer, so
  // only this endpoint errors — the consumer-side hub it was talking to
  // stays up for other flows.
  fabric.FailQp(flow0->producer_endpoint()->qp_num());
  EXPECT_EQ(flow0->producer_endpoint()->state(), QpState::kError);
  EXPECT_EQ(flow0->consumer_endpoint()->state(), QpState::kReady);
  EXPECT_EQ(flow1->producer_endpoint()->state(), QpState::kReady);

  ASSERT_TRUE(flow0->PostToConsumer(MemorySpan{src, 0, 9}, dst->remote_key(),
                                    0, /*wr_id=*/7, /*signaled=*/true)
                  .ok());
  ASSERT_TRUE(flow1->PostToConsumer(MemorySpan{src, 64, 8}, dst->remote_key(),
                                    64, /*wr_id=*/8, /*signaled=*/true)
                  .ok());
  sim.Run();

  // flow0's write flushed without moving bytes; flow1's landed.
  ASSERT_EQ(done0.size(), 1u);
  EXPECT_EQ(done0[0].wr_id, 7u);
  EXPECT_EQ(done0[0].status, WcStatus::kFlushErr);
  EXPECT_NE(std::memcmp(dst->data(), "flow-zero", 9), 0);
  ASSERT_EQ(done1.size(), 1u);
  EXPECT_EQ(done1[0].wr_id, 8u);
  EXPECT_EQ(done1[0].status, WcStatus::kSuccess);
  EXPECT_EQ(std::memcmp(dst->data() + 64, "flow-one", 8), 0);

  // Recovery restores the shared endpoint for its flows.
  fabric.RecoverQp(flow0->producer_endpoint()->qp_num());
  ASSERT_TRUE(flow0->PostToConsumer(MemorySpan{src, 0, 9}, dst->remote_key(),
                                    0, /*wr_id=*/9, /*signaled=*/true)
                  .ok());
  sim.Run();
  ASSERT_EQ(done0.size(), 2u);
  EXPECT_EQ(done0[1].status, WcStatus::kSuccess);
  EXPECT_EQ(std::memcmp(dst->data(), "flow-zero", 9), 0);
}

// A dead *destination* endpoint must not poison the shared producer hub:
// the post completes with an error, but the hub stays usable for flows to
// healthy destinations.
TEST(SharedModeTest, DeadDestinationLeavesSharedHubUsable) {
  sim::Simulator sim;
  FabricConfig cfg = Config(3, ConnectionMode::kShared);
  cfg.connection.shared_pool_size = 1;  // everything multiplexes one hub
  Fabric fabric(&sim, cfg);
  MemoryRegion* src = fabric.pd(0)->RegisterRegion(256);
  MemoryRegion* dst1 = fabric.pd(1)->RegisterRegion(256);
  MemoryRegion* dst2 = fabric.pd(2)->RegisterRegion(256);
  Flow* to1 = fabric.OpenFlow(0, 1);
  Flow* to2 = fabric.OpenFlow(0, 2);
  // With a pool of one, both flows share the same producer-side endpoint.
  ASSERT_EQ(to1->producer_endpoint(), to2->producer_endpoint());

  std::vector<Completion> done1, done2;
  to1->SetProducerHandler([&](const Completion& c) {
    done1.push_back(c);
    return true;
  });
  to2->SetProducerHandler([&](const Completion& c) {
    done2.push_back(c);
    return true;
  });

  fabric.FailQp(to1->consumer_endpoint()->qp_num());
  std::memcpy(src->data(), "payload!", 8);
  ASSERT_TRUE(to1->PostToConsumer(MemorySpan{src, 0, 8}, dst1->remote_key(),
                                  0, 1, true)
                  .ok());
  ASSERT_TRUE(to2->PostToConsumer(MemorySpan{src, 0, 8}, dst2->remote_key(),
                                  0, 2, true)
                  .ok());
  sim.Run();

  ASSERT_EQ(done1.size(), 1u);
  EXPECT_EQ(done1[0].status, WcStatus::kFlushErr);
  ASSERT_EQ(done2.size(), 1u);
  EXPECT_EQ(done2[0].status, WcStatus::kSuccess);
  EXPECT_EQ(std::memcmp(dst2->data(), "payload!", 8), 0);
  // The shared hub itself never entered the error state.
  EXPECT_EQ(to1->producer_endpoint()->state(), QpState::kReady);
}

// ---------------------------------------------------------------------------
// Teardown with in-flight transfers
// ---------------------------------------------------------------------------

// Posts `count` signaled 64-byte WRITEs on `flow`, starting at slot `first`.
void PostWrites(Flow* flow, MemoryRegion* src, MemoryRegion* dst, int first,
                int count) {
  for (int i = first; i < first + count; ++i) {
    ASSERT_TRUE(flow->PostToConsumer(MemorySpan{src, uint64_t(i) * 64, 64},
                                     dst->remote_key(), uint64_t(i) * 64, i,
                                     /*signaled=*/true)
                    .ok());
  }
}

// Destroying the fabric (and simulator) with posted-but-undelivered work
// must be clean — no leaks, no dangling event references. ASan/UBSan in CI
// give this test its teeth.
TEST(TeardownTest, InFlightTransfersTearDownCleanly) {
  for (ConnectionMode mode : {ConnectionMode::kFullMesh, ConnectionMode::kSrq,
                              ConnectionMode::kShared}) {
    SCOPED_TRACE(int(mode));
    auto sim = std::make_unique<sim::Simulator>();
    auto fabric = std::make_unique<Fabric>(sim.get(), Config(3, mode));
    MemoryRegion* src = fabric->pd(0)->RegisterRegion(4096);
    MemoryRegion* dst = fabric->pd(2)->RegisterRegion(4096);
    Flow* flow = fabric->OpenFlow(0, 2);
    flow->SetProducerHandler([](const Completion&) { return true; });
    PostWrites(flow, src, dst, 0, 8);
    EXPECT_EQ(flow->producer_endpoint()->outstanding(), 8);
    // Deliberately do NOT run the simulator: delivery/ack events, NIC
    // reservations, and CQ wakeups are all still pending. Fabric first,
    // then the simulator with its orphaned events.
    fabric.reset();
    sim.reset();
  }
}

// Same, but after running partway: completions sit unpolled in the send
// CQ (no flow handler consumes them) while later writes are still in
// flight.
TEST(TeardownTest, UnpolledCompletionsTearDownCleanly) {
  for (ConnectionMode mode : {ConnectionMode::kFullMesh, ConnectionMode::kSrq,
                              ConnectionMode::kShared}) {
    SCOPED_TRACE(int(mode));
    auto sim = std::make_unique<sim::Simulator>();
    auto fabric = std::make_unique<Fabric>(sim.get(), Config(3, mode));
    MemoryRegion* src = fabric->pd(0)->RegisterRegion(4096);
    MemoryRegion* dst = fabric->pd(2)->RegisterRegion(4096);
    Flow* flow = fabric->OpenFlow(0, 2);
    PostWrites(flow, src, dst, 0, 4);
    sim->Run();
    EXPECT_EQ(flow->producer_endpoint()->send_cq().depth(), 4u);
    PostWrites(flow, src, dst, 4, 2);
    EXPECT_EQ(flow->producer_endpoint()->outstanding(), 2);
    fabric.reset();
    sim.reset();
  }
}

}  // namespace
}  // namespace slash::rdma
