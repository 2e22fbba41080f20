// Cross-module property sweeps (TEST_P): log-store resize/update/clear
// invariants under randomized operation sequences, socket flow-control
// under window/message-size combinations, zero-copy external posts
// across credit configurations, and engine determinism under injected
// faults. These complement the per-module unit tests with randomized,
// parameterized coverage of the invariants the protocols rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "channel/rdma_channel.h"
#include "common/random.h"
#include "elastic/reconfig.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "rdma/socket_transport.h"
#include "sim/fault.h"
#include "state/log_store.h"
#include "state/state_backend.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/ysb.h"

namespace slash {
namespace {

// --- LogStructuredStore randomized lifecycle --------------------------------

using LssParam = std::tuple<int /*capacity_log2*/, int /*seed*/>;

class LssLifecycleSweep : public ::testing::TestWithParam<LssParam> {};

// Appends, in-place updates, read-only marks and clears in random order.
// Epochs (runs between clears) grow the log through several remaps; after
// every step a scan sees exactly the live entries with intact headers and
// payloads, and the capacity is the start doubled until the largest epoch
// fit.
TEST_P(LssLifecycleSweep, RandomAppendUpdateClearScanNeverCorrupts) {
  const auto [capacity_log2, seed] = GetParam();
  const uint64_t start = 1ULL << capacity_log2;
  state::LogStructuredStore lss(start);
  Rng rng{uint64_t(seed)};

  // Model of the live log: (address, key, value bytes).
  struct Live {
    uint64_t addr;
    uint64_t key;
    uint8_t fill;
    uint32_t len;
  };
  std::vector<Live> live;
  uint64_t next_key = 1;
  uint64_t read_only = 0;
  uint64_t largest_tail = 0;
  int clears = 0;

  for (int step = 0; step < 2000; ++step) {
    const uint64_t action = rng.NextBounded(400);
    if (action == 0) {
      // Epoch end: the delta shipped, the log restarts at address 0.
      lss.Clear();
      live.clear();
      read_only = 0;
      ++clears;
    } else if (action < 40) {
      // Freeze everything so far, as SerializeDelta does.
      lss.MarkReadOnlyUpTo(lss.tail());
      read_only = lss.tail();
    } else if (action < 120) {
      // In-place update of a random entry, refused below the boundary.
      if (!live.empty()) {
        Live& target = live[rng.NextBounded(live.size())];
        ASSERT_EQ(lss.Mutable(target.addr), target.addr >= read_only);
        if (target.addr >= read_only) {
          target.fill = uint8_t(rng.NextBounded(251));
          std::memset(lss.At(target.addr) + sizeof(state::EntryHeader),
                      target.fill, target.len);
        }
      }
    } else {
      // Append an entry with a random payload size.
      const uint32_t len = 8 + uint32_t(rng.NextBounded(1000));
      const uint64_t expected_addr = lss.tail();
      const uint64_t addr =
          lss.Allocate(uint32_t(sizeof(state::EntryHeader)) + len);
      ASSERT_EQ(addr, expected_addr);
      auto* h = lss.HeaderAt(addr);
      *h = state::EntryHeader{};
      h->key = next_key;
      h->value_len = len;
      h->flags = state::kEntryAppend;
      const uint8_t fill = uint8_t(next_key % 251);
      std::memset(lss.At(addr) + sizeof(state::EntryHeader), fill, len);
      live.push_back(Live{addr, next_key, fill, len});
      ++next_key;
      largest_tail = std::max(largest_tail, lss.tail());
    }

    // Invariant: a full scan sees exactly the live entries, in order, with
    // intact headers and payloads.
    size_t idx = 0;
    lss.ForEachEntry([&](uint64_t addr, const state::EntryHeader& h) {
      ASSERT_LT(idx, live.size());
      const Live& expected = live[idx];
      ASSERT_EQ(addr, expected.addr);
      ASSERT_EQ(h.key, expected.key);
      ASSERT_EQ(h.value_len, expected.len);
      const uint8_t* value = lss.At(addr) + sizeof(state::EntryHeader);
      ASSERT_TRUE(std::all_of(value, value + h.value_len,
                              [&](uint8_t b) { return b == expected.fill; }))
          << "corrupt payload of key " << h.key << " at step " << step;
      ++idx;
    });
    ASSERT_EQ(idx, live.size()) << "scan missed entries at step " << step;
  }

  uint64_t capacity = start;
  while (capacity < largest_tail) capacity *= 2;
  EXPECT_EQ(lss.capacity(), capacity);
  EXPECT_GE(lss.resize_count(), 2u)
      << "the sweep should grow through several remaps";
  EXPECT_GE(clears, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Lifecycles, LssLifecycleSweep,
    ::testing::Combine(::testing::Values(10, 12, 16),  // 1 KiB .. 64 KiB
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<LssParam>& info) {
      return "cap2e" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// --- Socket transport flow-control sweep -------------------------------------

using SocketParam = std::tuple<int /*window_kib*/, int /*message_bytes*/,
                               int /*messages*/>;

class SocketFlowSweep : public ::testing::TestWithParam<SocketParam> {};

sim::Task SendAll(rdma::SocketConnection* conn, int node,
                  const std::vector<std::vector<uint8_t>>* messages,
                  perf::CpuContext* cpu) {
  for (const auto& m : *messages) {
    co_await conn->Send(node, m.data(), m.size(), cpu);
  }
}

sim::Task DrainAll(rdma::SocketConnection* conn, int node, size_t expect,
                   std::vector<std::vector<uint8_t>>* received,
                   perf::CpuContext* cpu) {
  while (received->size() < expect) {
    std::vector<uint8_t> m;
    if (conn->TryReceive(node, &m, cpu)) {
      received->push_back(std::move(m));
    } else {
      co_await conn->readable(node).Wait();
    }
  }
}

TEST_P(SocketFlowSweep, AllMessagesDeliveredInOrderUnderAnyWindow) {
  const auto [window_kib, message_bytes, messages] = GetParam();
  sim::Simulator sim;
  rdma::FabricConfig fcfg;
  fcfg.nodes = 2;
  rdma::Fabric fabric(&sim, fcfg);
  rdma::SocketConfig scfg;
  scfg.window_bytes = uint64_t(window_kib) * kKiB;
  rdma::SocketConnection conn(&fabric, 0, 1, scfg);
  perf::CpuContext tx(&sim, &perf::CostModel::Default());
  perf::CpuContext rx(&sim, &perf::CostModel::Default());

  std::vector<std::vector<uint8_t>> sent;
  Rng rng(7);
  for (int i = 0; i < messages; ++i) {
    std::vector<uint8_t> m(message_bytes);
    for (auto& b : m) b = uint8_t(rng.NextBounded(256));
    sent.push_back(std::move(m));
  }
  std::vector<std::vector<uint8_t>> received;
  sim.Spawn(SendAll(&conn, 0, &sent, &tx));
  sim.Spawn(DrainAll(&conn, 1, sent.size(), &received, &rx));
  sim.Run();
  ASSERT_EQ(sim.pending_tasks(), 0);
  ASSERT_EQ(received.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    ASSERT_EQ(received[i], sent[i]) << "message " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, SocketFlowSweep,
    ::testing::Combine(::testing::Values(1, 16, 4096),   // window KiB
                       ::testing::Values(64, 900, 9000), // message bytes
                       ::testing::Values(1, 40)),        // messages
    [](const ::testing::TestParamInfo<SocketParam>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

// --- Variable-sized slot posts across credit configurations ----------------

using PostParam = std::tuple<int /*credits*/, int /*payloads*/>;

class SlotPostSweep : public ::testing::TestWithParam<PostParam> {};

sim::Task SlotProducer(channel::RdmaChannel* ch, int count,
                       perf::CpuContext* cpu) {
  for (int i = 0; i < count; ++i) {
    channel::SlotRef slot;
    while (!ch->TryAcquire(&slot, cpu)) {
      co_await ch->credit_event().Wait();
    }
    const uint64_t len = 100 + uint64_t(i % 400);
    std::memset(slot.payload, i % 251, len);
    SLASH_CHECK(ch->Post(slot, len, uint64_t(i), int64_t(i), cpu).ok());
    co_await cpu->Sync();
  }
}

sim::Task SlotConsumer(channel::RdmaChannel* ch, int count,
                       std::vector<uint64_t>* tags, perf::CpuContext* cpu) {
  for (int i = 0; i < count; ++i) {
    channel::InboundBuffer buffer;
    while (!ch->TryPoll(&buffer, cpu)) {
      co_await ch->data_event().Wait();
    }
    EXPECT_EQ(buffer.payload_len, 100 + uint64_t(buffer.user_tag % 400));
    bool intact = true;
    for (uint64_t b = 0; b < buffer.payload_len; ++b) {
      intact &= buffer.payload[b] == buffer.user_tag % 251;
    }
    EXPECT_TRUE(intact) << "payload " << buffer.user_tag;
    tags->push_back(buffer.user_tag);
    SLASH_CHECK(ch->Release(buffer, cpu).ok());
    co_await cpu->Sync();
  }
}

TEST_P(SlotPostSweep, PostsStayFifoAndIntact) {
  const auto [credits, payloads] = GetParam();
  sim::Simulator sim;
  rdma::FabricConfig fcfg;
  fcfg.nodes = 2;
  rdma::Fabric fabric(&sim, fcfg);
  channel::ChannelConfig ccfg;
  ccfg.credits = uint32_t(credits);
  ccfg.slot_bytes = 4 * kKiB;
  auto ch = channel::RdmaChannel::Create(&fabric, 0, 1, ccfg);
  perf::CpuContext tx(&sim, &perf::CostModel::Default());
  perf::CpuContext rx(&sim, &perf::CostModel::Default());

  std::vector<uint64_t> tags;
  sim.Spawn(SlotProducer(ch.get(), payloads, &tx));
  sim.Spawn(SlotConsumer(ch.get(), payloads, &tags, &rx));
  sim.Run();
  ASSERT_EQ(sim.pending_tasks(), 0);
  ASSERT_EQ(tags.size(), size_t(payloads));
  for (int i = 0; i < payloads; ++i) ASSERT_EQ(tags[i], uint64_t(i));
}

INSTANTIATE_TEST_SUITE_P(
    Credits, SlotPostSweep,
    ::testing::Combine(::testing::Values(1, 3, 8, 32),
                       ::testing::Values(5, 64)),
    [](const ::testing::TestParamInfo<PostParam>& info) {
      return "c" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// --- Fault-plan determinism across engines -----------------------------------
//
// Same workload seed + same FaultPlan must replay bit-for-bit: identical
// makespan, result checksum, retry counts, and injection trace digest, for
// both engines and for every fault family (probabilistic drops included —
// the injector PRNG is polled in DES order only).

using FaultDetParam = std::tuple<int /*engine: 0=Slash, 1=UpPar*/,
                                 int /*plan variant*/>;

class FaultDeterminismSweep : public ::testing::TestWithParam<FaultDetParam> {};

sim::FaultPlan MakePlanVariant(int variant) {
  sim::FaultPlan plan;
  plan.seed = 23;
  switch (variant) {
    case 0:  // probabilistic transfer drops on every link, all run long
      plan.drop_rules.push_back({.from = 0,
                                 .until = 0,
                                 .src_node = sim::kAnyNode,
                                 .dst_node = sim::kAnyNode,
                                 .probability = 0.2});
      break;
    case 1:  // transient QP error mid-run, recovered
      plan.qp_errors.push_back(
          {.at = 15 * kMicrosecond, .qp_num = 1,
           .recover_after = 60 * kMicrosecond});
      break;
    case 2:  // bandwidth collapse on one node plus a pause on the other
      plan.nic_degrades.push_back({.at = 5 * kMicrosecond,
                                   .node = 1,
                                   .bandwidth_scale = 0.2,
                                   .duration = 20 * kMicrosecond});
      plan.node_pauses.push_back(
          {.at = 12 * kMicrosecond, .node = 0,
           .duration = 15 * kMicrosecond});
      break;
    default:  // extra wire latency on every transfer in a window
      plan.delay_rules.push_back({.from = 0,
                                  .until = 30 * kMicrosecond,
                                  .src_node = sim::kAnyNode,
                                  .dst_node = sim::kAnyNode,
                                  .extra_latency = 3 * kMicrosecond});
      break;
  }
  return plan;
}

TEST_P(FaultDeterminismSweep, SameSeedSamePlanIdenticalReplay) {
  const auto [engine_kind, variant] = GetParam();
  workloads::YsbConfig ycfg;
  ycfg.key_range = 1000;
  workloads::YsbWorkload workload(ycfg);

  const sim::FaultPlan plan = MakePlanVariant(variant);
  engines::ClusterConfig cluster;
  cluster.nodes = 2;
  cluster.workers_per_node = 2;
  cluster.fault_plan = &plan;
  engines::JobConfig job;
  job.records_per_worker = 2000;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  const engines::JobSpec spec =
      engines::MakeJobSpec("", workload, cluster, job);

  auto run_once = [&]() -> engines::RunStats {
    if (engine_kind == 0) {
      engines::SlashEngine engine;
      return engine.Run(spec);
    }
    engines::UpParEngine engine;
    return engine.Run(spec);
  };

  const engines::RunStats ra = run_once();
  const engines::RunStats rb = run_once();

  EXPECT_EQ(ra.ok(), rb.ok());
  EXPECT_EQ(ra.makespan(), rb.makespan());
  EXPECT_EQ(ra.result_checksum(), rb.result_checksum());
  EXPECT_EQ(ra.records_emitted(), rb.records_emitted());
  EXPECT_EQ(ra.network_bytes(), rb.network_bytes());
  EXPECT_EQ(ra.channel_retries(), rb.channel_retries());
  EXPECT_EQ(ra.faults_injected(), rb.faults_injected());
  EXPECT_EQ(ra.fault_trace_digest(), rb.fault_trace_digest());
  // The plan actually fired: replays of a no-op schedule prove nothing.
  EXPECT_GT(ra.faults_injected(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, FaultDeterminismSweep,
    ::testing::Combine(::testing::Values(0, 1),         // Slash, UpPar
                       ::testing::Values(0, 1, 2, 3)),  // plan variant
    [](const ::testing::TestParamInfo<FaultDetParam>& info) {
      const char* engine = std::get<0>(info.param) == 0 ? "slash" : "uppar";
      return std::string(engine) + "_plan" +
             std::to_string(std::get<1>(info.param));
    });

// --- Gray-failure determinism (health monitor + new fault kinds) ------------

// The failure detector's probes, suspicions, quarantines, and recoveries
// are all DES events, so a health-instrumented run under partitions and
// gray nodes must replay byte-for-byte: the full MetricsSnapshot — health
// counters included — is the determinism oracle. (The larger randomized
// sweep lives in the chaos tier; this keeps a seed in tier1.)
class GrayFailureDeterminismSweep : public ::testing::TestWithParam<int> {};

TEST_P(GrayFailureDeterminismSweep, HealthRunsReplayByteIdentically) {
  const int variant = GetParam();
  workloads::YsbConfig ycfg;
  ycfg.key_range = 500;
  workloads::YsbWorkload workload(ycfg);

  engines::ClusterConfig cluster;
  cluster.nodes = 3;
  cluster.workers_per_node = 2;
  cluster.health.enabled = true;
  cluster.health.heartbeat_interval = 20 * kMicrosecond;
  cluster.health.probe_timeout = 10 * kMicrosecond;
  cluster.health.suspicion_threshold = 4;
  cluster.health.recovery_deadline = 10 * kMillisecond;
  cluster.health.run_deadline = 100 * kMillisecond;
  engines::JobConfig job;
  job.records_per_worker = 8000;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.checkpoint.enabled = true;

  sim::FaultPlan plan;
  switch (variant) {
    case 0:  // healed partition
      plan.partitions.push_back({.at = 150 * kMicrosecond, .side_a = {2}});
      plan.partition_heals.push_back({.at = 450 * kMicrosecond});
      break;
    case 1:  // gray node for a window
      plan.node_slows.push_back({.at = 100 * kMicrosecond,
                                 .node = 1,
                                 .factor = 40.0,
                                 .duration = 200 * kMicrosecond});
      break;
    default:  // permanent one-way link drop
      plan.one_way_drops.push_back(
          {.from = 200 * kMicrosecond, .src_node = 0, .dst_node = 2});
      break;
  }
  cluster.fault_plan = &plan;
  const engines::JobSpec spec =
      engines::MakeJobSpec("", workload, cluster, job);

  engines::SlashEngine engine;
  const engines::RunStats ra = engine.Run(spec);
  const engines::RunStats rb = engine.Run(spec);

  EXPECT_EQ(ra.status.code(), rb.status.code());
  EXPECT_EQ(ra.metrics.ToJson(), rb.metrics.ToJson())
      << "gray-failure replay diverged";
  EXPECT_GT(ra.faults_injected(), 0u);
}

INSTANTIATE_TEST_SUITE_P(GrayFaults, GrayFailureDeterminismSweep,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               info.param == 0   ? "partition_heal"
                               : info.param == 1 ? "gray_node"
                                                 : "one_way_drop");
                         });

// --- Elastic reconfiguration determinism ------------------------------------

// The reconfiguration control plane (scheduled joins/leaves, deferral
// retries, the load trigger's sampling chain) runs on the shared DES
// clock, so an elastic run must replay byte-for-byte: identical
// MetricsSnapshot AND an identical reconfiguration event trace digest.
class ReconfigDeterminismSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReconfigDeterminismSweep, ElasticRunsReplayByteIdentically) {
  const int variant = GetParam();
  workloads::YsbConfig ycfg;
  ycfg.key_range = 400;
  workloads::YsbWorkload workload(ycfg);

  engines::ClusterConfig cluster;
  cluster.nodes = 4;
  cluster.workers_per_node = 2;
  engines::JobConfig job;
  job.records_per_worker = 4000;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.checkpoint.enabled = true;

  engines::SlashEngine engine;
  const engines::RunStats clean =
      engine.Run(engines::MakeJobSpec("", workload, cluster, job));
  ASSERT_TRUE(clean.ok()) << clean.status.message();
  const Nanos makespan = clean.makespan();
  ASSERT_GT(makespan, 0);

  elastic::ReconfigPlan plan;
  switch (variant) {
    case 0:  // scale-out only
      plan.initial_nodes = 2;
      plan.joins.push_back({.at = Nanos(double(makespan) * 0.2), .node = 2});
      plan.joins.push_back({.at = Nanos(double(makespan) * 0.5), .node = 3});
      break;
    case 1:  // scale-in only
      plan.leaves.push_back({.at = Nanos(double(makespan) * 0.3), .node = 3});
      plan.leaves.push_back({.at = Nanos(double(makespan) * 0.6), .node = 2});
      break;
    default:  // join then leave of the same node, load trigger armed
      plan.initial_nodes = 3;
      plan.joins.push_back({.at = Nanos(double(makespan) * 0.25), .node = 3});
      plan.leaves.push_back({.at = Nanos(double(makespan) * 0.7), .node = 3});
      plan.trigger.enabled = true;
      plan.trigger.interval = 50 * kMicrosecond;
      plan.trigger.join_above = ~uint64_t{0};  // sample, never act
      plan.trigger.leave_below = 0;
      break;
  }
  ASSERT_TRUE(plan.Validate(cluster.nodes).ok());
  cluster.reconfig = &plan;
  const engines::JobSpec spec =
      engines::MakeJobSpec("", workload, cluster, job);

  const engines::RunStats ra = engine.Run(spec);
  const engines::RunStats rb = engine.Run(spec);

  ASSERT_TRUE(ra.ok()) << ra.status.message();
  ASSERT_TRUE(rb.ok()) << rb.status.message();
  EXPECT_GT(ra.reconfigs(), 0u);
  EXPECT_EQ(ra.reconfig_trace_digest(), rb.reconfig_trace_digest())
      << "reconfiguration event trace diverged";
  EXPECT_EQ(ra.metrics.ToJson(), rb.metrics.ToJson())
      << "elastic replay diverged";
}

INSTANTIATE_TEST_SUITE_P(Reconfig, ReconfigDeterminismSweep,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               info.param == 0   ? "scale_out"
                               : info.param == 1 ? "scale_in"
                                                 : "join_then_leave");
                         });

// An elastic run that grows onto its full provisioned cluster computes the
// same results as the static run that started there: record count, result
// checksum, and the full sorted row set. (Timing differs — the elastic run
// pays handoffs — but the answer must not.)
TEST(ElasticEqualsStatic, GrownClusterMatchesStaticResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 400;
  workloads::YsbWorkload workload(ycfg);

  engines::ClusterConfig cluster;
  cluster.nodes = 4;
  cluster.workers_per_node = 2;
  engines::JobConfig job;
  job.records_per_worker = 4000;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.collect_rows = true;
  job.checkpoint.enabled = true;

  engines::SlashEngine engine;
  const engines::RunStats fixed =
      engine.Run(engines::MakeJobSpec("", workload, cluster, job));
  ASSERT_TRUE(fixed.ok()) << fixed.status.message();
  ASSERT_GT(fixed.makespan(), 0);

  elastic::ReconfigPlan plan;
  plan.initial_nodes = 2;
  plan.joins.push_back(
      {.at = Nanos(double(fixed.makespan()) * 0.2), .node = 2});
  plan.joins.push_back(
      {.at = Nanos(double(fixed.makespan()) * 0.4), .node = 3});
  ASSERT_TRUE(plan.Validate(cluster.nodes).ok());
  cluster.reconfig = &plan;

  const engines::RunStats grown =
      engine.Run(engines::MakeJobSpec("", workload, cluster, job));
  ASSERT_TRUE(grown.ok()) << grown.status.message();
  EXPECT_EQ(grown.elastic_joins(), 2u);
  EXPECT_EQ(grown.records_emitted(), fixed.records_emitted());
  EXPECT_EQ(grown.result_checksum(), fixed.result_checksum());
  std::vector<core::WindowResult> grown_rows = grown.rows;
  std::vector<core::WindowResult> fixed_rows = fixed.rows;
  std::sort(grown_rows.begin(), grown_rows.end());
  std::sort(fixed_rows.begin(), fixed_rows.end());
  EXPECT_EQ(grown_rows, fixed_rows) << "elastic result rows diverged";
}

// --- Snapshot/restore round-trip (checkpointing) ----------------------------

// SnapshotPartition → restore into a fresh backend must reproduce the primary
// partition exactly — same entry count, keys, buckets, and value bytes —
// for every workload key distribution (skew concentrates entries into long
// hash chains, a different code path than uniform spray).
using SnapshotParam = std::tuple<int /*distribution*/, int /*kind*/>;

class SnapshotRoundTripSweep : public ::testing::TestWithParam<SnapshotParam> {
};

struct FlatEntry {
  uint64_t key;
  int64_t bucket;
  uint16_t stream_id;
  std::vector<uint8_t> value;

  auto operator<=>(const FlatEntry&) const = default;
};

std::vector<FlatEntry> FlattenPrimary(const state::StateBackend& ssb,
                                      int node) {
  std::vector<FlatEntry> out;
  ssb.local(node)->ForEachLive(
      [&](const state::EntryHeader& h, const uint8_t* value) {
        out.push_back(FlatEntry{h.key, h.bucket, h.stream_id,
                                std::vector<uint8_t>(value,
                                                     value + h.value_len)});
      });
  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(SnapshotRoundTripSweep, PrimaryRoundTripsExactly) {
  const auto [distribution, kind] = GetParam();
  workloads::YsbConfig ycfg;
  ycfg.key_range = 5000;
  switch (distribution) {
    case 0:
      ycfg.keys = workloads::KeyDistribution::Uniform();
      break;
    case 1:
      ycfg.keys = workloads::KeyDistribution::Zipf(1.2);
      break;
    default:
      ycfg.keys = workloads::KeyDistribution::Pareto(1.1);
      break;
  }
  workloads::YsbWorkload workload(ycfg);

  state::SsbConfig scfg;
  scfg.nodes = 1;  // single partition: every key routes to the primary
  scfg.kind = kind == 0 ? state::StateKind::kAggregate
                        : state::StateKind::kAppend;
  scfg.lss_capacity = 1ULL << 18;
  scfg.index_buckets = 1ULL << 10;
  state::StateBackend source(0, scfg);

  auto flow = workload.MakeFlow(0, 1, 4000, /*seed=*/7);
  core::Record r;
  uint8_t wire[64] = {0};
  while (flow->Next(&r)) {
    const int64_t bucket = r.timestamp / 1000;
    if (kind == 0) {
      source.UpdateAggregate(r.key, bucket, r.value);
    } else {
      std::memcpy(wire, &r.key, sizeof(r.key));
      source.Append(r.key, bucket, r.stream_id, wire, 24);
    }
  }

  std::vector<uint8_t> snapshot;
  const size_t entries = source.SnapshotPartition(0, &snapshot);
  EXPECT_GT(entries, 0u);

  state::StateBackend restored(0, scfg);
  ASSERT_TRUE(
      restored.RestorePartition(0, snapshot.data(), snapshot.size()).ok());

  const std::vector<FlatEntry> want = FlattenPrimary(source, 0);
  const std::vector<FlatEntry> got = FlattenPrimary(restored, 0);
  EXPECT_EQ(want.size(), entries);
  EXPECT_EQ(want, got);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, SnapshotRoundTripSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),  // uniform, zipf, pareto
                       ::testing::Values(0, 1)),    // aggregate, append
    [](const ::testing::TestParamInfo<SnapshotParam>& info) {
      const int d = std::get<0>(info.param);
      const char* dist = d == 0 ? "uniform" : (d == 1 ? "zipf" : "pareto");
      const char* kind = std::get<1>(info.param) == 0 ? "aggregate" : "append";
      return std::string(dist) + "_" + kind;
    });

// --- Connection-mode determinism across engines ------------------------------
//
// The connection mode (rdma/srq.h) is a resource knob, not a semantics
// knob: with the NIC's QP-context cache model off (the default), full-mesh,
// SRQ, and shared-pool runs of the same workload must be byte-identical —
// same result checksum AND the same canonical metrics snapshot, down to
// the serialized JSON. This is the cross-mode determinism oracle the
// weak-scaling bench relies on.

using ModeParam = std::tuple<int /*engine: 0=Slash, 1=UpPar*/, int /*seed*/>;

class ConnectionModeSweep : public ::testing::TestWithParam<ModeParam> {};

TEST_P(ConnectionModeSweep, ModesAreByteIdentical) {
  const auto [engine_kind, seed] = GetParam();
  workloads::YsbConfig ycfg;
  ycfg.key_range = 1000;
  workloads::YsbWorkload workload(ycfg);

  auto run_mode = [&](rdma::ConnectionMode mode) -> engines::RunStats {
    engines::ClusterConfig cluster;
    cluster.nodes = 3;
    cluster.workers_per_node = 2;
    cluster.connection.mode = mode;
    engines::JobConfig job;
    job.seed = uint64_t(seed);
    job.records_per_worker = 2000;
    job.channel.slot_bytes = 16 * kKiB;
    const engines::JobSpec spec =
        engines::MakeJobSpec("", workload, cluster, job);
    if (engine_kind == 0) {
      engines::SlashEngine engine;
      return engine.Run(spec);
    }
    engines::UpParEngine engine;
    return engine.Run(spec);
  };

  const engines::RunStats mesh = run_mode(rdma::ConnectionMode::kFullMesh);
  const engines::RunStats srq = run_mode(rdma::ConnectionMode::kSrq);
  const engines::RunStats shared = run_mode(rdma::ConnectionMode::kShared);

  ASSERT_TRUE(mesh.ok());
  ASSERT_TRUE(srq.ok());
  ASSERT_TRUE(shared.ok());
  EXPECT_GT(mesh.records_emitted(), 0u);

  EXPECT_EQ(mesh.result_checksum(), srq.result_checksum());
  EXPECT_EQ(mesh.result_checksum(), shared.result_checksum());
  EXPECT_EQ(mesh.makespan(), srq.makespan());
  EXPECT_EQ(mesh.makespan(), shared.makespan());
  // The whole snapshot, serialized: any mode-dependent instrument, count,
  // or timing divergence shows up here.
  const std::string mesh_json = mesh.metrics.ToJson();
  EXPECT_EQ(mesh_json, srq.metrics.ToJson());
  EXPECT_EQ(mesh_json, shared.metrics.ToJson());
  // And the snapshot stays clean of connection-layer gauges (the fabric
  // reports QP counts and memory through connection_stats() only), and of
  // the verbs-batching instruments unless the channel config enables them
  // (default above).
  EXPECT_EQ(mesh_json.find("fabric.qp"), std::string::npos);
  EXPECT_EQ(mesh_json.find("channel.doorbells"), std::string::npos);
  EXPECT_EQ(mesh_json.find("channel.inline_sends"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ConnectionModeSweep,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(11, 12)),
    [](const ::testing::TestParamInfo<ModeParam>& info) {
      return std::string(std::get<0>(info.param) == 0 ? "slash" : "uppar") +
             "_s" + std::to_string(std::get<1>(info.param));
    });

// --- Multi-job determinism (DESIGN.md §12) ----------------------------------
//
// N heterogeneous tenant jobs on ONE simulated cluster must (a) replay
// byte-identically at equal seed — per-tenant snapshot views included —
// and (b) produce, per tenant, exactly the results the same job computes
// when it runs the cluster alone: co-location and quota throttling shift
// virtual time, never results.

TEST(MultiJobDeterminism, ConcurrentJobsReplayByteIdenticallyAndMatchSolo) {
  workloads::YsbWorkload ysb;
  workloads::CmWorkload cm;
  workloads::Nb8Workload nb8;

  engines::ClusterConfig cluster;
  cluster.nodes = 2;
  cluster.workers_per_node = 2;

  engines::JobConfig job;
  job.records_per_worker = 1200;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.state_lss_capacity = 1 << 16;
  job.state_index_buckets = 1 << 10;

  std::vector<engines::JobSpec> jobs;
  jobs.push_back(engines::MakeJobSpec("t0", ysb, cluster, job, /*quota=*/8));
  jobs.push_back(engines::MakeJobSpec("t1", cm, cluster, job, /*quota=*/4));
  jobs.push_back(engines::MakeJobSpec("t2", nb8, cluster, job));

  engines::SlashEngine engine;
  const engines::MultiRunStats first = engine.RunJobs(jobs, cluster);
  const engines::MultiRunStats second = engine.RunJobs(jobs, cluster);
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  ASSERT_EQ(first.jobs.size(), jobs.size());

  // Byte-identical replay: the cluster snapshot and every tenant view.
  EXPECT_EQ(first.cluster.metrics.ToJson(), second.cluster.metrics.ToJson());
  for (size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(first.jobs[j].metrics.ToJson(),
              second.jobs[j].metrics.ToJson());
  }

  // Per-tenant results equal the solo run of the identical job.
  uint64_t records_sum = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const engines::RunStats solo = engine.Run(jobs[j]);
    ASSERT_TRUE(solo.ok()) << solo.status.ToString();
    EXPECT_EQ(first.jobs[j].result_checksum(), solo.result_checksum())
        << jobs[j].tenant;
    EXPECT_EQ(first.jobs[j].records_in(), solo.records_in())
        << jobs[j].tenant;
    EXPECT_EQ(first.jobs[j].records_emitted(), solo.records_emitted())
        << jobs[j].tenant;
    records_sum += first.jobs[j].records_in();
  }
  // The cluster view aggregates across tenants (CounterValue sums label
  // sets of one instrument).
  EXPECT_EQ(first.cluster.records_in(), records_sum);

  // Quotas registered their opt-in instruments under the tenant label.
  EXPECT_NE(first.cluster.metrics.ToJson().find("job.drain_ns"),
            std::string::npos);

  // Validation: duplicate tenants are rejected up front.
  std::vector<engines::JobSpec> dup = {jobs[0], jobs[0]};
  EXPECT_FALSE(engine.RunJobs(dup, cluster).ok());
  // ... and so is an empty tenant (a one-job run may leave it empty).
  engines::JobSpec anonymous = jobs[0];
  anonymous.tenant.clear();
  EXPECT_FALSE(engine.RunJobs({anonymous, jobs[1]}, cluster).ok());
  // ... and a per-job tracer, which the shared trace cannot honour.
  obs::Tracer tracer(obs::Tracer::Options{.capacity = 1 << 10,
                                          .enabled = true});
  engines::JobSpec traced = jobs[1];
  traced.config.tracer = &tracer;
  const engines::MultiRunStats rejected =
      engine.RunJobs({jobs[0], traced}, cluster);
  EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument)
      << rejected.status.ToString();
  EXPECT_EQ(tracer.size(), 0u);
  // ... and so are the cluster services that reason about one job's
  // ownership map and recovery rounds (a one-job run accepts them).
  sim::FaultPlan plan;
  plan.node_crashes.push_back({.at = 1000, .node = 1});
  engines::ClusterConfig faulty = cluster;
  faulty.fault_plan = &plan;
  engines::ClusterConfig monitored = cluster;
  monitored.health.enabled = true;
  elastic::ReconfigPlan reconfig;
  reconfig.initial_nodes = 1;
  reconfig.joins.push_back({.at = 1000, .node = 1});
  engines::ClusterConfig rescaled = cluster;
  rescaled.reconfig = &reconfig;
  for (const engines::ClusterConfig& c : {faulty, monitored, rescaled}) {
    const engines::MultiRunStats two = engine.RunJobs({jobs[0], jobs[1]}, c);
    EXPECT_EQ(two.status.code(), StatusCode::kUnimplemented)
        << two.status.ToString();
  }
}

}  // namespace
}  // namespace slash
