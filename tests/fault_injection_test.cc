// Fault-driven test tier: deterministic fault injection across the RDMA
// substrate (sim::FaultInjector + rdma::Fabric as the FaultTarget).
//
// Channel-level tests assert *exact virtual-time costs* of each fault kind
// (drop + retry backoff, NIC degradation, node pause) — the DES clock makes
// recovery timing a checkable quantity, not a flake. Engine-level tests
// assert the two contractual outcomes: transient faults are absorbed with
// results byte-identical to the fault-free run, permanent faults abort the
// run cleanly with a Status (no CHECK-crash, no deadlock).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "channel/rdma_channel.h"
#include "core/oracle.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "perf/cost_model.h"
#include "rdma/fabric.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "workloads/ysb.h"

namespace slash {
namespace {

using channel::ChannelConfig;
using channel::InboundBuffer;
using channel::RdmaChannel;
using channel::SlotRef;

/// A two-node fabric with a fault injector registered before construction
/// (the registration order the engines use).
struct FaultHarness {
  sim::Simulator sim;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<rdma::Fabric> fabric;
  std::unique_ptr<perf::CpuContext> producer_cpu;
  std::unique_ptr<perf::CpuContext> consumer_cpu;

  explicit FaultHarness(const sim::FaultPlan& plan, int nodes = 2) {
    injector = std::make_unique<sim::FaultInjector>(&sim, plan);
    sim.set_fault_injector(injector.get());
    rdma::FabricConfig cfg;
    cfg.nodes = nodes;
    fabric = std::make_unique<rdma::Fabric>(&sim, cfg);
    producer_cpu =
        std::make_unique<perf::CpuContext>(&sim, &perf::CostModel::Default());
    consumer_cpu =
        std::make_unique<perf::CpuContext>(&sim, &perf::CostModel::Default());
  }

  /// Wire transfer duration at a possibly degraded line rate, computed the
  /// same way the NIC does.
  Nanos Duration(uint64_t bytes, double scale = 1.0) const {
    const rdma::NicConfig& nic = fabric->config().nic;
    return nic.per_message_overhead +
           static_cast<Nanos>(double(bytes) /
                              (nic.bandwidth_bps * scale) * 1e9);
  }

  Nanos wire_latency() const { return fabric->config().nic.wire_latency; }
};

/// Consumes `count` messages and records the virtual time each one became
/// pollable (== its delivery time), and optionally a copy of its payload.
sim::Task RecordDeliveries(RdmaChannel* ch, int count, perf::CpuContext* cpu,
                           std::vector<Nanos>* times,
                           std::vector<uint64_t>* tags,
                           std::vector<std::vector<uint8_t>>* payloads =
                               nullptr) {
  for (int i = 0; i < count; ++i) {
    InboundBuffer buffer;
    while (!ch->TryPoll(&buffer, cpu)) {
      if (ch->broken()) co_return;
      co_await ch->data_event().Wait();
    }
    times->push_back(cpu->simulator()->now());
    tags->push_back(buffer.user_tag);
    if (payloads != nullptr) {
      payloads->emplace_back(buffer.payload,
                             buffer.payload + buffer.payload_len);
    }
    SLASH_CHECK(ch->Release(buffer, cpu).ok());
  }
}

// ---------------------------------------------------------------------------
// Transfer drop + channel retry: exact virtual-time cost
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, DroppedTransferRetriedAtExactBackoffTime) {
  sim::FaultPlan plan;
  plan.drop_rules.push_back({.from = 0,
                             .until = 0,  // forever
                             .src_node = 0,
                             .dst_node = 1,
                             .probability = 1.0,
                             .max_drops = 1});
  FaultHarness h(plan);
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 16 * kKiB;
  auto ch = RdmaChannel::Create(h.fabric.get(), 0, 1, cfg);

  SlotRef slot;
  ASSERT_TRUE(ch->TryAcquire(&slot, h.producer_cpu.get()));
  std::memset(slot.payload, 0x5A, 100);
  ASSERT_TRUE(ch->Post(slot, 100, /*user_tag=*/7, 0, h.producer_cpu.get())
                  .ok());
  std::vector<Nanos> times;
  std::vector<uint64_t> tags;
  h.sim.Spawn(
      RecordDeliveries(ch.get(), 1, h.consumer_cpu.get(), &times, &tags));
  h.sim.Run();

  // Timeline: the first attempt serializes (dur), is lost on the wire, and
  // the NIC reports retry-exhausted after kDropReportDelay. The channel
  // backs off kRetryBackoffBase (first attempt), re-posts, and the retry
  // serializes and lands one wire latency later.
  const Nanos dur = h.Duration(cfg.slot_bytes);
  const Nanos expected_delivery = dur + sim::kDropReportDelay +
                                  channel::kRetryBackoffBase + dur +
                                  h.wire_latency();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], expected_delivery);
  EXPECT_EQ(tags[0], 7u);
  EXPECT_EQ(ch->retries(), 1u);
  EXPECT_FALSE(ch->broken());
  EXPECT_EQ(h.injector->dropped_transfers(), 1u);
}

// Doorbell batching coalesces adjacent slots into one wire WRITE, so a drop
// loses all of them at once: the retry must re-post the whole recorded
// span, not just the slot whose wr_id reported the error.
TEST(FaultInjectionTest, DroppedCoalescedWriteRetriesWholeSpan) {
  sim::FaultPlan plan;
  plan.drop_rules.push_back({.from = 0,
                             .until = 0,  // forever
                             .src_node = 0,
                             .dst_node = 1,
                             .probability = 1.0,
                             .max_drops = 1});
  FaultHarness h(plan);
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 16 * kKiB;
  cfg.post_batch = 4;
  auto ch = RdmaChannel::Create(h.fabric.get(), 0, 1, cfg);

  // The fourth post fills the batch: one 64 KiB WRITE covers all slots.
  constexpr uint64_t kLen = 1000;
  for (int i = 0; i < 4; ++i) {
    SlotRef slot;
    ASSERT_TRUE(ch->TryAcquire(&slot, h.producer_cpu.get()));
    std::memset(slot.payload, 0xA0 + i, kLen);
    ASSERT_TRUE(
        ch->Post(slot, kLen, /*user_tag=*/i, 0, h.producer_cpu.get()).ok());
  }
  ASSERT_EQ(ch->pending_posts(), 0u);
  std::vector<Nanos> times;
  std::vector<uint64_t> tags;
  std::vector<std::vector<uint8_t>> payloads;
  h.sim.Spawn(RecordDeliveries(ch.get(), 4, h.consumer_cpu.get(), &times,
                               &tags, &payloads));
  h.sim.Run();

  // Same timeline as the single-slot drop above, at the coalesced size.
  const Nanos dur = h.Duration(4 * cfg.slot_bytes);
  const Nanos expected_delivery = dur + sim::kDropReportDelay +
                                  channel::kRetryBackoffBase + dur +
                                  h.wire_latency();
  ASSERT_EQ(times.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(times[i], expected_delivery);
    EXPECT_EQ(tags[i], uint64_t(i));
    EXPECT_EQ(payloads[i], std::vector<uint8_t>(kLen, uint8_t(0xA0 + i)));
  }
  EXPECT_EQ(ch->retries(), 1u);
  EXPECT_FALSE(ch->broken());
  EXPECT_EQ(h.injector->dropped_transfers(), 1u);
}

TEST(FaultInjectionTest, DelayedTransferArrivesExactlyLater) {
  const Nanos kExtra = 25 * kMicrosecond;
  sim::FaultPlan plan;
  plan.delay_rules.push_back({.from = 0,
                              .until = 0,
                              .src_node = 0,
                              .dst_node = 1,
                              .extra_latency = kExtra});
  FaultHarness h(plan);
  ChannelConfig cfg;
  cfg.slot_bytes = 8 * kKiB;
  auto ch = RdmaChannel::Create(h.fabric.get(), 0, 1, cfg);

  SlotRef slot;
  ASSERT_TRUE(ch->TryAcquire(&slot, h.producer_cpu.get()));
  ASSERT_TRUE(ch->Post(slot, 64, 0, 0, h.producer_cpu.get()).ok());
  std::vector<Nanos> times;
  std::vector<uint64_t> tags;
  h.sim.Spawn(
      RecordDeliveries(ch.get(), 1, h.consumer_cpu.get(), &times, &tags));
  h.sim.Run();

  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], h.Duration(cfg.slot_bytes) + h.wire_latency() + kExtra);
  EXPECT_EQ(ch->retries(), 0u);
  EXPECT_EQ(h.injector->delayed_transfers(), 1u);
}

// ---------------------------------------------------------------------------
// NIC bandwidth degradation: exact virtual-time cost, then full recovery
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, NicDegradationSlowsTransferByExactFactor) {
  const double kScale = 0.25;
  const Nanos kDegradeEnd = 40 * kMicrosecond;
  sim::FaultPlan plan;
  plan.nic_degrades.push_back({.at = 0,
                               .node = 0,
                               .bandwidth_scale = kScale,
                               .duration = kDegradeEnd});
  FaultHarness h(plan);
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 16 * kKiB;
  auto ch = RdmaChannel::Create(h.fabric.get(), 0, 1, cfg);

  // Post one message while degraded (t = 0, after the injector's action)
  // and one well after restoration.
  const Nanos kSecondPost = 50 * kMicrosecond;
  h.sim.ScheduleAt(0, [&] {
    SlotRef slot;
    ASSERT_TRUE(ch->TryAcquire(&slot, h.producer_cpu.get()));
    ASSERT_TRUE(ch->Post(slot, 64, 0, 0, h.producer_cpu.get()).ok());
  });
  h.sim.ScheduleAt(kSecondPost, [&] {
    SlotRef slot;
    ASSERT_TRUE(ch->TryAcquire(&slot, h.producer_cpu.get()));
    ASSERT_TRUE(ch->Post(slot, 64, 1, 0, h.producer_cpu.get()).ok());
  });
  std::vector<Nanos> times;
  std::vector<uint64_t> tags;
  h.sim.Spawn(
      RecordDeliveries(ch.get(), 2, h.consumer_cpu.get(), &times, &tags));
  h.sim.Run();

  ASSERT_EQ(times.size(), 2u);
  // First transfer serializes at a quarter of the line rate.
  EXPECT_EQ(times[0], h.Duration(cfg.slot_bytes, kScale) + h.wire_latency());
  // Second transfer sees the restored full rate.
  EXPECT_EQ(times[1],
            kSecondPost + h.Duration(cfg.slot_bytes) + h.wire_latency());
  EXPECT_DOUBLE_EQ(h.fabric->nic(0)->bandwidth_scale(), 1.0);
}

// ---------------------------------------------------------------------------
// Node pause/resume: exact virtual-time cost
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, PausedNodeTransmitsNothingUntilResume) {
  const Nanos kPause = 30 * kMicrosecond;
  sim::FaultPlan plan;
  plan.node_pauses.push_back({.at = 0, .node = 0, .duration = kPause});
  FaultHarness h(plan);
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 8 * kKiB;
  auto ch = RdmaChannel::Create(h.fabric.get(), 0, 1, cfg);

  h.sim.ScheduleAt(0, [&] {
    SlotRef slot;
    ASSERT_TRUE(ch->TryAcquire(&slot, h.producer_cpu.get()));
    ASSERT_TRUE(ch->Post(slot, 64, 0, 0, h.producer_cpu.get()).ok());
  });
  std::vector<Nanos> times;
  std::vector<uint64_t> tags;
  h.sim.Spawn(
      RecordDeliveries(ch.get(), 1, h.consumer_cpu.get(), &times, &tags));
  h.sim.Run();

  // The transfer posted at t = 0 cannot start serializing before the node
  // resumes: delivery at pause end + serialization + wire latency.
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], kPause + h.Duration(cfg.slot_bytes) + h.wire_latency());
}

// ---------------------------------------------------------------------------
// QP error: flush semantics, recovery, permanent close
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, QpErrorMidFlightRetriedAfterRecovery) {
  // Error the connection while the first message is on the wire; recover
  // shortly after. The in-flight write is lost (never materializes), the
  // channel retries it transparently, and the message lands after recovery.
  sim::FaultPlan plan;
  plan.qp_errors.push_back(
      {.at = 2 * kMicrosecond, .qp_num = 1, .recover_after = 20 * kMicrosecond});
  FaultHarness h(plan);
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 16 * kKiB;
  auto ch = RdmaChannel::Create(h.fabric.get(), 0, 1, cfg);

  h.sim.ScheduleAt(0, [&] {
    SlotRef slot;
    ASSERT_TRUE(ch->TryAcquire(&slot, h.producer_cpu.get()));
    std::memset(slot.payload, 0xC3, 200);
    ASSERT_TRUE(ch->Post(slot, 200, /*user_tag=*/9, 0, h.producer_cpu.get())
                    .ok());
  });
  std::vector<Nanos> times;
  std::vector<uint64_t> tags;
  h.sim.Spawn(
      RecordDeliveries(ch.get(), 1, h.consumer_cpu.get(), &times, &tags));
  h.sim.Run();

  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0], 9u);
  EXPECT_FALSE(ch->broken());
  EXPECT_GE(ch->retries(), 1u);
  // Delivery strictly after recovery (22 us): the errored connection never
  // materialized the first attempt.
  EXPECT_GT(times[0], Nanos(22 * kMicrosecond));
  EXPECT_EQ(h.injector->qp_errors_injected(), 1u);
}

TEST(FaultInjectionTest, PermanentQpErrorClosesChannelCleanly) {
  sim::FaultPlan plan;
  plan.qp_errors.push_back(
      {.at = 1 * kMicrosecond, .qp_num = 1, .recover_after = 0});  // permanent
  FaultHarness h(plan);
  ChannelConfig cfg;
  cfg.credits = 4;
  cfg.slot_bytes = 8 * kKiB;
  cfg.max_retries = 3;  // shorten the budget; exact backoff still applies
  auto ch = RdmaChannel::Create(h.fabric.get(), 0, 1, cfg);

  Status reported;
  int close_calls = 0;
  ch->SetCloseHandler([&](const Status& cause) {
    reported = cause;
    ++close_calls;
  });
  h.sim.ScheduleAt(2 * kMicrosecond, [&] {
    SlotRef slot;
    ASSERT_TRUE(ch->TryAcquire(&slot, h.producer_cpu.get()));
    ASSERT_TRUE(ch->Post(slot, 64, 0, 0, h.producer_cpu.get()).ok());
  });
  h.sim.Run();

  EXPECT_TRUE(ch->broken());
  EXPECT_EQ(close_calls, 1);
  EXPECT_EQ(reported.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ch->channel_status().code(), StatusCode::kUnavailable);
  // A broken channel rejects further producer calls without crashing.
  SlotRef slot;
  EXPECT_FALSE(ch->TryAcquire(&slot, h.producer_cpu.get()));
  channel::InboundBuffer buffer;
  EXPECT_EQ(ch->Release(buffer, h.consumer_cpu.get()).code(), StatusCode::kOk);
}

// ---------------------------------------------------------------------------
// Engine-level: transient faults absorbed, permanent faults abort cleanly
// ---------------------------------------------------------------------------

engines::JobSpec EngineJob(const workloads::Workload& workload) {
  engines::ClusterConfig cluster;
  cluster.nodes = 2;
  cluster.workers_per_node = 2;
  engines::JobConfig config;
  config.records_per_worker = 2000;
  config.channel.slot_bytes = 16 * kKiB;
  config.epoch_bytes = 64 * kKiB;
  config.state_lss_capacity = 1 << 16;
  config.state_index_buckets = 1 << 10;
  return engines::MakeJobSpec("", workload, cluster, config);
}

TEST(FaultEngineTest, TransientQpErrorMidEpochIdenticalToFaultFreeRun) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 800;
  workloads::YsbWorkload workload(ycfg);
  const engines::JobSpec job = EngineJob(workload);

  engines::SlashEngine clean_engine;
  const engines::RunStats clean = clean_engine.Run(job);
  ASSERT_TRUE(clean.ok());

  // Break the first state channel's connection halfway through the run and
  // recover it 200 us later — squarely inside the retry budget.
  sim::FaultPlan plan;
  plan.qp_errors.push_back({.at = clean.makespan() / 2,
                            .qp_num = 1,
                            .recover_after = 200 * kMicrosecond});
  engines::JobSpec faulted = job;
  faulted.cluster.fault_plan = &plan;
  engines::SlashEngine engine;
  const engines::RunStats stats = engine.Run(faulted);

  ASSERT_TRUE(stats.ok()) << stats.status.message();
  EXPECT_EQ(stats.result_checksum(), clean.result_checksum());
  EXPECT_EQ(stats.records_emitted(), clean.records_emitted());
  EXPECT_EQ(stats.records_in(), clean.records_in());
  EXPECT_EQ(stats.credits_outstanding(), 0u);
  EXPECT_GE(stats.faults_injected(), 2u);  // error + recovery in the trace
  // And the oracle agrees (recovery did not corrupt or duplicate state).
  const core::OracleOutput oracle = core::ComputeOracle(
      workload.MakeQuery(),
      workload.Sources(job.config.records_per_worker, job.config.seed),
      job.cluster.nodes * job.cluster.workers_per_node);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);
}

TEST(FaultEngineTest, TransientPauseAndDegradationIdenticalResults) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 500;
  workloads::YsbWorkload workload(ycfg);
  const engines::JobSpec job = EngineJob(workload);

  engines::SlashEngine clean_engine;
  const engines::RunStats clean = clean_engine.Run(job);
  ASSERT_TRUE(clean.ok());

  sim::FaultPlan plan;
  plan.nic_degrades.push_back({.at = clean.makespan() / 4,
                               .node = 1,
                               .bandwidth_scale = 0.1,
                               .duration = 100 * kMicrosecond});
  plan.node_pauses.push_back({.at = clean.makespan() / 2,
                              .node = 0,
                              .duration = 50 * kMicrosecond});
  engines::JobSpec faulted = job;
  faulted.cluster.fault_plan = &plan;
  engines::SlashEngine engine;
  const engines::RunStats stats = engine.Run(faulted);

  ASSERT_TRUE(stats.ok()) << stats.status.message();
  EXPECT_EQ(stats.result_checksum(), clean.result_checksum());
  EXPECT_EQ(stats.records_emitted(), clean.records_emitted());
  EXPECT_EQ(stats.credits_outstanding(), 0u);
  EXPECT_EQ(stats.faults_injected(), 3u);  // degrade + restore + pause
}

TEST(FaultEngineTest, PermanentNicFailureAbortsWithCleanStatus) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 400;
  workloads::YsbWorkload workload(ycfg);

  // A dead link: every transfer out of node 0 is dropped, from early in
  // the run, forever. The retry budget exhausts and the run must abort
  // with kUnavailable — no CHECK-crash, no deadlock, partial stats intact.
  sim::FaultPlan plan;
  plan.drop_rules.push_back({.from = 10 * kMicrosecond,
                             .until = 0,  // forever
                             .src_node = 0,
                             .dst_node = sim::kAnyNode,
                             .probability = 1.0});
  engines::JobSpec job = EngineJob(workload);
  job.cluster.fault_plan = &plan;
  engines::SlashEngine engine;
  const engines::RunStats stats = engine.Run(job);

  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(stats.channel_retries(), 0u);
  EXPECT_GT(stats.faults_injected(), 0u);
}

TEST(FaultEngineTest, UpParPermanentFailureAbortsWithCleanStatus) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 400;
  workloads::YsbWorkload workload(ycfg);

  sim::FaultPlan plan;
  plan.qp_errors.push_back(
      {.at = 50 * kMicrosecond, .qp_num = 1, .recover_after = 0});
  engines::JobSpec job = EngineJob(workload);
  job.cluster.fault_plan = &plan;
  engines::UpParEngine engine;
  const engines::RunStats stats = engine.Run(job);

  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kUnavailable);
}

TEST(FaultEngineTest, FaultedRunsAreDeterministic) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 600;
  workloads::YsbWorkload workload(ycfg);

  sim::FaultPlan plan;
  plan.seed = 11;
  plan.drop_rules.push_back({.from = 0,
                             .until = 0,
                             .src_node = sim::kAnyNode,
                             .dst_node = sim::kAnyNode,
                             .probability = 0.3});
  engines::JobSpec job = EngineJob(workload);
  job.cluster.fault_plan = &plan;

  engines::SlashEngine a, b;
  const engines::RunStats ra = a.Run(job);
  const engines::RunStats rb = b.Run(job);
  ASSERT_TRUE(ra.ok()) << ra.status.message();
  EXPECT_EQ(ra.makespan(), rb.makespan());
  EXPECT_EQ(ra.result_checksum(), rb.result_checksum());
  EXPECT_EQ(ra.channel_retries(), rb.channel_retries());
  EXPECT_EQ(ra.faults_injected(), rb.faults_injected());
  EXPECT_EQ(ra.fault_trace_digest(), rb.fault_trace_digest());
  EXPECT_GT(ra.channel_retries(), 0u);
}

}  // namespace
}  // namespace slash
