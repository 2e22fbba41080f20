// Connection-scaling weak-scaling bench: the all-pairs channel workload on
// 16/64/128/256 simulated nodes under the three connection modes
// (rdma/srq.h: full_mesh, srq, shared).
//
// Two questions, one binary:
//
//  1. Resources — full-mesh QP counts (and modeled QP memory) grow O(N^2)
//     with the all-pairs flow population while srq/shared stay O(N). The
//     series this bench emits (and the committed BENCH_weakscale.json
//     baseline) are the repo's record of that crossover.
//  2. Determinism — the mode is a resource knob, not a semantics knob.
//     With the NIC's QP-context cache model off (the default), each
//     cluster size is CHECKed to produce byte-identical runs across all
//     three modes: same virtual-time makespan, same order-insensitive
//     payload checksum, same canonical metrics-registry snapshot JSON.
//     A second pass with the cache model on (64-entry context cache,
//     200 ns miss penalty) shows full mesh degrading once a node's QPs
//     outgrow the cache — deterministically, as a virtual-time makespan.
//
// Every datapoint lands in the "weakscale" series table; with
// SLASH_BENCH_JSON set, the table is written to BENCH_weakscale.json
// (compared against bench/baselines/ by tools/bench_compare.py in CI).
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "channel/rdma_channel.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/cost_model.h"
#include "rdma/fabric.h"
#include "sim/simulator.h"

namespace slash::bench {
namespace {

// Small per-channel footprint: at 256 nodes the all-pairs population is
// 65,280 channels, so slots and message counts stay tiny while the flow
// population (the thing this bench scales) is huge.
constexpr uint32_t kCredits = 2;
constexpr uint64_t kSlotBytes = 1 * kKiB;
constexpr uint64_t kMessagesPerChannel = 4;
constexpr uint64_t kPayloadBytes = 224;

// Cache-on pass: a 64-entry NIC context cache fits every scalable-mode
// node (2 QPs/node) but thrashes under full mesh from 64 nodes up
// (2(N-1) QPs/node), charging a 200 ns context fetch per miss-rate share.
constexpr uint32_t kQpCacheEntries = 64;
constexpr Nanos kQpCacheMissPenalty = 200;

struct RunResult {
  Nanos makespan = 0;
  uint64_t checksum = 0;
  uint64_t events_fired = 0;
  double wall_seconds = 0;
  std::string metrics_json;
  rdma::ConnectionStats stats;
};

sim::Task Producer(channel::RdmaChannel* ch, int producer,
                   perf::CpuContext* cpu) {
  for (uint64_t i = 0; i < kMessagesPerChannel; ++i) {
    channel::SlotRef slot;
    while (!ch->TryAcquire(&slot, cpu)) {
      co_await ch->credit_event().Wait();
    }
    std::memset(slot.payload, int((producer + int(i)) % 251), kPayloadBytes);
    SLASH_CHECK(ch->Post(slot, kPayloadBytes, /*user_tag=*/i,
                         /*watermark=*/int64_t(i), cpu)
                    .ok());
    co_await cpu->Sync();
  }
}

sim::Task Consumer(channel::RdmaChannel* ch, uint64_t* checksum,
                   perf::CpuContext* cpu) {
  for (uint64_t i = 0; i < kMessagesPerChannel; ++i) {
    channel::InboundBuffer buffer;
    while (!ch->TryPoll(&buffer, cpu)) {
      co_await ch->data_event().Wait();
    }
    // Order-insensitive across channels (channel completion order is a
    // scheduling artifact); exact within one: tag, length, first byte.
    *checksum += (uint64_t(ch->producer_node()) << 40) ^
                 (uint64_t(ch->consumer_node()) << 24) ^
                 (buffer.user_tag << 8) ^ buffer.payload_len ^
                 buffer.payload[0];
    SLASH_CHECK(ch->Release(buffer, cpu).ok());
    co_await cpu->Sync();
  }
}

// One complete all-pairs run at `nodes` under `mode`. The observability
// plane (metrics registry + virtual-time tracer) is attached exactly as
// the engines attach it, so the snapshot is a full-fidelity determinism
// oracle and the trace hooks are exercised at scale.
RunResult RunAllPairs(int nodes, rdma::ConnectionMode mode,
                      bool cache_pressure) {
  sim::Simulator sim;
  obs::MetricsRegistry registry;
  obs::Tracer tracer(obs::Tracer::Options{.capacity = 1 << 12,
                                          .enabled = true});
  sim.set_metrics(&registry);
  sim.set_tracer(&tracer);

  rdma::FabricConfig fcfg;
  fcfg.nodes = nodes;
  fcfg.connection.mode = mode;
  if (cache_pressure) {
    fcfg.nic.qp_cache_entries = kQpCacheEntries;
    fcfg.nic.qp_cache_miss_penalty = kQpCacheMissPenalty;
  }
  rdma::Fabric fabric(&sim, fcfg);

  channel::ChannelConfig ccfg;
  ccfg.credits = kCredits;
  ccfg.slot_bytes = kSlotBytes;

  std::vector<std::unique_ptr<channel::RdmaChannel>> channels;
  channels.reserve(size_t(nodes) * (nodes - 1));
  for (int p = 0; p < nodes; ++p) {
    for (int c = 0; c < nodes; ++c) {
      if (p != c) {
        channels.push_back(channel::RdmaChannel::Create(&fabric, p, c, ccfg));
      }
    }
  }

  RunResult result;
  std::vector<std::unique_ptr<perf::CpuContext>> cpus;
  cpus.reserve(channels.size() * 2);
  for (auto& ch : channels) {
    cpus.push_back(
        std::make_unique<perf::CpuContext>(&sim, &perf::CostModel::Default()));
    sim.Spawn(Producer(ch.get(), ch->producer_node(), cpus.back().get()));
    cpus.push_back(
        std::make_unique<perf::CpuContext>(&sim, &perf::CostModel::Default()));
    sim.Spawn(Consumer(ch.get(), &result.checksum, cpus.back().get()));
  }

  const auto start = std::chrono::steady_clock::now();
  result.makespan = sim.Run();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  SLASH_CHECK_EQ(sim.pending_tasks(), 0);
  result.events_fired = sim.events_fired();
  result.metrics_json = registry.Snapshot().ToJson();
  result.stats = fabric.connection_stats();
  return result;
}

void WeakScale(SeriesTable& table, int nodes) {
  // Pass 1, cache model off: all three modes must be byte-identical.
  const RunResult mesh =
      RunAllPairs(nodes, rdma::ConnectionMode::kFullMesh, false);
  const RunResult srq =
      RunAllPairs(nodes, rdma::ConnectionMode::kSrq, false);
  const RunResult shared =
      RunAllPairs(nodes, rdma::ConnectionMode::kShared, false);
  SLASH_CHECK_EQ(mesh.makespan, srq.makespan);
  SLASH_CHECK_EQ(mesh.makespan, shared.makespan);
  SLASH_CHECK_EQ(mesh.checksum, srq.checksum);
  SLASH_CHECK_EQ(mesh.checksum, shared.checksum);
  SLASH_CHECK_MSG(mesh.metrics_json == srq.metrics_json,
                  "srq metrics snapshot diverged from full mesh");
  SLASH_CHECK_MSG(mesh.metrics_json == shared.metrics_json,
                  "shared metrics snapshot diverged from full mesh");

  const std::string x = "n=" + std::to_string(nodes);
  struct ModeRow {
    const char* name;
    const RunResult* off;
    rdma::ConnectionMode mode;
  };
  const ModeRow rows[] = {
      {"full_mesh", &mesh, rdma::ConnectionMode::kFullMesh},
      {"srq", &srq, rdma::ConnectionMode::kSrq},
      {"shared", &shared, rdma::ConnectionMode::kShared},
  };
  for (const ModeRow& row : rows) {
    // Pass 2, cache model on: the deterministic degradation series.
    const RunResult cached = RunAllPairs(nodes, row.mode, true);
    SLASH_CHECK_EQ(cached.checksum, row.off->checksum);

    const rdma::ConnectionStats& stats = row.off->stats;
    table.Add(row.name, x, "qp endpoints", double(stats.qp_endpoints));
    table.Add(row.name, x, "qp endpoints per node (max)",
              double(stats.max_qp_endpoints_per_node));
    table.Add(row.name, x, "qp memory per node (max) [KiB]",
              double(stats.max_qp_memory_bytes_per_node) / double(kKiB));
    table.Add(row.name, x, "srqs", double(stats.srqs));
    table.Add(row.name, x, "makespan [us]", double(row.off->makespan) / 1e3);
    table.Add(row.name, x, "makespan qp-cache-on [us]",
              double(cached.makespan) / 1e3);
    table.Add(row.name, x, "checksum lo32",
              double(row.off->checksum & 0xffffffffu));
    table.Add(row.name, x, "sim events/s (wall)",
              row.off->wall_seconds > 0
                  ? double(row.off->events_fired) / row.off->wall_seconds
                  : 0.0);
  }
}

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  using namespace slash::bench;
  SeriesTable table("weakscale");
  std::vector<Point> points;
  for (const int n : {16, 64, 128, 256}) {
    points.push_back({"WeakScale/nodes:" + std::to_string(n),
                      [&table, n] { WeakScale(table, n); }});
  }
  RunPoints(argc, argv, points);
  table.PrintAll();
  return 0;
}
