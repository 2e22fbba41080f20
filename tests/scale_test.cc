// Large-cluster connection-scaling tests (ctest label: scale, excluded
// from the tier1 default suite). These run 64-node simulated clusters:
// cross-mode determinism at scale, QP accounting at scale, and the
// QP-context-cache pressure model actually penalizing full mesh once the
// working set outgrows the NIC cache.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engines/slash_engine.h"
#include "rdma/fabric.h"
#include "sim/simulator.h"
#include "workloads/ysb.h"

namespace slash {
namespace {

constexpr int kNodes = 64;

// ---------------------------------------------------------------------------
// Cross-mode determinism at 64 nodes
// ---------------------------------------------------------------------------

// The 3-node version of this oracle lives in property_test.cc; this one
// runs the full engine at the weak-scaling bench's mid-size point, where
// the flow population (and thus the shared-endpoint multiplexing pressure)
// is three orders of magnitude larger.
TEST(ScaleTest, SixtyFourNodeRunsAreByteIdenticalAcrossModes) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 10'000;
  workloads::YsbWorkload workload(ycfg);

  auto run_mode = [&](rdma::ConnectionMode mode) -> engines::RunStats {
    engines::ClusterConfig cluster;
    cluster.nodes = kNodes;
    cluster.workers_per_node = 1;
    cluster.connection.mode = mode;
    engines::JobConfig job;
    job.records_per_worker = 300;
    job.channel.slot_bytes = 4 * kKiB;
    job.channel.credits = 2;
    // Keep the per-run footprint small: 64 nodes mean 4032 channels and 64
    // state partitions, so the default (single-digit-node) sizings multiply
    // into needless gigabytes of zeroed pages.
    job.state_lss_capacity = 1ULL << 16;
    job.state_index_buckets = 1ULL << 8;
    engines::SlashEngine engine;
    return engine.Run(engines::MakeJobSpec("", workload, cluster, job));
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
  const std::string mesh_json = mesh.metrics.ToJson();
  EXPECT_EQ(mesh_json, srq.metrics.ToJson());
  EXPECT_EQ(mesh_json, shared.metrics.ToJson());
}

// ---------------------------------------------------------------------------
// Accounting and cache pressure at 64 nodes
// ---------------------------------------------------------------------------

// A raw-fabric harness: all ordered node pairs get a flow, each flow posts
// one signaled 4 KiB write, and the makespan is the virtual time at which
// the last ack lands.
struct AllPairsRun {
  rdma::ConnectionStats stats;
  Nanos makespan = 0;
};

AllPairsRun RunAllPairs(rdma::ConnectionMode mode, uint32_t cache_entries) {
  constexpr uint64_t kWrite = 4 * kKiB;
  sim::Simulator sim;
  rdma::FabricConfig cfg;
  cfg.nodes = kNodes;
  cfg.nic.qp_cache_entries = cache_entries;
  cfg.nic.qp_cache_miss_penalty = 500;
  cfg.connection.mode = mode;
  rdma::Fabric fabric(&sim, cfg);

  std::vector<rdma::MemoryRegion*> src(kNodes), dst(kNodes);
  for (int n = 0; n < kNodes; ++n) {
    src[n] = fabric.pd(n)->RegisterRegion(kWrite);
    dst[n] = fabric.pd(n)->RegisterRegion(kWrite * kNodes);
  }
  std::vector<rdma::Flow*> flows;
  for (int p = 0; p < kNodes; ++p) {
    for (int c = 0; c < kNodes; ++c) {
      if (p != c) flows.push_back(fabric.OpenFlow(p, c));
    }
  }
  for (rdma::Flow* flow : flows) {
    flow->SetProducerHandler([](const rdma::Completion&) { return true; });
    SLASH_CHECK(flow->PostToConsumer(
                        rdma::MemorySpan{src[flow->producer_node()], 0, kWrite},
                        dst[flow->consumer_node()]->remote_key(),
                        uint64_t(flow->producer_node()) * kWrite,
                        /*wr_id=*/0, /*signaled=*/true)
                    .ok());
  }
  AllPairsRun run;
  run.makespan = sim.Run();
  run.stats = fabric.connection_stats();
  return run;
}

TEST(ScaleTest, QpAccountingAtSixtyFourNodes) {
  const AllPairsRun mesh =
      RunAllPairs(rdma::ConnectionMode::kFullMesh, /*cache_entries=*/0);
  const AllPairsRun srq =
      RunAllPairs(rdma::ConnectionMode::kSrq, /*cache_entries=*/0);
  EXPECT_EQ(mesh.stats.flows, uint64_t(kNodes) * (kNodes - 1));
  EXPECT_EQ(mesh.stats.qp_endpoints, uint64_t(2 * kNodes) * (kNodes - 1));
  EXPECT_EQ(srq.stats.qp_endpoints, uint64_t(2 * kNodes));
  EXPECT_EQ(srq.stats.srqs, uint64_t(kNodes));
  // 63x fewer endpoints, and commensurately less modeled QP memory (the
  // ratio is below 63x because each SRQ node pays for its shared ring).
  EXPECT_GT(mesh.stats.qp_memory_bytes, 30 * srq.stats.qp_memory_bytes);
  // With the cache model off, the schedule is mode-independent.
  EXPECT_EQ(mesh.makespan, srq.makespan);
}

// The tentpole's perf story, as a pass/fail oracle: a 64-entry NIC context
// cache holds every QP of a scalable-mode node (2 per node) but thrashes
// under full mesh (126 per node), so the same all-pairs burst takes
// strictly longer on full mesh — and exactly as long as before once the
// cache pressure model is disabled.
TEST(ScaleTest, QpCachePressurePenalizesFullMeshOnly) {
  const uint32_t kCache = 64;
  const AllPairsRun mesh_cached =
      RunAllPairs(rdma::ConnectionMode::kFullMesh, kCache);
  const AllPairsRun srq_cached = RunAllPairs(rdma::ConnectionMode::kSrq, kCache);
  const AllPairsRun mesh_off =
      RunAllPairs(rdma::ConnectionMode::kFullMesh, /*cache_entries=*/0);

  // Scalable mode fits the cache: zero penalty, identical to cache-off.
  EXPECT_EQ(srq_cached.makespan, mesh_off.makespan);
  // Full mesh oversubscribes it: every message pays a context fetch.
  EXPECT_GT(mesh_cached.makespan, mesh_off.makespan);
}

}  // namespace
}  // namespace slash
