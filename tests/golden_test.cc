// Golden snapshot test: the byte-identity gate for refactors.
//
// Pins, for small runs of all four engines over YSB, CM, NB7 and NB8, the
// result checksum and the FNV-1a digest of the canonical MetricsSnapshot
// JSON, plus the cluster snapshot of one 2-tenant SlashEngine::RunJobs run.
// A change that claims "same behaviour, less code" must leave every value
// here untouched; a change that moves one on purpose re-captures it (the
// failure message prints the new value) and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "engines/flink_engine.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/ysb.h"

namespace slash::engines {
namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= uint8_t(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

ClusterConfig GoldenCluster(int nodes) {
  ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.workers_per_node = 4;
  return cluster;
}

// Non-default per-job knobs, so a knob that stops reaching the engine moves
// the digest.
JobConfig GoldenJob() {
  JobConfig job;
  job.records_per_worker = 1500;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.state_lss_capacity = 1 << 16;
  job.state_index_buckets = 1 << 10;
  job.seed = 7;
  job.checkpoint.enabled = true;
  return job;
}

std::unique_ptr<workloads::Workload> MakeWorkload(std::string_view name) {
  if (name == "ysb") return std::make_unique<workloads::YsbWorkload>();
  if (name == "cm") return std::make_unique<workloads::CmWorkload>();
  if (name == "nb7") return std::make_unique<workloads::Nb7Workload>();
  return std::make_unique<workloads::Nb8Workload>();
}

std::unique_ptr<Engine> MakeEngine(std::string_view name) {
  if (name == "slash") return std::make_unique<SlashEngine>();
  if (name == "uppar") return std::make_unique<UpParEngine>();
  if (name == "flink") return std::make_unique<FlinkLikeEngine>();
  return std::make_unique<LightSaberEngine>();
}

struct GoldenCase {
  const char* engine;
  const char* workload;
  uint64_t checksum;
  uint64_t snapshot_digest;
};

// Captured before the job-API consolidation (one JobSpec, cluster-only
// ClusterConfig, no plan round-trip); it left every value unchanged.
constexpr GoldenCase kGolden[] = {
    {"slash", "ysb", 0x5d242f61fa0994ed, 0x39de999a9558199d},
    {"slash", "cm", 0xf0afe85b2cc64057, 0x2962136b00faafab},
    {"slash", "nb7", 0x75e8bb68636c5e96, 0x964fdc46d741ea83},
    {"slash", "nb8", 0x5bdece81efe2951e, 0x9295a8f6419c59ef},
    {"uppar", "ysb", 0x5d242f61fa0994ed, 0x4aca8e5de1c88d3b},
    {"uppar", "cm", 0xf0afe85b2cc64057, 0x6063272d9d05e7ff},
    {"uppar", "nb7", 0x75e8bb68636c5e96, 0x2a33525d433ebe2f},
    {"uppar", "nb8", 0x5bdece81efe2951e, 0x987512f680edb7aa},
    {"flink", "ysb", 0x5d242f61fa0994ed, 0x4e444574f1c3404a},
    {"flink", "cm", 0xf0afe85b2cc64057, 0xa2af80351e9a4bff},
    {"flink", "nb7", 0x75e8bb68636c5e96, 0x347e32e0cb730182},
    {"flink", "nb8", 0x5bdece81efe2951e, 0x7eee263908507206},
    {"lightsaber", "ysb", 0x08be4428aa8bee87, 0x93664c55715d4103},
    {"lightsaber", "cm", 0xa02a88701cc1e031, 0x31fd3f30e4cb8134},
    // LightSaber has no joins: no NB8.
    {"lightsaber", "nb7", 0xf992d07b29d38c03, 0xd598c019ca2f5cd8},
};

void PrintTo(const GoldenCase& golden, std::ostream* os) {
  *os << golden.engine << "/" << golden.workload;
}

class GoldenSnapshot : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenSnapshot, ChecksumAndSnapshotArePinned) {
  const GoldenCase& golden = GetParam();
  const std::unique_ptr<workloads::Workload> workload =
      MakeWorkload(golden.workload);
  const std::unique_ptr<Engine> engine = MakeEngine(golden.engine);
  const int nodes = std::string_view(golden.engine) == "lightsaber" ? 1 : 2;

  const RunStats stats =
      engine->Run(MakeJobSpec("", *workload, GoldenCluster(nodes),
                              GoldenJob()));
  ASSERT_TRUE(stats.ok()) << stats.status.ToString();
  EXPECT_GT(stats.records_emitted(), 0u);
  EXPECT_EQ(stats.result_checksum(), golden.checksum)
      << "checksum 0x" << std::hex << stats.result_checksum();
  EXPECT_EQ(Fnv1a(stats.metrics.ToJson()), golden.snapshot_digest)
      << "snapshot digest 0x" << std::hex << Fnv1a(stats.metrics.ToJson());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, GoldenSnapshot, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.engine) + "_" + info.param.workload;
    });

// Two tenants on one fabric: the cluster snapshot (tenant-labelled job
// instruments plus the shared fabric and DES ones) and each tenant's
// checksum are pinned.
TEST(GoldenMultiJob, TwoTenantClusterSnapshotIsPinned) {
  workloads::YsbWorkload ysb;
  workloads::Nb8Workload nb8;
  const ClusterConfig cluster = GoldenCluster(2);
  JobConfig job = GoldenJob();
  job.checkpoint.enabled = false;

  std::vector<JobSpec> jobs;
  jobs.push_back(MakeJobSpec("t0", ysb, cluster, job, /*quota=*/4));
  jobs.push_back(MakeJobSpec("t1", nb8, cluster, job));

  SlashEngine engine;
  const MultiRunStats multi = engine.RunJobs(jobs, cluster);
  ASSERT_TRUE(multi.ok()) << multi.status.ToString();
  ASSERT_EQ(multi.jobs.size(), 2u);
  const uint64_t digest = Fnv1a(multi.cluster.metrics.ToJson());
  EXPECT_EQ(digest, 0x7bde5bd9a74fd362u)
      << "cluster snapshot digest 0x" << std::hex << digest;
  EXPECT_EQ(multi.jobs[0].result_checksum(), 0x5d242f61fa0994edu)
      << "t0 checksum 0x" << std::hex << multi.jobs[0].result_checksum();
  EXPECT_EQ(multi.jobs[1].result_checksum(), 0x5bdece81efe2951eu)
      << "t1 checksum 0x" << std::hex << multi.jobs[1].result_checksum();
}

}  // namespace
}  // namespace slash::engines
