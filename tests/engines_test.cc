// Cross-engine integration tests: every SUT must produce exactly the
// sequential oracle's results (consistency property P2) on every workload
// it supports, and the relative throughput ordering the paper reports must
// hold (Slash > RDMA UpPar > Flink-like; LightSaber fastest per single
// node among re-partitioning-free designs).
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>

#include "core/oracle.h"
#include "engines/flink_engine.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/readonly.h"
#include "workloads/ysb.h"

namespace slash::engines {
namespace {

ClusterConfig SmallCluster(int nodes, int workers) {
  ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.workers_per_node = workers;
  return cluster;
}

JobConfig SmallJob(uint64_t records) {
  JobConfig job;
  job.records_per_worker = records;
  job.channel.slot_bytes = 16 * kKiB;
  job.epoch_bytes = 64 * kKiB;
  job.state_lss_capacity = 1 << 16;
  job.state_index_buckets = 1 << 10;
  job.collect_rows = true;
  return job;
}

void ExpectMatchesOracle(Engine* engine, const workloads::Workload& workload,
                         const ClusterConfig& cluster, const JobConfig& job) {
  const RunStats stats = engine->Run(MakeJobSpec("", workload, cluster, job));
  const core::OracleOutput oracle = core::ComputeOracle(
      workload.MakeQuery(), workload.Sources(job.records_per_worker, job.seed),
      cluster.nodes * cluster.workers_per_node);
  EXPECT_EQ(stats.records_in(), oracle.records_in) << engine->name();
  EXPECT_EQ(stats.records_emitted(), oracle.count) << engine->name();
  EXPECT_EQ(stats.result_checksum(), oracle.checksum) << engine->name();
  std::vector<core::WindowResult> rows = stats.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, oracle.rows) << engine->name();
}

// --- The re-partitioning engines -------------------------------------------
// UpPar and Flink share one engine over two transports, so both run every
// workload, on several nodes (remote and same-node lanes) and on one node
// (same-node lanes only).

struct OracleCase {
  const char* workload;
  int nodes;
  int workers;
  uint64_t records;
};

constexpr OracleCase kOracleCases[] = {
    {"ysb", 2, 4, 2000}, {"cm", 3, 2, 1500},  {"nb7", 2, 2, 1500},
    {"nb8", 2, 4, 600},  {"nb11", 2, 2, 600}, {"ysb", 1, 4, 2000},
    {"nb8", 1, 4, 600},
};

std::unique_ptr<workloads::Workload> OracleWorkload(std::string_view name) {
  if (name == "ysb") {
    return std::make_unique<workloads::YsbWorkload>(
        workloads::YsbConfig{.key_range = 300});
  }
  if (name == "cm") {
    workloads::CmConfig ccfg;
    ccfg.jobs = 200;
    return std::make_unique<workloads::CmWorkload>(ccfg);
  }
  workloads::NexmarkConfig ncfg;
  if (name == "nb7") {
    ncfg.auctions = 500;
    return std::make_unique<workloads::Nb7Workload>(ncfg);
  }
  if (name == "nb8") {
    ncfg.sellers = 40;
    return std::make_unique<workloads::Nb8Workload>(ncfg);
  }
  ncfg.sellers = 30;
  return std::make_unique<workloads::Nb11Workload>(ncfg);
}

using RepartitionParam = std::tuple<std::string_view, OracleCase>;

class RepartitionOracleTest
    : public ::testing::TestWithParam<RepartitionParam> {};

TEST_P(RepartitionOracleTest, MatchesOracle) {
  const auto& [engine_name, c] = GetParam();
  std::unique_ptr<Engine> engine;
  if (engine_name == "uppar") {
    engine = std::make_unique<UpParEngine>();
  } else {
    engine = std::make_unique<FlinkLikeEngine>();
  }
  const std::unique_ptr<workloads::Workload> workload =
      OracleWorkload(c.workload);
  ExpectMatchesOracle(engine.get(), *workload, SmallCluster(c.nodes, c.workers),
                      SmallJob(c.records));
}

INSTANTIATE_TEST_SUITE_P(
    UpParAndFlink, RepartitionOracleTest,
    ::testing::Combine(::testing::Values("uppar", "flink"),
                       ::testing::ValuesIn(kOracleCases)),
    [](const ::testing::TestParamInfo<RepartitionParam>& info) {
      const OracleCase& c = std::get<1>(info.param);
      return std::string(std::get<0>(info.param)) + "_" + c.workload + "_" +
             std::to_string(c.nodes) + "n";
    });

TEST(UpParEngineTest, SkewedKeysStillCorrect) {
  workloads::RoConfig rcfg;
  rcfg.key_range = 10'000;
  rcfg.keys = workloads::KeyDistribution::Zipf(1.8);
  workloads::RoWorkload workload(rcfg);
  UpParEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(2, 4), SmallJob(2500));
}

TEST(LightSaberEngineTest, YsbMatchesOracle) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  LightSaberEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(1, 4), SmallJob(2000));
}

TEST(LightSaberEngineTest, CmMatchesOracle) {
  workloads::CmConfig ccfg;
  ccfg.jobs = 150;
  workloads::CmWorkload workload(ccfg);
  LightSaberEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(1, 3), SmallJob(2000));
}

TEST(LightSaberEngineTest, RejectsJoins) {
  workloads::Nb8Workload workload;
  LightSaberEngine engine;
  EXPECT_DEATH(engine.Run(MakeJobSpec("", workload, SmallCluster(1, 2),
                                      SmallJob(100))),
               "does not support join");
}

TEST(LightSaberEngineTest, RejectsMultiNode) {
  workloads::YsbWorkload workload;
  LightSaberEngine engine;
  EXPECT_DEATH(engine.Run(MakeJobSpec("", workload, SmallCluster(2, 2),
                                      SmallJob(100))),
               "single-node");
}

// Only Slash runs tenant-labelled, quota-capped jobs; the other engines
// reject either field instead of running the job unthrottled and
// unlabelled.
TEST(TenancyTest, NonSlashEnginesRejectTenantsAndQuotas) {
  workloads::YsbWorkload workload;
  UpParEngine uppar;
  FlinkLikeEngine flink;
  LightSaberEngine lightsaber;
  for (Engine* engine :
       std::initializer_list<Engine*>{&uppar, &flink, &lightsaber}) {
    const int nodes = engine == &lightsaber ? 1 : 2;
    const ClusterConfig cluster = SmallCluster(nodes, 2);
    const RunStats tenant =
        engine->Run(MakeJobSpec("t0", workload, cluster, SmallJob(100)));
    EXPECT_EQ(tenant.status.code(), StatusCode::kUnimplemented)
        << engine->name();
    const RunStats quota = engine->Run(
        MakeJobSpec("", workload, cluster, SmallJob(100), /*quota=*/4));
    EXPECT_EQ(quota.status.code(), StatusCode::kUnimplemented)
        << engine->name();
  }
}

TEST(EngineOrderingTest, SlashFastestOnYsb) {
  // The paper's headline result (Fig. 6a): Slash > RDMA UpPar > Flink.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 2000;
  workloads::YsbWorkload workload(ycfg);
  JobConfig job = SmallJob(15'000);
  job.collect_rows = false;
  const JobSpec spec = MakeJobSpec("", workload, SmallCluster(2, 4), job);

  SlashEngine slash;
  UpParEngine uppar;
  FlinkLikeEngine flink;
  const RunStats s = slash.Run(spec);
  const RunStats u = uppar.Run(spec);
  const RunStats f = flink.Run(spec);

  // Identical work...
  EXPECT_EQ(s.result_checksum(), u.result_checksum());
  EXPECT_EQ(u.result_checksum(), f.result_checksum());
  // ...different speed, in the paper's order.
  EXPECT_GT(s.throughput_rps(), 2.0 * u.throughput_rps());
  EXPECT_GT(u.throughput_rps(), f.throughput_rps());
}

TEST(EngineOrderingTest, UpParSuffersUnderSkewSlashDoesNot) {
  // Fig. 8d: hash partitioning loses throughput under Zipf skew; Slash's
  // transfer performance is not data-dependent.
  auto run_ro = [](Engine* engine, double z) {
    workloads::RoConfig rcfg;
    rcfg.key_range = 100'000;
    rcfg.keys = z == 0.0 ? workloads::KeyDistribution::Uniform()
                         : workloads::KeyDistribution::Zipf(z);
    workloads::RoWorkload workload(rcfg);
    // 8 workers/node: like the paper's 10-thread nodes, enough sender
    // parallelism that the skew-hot receiver becomes the bottleneck.
    JobConfig job = SmallJob(8'000);
    job.collect_rows = false;
    return engine->Run(MakeJobSpec("", workload, SmallCluster(2, 8), job))
        .throughput_rps();
  };
  SlashEngine slash;
  UpParEngine uppar;
  const double uppar_drop = run_ro(&uppar, 2.0) / run_ro(&uppar, 0.0);
  const double slash_drop = run_ro(&slash, 2.0) / run_ro(&slash, 0.0);
  EXPECT_LT(uppar_drop, 0.85);  // UpPar loses significant throughput
  EXPECT_GT(slash_drop, 0.95);  // Slash is skew-agnostic
}

TEST(ExecutionStrategyTest, CompiledMatchesInterpretedResultsAndIsFaster) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 1000;
  workloads::YsbWorkload workload(ycfg);
  const ClusterConfig cluster = SmallCluster(2, 4);
  JobConfig interpreted = SmallJob(10'000);
  interpreted.collect_rows = false;
  JobConfig compiled = interpreted;
  compiled.execution = core::ExecutionStrategy::kCompiled;

  SlashEngine engine;
  const RunStats a =
      engine.Run(MakeJobSpec("", workload, cluster, interpreted));
  const RunStats b = engine.Run(MakeJobSpec("", workload, cluster, compiled));

  EXPECT_EQ(a.result_checksum(), b.result_checksum());  // identical semantics
  EXPECT_GT(a.TotalCounters().instructions,
            b.TotalCounters().instructions);        // fewer dispatches
  EXPECT_GT(b.throughput_rps(), a.throughput_rps());
}

}  // namespace
}  // namespace slash::engines
