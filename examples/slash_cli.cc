// slash_cli: run any paper workload on any engine from the command line.
//
//   $ ./build/examples/slash_cli [options]
//     --engine   slash | uppar | flink | lightsaber     (default slash)
//     --workload ysb | cm | nb7 | nb8 | nb11 | ro       (default ysb)
//     --nodes N            (default 4; lightsaber forces 1)
//     --workers N          (default 8)
//     --records N          records per worker (default 20000)
//     --epoch-kib N        SSB epoch length (default 1024)
//     --credits N          RDMA channel credits (default 8)
//     --slot-kib N         channel slot size (default 32)
//     --zipf Z             key skew for ysb/ro (default: workload default)
//     --compiled           fused/compiled execution strategy
//     --verify             compare results against the sequential oracle
//
// Example:
//   $ ./build/examples/slash_cli --engine uppar --workload cm --nodes 8
//       --workers 10 --verify
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench_util/harness.h"
#include "core/oracle.h"
#include "engines/flink_engine.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/readonly.h"
#include "workloads/ysb.h"

namespace {

struct Options {
  std::string engine = "slash";
  std::string workload = "ysb";
  int nodes = 4;
  int workers = 8;
  uint64_t records = 20'000;
  uint64_t epoch_kib = 1024;
  uint32_t credits = 8;
  uint64_t slot_kib = 32;
  double zipf = -1.0;  // <0: workload default
  bool compiled = false;
  bool verify = false;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--engine slash|uppar|flink|lightsaber] "
               "[--workload ysb|cm|nb7|nb8|nb11|ro] [--nodes N] "
               "[--workers N] [--records N] [--epoch-kib N] [--credits N] "
               "[--slot-kib N] [--zipf Z] [--compiled] [--verify]\n",
               argv0);
  std::exit(2);
}

bool ParseOptions(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--engine") {
      opts->engine = next("--engine");
    } else if (arg == "--workload") {
      opts->workload = next("--workload");
    } else if (arg == "--nodes") {
      opts->nodes = std::atoi(next("--nodes"));
    } else if (arg == "--workers") {
      opts->workers = std::atoi(next("--workers"));
    } else if (arg == "--records") {
      opts->records = std::strtoull(next("--records"), nullptr, 10);
    } else if (arg == "--epoch-kib") {
      opts->epoch_kib = std::strtoull(next("--epoch-kib"), nullptr, 10);
    } else if (arg == "--credits") {
      opts->credits = uint32_t(std::atoi(next("--credits")));
    } else if (arg == "--slot-kib") {
      opts->slot_kib = std::strtoull(next("--slot-kib"), nullptr, 10);
    } else if (arg == "--zipf") {
      opts->zipf = std::atof(next("--zipf"));
    } else if (arg == "--compiled") {
      opts->compiled = true;
    } else if (arg == "--verify") {
      opts->verify = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::unique_ptr<slash::workloads::Workload> MakeWorkload(const Options& o) {
  using namespace slash::workloads;
  const bool skewed = o.zipf >= 0.0;
  if (o.workload == "ysb") {
    YsbConfig cfg;
    cfg.key_range = 100'000;
    if (skewed) cfg.keys = KeyDistribution::Zipf(o.zipf);
    return std::make_unique<YsbWorkload>(cfg);
  }
  if (o.workload == "cm") {
    return std::make_unique<CmWorkload>(CmConfig{});
  }
  if (o.workload == "nb7") {
    return std::make_unique<Nb7Workload>(NexmarkConfig{});
  }
  if (o.workload == "nb8") {
    return std::make_unique<Nb8Workload>(NexmarkConfig{});
  }
  if (o.workload == "nb11") {
    return std::make_unique<Nb11Workload>(NexmarkConfig{});
  }
  if (o.workload == "ro") {
    RoConfig cfg;
    if (skewed) cfg.keys = KeyDistribution::Zipf(o.zipf);
    return std::make_unique<RoWorkload>(cfg);
  }
  return nullptr;
}

std::unique_ptr<slash::engines::Engine> MakeEngine(const Options& o) {
  using namespace slash::engines;
  if (o.engine == "slash") return std::make_unique<SlashEngine>();
  if (o.engine == "uppar") return std::make_unique<UpParEngine>();
  if (o.engine == "flink") return std::make_unique<FlinkLikeEngine>();
  if (o.engine == "lightsaber") return std::make_unique<LightSaberEngine>();
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) Usage(argv[0]);

  auto workload = MakeWorkload(opts);
  auto engine = MakeEngine(opts);
  if (workload == nullptr || engine == nullptr) Usage(argv[0]);
  if (opts.engine == "lightsaber") opts.nodes = 1;

  slash::engines::ClusterConfig cluster;
  cluster.nodes = opts.nodes;
  cluster.workers_per_node = opts.workers;
  slash::engines::JobConfig job;
  job.records_per_worker = opts.records;
  job.epoch_bytes = opts.epoch_kib * slash::kKiB;
  job.channel.credits = opts.credits;
  job.channel.slot_bytes = opts.slot_kib * slash::kKiB;
  job.execution = opts.compiled ? slash::core::ExecutionStrategy::kCompiled
                                : slash::core::ExecutionStrategy::kInterpreted;

  const slash::core::QuerySpec query = workload->MakeQuery();
  const slash::engines::RunStats stats =
      engine->Run(slash::engines::MakeJobSpec("", *workload, cluster, job));
  slash::bench::RequireCompleted(stats, std::string(engine->name()));

  std::printf("engine            : %s\n", std::string(engine->name()).c_str());
  std::printf("workload          : %s (%s)\n",
              std::string(workload->name()).c_str(), query.name.c_str());
  std::printf("cluster           : %d nodes x %d workers\n", cluster.nodes,
              cluster.workers_per_node);
  std::printf("records processed : %llu\n",
              static_cast<unsigned long long>(stats.records_in()));
  std::printf("virtual makespan  : %s\n",
              slash::FormatNanos(stats.makespan()).c_str());
  std::printf("throughput        : %.2f M records/s\n",
              stats.throughput_rps() / 1e6);
  std::printf("network volume    : %s (%.2f GB/s)\n",
              slash::FormatBytes(stats.network_bytes()).c_str(),
              stats.network_gbytes_per_sec());
  std::printf("result rows       : %llu (checksum %016llx)\n",
              static_cast<unsigned long long>(stats.records_emitted()),
              static_cast<unsigned long long>(stats.result_checksum()));
  for (const auto& [role, counters] : stats.role_counters()) {
    std::printf("%-18s: %s\n", role.c_str(), counters.Summary().c_str());
  }

  if (opts.verify) {
    const slash::core::OracleOutput oracle = slash::core::ComputeOracle(
        query, workload->Sources(job.records_per_worker, job.seed),
        cluster.nodes * cluster.workers_per_node);
    const bool ok = oracle.checksum == stats.result_checksum() &&
                    oracle.count == stats.records_emitted();
    std::printf("oracle            : %s\n", ok ? "PASS" : "FAIL");
    if (!ok) return 1;
  }
  return 0;
}
