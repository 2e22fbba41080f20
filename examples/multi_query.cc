// Multi-query multi-tenant execution (DESIGN.md §12): three tenants —
// gold, silver, bronze — submit three different queries (YSB ad analytics,
// Cluster Monitoring, a NEXMark NB8 window join) as JobSpecs to ONE
// simulated Slash cluster via SlashEngine::RunJobs.
//
//   $ ./build/examples/multi_query
//
// What the run demonstrates:
//   * One DES + one RDMA fabric execute all three jobs concurrently;
//     fair interleaving falls out of the timestamp-ordered event queue.
//   * Per-tenant NIC-credit quotas (gold 96, silver 48, bronze 24) cap
//     each job's in-flight channel credits; denials park the producer
//     until one of the tenant's transfers completes.
//   * The cluster metrics snapshot carries a {tenant=...} label on every
//     job-scoped instrument, so MultiRunStats splits it into per-job
//     RunStats views — and each view's results are checked against the
//     tenant's own sequential oracle.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "engines/slash_engine.h"
#include "obs/metrics.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/ysb.h"

int main() {
  using namespace slash;

  engines::ClusterConfig cluster;
  cluster.nodes = 4;
  cluster.workers_per_node = 2;

  engines::JobConfig config;
  config.records_per_worker = 4000;

  workloads::YsbWorkload ysb;
  workloads::CmWorkload cm;
  workloads::Nb8Workload nb8;

  struct Tenant {
    const char* name;
    const workloads::Workload* workload;
    uint32_t quota;
  };
  const std::vector<Tenant> tenants = {
      {"gold", &ysb, 96},
      {"silver", &cm, 48},
      {"bronze", &nb8, 24},
  };

  std::vector<engines::JobSpec> jobs;
  for (const Tenant& t : tenants) {
    jobs.push_back(
        engines::MakeJobSpec(t.name, *t.workload, cluster, config, t.quota));
  }

  engines::SlashEngine engine;
  const engines::MultiRunStats multi = engine.RunJobs(jobs, cluster);
  if (!multi.ok()) {
    std::fprintf(stderr, "multi-job run failed: %s\n",
                 multi.status.ToString().c_str());
    return 1;
  }

  std::printf("cluster: %llu records in, makespan %.2f ms, %llu results\n\n",
              (unsigned long long)multi.cluster.records_in(),
              double(multi.cluster.makespan()) / 1e6,
              (unsigned long long)multi.cluster.records_emitted());

  std::printf("%-8s %-10s %10s %10s %12s %12s  %s\n", "tenant", "query",
              "records", "results", "drain [ms]", "denials", "oracle");
  bool all_match = true;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const engines::RunStats& job = multi.jobs[j];
    const core::QuerySpec query = tenants[j].workload->MakeQuery();
    const core::OracleOutput oracle = core::ComputeOracle(
        query,
        tenants[j].workload->Sources(config.records_per_worker, config.seed),
        cluster.nodes * cluster.workers_per_node);
    const bool match = job.records_in() == oracle.records_in &&
                       job.records_emitted() == oracle.count &&
                       job.result_checksum() == oracle.checksum;
    all_match = all_match && match;
    std::printf("%-8s %-10s %10llu %10llu %12.2f %12llu  %s\n",
                tenants[j].name, std::string(query.name).c_str(),
                (unsigned long long)job.records_in(),
                (unsigned long long)job.records_emitted(),
                double(job.metrics.CounterValue(obs::metric::kJobDrainNs)) /
                    1e6,
                (unsigned long long)job.metrics.CounterValue(
                    obs::metric::kChannelQuotaDenials),
                match ? "PASS" : "FAIL");
  }

  if (!all_match) {
    std::fprintf(stderr, "\nFAIL: a tenant diverged from its oracle\n");
    return 1;
  }
  std::printf("\nPASS: every tenant matches its sequential oracle\n");
  return 0;
}
