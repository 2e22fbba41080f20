#include "engines/job.h"

#include <utility>

namespace slash::engines {

JobSpec MakeJobSpec(std::string tenant, const workloads::Workload& workload,
                    const ClusterConfig& cluster, const JobConfig& config,
                    uint32_t quota) {
  JobSpec job;
  job.tenant = std::move(tenant);
  job.sources = &workload;
  job.quota = quota;
  job.cluster = cluster;
  job.config = config;
  return job;
}

}  // namespace slash::engines
