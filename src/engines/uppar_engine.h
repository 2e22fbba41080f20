// RDMA UpPar: the "lightweight integration" straw man (paper Sec. 3.1).
//
// UpPar keeps the classic scale-out SPE architecture — operator fission
// with hash re-partitioning so every physical window operator owns a
// disjoint key partition — and merely replaces socket transports with
// Slash's RDMA channels (engines/repartition_engine.h).
//
// This is the paper's strongest baseline, and its failure mode is the
// paper's central claim: partitioning is CPU-bound (front-end stalls from
// the branchy fan-out code), the sender throughput caps the pipeline, and
// skewed keys overload single receivers — RDMA alone does not fix a
// re-partitioning design.
#ifndef SLASH_ENGINES_UPPAR_ENGINE_H_
#define SLASH_ENGINES_UPPAR_ENGINE_H_

#include "engines/engine.h"
#include "engines/repartition_engine.h"

namespace slash::engines {

class UpParEngine : public Engine {
 public:
  /// Survives transient faults by channel retry; has no recovery path, so
  /// a permanent fault aborts the run. No health monitoring, no elasticity.
  static constexpr EngineSupport kSupport{.engine = "RDMA UpPar",
                                          .faults = true};
  /// RDMA channels between nodes, native code, no recovery path: UpPar
  /// ignores JobConfig::checkpoint.
  static constexpr RepartitionDesign kDesign{
      .remote = RemoteTransport::kRdmaChannel, .trace_category = "uppar"};

  std::string_view name() const override { return kSupport.engine; }

  RunStats Run(const JobSpec& job) override {
    return RunRepartition(job, kSupport, kDesign);
  }
};

}  // namespace slash::engines

#endif  // SLASH_ENGINES_UPPAR_ENGINE_H_
