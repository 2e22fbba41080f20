// The Flink-like baseline: "plug-and-play integration" (paper Sec. 3.1),
// standing in for Apache Flink 1.9 deployed on IPoIB (Sec. 8.1.1).
//
// Architecture modeled: operator fission with queue-based hash
// re-partitioning (engines/repartition_engine.h), socket transport over
// IP-over-InfiniBand (kernel syscalls, user<->kernel copies, interrupts,
// far-below-line-rate goodput), dedicated network threads decoupled from
// processing threads by software queues, and a managed-runtime per-record
// overhead (object (de)serialization, virtual dispatch). The paper shows
// this design gains almost nothing from RDMA hardware; this engine
// reproduces why.
#ifndef SLASH_ENGINES_FLINK_ENGINE_H_
#define SLASH_ENGINES_FLINK_ENGINE_H_

#include "engines/engine.h"
#include "engines/repartition_engine.h"

namespace slash::engines {

class FlinkLikeEngine : public Engine {
 public:
  /// Recovers node crashes from aligned-barrier checkpoints; no health
  /// monitoring, no elasticity.
  static constexpr EngineSupport kSupport{.engine = "Flink (IPoIB)",
                                          .faults = true};
  /// IPoIB sockets between nodes, a managed runtime, and a recovery path.
  static constexpr RepartitionDesign kDesign{.remote = RemoteTransport::kSocket,
                                             .managed_runtime = true,
                                             .recovery = true,
                                             .trace_category = "flink"};

  std::string_view name() const override { return kSupport.engine; }

  RunStats Run(const JobSpec& job) override {
    return RunRepartition(job, kSupport, kDesign);
  }
};

}  // namespace slash::engines

#endif  // SLASH_ENGINES_FLINK_ENGINE_H_
