// The LightSaber-like scale-up engine (paper Sec. 8.2.4, COST analysis).
//
// LightSaber [Theodorakis et al., SIGMOD'20] targets single-node,
// multi-core window aggregation with task-based parallelism and *late
// merge*: worker threads eagerly accumulate thread-local partial
// aggregates and a merge step lazily combines them per window. No network,
// no re-partitioning. It does not support joins (the paper selects YSB,
// CM, and NB7 for the COST comparison for exactly that reason).
//
// This engine is the fastest possible single node in our cost model — it
// pays neither the epoch protocol nor any network — which is what makes
// the COST comparison meaningful.
#ifndef SLASH_ENGINES_LIGHTSABER_ENGINE_H_
#define SLASH_ENGINES_LIGHTSABER_ENGINE_H_

#include "engines/engine.h"

namespace slash::engines {

class LightSaberEngine : public Engine {
 public:
  /// One node and no network: nothing to inject faults into, monitor or
  /// rescale.
  static constexpr EngineSupport kSupport{.engine = "LightSaber"};

  std::string_view name() const override { return kSupport.engine; }

  /// Runs on a single node; the cluster must have nodes == 1. Joins are
  /// unsupported (check-fails), matching the real system.
  RunStats Run(const JobSpec& job) override;
};

}  // namespace slash::engines

#endif  // SLASH_ENGINES_LIGHTSABER_ENGINE_H_
