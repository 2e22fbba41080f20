// The re-partitioning engine behind both of the paper's baselines (Sec.
// 3.1): operator fission with hash re-partitioning. Per node, half the
// worker threads are *senders* (source, stateless stages, per-record
// partitioning, fan-out buffers) and half are *receivers* (co-partitioned
// window state, triggering) — the configuration of Sec. 8.2.2: "they use
// half the threads to execute the filter and projection and the second half
// for the window operator".
//
// RDMA UpPar and the Flink-like baseline are this one design. They differ
// only in how they integrate the network, which one RepartitionDesign value
// per engine states: the remote transport, the managed-runtime costs, and
// whether the design has a recovery path.
#ifndef SLASH_ENGINES_REPARTITION_ENGINE_H_
#define SLASH_ENGINES_REPARTITION_ENGINE_H_

#include <cstdint>
#include <string_view>

#include "engines/engine.h"

namespace slash::engines {

/// How a sender reaches a consumer on another node. A same-node consumer is
/// always reached through an in-memory queue.
enum class RemoteTransport : uint8_t {
  kRdmaChannel,  // Slash's credit-based channel: slot acquire, post, poll
  kSocket,       // IPoIB: kernel syscalls, copies and interrupts per message
};

struct RepartitionDesign {
  RemoteTransport remote = RemoteTransport::kRdmaChannel;
  /// Managed-runtime costs: a per-record overhead (object (de)serialization,
  /// virtual dispatch) on both sides, and a software-queue handoff on every
  /// local push and every socket receive.
  bool managed_runtime = false;
  /// Aligned-barrier checkpoints (when JobConfig::checkpoint.enabled),
  /// snapshot replication and crash rollback. Without one, the engine
  /// ignores JobConfig::checkpoint and a broken channel aborts the run.
  bool recovery = false;
  std::string_view trace_category;  // of the engine's trace events
};

/// Runs `job` on `design`. `support` names the engine and bounds the
/// cluster features it accepts.
RunStats RunRepartition(const JobSpec& job, const EngineSupport& support,
                        const RepartitionDesign& design);

}  // namespace slash::engines

#endif  // SLASH_ENGINES_REPARTITION_ENGINE_H_
