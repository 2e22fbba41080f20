// The query model: the declarative description of one continuous query
// (paper Sec. 2.2 / 5.2).
//
// A QuerySpec describes the paper's one query shape (Sec. 5.2), a linear
// pipeline: source -> [filter] -> [project] -> keyed window aggregate |
// join -> sink. Each workload authors its query (Workload::MakeQuery) and
// the engines run it as one job of a JobSpec (engines/job.h) — possibly
// alongside other tenants' jobs on the same fabric — interpreting the
// stateless stages through the RecordPipeline. Each engine realizes the
// key-partitioned window with its own execution strategy (Slash: shared
// mutable state, no re-partitioning; UpPar/Flink: hash exchange;
// LightSaber: single-node late merge).
#ifndef SLASH_CORE_QUERY_H_
#define SLASH_CORE_QUERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/record.h"
#include "core/window.h"
#include "state/crdt.h"

namespace slash::core {

/// Abstract pull-based record source: one physical data flow of a stream.
/// Implementations (src/workloads) are deterministic per (flow, seed).
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// Produces the next record; false at end of flow. Timestamps are
  /// non-decreasing within a flow.
  virtual bool Next(Record* out) = 0;
};

/// A declarative continuous query.
struct QuerySpec {
  enum class Type { kAggregate, kJoin };

  std::string name;
  Type type = Type::kAggregate;

  /// Optional stateless predicate (applied first). Null = all records pass.
  std::function<bool(const Record&)> filter;

  /// Optional stateless projection / transformation (applied second).
  std::function<void(Record*)> project;

  /// The stateful operator's window.
  WindowSpec window = WindowSpec::Tumbling(1000);

  /// Aggregation function (kAggregate only).
  state::AggKind agg = state::AggKind::kSum;

  /// Join sides by stream id (kJoin only): the result per (window, key) is
  /// the number of (left, right) record pairs.
  uint16_t left_stream = 0;
  uint16_t right_stream = 1;

  bool is_join() const { return type == Type::kJoin; }
};

}  // namespace slash::core

#endif  // SLASH_CORE_QUERY_H_
