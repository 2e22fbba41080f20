#include "engines/engine.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/logging.h"

namespace slash::engines {

RecoveryCoordinator::RecoveryCoordinator(int nodes,
                                         obs::Counter* checkpoints_taken)
    : nodes_(nodes), blobs_(nodes), final_from_(nodes, -1),
      retired_(nodes, false), retire_round_(nodes, 0),
      join_round_(nodes, 0), checkpoints_taken_(checkpoints_taken) {}

void RecoveryCoordinator::RecordLocal(int node, uint64_t round,
                                      std::vector<uint8_t>&& bytes) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, nodes_);
  // Fencing invariant: a retired (quarantined/dead) node's snapshots are
  // taken by its heir under the heir's own identity, and no round may be
  // committed twice — a double commit would mean two nodes both believed
  // they led the same partitions for the same epoch (split brain).
  SLASH_CHECK_MSG(!retired_[node],
                  "retired node " << node << " attempted to commit round "
                                  << round);
  SLASH_CHECK_MSG(blobs_[node].count(round) == 0,
                  "epoch committed twice: node " << node << " round "
                                                 << round);
  Blob& blob = blobs_[node][round];
  blob.bytes = std::move(bytes);
  blob.holders.assign(1, node);
  checkpoints_taken_->Add(1);
}

void RecoveryCoordinator::RecordReplica(int node, uint64_t round, int holder) {
  auto it = blobs_[node].find(round);
  SLASH_CHECK_MSG(it != blobs_[node].end(),
                  "replica of an unrecorded snapshot: node "
                      << node << " round " << round);
  std::vector<int>& holders = it->second.holders;
  if (std::find(holders.begin(), holders.end(), holder) == holders.end()) {
    holders.push_back(holder);
  }
}

void RecoveryCoordinator::MarkFinalFrom(int node, uint64_t round) {
  SLASH_CHECK(blobs_[node].count(round) > 0);
  final_from_[node] = static_cast<int64_t>(round);
}

const RecoveryCoordinator::Blob* RecoveryCoordinator::FindBlob(
    int node, uint64_t round) const {
  auto it = blobs_[node].find(round);
  if (it != blobs_[node].end()) return &it->second;
  // A terminal snapshot stands in for every round past it.
  if (final_from_[node] >= 0 &&
      round >= static_cast<uint64_t>(final_from_[node])) {
    auto fit = blobs_[node].find(static_cast<uint64_t>(final_from_[node]));
    if (fit != blobs_[node].end()) return &fit->second;
  }
  return nullptr;
}

const std::vector<uint8_t>* RecoveryCoordinator::BlobFor(
    int node, uint64_t round) const {
  const Blob* blob = FindBlob(node, round);
  return blob != nullptr ? &blob->bytes : nullptr;
}

uint64_t RecoveryCoordinator::RestoreBytes(uint64_t round) const {
  uint64_t bytes = 0;
  for (int node = 0; node < nodes_; ++node) {
    if (const Blob* blob = FindBlob(node, round)) bytes += blob->bytes.size();
  }
  return bytes;
}

uint64_t RecoveryCoordinator::LatestRecoverableRound(
    const std::vector<bool>& alive) const {
  uint64_t max_round = 0;
  for (int node = 0; node < nodes_; ++node) {
    if (!blobs_[node].empty()) {
      max_round = std::max(max_round, blobs_[node].rbegin()->first);
    }
  }
  for (uint64_t k = max_round; k >= 1; --k) {
    bool all_restorable = true;
    for (int node = 0; node < nodes_ && all_restorable; ++node) {
      if (!HasOwnBlob(node, k)) continue;
      const Blob* blob = FindBlob(node, k);
      if (blob == nullptr) {
        all_restorable = false;
        break;
      }
      bool live_copy = false;
      for (int holder : blob->holders) live_copy |= alive[holder];
      all_restorable = live_copy;
    }
    if (all_restorable) return k;
  }
  return 0;
}

bool RecoveryCoordinator::HasOwnBlob(int node, uint64_t round) const {
  // A retired node is exempt only for rounds after its retirement: the
  // heir's own blobs carry its partitions from then on. At or before the
  // retirement round the retired node's blob (on a live holder) is still
  // required. An elastic joiner has no blobs at or before its join round —
  // its partitions up to then live in the pre-join owners' blobs.
  if (retired_[node] && round > retire_round_[node]) return false;
  return round > join_round_[node];
}

void RecoveryCoordinator::ForEachRestoreBlob(
    uint64_t round,
    const std::function<void(int node, BlobReader* body)>& fn) const {
  for (int node = 0; node < nodes_; ++node) {
    if (!HasOwnBlob(node, round)) continue;
    const Blob* blob = FindBlob(node, round);
    SLASH_CHECK_MSG(blob != nullptr,
                    "round " << round << " has no blob for node " << node);
    BlobReader body(blob->bytes.data(), blob->bytes.size());
    body.U64();  // the blob's own round
    fn(node, &body);
    SLASH_CHECK(body.done());
  }
}

void RecoveryCoordinator::RetireNode(int node, uint64_t retirement_round) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, nodes_);
  retired_[node] = true;
  retire_round_[node] = retirement_round;
}

void RecoveryCoordinator::RetireDead(const std::vector<bool>& alive,
                                     uint64_t round) {
  for (int node = 0; node < nodes_; ++node) {
    if (!alive[node] && !retired_[node]) RetireNode(node, round);
  }
}

void RecoveryCoordinator::UnretireNode(int node) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, nodes_);
  retired_[node] = false;
  retire_round_[node] = 0;
  // The rejoined node replays input forward again, so a pre-quarantine
  // terminal snapshot must not stand in for rounds it will now regenerate.
  final_from_[node] = -1;
}

void RecoveryCoordinator::JoinNode(int node, uint64_t join_round) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, nodes_);
  retired_[node] = false;
  retire_round_[node] = 0;
  join_round_[node] = join_round;
  // The joiner starts snapshotting from join_round + 1; any stale terminal
  // mark from a pre-provisioning retirement must not stand in for them.
  final_from_[node] = -1;
}

void RecoveryCoordinator::DiscardRoundsAfter(uint64_t round) {
  for (int node = 0; node < nodes_; ++node) {
    std::map<uint64_t, Blob>& rounds = blobs_[node];
    rounds.erase(rounds.upper_bound(round), rounds.end());
    if (final_from_[node] >= 0 &&
        static_cast<uint64_t>(final_from_[node]) > round) {
      final_from_[node] = -1;
    }
    // A rollback below a node's join round re-runs the handoff epochs: the
    // joiner regenerates blobs from the rollback round onward, so they must
    // be required (and restorable) again from there.
    join_round_[node] = std::min(join_round_[node], round);
  }
}

int RecoveryCoordinator::Heir(int node, uint64_t round,
                              const std::vector<bool>& alive) const {
  if (const Blob* blob = FindBlob(node, round)) {
    for (int holder : blob->holders) {
      if (alive[holder]) return holder;
    }
  }
  for (int i = 1; i <= nodes_; ++i) {
    const int candidate = (node + i) % nodes_;
    if (alive[candidate]) return candidate;
  }
  return -1;
}

std::vector<std::pair<int, int>> ReplicaPairs(const std::vector<bool>& alive,
                                              int replication_factor) {
  std::vector<int> live;
  for (int n = 0; n < int(alive.size()); ++n) {
    if (alive[n]) live.push_back(n);
  }
  const int targets =
      std::clamp(replication_factor, 0, std::max(int(live.size()) - 1, 0));
  std::vector<std::pair<int, int>> pairs;
  for (size_t i = 0; i < live.size(); ++i) {
    for (int k = 1; k <= targets; ++k) {
      pairs.emplace_back(live[i], live[(i + size_t(k)) % live.size()]);
    }
  }
  return pairs;
}

const uint8_t* BlobReader::Take(size_t len) {
  SLASH_CHECK_LE(len, len_ - pos_);
  pos_ += len;
  return data_ + pos_ - len;
}

void BlobReader::SinkPiece(core::ResultSink* sink) {
  const uint64_t count = U64();
  const uint64_t checksum = U64();
  std::vector<core::WindowResult> rows(U64());
  for (core::WindowResult& row : rows) {
    row.bucket = I64();
    row.key = U64();
    row.value = I64();
  }
  sink->Restore(count, checksum, rows);
}

Status CheckUntenanted(const JobSpec& spec, std::string_view engine) {
  if (spec.tenant.empty() && spec.quota == 0) return Status::OK();
  return Status::Unimplemented("tenants and quotas are not supported by " +
                               std::string(engine));
}

ClusterRuntime::ClusterRuntime(obs::Tracer* external)
    : external_(external),
      local_(obs::Tracer::Options{
          .capacity = 1 << 16,
          .enabled = external == nullptr &&
                     obs::Exporter::TraceDir() != nullptr}) {}

Result<std::unique_ptr<ClusterRuntime>> ClusterRuntime::Create(
    const ClusterConfig& cluster, int fabric_nodes,
    const EngineSupport& support, obs::Tracer* tracer) {
  const bool faults =
      cluster.fault_plan != nullptr && !cluster.fault_plan->empty();
  const auto unsupported = [&support](std::string_view what) {
    return Status::Unimplemented(std::string(what) + " is not supported by " +
                                 std::string(support.engine));
  };
  if (faults && !support.faults) return unsupported("fault injection");
  if (cluster.health.enabled && !support.health) {
    return unsupported("health monitoring");
  }
  if (cluster.reconfig != nullptr && !support.reconfig) {
    return unsupported("elastic reconfiguration");
  }
  // A malformed plan is a configuration error reported up front, not a
  // mid-run surprise: the fault plan is checked against the fabric's node
  // count (source nodes included), the reconfiguration plan against the
  // provisioned cluster and the fault plan it must not contradict.
  if (faults) SLASH_RETURN_IF_ERROR(cluster.fault_plan->Validate(fabric_nodes));
  if (cluster.health.enabled) SLASH_RETURN_IF_ERROR(cluster.health.Validate());
  if (cluster.reconfig != nullptr) {
    SLASH_RETURN_IF_ERROR(cluster.reconfig->Validate(cluster.nodes));
    if (faults) {
      SLASH_RETURN_IF_ERROR(cluster.reconfig->ValidateWithFaults(
          *cluster.fault_plan, cluster.nodes));
    }
  }

  std::unique_ptr<ClusterRuntime> rt(new ClusterRuntime(tracer));
  if (faults) {
    rt->injector_ =
        std::make_unique<sim::FaultInjector>(&rt->sim_, *cluster.fault_plan);
    rt->sim_.set_fault_injector(rt->injector_.get());
  }
  // Null when disabled, so every trace point downstream is one branch.
  obs::Tracer* t = rt->tracer();
  rt->sim_.set_tracer(t->enabled() ? t : nullptr);
  if (t->enabled()) {
    // The trace topology: one process per node, the conventional tracks
    // per process.
    const int nodes = fabric_nodes > 0 ? fabric_nodes : cluster.nodes;
    for (int n = 0; n < nodes; ++n) {
      t->SetProcessName(n, "node" + std::to_string(n));
      t->SetTrackName(n, obs::kTrackEngine, "engine");
      t->SetTrackName(n, obs::kTrackChannel, "channel");
      t->SetTrackName(n, obs::kTrackRecovery, "recovery");
      t->SetTrackName(n, obs::kTrackHealth, "health");
      t->SetTrackName(n, obs::kTrackElastic, "elastic");
    }
  }
  if (fabric_nodes > 0) {
    rdma::FabricConfig fabric_config;
    fabric_config.nodes = fabric_nodes;
    fabric_config.nic = cluster.nic;
    fabric_config.connection = cluster.connection;
    rt->fabric_ = std::make_unique<rdma::Fabric>(&rt->sim_, fabric_config);
  }
  return rt;
}

void ClusterRuntime::Run(RunStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  const Nanos makespan = sim_.Run();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats->sim_events_per_sec_wall =
      secs > 0 ? double(sim_.events_fired()) / secs : 0.0;
  obs::MetricsRegistry& registry = sim_.metrics();
  registry.GetCounter(obs::metric::kRunMakespanNs)->Add(uint64_t(makespan));
  registry.GetCounter(obs::metric::kSimEventsFired)->Add(sim_.events_fired());
  registry.GetCounter(obs::metric::kSimEventBytes)
      ->Add(sim_.event_bytes_allocated());
  registry.GetGauge(obs::metric::kSimPoolHitRate)->Set(sim_.pool_hit_rate());
}

void ClusterRuntime::Finish(RunStats* stats,
                            const obs::LabelSet& fault_labels) {
  SLASH_CHECK_MSG(!stats->ok() || sim_.pending_tasks() == 0,
                  stats->engine << " run deadlocked with "
                                << sim_.pending_tasks() << " pending tasks");
  obs::MetricsRegistry& registry = sim_.metrics();
  if (injector_ != nullptr) {
    registry.GetCounter(obs::metric::kFaultsInjected, fault_labels)
        ->Add(injector_->trace().size());
    registry.GetCounter(obs::metric::kFaultTraceDigest, fault_labels)
        ->Add(injector_->trace_digest());
  }
  stats->metrics = registry.Snapshot();
  if (external_ == nullptr && local_.enabled()) {
    obs::Exporter::WriteRunArtifacts(local_, stats->metrics, stats->engine);
  }
}

}  // namespace slash::engines
