// The drill-down transfer harness of the paper's Sec. 8.3 experiments.
//
// It reproduces the setup described there verbatim: Slash instances on two
// simulated servers connected by a single RDMA NIC; every producer thread
// on the first node streams buffers of records to the second node, whose
// consumer threads poll the channels and apply stateful operator logic
// (the RO benchmark's per-key count). Two transfer modes:
//
//   * direct (Slash):      producer i -> consumer i over one channel;
//                          records flow without per-record routing.
//   * partitioned (UpPar): every producer hash-partitions each record to
//                          one of the consumers' channels, paying the
//                          partition-select and fan-out costs.
//
// A pull-mode variant (RDMA READ polling) backs the verbs ablation.
// The harness powers Figs. 8a-8d, Fig. 9, and the credits/verbs ablations.
#ifndef SLASH_BENCH_UTIL_TRANSFER_H_
#define SLASH_BENCH_UTIL_TRANSFER_H_

#include <cstdint>

#include "common/status.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "perf/cost_model.h"
#include "rdma/nic.h"
#include "rdma/srq.h"
#include "workloads/distributions.h"

namespace slash::bench {

struct TransferConfig {
  int producers = 2;
  int consumers = 10;
  uint64_t slot_bytes = 64 * kKiB;
  uint32_t credits = 8;
  uint64_t records_per_producer = 100'000;
  uint16_t record_bytes = 32;
  bool partitioned = false;       // UpPar mode: hash fan-out
  bool pull = false;              // RDMA READ pull mode (direct only)
  bool update_state = true;       // apply the RO count on the consumer
  workloads::KeyDistribution keys = workloads::KeyDistribution::Uniform();
  uint64_t key_range = 100'000'000;
  rdma::NicConfig nic;
  rdma::ConnectionConfig connection;  // flow->QP mapping (rdma/srq.h)
  double cpu_ghz = 2.4;
  uint64_t seed = 42;

  /// Verbs-level batching knobs, forwarded to ChannelConfig (both opt-in;
  /// defaults reproduce the unbatched protocol byte-for-byte).
  uint32_t post_batch = 1;        // doorbell batching
  uint32_t inline_threshold = 0;  // inline-send fast path
};

struct TransferResult {
  /// OK for a completed run; the first channel error otherwise (benches
  /// gate on this via RequireCompleted instead of silently reporting a
  /// truncated transfer).
  Status status;
  Nanos makespan = 0;
  uint64_t payload_bytes = 0;  // record bytes delivered
  uint64_t wire_bytes = 0;     // NIC transmit volume
  /// Records delivered, read back from the run's obs counter
  /// ("transfer.records_out") — the registry is the single source of truth
  /// the engines also publish through.
  uint64_t records = 0;
  obs::Histogram buffer_latency;
  perf::Counters sender;
  perf::Counters receiver;

  /// Goodput in GB/s of virtual time (compare to the 11.8 GB/s line rate).
  double goodput_gbytes_per_sec() const {
    return makespan > 0 ? double(payload_bytes) / double(makespan) : 0;
  }
  double records_per_second() const {
    return makespan > 0 ? double(records) * 1e9 / double(makespan) : 0;
  }
};

/// Runs the transfer experiment to completion (deterministic).
TransferResult RunTransfer(const TransferConfig& config);

}  // namespace slash::bench

#endif  // SLASH_BENCH_UTIL_TRANSFER_H_
