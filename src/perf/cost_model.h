// The calibrated operation cost model.
//
// Engines charge one `Op` per micro-operation they perform (hash probe,
// state RMW, partition select, RDMA post, empty-poll pause, ...). Each Op
// carries an instruction count, per-category cycle attribution, expected
// cache misses, and DRAM traffic. A CpuContext turns charged cycles into
// virtual time on the simulator, so *throughput and breakdowns come from the
// same numbers* — exactly the property the paper uses counters to establish
// (Sec. 8.3): UpPar is slow *because* its partitioning front-end-stalls; our
// UpPar is slow because the same charges both cost time and show up as
// front-end cycles.
//
// Default constants are calibrated against the paper's own Table 1 and the
// costs it cites: ~400 cycles per queue synchronization [Kalia, NSDI'19],
// pause-loop polling [Intel SDM], syscall + copy costs of socket I/O
// [Binnig et al., VLDB'16]. See EXPERIMENTS.md for the calibration check.
#ifndef SLASH_PERF_COST_MODEL_H_
#define SLASH_PERF_COST_MODEL_H_

#include <array>
#include <cstdint>

#include "common/units.h"
#include "perf/counters.h"
#include "sim/simulator.h"

namespace slash::perf {

/// Micro-operations charged by the engines and substrates.
enum class Op : uint8_t {
  // Record-level processing.
  kRecordParse = 0,     // deserialize header fields from a buffer
  kFilterBranch,        // predicate evaluation (branchy)
  kProjectField,        // projection / field copy
  kHashCompute,         // key hash
  kIndexProbe,          // hash-index bucket probe
  kStateRmw,            // read-modify-write of a key-value pair (atomic)
  kStateAppend,         // append a value to log storage (join state)
  kWindowAssign,        // bucket/slice computation from a timestamp
  kFusedPipeline,       // compiled execution: the whole stateless prefix +
                        // window assignment fused into one code unit

  // Re-partitioning path (UpPar / Flink-like only).
  kPartitionSelect,     // destination selection: large, branchy code
  kFanoutWrite,         // data-dependent write into a fan-out buffer
  kDmaColdRead,         // per-record read of a DMA-landed, cache-cold buffer
                        // while updating scattered co-partitioned state

  // Buffer and queue management.
  kBufferCopyPerByte,   // memcpy into/out of a staging buffer, per byte
  kSourceReadPerByte,   // streaming the pre-generated input, per byte
  kQueueSync,           // queue-based handoff between threads
  kPollPause,           // one pause-loop iteration on an empty channel

  // RDMA verbs path.
  kRdmaPost,            // posting a work request to a QP
  kCqPoll,              // polling a completion queue entry
  kCreditUpdate,        // sending/processing a flow-control credit

  // Socket/IPoIB path.
  kSyscall,             // send()/recv() system call
  kSocketCopyPerByte,   // user<->kernel copy, per byte
  kInterruptHandling,   // per-message receive interrupt + softirq

  // State backend maintenance.
  kEpochScanPerByte,    // scanning the LSS delta region, per byte
  kCrdtMergePerPair,    // merging one transferred key-value pair
  kWindowTriggerPerKey, // emitting one result pair at window end

  // Managed-runtime overhead (Flink-like engine only).
  kRuntimeOverhead,     // per-record JVM-style overhead (boxing, virtual calls)

  // Verbs-level batching (appended so existing Op indices stay stable).
  // kRdmaPost models the unbatched post: one WQE build plus one MMIO
  // doorbell per work request. Doorbell batching splits the same work into
  // per-WR builds plus ONE doorbell per flushed chain, so the amortized
  // per-WR cost drops as the chain grows. The split is only charged when a
  // channel actually batches (post_batch > 1): summing the parts does not
  // bit-reproduce kRdmaPost, so default-configured runs keep charging it.
  kRdmaWqeBuild,        // building one WQE in the send queue (no doorbell)
  kRdmaDoorbell,        // one MMIO doorbell ringing a queued WR chain
  kRdmaInlineCopyPerByte, // copying payload bytes into the WQE (inline send)

  // Vectorized operator path: per-record costs inside a columnar
  // micro-batch. No engine charges them (every operator runs record at a
  // time); they stay because slashbench's pinned hardware digest covers
  // ops 0-34, so removing them is a change to that benchmark.
  kBatchSetup,          // per-batch loop setup / column pointer materialization
  kVecRecordParse,      // columnar field load (no per-record dispatch)
  kVecFilterBranch,     // predicated filter evaluation over a column
  kVecHashCompute,      // unrolled key hashing over a column
  kVecIndexProbe,       // prefetch-overlapped hash-index probe
  kVecStateRmw,         // grouped aggregate RMW with probe already resident

  kNumOps,
};

/// Cost of one execution of an Op.
struct OpCost {
  double instructions = 0;
  std::array<double, kNumCategories> cycles = {};
  double l1d_misses = 0;
  double l2d_misses = 0;
  double llc_misses = 0;
  double mem_bytes = 0;  // DRAM traffic per execution

  double total_cycles() const {
    double t = 0;
    for (double c : cycles) t += c;
    return t;
  }
};

/// Expected fraction of messages whose QP context misses the NIC's on-chip
/// connection cache, under the standard uniform-access approximation: with
/// `active_qps` live contexts competing for `cache_entries` slots, a
/// message's context is resident with probability cache/active. 0 when the
/// cache is disabled (entries == 0) or everything fits — the regime where
/// connection scaling (rdma/srq.h) keeps clusters by reducing active QPs.
double QpCacheMissRate(uint64_t active_qps, uint32_t cache_entries);

/// Deterministic expected per-message overhead of QP-context fetches:
/// miss_rate x miss_penalty (one PCIe round-trip to re-fetch an evicted
/// context, per the RDMA connection-scalability literature). Charged by
/// the NIC as additional per-message processing time; an expected value
/// rather than a sampled one so runs stay seed-independent.
Nanos QpContextFetchOverhead(uint64_t active_qps, uint32_t cache_entries,
                             Nanos miss_penalty);

/// An immutable table of per-Op costs.
class CostModel {
 public:
  /// The calibrated default model (see file comment).
  static const CostModel& Default();

  /// Cost of `op`.
  const OpCost& Get(Op op) const {
    return costs_[static_cast<size_t>(op)];
  }

  /// Builds a model with every cost explicitly provided (for ablations and
  /// tests).
  explicit CostModel(std::array<OpCost, static_cast<size_t>(Op::kNumOps)> costs)
      : costs_(costs) {}

 private:
  std::array<OpCost, static_cast<size_t>(Op::kNumOps)> costs_;
};

/// Per-role CPU accounting bound to a simulator.
///
/// A CpuContext belongs to one simulated worker (or one role aggregate).
/// `Charge` accumulates counters and pending virtual time; the worker
/// coroutine converts pending time into simulated delay at convenient
/// boundaries via `co_await cpu.Sync()` (typically once per buffer, so the
/// event queue stays coarse-grained while per-record costs stay exact).
class CpuContext {
 public:
  /// `ghz` is the modeled core frequency (paper testbed: 2.4 GHz).
  CpuContext(sim::Simulator* sim, const CostModel* model, double ghz = 2.4)
      : sim_(sim), model_(model), ns_per_cycle_(1.0 / ghz) {}

  /// Charges `count` executions of `op`.
  void Charge(Op op, double count = 1.0) {
    const OpCost& c = model_->Get(op);
    counters_.instructions += c.instructions * count;
    for (int i = 0; i < kNumCategories; ++i) {
      counters_.cycles[i] += c.cycles[i] * count;
    }
    counters_.l1d_misses += c.l1d_misses * count;
    counters_.l2d_misses += c.l2d_misses * count;
    counters_.llc_misses += c.llc_misses * count;
    counters_.mem_bytes += static_cast<uint64_t>(c.mem_bytes * count);
    pending_cycles_ += c.total_cycles() * count;
  }

  /// Charges a per-byte op over `bytes` bytes.
  void ChargeBytes(Op op, uint64_t bytes) { Charge(op, double(bytes)); }

  /// Accounts for time this worker already spent waiting (credit stalls,
  /// pause-polling an empty channel). The duration has *already elapsed* in
  /// virtual time, so it only updates counters — attributed to `category`
  /// (typically kBackEndCore: a pause spin loop) — and adds no pending delay.
  void ChargeWait(Nanos waited, Category category = Category::kBackEndCore) {
    if (waited <= 0) return;
    const double cycles = double(waited) / ns_per_cycle_;
    counters_.cycles[static_cast<int>(category)] += cycles;
    // A pause loop retires ~2 instructions every ~30 cycles.
    counters_.instructions += cycles / 15.0;
  }

  /// Counts one processed record (for per-record counter normalization).
  void CountRecords(uint64_t n) { counters_.records += n; }

  /// Virtual time owed but not yet consumed.
  Nanos pending_nanos() const {
    return static_cast<Nanos>(pending_cycles_ * ns_per_cycle_);
  }

  /// Awaitable that consumes the pending time as simulated delay. When a
  /// speed dial is bound and dialed above 1.0 (gray-node fault), the owed
  /// time stretches by that factor: the same work takes longer, the
  /// counters stay identical.
  auto Sync() {
    Nanos d = pending_nanos();
    pending_cycles_ = 0;
    if (speed_dial_ != nullptr && *speed_dial_ > 1.0) {
      d = static_cast<Nanos>(double(d) * *speed_dial_);
    }
    return sim_->Delay(d);
  }

  /// Binds this context to a per-node slowdown dial (rdma::Fabric::
  /// speed_dial). The pointee must outlive the context; nullptr unbinds.
  void BindSpeedDial(const double* dial) { speed_dial_ = dial; }

  const Counters& counters() const { return counters_; }
  Counters& counters() { return counters_; }
  sim::Simulator* simulator() const { return sim_; }
  const CostModel* model() const { return model_; }
  double ns_per_cycle() const { return ns_per_cycle_; }

 private:
  sim::Simulator* sim_;
  const CostModel* model_;
  const double* speed_dial_ = nullptr;
  double ns_per_cycle_;
  double pending_cycles_ = 0;
  Counters counters_;
};

}  // namespace slash::perf

#endif  // SLASH_PERF_COST_MODEL_H_
