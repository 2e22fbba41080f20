#include "perf/cost_model.h"

namespace slash::perf {

namespace {

// Category order in the cycles array:
//   {retiring, front-end, bad-speculation, back-end-memory, back-end-core}
//
// Calibration targets (paper Table 1, YSB on 2 nodes, 2.4 GHz cores):
//   Slash path      : ~42 instr/rec, ~53 cyc/rec, memory-bound, ~20% retiring
//   UpPar sender    : ~166 instr/rec, ~274 cyc/rec, front-end bound
//   UpPar receiver  : ~78 instr/rec, core-bound due to pause polling
// plus cited literature constants (queue sync ~400 cycles, pause ~30 cycles,
// syscall ~1.5k cycles). Waiting time (credit stalls, empty polls) is charged
// dynamically by CpuContext users via ChargeWait, not in this table.
std::array<OpCost, static_cast<size_t>(Op::kNumOps)> BuildDefaultCosts() {
  std::array<OpCost, static_cast<size_t>(Op::kNumOps)> t = {};
  auto set = [&t](Op op, OpCost c) { t[static_cast<size_t>(op)] = c; };

  // --- Record-level processing -------------------------------------------
  set(Op::kRecordParse, {.instructions = 4, .cycles = {1.5, 0, 0, 0.5, 0}});
  set(Op::kFilterBranch, {.instructions = 3, .cycles = {1.0, 0.3, 0.7, 0, 0}});
  set(Op::kProjectField, {.instructions = 3, .cycles = {1.2, 0, 0, 0.3, 0}});
  set(Op::kHashCompute, {.instructions = 6, .cycles = {2.5, 0, 0, 0, 0.5}});
  set(Op::kIndexProbe, {.instructions = 9,
                        .cycles = {2.0, 0.5, 0.3, 9.0, 0.5},
                        .l1d_misses = 0.80,
                        .l2d_misses = 0.65,
                        .llc_misses = 0.55,
                        .mem_bytes = 64});
  set(Op::kStateRmw, {.instructions = 12,
                      .cycles = {3.0, 0.5, 0.2, 22.0, 2.0},
                      .l1d_misses = 0.95,
                      .l2d_misses = 0.87,
                      .llc_misses = 0.75,
                      .mem_bytes = 128});
  set(Op::kStateAppend, {.instructions = 14,
                         .cycles = {4.0, 0.5, 0.3, 20.0, 1.2},
                         .l1d_misses = 1.00,
                         .l2d_misses = 0.95,
                         .llc_misses = 0.90,
                         .mem_bytes = 160});
  set(Op::kWindowAssign, {.instructions = 5, .cycles = {2.0, 0.3, 0.2, 0, 0.5}});
  // Compilation-based execution (Grizzly/LightSaber style): parse, filter,
  // projection, window assignment and key hashing fuse into one tight loop
  // — no per-operator dispatch, better code locality. Memory-bound state
  // access does not compile away, so the end-to-end gain is modest.
  set(Op::kFusedPipeline, {.instructions = 9, .cycles = {4.5, 0.2, 0.5, 0.8, 0.5}});

  // --- Re-partitioning path (the cost the paper indicts) ------------------
  // Sender side: branchy destination selection (front-end stalls + bad
  // speculation) and a data-dependent write into the destination's fan-out
  // buffer. Calibrated against Fig. 8c: ~10 sender threads saturate the
  // 11.8 GB/s link on 32 B RO records, i.e. ~80-90 cycles/record.
  set(Op::kPartitionSelect, {.instructions = 45,
                             .cycles = {10, 16, 6, 2, 3},
                             .l1d_misses = 0.10,
                             .l2d_misses = 0.05,
                             .llc_misses = 0.02});
  set(Op::kFanoutWrite, {.instructions = 25,
                         .cycles = {5, 5, 2, 14, 2},
                         .l1d_misses = 0.50,
                         .l2d_misses = 0.45,
                         .llc_misses = 0.40,
                         .mem_bytes = 100});
  // Receiver side: each record is deserialized out of a DMA-landed,
  // cache-cold network buffer and applied to windowed co-partitioned state
  // scattered over the full key range. This is the dominant cost of the
  // re-partitioned window operator (Table 1: UpPar receiver ~276 cyc/rec,
  // memory-bound, ~1.7 L1d misses/rec).
  set(Op::kDmaColdRead, {.instructions = 12,
                         .cycles = {3, 12, 3, 140, 20},
                         .l1d_misses = 1.30,
                         .l2d_misses = 1.00,
                         .llc_misses = 0.60,
                         .mem_bytes = 128});

  // --- Buffer and queue management ----------------------------------------
  set(Op::kBufferCopyPerByte,
      {.instructions = 0.05, .cycles = {0.010, 0, 0, 0.030, 0}, .mem_bytes = 2});
  set(Op::kSourceReadPerByte,
      {.instructions = 0.03, .cycles = {0.005, 0, 0, 0.015, 0}, .mem_bytes = 1});
  // Kalia et al. (NSDI'19): queue-based synchronization between network and
  // worker threads wastes ~400 cycles on common x86 CPUs.
  set(Op::kQueueSync, {.instructions = 30,
                       .cycles = {10, 5, 5, 180, 200},
                       .llc_misses = 1.0,
                       .mem_bytes = 128});
  // One pause-loop iteration (Intel SDM: pause latency ~tens of cycles).
  set(Op::kPollPause, {.instructions = 2, .cycles = {0.2, 0, 0, 0, 30}});

  // --- RDMA verbs path -----------------------------------------------------
  // MMIO doorbell + WQE build.
  set(Op::kRdmaPost, {.instructions = 80, .cycles = {30, 15, 5, 10, 40}});
  set(Op::kCqPoll, {.instructions = 12, .cycles = {5, 1, 0, 6, 8}});
  set(Op::kCreditUpdate, {.instructions = 20, .cycles = {8, 2, 0, 5, 10}});

  // --- Socket/IPoIB path (plug-and-play integration) -----------------------
  set(Op::kSyscall, {.instructions = 500, .cycles = {150, 400, 50, 300, 600}});
  set(Op::kSocketCopyPerByte,
      {.instructions = 0.06, .cycles = {0.02, 0, 0, 0.07, 0}, .mem_bytes = 3});
  set(Op::kInterruptHandling,
      {.instructions = 400, .cycles = {120, 350, 30, 400, 300}});

  // --- State backend maintenance -------------------------------------------
  set(Op::kEpochScanPerByte,
      {.instructions = 0.02, .cycles = {0.004, 0, 0, 0.020, 0}, .mem_bytes = 1});
  // Merging one transferred key-value pair: a cold read of the delta
  // chunk plus an RMW into the primary partition.
  set(Op::kCrdtMergePerPair, {.instructions = 30,
                              .cycles = {8, 3, 1, 70, 8},
                              .l1d_misses = 1.2,
                              .l2d_misses = 1.0,
                              .llc_misses = 0.9,
                              .mem_bytes = 192});
  set(Op::kWindowTriggerPerKey, {.instructions = 25,
                                 .cycles = {10, 2, 1, 10, 2},
                                 .l1d_misses = 0.8,
                                 .l2d_misses = 0.6,
                                 .llc_misses = 0.5,
                                 .mem_bytes = 128});

  // --- Managed-runtime overhead (Flink-like only) ---------------------------
  set(Op::kRuntimeOverhead, {.instructions = 120,
                             .cycles = {40, 35, 15, 20, 10},
                             .l1d_misses = 0.5,
                             .l2d_misses = 0.3,
                             .llc_misses = 0.2,
                             .mem_bytes = 64});

  // --- Verbs-level batching --------------------------------------------------
  // kRdmaPost (100 cycles) decomposes into ~40 cycles of WQE construction
  // and ~60 cycles of MMIO doorbell + store fence; doorbell batching pays
  // the build per WR and the doorbell once per flushed chain. Charged only
  // when a channel batches (post_batch > 1).
  set(Op::kRdmaWqeBuild, {.instructions = 35, .cycles = {18, 8, 2, 7, 5}});
  set(Op::kRdmaDoorbell, {.instructions = 15, .cycles = {6, 4, 2, 3, 45}});
  // Inline send: the CPU copies the payload into the WQE itself, trading a
  // small store loop for the NIC's gather-DMA of a registered buffer.
  set(Op::kRdmaInlineCopyPerByte,
      {.instructions = 0.06, .cycles = {0.015, 0, 0, 0.045, 0}, .mem_bytes = 1});

  // --- Vectorized operator path (uncharged; see cost_model.h) ---------------
  // Per-record costs inside a columnar micro-batch. Calibration: the tight
  // loops retire ~4x fewer instructions per record than the interpreted
  // scalar path (no per-record dispatch, predicated filters) and overlap
  // index-probe DRAM misses via software prefetch, so the memory-bound
  // component shrinks from dominant to partially hidden. DRAM traffic per
  // record is unchanged — vectorization hides latency, not bytes.
  set(Op::kBatchSetup, {.instructions = 25, .cycles = {12, 8, 2, 4, 4}});
  set(Op::kVecRecordParse,
      {.instructions = 1.2, .cycles = {0.45, 0, 0, 0.15, 0}});
  set(Op::kVecFilterBranch,
      {.instructions = 1.5, .cycles = {0.7, 0.1, 0, 0, 0}});
  set(Op::kVecHashCompute, {.instructions = 2.5, .cycles = {0.9, 0, 0, 0, 0.1}});
  set(Op::kVecIndexProbe, {.instructions = 4,
                           .cycles = {1.0, 0.2, 0.1, 1.5, 0.2},
                           .l1d_misses = 0.80,
                           .l2d_misses = 0.65,
                           .llc_misses = 0.55,
                           .mem_bytes = 64});
  set(Op::kVecStateRmw, {.instructions = 6,
                         .cycles = {1.5, 0.2, 0.1, 5.5, 0.7},
                         .l1d_misses = 0.95,
                         .l2d_misses = 0.87,
                         .llc_misses = 0.75,
                         .mem_bytes = 128});

  return t;
}

}  // namespace

const CostModel& CostModel::Default() {
  static const CostModel* model = new CostModel(BuildDefaultCosts());
  return *model;
}

double QpCacheMissRate(uint64_t active_qps, uint32_t cache_entries) {
  if (cache_entries == 0 || active_qps <= cache_entries) return 0.0;
  return 1.0 - double(cache_entries) / double(active_qps);
}

Nanos QpContextFetchOverhead(uint64_t active_qps, uint32_t cache_entries,
                             Nanos miss_penalty) {
  return static_cast<Nanos>(QpCacheMissRate(active_qps, cache_entries) *
                            double(miss_penalty));
}

}  // namespace slash::perf
