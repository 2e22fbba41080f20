// Tests for the perf substrate: counters arithmetic, cost-model charging,
// wait accounting, the CpuContext <-> simulator time coupling, and the
// zero-allocation regression guards for the DES event path, the batched
// channel and the SSB epoch cycle.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>

#include "channel/rdma_channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/cost_model.h"
#include "perf/counters.h"
#include "rdma/fabric.h"
#include "sim/simulator.h"
#include "state/partition.h"

// Global allocator overrides for THIS TEST BINARY ONLY: every heap
// allocation is reported to AllocTracker (a no-op while disarmed). The
// library itself never overrides the allocator — see perf/counters.h.
void* operator new(std::size_t size) {
  slash::perf::AllocTracker::Note(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  slash::perf::AllocTracker::Note(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  slash::perf::AllocTracker::Note(size);
  const std::size_t a = std::size_t(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  slash::perf::AllocTracker::Note(size);
  const std::size_t a = std::size_t(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace slash::perf {
namespace {

TEST(CountersTest, EmptyCountersAreZero) {
  Counters c;
  EXPECT_EQ(c.total_cycles(), 0);
  EXPECT_EQ(c.ipc(), 0);
  EXPECT_EQ(c.fraction(Category::kRetiring), 0);
}

TEST(CountersTest, MergeAccumulates) {
  Counters a, b;
  a.instructions = 10;
  a.cycles[0] = 5;
  a.mem_bytes = 100;
  a.records = 3;
  b.instructions = 20;
  b.cycles[1] = 15;
  b.l1d_misses = 2;
  a.Merge(b);
  EXPECT_EQ(a.instructions, 30);
  EXPECT_EQ(a.total_cycles(), 20);
  EXPECT_EQ(a.mem_bytes, 100u);
  EXPECT_EQ(a.l1d_misses, 2);
  EXPECT_EQ(a.records, 3u);
}

TEST(CountersTest, FractionsSumToOne) {
  Counters c;
  for (int i = 0; i < kNumCategories; ++i) c.cycles[i] = i + 1.0;
  double sum = 0;
  for (int i = 0; i < kNumCategories; ++i) {
    sum += c.fraction(Category(i));
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(CountersTest, CategoryNamesAreStable) {
  EXPECT_EQ(CategoryName(Category::kRetiring), "Retiring");
  EXPECT_EQ(CategoryName(Category::kFrontEnd), "FrontEnd");
  EXPECT_EQ(CategoryName(Category::kBadSpeculation), "BadSpec");
  EXPECT_EQ(CategoryName(Category::kBackEndMemory), "BackEndMem");
  EXPECT_EQ(CategoryName(Category::kBackEndCore), "BackEndCore");
}

TEST(CostModelTest, DefaultTableIsPopulated) {
  const CostModel& model = CostModel::Default();
  for (size_t op = 0; op < size_t(Op::kNumOps); ++op) {
    const OpCost& cost = model.Get(Op(op));
    EXPECT_GE(cost.instructions, 0) << "op " << op;
    EXPECT_GE(cost.total_cycles(), 0) << "op " << op;
  }
  // Spot-check calibration anchors.
  EXPECT_GT(model.Get(Op::kStateRmw).cycles[int(Category::kBackEndMemory)],
            model.Get(Op::kStateRmw).cycles[int(Category::kFrontEnd)])
      << "RMWs must be memory-bound";
  EXPECT_GT(model.Get(Op::kPartitionSelect)
                .cycles[int(Category::kFrontEnd)],
            model.Get(Op::kPartitionSelect)
                .cycles[int(Category::kBackEndMemory)])
      << "partitioning must be front-end bound";
  EXPECT_NEAR(model.Get(Op::kQueueSync).total_cycles(), 400, 50)
      << "queue sync calibrated to ~400 cycles [Kalia NSDI'19]";
}

TEST(CpuContextTest, ChargeAccumulatesCountersAndPendingTime) {
  sim::Simulator sim;
  CpuContext cpu(&sim, &CostModel::Default(), /*ghz=*/2.0);
  const OpCost& rmw = CostModel::Default().Get(Op::kStateRmw);
  cpu.Charge(Op::kStateRmw, 10);
  EXPECT_DOUBLE_EQ(cpu.counters().instructions, rmw.instructions * 10);
  // 2 GHz: 1 cycle == 0.5 ns.
  EXPECT_EQ(cpu.pending_nanos(),
            Nanos(rmw.total_cycles() * 10 * 0.5));
  EXPECT_EQ(cpu.counters().mem_bytes, uint64_t(rmw.mem_bytes * 10));
}

sim::Task ConsumePending(sim::Simulator* sim, CpuContext* cpu, Nanos* when) {
  cpu->Charge(Op::kStateRmw, 100);
  co_await cpu->Sync();
  *when = sim->now();
}

TEST(CpuContextTest, SyncConvertsPendingCyclesToVirtualTime) {
  sim::Simulator sim;
  CpuContext cpu(&sim, &CostModel::Default(), 2.4);
  Nanos when = -1;
  sim.Spawn(ConsumePending(&sim, &cpu, &when));
  sim.Run();
  const double expected =
      CostModel::Default().Get(Op::kStateRmw).total_cycles() * 100 / 2.4;
  EXPECT_NEAR(double(when), expected, 2.0);
  EXPECT_EQ(cpu.pending_nanos(), 0);
}

TEST(CpuContextTest, ChargeWaitCountsCyclesWithoutPendingTime) {
  sim::Simulator sim;
  CpuContext cpu(&sim, &CostModel::Default(), 2.4);
  cpu.ChargeWait(1000);
  EXPECT_EQ(cpu.pending_nanos(), 0);  // the time already passed
  EXPECT_NEAR(cpu.counters().cycles[int(Category::kBackEndCore)], 2400, 1);
  EXPECT_GT(cpu.counters().instructions, 0);  // pause retires a trickle
  cpu.ChargeWait(-5);                         // negative waits are ignored
  EXPECT_NEAR(cpu.counters().cycles[int(Category::kBackEndCore)], 2400, 1);
}

sim::Task ParkTwice(sim::Simulator* sim, CpuContext* cpu, sim::Event* event,
                    Nanos* woke) {
  co_await cpu->Park(*event);
  co_await cpu->Park(*event);
  *woke = sim->now();
}

TEST(CpuContextTest, ParkChargesTheTimeParkedAsAWait) {
  sim::Simulator sim;
  CpuContext cpu(&sim, &CostModel::Default(), 2.4);
  sim::Event event(&sim);
  Nanos woke = -1;
  sim.Spawn(ParkTwice(&sim, &cpu, &event, &woke));
  sim.ScheduleAt(1000, [&] { event.Notify(); });
  sim.ScheduleAt(1700, [&] { event.Notify(); });
  sim.Run();
  EXPECT_EQ(woke, 1700);
  // Exactly the charges of the two waits made by hand, in order.
  CpuContext by_hand(&sim, &CostModel::Default(), 2.4);
  by_hand.ChargeWait(1000);
  by_hand.ChargeWait(700);
  for (int c = 0; c < kNumCategories; ++c) {
    EXPECT_EQ(cpu.counters().cycles[c], by_hand.counters().cycles[c]);
  }
  EXPECT_EQ(cpu.counters().instructions, by_hand.counters().instructions);
  EXPECT_EQ(cpu.pending_nanos(), 0);
}

TEST(CpuContextTest, ChargeBytesScalesPerByteOps) {
  sim::Simulator sim;
  CpuContext cpu(&sim, &CostModel::Default(), 2.4);
  cpu.ChargeBytes(Op::kBufferCopyPerByte, 1000);
  const OpCost& per_byte = CostModel::Default().Get(Op::kBufferCopyPerByte);
  EXPECT_NEAR(cpu.counters().instructions, per_byte.instructions * 1000,
              1e-9);
}

TEST(AllocTrackerTest, CountsOnlyWhileArmed) {
  AllocTracker::Arm();
  void* p = ::operator new(64);
  ::operator delete(p);
  AllocTracker::Disarm();
  const uint64_t counted = AllocTracker::allocations();
  EXPECT_GE(counted, 1u);
  EXPECT_GE(AllocTracker::bytes(), 64u);
  void* q = ::operator new(32);
  ::operator delete(q);
  EXPECT_EQ(AllocTracker::allocations(), counted);
}

// A self-rescheduling callback timer whose functor fits the event node's
// inline storage (no heap fallback).
struct SteadyTimer {
  sim::Simulator* sim;
  uint64_t left;
  Nanos stride;
  void operator()() {
    if (left == 0) return;
    --left;
    sim->ScheduleAt(sim->now() + stride, SteadyTimer{*this});
  }
};

sim::Task SteadyDelayLoop(sim::Simulator* sim, uint64_t iters) {
  for (uint64_t i = 0; i < iters; ++i) co_await sim->Delay(3);
}

// The perf_opt regression guard: once warm, the DES event path (event
// nodes, wheel buckets, far heap, coroutine resumption) performs ZERO heap
// allocations. Warm-up is sized to cross at least one wheel-window
// rollover so the armed region exercises both tiers with their capacity
// already established.
TEST(AllocTrackerTest, EventPathIsAllocationFreeInSteadyState) {
  sim::Simulator sim;
  constexpr uint64_t kFiresPerTimer = 8000;
  for (int t = 0; t < 64; ++t) {
    sim.ScheduleAt(Nanos(t % 16),
                   SteadyTimer{&sim, kFiresPerTimer, Nanos(1 + t % 8)});
  }
  sim.Spawn(SteadyDelayLoop(&sim, 500000));

  uint64_t warmed = 0;
  while (warmed < 300000 && sim.Step()) ++warmed;
  ASSERT_EQ(warmed, 300000u);
  ASSERT_GT(sim.now(), sim::Simulator::kNearWindowNanos)
      << "warm-up must cross a wheel-window rollover";

  const uint64_t kernel_bytes_before = sim.event_bytes_allocated();
  const uint64_t pool_misses_before = sim.pool_misses();
  AllocTracker::Arm();
  uint64_t armed = 0;
  while (armed < 100000 && sim.Step()) ++armed;
  AllocTracker::Disarm();

  EXPECT_EQ(armed, 100000u);
  EXPECT_EQ(AllocTracker::allocations(), 0u)
      << "steady-state event path allocated " << AllocTracker::bytes()
      << " bytes";
  EXPECT_EQ(sim.event_bytes_allocated(), kernel_bytes_before)
      << "event-node pool grew after warm-up";
  EXPECT_EQ(sim.pool_misses(), pool_misses_before)
      << "armed-phase event nodes were not all recycled";
  sim.Run();  // drain the rest; the delay loop completes
  EXPECT_EQ(sim.pending_tasks(), 0);
}

// Same guard with the observability plane live: pre-resolved counter /
// histogram handles and ring-buffer trace events must not allocate either.
// Handles are resolved and the histogram's lazy buckets are materialized
// before arming (that is the contract: resolve at setup, publish on the hot
// path).
TEST(AllocTrackerTest, EventPathStaysAllocationFreeWithMetricsEnabled) {
  sim::Simulator sim;
  obs::MetricsRegistry& registry = sim.metrics();
  obs::Tracer tracer(
      obs::Tracer::Options{.capacity = 1 << 12, .enabled = true});
  sim.set_tracer(&tracer);

  obs::Counter* counter = registry.GetCounter("test.steps");
  obs::Histogram* histogram = registry.GetHistogram("test.latency_ns");
  histogram->Record(1);  // materialize the lazy bucket vector
  const uint32_t name_id = tracer.Intern("test.step");
  const uint32_t cat_id = tracer.Intern("test");

  constexpr uint64_t kFiresPerTimer = 8000;
  for (int t = 0; t < 64; ++t) {
    sim.ScheduleAt(Nanos(t % 16),
                   SteadyTimer{&sim, kFiresPerTimer, Nanos(1 + t % 8)});
  }
  sim.Spawn(SteadyDelayLoop(&sim, 500000));

  uint64_t warmed = 0;
  while (warmed < 300000 && sim.Step()) ++warmed;
  ASSERT_EQ(warmed, 300000u);

  AllocTracker::Arm();
  uint64_t armed = 0;
  while (armed < 100000 && sim.Step()) {
    ++armed;
    counter->Add(1);
    histogram->Record(Nanos(1 + armed % 4096));
    tracer.Instant(sim.now(), name_id, cat_id, /*pid=*/0,
                   obs::kTrackEngine);
  }
  AllocTracker::Disarm();

  EXPECT_EQ(armed, 100000u);
  EXPECT_EQ(AllocTracker::allocations(), 0u)
      << "metrics-enabled event path allocated " << AllocTracker::bytes()
      << " bytes";
  EXPECT_EQ(counter->value(), 100000u);
  EXPECT_EQ(histogram->count(), 100001u);
  // The ring holds the last `capacity` events; overflow drops, never grows.
  EXPECT_EQ(tracer.size() + tracer.dropped(), 100000u);
  sim.Run();
  EXPECT_EQ(sim.pending_tasks(), 0);
}

// --- Batched channel steady-state guard --------------------------------------

sim::Task BatchedEchoProducer(channel::RdmaChannel* ch, CpuContext* cpu,
                              uint64_t count, uint64_t payload_len) {
  for (uint64_t i = 0; i < count; ++i) {
    channel::SlotRef slot;
    while (!ch->TryAcquire(&slot, cpu)) {
      co_await ch->credit_event().Wait();
    }
    std::memset(slot.payload, int(i % 251), payload_len);
    SLASH_CHECK(ch->Post(slot, payload_len, i, 0, cpu).ok());
    co_await cpu->Sync();
  }
  SLASH_CHECK(ch->Flush(cpu).ok());
}

sim::Task BatchedEchoConsumer(channel::RdmaChannel* ch, CpuContext* cpu,
                              uint64_t count, uint64_t* received) {
  for (uint64_t i = 0; i < count; ++i) {
    channel::InboundBuffer buffer;
    while (!ch->TryPoll(&buffer, cpu)) {
      co_await ch->data_event().Wait();
    }
    // Branch on the payload (no gtest in the armed region: EXPECT allocates).
    if (buffer.payload[0] == uint8_t(buffer.user_tag % 251)) ++*received;
    SLASH_CHECK(ch->Release(buffer, cpu).ok());
    co_await cpu->Sync();
  }
}

// The batched channel data path (doorbell batching + inline sends) must be
// allocation-free once warm, like the bare event path above: the pending-WR
// queue is reserved at Create, WRITEs/credit updates are unsignaled (no
// completion-queue churn), and retry state only materializes on faults.
TEST(AllocTrackerTest, BatchedChannelPathIsAllocationFreeInSteadyState) {
  sim::Simulator sim;
  obs::MetricsRegistry& registry = sim.metrics();
  rdma::Fabric fabric(&sim, [] {
    rdma::FabricConfig cfg;
    cfg.nodes = 2;
    return cfg;
  }());
  CpuContext producer_cpu(&sim, &CostModel::Default());
  CpuContext consumer_cpu(&sim, &CostModel::Default());
  channel::ChannelConfig cfg;
  cfg.credits = 8;
  cfg.slot_bytes = 4096;
  cfg.post_batch = 8;  // doorbell batching on
  // A full batch coalesces into one 8 x 4 KiB WRITE: inline up to that.
  cfg.inline_threshold = 32 * 1024;
  auto ch = channel::RdmaChannel::Create(&fabric, 0, 1, cfg);
  // Every WRITE carries an unread range: the unused payload area of its
  // last slot. Slot 7 ends every run it is in (runs stop at the ring wrap),
  // so a sentinel there in the consumer's queue, the first region of node
  // 1, must survive the whole echo.
  rdma::MemoryRegion* queue =
      fabric.pd(1)->FindByRkey((1u << rdma::ProtectionDomain::kSlotBits) | 1);
  ASSERT_NE(queue, nullptr);
  uint8_t* sentinel = queue->data() + 7 * cfg.slot_bytes + 1000;
  *sentinel = 0xEE;

  // Sized so the echo outlasts warmup + armed region: WR coalescing merges
  // each 8-WR batch into one wire WRITE, so a message costs only a few sim
  // steps.
  constexpr uint64_t kMessages = 100000;
  uint64_t received = 0;
  sim.Spawn(BatchedEchoProducer(ch.get(), &producer_cpu, kMessages, 64));
  sim.Spawn(BatchedEchoConsumer(ch.get(), &consumer_cpu, kMessages,
                                &received));

  uint64_t warmed = 0;
  while (warmed < 100000 && sim.Step()) ++warmed;
  ASSERT_EQ(warmed, 100000u) << "echo run too short to reach steady state";

  AllocTracker::Arm();
  uint64_t armed = 0;
  while (armed < 100000 && sim.Step()) ++armed;
  AllocTracker::Disarm();

  EXPECT_EQ(armed, 100000u) << "echo run drained inside the armed region";
  EXPECT_EQ(AllocTracker::allocations(), 0u)
      << "batched channel path allocated " << AllocTracker::bytes()
      << " bytes";

  sim.Run();  // drain the rest of the echo
  EXPECT_EQ(sim.pending_tasks(), 0);
  EXPECT_EQ(received, kMessages);
  EXPECT_EQ(ch->sent_count(), kMessages);
  EXPECT_EQ(ch->pending_posts(), 0u);
  EXPECT_EQ(*sentinel, 0xEE);
  // Every doorbell rang for exactly one inline WRITE: the guard covers the
  // inline path, not just coalescing.
  const uint64_t doorbells =
      registry.GetCounter(obs::metric::kChannelDoorbells)->value();
  EXPECT_GT(doorbells, 0u);
  EXPECT_EQ(registry.GetCounter(obs::metric::kChannelInlineSends)->value(),
            doorbells);
}

// --- SSB epoch cycle steady-state guard --------------------------------------

// A warm fragment's epoch cycle (RMWs, serialize into a reserved
// buffer, Reset) must not allocate once its index has settled: Clear()
// reuses the claimed-bucket list and the overflow segments (allocated
// through operator new[], so a segment reallocated per epoch would show
// here), and the LSS wraps within its capacity. A constant load settles
// the index at its cap, or below it without remapping every epoch.
TEST(AllocTrackerTest, StateEpochCycleIsAllocationFreeInSteadyState) {
  struct Case {
    size_t max_index_buckets;
    uint64_t keys;
    bool at_cap;
  };
  const Case cases[] = {
      // 64 buckets hold 448 primary slots: the rest spill into overflow.
      {64, 512, true},
      // 128 keys settle the index between its 16-bucket start and its cap.
      {256, 128, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.keys << " keys, cap "
                                      << c.max_index_buckets);
    state::PartitionConfig cfg;
    cfg.kind = state::StateKind::kAggregate;
    cfg.index_buckets = 16;
    cfg.lss_capacity = 1 << 16;
    state::Partition partition(0, cfg, state::PartitionRole::kFragment,
                               c.max_index_buckets);
    std::vector<state::StateKey> keys;
    std::vector<int64_t> values;
    for (uint64_t i = 0; i < c.keys; ++i) {
      keys.push_back({i * 7919, int64_t(i % 3)});
      values.push_back(int64_t(i) - 256);
    }
    std::vector<uint8_t> delta;
    size_t serialized = 0;
    auto cycle = [&] {
      for (size_t i = 0; i < keys.size(); ++i) {
        partition.UpdateAggregate(keys[i], values[i]);
      }
      delta.clear();
      serialized = partition.SerializeDelta(&delta);
      partition.Reset();
    };
    // Settle the index, then warm the claimed list, the overflow segments
    // and the delta buffer's capacity.
    for (int i = 0; i < 4; ++i) cycle();
    const size_t settled = partition.index_buckets();
    EXPECT_EQ(settled == c.max_index_buckets, c.at_cap) << settled;
    const uint64_t lss_capacity = partition.lss().capacity();

    AllocTracker::Arm();
    for (int i = 0; i < 16; ++i) cycle();
    AllocTracker::Disarm();

    EXPECT_EQ(AllocTracker::allocations(), 0u)
        << "steady-state epoch cycle allocated " << AllocTracker::bytes()
        << " bytes";
    EXPECT_EQ(serialized, keys.size());
    EXPECT_EQ(partition.lss().capacity(), lss_capacity);
    EXPECT_EQ(partition.index_buckets(), settled);
  }
}

TEST(CpuContextTest, CustomModelOverridesCosts) {
  std::array<OpCost, size_t(Op::kNumOps)> table = {};
  table[size_t(Op::kHashCompute)] = OpCost{
      .instructions = 1, .cycles = {1, 0, 0, 0, 0}};
  const CostModel model(table);
  sim::Simulator sim;
  CpuContext cpu(&sim, &model, 1.0);
  cpu.Charge(Op::kHashCompute);
  cpu.Charge(Op::kStateRmw);  // zero in this table
  EXPECT_DOUBLE_EQ(cpu.counters().instructions, 1);
  EXPECT_EQ(cpu.pending_nanos(), 1);
}

}  // namespace
}  // namespace slash::perf
