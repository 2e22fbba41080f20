// DES-kernel microbenchmarks: how many events per wall-clock second the
// simulator core sustains, independent of any engine. Four hot paths:
//
//   timer_storm      — callback events through the calendar wheel (many
//                      interleaved strides, constant churn)
//   coroutine_delay  — the coroutine fast path (Delay/ResumeAt, no
//                      callable, pool-recycled nodes)
//   event_ping_pong  — Event::Notify wakeup chains between two coroutines
//   channel_echo     — full credit-based RDMA channel round trips (the
//                      event path under the real protocol stack)
//   channel_echo_obs — the same round trips with the observability plane
//                      (metrics registry + enabled tracer) attached, to
//                      bound the live-publish overhead
//
// Plus one verbs-level batching sweep:
//
//   channel_echo_batched — credit-channel echo at doorbell batch widths
//                          1/4/16 under a CPU-bound NIC shape, isolating
//                          the verbs-side MMIO amortization
//
// Every benchmark reports events/s of host wall-clock time (the perf_opt
// target metric) plus the kernel's pool hit rate; with SLASH_BENCH_JSON
// set, the series lands in BENCH_microbench_sim.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "bench_util/harness.h"
#include "channel/rdma_channel.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/cost_model.h"
#include "rdma/fabric.h"
#include "sim/simulator.h"

namespace slash::bench {
namespace {

SeriesTable* Table() {
  static SeriesTable* table = new SeriesTable("microbench_sim");
  return table;
}

// Runs a primed simulator to completion, reports wall-clock event rate.
void MeasureRun(benchmark::State& state, sim::Simulator* sim,
                const char* name) {
  const auto start = std::chrono::steady_clock::now();
  sim->Run();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  SLASH_CHECK_EQ(sim->pending_tasks(), 0);
  const double rate = secs > 0 ? double(sim->events_fired()) / secs : 0.0;
  state.counters["ev/s"] = rate;
  state.counters["pool_hit"] = sim->pool_hit_rate();
  Table()->Add("sim", name, "events/s (wall)", rate);
  Table()->Add("sim", name, "pool hit rate", sim->pool_hit_rate());
}

// Self-rescheduling callback timer: the classic DES workload. Distinct
// strides keep many wheel slots live at once.
struct Timer {
  sim::Simulator* sim;
  uint64_t left;
  Nanos stride;
  void operator()() {
    if (left == 0) return;
    --left;
    sim->ScheduleAt(sim->now() + stride, Timer{*this});
  }
};

void TimerStorm(benchmark::State& state) {
  constexpr int kTimers = 64;
  constexpr uint64_t kFires = 50000;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int t = 0; t < kTimers; ++t) {
      sim.ScheduleAt(Nanos(t), Timer{&sim, kFires, Nanos(1 + t % 61)});
    }
    MeasureRun(state, &sim, "timer_storm");
  }
}
BENCHMARK(TimerStorm)->Iterations(1)->Unit(benchmark::kMillisecond);

sim::Task DelayLoop(sim::Simulator* sim, uint64_t iters) {
  for (uint64_t i = 0; i < iters; ++i) co_await sim->Delay(1);
}

void CoroutineDelay(benchmark::State& state) {
  constexpr int kTasks = 32;
  constexpr uint64_t kIters = 100000;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int t = 0; t < kTasks; ++t) sim.Spawn(DelayLoop(&sim, kIters));
    MeasureRun(state, &sim, "coroutine_delay");
  }
}
BENCHMARK(CoroutineDelay)->Iterations(1)->Unit(benchmark::kMillisecond);

struct Court {
  sim::Event ping;
  sim::Event pong;
  uint64_t turns = 0;
  uint64_t limit = 0;
  explicit Court(sim::Simulator* sim) : ping(sim), pong(sim) {}
};

sim::Task Player(Court* court, sim::Event* mine, sim::Event* other) {
  while (court->turns < court->limit) {
    other->Notify();
    co_await mine->Wait();
    ++court->turns;
  }
  other->Notify();  // release a peer parked past the limit
}

void EventPingPong(benchmark::State& state) {
  constexpr uint64_t kRounds = 2000000;
  for (auto _ : state) {
    sim::Simulator sim;
    Court court(&sim);
    court.limit = kRounds;
    sim.Spawn(Player(&court, &court.ping, &court.pong));
    sim.Spawn(Player(&court, &court.pong, &court.ping));
    MeasureRun(state, &sim, "event_ping_pong");
  }
}
BENCHMARK(EventPingPong)->Iterations(1)->Unit(benchmark::kMillisecond);

sim::Task EchoProducer(channel::RdmaChannel* ch, uint64_t count,
                       uint64_t payload_len, perf::CpuContext* cpu) {
  for (uint64_t i = 0; i < count; ++i) {
    channel::SlotRef slot;
    while (!ch->TryAcquire(&slot, cpu)) {
      co_await ch->credit_event().Wait();
    }
    std::memset(slot.payload, int(i % 251), payload_len);
    SLASH_CHECK(ch->Post(slot, payload_len, /*user_tag=*/i,
                         /*watermark=*/int64_t(i), cpu)
                    .ok());
    co_await cpu->Sync();
  }
}

sim::Task EchoConsumer(channel::RdmaChannel* ch, uint64_t count,
                       perf::CpuContext* cpu) {
  for (uint64_t i = 0; i < count; ++i) {
    channel::InboundBuffer buffer;
    while (!ch->TryPoll(&buffer, cpu)) {
      co_await ch->data_event().Wait();
    }
    SLASH_CHECK_EQ(buffer.user_tag, i);
    SLASH_CHECK(ch->Release(buffer, cpu).ok());
    co_await cpu->Sync();
  }
}

// `observed` attaches the full observability plane (registry + enabled
// tracer) before the fabric is built, so the channel/NIC publish points go
// live; the plain run leaves them null and measures the disabled-path
// (one predicted branch per point) overhead against the same workload.
void ChannelEchoImpl(benchmark::State& state, bool observed,
                     const char* name) {
  constexpr uint64_t kMessages = 50000;
  constexpr uint64_t kPayload = 64;
  for (auto _ : state) {
    sim::Simulator sim;
    obs::MetricsRegistry registry;
    obs::Tracer tracer(
        obs::Tracer::Options{.capacity = 1 << 12, .enabled = true});
    if (observed) {
      sim.set_metrics(&registry);
      sim.set_tracer(&tracer);
    }
    rdma::FabricConfig fcfg;
    fcfg.nodes = 2;
    rdma::Fabric fabric(&sim, fcfg);
    channel::ChannelConfig ccfg;
    ccfg.credits = 8;
    auto ch = channel::RdmaChannel::Create(&fabric, 0, 1, ccfg);
    perf::CpuContext producer_cpu(&sim, &perf::CostModel::Default());
    perf::CpuContext consumer_cpu(&sim, &perf::CostModel::Default());
    sim.Spawn(EchoProducer(ch.get(), kMessages, kPayload, &producer_cpu));
    sim.Spawn(EchoConsumer(ch.get(), kMessages, &consumer_cpu));
    MeasureRun(state, &sim, name);
    state.counters["msg/s"] =
        state.counters["ev/s"].value *
        (double(kMessages) / double(sim.events_fired()));
  }
}

void ChannelEcho(benchmark::State& state) {
  ChannelEchoImpl(state, /*observed=*/false, "channel_echo");
}
BENCHMARK(ChannelEcho)->Iterations(1)->Unit(benchmark::kMillisecond);

void ChannelEchoObserved(benchmark::State& state) {
  ChannelEchoImpl(state, /*observed=*/true, "channel_echo_obs");
}
BENCHMARK(ChannelEchoObserved)->Iterations(1)->Unit(benchmark::kMillisecond);

// --- Verbs-level batching ----------------------------------------------------

// Credit-channel echo at a given doorbell batch width, under a CPU-bound
// shape: a fat pipe with negligible per-message wire overhead AND a credit
// window deep enough to cover the round trip, so the producer's verbs work
// — the component doorbell batching attacks — is the bottleneck rather
// than credit-return latency. post_batch = 1 is the exact legacy protocol
// (fused kRdmaPost); wider arms queue WRs and ring once per flush.
sim::Task BatchedEchoProducerTask(channel::RdmaChannel* ch, uint64_t count,
                                  uint64_t payload_len,
                                  perf::CpuContext* cpu) {
  for (uint64_t i = 0; i < count; ++i) {
    channel::SlotRef slot;
    while (!ch->TryAcquire(&slot, cpu)) {
      co_await ch->credit_event().Wait();
    }
    std::memset(slot.payload, int(i % 251), payload_len);
    SLASH_CHECK(ch->Post(slot, payload_len, /*user_tag=*/i,
                         /*watermark=*/int64_t(i), cpu)
                    .ok());
    co_await cpu->Sync();
  }
  SLASH_CHECK(ch->Flush(cpu).ok());
}

void ChannelEchoBatched(benchmark::State& state, uint32_t post_batch) {
  constexpr uint64_t kMessages = 50000;
  constexpr uint64_t kPayload = 64;
  for (auto _ : state) {
    sim::Simulator sim;
    rdma::FabricConfig fcfg;
    fcfg.nodes = 2;
    fcfg.nic.bandwidth_bps = 100e9;      // fat pipe: CPU-bound shape
    fcfg.nic.per_message_overhead = 10;  // wire overhead out of the picture
    rdma::Fabric fabric(&sim, fcfg);
    channel::ChannelConfig ccfg;
    ccfg.credits = 256;  // window >> RTT: throughput-bound, not latency-bound
    ccfg.slot_bytes = 256;
    if (post_batch > 1) ccfg.post_batch = post_batch;
    auto ch = channel::RdmaChannel::Create(&fabric, 0, 1, ccfg);
    perf::CpuContext producer_cpu(&sim, &perf::CostModel::Default());
    perf::CpuContext consumer_cpu(&sim, &perf::CostModel::Default());
    sim.Spawn(BatchedEchoProducerTask(ch.get(), kMessages, kPayload,
                                      &producer_cpu));
    sim.Spawn(EchoConsumer(ch.get(), kMessages, &consumer_cpu));
    const Nanos makespan = sim.Run();
    SLASH_CHECK_EQ(sim.pending_tasks(), 0);
    const double rate =
        makespan > 0 ? double(kMessages) * 1e9 / double(makespan) : 0;
    state.counters["msg/s_virtual"] = rate;
    Table()->Add("channel_echo_batched", std::to_string(post_batch),
                 "messages/s (virtual)", rate);
  }
}

void ChannelEchoPost1(benchmark::State& state) {
  ChannelEchoBatched(state, 1);
}
void ChannelEchoPost4(benchmark::State& state) {
  ChannelEchoBatched(state, 4);
}
void ChannelEchoPost16(benchmark::State& state) {
  ChannelEchoBatched(state, 16);
}
BENCHMARK(ChannelEchoPost1)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(ChannelEchoPost4)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(ChannelEchoPost16)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slash::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  slash::bench::Table()->PrintAll();
  return 0;
}
