#include "bench_util/transfer.h"

#include <memory>
#include <numeric>
#include <type_traits>
#include <vector>

#include "channel/rdma_channel.h"
#include "common/hash.h"
#include "common/logging.h"
#include "core/record.h"
#include "rdma/fabric.h"
#include "sim/simulator.h"
#include "state/partition.h"

namespace slash::bench {

namespace {

using channel::InboundBuffer;
using channel::PullChannel;
using channel::RdmaChannel;
using channel::SlotRef;
using perf::Op;

constexpr int kProducerNode = 0;
constexpr int kConsumerNode = 1;

// Same shape as the engines' re-partitioning consumer selection.
int HashConsumer(uint64_t key, int consumers) {
  return static_cast<int>(Mix64(key ^ 0x9a97e17ULL) % uint64_t(consumers));
}

struct Lane {
  RdmaChannel* push = nullptr;
  PullChannel* pull = nullptr;
  int producer = 0;
  int consumer = 0;
};

struct TransferRun {
  TransferConfig config;
  sim::Simulator sim;
  std::unique_ptr<rdma::Fabric> fabric;
  std::vector<std::unique_ptr<RdmaChannel>> push_channels;
  std::vector<std::unique_ptr<PullChannel>> pull_channels;
  std::vector<Lane> lanes;
  std::vector<std::vector<int>> producer_lanes;  // lane ids per producer
  std::vector<std::vector<int>> consumer_lanes;  // lane ids per consumer
  std::vector<std::unique_ptr<perf::CpuContext>> producer_cpus;
  std::vector<std::unique_ptr<perf::CpuContext>> consumer_cpus;
  std::vector<std::unique_ptr<sim::Event>> consumer_events;
  // Consumer-side RO count state; null unless config.update_state.
  std::unique_ptr<state::Partition> state;
  obs::Counter* records_out = nullptr;      // "transfer.records_out"
  TransferResult result;
};

/// The lane's channel of the type the run uses.
template <typename Channel>
Channel* LaneChannel(const Lane& lane) {
  if constexpr (std::is_same_v<Channel, PullChannel>) {
    return lane.pull;
  } else {
    return lane.push;
  }
}

/// Fills and posts buffers for one producer across its lanes, through a
/// push (RdmaChannel) or pull (PullChannel) channel.
template <typename Channel>
sim::Task Producer(TransferRun* run, int p) {
  const TransferConfig& cfg = run->config;
  perf::CpuContext* cpu = run->producer_cpus[p].get();
  workloads::KeyGenerator keys(cfg.keys, cfg.key_range, cfg.seed + p * 7919);

  struct OpenSlot {
    bool open = false;
    SlotRef slot;
    core::RecordWriter writer{nullptr, 0};
  };
  std::vector<OpenSlot> open(run->lanes.size());

  // Opens a slot on `ch` unless `os` holds one; false while the channel
  // has no credit (the caller parks on its credit event and retries).
  auto try_open = [cpu](Channel* ch, OpenSlot* os) {
    if (os->open) return true;
    if (!ch->TryAcquire(&os->slot, cpu)) return false;
    os->open = true;
    os->writer = core::RecordWriter(os->slot.payload, ch->payload_capacity());
    return true;
  };

  const auto& my_lanes = run->producer_lanes[p];
  size_t direct_cursor = 0;  // round-robin lane for direct mode
  uint64_t batch = 0;
  for (uint64_t i = 0; i < cfg.records_per_producer; ++i) {
    core::Record r;
    r.timestamp = int64_t(i);
    r.key = keys.Next();
    r.value = 1;
    r.stream_id = 0;
    cpu->ChargeBytes(Op::kSourceReadPerByte, cfg.record_bytes);

    int lane_id;
    if (cfg.partitioned) {
      cpu->Charge(Op::kHashCompute);
      cpu->Charge(Op::kPartitionSelect);
      cpu->Charge(Op::kFanoutWrite);
      lane_id = my_lanes[HashConsumer(r.key, cfg.consumers)];
    } else {
      lane_id = my_lanes[direct_cursor];
    }
    Channel* ch = LaneChannel<Channel>(run->lanes[lane_id]);
    OpenSlot* os = &open[lane_id];
    while (!try_open(ch, os)) co_await cpu->Park(ch->credit_event());
    cpu->ChargeBytes(Op::kBufferCopyPerByte, cfg.record_bytes);
    if (!os->writer.Append(r, cfg.record_bytes)) {
      // Buffer full: ship it and retry in a fresh one.
      SLASH_CHECK(ch->Post(os->slot, os->writer.bytes_used(), 0, 0, cpu).ok());
      os->open = false;
      co_await cpu->Sync();
      if (!cfg.partitioned) {
        direct_cursor = (direct_cursor + 1) % my_lanes.size();
        lane_id = my_lanes[direct_cursor];
        ch = LaneChannel<Channel>(run->lanes[lane_id]);
        os = &open[lane_id];
      }
      while (!try_open(ch, os)) co_await cpu->Park(ch->credit_event());
      SLASH_CHECK(os->writer.Append(r, cfg.record_bytes));
    }
    if (++batch >= 1024) {
      batch = 0;
      co_await cpu->Sync();
    }
  }
  // Drain partial buffers (an acquired but empty one must still post, to
  // keep slot order), then a final marker per lane.
  for (int lane_id : my_lanes) {
    Channel* ch = LaneChannel<Channel>(run->lanes[lane_id]);
    OpenSlot* os = &open[lane_id];
    if (os->open) {
      SLASH_CHECK(ch->Post(os->slot, os->writer.bytes_used(), 0, 0, cpu).ok());
      os->open = false;
    }
    while (!try_open(ch, os)) co_await cpu->Park(ch->credit_event());
    SLASH_CHECK(ch->Post(os->slot, 0, /*user_tag=*/1, 0, cpu).ok());
    os->open = false;
    co_await cpu->Sync();
  }
  // Doorbell batching: ring out anything still queued before parking for
  // good, or the tail (and the final markers) never leaves the producer.
  if constexpr (std::is_same_v<Channel, RdmaChannel>) {
    for (int lane_id : my_lanes) {
      SLASH_CHECK(run->lanes[lane_id].push->Flush(cpu).ok());
    }
  }
}

/// Applies the RO stateful count to one received buffer.
void Consume(TransferRun* run, perf::CpuContext* cpu, const uint8_t* payload,
             uint64_t len) {
  core::RecordReader reader(payload, len);
  core::Record r;
  while (reader.Next(&r)) {
    run->records_out->Add(1);
    cpu->CountRecords(1);
    cpu->Charge(Op::kRecordParse);
    if (run->config.update_state) {
      cpu->Charge(Op::kHashCompute);
      cpu->Charge(Op::kIndexProbe);
      cpu->Charge(Op::kStateRmw);
      run->state->UpdateAggregate({r.key, 0}, 1);
    }
  }
  run->result.payload_bytes += len;
}

sim::Task PushConsumer(TransferRun* run, int c) {
  perf::CpuContext* cpu = run->consumer_cpus[c].get();
  const auto& my_lanes = run->consumer_lanes[c];
  size_t finals = 0;
  while (finals < my_lanes.size()) {
    bool progressed = false;
    for (int lane_id : my_lanes) {
      Lane& lane = run->lanes[lane_id];
      InboundBuffer buffer;
      while (lane.push->TryPoll(&buffer, cpu)) {
        progressed = true;
        run->result.buffer_latency.Record(run->sim.now() - buffer.send_time);
        if (buffer.user_tag == 1) {
          ++finals;
        } else {
          Consume(run, cpu, buffer.payload, buffer.payload_len);
        }
        SLASH_CHECK(lane.push->Release(buffer, cpu).ok());
      }
    }
    if (progressed) {
      co_await cpu->Sync();
    } else {
      co_await cpu->Park(*run->consumer_events[c]);
    }
  }
}

sim::Task PullConsumer(TransferRun* run, int c) {
  perf::CpuContext* cpu = run->consumer_cpus[c].get();
  const auto& my_lanes = run->consumer_lanes[c];
  std::vector<bool> done(run->lanes.size(), false);
  size_t finals = 0;
  while (finals < my_lanes.size()) {
    for (int lane_id : my_lanes) {
      if (done[lane_id]) continue;
      Lane& lane = run->lanes[lane_id];
      PullChannel::PullResult pulled;
      co_await lane.pull->Pull(&pulled, cpu);
      if (!pulled.ready) continue;  // wasted network round-trip
      run->result.buffer_latency.Record(run->sim.now() -
                                        pulled.buffer.send_time);
      if (pulled.buffer.user_tag == 1) {
        done[lane_id] = true;
        ++finals;
      } else {
        Consume(run, cpu, pulled.buffer.payload, pulled.buffer.payload_len);
      }
      SLASH_CHECK(lane.pull->Release(pulled.buffer, cpu).ok());
      co_await cpu->Sync();
    }
  }
}

}  // namespace

TransferResult RunTransfer(const TransferConfig& config) {
  SLASH_CHECK(!(config.pull && config.partitioned));
  TransferRun run;
  run.config = config;

  rdma::FabricConfig fabric_config;
  fabric_config.nodes = 2;
  fabric_config.nic = config.nic;
  fabric_config.connection = config.connection;
  run.fabric = std::make_unique<rdma::Fabric>(&run.sim, fabric_config);

  run.records_out = run.sim.metrics().GetCounter("transfer.records_out");

  channel::ChannelConfig ch_cfg;
  ch_cfg.credits = config.credits;
  ch_cfg.slot_bytes = config.slot_bytes;
  ch_cfg.post_batch = config.post_batch;
  ch_cfg.inline_threshold = config.inline_threshold;

  if (config.update_state) {
    state::PartitionConfig pcfg;
    pcfg.kind = state::StateKind::kAggregate;
    pcfg.lss_capacity = 1ULL << 22;
    pcfg.index_buckets = 1ULL << 16;
    run.state = std::make_unique<state::Partition>(0, pcfg);
  }

  run.producer_lanes.resize(config.producers);
  run.consumer_lanes.resize(config.consumers);
  for (int c = 0; c < config.consumers; ++c) {
    run.consumer_cpus.push_back(std::make_unique<perf::CpuContext>(
        &run.sim, &perf::CostModel::Default(), config.cpu_ghz));
    run.consumer_events.push_back(std::make_unique<sim::Event>(&run.sim));
  }
  for (int p = 0; p < config.producers; ++p) {
    run.producer_cpus.push_back(std::make_unique<perf::CpuContext>(
        &run.sim, &perf::CostModel::Default(), config.cpu_ghz));
  }

  auto add_lane = [&](int p, int c) {
    Lane lane;
    lane.producer = p;
    lane.consumer = c;
    if (config.pull) {
      run.pull_channels.push_back(
          PullChannel::Create(run.fabric.get(), kProducerNode, kConsumerNode,
                              ch_cfg));
      lane.pull = run.pull_channels.back().get();
    } else {
      run.push_channels.push_back(
          RdmaChannel::Create(run.fabric.get(), kProducerNode, kConsumerNode,
                              ch_cfg));
      lane.push = run.push_channels.back().get();
      lane.push->AddDataObserver(run.consumer_events[c].get());
      lane.push->SetCloseHandler([&run](const Status& cause) {
        if (run.result.status.ok()) run.result.status = cause;
      });
    }
    const int lane_id = static_cast<int>(run.lanes.size());
    run.lanes.push_back(lane);
    run.producer_lanes[p].push_back(lane_id);
    run.consumer_lanes[c].push_back(lane_id);
  };

  if (config.partitioned) {
    // Every producer fans out to every consumer.
    for (int p = 0; p < config.producers; ++p) {
      for (int c = 0; c < config.consumers; ++c) add_lane(p, c);
    }
  } else {
    // Direct mode: each producer round-robins buffers over enough lanes to
    // keep every consumer thread busy, so consumer parallelism does not
    // bottleneck the transfer (the paper's 2-producer runs still saturate
    // the link with all 10 consumer threads polling).
    // Lane count balances both sides exactly (lcm), so neither producers
    // nor consumers are skewed by remainder lanes.
    const int lanes_per_producer =
        std::lcm(config.producers, config.consumers) / config.producers;
    int next_consumer = 0;
    for (int p = 0; p < config.producers; ++p) {
      for (int k = 0; k < lanes_per_producer; ++k) {
        add_lane(p, next_consumer % config.consumers);
        ++next_consumer;
      }
    }
  }

  for (int p = 0; p < config.producers; ++p) {
    run.sim.Spawn(config.pull ? Producer<PullChannel>(&run, p)
                              : Producer<RdmaChannel>(&run, p));
  }
  for (int c = 0; c < config.consumers; ++c) {
    if (run.consumer_lanes[c].empty()) continue;
    if (config.pull) {
      run.sim.Spawn(PullConsumer(&run, c));
    } else {
      run.sim.Spawn(PushConsumer(&run, c));
    }
  }

  run.result.makespan = run.sim.Run();
  SLASH_CHECK_MSG(run.sim.pending_tasks() == 0, "transfer run deadlocked");
  run.result.records = run.records_out->value();
  run.result.wire_bytes = run.fabric->total_tx_bytes();
  for (auto& cpu : run.producer_cpus) run.result.sender.Merge(cpu->counters());
  for (auto& cpu : run.consumer_cpus) {
    run.result.receiver.Merge(cpu->counters());
  }
  return run.result;
}

}  // namespace slash::bench
