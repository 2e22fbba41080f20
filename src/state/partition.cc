#include "state/partition.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace slash::state {

namespace {

// Packed per-entry header of the delta wire format (independent of the
// in-memory EntryHeader so the format stays stable and minimal).
struct WireEntry {
  uint64_t key;
  int64_t bucket;
  uint32_t value_len;
  uint16_t flags;
  uint16_t stream_id;
};
static_assert(sizeof(WireEntry) == 24);

void AtomicMinI64(int64_t* target, int64_t value) {
  std::atomic_ref<int64_t> ref(*target);
  int64_t cur = ref.load(std::memory_order_relaxed);
  while (value < cur &&
         !ref.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMaxI64(int64_t* target, int64_t value) {
  std::atomic_ref<int64_t> ref(*target);
  int64_t cur = ref.load(std::memory_order_relaxed);
  while (value > cur &&
         !ref.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Partition::Partition(int id, const PartitionConfig& config,
                     size_t max_index_buckets)
    : id_(id),
      config_(config),
      index_(config.index_buckets, max_index_buckets),
      lss_(config.lss_capacity) {}

uint64_t Partition::FindEntry(StateKey k) const {
  const KeyHash h = HashStateKey(k);
  uint64_t addr = index_.Find(h);
  while (addr != HashIndex::kInvalidAddress) {
    const EntryHeader* header = lss_.HeaderAt(addr);
    if ((header->flags & kEntryTombstone) == 0 && header->key == k.key &&
        header->bucket == k.bucket) {
      return addr;
    }
    addr = header->prev;
  }
  return HashIndex::kInvalidAddress;
}

uint64_t Partition::InsertEntry(StateKey k, uint16_t stream_id,
                                uint16_t flags, uint32_t value_len,
                                const std::function<void(uint8_t*)>& init,
                                bool* inserted) {
  const KeyHash h = HashStateKey(k);
  // Log allocation is serialized by a spinlock (insertion is the rare path
  // for aggregates; the common per-record RMW never reaches here).
  while (alloc_lock_.test_and_set(std::memory_order_acquire)) {
  }
  const uint64_t addr = lss_.Allocate(sizeof(EntryHeader) + value_len);
  bucket_floor_ = std::min(bucket_floor_, k.bucket);
  alloc_lock_.clear(std::memory_order_release);

  EntryHeader* header = lss_.HeaderAt(addr);
  header->key = k.key;
  header->bucket = k.bucket;
  header->value_len = value_len;
  header->flags = flags;
  header->stream_id = stream_id;
  init(lss_.At(addr) + sizeof(EntryHeader));

  const bool dedupe = (flags & kEntryAggregate) != 0;
  uint64_t head = index_.Find(h);
  for (;;) {
    if (dedupe && head != HashIndex::kInvalidAddress) {
      // Another thread may have inserted our key concurrently: adopt theirs
      // and retire our orphan allocation.
      uint64_t existing = head;
      while (existing != HashIndex::kInvalidAddress) {
        const EntryHeader* eh = lss_.HeaderAt(existing);
        if ((eh->flags & kEntryTombstone) == 0 && eh->key == k.key &&
            eh->bucket == k.bucket) {
          header->flags |= kEntryTombstone;
          *inserted = false;
          return existing;
        }
        existing = eh->prev;
      }
    }
    header->prev = head;
    if (index_.CompareExchangeHead(h, head, addr, &head)) {
      entry_count_.fetch_add(1, std::memory_order_relaxed);
      *inserted = true;
      return addr;
    }
    // Lost the race; `head` now holds the observed chain head. Loop.
  }
}

void Partition::UpdateAggregate(StateKey k, int64_t value) {
  SLASH_CHECK(config_.kind == StateKind::kAggregate);
  uint64_t addr = FindEntry(k);
  if (addr == HashIndex::kInvalidAddress) {
    bool inserted;
    addr = InsertEntry(k, /*stream_id=*/0, kEntryAggregate, sizeof(AggState),
                       [](uint8_t* value_bytes) {
                         const AggState identity = AggState::Identity();
                         std::memcpy(value_bytes, &identity, sizeof(identity));
                       },
                       &inserted);
  }
  SLASH_CHECK_MSG(lss_.Mutable(addr),
                  "RMW on read-only LSS region (epoch transfer in flight)");
  auto* s = reinterpret_cast<AggState*>(lss_.At(addr) + sizeof(EntryHeader));
  std::atomic_ref<int64_t>(s->sum).fetch_add(value, std::memory_order_relaxed);
  std::atomic_ref<int64_t>(s->count).fetch_add(1, std::memory_order_relaxed);
  AtomicMinI64(&s->min, value);
  AtomicMaxI64(&s->max, value);
}

void Partition::MergeAggregate(StateKey k, const AggState& delta) {
  SLASH_CHECK(config_.kind == StateKind::kAggregate);
  uint64_t addr = FindEntry(k);
  if (addr == HashIndex::kInvalidAddress) {
    bool inserted;
    addr = InsertEntry(k, /*stream_id=*/0, kEntryAggregate, sizeof(AggState),
                       [](uint8_t* value_bytes) {
                         const AggState identity = AggState::Identity();
                         std::memcpy(value_bytes, &identity, sizeof(identity));
                       },
                       &inserted);
  }
  SLASH_CHECK_MSG(lss_.Mutable(addr),
                  "merge into read-only LSS region");
  auto* s = reinterpret_cast<AggState*>(lss_.At(addr) + sizeof(EntryHeader));
  std::atomic_ref<int64_t>(s->sum).fetch_add(delta.sum,
                                             std::memory_order_relaxed);
  std::atomic_ref<int64_t>(s->count).fetch_add(delta.count,
                                               std::memory_order_relaxed);
  AtomicMinI64(&s->min, delta.min);
  AtomicMaxI64(&s->max, delta.max);
}

bool Partition::LookupAggregate(StateKey k, AggState* out) const {
  SLASH_CHECK(config_.kind == StateKind::kAggregate);
  const uint64_t addr = FindEntry(k);
  if (addr == HashIndex::kInvalidAddress) return false;
  // atomic_ref needs a non-const object; the loads do not mutate state.
  auto* s = reinterpret_cast<AggState*>(
      const_cast<uint8_t*>(lss_.At(addr)) + sizeof(EntryHeader));
  out->sum = std::atomic_ref<int64_t>(s->sum).load(std::memory_order_relaxed);
  out->count =
      std::atomic_ref<int64_t>(s->count).load(std::memory_order_relaxed);
  out->min = std::atomic_ref<int64_t>(s->min).load(std::memory_order_relaxed);
  out->max = std::atomic_ref<int64_t>(s->max).load(std::memory_order_relaxed);
  return true;
}

void Partition::Append(StateKey k, uint16_t stream_id, const uint8_t* data,
                       uint32_t len) {
  SLASH_CHECK(config_.kind == StateKind::kAppend);
  bool inserted;
  InsertEntry(k, stream_id, kEntryAppend, len,
              [data, len](uint8_t* value_bytes) {
                std::memcpy(value_bytes, data, len);
              },
              &inserted);
  SLASH_CHECK(inserted);  // appends never dedupe
}

void Partition::CollectAppends(StateKey k, AppendSet* out) const {
  SLASH_CHECK(config_.kind == StateKind::kAppend);
  const KeyHash h = HashStateKey(k);
  uint64_t addr = index_.Find(h);
  while (addr != HashIndex::kInvalidAddress) {
    const EntryHeader* header = lss_.HeaderAt(addr);
    if ((header->flags & kEntryTombstone) == 0 && header->key == k.key &&
        header->bucket == k.bucket) {
      const uint8_t* value = lss_.At(addr) + sizeof(EntryHeader);
      out->Add(header->stream_id,
               std::vector<uint8_t>(value, value + header->value_len));
    }
    addr = header->prev;
  }
}

size_t Partition::SerializeDelta(std::vector<uint8_t>* out) const {
  // Step 2 of the coherence protocol: freeze the delta region against CPU
  // writes while it is read for transfer.
  const_cast<LogStructuredStore&>(lss_).MarkReadOnlyUpTo(lss_.tail());
  return Snapshot(out);
}

size_t Partition::Snapshot(std::vector<uint8_t>* out) const {
  size_t count = 0;
  ForEachLive([out, &count](const EntryHeader& header, const uint8_t* value) {
    WireEntry wire;
    wire.key = header.key;
    wire.bucket = header.bucket;
    wire.value_len = header.value_len;
    wire.flags = header.flags;
    wire.stream_id = header.stream_id;
    const size_t pos = out->size();
    out->resize(pos + sizeof(WireEntry) + header.value_len);
    std::memcpy(out->data() + pos, &wire, sizeof(wire));
    std::memcpy(out->data() + pos + sizeof(WireEntry), value,
                header.value_len);
    ++count;
  });
  return count;
}

Status Partition::MergeDelta(const uint8_t* data, size_t len) {
  size_t pos = 0;
  while (pos < len) {
    if (pos + sizeof(WireEntry) > len) {
      return Status::InvalidArgument("truncated delta entry header");
    }
    WireEntry wire;
    std::memcpy(&wire, data + pos, sizeof(wire));
    pos += sizeof(wire);
    if (pos + wire.value_len > len) {
      return Status::InvalidArgument("truncated delta entry value");
    }
    const uint8_t* value = data + pos;
    pos += wire.value_len;

    const StateKey k{wire.key, wire.bucket};
    if (wire.flags & kEntryAggregate) {
      if (config_.kind != StateKind::kAggregate) {
        return Status::InvalidArgument("aggregate delta into append state");
      }
      if (wire.value_len != sizeof(AggState)) {
        return Status::InvalidArgument("bad aggregate value size");
      }
      AggState delta;
      std::memcpy(&delta, value, sizeof(delta));
      MergeAggregate(k, delta);
    } else if (wire.flags & kEntryAppend) {
      if (config_.kind != StateKind::kAppend) {
        return Status::InvalidArgument("append delta into aggregate state");
      }
      Append(k, wire.stream_id, value, wire.value_len);
    } else {
      return Status::InvalidArgument("unknown delta entry kind");
    }
  }
  return Status::OK();
}

void Partition::Reset() {
  index_.Clear();
  lss_.TruncateTo(lss_.tail());
  entry_count_.store(0, std::memory_order_relaxed);
  bucket_floor_ = std::numeric_limits<int64_t>::max();
}

std::vector<Partition::DeltaChunk> Partition::SplitDelta(
    const uint8_t* data, size_t len, size_t max_chunk_bytes) {
  std::vector<DeltaChunk> chunks;
  DeltaChunk current;
  size_t pos = 0;
  while (pos < len) {
    SLASH_CHECK_LE(pos + sizeof(WireEntry), len);
    WireEntry wire;
    std::memcpy(&wire, data + pos, sizeof(wire));
    const size_t entry_bytes = sizeof(WireEntry) + wire.value_len;
    SLASH_CHECK_MSG(entry_bytes <= max_chunk_bytes,
                    "delta entry larger than a chunk");
    SLASH_CHECK_LE(pos + entry_bytes, len);
    if (current.length + entry_bytes > max_chunk_bytes) {
      chunks.push_back(current);
      current = DeltaChunk{pos, 0, 0};
    }
    if (current.entries == 0) current.offset = pos;
    current.length += entry_bytes;
    ++current.entries;
    pos += entry_bytes;
  }
  if (current.entries > 0 || chunks.empty()) chunks.push_back(current);
  return chunks;
}

}  // namespace slash::state
