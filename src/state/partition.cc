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

// Reads the key of the wire entry at `*pos` and moves `*pos` past it.
// Returns false, leaving `*pos`, when no whole entry header is left. The
// entry's value may still be cut short: MergeDelta's apply cursor reports
// that when it gets there.
bool NextWireKey(const uint8_t* data, size_t len, size_t* pos, StateKey* k) {
  if (*pos + sizeof(WireEntry) > len) return false;
  WireEntry wire;
  std::memcpy(&wire, data + *pos, sizeof(wire));
  *pos += sizeof(wire) + wire.value_len;
  *k = StateKey{wire.key, wire.bucket};
  return true;
}

// The first segment whose bucket is not below `bucket`.
template <typename Segments>
auto LowerBoundBucket(Segments& segments, int64_t bucket) {
  return std::lower_bound(
      segments.begin(), segments.end(), bucket,
      [](const auto& s, int64_t b) { return s.bucket < b; });
}

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
                     PartitionRole role, size_t max_index_buckets)
    : id_(id),
      config_(config),
      segmented_(role == PartitionRole::kRetiring &&
                 config.kind == StateKind::kAppend),
      index_(config.index_buckets, max_index_buckets),
      lss_(config.lss_capacity) {}

uint64_t Partition::FindInChain(uint64_t addr, StateKey k) const {
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

uint64_t Partition::AllocateEntry(StateKey k, uint16_t stream_id,
                                  uint16_t flags, const void* value,
                                  uint32_t value_len) {
  // Log allocation (and segment creation) is serialized by a spinlock.
  while (alloc_lock_.test_and_set(std::memory_order_acquire)) {
  }
  LogStructuredStore* log = segmented_ ? &SegmentFor(k.bucket) : &lss_;
  const uint64_t addr = log->Allocate(sizeof(EntryHeader) + value_len);
  bucket_floor_ = std::min(bucket_floor_, k.bucket);
  alloc_lock_.clear(std::memory_order_release);

  EntryHeader* header = log->HeaderAt(addr);
  header->key = k.key;
  header->bucket = k.bucket;
  header->prev = HashIndex::kInvalidAddress;
  header->value_len = value_len;
  header->flags = flags;
  header->stream_id = stream_id;
  std::memcpy(log->At(addr) + sizeof(EntryHeader), value, value_len);
  return addr;
}

Partition::Inserted Partition::InsertEntry(StateKey k, HashIndex::Slot slot,
                                           uint64_t head,
                                           const AggState& value) {
  const uint64_t addr = AllocateEntry(k, /*stream_id=*/0, kEntryAggregate,
                                      &value, sizeof(value));
  EntryHeader* header = lss_.HeaderAt(addr);
  for (;;) {
    header->prev = head;
    if (HashIndex::CompareExchangeHead(slot, &head, addr)) {
      entry_count_.fetch_add(1, std::memory_order_relaxed);
      return {addr, true};
    }
    // Lost a race; `head` is the observed head. An aggregate inserted
    // concurrently for our key wins: adopt it and retire our entry.
    const uint64_t existing = FindInChain(head, k);
    if (existing != HashIndex::kInvalidAddress) {
      header->flags |= kEntryTombstone;
      return {existing, false};
    }
  }
}

LogStructuredStore& Partition::SegmentFor(int64_t bucket) {
  auto it = LowerBoundBucket(segments_, bucket);
  if (it == segments_.end() || it->bucket != bucket) {
    auto log = std::make_unique<LogStructuredStore>(config_.lss_capacity);
    it = segments_.insert(it, Segment{bucket, std::move(log)});
  }
  return *it->log;
}

void Partition::PrefetchSegmentTail(int64_t bucket) const {
  while (alloc_lock_.test_and_set(std::memory_order_acquire)) {
  }
  const auto it = LowerBoundBucket(segments_, bucket);
  if (it != segments_.end() && it->bucket == bucket) it->log->PrefetchTail();
  alloc_lock_.clear(std::memory_order_release);
}

void Partition::DropSegments(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    dropped_scanned_ += segments_[i].log->entries_scanned();
    dropped_allocated_ += segments_[i].log->allocated_bytes();
  }
  segments_.erase(segments_.begin(), segments_.begin() + ptrdiff_t(count));
}

uint64_t Partition::entries_scanned() const {
  uint64_t scanned = lss_.entries_scanned() + dropped_scanned_;
  for (const Segment& s : segments_) scanned += s.log->entries_scanned();
  return scanned;
}

uint64_t Partition::allocated_bytes() const {
  uint64_t bytes = lss_.allocated_bytes() + dropped_allocated_;
  for (const Segment& s : segments_) bytes += s.log->allocated_bytes();
  return bytes;
}

void Partition::MergeAggregate(StateKey k, const AggState& delta) {
  SLASH_CHECK(config_.kind == StateKind::kAggregate);
  const HashIndex::Slot slot = index_.Claim(HashStateKey(k));
  const uint64_t head = HashIndex::Head(slot);
  uint64_t addr = FindInChain(head, k);
  bool fresh = false;
  if (addr == HashIndex::kInvalidAddress) {
    // A fresh accumulator starts at its delta: identity ⊕ delta == delta
    // bit for bit. An insert that lost to one of the same key merges into
    // the winner below.
    const Inserted inserted = InsertEntry(k, slot, head, delta);
    addr = inserted.addr;
    fresh = inserted.won;
  }
  SLASH_CHECK_MSG(lss_.Mutable(addr),
                  "RMW on read-only LSS region (epoch transfer in flight)");
  if (fresh) return;
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
  const uint64_t addr = FindInChain(index_.Find(HashStateKey(k)), k);
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
  AllocateEntry(k, stream_id, kEntryAppend, data, len);
  entry_count_.fetch_add(1, std::memory_order_relaxed);
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
  // A lookahead cursor walks the wire headers kMergePrefetchDistance
  // entries ahead of the apply cursor and prefetches each entry's primary
  // bucket. Append state has no index to warm.
  size_t ahead_pos = 0;
  auto prefetch_next_bucket = [&] {
    StateKey ahead;
    if (config_.kind == StateKind::kAggregate &&
        NextWireKey(data, len, &ahead_pos, &ahead)) {
      index_.Prefetch(HashStateKey(ahead));
    }
  };
  for (int i = 0; i < kMergePrefetchDistance; ++i) prefetch_next_bucket();
  size_t pos = 0;
  while (pos < len) {
    prefetch_next_bucket();
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
  lss_.Clear();
  DropSegments(segments_.size());
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
