// Reliable-connection queue pairs, completion queues, and the one-sided
// verb set (ibverbs analogue).
//
// Supported verbs, matching what the paper's protocol needs (Sec. 6):
//  * RDMA WRITE (one-sided, push): passive receiver; bytes land in the
//    target region and the receiver polls its own memory. Doorbell
//    batching, coalescing and inline payloads are built on top of it by
//    the channel layer.
//  * RDMA READ (one-sided, pull): full network round-trip, used by the
//    verbs ablation (bench/ablation_verbs) and the health probes.
// Slash never needs two-sided SEND/RECV, so the substrate does not model
// it. Reliable connections deliver in order; selective signaling is
// supported (unsignaled writes produce no sender completion).
#ifndef SLASH_RDMA_QUEUE_PAIR_H_
#define SLASH_RDMA_QUEUE_PAIR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>

#include "common/status.h"
#include "rdma/memory.h"
#include "sim/simulator.h"

namespace slash::rdma {

class Fabric;

/// Type of a completed work request.
enum class WorkType : uint8_t {
  kWrite,
  kRead,
};

/// Completion status of a work request (ibv_wc_status analogue). Anything
/// but kSuccess means the request did NOT execute: no bytes moved, nothing
/// became remotely visible. Error completions are always delivered, even
/// for unsignaled work requests — exactly like real RC hardware.
enum class WcStatus : uint8_t {
  kSuccess = 0,
  /// The transport retransmit budget was exhausted: the transfer was lost
  /// on the wire (fault injection: dropped transfer). Transient — the QP
  /// stays usable and an identical re-post may succeed.
  kRetryExceeded = 1,
  /// The work request was flushed without executing because the QP is (or
  /// went) into the error state. Re-posts keep flushing until the
  /// connection recovers.
  kFlushErr = 2,
};

std::string_view WcStatusName(WcStatus status);

/// Connection state of a QP endpoint. Error is connection-wide: when a
/// fault trips one endpoint, its peer errors too (RC semantics).
enum class QpState : uint8_t {
  kReady = 0,
  kError = 1,
};

/// The bytes [begin, end) of a WRITE's span, counted from its start, that
/// no protocol code at the receiver reads (a slot's unused payload area).
/// The NIC still times and counts the whole span, but delivery copies only
/// the bytes outside the range; the remote bytes inside it are unspecified.
/// The default, empty range makes a full WRITE.
struct UnreadRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// One completion-queue entry.
struct Completion {
  uint64_t wr_id = 0;
  WorkType type = WorkType::kWrite;
  uint64_t byte_len = 0;
  WcStatus status = WcStatus::kSuccess;

  bool ok() const { return status == WcStatus::kSuccess; }
};

/// A completion queue with a coroutine wakeup event.
class CompletionQueue {
 public:
  explicit CompletionQueue(sim::Simulator* sim) : ready_(sim) {}
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Dequeues one completion if available.
  bool TryPoll(Completion* out);

  /// Number of queued completions.
  size_t depth() const { return entries_.size(); }

  /// Event notified whenever a completion is pushed. Poll loops park here:
  ///   while (!cq.TryPoll(&c)) co_await cpu->Park(cq.ready_event());
  sim::Event& ready_event() { return ready_; }

  /// Enqueues a completion (fabric-internal).
  void Push(const Completion& c);

  /// Installs an interceptor invoked on every pushed completion *before*
  /// it is enqueued; returning true consumes the completion (it is never
  /// enqueued and no wakeup fires). The channel layer uses this to absorb
  /// error completions and drive its retry machinery without disturbing
  /// regular pollers.
  void SetInterceptor(std::function<bool(const Completion&)> interceptor) {
    interceptor_ = std::move(interceptor);
  }

 private:
  std::deque<Completion> entries_;
  sim::Event ready_;
  std::function<bool(const Completion&)> interceptor_;
};

/// One endpoint of a reliable connection.
///
/// Created in connected pairs by Fabric::Connect — or, in the scalable
/// connection modes (rdma/srq.h), as a peer-less *hub* endpoint shared by
/// many flows, where the destination endpoint is supplied per post instead
/// of being fixed at connect time. Each endpoint has one send CQ: with
/// one-sided verbs only, the responder side never sees a completion.
class QpEndpoint {
 public:
  QpEndpoint(Fabric* fabric, int node, uint32_t qp_num, bool hub = false);
  QpEndpoint(const QpEndpoint&) = delete;
  QpEndpoint& operator=(const QpEndpoint&) = delete;

  int node() const { return node_; }
  uint32_t qp_num() const { return qp_num_; }
  QpEndpoint* peer() const { return peer_; }
  CompletionQueue& send_cq() { return *send_cq_; }

  /// True for a shared (hub) endpoint: it has no fixed peer and is posted
  /// to with the explicit-destination write below. Hub endpoints carry
  /// many flows, so their send-queue bound is sized accordingly.
  bool hub() const { return hub_; }

  /// True for a kSrq-mode target endpoint: its receive ring is the node's
  /// shared one, so its modeled footprint omits a private ring
  /// (QpMemoryBytes, rdma/srq.h).
  bool srq() const { return srq_; }

  /// One-sided write of `local` into the peer region identified by `rkey`
  /// at `remote_offset`. If `signaled`, a kWrite completion is delivered to
  /// this endpoint's send CQ once the write is remotely visible and acked.
  /// Requires a connected (non-hub) endpoint.
  Status PostWrite(MemorySpan local, RemoteKey rkey, uint64_t remote_offset,
                   uint64_t wr_id, bool signaled);

  /// One-sided read of the peer region (rkey, remote_offset, local.length)
  /// into `local`. Costs a full round-trip; completion is always signaled.
  Status PostRead(MemorySpan local, RemoteKey rkey, uint64_t remote_offset,
                  uint64_t wr_id);

  /// Explicit-destination write, used by flows over shared (hub)
  /// endpoints, where one endpoint carries traffic to many destinations
  /// (rdma/srq.h). PostWrite is exactly PostWriteTo(peer(), ...).
  /// `inline_send` marks a WR whose payload was embedded in the WQE by the
  /// poster (payload small enough for the device's inline limit): the
  /// sending NIC skips the payload DMA fetch
  /// (NicConfig::inline_overhead_discount); semantics are unchanged.
  /// `unread` must lie inside the span (kInvalidArgument otherwise, and
  /// nothing moves).
  Status PostWriteTo(QpEndpoint* to, MemorySpan local, RemoteKey rkey,
                     uint64_t remote_offset, uint64_t wr_id, bool signaled,
                     bool inline_send = false, UnreadRange unread = {});

  /// Work requests posted but not yet completed on the wire.
  int outstanding() const { return outstanding_; }

  /// Connection state. While kError, every posted work request (and every
  /// in-flight one at its completion time) completes with kFlushErr and
  /// moves no data.
  QpState state() const { return state_; }

 private:
  friend class Fabric;

  Status ValidateLocal(const MemorySpan& local) const;

  Fabric* fabric_;
  int node_;
  uint32_t qp_num_;
  bool hub_;
  QpEndpoint* peer_ = nullptr;
  bool srq_ = false;
  std::unique_ptr<CompletionQueue> send_cq_;
  int outstanding_ = 0;
  int max_outstanding_ = 1024;
  QpState state_ = QpState::kReady;
};

}  // namespace slash::rdma

#endif  // SLASH_RDMA_QUEUE_PAIR_H_
