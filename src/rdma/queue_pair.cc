#include "rdma/queue_pair.h"

#include "rdma/fabric.h"

namespace slash::rdma {

std::string_view WcStatusName(WcStatus status) {
  switch (status) {
    case WcStatus::kSuccess:
      return "success";
    case WcStatus::kRetryExceeded:
      return "retry_exceeded";
    case WcStatus::kFlushErr:
      return "flush_err";
  }
  return "unknown";
}

bool CompletionQueue::TryPoll(Completion* out) {
  if (entries_.empty()) return false;
  *out = entries_.front();
  entries_.pop_front();
  return true;
}

void CompletionQueue::Push(const Completion& c) {
  if (interceptor_ && interceptor_(c)) return;
  entries_.push_back(c);
  ready_.Notify();
}

QpEndpoint::QpEndpoint(Fabric* fabric, int node, uint32_t qp_num, bool hub)
    : fabric_(fabric),
      node_(node),
      qp_num_(qp_num),
      hub_(hub),
      send_cq_(std::make_unique<CompletionQueue>(fabric->simulator())) {
  // A hub endpoint multiplexes the work queues of many flows; scale its
  // send-queue bound so the aggregate in-flight budget matches what the
  // same flows would have had over dedicated QPs.
  if (hub_) max_outstanding_ = 1 << 20;
}

Status QpEndpoint::ValidateLocal(const MemorySpan& local) const {
  if (!local.valid()) {
    return Status::InvalidArgument("local span out of region bounds");
  }
  if (local.region->node() != node_) {
    return Status::InvalidArgument("local span not registered on this node");
  }
  if (outstanding_ >= max_outstanding_) {
    return Status::ResourceExhausted("QP send queue full");
  }
  return Status::OK();
}

Status QpEndpoint::PostWrite(MemorySpan local, RemoteKey rkey,
                             uint64_t remote_offset, uint64_t wr_id,
                             bool signaled) {
  return PostWriteTo(peer_, local, rkey, remote_offset, wr_id, signaled);
}

Status QpEndpoint::PostWriteTo(QpEndpoint* to, MemorySpan local, RemoteKey rkey,
                               uint64_t remote_offset, uint64_t wr_id,
                               bool signaled, bool inline_send,
                               UnreadRange unread) {
  if (to == nullptr) {
    return Status::InvalidArgument("endpoint has no destination");
  }
  SLASH_RETURN_IF_ERROR(ValidateLocal(local));
  if (unread.begin > unread.end || unread.end > local.length) {
    return Status::InvalidArgument("unread range outside the write's span");
  }
  return fabric_->ExecuteWrite(this, to, local, rkey, remote_offset, wr_id,
                               signaled, inline_send, unread);
}

Status QpEndpoint::PostRead(MemorySpan local, RemoteKey rkey,
                            uint64_t remote_offset, uint64_t wr_id) {
  if (peer_ == nullptr) {
    return Status::InvalidArgument("endpoint has no destination");
  }
  SLASH_RETURN_IF_ERROR(ValidateLocal(local));
  return fabric_->ExecuteRead(this, peer_, local, rkey, remote_offset, wr_id);
}

}  // namespace slash::rdma
