// The discrete-event simulation (DES) kernel.
//
// Slash's entire distributed execution — 16 nodes, 10 workers each, NICs,
// links, epochs — runs as C++20 coroutines scheduled on this kernel's
// virtual nanosecond clock. This replaces the paper's physical cluster (see
// DESIGN.md, "Hardware-gate substitutions"): all protocol logic is real code
// acting on real bytes; only the passage of time is virtual, which makes
// every run deterministic and independent of host parallelism.
//
// The kernel intentionally mirrors the paper's coroutine-based event-driven
// scheduler (Sec. 5.3): compute coroutines and RDMA coroutines interleave on
// a worker, and a coroutine blocked on an empty RDMA channel parks itself
// (awaits an Event) instead of stalling the worker.
//
// The event queue is the hot path of every simulated cycle, so it is
// allocation-free in steady state (see DESIGN.md, "DES kernel"):
//
//   * Events are intrusive, pool-recycled nodes — no std::function heap
//     churn. Coroutine resumptions (the overwhelmingly common case) store
//     the raw coroutine handle; callbacks are constructed in place in a
//     fixed inline buffer, with a counted heap fallback for oversized
//     captures.
//   * A two-tier queue: a calendar wheel of singly-linked FIFO buckets for
//     the dense near-future events (NIC serialization quanta, yields,
//     credit polls) with an occupancy bitmap for O(1) scans, falling back
//     to a binary heap for far timers. Far events migrate into the wheel in
//     (time, seq) order when the window advances, so the global ordering is
//     bit-identical to a single priority queue with FIFO tie-break.
#ifndef SLASH_SIM_SIMULATOR_H_
#define SLASH_SIM_SIMULATOR_H_

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace slash::obs {
class Tracer;
}  // namespace slash::obs

namespace slash::sim {

class Simulator;
class FaultInjector;

/// A coroutine task: the unit of concurrent activity on the simulator.
///
/// Tasks are lazy: the body does not run until the task is either spawned on
/// a Simulator (top-level process) or co_awaited by another task (subtask).
/// A task's frame is owned by the Task object; co_awaiting a task resumes
/// the awaiter when the subtask completes.
class [[nodiscard]] Task {
 public:
  struct promise_type {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        auto& p = h.promise();
        p.done = true;
        if (p.on_done) p.on_done();
        if (p.continuation) return p.continuation;
        return std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() {
      SLASH_CHECK_MSG(false, "unhandled exception escaped a sim::Task");
    }

    std::coroutine_handle<> continuation;
    std::function<void()> on_done;  // completion hook used by Simulator
    bool done = false;
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  /// True once the task body ran to completion.
  bool done() const { return handle_ && handle_.promise().done; }

  /// Awaiting a task starts it and resumes the awaiter on completion.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> callee;
      bool await_ready() const noexcept { return callee.promise().done; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> caller) noexcept {
        callee.promise().continuation = caller;
        return callee;  // symmetric transfer into the subtask
      }
      void await_resume() noexcept {}
    };
    return Awaiter{handle_};
  }

 private:
  friend class Simulator;

  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// The event-queue kernel with a virtual nanosecond clock.
///
/// Not thread-safe: a simulation runs on one host thread (determinism is the
/// point). Multiple simulators may run on different threads independently.
class Simulator {
 public:
  /// Width of the calendar wheel: events within this many nanoseconds of
  /// the wheel window start live in FIFO buckets (one per nanosecond);
  /// farther events wait in the heap tier until the window advances.
  /// 8192 ns comfortably covers NIC serialization quanta, wire latencies,
  /// yields, and credit polls — the dense event population.
  static constexpr Nanos kNearWindowNanos = 8192;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current virtual time.
  Nanos now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `t` (>= now).
  /// Events with equal time run in scheduling (FIFO) order. Small callables
  /// are stored inline in the pooled event node; oversized ones fall back
  /// to a (counted) heap allocation.
  template <typename Fn>
  void ScheduleAt(Nanos t, Fn&& fn) {
    EventNode* node = NewNode(t);
    SetCallback(node, std::forward<Fn>(fn));
    Enqueue(node);
  }

  /// Schedules resumption of a coroutine at absolute time `t`. This is the
  /// kernel's fast path: the raw handle is stored in the pooled node — no
  /// callable is constructed at all.
  void ResumeAt(Nanos t, std::coroutine_handle<> h) {
    EventNode* node = NewNode(t);
    node->coro = h;
    Enqueue(node);
  }

  /// Starts a top-level coroutine process. The simulator owns the task; its
  /// body begins at the current virtual time.
  void Spawn(Task task);

  /// Runs events until the queue is empty. Returns the final virtual time.
  /// Check-fails if more than `max_events` fire (deadlock/livelock guard).
  Nanos Run(uint64_t max_events = UINT64_MAX);

  /// Runs a single event. Returns false if the queue is empty.
  bool Step() {
    EventNode* node = PopNext();
    if (node == nullptr) return false;
    now_ = node->time;
    ++events_fired_;
    Fire(node);
    return true;
  }

  /// Number of spawned top-level tasks that have not completed. A non-zero
  /// value after Run() indicates a deadlock (tasks waiting on events that
  /// will never fire).
  int pending_tasks() const { return pending_tasks_; }

  /// Registers a fault injector (see sim/fault.h). Substrate layers built
  /// on this simulator (the RDMA fabric) discover it here: the fabric
  /// attaches itself as the injection target and consults the injector for
  /// per-transfer fault decisions. Register before building the fabric;
  /// nullptr (the default) means fault-free execution.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

  /// The run's metrics registry (see src/obs/), owned here and always
  /// present: every layer built on this simulator (fabric, NICs, channels,
  /// health, elastic, recovery) resolves its instruments here once at
  /// construction and publishes in place.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Registers the run's tracer. Layers discover it here and intern their
  /// trace names once at construction, so register before building the
  /// fabric. nullptr when tracing is disabled, so every trace point stays a
  /// single branch.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Awaitable: suspends the current coroutine for `delay` virtual ns.
  /// `delay` must be >= 0: a negative delay is a caller bug (it would
  /// travel back in time) and check-fails.
  auto Delay(Nanos delay) {
    SLASH_CHECK_GE(delay, 0);
    struct Awaiter {
      Simulator* sim;
      Nanos delay;
      // Always suspends: Delay(0) acts as a cooperative yield that runs
      // after all already-queued events at the current time.
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->ResumeAt(sim->now_ + delay, h);
      }
      void await_resume() noexcept {}
    };
    return Awaiter{this, delay};
  }

  // --- Kernel observability --------------------------------------------------

  /// Events executed since construction.
  uint64_t events_fired() const { return events_fired_; }

  /// Event nodes served from the free list / times the pool had to grow.
  uint64_t pool_hits() const { return pool_hits_; }
  uint64_t pool_misses() const { return pool_misses_; }

  /// Fraction of node requests served without growing the pool; 1.0 in
  /// steady state.
  double pool_hit_rate() const {
    const uint64_t total = pool_hits_ + pool_misses_;
    return total > 0 ? double(pool_hits_) / double(total) : 1.0;
  }

  /// Heap bytes the event path has allocated: node-pool growth plus
  /// oversized-callback fallbacks. Flat in steady state — the perf_test
  /// regression guard holds this (and the global allocation hook) at zero
  /// across a warmed-up run.
  uint64_t event_bytes_allocated() const { return event_bytes_allocated_; }

 private:
  /// One pooled, intrusive event. Either `coro` is set (coroutine fast
  /// path) or `invoke`/`destroy` dispatch an inline- or heap-stored
  /// callable.
  struct EventNode {
    /// Inline callable storage. Sized so every callback the substrate
    /// schedules today (fabric delivery/ack closures are the largest, at
    /// ~100 bytes of captures) fits without touching the heap.
    static constexpr size_t kInlineBytes = 120;

    Nanos time = 0;
    uint64_t seq = 0;
    EventNode* next = nullptr;  // bucket / free-list link
    std::coroutine_handle<> coro = nullptr;
    void (*invoke)(EventNode*) = nullptr;
    void (*destroy)(EventNode*) = nullptr;
    void* heap = nullptr;  // oversized-callback fallback
    alignas(std::max_align_t) unsigned char inline_buf[kInlineBytes];
  };

  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  static constexpr uint64_t kWheelSlots = uint64_t(kNearWindowNanos);
  static constexpr uint64_t kWheelMask = kWheelSlots - 1;
  static constexpr uint64_t kBitmapWords = kWheelSlots / 64;
  static constexpr size_t kNodesPerChunk = 256;
  static_assert((kWheelSlots & kWheelMask) == 0, "wheel size must be 2^k");

  EventNode* NewNode(Nanos t) {
    SLASH_CHECK_GE(t, now_);
    EventNode* node = free_;
    if (node != nullptr) {
      free_ = node->next;
      ++pool_hits_;
    } else {
      node = GrowPool();
      ++pool_misses_;
    }
    node->time = t;
    node->seq = next_seq_++;
    node->next = nullptr;
    node->coro = nullptr;
    node->invoke = nullptr;
    node->destroy = nullptr;
    return node;
  }

  template <typename Fn>
  void SetCallback(EventNode* node, Fn&& fn) {
    using F = std::decay_t<Fn>;
    if constexpr (sizeof(F) <= EventNode::kInlineBytes &&
                  alignof(F) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(node->inline_buf)) F(std::forward<Fn>(fn));
      node->invoke = [](EventNode* n) {
        (*std::launder(reinterpret_cast<F*>(n->inline_buf)))();
      };
      node->destroy = [](EventNode* n) {
        std::launder(reinterpret_cast<F*>(n->inline_buf))->~F();
      };
    } else {
      node->heap = new F(std::forward<Fn>(fn));
      event_bytes_allocated_ += sizeof(F);
      node->invoke = [](EventNode* n) { (*static_cast<F*>(n->heap))(); };
      node->destroy = [](EventNode* n) {
        delete static_cast<F*>(n->heap);
        n->heap = nullptr;
      };
    }
  }

  /// Routes a node to the wheel (near future) or the heap (far timers).
  void Enqueue(EventNode* node) {
    if (node->time - window_start_ < kNearWindowNanos) {
      PushBucket(node);
    } else {
      heap_.push_back(node);
      std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
    }
  }

  /// Appends to the FIFO bucket of the node's timestamp. Each slot holds
  /// exactly one timestamp of the current window, so bucket order == seq
  /// order.
  void PushBucket(EventNode* node) {
    const uint64_t slot = uint64_t(node->time) & kWheelMask;
    Bucket& bucket = wheel_[slot];
    if (bucket.tail != nullptr) {
      bucket.tail->next = node;
    } else {
      bucket.head = node;
      occupied_[slot >> 6] |= uint64_t{1} << (slot & 63);
    }
    bucket.tail = node;
    ++wheel_size_;
  }

  /// Min-(time, seq) ordering for the far-timer heap (std:: heap algorithms
  /// build a max-heap, so the comparator is "fires later").
  struct HeapLater {
    bool operator()(const EventNode* a, const EventNode* b) const {
      return a->time != b->time ? a->time > b->time : a->seq > b->seq;
    }
  };

  EventNode* PopNext();
  void AdvanceWindow();
  uint64_t FindOccupiedSlot(uint64_t start_slot) const;
  EventNode* GrowPool();

  void Fire(EventNode* node) {
    if (node->coro) {
      // Coroutine fast path: recycle before resuming so a coroutine that
      // immediately re-delays reuses its own node.
      const std::coroutine_handle<> h = node->coro;
      Recycle(node);
      h.resume();
    } else {
      // The node is already unlinked, so the callback may freely schedule
      // new events; it just cannot be recycled until the callable dies.
      node->invoke(node);
      node->destroy(node);
      Recycle(node);
    }
  }

  void Recycle(EventNode* node) {
    node->coro = nullptr;
    node->next = free_;
    free_ = node;
  }

  // Declared first, so it outlives the task frames and callables destroyed
  // with the rest of the kernel state.
  obs::MetricsRegistry metrics_;

  // Two-tier queue state. The wheel window is fixed at
  // [window_start_, window_start_ + kNearWindowNanos) while the wheel is
  // non-empty; it advances (migrating far timers in) only when the wheel
  // drains, which keeps equal-time FIFO order global.
  std::unique_ptr<Bucket[]> wheel_;      // kWheelSlots buckets
  std::unique_ptr<uint64_t[]> occupied_; // bucket occupancy bitmap
  std::vector<EventNode*> heap_;         // far timers, min-(time, seq)
  Nanos window_start_ = 0;
  uint64_t wheel_size_ = 0;

  // Node pool.
  EventNode* free_ = nullptr;
  std::vector<std::unique_ptr<EventNode[]>> chunks_;

  std::vector<Task> spawned_;
  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  int pending_tasks_ = 0;
  FaultInjector* fault_injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;

  uint64_t events_fired_ = 0;
  uint64_t pool_hits_ = 0;
  uint64_t pool_misses_ = 0;
  uint64_t event_bytes_allocated_ = 0;
};

/// A broadcast notification primitive for coroutines.
///
/// Waiters suspend until the next Notify() after they began waiting; Notify
/// wakes all current waiters at the current virtual time. Use in a loop:
///   while (!predicate()) co_await event.Wait();
/// The Event must outlive all waiters.
class Event {
 public:
  explicit Event(Simulator* sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Wakes every coroutine currently waiting. Waiters woken here that
  /// immediately re-wait land in the (empty) waiter list and are only woken
  /// by the *next* Notify. The waiter list and its scratch double-buffer
  /// are reused across notifies — no steady-state allocation.
  void Notify() {
    if (waiters_.empty()) return;
    scratch_.swap(waiters_);
    for (auto h : scratch_) sim_->ResumeAt(sim_->now(), h);
    scratch_.clear();
  }

  /// Awaitable: suspends until the next Notify().
  auto Wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        event->waiters_.push_back(h);
      }
      void await_resume() noexcept {}
    };
    return Awaiter{this};
  }

  /// Number of coroutines currently parked on this event.
  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<std::coroutine_handle<>> scratch_;  // Notify wake list, reused
};

}  // namespace slash::sim

#endif  // SLASH_SIM_SIMULATOR_H_
