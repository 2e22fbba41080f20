// The tracing half of the observability layer (DESIGN.md §8): spans and
// instant events stamped with the simulation's VIRTUAL clock, recorded into
// a preallocated ring buffer and exported as Chrome/Perfetto `trace_event`
// JSON (chrome://tracing and ui.perfetto.dev both open it).
//
// Hot-path discipline:
//   * Tracer is a concrete final class — no virtual dispatch anywhere.
//     Publishers cache a `Tracer*` that is nullptr when tracing is
//     disabled, so a disabled trace point compiles to one branch.
//   * Names are interned once (Intern() returns a small id); emitting an
//     event writes a fixed-size record into the ring — zero allocations
//     after the ring is built, even when the ring wraps.
//
// Determinism: every timestamp is virtual nanoseconds, the ring wraps
// deterministically, and the JSON writer is canonical — two same-seed runs
// produce byte-identical trace files (a regression oracle alongside
// result_checksum and fault_trace_digest).
#ifndef SLASH_OBS_TRACE_H_
#define SLASH_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace slash::obs {

/// Track (thread id) convention inside one traced process (pid = node).
enum Track : int {
  kTrackEngine = 0,    // engine control flow: epochs, barriers, windows
  kTrackChannel = 1,   // data plane: transfers, QP retries
  kTrackRecovery = 2,  // checkpoint / replication / recovery phases
  kTrackHealth = 3,    // failure detection: probes, suspicion, fencing
  kTrackElastic = 4,   // reconfiguration: join/leave events, handoffs
};

/// Virtual-time tracer with a fixed-capacity ring buffer. When the ring is
/// full the oldest events are overwritten (and counted in dropped()), so a
/// trace always holds the most recent window of the run.
class Tracer final {
 public:
  struct Options {
    size_t capacity = 1 << 16;  // events retained (32 B each)
    bool enabled = false;
  };

  Tracer() : Tracer(Options{}) {}
  explicit Tracer(const Options& options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Cheap flag publishers branch on. A disabled tracer records nothing.
  bool enabled() const { return enabled_; }

  /// Interns `s`, returning a stable small id. NOT for the hot path:
  /// resolve once at setup, cache the id, emit with the id.
  uint32_t Intern(std::string_view s);

  // --- Emission (hot path; no-ops when disabled) ---------------------------

  /// An instant event at virtual time `ts`.
  void Instant(Nanos ts, uint32_t name_id, uint32_t cat_id, int pid,
               int tid);

  /// A complete span: [ts, ts + dur].
  void Complete(Nanos ts, Nanos dur, uint32_t name_id, uint32_t cat_id,
                int pid, int tid);

  /// Begin/End span pair (for phases whose end is a different call site).
  void Begin(Nanos ts, uint32_t name_id, uint32_t cat_id, int pid, int tid);
  void End(Nanos ts, uint32_t name_id, uint32_t cat_id, int pid, int tid);

  // --- Convenience (cold path; interns on every call) ----------------------

  void InstantNamed(Nanos ts, std::string_view name, std::string_view cat,
                    int pid, int tid) {
    if (!enabled_) return;
    Instant(ts, Intern(name), Intern(cat), pid, tid);
  }

  /// Names a process (pid) / track (pid, tid) via trace_event "M" metadata.
  void SetProcessName(int pid, std::string_view name);
  void SetTrackName(int pid, int tid, std::string_view name);

  // --- Introspection / export ----------------------------------------------

  size_t size() const { return count_; }
  uint64_t dropped() const { return dropped_; }

  /// Canonical Chrome `trace_event` JSON ("X"/"i"/"B"/"E" phases plus "M"
  /// metadata; ts/dur in microseconds with fixed 3-decimal ns precision).
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`.
  Status WriteChromeJson(const std::string& path) const;

 private:
  struct EventRec {
    int64_t ts = 0;   // virtual ns
    int64_t dur = 0;  // virtual ns (kComplete only)
    uint32_t name = 0;
    uint32_t cat = 0;
    int32_t pid = 0;
    int32_t tid = 0;
    char phase = 'i';
  };

  void Push(const EventRec& rec);

  bool enabled_;
  std::vector<EventRec> ring_;
  size_t capacity_;
  size_t next_ = 0;   // ring write cursor
  size_t count_ = 0;  // events currently held (<= capacity_)
  uint64_t dropped_ = 0;

  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> name_ids_;
  std::vector<std::pair<int, std::string>> process_names_;
  std::vector<std::pair<std::pair<int, int>, std::string>> track_names_;
};

}  // namespace slash::obs

#endif  // SLASH_OBS_TRACE_H_
