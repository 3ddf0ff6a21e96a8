#ifndef FARVIEW_SIM_ENGINE_H_
#define FARVIEW_SIM_ENGINE_H_

#include <cstdint>

#include "common/inline_fn.h"
#include "common/units.h"
#include "sim/event_queue.h"

namespace farview::sim {

/// Discrete-event simulation engine.
///
/// The engine owns a simulated clock (picoseconds, see common/units.h) and a
/// calendar queue of events (sim/event_queue.h). Components schedule
/// callbacks at absolute or relative times; `Run` drains the queue in time
/// order. Events scheduled at the same instant execute in FIFO order of
/// scheduling (a monotonically increasing sequence number breaks ties), so
/// simulations are fully deterministic.
///
/// Hot-path contract: scheduling an event whose callback captures at most
/// `EventFn::kInlineBytes` (64 B, nothrow-movable) performs ZERO heap
/// allocations in steady state — the callback lives inline in the calendar
/// bucket, and buckets recycle their capacity across laps. Pinned by
/// tests/sim_alloc_test.cc and measured by bench/perf_simcore.cc.
///
/// The engine is single-threaded: one clock, one queue, no locks. Every
/// simulated component of a run, a sharded pool's nodes included, shares
/// one Engine, so (time, seq) is a total order over the whole simulation.
class Engine {
 public:
  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at absolute simulated time `t`. `t` must not be
  /// in the past. `fn` is any callable; captures up to 64 B schedule
  /// without allocating (see EventFn).
  void ScheduleAt(SimTime t, EventFn fn);

  /// Schedules `fn` to run `delay` after the current time (delay >= 0).
  void ScheduleAfter(SimTime delay, EventFn fn);

  /// Runs events until the queue is empty. Returns the final clock value.
  SimTime Run();

  /// Runs events with timestamps <= `deadline`. Returns true if the queue
  /// was drained.
  ///
  /// Clock contract (pinned; tests/sim_test.cc RunUntilDrain* regressions):
  ///  - Queue NOT drained (an event remains past `deadline`): the clock
  ///    advances to exactly `deadline`, so a subsequent `ScheduleAfter`
  ///    measures delays from the deadline, and returns false.
  ///  - Queue drained before the deadline: the clock stays at the *last
  ///    executed event's* time — it does NOT jump forward to `deadline` —
  ///    and the call returns true. (With an empty queue there is no event
  ///    to anchor `deadline` to; advancing the clock would silently shrink
  ///    every delay scheduled afterwards.)
  /// In both cases time never moves backwards: `Now()` after the call is
  /// >= `Now()` before it, and later `ScheduleAt`/`Run` observe a
  /// monotonically non-decreasing clock.
  bool RunUntil(SimTime deadline);

  /// Number of events executed so far (for tests and efficiency checks).
  uint64_t executed_events() const { return executed_; }

  /// Adjusts the executed-event count by `delta` without running anything.
  /// Burst-coalescing components (sim/server.h burst runs, the net stack's
  /// inline in-order delivery) collapse k timing-equivalent events into one
  /// engine event, or elide an event entirely; they account the logical
  /// events here so `executed_events()` stays equal to the uncoalesced
  /// simulation's count. The perf harness and bench_report.sh pin that
  /// count, which is what makes the coalescing refactor auditable
  /// (DESIGN.md §8a).
  void AccountCoalesced(int64_t delta) {
    executed_ = static_cast<uint64_t>(static_cast<int64_t>(executed_) + delta);
  }

  /// Number of events currently pending.
  size_t pending_events() const { return queue_.size(); }

  /// Resets the clock and drops all pending events. Statistics reset too.
  /// Queue capacity is retained (warm restarts stay allocation-free).
  void Reset();

 private:
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  EventQueue queue_;
};

}  // namespace farview::sim

#endif  // FARVIEW_SIM_ENGINE_H_
