// Unit tests for the discrete-event engine, the fair-share bandwidth server
// and the statistics accumulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "common/alloc_counter.h"
#include "common/rng.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/server.h"
#include "sim/stats.h"

namespace farview::sim {
namespace {

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(EngineTest, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(30, [&] { order.push_back(3); });
  e.ScheduleAt(10, [&] { order.push_back(1); });
  e.ScheduleAt(20, [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), 30);
  EXPECT_EQ(e.executed_events(), 3u);
}

TEST(EngineTest, FifoForSimultaneousEvents) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.ScheduleAt(100, [&order, i] { order.push_back(i); });
  }
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, CallbackSchedulesMore) {
  Engine e;
  int count = 0;
  std::function<void()> tick = [&]() {
    if (++count < 5) e.ScheduleAfter(10, tick);
  };
  e.ScheduleAfter(0, tick);
  e.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.Now(), 40);
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.ScheduleAt(10, [&] { ++fired; });
  e.ScheduleAt(20, [&] { ++fired; });
  e.ScheduleAt(30, [&] { ++fired; });
  EXPECT_FALSE(e.RunUntil(25));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.Now(), 25);
  EXPECT_TRUE(e.RunUntil(100));
  EXPECT_EQ(fired, 3);
}

// Pinned contract (engine.h): when the queue drains before the deadline,
// the clock stays at the last executed event's time and the call returns
// true — it does not jump forward to the deadline.
TEST(EngineTest, RunUntilDrainLeavesClockAtLastEvent) {
  Engine e;
  int fired = 0;
  e.ScheduleAt(10, [&] { ++fired; });
  e.ScheduleAt(20, [&] { ++fired; });
  EXPECT_TRUE(e.RunUntil(1000));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.Now(), 20);  // not 1000
}

// Regression: after a drained RunUntil, subsequent scheduling must not be
// able to observe time moving backwards — ScheduleAt anywhere in
// [Now(), deadline] is legal and Run() advances monotonically from the
// last event time, not from the stale deadline.
TEST(EngineTest, RunUntilDrainThenScheduleNeverMovesTimeBackwards) {
  Engine e;
  e.ScheduleAt(10, [] {});
  ASSERT_TRUE(e.RunUntil(1000));
  ASSERT_EQ(e.Now(), 10);

  // Scheduling between the last event and the old deadline is legal...
  std::vector<SimTime> observed;
  e.ScheduleAt(500, [&] { observed.push_back(e.Now()); });
  // ... and so is a relative delay, measured from Now() == 10.
  e.ScheduleAfter(5, [&] { observed.push_back(e.Now()); });
  e.Run();
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], 15);   // 10 + 5, not 1000 + 5
  EXPECT_EQ(observed[1], 500);  // inside the drained RunUntil's window
  EXPECT_EQ(e.Now(), 500);

  // A second RunUntil from the drained state behaves identically.
  e.ScheduleAfter(1, [] {});
  EXPECT_TRUE(e.RunUntil(10000));
  EXPECT_EQ(e.Now(), 501);
}

TEST(EngineTest, ResetClearsState) {
  Engine e;
  e.ScheduleAt(10, [] {});
  e.Reset();
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_EQ(e.Now(), 0);
  e.Run();
  EXPECT_EQ(e.executed_events(), 0u);
}

TEST(EngineDeathTest, SchedulingInThePastDies) {
  Engine e;
  e.ScheduleAt(100, [] {});
  e.Run();
  EXPECT_DEATH(e.ScheduleAt(50, [] {}), "scheduled in the past");
}

TEST(EngineDeathTest, NegativeDelayDies) {
  Engine e;
  EXPECT_DEATH(e.ScheduleAfter(-5, [] {}), "negative delay");
}

TEST(EngineDeathTest, NullCallbackDies) {
  Engine e;
  EXPECT_DEATH(e.ScheduleAt(0, nullptr), "null callback");
}

TEST(EngineTest, SchedulingExactlyAtNowIsAllowed) {
  // Regression guard for the past-event check: t == Now() must stay legal
  // (zero-latency hops like validation failures rely on it), and same-time
  // events run in schedule order.
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(100, [&] {
    e.ScheduleAt(e.Now(), [&] { order.push_back(1); });
    e.ScheduleAfter(0, [&] { order.push_back(2); });
  });
  e.Run();
  EXPECT_EQ(e.Now(), 100);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// EventQueue: randomized differential check against a reference heap
// ---------------------------------------------------------------------------

// Reference model: a plain binary heap over (time, seq). The calendar queue
// must pop the exact same (time, id) sequence for any legal push/pop
// interleaving — strictly increasing (time, seq), FIFO for ties.
struct RefEvent {
  SimTime time;
  uint64_t seq;
  int id;
};
struct RefLater {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};
using RefHeap = std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater>;

TEST(EventQueueDifferentialTest, MatchesReferenceHeapAcrossSeeds) {
  constexpr SimTime kWindow =
      static_cast<SimTime>(EventQueue::kNumBuckets) * EventQueue::kBucketWidth;
  for (const uint64_t seed : {1ull, 42ull, 987654321ull}) {
    Rng rng(seed);
    EventQueue q;
    RefHeap ref;
    uint64_t seq = 0;
    SimTime cur = 0;  // time of the last popped event (pushes must be >=)
    int next_id = 0;
    int last_id = -1;

    const auto push = [&](SimTime t) {
      const int id = next_id++;
      q.Push(t, seq, [&last_id, id] { last_id = id; });
      ref.push(RefEvent{t, seq, id});
      ++seq;
    };
    const auto pop_and_compare = [&] {
      ASSERT_FALSE(ref.empty());
      ASSERT_FALSE(q.empty());
      const RefEvent want = ref.top();
      ref.pop();
      SimTime t = -1;
      EventFn fn = q.PopNext(&t);
      ASSERT_NE(fn, nullptr);
      fn();
      EXPECT_EQ(t, want.time);
      EXPECT_EQ(last_id, want.id);
      cur = t;
    };

    for (int step = 0; step < 4000; ++step) {
      const uint64_t action = rng.NextBelow(10);
      if (action < 4 && !ref.empty()) {
        pop_and_compare();
      } else if (action == 4 && !ref.empty()) {
        // Peek must agree with the reference front and not disturb order.
        EXPECT_EQ(q.PeekTime(), ref.top().time);
      } else {
        // Push a burst. Deltas cover every structural path: same-instant
        // FIFO ties, same-bucket collisions, in-window spread, far-future
        // overflow up to ~100 windows out (the peek above can park the
        // cursor there, forcing the sweep-and-re-anchor path on the next
        // near push), and a ~137 ms spread (~8k window laps), the pattern
        // perf_simcore's far_future_drain row times.
        const int burst = 1 + static_cast<int>(rng.NextBelow(4));
        for (int i = 0; i < burst; ++i) {
          SimTime delta = 0;
          switch (rng.NextBelow(5)) {
            case 0: delta = 0; break;
            case 1: delta = static_cast<SimTime>(
                        rng.NextBelow(EventQueue::kBucketWidth)); break;
            case 2: delta = static_cast<SimTime>(
                        rng.NextBelow(static_cast<uint64_t>(kWindow))); break;
            case 3: delta = static_cast<SimTime>(
                        rng.NextBelow(static_cast<uint64_t>(100 * kWindow)));
              break;
            default: delta = static_cast<SimTime>(rng.NextBelow(
                         static_cast<uint64_t>(137 * kMillisecond)));
          }
          push(cur + delta);
        }
      }
      EXPECT_EQ(q.size(), ref.size());
    }
    while (!ref.empty()) pop_and_compare();
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueueDifferentialTest, ClearDropsEverythingAndQueueIsReusable) {
  Rng rng(7);
  EventQueue q;
  uint64_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    q.Push(static_cast<SimTime>(rng.NextBelow(1u << 28)), seq++, [] {});
  }
  q.Clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // After Clear the queue must behave like a fresh one.
  int hits = 0;
  q.Push(10, seq++, [&hits] { ++hits; });
  q.Push(10, seq++, [&hits] { ++hits; });
  q.Push(5, seq++, [&hits] { ++hits; });
  SimTime t = 0;
  EventFn a = q.PopNext(&t);
  EXPECT_EQ(t, 5);
  a();
  EventFn b = q.PopNext(&t);
  EXPECT_EQ(t, 10);
  b();
  EventFn c = q.PopNext(&t);
  EXPECT_EQ(t, 10);
  c();
  EXPECT_EQ(hits, 3);
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Engine: randomized differential check with RunUntil / Reset
// ---------------------------------------------------------------------------

// Reference interpreter for the engine contract: events execute in strictly
// increasing (time, seq) order; RunUntil(d) executes everything with
// time <= d (including events spawned during the run); Reset drops all
// state. `seq` mirrors the engine's internal schedule counter, so the model
// must assign it at exactly the same moments the engine does.
struct ModelEvent {
  SimTime time;
  uint64_t seq;
  int id;
  bool spawns;
};
struct ModelLater {
  bool operator()(const ModelEvent& a, const ModelEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Offset below `near`, or, with probability `far_share`, below `far`.
/// With `far_share` 0 it draws exactly what `rng.NextBelow(near)` does.
SimTime DrawOffset(Rng& rng, uint64_t near, double far_share, uint64_t far) {
  if (far_share > 0 && rng.NextBernoulli(far_share)) {
    return static_cast<SimTime>(rng.NextBelow(far));
  }
  return static_cast<SimTime>(rng.NextBelow(near));
}

/// Drives an Engine and the reference interpreter through the same random
/// schedule/RunUntil/Run/Reset script over three seeds and compares the
/// execution order after every round. Schedule deltas are below 200 ns and
/// RunUntil spans below 150 ns, except that a `far_share` of each reaches
/// `far` instead.
void CheckEngineAgainstModel(int rounds, double far_share, uint64_t far) {
  constexpr SimTime kChildDelta = 777 * kPicosecond;
  for (const uint64_t seed : {3ull, 99ull, 555555ull}) {
    Rng rng(seed);
    Engine e;
    std::priority_queue<ModelEvent, std::vector<ModelEvent>, ModelLater> model;
    uint64_t model_seq = 0;
    SimTime model_now = 0;
    std::vector<int> got;
    std::vector<int> want;
    int next_id = 0;

    // Schedules an engine event mirroring a model event. Spawning events
    // schedule one non-spawning child at +kChildDelta when they execute.
    const auto schedule = [&](SimTime t, bool spawns) {
      const int id = next_id++;
      if (spawns) {
        e.ScheduleAt(t, [&e, &got, id] {
          got.push_back(id);
          e.ScheduleAfter(kChildDelta, [&got, id] { got.push_back(~id); });
        });
      } else {
        e.ScheduleAt(t, [&got, id] { got.push_back(id); });
      }
      model.push(ModelEvent{t, model_seq++, id, spawns});
    };
    const auto model_run_until = [&](SimTime deadline) {
      while (!model.empty() && model.top().time <= deadline) {
        const ModelEvent ev = model.top();
        model.pop();
        model_now = ev.time;
        want.push_back(ev.id);
        if (ev.spawns) {
          model.push(
              ModelEvent{ev.time + kChildDelta, model_seq++, ~ev.id, false});
        }
      }
      if (!model.empty()) model_now = deadline;
    };

    for (int round = 0; round < rounds; ++round) {
      const int batch = static_cast<int>(rng.NextBelow(6));
      for (int i = 0; i < batch; ++i) {
        const SimTime t = e.Now() + DrawOffset(rng, 200000, far_share, far);
        schedule(t, rng.NextBernoulli(0.3));
      }
      const uint64_t action = rng.NextBelow(10);
      if (action < 6) {
        const SimTime deadline =
            e.Now() + DrawOffset(rng, 150000, far_share, far);
        const bool drained = e.RunUntil(deadline);
        model_run_until(deadline);
        EXPECT_EQ(drained, model.empty());
        if (!drained) {
          EXPECT_EQ(e.Now(), deadline);
        }
      } else if (action < 8 && !model.empty()) {
        // Full drain: Run() leaves the clock at the last event.
        e.Run();
        model_run_until(std::numeric_limits<SimTime>::max());
        EXPECT_EQ(e.Now(), model_now);
      } else if (action == 8) {
        e.Reset();
        model = {};
        model_seq = 0;
        model_now = 0;
      }
      ASSERT_EQ(got, want) << "diverged at round " << round << " seed "
                           << seed;
    }
    e.Run();
    model_run_until(std::numeric_limits<SimTime>::max());
    EXPECT_EQ(got, want);
  }
}

TEST(EngineDifferentialTest, RunUntilAndResetMatchReferenceModel) {
  CheckEngineAgainstModel(/*rounds=*/60, /*far_share=*/0, /*far=*/0);
}

TEST(EngineDifferentialTest, FarFutureRunUntilMatchesReferenceModel) {
  // A quarter of the deltas and deadlines reach ~137 ms (~8k calendar
  // windows), so events wait in the overflow heap and migrate lap after
  // lap, and a RunUntil that stops short of a far event leaves the cursor
  // parked at it: the next near schedule then takes the sweep-and-re-anchor
  // path (EventQueue::SweepWindowIntoOverflow).
  CheckEngineAgainstModel(/*rounds=*/400, /*far_share=*/0.25,
                          /*far=*/static_cast<uint64_t>(137 * kMillisecond));
}

// ---------------------------------------------------------------------------
// Engine: steady-state allocation contract (DESIGN.md §8)
// ---------------------------------------------------------------------------

// Self-rescheduling timer whose capture fits the InlineFn inline buffer.
struct PeriodicTimer {
  Engine* engine;
  SimTime period;
  uint64_t* fired;
  void operator()() const {
    ++*fired;
    engine->ScheduleAfter(period, PeriodicTimer{*this});
  }
};

TEST(EngineAllocTest, SteadyStateExecutesZeroAllocationsPerEvent) {
  if (!alloc_counter::hook_active()) {
    GTEST_SKIP() << "counting operator new hook not active in this binary";
  }
  constexpr SimTime kWindow =
      static_cast<SimTime>(EventQueue::kNumBuckets) * EventQueue::kBucketWidth;
  Engine e;
  uint64_t fired = 0;
  // Periods are commensurate with the calendar window (powers of two and an
  // exact two-window overflow timer), so after one warm-up lap every later
  // lap replays the same bucket loads — any allocation in the measured
  // region is a real regression, not first-touch growth.
  for (const SimTime period : {SimTime{1024}, SimTime{2048}, SimTime{8192},
                               2 * kWindow}) {
    e.ScheduleAfter(period, PeriodicTimer{&e, period, &fired});
  }
  e.RunUntil(3 * kWindow);  // warm-up: grows bucket/overflow capacity
  const uint64_t allocs0 = alloc_counter::allocations();
  const uint64_t events0 = e.executed_events();
  e.RunUntil(7 * kWindow);  // measured: two full overflow-timer cycles
  const uint64_t events = e.executed_events() - events0;
  const uint64_t allocs = alloc_counter::allocations() - allocs0;
  EXPECT_GT(events, 50000u);
  EXPECT_EQ(allocs, 0u) << "event core allocated in steady state ("
                        << events << " events)";
}

TEST(EngineAllocTest, OverflowHeavySteadyStateExecutesZeroAllocationsPerEvent) {
  if (!alloc_counter::hook_active()) {
    GTEST_SKIP() << "counting operator new hook not active in this binary";
  }
  constexpr SimTime kWindow =
      static_cast<SimTime>(EventQueue::kNumBuckets) * EventQueue::kBucketWidth;
  constexpr int kTimers = 64;
  Engine e;
  uint64_t fired = 0;
  // Every period is a whole number of windows (2 to 9), so each reschedule
  // lands past the window, waits in the overflow heap and migrates back
  // into the same bucket slot; phases 8 buckets apart give every timer its
  // own slot, so no bucket grows after warm-up.
  for (int i = 0; i < kTimers; ++i) {
    const SimTime period = (2 + i % 8) * kWindow;
    e.ScheduleAt(8 * i * EventQueue::kBucketWidth,
                 PeriodicTimer{&e, period, &fired});
  }
  e.RunUntil(20 * kWindow);  // warm-up: grows the heap to kTimers entries
  const uint64_t allocs0 = alloc_counter::allocations();
  const uint64_t events0 = e.executed_events();
  e.RunUntil(2020 * kWindow);
  const uint64_t events = e.executed_events() - events0;
  const uint64_t allocs = alloc_counter::allocations() - allocs0;
  EXPECT_GT(events, 20000u);
  EXPECT_EQ(allocs, 0u) << "overflow path allocated in steady state ("
                        << events << " events)";
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

TEST(ServerTest, SingleItemServiceTime) {
  Engine e;
  Server s(&e, "link", /*rate=*/1e9);  // 1 GB/s → 1 ns per byte
  SimTime done = -1;
  s.Submit(0, 1000, [&](SimTime t) { done = t; });
  e.Run();
  EXPECT_EQ(done, 1000 * kNanosecond);
  EXPECT_EQ(s.total_bytes_served(), 1000u);
  EXPECT_EQ(s.items_served(), 1u);
}

TEST(ServerTest, FixedOverheadCharged) {
  Engine e;
  Server s(&e, "link", 1e9, /*fixed_overhead=*/5 * kNanosecond);
  SimTime done = -1;
  s.Submit(0, 10, [&](SimTime t) { done = t; });
  e.Run();
  EXPECT_EQ(done, 15 * kNanosecond);
}

TEST(ServerTest, ExtraOverheadPerItem) {
  Engine e;
  Server s(&e, "link", 1e9);
  SimTime done = -1;
  s.Submit(0, 10, /*extra_overhead=*/90 * kNanosecond,
           [&](SimTime t) { done = t; });
  e.Run();
  EXPECT_EQ(done, 100 * kNanosecond);
}

TEST(ServerTest, SameFlowIsFifo) {
  Engine e;
  Server s(&e, "link", 1e9);
  std::vector<int> order;
  s.Submit(0, 100, [&](SimTime) { order.push_back(1); });
  s.Submit(0, 100, [&](SimTime) { order.push_back(2); });
  s.Submit(0, 100, [&](SimTime) { order.push_back(3); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), 300 * kNanosecond);
}

TEST(ServerTest, RoundRobinBetweenFlows) {
  Engine e;
  Server s(&e, "link", 1e9);
  std::vector<int> order;
  // A dummy item occupies the server while both flows queue two items each;
  // once it completes, service alternates between the flows.
  s.Submit(99, 100, [&](SimTime) { order.push_back(99); });
  s.Submit(0, 100, [&](SimTime) { order.push_back(0); });
  s.Submit(0, 100, [&](SimTime) { order.push_back(0); });
  s.Submit(1, 100, [&](SimTime) { order.push_back(1); });
  s.Submit(1, 100, [&](SimTime) { order.push_back(1); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{99, 0, 1, 0, 1}));
}

TEST(ServerTest, FairSharingSplitsBandwidth) {
  Engine e;
  Server s(&e, "link", 1e9);
  // Two flows submit 10 items of 100 B each; both finish at ~ the same time
  // and the total equals serialized service of 2000 B.
  SimTime done0 = 0, done1 = 0;
  for (int i = 0; i < 10; ++i) {
    s.Submit(0, 100, [&](SimTime t) { done0 = t; });
    s.Submit(1, 100, [&](SimTime t) { done1 = t; });
  }
  e.Run();
  EXPECT_EQ(e.Now(), 2000 * kNanosecond);
  // Interleaved: the two last completions are within one item of each other.
  EXPECT_NEAR(static_cast<double>(done0), static_cast<double>(done1),
              static_cast<double>(100 * kNanosecond));
}

TEST(ServerTest, LateFlowJoinsRotation) {
  Engine e;
  Server s(&e, "link", 1e9);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    s.Submit(0, 100, [&](SimTime) { order.push_back(0); });
  }
  // Flow 1 arrives while flow 0 is in service; it should not wait for all
  // of flow 0's queue.
  e.ScheduleAt(50 * kNanosecond, [&] {
    s.Submit(1, 100, [&](SimTime) { order.push_back(1); });
  });
  e.Run();
  ASSERT_EQ(order.size(), 5u);
  // Flow 1's single item is interleaved into flow 0's queue rather than
  // waiting for all of it: it completes third at the latest.
  EXPECT_EQ(order[2], 1);
}

TEST(ServerTest, UtilizationAndBusyTime) {
  Engine e;
  Server s(&e, "link", 1e9);
  s.Submit(0, 1000, nullptr);
  e.Run();
  EXPECT_EQ(s.busy_time(), 1000 * kNanosecond);
  EXPECT_DOUBLE_EQ(s.Utilization(), 1.0);
}

TEST(ServerTest, NullCallbackAllowed) {
  Engine e;
  Server s(&e, "link", 1e9);
  s.Submit(0, 10, nullptr);
  e.Run();
  EXPECT_EQ(s.items_served(), 1u);
}

TEST(ServerTest, QueueDepthTracksPending) {
  Engine e;
  Server s(&e, "link", 1e9);
  s.Submit(0, 100, nullptr);
  s.Submit(0, 100, nullptr);
  EXPECT_EQ(s.QueueDepth(), 2u);
  e.Run();
  EXPECT_EQ(s.QueueDepth(), 0u);
}

// Submitting from within a completion callback must work (tandem queues).
TEST(ServerTest, ResubmitFromCallback) {
  Engine e;
  Server a(&e, "stage_a", 1e9);
  Server b(&e, "stage_b", 0.5e9);
  SimTime done = 0;
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    a.Submit(0, 100, [&](SimTime) {
      b.Submit(0, 100, [&](SimTime t) {
        done = t;
        ++completed;
      });
    });
  }
  e.Run();
  EXPECT_EQ(completed, 4);
  // Stage B is the bottleneck: 4 × 200 ns, plus stage A's first 100 ns.
  EXPECT_EQ(done, 900 * kNanosecond);
}

// ---------------------------------------------------------------------------
// SampleStats
// ---------------------------------------------------------------------------

TEST(StatsTest, EmptyIsZero) {
  SampleStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Median(), 0.0);
  EXPECT_EQ(s.Percentile(99), 0.0);
}

TEST(StatsTest, MeanMedianMinMax) {
  SampleStats s;
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
}

TEST(StatsTest, PercentileNearestRank) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
}

TEST(StatsTest, StdDev) {
  SampleStats s;
  s.Add(2.0);
  s.Add(4.0);
  EXPECT_DOUBLE_EQ(s.StdDev(), 1.0);
}

TEST(StatsTest, MedianUnaffectedByInsertionOrder) {
  SampleStats a, b;
  for (double v : {9.0, 1.0, 5.0}) a.Add(v);
  for (double v : {1.0, 5.0, 9.0}) b.Add(v);
  EXPECT_DOUBLE_EQ(a.Median(), b.Median());
}

}  // namespace
}  // namespace farview::sim
