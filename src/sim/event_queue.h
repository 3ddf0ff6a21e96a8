#ifndef FARVIEW_SIM_EVENT_QUEUE_H_
#define FARVIEW_SIM_EVENT_QUEUE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/inline_fn.h"
#include "common/units.h"

namespace farview::sim {

/// Callback type of a scheduled event. 64 B of inline capture storage means
/// scheduling never allocates for the per-packet/per-burst callbacks that
/// dominate the experiments (see common/inline_fn.h).
using EventFn = InlineFn<void()>;

/// Two-level calendar queue over (time, seq) ordered events.
///
/// Level 1 is a ring of `kNumBuckets` buckets, each covering
/// `kBucketWidth` ps of simulated time; together they form a sliding window
/// of ~16.8 µs starting at the cursor (the bucket of the most recently
/// popped event). Nearly every event the Farview stacks schedule lands
/// within the window — packet serialization (~82 ns), delivery (1 µs), acks
/// (1.5 µs), DRAM bursts (tens of ns) — so Push is an O(1) bucket append
/// and Pop consumes buckets in time order, sorting each small bucket once on
/// first touch. Level 2 is an overflow (time, seq) min-heap for far-future
/// events (retransmit timeouts, link flaps, idle-client timers). When the
/// cursor catches up with the heap's front, the events due inside the
/// window pop off the heap into their buckets and the rest stay put, so a
/// far-future event costs O(log N) however many window laps it waits.
///
/// Bucket occupancy is mirrored in a two-level bitmap (64 words + one
/// summary word), so finding the next non-empty bucket is a couple of
/// count-trailing-zeros instructions instead of a slot-by-slot walk. This
/// matters for timer-dominated workloads (ext_faults) where consecutive
/// events can be hundreds of empty slots apart.
///
/// Ordering contract (identical to the binary heap it replaces, pinned by
/// sim_test.cc and the randomized differential test): events pop in
/// strictly increasing (time, seq) order, where `seq` is the caller's
/// monotonically increasing schedule counter — FIFO for same-instant
/// events. The structure is fully deterministic: behavior depends only on
/// the (time, seq) sequence pushed, never on addresses or capacity.
///
/// Steady-state operation is allocation-free: buckets and the overflow heap
/// keep their capacity across laps (tests/sim_test.cc EngineAllocTest pins
/// zero allocations per event after warm-up, with and without overflow
/// traffic).
class EventQueue {
 public:
  /// Bucket width in picoseconds (power of two, so the slot of a timestamp
  /// is a shift). 4.096 ns resolves same-packet event clusters into one
  /// bucket without spreading a burst train over too many buckets.
  static constexpr SimTime kBucketWidth = 4096 * kPicosecond;

  /// Number of level-1 buckets (power of two). 4096 × 4.096 ns ≈ 16.8 µs of
  /// window, comfortably past the longest common event horizon (ack RTT +
  /// slack) while the table stays ~KBs when idle.
  static constexpr std::size_t kNumBuckets = 4096;

  /// Initial per-bucket event capacity, reserved at construction. Covers
  /// the common bucket depth, so steady-state Push never allocates — lazily
  /// grown vectors would re-pay the 1→2→4→8 growth reallocations in every
  /// fresh engine (tests/sim_test.cc pins zero allocations per event).
  static constexpr std::size_t kBucketReserve = 2;

  EventQueue() : buckets_(kNumBuckets) {
    for (Bucket& b : buckets_) b.events.reserve(kBucketReserve);
  }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an event. `seq` values must be unique and increasing across
  /// pushes; `t` must be >= the time of the last popped event (the engine
  /// enforces both). Takes the callback by rvalue reference so it relocates
  /// exactly once, from the caller's frame into its bucket slot.
  void Push(SimTime t, uint64_t seq, EventFn&& fn);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Timestamp of the earliest pending event without popping it. The queue
  /// must not be empty. Amortized O(1); does not commit cursor movement, so
  /// interleaving PeekTime with Push of earlier (but >= last-pop) times is
  /// legal.
  SimTime PeekTime();

  /// Pops the earliest (time, seq) event; stores its time in `*t`. The
  /// queue must not be empty.
  EventFn PopNext(SimTime* t);

  /// Drops all pending events. Keeps allocated capacity.
  void Clear();

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    EventFn fn;
  };

  struct Bucket {
    std::vector<Event> events;
    /// Consumption cursor into `events` once sorted.
    std::size_t head = 0;
    /// True once the bucket was sorted by (time, seq); later inserts then
    /// maintain sortedness.
    bool sorted = false;
  };

  static std::size_t SlotOf(SimTime t) {
    return static_cast<std::size_t>(
        (static_cast<uint64_t>(t) / static_cast<uint64_t>(kBucketWidth)) &
        (kNumBuckets - 1));
  }
  static SimTime SlotStart(SimTime t) {
    return t - (t % kBucketWidth);
  }
  SimTime WindowEnd() const {
    return win_start_ + static_cast<SimTime>(kNumBuckets) * kBucketWidth;
  }

  /// Inserts into the level-1 bucket of `t` (which must lie inside the
  /// current window), preserving (time, seq) order if the bucket was
  /// already sorted.
  void PushToBucket(SimTime t, uint64_t seq, EventFn&& fn);

  /// Pushes onto the overflow heap.
  void PushToOverflow(SimTime t, uint64_t seq, EventFn&& fn);

  /// Pops the overflow events due inside the current window off the heap
  /// into their buckets, earliest first; later events stay on the heap.
  void MigrateOverflowIntoWindow();

  /// Re-anchors the (empty) window so that it starts at `t`'s bucket.
  /// Requires window_count_ == 0.
  void AnchorWindowAt(SimTime t);

  /// Sweeps all window events back into the overflow so the window can be
  /// re-anchored earlier. Rare: only hit when a deadline-bounded run parked
  /// the cursor ahead of a later Push (see Push).
  void SweepWindowIntoOverflow();

  /// Advances (`commit == true`) or scans (`commit == false`) the cursor to
  /// the bucket holding the earliest event and returns it, handling
  /// overflow migration. Requires size_ > 0. Returns the bucket index.
  std::size_t SeekFront(bool commit);

  // Occupancy bitmap over buckets: bit i of occ_[i/64] is set iff bucket i
  // holds unconsumed events; bit w of occ_summary_ is set iff occ_[w] != 0.
  static constexpr std::size_t kOccWords = kNumBuckets / 64;

  void SetOcc(std::size_t i) {
    occ_[i >> 6] |= 1ull << (i & 63);
    occ_summary_ |= 1ull << (i >> 6);
  }
  void ClearOcc(std::size_t i) {
    occ_[i >> 6] &= ~(1ull << (i & 63));
    if (occ_[i >> 6] == 0) occ_summary_ &= ~(1ull << (i >> 6));
  }
  /// Index of the first occupied bucket at ring distance >= 0 from `from`
  /// (i.e. `from` itself counts). Requires window_count_ > 0.
  std::size_t NextOccupied(std::size_t from) const {
    const std::size_t w0 = from >> 6;
    const uint64_t head = occ_[w0] & (~0ull << (from & 63));
    if (head != 0) return (w0 << 6) + static_cast<std::size_t>(
                              std::countr_zero(head));
    uint64_t sum =
        w0 + 1 >= kOccWords ? 0 : occ_summary_ & (~0ull << (w0 + 1));
    if (sum == 0) sum = occ_summary_;  // wrap: lowest word is next in ring
    const std::size_t w = static_cast<std::size_t>(std::countr_zero(sum));
    return (w << 6) +
           static_cast<std::size_t>(std::countr_zero(occ_[w]));
  }

  std::vector<Bucket> buckets_;
  std::array<uint64_t, kOccWords> occ_ = {};
  uint64_t occ_summary_ = 0;
  /// Far-future events, a (time, seq) min-heap: `front()` is the earliest.
  std::vector<Event> overflow_;

  /// Start time of the cursor bucket. All bucketed events lie in
  /// [win_start_, WindowEnd()).
  SimTime win_start_ = 0;
  /// Index of the cursor bucket, == SlotOf(win_start_).
  std::size_t cur_bucket_ = 0;
  /// Events currently in level-1 buckets / in total.
  std::size_t window_count_ = 0;
  std::size_t size_ = 0;
};

}  // namespace farview::sim

#endif  // FARVIEW_SIM_EVENT_QUEUE_H_
