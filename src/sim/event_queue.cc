#include "sim/event_queue.h"

#include <algorithm>

namespace farview::sim {

namespace {

/// Strict (time, seq) order — the engine's execution order.
inline bool Earlier(SimTime at, uint64_t aseq, SimTime bt, uint64_t bseq) {
  if (at != bt) return at < bt;
  return aseq < bseq;
}

/// Heap order of the overflow: the std heap algorithms keep the greatest
/// element at the front, so ordering by "later" puts the earliest there.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return Earlier(b.time, b.seq, a.time, a.seq);
};

}  // namespace

void EventQueue::Push(SimTime t, uint64_t seq, EventFn&& fn) {
  ++size_;
  if (window_count_ == 0 && overflow_.empty()) {
    // Empty queue: anchor the window wherever the event lands.
    AnchorWindowAt(t);
    PushToBucket(t, seq, std::move(fn));
    return;
  }
  if (t < win_start_) {
    // The cursor was parked ahead of this timestamp — possible only after a
    // deadline-bounded run peeked at a far-future event (re-anchoring the
    // window there) and the caller then scheduled into the gap. Rare by
    // construction, so the O(window) sweep is fine.
    SweepWindowIntoOverflow();
    AnchorWindowAt(t);
    PushToBucket(t, seq, std::move(fn));
    return;
  }
  if (t < WindowEnd()) {
    PushToBucket(t, seq, std::move(fn));
  } else {
    PushToOverflow(t, seq, std::move(fn));
  }
}

void EventQueue::PushToBucket(SimTime t, uint64_t seq, EventFn&& fn) {
  const std::size_t slot = SlotOf(t);
  Bucket& b = buckets_[slot];
  // Exhausted buckets are reset the moment their last event pops (PopNext),
  // so a bucket with any entries always has unconsumed ones and its
  // occupancy bit is already set.
  if (b.events.empty()) SetOcc(slot);
  if (b.sorted) {
    // Keep the consumed prefix [0, head) untouched; every live entry and
    // the new event are >= the last popped (time, seq), so the insertion
    // point is always at or after `head`.
    auto it = std::upper_bound(
        b.events.begin() + static_cast<std::ptrdiff_t>(b.head), b.events.end(),
        t, [seq](SimTime et, const Event& e) {
          return Earlier(et, seq, e.time, e.seq);
        });
    b.events.insert(it, Event{t, seq, std::move(fn)});
  } else {
    // Construct the event in place: the 88-byte Event is never moved
    // through intermediate frames on the append fast path.
    // fvcheck:allow=hot-path-alloc bucket recycles capacity
    b.events.emplace_back(t, seq, std::move(fn));
  }
  ++window_count_;
}

void EventQueue::PushToOverflow(SimTime t, uint64_t seq, EventFn&& fn) {
  // fvcheck:allow=hot-path-alloc overflow recycles capacity
  overflow_.emplace_back(t, seq, std::move(fn));
  std::push_heap(overflow_.begin(), overflow_.end(), kLater);
}

void EventQueue::MigrateOverflowIntoWindow() {
  const SimTime end = WindowEnd();
  while (!overflow_.empty() && overflow_.front().time < end) {
    std::pop_heap(overflow_.begin(), overflow_.end(), kLater);
    Event& ev = overflow_.back();
    PushToBucket(ev.time, ev.seq, std::move(ev.fn));
    overflow_.pop_back();
  }
}

void EventQueue::AnchorWindowAt(SimTime t) {
  win_start_ = SlotStart(t);
  cur_bucket_ = SlotOf(t);
}

void EventQueue::SweepWindowIntoOverflow() {
  if (window_count_ == 0) return;
  for (Bucket& b : buckets_) {
    for (std::size_t i = b.head; i < b.events.size(); ++i) {
      Event& ev = b.events[i];
      PushToOverflow(ev.time, ev.seq, std::move(ev.fn));
    }
    b.events.clear();
    b.head = 0;
    b.sorted = false;
  }
  occ_.fill(0);
  occ_summary_ = 0;
  window_count_ = 0;
}

std::size_t EventQueue::SeekFront(bool commit) {
  if (window_count_ == 0) {
    // Everything pending lives in the overflow: jump the window forward
    // to the earliest overflow event and pull the next batch in. (No bucket
    // residue to clean — PopNext resets a bucket as its last event pops.)
    AnchorWindowAt(overflow_.front().time);
    MigrateOverflowIntoWindow();
  }
  // Invariant: the cursor never passes the overflow's earliest event —
  // before jumping to a candidate bucket, any overflow event that sorts at
  // or before it is migrated in first. (Letting the cursor sail past and
  // migrating later would alias SlotOf() into a lapped bucket and pop the
  // event a whole window late.) Once the candidate survives the check,
  // every remaining overflow event lies in a strictly later slot, so the
  // candidate's front is globally earliest.
  for (;;) {
    const std::size_t idx = NextOccupied(cur_bucket_);
    const std::size_t dist = (idx - cur_bucket_) & (kNumBuckets - 1);
    const SimTime slot_start =
        win_start_ + static_cast<SimTime>(dist) * kBucketWidth;
    if (!overflow_.empty() &&
        overflow_.front().time < slot_start + kBucketWidth) {
      MigrateOverflowIntoWindow();
      continue;
    }
    if (commit && dist != 0) {
      // Skipped buckets are empty by the occupancy invariant, so advancing
      // the window is just re-anchoring it at the candidate slot.
      win_start_ = slot_start;
      cur_bucket_ = idx;
    }
    Bucket& b = buckets_[idx];
    if (!b.sorted) {
      // Most buckets hold one event and nearly all the rest hold two (one
      // event per ~4 ns slot is the common density), so the small-size
      // paths skip the general sort machinery on almost every pop.
      if (b.events.size() == 2) {
        if (Earlier(b.events[1].time, b.events[1].seq, b.events[0].time,
                    b.events[0].seq)) {
          std::swap(b.events[0], b.events[1]);
        }
      } else if (b.events.size() > 2) {
        std::sort(b.events.begin(), b.events.end(),
                  [](const Event& a, const Event& e) {
                    return Earlier(a.time, a.seq, e.time, e.seq);
                  });
      }
      b.sorted = true;
    }
    return idx;
  }
}

SimTime EventQueue::PeekTime() {
  const std::size_t idx = SeekFront(/*commit=*/false);
  const Bucket& b = buckets_[idx];
  return b.events[b.head].time;
}

EventFn EventQueue::PopNext(SimTime* t) {
  const std::size_t idx = SeekFront(/*commit=*/true);
  Bucket& b = buckets_[idx];
  Event& ev = b.events[b.head];
  ++b.head;
  --window_count_;
  --size_;
  *t = ev.time;
  EventFn fn = std::move(ev.fn);
  if (b.head == b.events.size()) {
    // Last unconsumed event: reset the bucket now so the slot is clean when
    // the window laps and the occupancy bitmap stays truthful.
    b.events.clear();
    b.head = 0;
    b.sorted = false;
    ClearOcc(idx);
  }
  return fn;
}

void EventQueue::Clear() {
  for (Bucket& b : buckets_) {
    b.events.clear();
    b.head = 0;
    b.sorted = false;
  }
  occ_.fill(0);
  occ_summary_ = 0;
  overflow_.clear();
  window_count_ = 0;
  size_ = 0;
  win_start_ = 0;
  cur_bucket_ = 0;
}

}  // namespace farview::sim
