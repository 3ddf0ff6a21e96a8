#ifndef FARVIEW_FV_REPLICATION_H_
#define FARVIEW_FV_REPLICATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "fv/farview_node.h"
#include "sim/engine.h"

namespace farview {

/// The one failure classification behind "retry?", "penalize the
/// replica?" and "fail over?" (DESIGN.md §7, §12): `Unavailable` and
/// `DeadlineExceeded` mean the replica may be dead (retried, recorded on
/// its breaker, failed over); any other error is the request's own
/// (reported as is, never retried, never penalizes a replica).
inline bool IsHealthFailure(const Status& s) {
  return s.IsUnavailable() || s.IsDeadlineExceeded();
}

/// Parameters of the per-replica circuit breaker (DESIGN.md §12). The
/// breaker is the client-side health tracker of one replica: it sits on top
/// of the pool client's `RetryPolicy` (DESIGN.md §7) and decides whether
/// routing a request at that replica is worth attempting at all. It sees only
/// health failures and request errors: admission never sheds a replica's
/// dedicated connection (DESIGN.md §15).
struct CircuitBreakerPolicy {
  /// Consecutive routed failures that trip a Closed breaker to Open.
  int failure_threshold = 3;

  /// Minimum time a tripped breaker stays Open before probing.
  SimTime open_duration = 200 * kMicrosecond;

  /// Per-trip jitter added to `open_duration`, drawn uniformly from
  /// [0, open_jitter) off the breaker's seeded stream — replicas tripped by
  /// the same event reopen at distinct instants instead of probing in
  /// lockstep. 0 disables the draw entirely.
  SimTime open_jitter = 50 * kMicrosecond;

  /// Half-Open probe budget: at most this many routed requests are let
  /// through as probes, and this many successes close the breaker. One
  /// probe failure re-trips to Open.
  int probe_successes = 2;
};

/// Deterministic per-replica circuit breaker: Closed -> (failure_threshold
/// consecutive failures, or a crash observation) -> Open -> (open_duration
/// + seeded jitter elapses) -> Half-Open -> (probe_successes successes) ->
/// Closed, or one probe failure -> Open again.
///
/// The breaker never schedules events: the Open -> Half-Open transition
/// happens lazily inside `AllowRequest` when the reopen instant has passed.
/// A breaker that is never tripped therefore adds zero events and zero Rng
/// draws, preserving byte-identity for fault-free clusters (DESIGN.md §12).
/// State transitions are recorded on the tracked replica's `NodeStats`.
class CircuitBreaker {
 public:
  /// Health states, in the classic circuit-breaker sense.
  enum class State { kClosed, kOpen, kHalfOpen };

  /// `stats` is the tracked replica's registry (must outlive the breaker);
  /// `seed` names this breaker's jitter stream — routers derive it from the
  /// cluster seed and the replica index so breakers never share a stream.
  CircuitBreaker(sim::Engine* engine, const CircuitBreakerPolicy& policy,
                 uint64_t seed, NodeStats* stats);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Router-side admission check: true when a request may be routed at the
  /// replica. Performs the lazy Open -> Half-Open transition and consumes
  /// one probe slot while Half-Open. When `is_probe` is non-null it is set
  /// to whether this admission consumed a probe slot — the router must
  /// report the outcome with the matching `probe` flag so a stale
  /// completion (routed while Closed, arriving while Half-Open) cannot
  /// settle or double-count the probe episode.
  bool AllowRequest(bool* is_probe = nullptr);

  /// Attempt-side check of the pool client's attempt loop: true while the
  /// breaker is Open and the reopen instant has not passed. Unlike
  /// `AllowRequest` this consumes nothing — a routed call asks it before
  /// each retry on the replica and, when it blocks, ends the hop at once
  /// instead of burning its remaining attempts (DESIGN.md §7, §12).
  bool BlocksAttempts() const;

  /// Outcome of a routed request. `probe` must echo the `is_probe` flag the
  /// admitting `AllowRequest` reported: while Half-Open only probe outcomes
  /// move the breaker (non-probe outcomes are stale pre-trip completions
  /// and are ignored), and a probe that ends in a non-retryable error must
  /// still be settled as a probe success (the replica answered; the error
  /// is the request's fault) or its slot would leak and wedge the breaker
  /// Half-Open forever.
  void RecordSuccess(bool probe = false);
  void RecordFailure(bool probe = false);

  /// Trips the breaker immediately — the router observed the replica crash,
  /// so waiting for `failure_threshold` timeouts is pointless.
  void ForceOpen();

  State state() const { return state_; }

 private:
  /// Common trip path (threshold, probe failure, ForceOpen).
  void TripOpen();

  sim::Engine* engine_;
  CircuitBreakerPolicy policy_;
  Rng rng_;
  NodeStats* stats_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int probes_allowed_ = 0;   ///< Half-Open probe slots still unclaimed
  int probe_successes_ = 0;  ///< successes observed this Half-Open episode
  SimTime reopen_at_ = 0;    ///< instant an Open breaker may go Half-Open
};

/// Parameters of the crash-recovery resync stream (DESIGN.md §12).
struct ReplicationConfig {
  /// Rate of the background resync stream. Deliberately below the 100 Gbps
  /// fabric rate: recovery shares the wire with foreground traffic, so the
  /// cluster throttles it the way production systems throttle rebuilds.
  double resync_rate_bytes_per_sec = GbpsToBytesPerSec(20.0);

  /// Chunk granularity of the stream; one copy event per chunk.
  uint64_t resync_chunk_bytes = 64 * kKiB;
};

/// Rate-limited background copy of missed byte ranges from a surviving
/// replica into a restarted one — the data half of crash recovery. The
/// stream is chunked: every `resync_chunk_bytes` takes its serialization
/// time at `resync_rate_bytes_per_sec` of simulated time, then the chunk's
/// bytes are copied functionally (source MMU read -> target MMU write), so
/// the recovering node converges to the survivor's current contents.
///
/// One scheduler runs at most one stream; `Start` while active is illegal.
/// `Abort` invalidates the pending chunk event (token check), for when the
/// recovering node crashes again mid-resync.
class ResyncScheduler {
 public:
  /// One missed range: `client_id` is the allocation owner recorded in the
  /// replication log (MMU access is owner-checked).
  struct Range {
    int client_id = 0;
    uint64_t vaddr = 0;
    uint64_t bytes = 0;
  };

  ResyncScheduler(sim::Engine* engine, const ReplicationConfig& config);

  ResyncScheduler(const ResyncScheduler&) = delete;
  ResyncScheduler& operator=(const ResyncScheduler&) = delete;

  /// Streams `ranges` from `source` into `target`. Ranges no longer mapped
  /// on the source (freed while the target was down) are skipped. Bytes
  /// copied are recorded on the target's `NodeStats`; `done` fires once,
  /// at the simulated instant the last chunk lands (immediately for empty
  /// input). Fails a chunk's copy only on replica divergence, which is a
  /// simulation bug — the stream then stops and reports it.
  void Start(FarviewNode* source, FarviewNode* target,
             std::vector<Range> ranges, std::function<void(Status)> done);

  /// Cancels the active stream (no-op when idle). `done` is not invoked.
  void Abort();

 private:
  /// Schedules the serialization delay of the next chunk, or finishes.
  void ScheduleNextChunk();
  /// Copies the chunk that just finished its wire time, then advances.
  void CompleteChunk();

  sim::Engine* engine_;
  ReplicationConfig config_;
  FarviewNode* source_ = nullptr;
  FarviewNode* target_ = nullptr;
  std::vector<Range> ranges_;
  std::function<void(Status)> done_;
  size_t range_index_ = 0;
  uint64_t range_offset_ = 0;
  uint64_t token_ = 0;  ///< bumped by Abort; stale chunk events are dropped
  bool active_ = false;
  /// Staging buffer for the chunk copy, reused across chunks and streams so
  /// steady-state resync allocates nothing. fvcheck:owner=pool
  ByteBuffer chunk_buf_;
};

}  // namespace farview

#endif  // FARVIEW_FV_REPLICATION_H_
