#include "fv/replication.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace farview {

CircuitBreaker::CircuitBreaker(sim::Engine* engine,
                               const CircuitBreakerPolicy& policy,
                               uint64_t seed, NodeStats* stats)
    : engine_(engine), policy_(policy), rng_(seed), stats_(stats) {
  FV_CHECK(engine_ != nullptr);
  FV_CHECK(stats_ != nullptr);
  FV_CHECK(policy_.failure_threshold > 0);
  FV_CHECK(policy_.probe_successes > 0);
}

bool CircuitBreaker::AllowRequest(bool* is_probe) {
  if (is_probe != nullptr) *is_probe = false;
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (engine_->Now() < reopen_at_) return false;
      // Lazy reopen: the cool-down elapsed, so this request becomes the
      // first Half-Open probe. No event was ever scheduled for this.
      state_ = State::kHalfOpen;
      stats_->RecordCircuitHalfOpen();
      probes_allowed_ = policy_.probe_successes;
      probe_successes_ = 0;
      [[fallthrough]];
    case State::kHalfOpen:
      if (probes_allowed_ <= 0) return false;
      --probes_allowed_;
      if (is_probe != nullptr) *is_probe = true;
      return true;
  }
  return true;  // unreachable; silences -Wreturn-type
}

bool CircuitBreaker::BlocksAttempts() const {
  return state_ == State::kOpen && engine_->Now() < reopen_at_;
}

void CircuitBreaker::RecordSuccess(bool probe) {
  if (state_ == State::kHalfOpen) {
    // Only admitted probes advance the episode: a stale completion routed
    // before the trip and landing now would otherwise be double-counted as
    // a probe outcome and close (or keep re-settling) the breaker on
    // evidence that predates the failure it tripped on.
    if (!probe) return;
    if (++probe_successes_ >= policy_.probe_successes) {
      state_ = State::kClosed;
      stats_->RecordCircuitClose();
      consecutive_failures_ = 0;
    }
    return;
  }
  // A probe outcome arriving after its episode settled (another probe
  // already closed or re-tripped the breaker) carries no information.
  if (probe) return;
  consecutive_failures_ = 0;
}

void CircuitBreaker::RecordFailure(bool probe) {
  if (state_ == State::kHalfOpen) {
    // Same staleness rule as RecordSuccess: only a failed *probe* proves
    // the replica is still sick and re-trips to Open.
    if (!probe) return;
    TripOpen();
    return;
  }
  if (probe) return;  // episode already settled elsewhere
  if (state_ == State::kOpen) return;
  if (++consecutive_failures_ >= policy_.failure_threshold) TripOpen();
}

void CircuitBreaker::ForceOpen() {
  if (state_ == State::kOpen) return;
  TripOpen();
}

void CircuitBreaker::TripOpen() {
  state_ = State::kOpen;
  stats_->RecordCircuitOpen();
  consecutive_failures_ = 0;
  SimTime jitter = 0;
  if (policy_.open_jitter > 0) {
    jitter = static_cast<SimTime>(
        rng_.NextBelow(static_cast<uint64_t>(policy_.open_jitter)));
  }
  reopen_at_ = engine_->Now() + policy_.open_duration + jitter;
}

ResyncScheduler::ResyncScheduler(sim::Engine* engine,
                                 const ReplicationConfig& config)
    : engine_(engine), config_(config) {
  FV_CHECK(engine_ != nullptr);
  FV_CHECK(config_.resync_rate_bytes_per_sec > 0);
  FV_CHECK(config_.resync_chunk_bytes > 0);
}

void ResyncScheduler::Start(FarviewNode* source, FarviewNode* target,
                            std::vector<Range> ranges,
                            std::function<void(Status)> done) {
  FV_CHECK(!active_) << "resync stream already running";
  FV_CHECK(source != nullptr && target != nullptr && source != target);
  source_ = source;
  target_ = target;
  ranges_ = std::move(ranges);
  done_ = std::move(done);
  range_index_ = 0;
  range_offset_ = 0;
  active_ = true;
  ScheduleNextChunk();
}

void ResyncScheduler::Abort() {
  if (!active_) return;
  ++token_;  // the pending chunk event checks this and becomes a no-op
  active_ = false;
  done_ = nullptr;
}

void ResyncScheduler::ScheduleNextChunk() {
  // Skip ranges the source no longer maps (freed while the target was
  // down): the matching free was already replayed on the target, so there
  // is nothing to copy.
  while (range_index_ < ranges_.size()) {
    const Range& r = ranges_[range_index_];
    if (range_offset_ < r.bytes &&
        source_->mmu().Translate(r.client_id, r.vaddr).ok()) {
      break;
    }
    ++range_index_;
    range_offset_ = 0;
  }
  if (range_index_ >= ranges_.size()) {
    active_ = false;
    auto done = std::move(done_);
    done_ = nullptr;
    done(Status::OK());
    return;
  }
  const Range& r = ranges_[range_index_];
  const uint64_t chunk =
      std::min(config_.resync_chunk_bytes, r.bytes - range_offset_);
  const uint64_t token = token_;
  engine_->ScheduleAfter(
      TransferTime(chunk, config_.resync_rate_bytes_per_sec),
      [this, token]() {
        if (token != token_) return;  // aborted while the chunk was in flight
        CompleteChunk();
      });
}

void ResyncScheduler::CompleteChunk() {
  const Range& r = ranges_[range_index_];
  const uint64_t chunk =
      std::min(config_.resync_chunk_bytes, r.bytes - range_offset_);
  chunk_buf_.clear();
  Status s = source_->mmu().ReadInto(r.client_id, r.vaddr + range_offset_,
                                     chunk, &chunk_buf_);
  if (s.ok()) {
    s = target_->mmu().Write(r.client_id, r.vaddr + range_offset_, chunk,
                             chunk_buf_.data());
  }
  if (!s.ok()) {
    // The survivor maps the range but the copy failed: the replicas'
    // address spaces diverged, which the replay protocol rules out
    // (DESIGN.md §12). Surface it instead of rejoining a corrupt replica.
    active_ = false;
    auto done = std::move(done_);
    done_ = nullptr;
    done(std::move(s));
    return;
  }
  target_->stats().RecordResyncBytes(chunk);
  range_offset_ += chunk;
  if (range_offset_ >= r.bytes) {
    ++range_index_;
    range_offset_ = 0;
  }
  ScheduleNextChunk();
}

}  // namespace farview
