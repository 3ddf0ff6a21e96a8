#include "net/network_stack.h"

#include <algorithm>

#include "common/logging.h"
#include "net/qpair.h"

namespace farview {

const char* VerbToString(Verb v) {
  switch (v) {
    case Verb::kRead:
      return "READ";
    case Verb::kWrite:
      return "WRITE";
    case Verb::kFarview:
      return "FARVIEW";
  }
  return "?";
}

NetworkStack::NetworkStack(sim::Engine* engine, const NetConfig& config)
    : engine_(engine), config_(config) {
  FV_CHECK(engine_ != nullptr);
  FV_CHECK(config_.packet_bytes > 0);
  FV_CHECK(config_.credit_window_packets > 0);
  // Burst-coalescing budget for the link (sim/server.h): every follow-up a
  // link completion schedules sits at least this far past its logical exit
  // time, which is exactly the safety condition for serving back-to-back
  // same-flow packets as one engine event.
  SimTime budget = std::min(config_.fv_delivery_latency, config_.ack_latency);
  if (config_.faults.enabled) {
    budget = std::min(budget, config_.faults.retransmit_timeout);
  }
  link_ = std::make_unique<sim::Server>(engine_, "fv_link",
                                        config_.link_rate_bytes_per_sec,
                                        config_.fv_per_packet_overhead, budget);
  if (config_.faults.enabled) {
    fault_plan_ = std::make_unique<FaultPlan>(config_.faults);
  }
}

NetworkStack::~NetworkStack() {
  // Abandoned streams (handle dropped before Finish, events long drained)
  // stay live in the pool; run their destructors so captured state is
  // released.
  while (!live_streams_.empty()) {
    // Pop before destroying: a destructor may cascade (captured handles)
    // into ReleaseStream for another stream, mutating the registry.
    TxStream* s = live_streams_.back();
    live_streams_.pop_back();
    stream_pool_.Release(s);
  }
}

void NetworkStack::DeliverRequest(sim::EventFn at_node) {
  // RDMA verbs ride the same fabric as the data path: a flap window stalls
  // the request until the link returns (single request messages are assumed
  // recovered transparently below the timescale we model; sustained
  // unavailability surfaces as the client-side completion timeout).
  SimTime stall = 0;
  if (fault_plan_ != nullptr) {
    const SimTime now = engine_->Now();
    if (fault_plan_->LinkDownAt(now)) {
      stall = fault_plan_->NextLinkUpAfter(now) - now;
      ++fault_counters_.flap_stalls;
    }
  }
  engine_->ScheduleAfter(stall + config_.fv_request_latency,
                         std::move(at_node));
}

NetworkStack::StreamHandle NetworkStack::OpenStream(int qp_id,
                                                    OnDelivered on_delivered) {
  TxStream* s = stream_pool_.Acquire(this, qp_id, std::move(on_delivered));
  s->registry_index_ = live_streams_.size();
  // fvcheck:allow=hot-path-alloc bounded by pool high-water
  live_streams_.push_back(s);
  return StreamHandle(s);
}

void NetworkStack::ReleaseStream(TxStream* s) {
  // Swap-remove from the live registry.
  const size_t i = s->registry_index_;
  live_streams_[i] = live_streams_.back();
  live_streams_[i]->registry_index_ = i;
  live_streams_.pop_back();
  stream_pool_.Release(s);
}

NetworkStack::TxStream::TxStream(NetworkStack* stack, int qp_id,
                                 OnDelivered on_delivered)
    : stack_(stack), qp_id_(qp_id), on_delivered_(std::move(on_delivered)) {}

void NetworkStack::TxStream::MaybeRelease() {
  if (external_refs_ == 0 && pending_events_ == 0 && delivery_complete_) {
    stack_->ReleaseStream(this);
  }
}

void NetworkStack::TxStream::Push(uint64_t bytes) {
  FV_CHECK(!finished_) << "Push after Finish";
  pending_bytes_ += bytes;
  TrySend();
}

void NetworkStack::TxStream::Finish() {
  if (finished_) return;
  finished_ = true;
  TrySend();
}

void NetworkStack::TxStream::TrySend() {
  const NetConfig& cfg = stack_->config_;
  while (!last_packet_formed_ &&
         in_flight_packets_ < cfg.credit_window_packets) {
    uint64_t payload = 0;
    bool last = false;
    if (pending_bytes_ >= cfg.packet_bytes) {
      payload = cfg.packet_bytes;
    } else if (finished_) {
      // Final (possibly partial, possibly empty) packet. An empty last
      // packet models the zero-length RDMA write that signals completion
      // for fully-filtered results.
      payload = pending_bytes_;
      last = true;
    } else {
      break;  // wait for more payload
    }
    pending_bytes_ -= payload;
    if (finished_ && pending_bytes_ == 0 && payload != 0 && !last) {
      last = true;  // exact multiple of the packet size
    }
    if (last) last_packet_formed_ = true;
    ++in_flight_packets_;
    ++packets_sent_;
    stack_->total_packets_++;
    stack_->total_payload_bytes_ += payload;
    Transmit(next_seq_++, payload, last, /*retransmission=*/false);
  }
}

void NetworkStack::TxStream::Transmit(uint64_t seq, uint64_t payload,
                                      bool last, bool retransmission) {
  sim::Engine* eng = stack_->engine_;
  // A flap window blocks the wire: defer the transmission to the instant
  // the link returns (the link server then serializes deferred packets in
  // FIFO submission order, exactly like a real egress queue draining).
  if (stack_->fault_plan_ != nullptr) {
    const SimTime now = eng->Now();
    if (stack_->fault_plan_->LinkDownAt(now)) {
      ++stack_->fault_counters_.flap_stalls;
      EventScheduled();
      eng->ScheduleAt(stack_->fault_plan_->NextLinkUpAfter(now),
                      [this, seq, payload, last, retransmission]() {
                        Transmit(seq, payload, last, retransmission);
                        EventDone();
                      });
      return;
    }
  }

  // Serialize on the shared link (round-robin with other QPs), then
  // propagate to the client; the ack returns a credit later.
  EventScheduled();
  stack_->link_->Submit(qp_id_, payload,
                        [this, seq, payload, last, retransmission](SimTime t) {
                          OnLinkExit(t, seq, payload, last, retransmission);
                          EventDone();
                        });
}

void NetworkStack::TxStream::OnLinkExit(SimTime t, uint64_t seq,
                                        uint64_t payload, bool last,
                                        bool retransmission) {
  // NOTE: with link burst coalescing this callback may run after `t` in
  // wall order; everything below derives from `t` and schedules at
  // absolute offsets >= the link's burst budget (see the class comment).
  sim::Engine* eng = stack_->engine_;
  last_link_exit_ = t;

  // Fate is drawn once, at the first transmission; recovery copies
  // always arrive (one timeout bounds each fault's recovery).
  FaultPlan::PacketFate fate = FaultPlan::PacketFate::kDelivered;
  if (stack_->fault_plan_ != nullptr && !retransmission) {
    fate = stack_->fault_plan_->NextPacketFate();
  }
  if (fate != FaultPlan::PacketFate::kDelivered) {
    if (fate == FaultPlan::PacketFate::kLost) {
      ++stack_->fault_counters_.packets_lost;
    } else {
      ++stack_->fault_counters_.packets_corrupted;
    }
    // The credit stays consumed until the recovery copy is acked, so
    // heavy loss also throttles the window — retry amplification is
    // visible on the wire, not hidden by free retransmissions.
    EventScheduled();
    eng->ScheduleAt(t + stack_->config_.faults.retransmit_timeout,
                    [this, seq, payload, last]() {
                      ++stack_->fault_counters_.retransmits;
                      Transmit(seq, payload, last, /*retransmission=*/true);
                      EventDone();
                    });
    return;
  }

  if (!last && seq == next_deliver_seq_ && parked_arrivals_ == 0) {
    // In-order non-final packet: arrivals fire in link-exit order with a
    // fixed latency, so the delivery event's only effect is invoking the
    // callback at `t + delivery`. Run it synchronously with that logical
    // time and account the elided event (delivery callbacks are pure
    // accumulators until `last`; see OnDelivered). This holds with faults
    // too: the cursor reaching `seq` means every earlier packet has been
    // delivered, and no later packet can have exited the link before this
    // one (first transmissions are FIFO and a retransmission exits after
    // its first copy), so no arrival event can land before this packet's
    // logical arrival and observe the early cursor advance.
    ++next_deliver_seq_;
    if (on_delivered_) {
      on_delivered_(payload, false, t + stack_->config_.fv_delivery_latency);
    }
    eng->AccountCoalesced(1);
  } else {
    EventScheduled();
    eng->ScheduleAt(t + stack_->config_.fv_delivery_latency,
                    [this, seq, payload, last]() {
                      OnArrival(seq, payload, last);
                      EventDone();
                    });
  }

  EventScheduled();
  eng->ScheduleAt(t + stack_->config_.ack_latency, [this]() {
    --in_flight_packets_;
    TrySend();
    EventDone();
  });
}

void NetworkStack::TxStream::OnArrival(uint64_t seq, uint64_t payload,
                                       bool last) {
  if (seq == next_deliver_seq_ && parked_arrivals_ == 0) {
    // In-order fast path: deliver without touching the reorder ring.
    ++next_deliver_seq_;
    if (on_delivered_) on_delivered_(payload, last, stack_->engine_->Now());
    if (last) {
      delivery_complete_ = true;
      on_delivered_ = nullptr;
    }
    return;
  }
  ParkArrival(seq, payload, last);
  FlushArrivals(stack_->engine_->Now());
}

namespace {

#ifdef FV_POOL_POISON
/// Word-sized pool poison (kPoolPoisonByte replicated): vacated reorder
/// slots read loud garbage, matching the recycling discipline of
/// common/pool.h for the SoA arrays.
constexpr uint64_t kReorderPoison = 0x0101010101010101ull * kPoolPoisonByte;
#endif

inline void SetBit(std::vector<uint64_t>& bits, size_t idx) {
  bits[idx >> 6] |= uint64_t{1} << (idx & 63);
}

inline void ClearBit(std::vector<uint64_t>& bits, size_t idx) {
  bits[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
}

inline bool TestBit(const std::vector<uint64_t>& bits, size_t idx) {
  return (bits[idx >> 6] >> (idx & 63)) & 1u;
}

}  // namespace

void NetworkStack::TxStream::ReorderResize(size_t cap) {
  std::vector<uint64_t> old_seq = std::move(reorder_seq_);
  std::vector<uint64_t> old_payload = std::move(reorder_payload_);
  std::vector<uint64_t> old_present = std::move(reorder_present_);
  std::vector<uint64_t> old_last = std::move(reorder_last_);
  const size_t old_cap = reorder_cap_;

  reorder_cap_ = cap;
  // Fault-path only (first gap / growth), so these allocations are rare
  // and bounded by the largest in-flight sequence span.
  reorder_seq_.assign(cap, 0);
  reorder_payload_.assign(cap, 0);
  reorder_present_.assign((cap + 63) / 64, 0);
  reorder_last_.assign((cap + 63) / 64, 0);
#ifdef FV_POOL_POISON
  for (size_t i = 0; i < cap; ++i) {
    reorder_seq_[i] = kReorderPoison;
    reorder_payload_[i] = kReorderPoison;
  }
#endif

  for (size_t i = 0; i < old_cap; ++i) {
    if (!TestBit(old_present, i)) continue;
    const size_t idx = old_seq[i] & (cap - 1);
    reorder_seq_[idx] = old_seq[i];
    reorder_payload_[idx] = old_payload[i];
    SetBit(reorder_present_, idx);
    if (TestBit(old_last, i)) SetBit(reorder_last_, idx);
  }
}

void NetworkStack::TxStream::ParkArrival(uint64_t seq, uint64_t payload,
                                         bool last) {
  if (reorder_cap_ == 0) ReorderResize(64);
  // Grow until the slot for `seq` is free: live sequence numbers span
  // [next_deliver_seq_, next_seq_), which exceeds the credit window only
  // when retransmit timeouts stretch the in-flight span.
  while (true) {
    const size_t idx = seq & (reorder_cap_ - 1);
    if (!ReorderPresent(idx)) {
      reorder_seq_[idx] = seq;
      reorder_payload_[idx] = payload;
      SetBit(reorder_present_, idx);
      if (last) SetBit(reorder_last_, idx);
      ++parked_arrivals_;
      return;
    }
    FV_CHECK(reorder_seq_[idx] != seq) << "duplicate packet " << seq;
    ReorderResize(reorder_cap_ * 2);
  }
}

void NetworkStack::TxStream::FlushArrivals(SimTime t) {
  // In-order release: a missing sequence number holds back everything
  // behind it until its retransmission arrives.
  while (parked_arrivals_ > 0) {
    const size_t idx = next_deliver_seq_ & (reorder_cap_ - 1);
    if (!ReorderPresent(idx) || reorder_seq_[idx] != next_deliver_seq_) return;
    const uint64_t payload = reorder_payload_[idx];
    const bool last = TestBit(reorder_last_, idx);
    ClearBit(reorder_present_, idx);
    ClearBit(reorder_last_, idx);
#ifdef FV_POOL_POISON
    reorder_seq_[idx] = kReorderPoison;
    reorder_payload_[idx] = kReorderPoison;
#endif
    --parked_arrivals_;
    ++next_deliver_seq_;
    if (on_delivered_) {
      on_delivered_(payload, last, t);
    }
    if (last) {
      // All packets delivered in order; the stream returns to the pool
      // once its handles drop and in-flight acks drain.
      delivery_complete_ = true;
      on_delivered_ = nullptr;
      return;
    }
  }
}

}  // namespace farview
