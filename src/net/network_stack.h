#ifndef FARVIEW_NET_NETWORK_STACK_H_
#define FARVIEW_NET_NETWORK_STACK_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/inline_fn.h"
#include "common/pool.h"
#include "common/units.h"
#include "net/fault_plan.h"
#include "net/net_config.h"
#include "sim/engine.h"
#include "sim/server.h"

namespace farview {

/// Timing model of Farview's RDMA network stack (Section 4.3): a shared
/// 100 Gbps egress link with round-robin fair sharing between queue pairs,
/// 1 kB packetization, credit-based flow control, and a fixed-latency
/// request ingress path.
///
/// Out-of-order execution at packet granularity shows up in this model as
/// packet-level interleaving of different flows on the shared link server —
/// one flow's long transfer cannot stall another's packets, which is the
/// stall-freedom property the paper's out-of-order extension provides.
///
/// Fault injection (DESIGN.md §7): when `NetConfig::faults.enabled` is set,
/// a seeded `FaultPlan` draws a fate for every payload packet's first
/// transmission. Lost/corrupted packets are retransmitted after
/// `retransmit_timeout` while their flow-control credit stays consumed, and
/// the receiver releases payload strictly in sequence order, so a single
/// loss head-of-line-blocks the bytes behind it — the go-back-free
/// selective-repeat recovery RoCE NICs implement. A periodic link-flap
/// schedule stalls transmissions and request deliveries while the link is
/// down. With faults disabled none of this machinery runs and the event
/// sequence is bit-identical to the fault-free simulator.
///
/// Hot-path layout (DESIGN.md §8): streams are pooled (`common/pool.h`) and
/// reference-counted intrusively — per-packet events capture `this` plus a
/// few scalars inside the engine's inline event storage, instead of the
/// per-packet `shared_ptr` copies and `std::function` heap allocations the
/// first implementation paid three times per packet.
///
/// Event coalescing (DESIGN.md §8a): the egress link opts in to
/// `sim::Server` burst runs (budget = the smallest follow-up latency any
/// link completion schedules), and on the fault-free path the per-packet
/// delivery event is elided entirely — arrivals are guaranteed in-order, so
/// each non-final packet's delivery callback runs synchronously from link
/// exit with its exact logical arrival time. `Engine::AccountCoalesced`
/// keeps the executed-event count identical to the uncoalesced stack. With
/// faults enabled, deliveries stay real events (loss reorders release
/// order) and only link-serialization bursts coalesce.
class NetworkStack {
 public:
  /// Injected-fault event counts (all zero when faults are disabled).
  struct FaultCounters {
    uint64_t packets_lost = 0;       ///< first transmissions dropped
    uint64_t packets_corrupted = 0;  ///< arrived but failed integrity check
    uint64_t retransmits = 0;        ///< recovery transmissions sent
    uint64_t flap_stalls = 0;        ///< packets/requests delayed by a flap
  };

  /// `on_delivered(bytes, last, t)` runs at the simulated instant packet
  /// payloads land in client memory, in sequence order. `last` fires
  /// exactly once.
  using OnDelivered = InlineFn<void(uint64_t, bool, SimTime)>;

  NetworkStack(sim::Engine* engine, const NetConfig& config);
  ~NetworkStack();

  NetworkStack(const NetworkStack&) = delete;
  NetworkStack& operator=(const NetworkStack&) = delete;

  /// Client→Farview request path: runs `at_node` after the ingress latency
  /// (plus any link-flap stall).
  void DeliverRequest(sim::EventFn at_node);

  /// An open response stream Farview→client for one request. The node
  /// pushes payload bytes as the operator pipeline emits them; the stream
  /// packetizes, respects the credit window, and reports delivered packets
  /// at the client. Dropping the handle before `Finish()` abandons the
  /// stream.
  class TxStream {
   public:
    TxStream(NetworkStack* stack, int qp_id, OnDelivered on_delivered);

    TxStream(const TxStream&) = delete;
    TxStream& operator=(const TxStream&) = delete;

    /// Makes `bytes` of payload available for sending.
    void Push(uint64_t bytes);

    /// Declares the payload complete; a final (possibly partial or empty)
    /// packet carries `last = true`.
    void Finish();

    uint64_t packets_sent() const { return packets_sent_; }

    /// Instant the most recent packet finished serializing on the shared
    /// egress link (before the propagation/delivery latency). After the
    /// `last = true` delivery callback this is the stream's egress-finished
    /// stamp; 0 until the first packet clears the link. Request lifecycle
    /// accounting (RequestContext::egress_finished) reads it at completion.
    SimTime last_link_exit() const { return last_link_exit_; }

   private:
    void TrySend();

    /// Puts packet `seq` on the wire (deferring while a flap has the link
    /// down). `retransmission` marks recovery copies: their fate is not
    /// drawn again — retransmitted packets always arrive, bounding
    /// recovery at one timeout per faulted packet.
    void Transmit(uint64_t seq, uint64_t payload, bool last,
                  bool retransmission);

    /// Link serialization finished for packet `seq` at simulated instant
    /// `t`: draw its fate and schedule delivery/ack (or the retransmit
    /// timer). `t` comes from the link server's completion callback — with
    /// burst coalescing this may run after `t` in wall order, so all times
    /// derive from `t`, never `Engine::Now()` (the sim::Server contract).
    void OnLinkExit(SimTime t, uint64_t seq, uint64_t payload, bool last,
                    bool retransmission);

    /// Packet `seq` landed at the receiver.
    void OnArrival(uint64_t seq, uint64_t payload, bool last);

    /// Stores an out-of-order arrival in the reorder ring, growing it when
    /// the in-flight sequence span exceeds its capacity.
    void ParkArrival(uint64_t seq, uint64_t payload, bool last);

    /// Releases arrived packets to the client in sequence order at `t`.
    void FlushArrivals(SimTime t);

    /// Bumps the count of engine/server callbacks holding `this`.
    void EventScheduled() { ++pending_events_; }

    /// A callback holding `this` finished; last one out releases the
    /// stream back to the pool (must be the callback's final action).
    void EventDone() {
      --pending_events_;
      MaybeRelease();
    }

    void MaybeRelease();

    NetworkStack* stack_;
    int qp_id_;
    OnDelivered on_delivered_;
    uint64_t pending_bytes_ = 0;
    uint64_t packets_sent_ = 0;
    int in_flight_packets_ = 0;
    bool finished_ = false;
    bool last_packet_formed_ = false;
    SimTime last_link_exit_ = 0;
    /// Next sequence number assigned at packet formation.
    uint64_t next_seq_ = 0;
    /// Receiver cursor: first sequence number not yet released in order.
    uint64_t next_deliver_seq_ = 0;

    /// Receiver reorder ring, indexed by `seq & (reorder_cap_ - 1)`, in
    /// SoA layout: parallel seq/payload arrays plus present/last occupancy
    /// bitmaps (one bit per slot, same packing as sim/event_queue.h), so
    /// the in-order release scan touches two cache lines instead of one
    /// 24-byte record per probe. Empty on the fault-free path (in-order
    /// arrivals deliver directly); allocated on the first gap and grown
    /// when retransmit latency stretches the sequence span past capacity.
    std::vector<uint64_t> reorder_seq_;
    std::vector<uint64_t> reorder_payload_;
    std::vector<uint64_t> reorder_present_;  ///< bitmap, reorder_cap_ bits
    std::vector<uint64_t> reorder_last_;     ///< bitmap, reorder_cap_ bits
    size_t reorder_cap_ = 0;
    int parked_arrivals_ = 0;

    /// (Re)allocates the reorder ring at `cap` slots (a power of two),
    /// re-placing present entries on growth.
    void ReorderResize(size_t cap);
    bool ReorderPresent(size_t idx) const {
      return (reorder_present_[idx >> 6] >> (idx & 63)) & 1u;
    }

    /// Lifetime: handles (external owners) + callbacks in flight. The
    /// stream returns to the pool when both reach zero after the last
    /// in-order delivery. An abandoned, quiesced stream stays in the pool
    /// as live (the previous shared_ptr design leaked it the same way);
    /// ~NetworkStack reclaims survivors.
    int external_refs_ = 0;
    int pending_events_ = 0;
    bool delivery_complete_ = false;
    /// Index into NetworkStack::live_streams_ (swap-removed on release).
    size_t registry_index_ = 0;

    friend class NetworkStack;
  };

  /// Move-only owner handle for a pooled stream; releasing the last handle
  /// after the final delivery returns the stream to the pool.
  class StreamHandle {
   public:
    StreamHandle() = default;
    StreamHandle(StreamHandle&& o) noexcept : s_(o.s_) { o.s_ = nullptr; }
    StreamHandle& operator=(StreamHandle&& o) noexcept {
      if (this != &o) {
        Release();
        s_ = o.s_;
        o.s_ = nullptr;
      }
      return *this;
    }
    ~StreamHandle() { Release(); }

    TxStream* operator->() const { return s_; }
    TxStream& operator*() const { return *s_; }
    explicit operator bool() const { return s_ != nullptr; }

   private:
    friend class NetworkStack;
    explicit StreamHandle(TxStream* s) : s_(s) { ++s_->external_refs_; }
    void Release() {
      if (s_ != nullptr) {
        --s_->external_refs_;
        s_->MaybeRelease();
        s_ = nullptr;
      }
    }
    TxStream* s_ = nullptr;
  };

  /// Opens a response stream for queue pair `qp_id`.
  StreamHandle OpenStream(int qp_id, OnDelivered on_delivered);

  const NetConfig& config() const { return config_; }
  sim::Engine* engine() { return engine_; }

  /// The shared egress link (for tests / utilization stats).
  sim::Server& link() { return *link_; }

  uint64_t total_payload_bytes() const { return total_payload_bytes_; }
  uint64_t total_packets() const { return total_packets_; }

  /// Fault-event counts (all zero while faults are disabled).
  const FaultCounters& fault_counters() const { return fault_counters_; }

 private:
  /// Destroys `s` and recycles its pool slot.
  void ReleaseStream(TxStream* s);

  sim::Engine* engine_;
  NetConfig config_;
  std::unique_ptr<sim::Server> link_;
  /// Non-null only when `config_.faults.enabled`.
  std::unique_ptr<FaultPlan> fault_plan_;
  FaultCounters fault_counters_;
  Pool<TxStream> stream_pool_;
  /// Live streams, so ~NetworkStack can run destructors for abandoned ones
  /// (their callbacks may own heap state).
  std::vector<TxStream*> live_streams_;
  uint64_t total_payload_bytes_ = 0;
  uint64_t total_packets_ = 0;
};

}  // namespace farview

#endif  // FARVIEW_NET_NETWORK_STACK_H_
