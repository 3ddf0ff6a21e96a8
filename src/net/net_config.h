#ifndef FARVIEW_NET_NET_CONFIG_H_
#define FARVIEW_NET_NET_CONFIG_H_

#include <cstdint>

#include "common/units.h"

namespace farview {

/// Network timing parameters for the 100 Gbps RoCE v2 fabric (Section 4.3)
/// and the commercial-NIC baseline (ConnectX-5 over PCIe, Section 6.1).
///
/// The Figure 6 story these constants encode:
///  - the commercial NIC has *lower base latency* (specialized circuitry at
///    a higher clock than the 250 MHz FPGA stack), so it wins on small
///    transfers;
///  - the FPGA stack has *cheaper multi-packet processing and page
///    handling*, and its memory is on-board rather than behind PCIe, so it
///    wins above the ~8-16 kB crossover (peak ~12.2 GB/s vs ~11 GB/s).
/// Fault-injection parameters for the network fabric (DESIGN.md §7). All
/// faults are drawn from a seeded `FaultPlan` stream (net/fault_plan.h), so
/// every faulty run reproduces bit-for-bit for a given seed. With
/// `enabled == false` (the default) the fault plan is never instantiated
/// and the network stack's event sequence is identical to the fault-free
/// build — the byte-identity guarantee the regression tests pin.
struct NetFaultConfig {
  /// Master switch; nothing below has any effect while false.
  bool enabled = false;

  /// Seed of the packet-fate stream (one Bernoulli draw per first
  /// transmission of a payload packet, in egress order).
  uint64_t seed = 1;

  /// Probability that a payload packet is lost on the wire. The sender
  /// detects the loss (NACK/timeout, modeled as `retransmit_timeout`) and
  /// retransmits; the receiver delivers strictly in order, so one lost
  /// packet head-of-line-blocks the bytes behind it.
  double packet_loss_rate = 0.0;

  /// Probability that a packet arrives but fails its integrity check; the
  /// receiver discards it and recovery proceeds exactly like a loss (the
  /// two are counted separately).
  double packet_corrupt_rate = 0.0;

  /// Time from a packet's (lost) transmission until the sender retransmits
  /// it. Roughly an RTT plus NACK processing on the RoCE fabric.
  SimTime retransmit_timeout = 6 * kMicrosecond;

  /// Deterministic link-flap schedule: the link is down during
  /// [k*period, k*period + down) for every k >= 1 (never at t=0, so
  /// connection setup is clean). 0 disables flapping. While down, packets
  /// and request deliveries stall until the link returns.
  SimTime link_flap_period = 0;
  SimTime link_flap_down = 0;
};

/// Network timing model: packetization, per-verb latencies, and link
/// rates calibrated against the paper (Section 6; see EXPERIMENTS.md).
struct NetConfig {
  /// RoCE packet payload size used throughout the evaluation ("We set the
  /// packet size to 1 kB", Section 6.2).
  uint32_t packet_bytes = 1024;

  /// Raw link serialization rate: 100 Gbps.
  double link_rate_bytes_per_sec = GbpsToBytesPerSec(100.0);

  /// One-way latency client→Farview for a request (client software + NIC +
  /// propagation + FPGA network-stack ingest).
  SimTime fv_request_latency = 900 * kNanosecond;

  /// One-way latency Farview→client for a data packet (propagation + client
  /// NIC + DMA into client memory).
  SimTime fv_delivery_latency = 1000 * kNanosecond;

  /// Per-packet processing cost in the FPGA network stack. Deeply pipelined,
  /// hence tiny; with 1 kB packets the effective payload rate is
  /// 1024 B / (81.9 ns + 2 ns) ≈ 12.2 GB/s.
  SimTime fv_per_packet_overhead = 2 * kNanosecond;

  /// Credit-based flow control window, in packets (Section 4.3). The sender
  /// stalls when this many packets are unacknowledged; 64 × 1 kB per ~2.5 µs
  /// ack RTT sustains > 24 GB/s, so the window does not throttle the
  /// experiments (bench/ablate_packet_size shrinks it to show the cliff).
  int credit_window_packets = 64;

  /// Time from a packet's arrival at the client until its acknowledgment
  /// (credit return) reaches the Farview sender.
  SimTime ack_latency = 1500 * kNanosecond;

  // --- Commercial NIC (RNIC / RCPU baselines) -----------------------------

  /// One-way request latency through the commercial NIC.
  SimTime rnic_request_latency = 650 * kNanosecond;

  /// One-way data delivery latency through the commercial NIC.
  SimTime rnic_delivery_latency = 650 * kNanosecond;

  /// Effective payload bandwidth of a read served from host memory behind
  /// PCIe 3 ×16 ("throughput peaks at ~11 GBps because it is bound by the
  /// PCIe bus bandwidth", Section 6.2).
  double rnic_rate_bytes_per_sec = GBpsToBytesPerSec(11.0);

  /// Host-side per-packet page-handling cost on the commercial NIC path.
  /// Charged for at most `rnic_page_window` packets per request: beyond a
  /// pipeline window the host overlaps this work with the wire, so peak
  /// bandwidth is unaffected while medium transfers (8-64 kB) pay it —
  /// which is where Figure 6(b) shows Farview ≥20% faster.
  SimTime rnic_per_packet_page_cost = 60 * kNanosecond;
  int rnic_page_window = 64;

  // --- Fault injection (disabled by default; DESIGN.md §7) ----------------

  NetFaultConfig faults;

  /// Serialization time of one full packet on the raw link.
  SimTime PacketSerializationTime() const {
    return TransferTime(packet_bytes, link_rate_bytes_per_sec);
  }
};

}  // namespace farview

#endif  // FARVIEW_NET_NET_CONFIG_H_
