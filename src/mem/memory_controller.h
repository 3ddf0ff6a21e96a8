#ifndef FARVIEW_MEM_MEMORY_CONTROLLER_H_
#define FARVIEW_MEM_MEMORY_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_fn.h"
#include "common/pool.h"
#include "common/units.h"
#include "mem/dram_config.h"
#include "sim/engine.h"
#include "sim/server.h"

namespace farview {

/// Timing model of the on-board memory system: one `sim::Server` per DRAM
/// channel with round-robin arbitration between flows (dynamic regions), and
/// the striping map that spreads consecutive virtual addresses across
/// channels in `stripe_bytes` granules (Section 4.4).
///
/// The controller is timing-only: functional bytes move through the `Mmu`.
/// Flows are identified by integer ids (one per dynamic region / queue
/// pair); per-flow fair sharing of every channel emerges from the servers'
/// round-robin arbitration, exactly the property the multi-client experiment
/// (Figure 12) exercises.
class MemoryController {
 public:
  /// Delivered once per burst as service completes. `bytes` is the burst
  /// payload, `last` marks the final burst of the request, `t` the
  /// completion time. Held once per request in a pooled continuation — the
  /// per-burst channel callbacks share it instead of copying it (the copy
  /// per burst used to dominate multi-channel reads, DESIGN.md §8).
  using OnBurst = InlineFn<void(uint64_t bytes, bool last, SimTime t)>;

  MemoryController(sim::Engine* engine, const DramConfig& config);

  MemoryController(const MemoryController&) = delete;
  MemoryController& operator=(const MemoryController&) = delete;

  /// Streams a sequential read of `len` bytes starting at `vaddr`: the range
  /// is cut at stripe boundaries and each piece queues on its channel. The
  /// first burst additionally pays the MMU translation latency; sequential
  /// bursts pay no row-activation penalty (streams keep rows open). Bursts
  /// are delivered as their channels complete them, so a short last piece
  /// may arrive before a full one.
  void StreamRead(int flow, uint64_t vaddr, uint64_t len, OnBurst on_burst);

  /// Streams a sequential write (same cost model as reads at this fidelity;
  /// the MMU has "fully decoupled read and write channels", so writes do not
  /// queue behind reads of the same flow — modeled by shared channel servers
  /// which interleave at burst granularity).
  void StreamWrite(int flow, uint64_t vaddr, uint64_t len, OnBurst on_burst);

  /// Smart-addressing access pattern (Section 5.2): `count` scattered
  /// accesses of `access_bytes` each, starting at `vaddr` with `stride`
  /// bytes between access starts. Every access pays the row-activation
  /// penalty and occupies whole 64 B beats. To bound event counts, accesses
  /// are batched into groups per channel while preserving total service
  /// time; callbacks deliver the *payload* bytes of each group.
  void ScatteredRead(int flow, uint64_t vaddr, uint64_t count,
                     uint32_t access_bytes, uint32_t stride,
                     OnBurst on_burst);

  const DramConfig& config() const { return config_; }

  /// Channel server access for tests / stats.
  sim::Server& channel(int i) { return *channels_[static_cast<size_t>(i)]; }
  int num_channels() const { return static_cast<int>(channels_.size()); }

  /// Total bytes served across channels.
  uint64_t total_bytes_served() const;

 private:
  /// Shared per-request completion state: the channel callbacks decrement
  /// `remaining` and the one that reaches zero fires `last` and recycles
  /// the slot.
  struct BurstCont {
    uint64_t remaining = 0;
    OnBurst cb;
  };

  /// Channel owning the stripe containing `vaddr`.
  int ChannelOf(uint64_t vaddr) const {
    return static_cast<int>((vaddr / config_.stripe_bytes) %
                            static_cast<uint64_t>(channels_.size()));
  }

  sim::Engine* engine_;
  DramConfig config_;
  std::vector<std::unique_ptr<sim::Server>> channels_;
  Pool<BurstCont> cont_pool_;
  /// Scratch for ScatteredRead's per-channel access histogram (reused so a
  /// scattered request does not allocate).
  std::vector<uint64_t> per_channel_scratch_;
};

}  // namespace farview

#endif  // FARVIEW_MEM_MEMORY_CONTROLLER_H_
