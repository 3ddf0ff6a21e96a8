#include "workloads.h"

#include <utility>

namespace fvbench {

using farview::kMicrosecond;
using farview::kMillisecond;

ArrivalStream::ArrivalStream(farview::sim::Engine* engine, uint64_t seed,
                             double rate_per_s, SimTime start, SimTime end,
                             Fire fire, SimTime period, SimTime on)
    : engine_(engine),
      rng_(seed),
      rate_(rate_per_s),
      start_(start),
      end_(end),
      fire_(std::move(fire)),
      period_(period),
      on_(on) {
  if (rate_ > 0) ScheduleAfter(start_);
}

void ArrivalStream::ScheduleAfter(SimTime t) {
  SimTime next = t + ExpGap(rng_.NextDouble(), rate_);
  if (period_ > 0) {
    // Outside the storm window: restart the (memoryless) gap at the next
    // window's opening.
    while ((next - start_) % period_ >= on_) {
      const SimTime window = start_ + ((next - start_) / period_ + 1) * period_;
      next = window + ExpGap(rng_.NextDouble(), rate_);
    }
  }
  if (next >= end_) return;
  engine_->ScheduleAt(next, [this, next]() {
    fire_(next);
    ScheduleAfter(next);
  });
}

// Frozen calibration (README.md "Calibration"): the simulated horizon per
// host second comes from Release runs on the calibration machine, the
// latency limits from 2x the measured class's p99 at 5% load, and the
// ladder horizons give each probe one to two thousand measured
// completions. Nominal loads: rdma_rw 70% of the egress link; offload_mix
// 60% of DRAM bandwidth (at 80% the p99.9 sits in the tail of a nearly
// saturated DRAM and moves by 20% from seed to seed); shard_failover 30%
// of one replica's link per shard, since during the crash one replica
// carries its shard alone (at 45% the p99.9, set by reads in that window,
// moved by 11% from seed to seed, at 30% by 6%); tenant_storm 0.40 + 0.3
// x 1.50.
const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"rdma_rw", 0.270, 0.70, 173 * kMicrosecond, 60 * kMillisecond,
       &MakeRdmaRw},
      {"offload_mix", 0.0180, 0.60, 21 * kMicrosecond, 6 * kMillisecond,
       &MakeOffloadMix},
      {"shard_failover", 0.105, 0.30, 42 * kMicrosecond, 40 * kMillisecond,
       &MakeShardFailover},
      {"tenant_storm", 0.085, 0.85, 14 * kMicrosecond, 20 * kMillisecond,
       &MakeTenantStorm},
  };
  return specs;
}

}  // namespace fvbench
