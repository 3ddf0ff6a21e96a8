// Extension benchmark: overload-safe multi-tenancy (DESIGN.md §15,
// EXPERIMENTS.md "ext_overload"). A hot-tenant storm through the
// RegionScheduler: four well-behaved latency-class tenants run closed-loop
// selections while one hot tenant dumps a growing burst of batch-class jobs
// into the same six regions. With admission off the victims' p99 grows with
// the storm (head-of-line blocking in the FIFO drain); with admission on
// the hot tenant is bounded by its queue cap (excess jobs shed with
// `ResourceExhausted` + retry-after) and the DWRR drain keeps the victims'
// p99 within 2x of the unloaded baseline. Both claims are FV_CHECKed on
// every run.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "benchlib/experiment.h"
#include "common/logging.h"
#include "fv/region_scheduler.h"
#include "sim/stats.h"
#include "table/generator.h"

namespace farview {
namespace {

constexpr int kVictims = 4;
constexpr int kVictimRequests = 25;    ///< closed-loop depth per victim
constexpr uint64_t kVictimLen = 256 * kKiB;  ///< ~16 us of pipe time
constexpr uint64_t kStormLen = 64 * kKiB;    ///< ~4 us of pipe time

struct StormOutcome {
  double victim_p99_us = 0;
  uint64_t hot_done = 0;
  uint64_t hot_shed = 0;
  uint64_t victim_shed = 0;
};

/// One storm run: `storm` hot-tenant batch jobs burst at t=0, then the
/// victims run their closed loops. All jobs share one pipeline key, so
/// after the regions warm up the run is pure service/queueing — the
/// reconfiguration dimension is ext_elasticity's subject, not ours.
StormOutcome RunStorm(int storm, bool admission_on) {
  FarviewConfig config;
  if (admission_on) {
    config.admission.enabled = true;
    // The storm is bounded by its backlog cap; the token bucket is sized so
    // the well-behaved closed loops never touch it.
    config.admission.tenant_queue_cap = 24;
    config.admission.tenant_burst = 64.0;
    config.admission.tenant_rate_per_sec = 2e6;
  }
  sim::Engine engine;
  FarviewNode node(&engine, config);  // 6 regions
  RegionScheduler scheduler(&node);

  TableGenerator gen(7);
  Result<Table> t =
      gen.Uniform(Schema::DefaultWideRow(), kVictimLen / 64, 100);
  FV_CHECK(t.ok());
  Result<QPair*> owner = node.ConnectShared(1);
  FV_CHECK(owner.ok());
  Result<uint64_t> vaddr =
      node.AllocTableMem(*owner.value(), t.value().size_bytes());
  FV_CHECK(vaddr.ok());
  FV_CHECK(node.mmu()
               .Write(1, vaddr.value(), t.value().size_bytes(),
                      t.value().data())
               .ok());
  FV_CHECK(node.ShareTableMem(*owner.value(), vaddr.value()).ok());

  const std::string key = "select<50";
  auto factory = []() {
    return PipelineBuilder(Schema::DefaultWideRow())
        .Select({Predicate::Int(0, CompareOp::kLt, 50)})
        .Build();
  };

  // Warm every region onto the shared pipeline so the measured section has
  // no reconfiguration noise (5 ms each would swamp the microsecond-scale
  // queueing signal under study).
  Result<QPair*> warm_qp = node.ConnectShared(99);
  FV_CHECK(warm_qp.ok());
  {
    FvRequest warm;
    warm.vaddr = vaddr.value();
    warm.len = kStormLen;
    warm.tuple_bytes = 64;
    int warmed = 0;
    for (int r = 0; r < node.config().num_regions; ++r) {
      scheduler.Submit(99, warm_qp.value()->qp_id, key, factory, warm,
                       [&warmed](Result<FvResult> res) {
                         if (res.ok()) ++warmed;
                       });
    }
    engine.Run();
    FV_CHECK(warmed == node.config().num_regions);
  }

  StormOutcome out;

  // Hot tenant: one upfront burst of batch-class jobs.
  Result<QPair*> hot_qp = node.ConnectShared(7);
  FV_CHECK(hot_qp.ok());
  FvRequest hot_req;
  hot_req.vaddr = vaddr.value();
  hot_req.len = kStormLen;
  hot_req.tuple_bytes = 64;
  hot_req.slo = SloClass::kBatch;
  for (int s = 0; s < storm; ++s) {
    scheduler.Submit(7, hot_qp.value()->qp_id, key, factory, hot_req,
                     [&out](Result<FvResult> res) {
                       if (res.ok()) {
                         ++out.hot_done;
                         return;
                       }
                       FV_CHECK(res.status().IsResourceExhausted())
                           << res.status().ToString();
                       FV_CHECK(res.status().retry_after_ps() > 0)
                           << "shed without a retry-after hint";
                       ++out.hot_shed;
                     });
  }

  // Victims: closed-loop latency-class selections, issued behind the storm.
  sim::SampleStats victim_lat;
  struct Victim {
    QPair* qp = nullptr;
    int remaining = kVictimRequests;
    SimTime submitted = 0;
  };
  std::vector<Victim> victims(kVictims);
  FvRequest victim_req;
  victim_req.vaddr = vaddr.value();
  victim_req.len = kVictimLen;
  victim_req.tuple_bytes = 64;
  victim_req.slo = SloClass::kLatencySensitive;
  for (int v = 0; v < kVictims; ++v) {
    Result<QPair*> qp = node.ConnectShared(100 + v);
    FV_CHECK(qp.ok());
    victims[static_cast<size_t>(v)].qp = qp.value();
  }
  std::function<void(int)> issue = [&](int v) {
    Victim& vic = victims[static_cast<size_t>(v)];
    vic.submitted = engine.Now();
    scheduler.Submit(
        100 + v, vic.qp->qp_id, key, factory, victim_req,
        [&, v](Result<FvResult> res) {
          Victim& done_vic = victims[static_cast<size_t>(v)];
          if (res.ok()) {
            victim_lat.Add(
                static_cast<double>(engine.Now() - done_vic.submitted));
          } else {
            ++out.victim_shed;
          }
          if (--done_vic.remaining > 0) issue(v);
        });
  };
  for (int v = 0; v < kVictims; ++v) issue(v);

  engine.Run();
  out.victim_p99_us =
      ToMicros(static_cast<SimTime>(victim_lat.Percentile(99)));
  return out;
}

void Run() {
  bench::SeriesPrinter p99(
      "Extension: overload — victim p99 under a hot-tenant storm [us] "
      "(4 latency-class tenants, 6 regions)",
      "storm jobs", {"admission off", "admission on"});
  bench::SeriesPrinter hot(
      "Extension: overload — hot-tenant outcome (admission on)", "storm jobs",
      {"served", "shed"});

  const double unloaded_p99 = RunStorm(0, false).victim_p99_us;
  std::printf("Unloaded victim p99: %.3f us (4 tenants, no storm)\n\n",
              unloaded_p99);

  double off_final = 0;
  for (const int storm : {48, 192, 768}) {
    const StormOutcome off = RunStorm(storm, false);
    const StormOutcome on = RunStorm(storm, true);
    p99.Row(std::to_string(storm), {off.victim_p99_us, on.victim_p99_us});
    hot.Row(std::to_string(storm), {static_cast<double>(on.hot_done),
                                    static_cast<double>(on.hot_shed)});
    FV_CHECK(on.victim_shed == 0)
        << "a well-behaved tenant was shed under the storm";
    FV_CHECK(on.victim_p99_us <= 2.0 * unloaded_p99)
        << "admission failed to protect victims: p99 " << on.victim_p99_us
        << " us vs unloaded " << unloaded_p99 << " us (storm " << storm
        << ")";
    FV_CHECK(on.hot_shed > 0) << "storm of " << storm
                              << " never hit the tenant backlog cap";
    off_final = off.victim_p99_us;
  }
  FV_CHECK(off_final >= 4.0 * unloaded_p99)
      << "FIFO baseline no longer degrades under the storm — the overload "
         "experiment lost its contrast";
  p99.Print();
  hot.Print();
}

}  // namespace
}  // namespace farview

int main() {
  farview::Run();
  return 0;
}
