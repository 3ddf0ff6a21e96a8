// Overload-protection suite (DESIGN.md §15): admission-controller token
// buckets and queue-delay shedding, the bounded scheduler queue, DWRR
// fairness/starvation-freedom as a seeded property, and SubmissionQueue
// behavior under rejection. Labelled `overload`: CI reruns it under the
// FV_FAULT_SEED sanitizer sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benchlib/experiment.h"
#include "common/rng.h"
#include "fv/admission.h"
#include "fv/region_scheduler.h"
#include "fv/sharding.h"
#include "table/generator.h"

namespace farview {
namespace {

// ---------------------------------------------------------------------------
// AdmissionController unit tests
// ---------------------------------------------------------------------------

class AdmissionTest : public ::testing::Test {
 protected:
  /// Advances simulated time by `dt` (the controller refills lazily off the
  /// engine clock, so this is how tokens accrue).
  void Advance(SimTime dt) {
    engine_.ScheduleAfter(dt, [] {});
    engine_.Run();
  }

  sim::Engine engine_;
  NodeStats stats_;
};

TEST_F(AdmissionTest, DisabledAdmitsEverythingAndRecordsNothing) {
  AdmissionConfig cfg;  // enabled = false
  AdmissionController ac(&engine_, cfg, &stats_);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(ac.Admit(7, SloClass::kBatch).ok());
  }
  ac.ObserveQueueWait(10 * kMillisecond);  // ignored while disabled
  EXPECT_EQ(ac.queue_delay_ewma(), 0);
  EXPECT_FALSE(stats_.admission().AnyNonZero());
}

TEST_F(AdmissionTest, TokenBucketShedsBurstBeyondCapacity) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.tenant_burst = 8.0;
  cfg.tenant_rate_per_sec = 1e6;  // 1 token per us
  AdmissionController ac(&engine_, cfg, &stats_);

  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ac.Admit(1, SloClass::kLatencySensitive).ok()) << i;
  }
  Status shed = ac.Admit(1, SloClass::kLatencySensitive);
  ASSERT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  // The hint is at least the configured floor and at least the time to the
  // next whole token (1 us at this rate).
  EXPECT_GE(shed.retry_after_ps(), cfg.retry_after_base);
  EXPECT_GE(shed.retry_after_ps(), 1 * kMicrosecond);

  // Buckets are per tenant: a different tenant is untouched.
  EXPECT_TRUE(ac.Admit(2, SloClass::kLatencySensitive).ok());

  // Refill: after 4 us the drained bucket holds ~4 tokens again.
  Advance(4 * kMicrosecond);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ac.Admit(1, SloClass::kLatencySensitive).ok()) << i;
  }
  EXPECT_TRUE(
      ac.Admit(1, SloClass::kLatencySensitive).IsResourceExhausted());

  EXPECT_EQ(stats_.admission().admitted_latency, 13u);
  EXPECT_EQ(stats_.admission().shed_bucket_latency, 2u);
  EXPECT_EQ(stats_.admission().shed_overload_latency, 0u);
}

TEST_F(AdmissionTest, QueueDelayEwmaShedsBatchBeforeLatency) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.tenant_burst = 1e6;  // bucket never the limiter here
  cfg.tenant_rate_per_sec = 1e9;
  AdmissionController ac(&engine_, cfg, &stats_);

  // Push the EWMA between the two class thresholds.
  ASSERT_LT(cfg.shed_delay_batch, cfg.shed_delay_latency);
  while (ac.queue_delay_ewma() <= cfg.shed_delay_batch) {
    ac.ObserveQueueWait(cfg.shed_delay_latency);
  }
  EXPECT_TRUE(ac.Admit(1, SloClass::kLatencySensitive).ok());
  Status batch_shed = ac.Admit(1, SloClass::kBatch);
  ASSERT_TRUE(batch_shed.IsResourceExhausted());
  // Overload hints track how far behind the node is: floor + current EWMA.
  EXPECT_EQ(batch_shed.retry_after_ps(),
            cfg.retry_after_base + ac.queue_delay_ewma());

  // Deeper overload sheds the latency class too.
  while (ac.queue_delay_ewma() <= cfg.shed_delay_latency) {
    ac.ObserveQueueWait(4 * cfg.shed_delay_latency);
  }
  EXPECT_TRUE(
      ac.Admit(1, SloClass::kLatencySensitive).IsResourceExhausted());

  // Recovery: fast queues pull the EWMA back under the thresholds.
  for (int i = 0; i < 200; ++i) ac.ObserveQueueWait(0);
  EXPECT_TRUE(ac.Admit(1, SloClass::kBatch).ok());

  EXPECT_GT(stats_.admission().shed_overload_batch, 0u);
  EXPECT_GT(stats_.admission().shed_overload_latency, 0u);
}

TEST_F(AdmissionTest, ShedDelayHistogramAndReportSection) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.tenant_burst = 1.0;
  cfg.tenant_rate_per_sec = 1.0;  // glacial: everything after 1 sheds
  AdmissionController ac(&engine_, cfg, &stats_);
  EXPECT_TRUE(ac.Admit(1, SloClass::kBatch).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ac.Admit(1, SloClass::kBatch).IsResourceExhausted());
  }
  uint64_t hist_total = 0;
  for (int b = 0; b < NodeStats::AdmissionStats::kRetryAfterBuckets; ++b) {
    hist_total += stats_.admission().shed_delay_hist[b];
  }
  EXPECT_EQ(hist_total, 5u);
  EXPECT_EQ(stats_.admission().shed_bucket_batch, 5u);
  EXPECT_EQ(stats_.admission().admitted_batch, 1u);

  // The report section is zero-gated: a fresh registry prints no admission
  // line, a shedding one does.
  EXPECT_EQ(NodeStats().FormatReport(engine_.Now(), 0.0).find("admission:"),
            std::string::npos);
  EXPECT_NE(stats_.FormatReport(engine_.Now(), 0.0).find("admission:"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Scheduler-level tests (bounded queue, shedding, fairness)
// ---------------------------------------------------------------------------

/// Node + scheduler + one shared uploaded table, like SchedulerTest but
/// with a configurable FarviewConfig.
class OverloadSchedulerFixture {
 public:
  explicit OverloadSchedulerFixture(const FarviewConfig& cfg) {
    node_ = std::make_unique<FarviewNode>(&engine_, cfg);
    scheduler_ = std::make_unique<RegionScheduler>(node_.get());
    TableGenerator gen(1);
    Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), 4096, 100);
    EXPECT_TRUE(t.ok());
    table_.emplace(std::move(t).value());
    Result<QPair*> owner = node_->ConnectShared(1);
    EXPECT_TRUE(owner.ok());
    Result<uint64_t> vaddr =
        node_->AllocTableMem(*owner.value(), table_->size_bytes());
    EXPECT_TRUE(vaddr.ok());
    vaddr_ = vaddr.value();
    EXPECT_TRUE(node_->mmu()
                    .Write(1, vaddr_, table_->size_bytes(), table_->data())
                    .ok());
    EXPECT_TRUE(node_->ShareTableMem(*owner.value(), vaddr_).ok());
  }

  FvRequest ScanRequest(SloClass slo) const {
    FvRequest req;
    req.vaddr = vaddr_;
    req.len = table_->size_bytes();
    req.tuple_bytes = 64;
    req.slo = slo;
    return req;
  }

  RegionScheduler::PipelineFactory Factory() const {
    return []() {
      return PipelineBuilder(Schema::DefaultWideRow())
          .Select({Predicate::Int(0, CompareOp::kLt, 50)})
          .Build();
    };
  }

  sim::Engine engine_;
  std::unique_ptr<FarviewNode> node_;
  std::unique_ptr<RegionScheduler> scheduler_;
  std::optional<Table> table_;
  uint64_t vaddr_ = 0;
};

TEST(OverloadSchedulerTest, NodeWideQueueCapRejectsTyped) {
  // Satellite regression: even with admission disabled the scheduler queue
  // is bounded — flooding one shared connection bounces the overflow with
  // a typed Unavailable instead of queuing without bound.
  FarviewConfig cfg;
  cfg.num_regions = 1;
  cfg.scheduler_queue_cap = 4;
  ASSERT_FALSE(cfg.admission.enabled);
  OverloadSchedulerFixture fx(cfg);
  Result<QPair*> qp = fx.node_->ConnectShared(3);
  ASSERT_TRUE(qp.ok());

  int ok = 0;
  int overflow = 0;
  constexpr int kFlood = 12;
  for (int i = 0; i < kFlood; ++i) {
    fx.scheduler_->Submit(3, qp.value()->qp_id, "k", fx.Factory(),
                          fx.ScanRequest(SloClass::kLatencySensitive),
                          [&](Result<FvResult> r) {
                            if (r.ok()) {
                              ++ok;
                              return;
                            }
                            EXPECT_TRUE(r.status().IsUnavailable())
                                << r.status().ToString();
                            EXPECT_NE(r.status().message().find(
                                          "scheduler queue full"),
                                      std::string::npos);
                            ++overflow;
                          });
    EXPECT_LE(fx.scheduler_->queued_jobs(),
              static_cast<size_t>(cfg.scheduler_queue_cap));
  }
  fx.engine_.Run();
  // 1 dispatched immediately + 4 queued; the rest bounced at arrival.
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(overflow, kFlood - 5);
  EXPECT_EQ(fx.node_->stats().admission().scheduler_overflows,
            static_cast<uint64_t>(overflow));
}

TEST(OverloadSchedulerTest, TenantQueueCapShedsWithRetryAfter) {
  FarviewConfig cfg;
  cfg.num_regions = 1;
  cfg.admission.enabled = true;
  cfg.admission.tenant_queue_cap = 3;
  cfg.admission.tenant_burst = 1e6;  // bucket never the limiter here
  cfg.admission.tenant_rate_per_sec = 1e9;
  OverloadSchedulerFixture fx(cfg);
  Result<QPair*> qp = fx.node_->ConnectShared(3);
  ASSERT_TRUE(qp.ok());

  int ok = 0;
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    fx.scheduler_->Submit(3, qp.value()->qp_id, "k", fx.Factory(),
                          fx.ScanRequest(SloClass::kBatch),
                          [&](Result<FvResult> r) {
                            if (r.ok()) {
                              ++ok;
                              return;
                            }
                            EXPECT_TRUE(r.status().IsResourceExhausted())
                                << r.status().ToString();
                            EXPECT_GT(r.status().retry_after_ps(), 0);
                            ++shed;
                          });
    EXPECT_LE(fx.scheduler_->tenant_queued_jobs(3),
              static_cast<size_t>(cfg.admission.tenant_queue_cap));
  }
  fx.engine_.Run();
  EXPECT_EQ(ok, 4);  // 1 dispatched + 3 under the tenant cap
  EXPECT_EQ(shed, 6);
  EXPECT_EQ(fx.node_->stats().admission().shed_bucket_batch, 6u);
  EXPECT_GE(fx.node_->stats().admission().tenant_backlog_high_water, 3u);
}

/// Seeded fairness property: one hot batch tenant floods while well-behaved
/// latency tenants run closed loops. For every seed:
///  - every tenant finishes all of its work (starvation-freedom),
///  - the DWRR drain is work-conserving — the batch finishes at the same
///    simulated instant as the FIFO drain (same jobs, same service demand,
///    regions never idle while work waits),
///  - the victims' worst-case latency under DWRR beats FIFO's, which is the
///    point of weighting the latency class (weight_latency > weight_batch).
struct FairnessOutcome {
  SimTime makespan = 0;
  SimTime victim_worst = 0;
  uint64_t completed = 0;
};

FairnessOutcome RunFairnessWorkload(uint64_t seed, bool fair) {
  FarviewConfig cfg;
  cfg.num_regions = 2;
  if (fair) {
    cfg.admission.enabled = true;
    // Caps and thresholds sized so nothing is shed: both modes then execute
    // the identical job set and throughput conservation is exact.
    cfg.admission.tenant_queue_cap = 256;
    cfg.admission.tenant_burst = 1e6;
    cfg.admission.tenant_rate_per_sec = 1e9;
    cfg.admission.shed_delay_batch = 1000 * kMillisecond;
    cfg.admission.shed_delay_latency = 1000 * kMillisecond;
    EXPECT_GT(cfg.admission.weight_latency, cfg.admission.weight_batch);
  }
  OverloadSchedulerFixture fx(cfg);

  Rng rng(seed);
  const int victims = 2 + static_cast<int>(rng.NextBelow(3));     // 2..4
  const int storm = 24 + static_cast<int>(rng.NextBelow(40));     // 24..63
  const int per_victim = 4 + static_cast<int>(rng.NextBelow(5));  // 4..8

  FairnessOutcome out;
  Result<QPair*> hot_qp = fx.node_->ConnectShared(7);
  EXPECT_TRUE(hot_qp.ok());
  for (int s = 0; s < storm; ++s) {
    fx.scheduler_->Submit(7, hot_qp.value()->qp_id, "k", fx.Factory(),
                          fx.ScanRequest(SloClass::kBatch),
                          [&out](Result<FvResult> r) {
                            EXPECT_TRUE(r.ok()) << r.status().ToString();
                            ++out.completed;
                          });
  }

  // Open-loop victims: the whole workload is on the queue at t=0, so both
  // drain modes face the identical arrival set — work conservation then
  // implies *exactly* equal makespans, not just similar throughput.
  for (int v = 0; v < victims; ++v) {
    Result<QPair*> qp = fx.node_->ConnectShared(100 + v);
    EXPECT_TRUE(qp.ok());
    for (int j = 0; j < per_victim; ++j) {
      fx.scheduler_->Submit(
          100 + v, qp.value()->qp_id, "k", fx.Factory(),
          fx.ScanRequest(SloClass::kLatencySensitive),
          [&out, &fx](Result<FvResult> r) {
            EXPECT_TRUE(r.ok()) << r.status().ToString();
            out.victim_worst = std::max(out.victim_worst, fx.engine_.Now());
            ++out.completed;
          });
    }
  }

  fx.engine_.Run();
  out.makespan = fx.engine_.Now();
  EXPECT_EQ(out.completed,
            static_cast<uint64_t>(storm + victims * per_victim));
  return out;
}

TEST(OverloadSchedulerTest, FairDrainIsWorkConservingAndStarvationFree) {
  for (const uint64_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    const FairnessOutcome fifo = RunFairnessWorkload(seed, /*fair=*/false);
    const FairnessOutcome fair = RunFairnessWorkload(seed, /*fair=*/true);
    EXPECT_EQ(fair.completed, fifo.completed) << "seed " << seed;
    // Work conservation: both drains keep every region busy while jobs
    // wait, so the batch finishes at (nearly) the same instant. Not exactly
    // — which jobs co-run on the two regions differs between the orders,
    // and co-running jobs contend on the shared DRAM channels — but the
    // reordering must never cost real throughput.
    const SimTime tolerance = fifo.makespan / 200;  // 0.5%
    EXPECT_LE(fair.makespan, fifo.makespan + tolerance)
        << "DWRR drain stopped being work-conserving (seed " << seed << ")";
    EXPECT_GE(fair.makespan, fifo.makespan - tolerance)
        << "DWRR drain finished impossibly early (seed " << seed << ")";
    EXPECT_LT(fair.victim_worst, fifo.victim_worst)
        << "weighting the latency class no longer helps (seed " << seed
        << ")";
  }
}

// The scheduler is the node's only admission point (DESIGN.md §15): with a
// one-token bucket, reads over a dedicated connection to a bare node and
// routed reads over a replicated pool are never shed, and no admission
// counter moves.
TEST(AdmissionScopeTest, DedicatedAndPoolReadsAreNeverShed) {
  FarviewConfig cfg;
  cfg.dram.channel_capacity = 32 * kMiB;
  cfg.admission.enabled = true;
  cfg.admission.tenant_burst = 1;
  cfg.admission.tenant_rate_per_sec = 1;
  Result<Table> rows =
      TableGenerator(1).Uniform(Schema::DefaultWideRow(), 1024, 100);
  ASSERT_TRUE(rows.ok());

  bench::FvFixture fx(cfg);
  const FTable bare_table = fx.Upload("t", rows.value());
  for (int i = 0; i < 10; ++i) {
    Result<FvResult> read = fx.client().TableRead(bare_table);
    EXPECT_TRUE(read.ok()) << "bare read " << i << ": "
                           << read.status().ToString();
  }
  EXPECT_FALSE(fx.node().stats().admission().AnyNonZero());

  ShardedConfig sc;
  sc.cluster.node = cfg;
  sc.cluster.num_replicas = 2;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  FTable pool_table;
  pool_table.name = "t";
  pool_table.schema = rows.value().schema();
  pool_table.num_rows = rows.value().num_rows();
  ASSERT_TRUE(client.AllocTableMem(&pool_table).ok());
  ASSERT_TRUE(client.TableWrite(pool_table, rows.value()).ok());
  for (int i = 0; i < 10; ++i) {
    Result<FvResult> read = client.TableRead(pool_table);
    EXPECT_TRUE(read.ok()) << "pool read " << i << ": "
                           << read.status().ToString();
  }
  for (int r = 0; r < 2; ++r) {
    EXPECT_FALSE(pool.shard(0).node(r).stats().admission().AnyNonZero())
        << "replica " << r;
  }
}

TEST(SubmissionQueueTest, RejectionHighWaterAndFlush) {
  SubmissionQueue q(/*depth=*/3);
  auto ctx = [] { return std::make_shared<RequestContext>(); };
  EXPECT_TRUE(q.CanAccept());
  q.Enqueue(ctx());
  ASSERT_TRUE(q.CanDispatch());
  RequestContextPtr running = q.PopForDispatch();
  q.Enqueue(ctx());
  q.Enqueue(ctx());
  // Depth counts the executing request too: the fourth submission is the
  // one the node rejects with a typed Status.
  EXPECT_FALSE(q.CanAccept());
  EXPECT_EQ(q.Outstanding(), 3u);
  EXPECT_EQ(q.high_water(), 3u);
  // Rejection leaves the queue untouched; draining works normally.
  std::vector<RequestContextPtr> flushed = q.Flush();
  EXPECT_EQ(flushed.size(), 2u);
  EXPECT_EQ(q.waiting(), 0u);
  EXPECT_TRUE(q.executing());
  q.MarkDone();
  EXPECT_FALSE(q.executing());
  // The high-water mark survives the flush (telemetry, not state).
  EXPECT_EQ(q.high_water(), 3u);
  EXPECT_TRUE(q.CanAccept());
}

}  // namespace
}  // namespace farview
