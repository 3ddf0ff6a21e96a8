// Tests for the elastic region scheduler: more clients than regions,
// pipeline-affinity scheduling, FIFO queuing, and error propagation.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "fv/client.h"
#include "fv/region_scheduler.h"
#include "table/generator.h"

namespace farview {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() {
    FarviewConfig cfg;
    cfg.num_regions = 2;  // small on purpose: force queuing
    node_ = std::make_unique<FarviewNode>(&engine_, cfg);
    scheduler_ = std::make_unique<RegionScheduler>(node_.get());

    // One shared table uploaded by an owner client.
    TableGenerator gen(1);
    Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), 20000, 100);
    EXPECT_TRUE(t.ok());
    table_.emplace(std::move(t).value());
    Result<QPair*> owner = node_->ConnectShared(/*client_id=*/1);
    EXPECT_TRUE(owner.ok());
    owner_qp_ = owner.value();
    Result<uint64_t> vaddr =
        node_->AllocTableMem(*owner_qp_, table_->size_bytes());
    EXPECT_TRUE(vaddr.ok());
    vaddr_ = vaddr.value();
    EXPECT_TRUE(node_->mmu()
                    .Write(1, vaddr_, table_->size_bytes(), table_->data())
                    .ok());
    EXPECT_TRUE(node_->ShareTableMem(*owner_qp_, vaddr_).ok());
  }

  FvRequest ScanRequest() const {
    FvRequest req;
    req.vaddr = vaddr_;
    req.len = table_->size_bytes();
    req.tuple_bytes = 64;
    return req;
  }

  RegionScheduler::PipelineFactory SelectFactory(int64_t threshold) const {
    return [threshold]() {
      return PipelineBuilder(Schema::DefaultWideRow())
          .Select({Predicate::Int(0, CompareOp::kLt, threshold)})
          .Build();
    };
  }

  sim::Engine engine_;
  std::unique_ptr<FarviewNode> node_;
  std::unique_ptr<RegionScheduler> scheduler_;
  std::optional<Table> table_;
  QPair* owner_qp_ = nullptr;
  uint64_t vaddr_ = 0;
};

TEST_F(SchedulerTest, SharedConnectionCannotUseDirectPath) {
  bool failed = false;
  node_->FarviewRequest(owner_qp_->qp_id, ScanRequest(),
                        [&failed](Result<FvResult> r) {
                          failed = r.status().IsFailedPrecondition();
                        });
  engine_.Run();
  EXPECT_TRUE(failed);
}

TEST_F(SchedulerTest, LeavesADedicatedConnectionItsRegion) {
  // The fixture's scheduler hands both regions back when it goes; rebuilt
  // after a dedicated client took region 0, it claims region 1 only. A
  // region shared with the scheduler would starve the client: its read
  // would queue behind a job whose completion only the scheduler sees.
  scheduler_.reset();
  FarviewClient dedicated(node_.get(), /*client_id=*/2);
  ASSERT_TRUE(dedicated.OpenConnection().ok());
  ASSERT_EQ(dedicated.qp()->region_id, 0);
  scheduler_ = std::make_unique<RegionScheduler>(node_.get());
  EXPECT_EQ(scheduler_->num_regions(), 1);
  EXPECT_TRUE(node_->Connect(/*client_id=*/3).status().IsUnavailable());

  std::optional<Result<FvResult>> job, read;
  const SimTime t0 = engine_.Now();
  scheduler_->Submit(1, owner_qp_->qp_id, "select<50", SelectFactory(50),
                     ScanRequest(),
                     [&](Result<FvResult> r) { job.emplace(std::move(r)); });
  engine_.ScheduleAt(
      t0 + node_->config().region_reconfig_time + 10 * kMicrosecond, [&]() {
        EXPECT_TRUE(node_->region(1).busy()) << "job not running on region 1";
        node_->TableRead(
            dedicated.qp()->qp_id, vaddr_, table_->size_bytes(),
            [&](Result<FvResult> r) { read.emplace(std::move(r)); });
      });
  engine_.Run();

  ASSERT_TRUE(job.has_value());
  EXPECT_TRUE(job->ok()) << job->status().ToString();
  ASSERT_TRUE(read.has_value()) << "the dedicated read never settled";
  EXPECT_TRUE(read->ok()) << read->status().ToString();
  EXPECT_TRUE(node_->region(1).HasPipeline());
  EXPECT_FALSE(node_->region(0).HasPipeline());
}

TEST_F(SchedulerTest, MoreClientsThanRegionsAllComplete) {
  constexpr int kClients = 8;  // vs 2 regions
  std::vector<QPair*> qps;
  for (int i = 0; i < kClients; ++i) {
    Result<QPair*> qp = node_->ConnectShared(100 + i);
    ASSERT_TRUE(qp.ok());
    qps.push_back(qp.value());
  }
  int completed = 0;
  uint64_t total_rows = 0;
  for (int i = 0; i < kClients; ++i) {
    scheduler_->Submit(
        100 + i, qps[static_cast<size_t>(i)]->qp_id, "select<50",
        SelectFactory(50), ScanRequest(),
        [&completed, &total_rows](Result<FvResult> r) {
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          total_rows += r.value().rows;
          ++completed;
        });
  }
  engine_.Run();
  EXPECT_EQ(completed, kClients);
  EXPECT_EQ(scheduler_->jobs_completed(), static_cast<uint64_t>(kClients));
  EXPECT_GT(total_rows, 0u);
  // All eight jobs used the same pipeline: at most one reconfiguration per
  // region.
  EXPECT_LE(scheduler_->reconfigurations(), 2u);
  EXPECT_GE(scheduler_->affinity_hits(), static_cast<uint64_t>(kClients - 2));
}

TEST_F(SchedulerTest, AffinityAvoidsReconfiguration) {
  Result<QPair*> qp = node_->ConnectShared(7);
  ASSERT_TRUE(qp.ok());
  // First job: pays the reconfiguration (~5 ms).
  SimTime first = 0, second = 0;
  const SimTime t0 = engine_.Now();
  scheduler_->Submit(7, qp.value()->qp_id, "k", SelectFactory(10),
                     ScanRequest(), [&](Result<FvResult> r) {
                       ASSERT_TRUE(r.ok());
                       first = engine_.Now() - t0;
                     });
  engine_.Run();
  const SimTime t1 = engine_.Now();
  scheduler_->Submit(7, qp.value()->qp_id, "k", SelectFactory(10),
                     ScanRequest(), [&](Result<FvResult> r) {
                       ASSERT_TRUE(r.ok());
                       second = engine_.Now() - t1;
                     });
  engine_.Run();
  EXPECT_EQ(scheduler_->reconfigurations(), 1u);
  // The cached run skips the milliseconds of partial reconfiguration.
  EXPECT_GT(first, second + 4 * kMillisecond);
}

TEST_F(SchedulerTest, DistinctKeysForceReconfiguration) {
  Result<QPair*> qp = node_->ConnectShared(9);
  ASSERT_TRUE(qp.ok());
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    scheduler_->Submit(9, qp.value()->qp_id,
                       "select<" + std::to_string(i * 10 + 10),
                       SelectFactory(i * 10 + 10), ScanRequest(),
                       [&completed](Result<FvResult> r) {
                         ASSERT_TRUE(r.ok());
                         ++completed;
                       });
    engine_.Run();
  }
  EXPECT_EQ(completed, 4);
  // Four distinct pipelines over two fresh regions: every job after the
  // region's first still needs its own bitstream (keys differ).
  EXPECT_EQ(scheduler_->reconfigurations(), 4u);
}

TEST_F(SchedulerTest, FactoryErrorPropagates) {
  Result<QPair*> qp = node_->ConnectShared(5);
  ASSERT_TRUE(qp.ok());
  bool failed = false;
  scheduler_->Submit(
      5, qp.value()->qp_id, "bad",
      []() -> Result<Pipeline> {
        return Status::InvalidArgument("bad pipeline");
      },
      ScanRequest(), [&failed](Result<FvResult> r) {
        failed = r.status().IsInvalidArgument();
      });
  engine_.Run();
  EXPECT_TRUE(failed);
  // The region is reusable afterwards.
  bool ok = false;
  scheduler_->Submit(5, qp.value()->qp_id, "good", SelectFactory(50),
                     ScanRequest(),
                     [&ok](Result<FvResult> r) { ok = r.ok(); });
  engine_.Run();
  EXPECT_TRUE(ok);
}

TEST_F(SchedulerTest, IsolationStillEnforced) {
  // A shared-connection client without access to the table gets an MMU
  // fault, not data.
  Result<QPair*> qp = node_->ConnectShared(66);
  ASSERT_TRUE(qp.ok());
  Result<uint64_t> priv = node_->AllocTableMem(*owner_qp_, 4096);
  ASSERT_TRUE(priv.ok());  // owner's private allocation (not shared)
  FvRequest req;
  req.vaddr = priv.value();
  req.len = 4096;
  req.tuple_bytes = 64;
  bool failed = false;
  scheduler_->Submit(66, qp.value()->qp_id, "steal", SelectFactory(100), req,
                     [&failed](Result<FvResult> r) { failed = !r.ok(); });
  engine_.Run();
  EXPECT_TRUE(failed);
}

TEST_F(SchedulerTest, QueueDrainsInOrderUnderLoad) {
  // Twelve jobs with the same key over two regions: the queue grows, then
  // drains; total completions match.
  Result<QPair*> qp = node_->ConnectShared(3);
  ASSERT_TRUE(qp.ok());
  std::vector<int> completion_order;
  for (int i = 0; i < 12; ++i) {
    scheduler_->Submit(3, qp.value()->qp_id, "k", SelectFactory(20),
                       ScanRequest(),
                       [&completion_order, i](Result<FvResult> r) {
                         ASSERT_TRUE(r.ok());
                         completion_order.push_back(i);
                       });
  }
  engine_.Run();
  ASSERT_EQ(completion_order.size(), 12u);
  // FIFO within a key: completions come out in submission order (regions
  // are symmetric and jobs identical).
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(completion_order[static_cast<size_t>(i)], i);
  }
}


TEST_F(SchedulerTest, CrashFailsArrivalsFlushesWaitingAndVoidsInFlight) {
  // Regression: shared connections get the dedicated path's crash contract
  // (FvFaultConfig). Before the fix a job submitted to a crashed node ran
  // to completion with OK and no crash failure was counted.
  Result<QPair*> qp = node_->ConnectShared(4);
  ASSERT_TRUE(qp.ok());
  const int qp_id = qp.value()->qp_id;
  // Prime both regions with the pipeline so the next jobs start at once.
  for (int i = 0; i < 2; ++i) {
    scheduler_->Submit(4, qp_id, "k", SelectFactory(50), ScanRequest(),
                       [](Result<FvResult> r) { ASSERT_TRUE(r.ok()); });
  }
  engine_.Run();

  // Two jobs execute, two wait; the crash lands while the first two are
  // still streaming.
  std::vector<Status> outcomes;
  for (int i = 0; i < 4; ++i) {
    scheduler_->Submit(4, qp_id, "k", SelectFactory(50), ScanRequest(),
                       [&outcomes](Result<FvResult> r) {
                         outcomes.push_back(r.status());
                       });
  }
  size_t waiting_at_crash = 0;
  engine_.ScheduleAfter(10 * kMicrosecond, [&]() {
    waiting_at_crash = scheduler_->queued_jobs();
    node_->CrashNow();
    EXPECT_EQ(scheduler_->queued_jobs(), 0u) << "waiting jobs not flushed";
    // An arrival while the node is down fails too.
    scheduler_->Submit(4, qp_id, "k", SelectFactory(50), ScanRequest(),
                       [&outcomes](Result<FvResult> r) {
                         outcomes.push_back(r.status());
                       });
  });
  engine_.Run();

  EXPECT_EQ(waiting_at_crash, 2u);
  ASSERT_EQ(outcomes.size(), 5u);
  for (const Status& s : outcomes) {
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  }
  EXPECT_EQ(node_->stats().reliability().crash_failures, 5u);

  // After a restart the scheduler serves again.
  node_->RestartNow();
  std::optional<Result<FvResult>> after;
  scheduler_->Submit(4, qp_id, "k", SelectFactory(50), ScanRequest(),
                     [&after](Result<FvResult> r) { after.emplace(r); });
  engine_.Run();
  ASSERT_TRUE(after.has_value());
  ASSERT_TRUE(after->ok()) << after->status().ToString();
  EXPECT_GT(after->value().rows, 0u);

  // The node outlives the scheduler: a later crash must not reach it.
  scheduler_.reset();
  node_->CrashNow();
  EXPECT_TRUE(node_->down());
}

/// A node whose scheduler serves one tenant's scans of a 2000-row table,
/// all jobs of one pipeline.
struct OneTenantNode {
  explicit OneTenantNode(const FarviewConfig& cfg)
      : node(&engine, cfg), scheduler(&node) {
    TableGenerator gen(1);
    Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), 2000, 100);
    EXPECT_TRUE(t.ok());
    const Table& table = t.value();
    Result<QPair*> qp = node.ConnectShared(/*client_id=*/1);
    EXPECT_TRUE(qp.ok());
    qp_id = qp.value()->qp_id;
    Result<uint64_t> vaddr =
        node.AllocTableMem(*qp.value(), table.size_bytes());
    EXPECT_TRUE(vaddr.ok());
    EXPECT_TRUE(node.mmu()
                    .Write(1, vaddr.value(), table.size_bytes(), table.data())
                    .ok());
    req.vaddr = vaddr.value();
    req.len = table.size_bytes();
    req.tuple_bytes = 64;
  }

  void Submit(std::function<void(Result<FvResult>)> done) {
    scheduler.Submit(1, qp_id, "select<50",
                     []() {
                       return PipelineBuilder(Schema::DefaultWideRow())
                           .Select({Predicate::Int(0, CompareOp::kLt, 50)})
                           .Build();
                     },
                     req, std::move(done));
  }

  sim::Engine engine;
  FarviewNode node;
  RegionScheduler scheduler;
  int qp_id = 0;
  FvRequest req;
};

/// Runs `jobs` scheduler jobs of one tenant over a two-region node whose
/// regions listed in `faulted` are faulted from the start (the fault never
/// clears); returns each job's outcome.
std::vector<Status> RunJobsBesideFaultedRegions(bool admission,
                                                const std::vector<int>& faulted,
                                                int jobs) {
  FarviewConfig cfg;
  cfg.num_regions = 2;
  cfg.admission.enabled = admission;
  OneTenantNode n(cfg);
  for (const int r : faulted) n.node.region(r).InjectFault();
  std::vector<Status> outcomes;
  for (int i = 0; i < jobs; ++i) {
    n.Submit([&outcomes](Result<FvResult> r) {
      outcomes.push_back(r.status());
    });
  }
  n.engine.Run();
  return outcomes;
}

TEST(SchedulerFaultTest, FaultedRegionTakesNoJobs) {
  // Regression: a faulted region is idle, so the scheduler handed it the
  // next job, which failed at once and left it idle for the one after —
  // with region 0 faulted, one job of eight completed while region 1 was
  // healthy. Every job now waits for the healthy region.
  for (const bool admission : {false, true}) {
    SCOPED_TRACE(admission ? "admission on" : "admission off");
    const std::vector<Status> outcomes =
        RunJobsBesideFaultedRegions(admission, /*faulted=*/{0}, /*jobs=*/8);
    ASSERT_EQ(outcomes.size(), 8u);
    for (const Status& s : outcomes) EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

TEST(SchedulerFaultTest, EveryRegionFaultedFailsTheWaitingJobs) {
  // With every region faulted and none busy, the waiting jobs fail with
  // Unavailable at once, as a faulted dedicated region's queue does,
  // instead of waiting for a fault that here never clears.
  for (const bool admission : {false, true}) {
    SCOPED_TRACE(admission ? "admission on" : "admission off");
    const std::vector<Status> outcomes =
        RunJobsBesideFaultedRegions(admission, /*faulted=*/{0, 1}, /*jobs=*/4);
    ASSERT_EQ(outcomes.size(), 4u);
    for (const Status& s : outcomes) {
      EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
    }
  }
}

TEST(SchedulerFaultTest, HealedRegionTakesWaitingJobs) {
  // Regression: the scheduler was not told when a fault cleared, so jobs
  // waiting while the healthy region reconfigured started on the healed
  // region only at the next completion. Region 0 is faulted from 0 to 1 ms
  // and three jobs of one pipeline arrive at once: job 1 reconfigures
  // region 1, and at 1 ms job 2 must start reconfiguring region 0. Job 3
  // then runs on region 1 once job 1 ends, so every job is done within two
  // reconfiguration times; serialized, the last ended at 10.02 ms.
  for (const bool admission : {false, true}) {
    SCOPED_TRACE(admission ? "admission on" : "admission off");
    FarviewConfig cfg;
    cfg.num_regions = 2;
    cfg.admission.enabled = admission;
    cfg.faults.enabled = true;
    cfg.faults.faulted_region = 0;
    cfg.faults.region_fault_at = 0;
    cfg.faults.region_fault_duration = kMillisecond;
    OneTenantNode n(cfg);
    std::vector<SimTime> finished;
    for (int i = 0; i < 3; ++i) {
      n.Submit([&n, &finished](Result<FvResult> r) {
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        finished.push_back(n.engine.Now());
      });
    }
    n.engine.RunUntil(cfg.faults.region_fault_duration + kNanosecond);
    EXPECT_FALSE(n.node.region(0).faulted());
    EXPECT_EQ(n.scheduler.queued_jobs(), 1u) << "the healed region idles";
    n.engine.Run();
    ASSERT_EQ(finished.size(), 3u);
    EXPECT_LT(finished.back(), 2 * cfg.region_reconfig_time);
    EXPECT_EQ(n.scheduler.reconfigurations(), 2u);
  }
}

}  // namespace
}  // namespace farview
