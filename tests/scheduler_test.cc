// Tests for the elastic region scheduler: more clients than regions,
// pipeline-affinity scheduling, FIFO queuing, and error propagation.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

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

}  // namespace
}  // namespace farview
