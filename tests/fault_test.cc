// Fault-injection and reliability tests (DESIGN.md §7): seeded packet
// loss/corruption and link flaps in the network stack, region stalls and
// fault windows, node crash/restart, and the client-side timeout/retry/
// fallback policy. Every test must hold for ANY seed — the CI sweep reruns
// the `faults` label under several FV_FAULT_SEED values — so assertions
// check invariants (data integrity, monotonicity, counter signs), never
// seed-specific event counts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "benchlib/experiment.h"
#include "fv/client.h"
#include "fv/farview_node.h"
#include "fv/sharding.h"
#include "net/fault_plan.h"
#include "net/rnic_model.h"
#include "table/generator.h"

namespace farview {
namespace {

/// Seed under test: FV_FAULT_SEED when set (the CI seed sweep), else 1.
uint64_t TestSeed() {
  const char* env = std::getenv("FV_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

Table MakeRows(uint64_t bytes) {
  TableGenerator gen(7);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), bytes / 64, 100);
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// One synchronous table read; dies on setup failure.
Result<FvResult> ReadOnce(bench::FvFixture& fx, const FTable& ft) {
  return fx.client().TableRead(ft);
}

/// Unallocated handle of a table "t" sized for `rows`.
FTable Handle(const Table& rows) {
  FTable ft;
  ft.name = "t";
  ft.schema = rows.schema();
  ft.num_rows = rows.num_rows();
  return ft;
}

/// Allocates Farview memory for `rows` WITHOUT running the engine (pure
/// bookkeeping). Tests that interleave requests with config-scheduled fault
/// events (absolute sim times) must schedule those requests before the
/// first engine drain — `FvFixture::Upload`'s synchronous write would
/// otherwise run the whole fault timeline to completion first.
FTable AllocOnly(bench::FvFixture& fx, const Table& rows) {
  FTable ft = Handle(rows);
  EXPECT_TRUE(fx.client().AllocTableMem(&ft).ok());
  return ft;
}

/// A node with the client retry policy on. The policy runs in the pool
/// client, so the node is a one-shard, one-replica pool (DESIGN.md §7).
class RetryPool {
 public:
  explicit RetryPool(const FarviewConfig& node)
      : pool_(&engine_, PoolConfig(node)), client_(&pool_, /*client_id=*/1) {
    EXPECT_TRUE(client_.OpenConnection().ok());
  }

  sim::Engine& engine() { return engine_; }
  FarviewNode& node() { return pool_.shard(0).node(0); }
  ShardedClient& client() { return client_; }

  /// Allocates without running the engine (see `AllocOnly` above).
  FTable AllocOnly(const Table& rows) {
    FTable ft = Handle(rows);
    EXPECT_TRUE(client_.AllocTableMem(&ft).ok());
    return ft;
  }

  FTable Upload(const Table& rows) {
    const FTable ft = AllocOnly(rows);
    EXPECT_TRUE(client_.TableWrite(ft, rows).ok());
    return ft;
  }

 private:
  static ShardedConfig PoolConfig(const FarviewConfig& node) {
    ShardedConfig sc;
    sc.cluster.node = node;
    return sc;
  }

  sim::Engine engine_;
  ShardedPool pool_;
  ShardedClient client_;
};

// --- FaultPlan unit behavior ------------------------------------------------

TEST(FaultPlanTest, SameSeedSameFates) {
  NetFaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = TestSeed();
  cfg.packet_loss_rate = 0.3;
  cfg.packet_corrupt_rate = 0.2;
  FaultPlan a(cfg);
  FaultPlan b(cfg);
  int lost = 0;
  int corrupted = 0;
  for (int i = 0; i < 2000; ++i) {
    const FaultPlan::PacketFate fate = a.NextPacketFate();
    EXPECT_EQ(fate, b.NextPacketFate());
    if (fate == FaultPlan::PacketFate::kLost) ++lost;
    if (fate == FaultPlan::PacketFate::kCorrupted) ++corrupted;
  }
  EXPECT_EQ(a.draws(), 2000u);
  // Law of large numbers at test scale: both fates occur, neither dominates.
  EXPECT_GT(lost, 0);
  EXPECT_GT(corrupted, 0);
  EXPECT_LT(lost, 1000);
  EXPECT_LT(corrupted, 1000);
}

TEST(FaultPlanTest, LinkFlapWindowsAreDeterministic) {
  NetFaultConfig cfg;
  cfg.enabled = true;
  cfg.link_flap_period = 100 * kMicrosecond;
  cfg.link_flap_down = 10 * kMicrosecond;
  FaultPlan plan(cfg);
  // No flap before the first period boundary (t = 0 stays clean).
  EXPECT_FALSE(plan.LinkDownAt(0));
  EXPECT_FALSE(plan.LinkDownAt(50 * kMicrosecond));
  // Down window is [k*period, k*period + down) for k >= 1.
  EXPECT_TRUE(plan.LinkDownAt(100 * kMicrosecond));
  EXPECT_TRUE(plan.LinkDownAt(109 * kMicrosecond));
  EXPECT_FALSE(plan.LinkDownAt(110 * kMicrosecond));
  EXPECT_TRUE(plan.LinkDownAt(200 * kMicrosecond));
  EXPECT_EQ(plan.NextLinkUpAfter(103 * kMicrosecond), 110 * kMicrosecond);
  EXPECT_EQ(plan.NextLinkUpAfter(205 * kMicrosecond), 210 * kMicrosecond);
}

// --- Network-stack fault behavior -------------------------------------------

TEST(NetFaultTest, PacketLossDeliversIdenticalDataAfterRetransmits) {
  const Table rows = MakeRows(256 * kKiB);

  bench::FvFixture clean;
  const FTable ft_clean = clean.Upload("t", rows);
  Result<FvResult> baseline = ReadOnce(clean, ft_clean);
  ASSERT_TRUE(baseline.ok());

  FarviewConfig cfg;
  cfg.net.faults.enabled = true;
  cfg.net.faults.seed = TestSeed();
  cfg.net.faults.packet_loss_rate = 0.05;
  bench::FvFixture lossy(cfg);
  const FTable ft = lossy.Upload("t", rows);
  Result<FvResult> read = ReadOnce(lossy, ft);
  ASSERT_TRUE(read.ok());

  // Loss costs time, never data: the reorder buffer releases in order and
  // every retransmission succeeds.
  EXPECT_EQ(read.value().data, baseline.value().data);
  EXPECT_GE(read.value().Elapsed(), baseline.value().Elapsed());
  const NetworkStack::FaultCounters& fc = lossy.node().network().fault_counters();
  EXPECT_GT(fc.packets_lost, 0u);
  EXPECT_EQ(fc.retransmits, fc.packets_lost + fc.packets_corrupted);
}

TEST(NetFaultTest, CorruptionIsRetransmittedLikeLoss) {
  const Table rows = MakeRows(256 * kKiB);
  FarviewConfig cfg;
  cfg.net.faults.enabled = true;
  cfg.net.faults.seed = TestSeed();
  cfg.net.faults.packet_corrupt_rate = 0.05;
  bench::FvFixture fx(cfg);
  const FTable ft = fx.Upload("t", rows);
  Result<FvResult> read = ReadOnce(fx, ft);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data.size(), rows.size_bytes());
  EXPECT_GT(fx.node().network().fault_counters().packets_corrupted, 0u);
}

TEST(NetFaultTest, LinkFlapStallsButCompletes) {
  const Table rows = MakeRows(1 * kMiB);

  bench::FvFixture clean;
  const FTable ft_clean = clean.Upload("t", rows);
  Result<FvResult> baseline = ReadOnce(clean, ft_clean);
  ASSERT_TRUE(baseline.ok());

  FarviewConfig cfg;
  cfg.net.faults.enabled = true;
  cfg.net.faults.seed = TestSeed();
  cfg.net.faults.link_flap_period = 40 * kMicrosecond;
  cfg.net.faults.link_flap_down = 10 * kMicrosecond;
  bench::FvFixture fx(cfg);
  const FTable ft = fx.Upload("t", rows);
  Result<FvResult> read = ReadOnce(fx, ft);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, baseline.value().data);
  // A ~90 us transfer crosses at least one 10 us down-window.
  EXPECT_GT(fx.node().network().fault_counters().flap_stalls, 0u);
  EXPECT_GT(read.value().Elapsed(), baseline.value().Elapsed());
}

TEST(NetFaultTest, SameSeedReproducesTheExactSchedule) {
  const Table rows = MakeRows(128 * kKiB);
  FarviewConfig cfg;
  cfg.net.faults.enabled = true;
  cfg.net.faults.seed = TestSeed();
  cfg.net.faults.packet_loss_rate = 0.1;

  SimTime elapsed[2];
  uint64_t retransmits[2];
  for (int run = 0; run < 2; ++run) {
    bench::FvFixture fx(cfg);
    const FTable ft = fx.Upload("t", rows);
    Result<FvResult> read = ReadOnce(fx, ft);
    ASSERT_TRUE(read.ok());
    elapsed[run] = read.value().Elapsed();
    retransmits[run] = fx.node().network().fault_counters().retransmits;
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
  EXPECT_EQ(retransmits[0], retransmits[1]);
}

// --- Region faults and stalls ----------------------------------------------

TEST(RegionFaultTest, StallDelaysExecutionAndIsCounted) {
  const Table rows = MakeRows(64 * kKiB);

  bench::FvFixture clean;
  const FTable ft_clean = clean.Upload("t", rows);
  Result<FvResult> baseline = ReadOnce(clean, ft_clean);
  ASSERT_TRUE(baseline.ok());

  FarviewConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.seed = TestSeed();
  cfg.faults.region_stall_prob = 1.0;  // every dispatch stalls
  cfg.faults.region_stall_time = 20 * kMicrosecond;
  bench::FvFixture fx(cfg);
  const FTable ft = fx.Upload("t", rows);
  Result<FvResult> read = ReadOnce(fx, ft);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, baseline.value().data);
  EXPECT_GE(fx.node().stats().reliability().region_stalls, 1u);
  // The client-observed latency carries the full injected stall.
  EXPECT_GE(read.value().Elapsed(),
            baseline.value().Elapsed() + 20 * kMicrosecond);
}

TEST(RegionFaultTest, FaultWindowFailsRequestsThenHeals) {
  const Table rows = MakeRows(64 * kKiB);
  FarviewConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.seed = TestSeed();
  cfg.faults.faulted_region = 0;
  cfg.faults.region_fault_at = 5 * kMillisecond;
  cfg.faults.region_fault_duration = 2 * kMillisecond;
  bench::FvFixture fx(cfg);
  const FTable ft = AllocOnly(fx, rows);

  std::optional<Result<FvResult>> before, during, after;
  fx.engine().ScheduleAt(1 * kMillisecond, [&]() {
    fx.client().TableReadAsync(
        ft, [&](Result<FvResult> r) { before.emplace(std::move(r)); });
  });
  fx.engine().ScheduleAt(6 * kMillisecond, [&]() {
    fx.client().TableReadAsync(
        ft, [&](Result<FvResult> r) { during.emplace(std::move(r)); });
  });
  fx.engine().ScheduleAt(8 * kMillisecond, [&]() {
    fx.client().TableReadAsync(
        ft, [&](Result<FvResult> r) { after.emplace(std::move(r)); });
  });
  // The synchronous write drains the engine, interleaving the write (us
  // scale), the scheduled reads, and the fault window in time order.
  ASSERT_TRUE(fx.client().TableWrite(ft, rows).ok());
  fx.engine().Run();
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(during.has_value());
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(before->ok());
  EXPECT_TRUE(during->status().IsUnavailable());
  EXPECT_TRUE(after->ok());
  EXPECT_EQ(fx.node().stats().reliability().region_faults, 1u);
  EXPECT_FALSE(fx.node().region(0).faulted());
}

TEST(RegionFaultTest, FallbackServesRawBytesWhileFaulted) {
  const Table rows = MakeRows(64 * kKiB);
  FarviewConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.seed = TestSeed();
  cfg.faults.faulted_region = 0;
  cfg.faults.region_fault_at = 0;  // faulted from the start, permanently
  cfg.retry.enabled = true;
  RetryPool fx(cfg);
  const FTable ft = fx.Upload(rows);

  Result<FvResult> read = fx.client().TableRead(ft);
  ASSERT_TRUE(read.ok());
  // Graceful degradation: the client got base-table bytes over the raw
  // RNIC-style path, flagged as degraded.
  EXPECT_TRUE(read.value().degraded_raw);
  EXPECT_EQ(read.value().data.size(), rows.size_bytes());
  EXPECT_EQ(0, std::memcmp(read.value().data.data(), rows.data(),
                           rows.size_bytes()));
  EXPECT_GE(fx.node().stats().reliability().fallbacks, 1u);
  EXPECT_GE(fx.node().stats().failed_count(), 1u);
}

TEST(RegionFaultTest, RetryOutlivesTheFaultWindow) {
  const Table rows = MakeRows(64 * kKiB);
  FarviewConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.seed = TestSeed();
  cfg.faults.faulted_region = 0;
  cfg.faults.region_fault_at = 2 * kMillisecond;
  cfg.faults.region_fault_duration = 100 * kMicrosecond;
  cfg.retry.enabled = true;
  cfg.retry.raw_read_fallback = false;  // force the backoff-retry path
  RetryPool fx(cfg);
  const FTable ft = fx.AllocOnly(rows);

  std::optional<Result<FvResult>> out;
  fx.engine().ScheduleAt(2 * kMillisecond + 10 * kMicrosecond, [&]() {
    fx.client().TableReadAsync(
        ft, [&](Result<FvResult> r) { out.emplace(std::move(r)); });
  });
  ASSERT_TRUE(fx.client().TableWrite(ft, rows).ok());
  fx.engine().Run();
  ASSERT_TRUE(out.has_value());
  // The first attempt hits the fault window; capped-backoff retries land
  // after the region heals and the request completes undegraded.
  ASSERT_TRUE(out->ok());
  EXPECT_FALSE(out->value().degraded_raw);
  EXPECT_GE(fx.node().stats().reliability().retries, 1u);
}

// --- Node crash and restart -------------------------------------------------

TEST(CrashTest, CrashFailsInflightAndQueuedThenRestartRecovers) {
  const Table rows = MakeRows(1 * kMiB);
  FarviewConfig cfg;
  cfg.submission_queue_depth = 2;  // let a second request actually queue
  bench::FvFixture fx(cfg);
  const FTable ft = fx.Upload("t", rows);
  Result<Pipeline> p = PipelineBuilder(ft.schema).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(fx.client().LoadPipeline(std::move(p).value()).ok());

  const SimTime t0 = fx.engine().Now();
  std::optional<Result<FvResult>> inflight, queued, while_down, recovered;
  fx.engine().ScheduleAt(t0 + 10 * kMicrosecond, [&]() {
    fx.client().TableReadAsync(
        ft, [&](Result<FvResult> r) { inflight.emplace(std::move(r)); });
  });
  fx.engine().ScheduleAt(t0 + 20 * kMicrosecond, [&]() {
    fx.client().TableReadAsync(
        ft, [&](Result<FvResult> r) { queued.emplace(std::move(r)); });
  });
  // Crash mid-flight: the 1 MiB read takes ~90 us.
  fx.engine().ScheduleAt(t0 + 50 * kMicrosecond,
                         [&]() { fx.node().CrashNow(); });
  fx.engine().ScheduleAt(t0 + 60 * kMicrosecond, [&]() {
    fx.client().TableReadAsync(
        ft, [&](Result<FvResult> r) { while_down.emplace(std::move(r)); });
  });
  fx.engine().ScheduleAt(t0 + 500 * kMicrosecond,
                         [&]() { fx.node().RestartNow(); });
  fx.engine().ScheduleAt(t0 + 600 * kMicrosecond, [&]() {
    // The pipeline survived the restart (configuration flash): the Farview
    // verb works without reloading it.
    fx.client().FarviewRequestAsync(
        fx.client().ScanRequest(ft),
        [&](Result<FvResult> r) { recovered.emplace(std::move(r)); });
  });
  fx.engine().Run();

  ASSERT_TRUE(inflight.has_value());
  ASSERT_TRUE(queued.has_value());
  ASSERT_TRUE(while_down.has_value());
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(inflight->status().IsUnavailable());  // in-flight state died
  EXPECT_TRUE(queued->status().IsUnavailable());    // flushed at the crash
  EXPECT_TRUE(while_down->status().IsUnavailable());
  EXPECT_TRUE(recovered->ok());

  const NodeStats::ReliabilityStats& rel = fx.node().stats().reliability();
  EXPECT_EQ(rel.node_crashes, 1u);
  EXPECT_EQ(rel.node_restarts, 1u);
  EXPECT_GE(rel.crash_failures, 3u);
}

TEST(CrashTest, ScheduledCrashAndRestartFromConfig) {
  const Table rows = MakeRows(64 * kKiB);
  FarviewConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.seed = TestSeed();
  cfg.faults.node_crash_at = 2 * kMillisecond;
  cfg.faults.node_restart_at = 3 * kMillisecond;
  bench::FvFixture fx(cfg);
  const FTable ft = AllocOnly(fx, rows);

  std::optional<Result<FvResult>> during, after;
  fx.engine().ScheduleAt(2 * kMillisecond + 100 * kMicrosecond, [&]() {
    fx.client().TableReadAsync(
        ft, [&](Result<FvResult> r) { during.emplace(std::move(r)); });
  });
  fx.engine().ScheduleAt(4 * kMillisecond, [&]() {
    fx.client().TableReadAsync(
        ft, [&](Result<FvResult> r) { after.emplace(std::move(r)); });
  });
  ASSERT_TRUE(fx.client().TableWrite(ft, rows).ok());
  fx.engine().Run();
  ASSERT_TRUE(during.has_value());
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(during->status().IsUnavailable());
  EXPECT_TRUE(after->ok());
  EXPECT_EQ(fx.node().stats().reliability().node_crashes, 1u);
  EXPECT_EQ(fx.node().stats().reliability().node_restarts, 1u);
}

// A read dispatched before the crash reached the node before it, so the
// crash voids it even when its injected stall holds it out of the region
// until after the crash, and whether or not the node is back by then.
TEST(CrashTest, StalledReadSpanningTheCrashFails) {
  const Table rows = MakeRows(64 * kKiB);
  for (const bool restart : {false, true}) {
    SCOPED_TRACE(restart ? "restart before the stall ends" : "no restart");
    FarviewConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.seed = TestSeed();
    cfg.faults.region_stall_prob = 1.0;  // every dispatch stalls
    cfg.faults.region_stall_time = 20 * kMicrosecond;
    bench::FvFixture fx(cfg);
    const FTable ft = fx.Upload("t", rows);

    // The read is dispatched as it arrives and stalls for 20 us; the crash
    // (and the restart) fall inside the stall.
    const SimTime dispatched = fx.engine().Now() + cfg.net.fv_request_latency;
    std::optional<Result<FvResult>> read;
    fx.client().TableReadAsync(
        ft, [&](Result<FvResult> r) { read.emplace(std::move(r)); });
    fx.engine().ScheduleAt(dispatched + 5 * kMicrosecond,
                           [&]() { fx.node().CrashNow(); });
    if (restart) {
      fx.engine().ScheduleAt(dispatched + 10 * kMicrosecond,
                             [&]() { fx.node().RestartNow(); });
    }
    fx.engine().Run();

    ASSERT_TRUE(read.has_value());
    EXPECT_TRUE(read->status().IsUnavailable());
    const NodeStats::ReliabilityStats& rel = fx.node().stats().reliability();
    EXPECT_EQ(rel.region_stalls, 1u);
    EXPECT_EQ(rel.crash_failures, 1u);
  }
}

// A raw read's stream dies with the node too: a restart before its last
// byte does not bring it back.
TEST(CrashTest, RawReadSpanningCrashAndRestartFails) {
  const Table rows = MakeRows(1 * kMiB);
  bench::FvFixture fx;
  const FTable ft = fx.Upload("t", rows);
  const int qp_id = fx.client().qp()->qp_id;
  auto raw_read = [&](std::optional<Result<FvResult>>* out) {
    fx.node().RawRead(
        qp_id, ft.vaddr, rows.size_bytes(),
        [out](Result<FvResult> r) { out->emplace(std::move(r)); });
  };

  // Unfaulted, the 1 MiB stream outlasts the crash window below.
  std::optional<Result<FvResult>> clean;
  raw_read(&clean);
  fx.engine().Run();
  ASSERT_TRUE(clean.has_value() && clean->ok());
  ASSERT_GT(clean->value().Elapsed(), 40 * kMicrosecond);

  const SimTime arrived =
      fx.engine().Now() + fx.node().config().net.fv_request_latency;
  std::optional<Result<FvResult>> raw;
  raw_read(&raw);
  fx.engine().ScheduleAt(arrived + 10 * kMicrosecond,
                         [&]() { fx.node().CrashNow(); });
  fx.engine().ScheduleAt(arrived + 20 * kMicrosecond,
                         [&]() { fx.node().RestartNow(); });
  fx.engine().Run();
  ASSERT_TRUE(raw.has_value());
  EXPECT_TRUE(raw->status().IsUnavailable());
  EXPECT_EQ(fx.node().stats().reliability().crash_failures, 1u);
}

// A write that reached the node before the crash is voided by it too: a
// restart before its acknowledgment does not bring it back.
TEST(CrashTest, WriteSpanningCrashAndRestartFails) {
  const Table rows = MakeRows(1 * kMiB);
  bench::FvFixture fx;
  const FTable ft = fx.Upload("t", rows);
  auto write = [&](std::optional<Result<SimTime>>* out) {
    fx.client().TableWriteAsync(
        ft, rows, [out](Result<SimTime> r) { out->emplace(std::move(r)); });
  };

  // Unfaulted, the 1 MiB write is acknowledged after the window below.
  SimTime start = fx.engine().Now();
  std::optional<Result<SimTime>> clean;
  write(&clean);
  fx.engine().Run();
  ASSERT_TRUE(clean.has_value() && clean->ok());
  ASSERT_GT(clean->value() - start, 40 * kMicrosecond);

  start = fx.engine().Now();
  std::optional<Result<SimTime>> wrote;
  write(&wrote);
  fx.engine().ScheduleAt(start + 10 * kMicrosecond,
                         [&]() { fx.node().CrashNow(); });
  fx.engine().ScheduleAt(start + 20 * kMicrosecond,
                         [&]() { fx.node().RestartNow(); });
  fx.engine().Run();
  ASSERT_TRUE(wrote.has_value());
  EXPECT_TRUE(wrote->status().IsUnavailable());
  EXPECT_EQ(fx.node().stats().reliability().crash_failures, 1u);
}

// A down node refuses a write as it is posted, before the functional write
// (DESIGN.md §6b): the caller learns at once, and the old bytes survive.
TEST(CrashTest, WritePostedToADownNodeFailsAtOnceAndLandsNothing) {
  const Table old_rows = MakeRows(64 * kKiB);
  Result<Table> new_rows =
      TableGenerator(8).Uniform(old_rows.schema(), old_rows.num_rows(), 100);
  ASSERT_TRUE(new_rows.ok());
  ASSERT_NE(new_rows.value().bytes(), old_rows.bytes());
  bench::FvFixture fx;
  const FTable ft = fx.Upload("t", old_rows);

  fx.node().CrashNow();
  const SimTime posted = fx.engine().Now();
  std::optional<Result<SimTime>> wrote;
  SimTime settled = -1;
  fx.client().TableWriteAsync(ft, new_rows.value(), [&](Result<SimTime> r) {
    settled = fx.engine().Now();
    wrote.emplace(std::move(r));
  });
  fx.engine().Run();
  ASSERT_TRUE(wrote.has_value());
  EXPECT_TRUE(wrote->status().IsUnavailable());
  EXPECT_EQ(settled, posted) << "the refusal crossed the network";
  EXPECT_EQ(fx.node().stats().reliability().crash_failures, 1u);

  fx.node().RestartNow();
  Result<FvResult> read = fx.client().TableRead(ft);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().data, old_rows.bytes());
}

// --- Client retry policy ----------------------------------------------------

TEST(RetryTest, TimeoutExhaustsAttemptsAndCountsLateCompletions) {
  const Table rows = MakeRows(1 * kMiB);  // ~90 us to read
  FarviewConfig cfg;
  cfg.retry.enabled = true;
  cfg.retry.completion_timeout = 20 * kMicrosecond;  // every attempt misses
  cfg.retry.max_attempts = 3;
  cfg.retry.raw_read_fallback = false;
  RetryPool fx(cfg);
  const FTable ft = fx.Upload(rows);

  std::optional<Result<FvResult>> out;
  fx.client().TableReadAsync(
      ft, [&](Result<FvResult> r) { out.emplace(std::move(r)); });
  fx.engine().Run();
  ASSERT_TRUE(out.has_value());
  ASSERT_FALSE(out->ok());
  // The last attempt fails at its deadline (earlier attempts may bounce off
  // the still-busy region as Unavailable instead); the lone replica's hop
  // then has nowhere to fail over, so the call fast-fails Unavailable.
  EXPECT_TRUE(out->status().IsDeadlineExceeded() ||
              out->status().IsUnavailable());
  const NodeStats::ReliabilityStats& rel = fx.node().stats().reliability();
  EXPECT_GE(rel.timeouts, 1u);
  EXPECT_EQ(rel.retries, 2u);  // max_attempts - 1
  // Abandoned attempts still complete inside the node and are dropped.
  EXPECT_GE(rel.late_completions, 1u);
}

TEST(RetryTest, BackoffClampsBeforeTheShiftInsteadOfOverflowing) {
  RetryPolicy rp;
  // Defaults: the helper reproduces base * 2^(k-1), clamped to the cap.
  EXPECT_EQ(rp.BackoffForAttempt(1), rp.backoff_base);
  EXPECT_EQ(rp.BackoffForAttempt(2), 2 * rp.backoff_base);
  EXPECT_EQ(rp.BackoffForAttempt(3), 4 * rp.backoff_base);
  EXPECT_EQ(rp.BackoffForAttempt(4), rp.backoff_cap);
  EXPECT_EQ(rp.BackoffForAttempt(64), rp.backoff_cap);

  // A cap near the SimTime ceiling: the pre-fix computation doubled past
  // the cap before clamping, so around attempt 63 the doubling overflowed
  // the signed picosecond clock into a negative delay — which the engine
  // death-checks at ScheduleAfter. The fixed helper clamps before the
  // shift and never leaves [base, cap].
  rp.backoff_cap = std::numeric_limits<SimTime>::max() - 1;
  for (int attempts = 1; attempts <= 80; ++attempts) {
    const SimTime backoff = rp.BackoffForAttempt(attempts);
    EXPECT_GT(backoff, 0) << "attempt " << attempts;
    EXPECT_LE(backoff, rp.backoff_cap) << "attempt " << attempts;
  }
  EXPECT_EQ(rp.BackoffForAttempt(80), rp.backoff_cap);
}

TEST(RetryDeathTest, BackoffBeforeAnyCompletedAttemptIsAContractViolation) {
  // The overflow regression above exists because attempt counts larger
  // than expected reached the computation unchecked; the helper now also
  // rejects the other out-of-contract input (no completed attempt yet).
  RetryPolicy rp;
  EXPECT_DEATH(rp.BackoffForAttempt(0), "completed attempt");
}

TEST(RetryTest, DisabledPolicyIsSingleShot) {
  const Table rows = MakeRows(64 * kKiB);
  bench::FvFixture fx;  // retry disabled by default
  const FTable ft = fx.Upload("t", rows);
  Result<FvResult> read = fx.client().TableRead(ft);
  ASSERT_TRUE(read.ok());
  const NodeStats::ReliabilityStats& rel = fx.node().stats().reliability();
  EXPECT_FALSE(rel.AnyNonZero());
}

TEST(RetryTest, BareNodeClientRefusesARetryPolicy) {
  // The policy runs only in the pool client; a bare client that accepted
  // it would silently run single-shot.
  FarviewConfig cfg;
  cfg.retry.enabled = true;
  sim::Engine engine;
  FarviewNode node(&engine, cfg);
  FarviewClient client(&node, 1);
  EXPECT_TRUE(client.OpenConnection().IsInvalidArgument());
  EXPECT_FALSE(client.connected());
}

TEST(RetryTest, DisconnectDuringRetryFlushesQueuedRequestSafely) {
  const Table rows = MakeRows(1 * kMiB);
  FarviewConfig cfg;
  cfg.submission_queue_depth = 2;
  cfg.retry.enabled = true;
  RetryPool fx(cfg);
  const FTable ft = fx.Upload(rows);

  const SimTime t0 = fx.engine().Now();
  std::optional<Result<FvResult>> executing, queued, retrying;
  int settled = 0;
  auto read = [&](std::optional<Result<FvResult>>* out) {
    fx.client().TableReadAsync(ft, [&settled, out](Result<FvResult> r) {
      ++settled;
      out->emplace(std::move(r));
    });
  };
  // The first read executes, the second waits in the submission queue, and
  // the third finds the queue full and backs off to retry.
  read(&executing);
  read(&queued);
  read(&retrying);
  // Disconnect while the first is executing, the second is queued and the
  // third is in its backoff: the flush fails the queued one, the executing
  // one still completes inside the node, and the retry finds the
  // connection gone. Each call settles exactly once, with the typed close.
  fx.engine().ScheduleAt(t0 + 10 * kMicrosecond,
                         [&]() { fx.client().CloseConnection(); });
  fx.engine().Run();

  EXPECT_EQ(settled, 3);
  for (const auto* out : {&executing, &queued, &retrying}) {
    ASSERT_TRUE(out->has_value());
    EXPECT_TRUE((*out)->status().IsFailedPrecondition())
        << (*out)->status().ToString();
  }
  EXPECT_GE(fx.node().stats().reliability().retries, 1u);
  EXPECT_GE(fx.node().stats().failed_count(), 1u);  // the flushed request
}

// --- Analytic loss penalty (RNIC/RCPU baselines) ----------------------------

TEST(LossPenaltyTest, ZeroAtZeroLossAndMonotone) {
  sim::Engine engine;
  RnicModel rnic(&engine, NetConfig());
  EXPECT_EQ(rnic.ExpectedLossPenalty(1 * kMiB, 0.0), 0);
  SimTime prev = 0;
  for (double p : {1e-4, 1e-3, 1e-2, 1e-1}) {
    const SimTime penalty = rnic.ExpectedLossPenalty(1 * kMiB, p);
    EXPECT_GT(penalty, prev);
    prev = penalty;
  }
  // Linear in the packet count: double the bytes, ~double the penalty.
  const SimTime one = rnic.ExpectedLossPenalty(1 * kMiB, 1e-2);
  const SimTime two = rnic.ExpectedLossPenalty(2 * kMiB, 1e-2);
  EXPECT_NEAR(static_cast<double>(two), 2.0 * static_cast<double>(one),
              static_cast<double>(one) * 0.01);
}

}  // namespace
}  // namespace farview
