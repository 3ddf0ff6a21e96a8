// Byte-identity guard: with fault injection and the retry policy disabled
// (the default-constructed config), the reliability layer must be invisible
// — zero extra events, zero Rng draws, bit-for-bit the same timing as the
// pre-fault-injection seed tree. These goldens pin client-observed
// completion times for canonical workloads; they may only change together
// with a deliberate, documented timing-model change (EXPERIMENTS.md).

#include <gtest/gtest.h>

#include <optional>

#include "benchlib/experiment.h"
#include "fv/client.h"
#include "fv/farview_node.h"
#include "fv/sharding.h"
#include "table/generator.h"

namespace farview {
namespace {

// Golden completion times, captured from the seed-identical build. Any
// drift here means the reliability layer leaked events into the fault-free
// path — a byte-identity regression, not a tolerance to widen.
constexpr SimTime kGoldenRawRead1MiB = 88101793 * kPicosecond;  // 88.10 us
constexpr SimTime kGoldenOffloadScan1MiB =
    88557793 * kPicosecond;  // 88.56 us

Table MakeRows(uint64_t bytes) {
  TableGenerator gen(7);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), bytes / 64, 100);
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// Handle for `rows` as table "t", not yet allocated.
FTable TableFor(const Table& rows) {
  return FTable{.name = "t", .schema = rows.schema(),
                .num_rows = rows.num_rows()};
}

TEST(FaultIdentityTest, DefaultConfigDisablesEverything) {
  const FarviewConfig cfg;
  EXPECT_FALSE(cfg.net.faults.enabled);
  EXPECT_FALSE(cfg.faults.enabled);
  EXPECT_FALSE(cfg.retry.enabled);
}

TEST(FaultIdentityTest, RawReadTimingMatchesSeed) {
  bench::FvFixture fx;
  const Table rows = MakeRows(1 * kMiB);
  const FTable ft = fx.Upload("t", rows);
  Result<FvResult> read = fx.client().TableRead(ft);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data.size(), rows.size_bytes());
  // Golden: 1 MiB raw table read on the default-calibrated stack.
  EXPECT_EQ(read.value().Elapsed(), kGoldenRawRead1MiB);
  EXPECT_FALSE(fx.node().stats().reliability().AnyNonZero());
}

TEST(FaultIdentityTest, OffloadedScanTimingMatchesSeed) {
  bench::FvFixture fx;
  const Table rows = MakeRows(1 * kMiB);
  const FTable ft = fx.Upload("t", rows);
  Result<Pipeline> p = PipelineBuilder(ft.schema).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(fx.client().LoadPipeline(std::move(p).value()).ok());
  Result<FvResult> read = fx.client().FarviewRequest(fx.client().ScanRequest(ft));
  ASSERT_TRUE(read.ok());
  // Golden: 1 MiB offloaded pass-through scan (ingress + region + egress).
  EXPECT_EQ(read.value().Elapsed(), kGoldenOffloadScan1MiB);
  EXPECT_FALSE(fx.node().stats().reliability().AnyNonZero());
}

TEST(FaultIdentityTest, SingleReplicaClusterIsEventIdenticalToBareNode) {
  // With num_replicas == 1 and a default config the replication layer must
  // be invisible: no mirror hops, no breaker draws, no scheduled events —
  // the same event count, the same clock, the same golden timing as a bare
  // node driven through FarviewClient. (The pool client is ShardedClient
  // over a one-shard pool; the next test pins the sharding counters.)
  const Table rows = MakeRows(1 * kMiB);

  sim::Engine bare_engine;
  FarviewNode bare_node(&bare_engine, FarviewConfig());
  FarviewClient bare_client(&bare_node, 1);
  ASSERT_TRUE(bare_client.OpenConnection().ok());
  FTable bare_ft = TableFor(rows);
  ASSERT_TRUE(bare_client.AllocTableMem(&bare_ft).ok());
  ASSERT_TRUE(bare_client.TableWrite(bare_ft, rows).ok());
  Result<FvResult> bare_read = bare_client.TableRead(bare_ft);
  ASSERT_TRUE(bare_read.ok());

  sim::Engine pool_engine;
  ShardedPool pool(&pool_engine, ShardedConfig());
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient pool_client(&pool, 1);
  ASSERT_TRUE(pool_client.OpenConnection().ok());
  FTable pool_ft = TableFor(rows);
  ASSERT_TRUE(pool_client.AllocTableMem(&pool_ft).ok());
  ASSERT_TRUE(pool_client.TableWrite(pool_ft, rows).ok());
  Result<FvResult> pool_read = pool_client.TableRead(pool_ft);
  ASSERT_TRUE(pool_read.ok());

  EXPECT_EQ(pool_ft.vaddr, bare_ft.vaddr);
  EXPECT_EQ(pool_read.value().Elapsed(), bare_read.value().Elapsed());
  EXPECT_EQ(pool_read.value().Elapsed(), kGoldenRawRead1MiB);
  EXPECT_EQ(pool_read.value().data, bare_read.value().data);
  EXPECT_EQ(pool_engine.Now(), bare_engine.Now());
  EXPECT_EQ(pool_engine.executed_events(), bare_engine.executed_events());
  // Routing is pure bookkeeping: the request counter moves, nothing else.
  const NodeStats::ReliabilityStats& rel =
      cluster.node(0).stats().reliability();
  EXPECT_EQ(rel.cluster_requests, 1u);
  EXPECT_EQ(rel.failovers, 0u);
  EXPECT_EQ(rel.fast_fails, 0u);
  EXPECT_EQ(rel.circuit_opens, 0u);
  EXPECT_EQ(rel.resyncs, 0u);
  EXPECT_EQ(rel.resync_bytes, 0u);
}

TEST(FaultIdentityTest, SingleShardSingleReplicaPoolIsEventIdenticalToBareNode) {
  // One more layer up: a 1-shard × 1-replica ShardedPool must also be
  // invisible — no address translation (shard 0's stripe starts at 0), one
  // fragment per table, pure delegation to the single cluster. Same event
  // count, same clock, same vaddr, same golden timing as a bare node.
  const Table rows = MakeRows(1 * kMiB);

  sim::Engine bare_engine;
  FarviewNode bare_node(&bare_engine, FarviewConfig());
  FarviewClient bare_client(&bare_node, 1);
  ASSERT_TRUE(bare_client.OpenConnection().ok());
  FTable bare_ft = TableFor(rows);
  ASSERT_TRUE(bare_client.AllocTableMem(&bare_ft).ok());
  ASSERT_TRUE(bare_client.TableWrite(bare_ft, rows).ok());
  Result<FvResult> bare_read = bare_client.TableRead(bare_ft);
  ASSERT_TRUE(bare_read.ok());

  sim::Engine pool_engine;
  ShardedPool pool(&pool_engine, ShardedConfig());
  ShardedClient pool_client(&pool, 1);
  ASSERT_TRUE(pool_client.OpenConnection().ok());
  FTable pool_ft = TableFor(rows);
  ASSERT_TRUE(pool_client.AllocTableMem(&pool_ft).ok());
  ASSERT_TRUE(pool_client.TableWrite(pool_ft, rows).ok());
  Result<FvResult> pool_read = pool_client.TableRead(pool_ft);
  ASSERT_TRUE(pool_read.ok());

  EXPECT_EQ(pool_ft.vaddr, bare_ft.vaddr);
  EXPECT_EQ(pool_read.value().Elapsed(), bare_read.value().Elapsed());
  EXPECT_EQ(pool_read.value().Elapsed(), kGoldenRawRead1MiB);
  EXPECT_EQ(pool_read.value().data, bare_read.value().data);
  EXPECT_EQ(pool_engine.Now(), bare_engine.Now());
  EXPECT_EQ(pool_engine.executed_events(), bare_engine.executed_events());
  // Fragment routing is pure bookkeeping on the shard's primary: the
  // sharding counters move, nothing in the reliability layer does.
  const NodeStats& stats = pool.shard(0).node(0).stats();
  EXPECT_EQ(stats.sharding().fragment_writes, 1u);
  EXPECT_EQ(stats.sharding().fragment_reads, 1u);
  EXPECT_EQ(stats.reliability().cluster_requests, 1u);
  EXPECT_EQ(stats.reliability().failovers, 0u);
  EXPECT_EQ(stats.reliability().fast_fails, 0u);
  EXPECT_EQ(stats.reliability().circuit_opens, 0u);
}

TEST(FaultIdentityTest, SingleShardSingleReplicaOffloadIsEventIdenticalToBareNode) {
  // The offload path of the 1-shard × 1-replica pool — load a pipeline
  // factory on the table's shard, then a routed scan through it — must
  // match a bare node's LoadPipeline + FarviewRequest(ScanRequest) event
  // for event.
  const Table rows = MakeRows(1 * kMiB);
  auto pass_through = [&rows]() {
    return PipelineBuilder(rows.schema()).Build();
  };

  sim::Engine bare_engine;
  FarviewNode bare_node(&bare_engine, FarviewConfig());
  FarviewClient bare_client(&bare_node, 1);
  ASSERT_TRUE(bare_client.OpenConnection().ok());
  FTable bare_ft = TableFor(rows);
  ASSERT_TRUE(bare_client.AllocTableMem(&bare_ft).ok());
  ASSERT_TRUE(bare_client.TableWrite(bare_ft, rows).ok());
  Result<Pipeline> p = pass_through();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(bare_client.LoadPipeline(std::move(p).value()).ok());
  Result<FvResult> bare_scan =
      bare_client.FarviewRequest(FarviewClient::ScanRequest(bare_ft));
  ASSERT_TRUE(bare_scan.ok());

  sim::Engine pool_engine;
  ShardedPool pool(&pool_engine, ShardedConfig());
  ShardedClient pool_client(&pool, 1);
  ASSERT_TRUE(pool_client.OpenConnection().ok());
  FTable pool_ft = TableFor(rows);
  ASSERT_TRUE(pool_client.AllocTableMem(&pool_ft).ok());
  ASSERT_TRUE(pool_client.TableWrite(pool_ft, rows).ok());
  ASSERT_TRUE(pool_client.LoadPipeline(pool_ft, pass_through).ok());
  Result<FvResult> pool_scan = pool_client.Offload(pool_ft);
  ASSERT_TRUE(pool_scan.ok());

  EXPECT_EQ(pool_scan.value().Elapsed(), bare_scan.value().Elapsed());
  EXPECT_EQ(pool_scan.value().Elapsed(), kGoldenOffloadScan1MiB);
  EXPECT_EQ(pool_scan.value().data, bare_scan.value().data);
  EXPECT_EQ(pool_scan.value().bytes_on_wire, bare_scan.value().bytes_on_wire);
  EXPECT_EQ(pool_engine.Now(), bare_engine.Now());
  EXPECT_EQ(pool_engine.executed_events(), bare_engine.executed_events());
  const NodeStats& stats = pool.shard(0).node(0).stats();
  EXPECT_EQ(stats.sharding().fragment_offloads, 1u);
  EXPECT_EQ(stats.reliability().cluster_requests, 1u);
  EXPECT_FALSE(stats.reliability().failovers || stats.reliability().fast_fails);
}

TEST(FaultIdentityTest, RetryWrapperIsEventIdenticalWhenDisabled) {
  // The sync TableRead is AwaitSync over the async read: the wrapper must
  // add no events and no latency.
  bench::FvFixture a;
  bench::FvFixture b;
  const Table rows = MakeRows(256 * kKiB);
  const FTable fta = a.Upload("t", rows);
  const FTable ftb = b.Upload("t", rows);

  Result<FvResult> ra = a.client().TableRead(fta);
  ASSERT_TRUE(ra.ok());

  std::optional<Result<FvResult>> rb;
  b.client().TableReadAsync(
      ftb, [&](Result<FvResult> r) { rb.emplace(std::move(r)); });
  b.engine().Run();
  ASSERT_TRUE(rb.has_value());
  ASSERT_TRUE(rb->ok());
  EXPECT_EQ(ra.value().Elapsed(), rb->value().Elapsed());
  EXPECT_EQ(ra.value().data, rb->value().data);
  EXPECT_EQ(a.engine().Now(), b.engine().Now());
}

}  // namespace
}  // namespace farview
