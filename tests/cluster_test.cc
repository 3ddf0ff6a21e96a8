// Replicated-pool tests (DESIGN.md §12), driven through `ShardedClient`
// over a one-shard `ShardedPool`: mirrored writes, breaker-routed reads with
// failover, epoch fencing, crash recovery with resync, and the fast-fail
// latency bound. Labelled `failover` so CI reruns them under the
// FV_FAULT_SEED sanitizer sweep — like the `faults` suite, assertions are
// invariants that must hold for ANY seed, never seed-specific counts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "fv/sharding.h"
#include "operators/pipeline.h"
#include "table/generator.h"

namespace farview {

/// Drives a cluster's replication log directly, below the pool client.
class FarviewClusterTestPeer {
 public:
  /// Appends a 4 KiB write entry that replica `r` missed (fencing it when
  /// it is in sync); returns the entry's epoch.
  static uint64_t MissWrite(FarviewCluster& cluster, int r) {
    FarviewCluster::LogEntry entry;
    entry.kind = FarviewCluster::LogEntry::Kind::kWrite;
    entry.client_id = 1;
    entry.vaddr = 0x1000;
    entry.bytes = 4 * kKiB;
    const uint64_t epoch = cluster.AppendEntry(entry);
    cluster.MarkMissed(r, epoch);
    return epoch;
  }
  static void Abort(FarviewCluster& cluster, uint64_t epoch) {
    cluster.AbortEntry(epoch);
  }
};

namespace {

/// Seed under test: FV_FAULT_SEED when set (the CI seed sweep), else 1.
uint64_t TestSeed() {
  const char* env = std::getenv("FV_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

Table MakeRows(uint64_t bytes, uint64_t gen_seed = 7) {
  TableGenerator gen(gen_seed);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), bytes / 64, 100);
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// One-shard pool config sized for tests: small functional backing (N
/// nodes per engine), retry policy on, seeded from the CI sweep.
ShardedConfig TestConfig(int replicas) {
  ShardedConfig sc;
  sc.cluster.node.dram.channel_capacity = 32 * kMiB;
  sc.cluster.node.retry.enabled = true;
  sc.cluster.num_replicas = replicas;
  sc.cluster.seed = TestSeed();
  return sc;
}

/// Allocates without running the engine (pure bookkeeping), so tests can
/// position requests relative to config-scheduled fault instants.
FTable AllocOnly(ShardedClient& client, const Table& rows,
                 const std::string& name = "t") {
  FTable ft;
  ft.name = name;
  ft.schema = rows.schema();
  ft.num_rows = rows.num_rows();
  EXPECT_TRUE(client.AllocTableMem(&ft).ok());
  return ft;
}

/// Reads the table's bytes straight from one replica's MMU (bypassing the
/// router) to check replica convergence.
ByteBuffer ReplicaBytes(FarviewCluster& cluster, int r, int client_id,
                        const FTable& ft) {
  ByteBuffer buf;
  EXPECT_TRUE(cluster.node(r)
                  .mmu()
                  .ReadInto(client_id, ft.vaddr, ft.SizeBytes(), &buf)
                  .ok());
  return buf;
}

TEST(ClusterTest, MirroredWriteReachesEveryReplica) {
  sim::Engine engine;
  ShardedPool pool(&engine, TestConfig(3));
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);

  Result<SimTime> wrote = client.TableWrite(ft, rows);
  ASSERT_TRUE(wrote.ok());
  EXPECT_GT(wrote.value(), 0);

  const ByteBuffer expect(rows.data(), rows.data() + rows.size_bytes());
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(cluster.InSync(r));
    EXPECT_EQ(ReplicaBytes(cluster, r, 1, ft), expect) << "replica " << r;
  }
}

TEST(ClusterTest, RoutedReadsRoundRobinAcrossReplicas) {
  sim::Engine engine;
  ShardedPool pool(&engine, TestConfig(3));
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);
  ASSERT_TRUE(client.TableWrite(ft, rows).ok());

  for (int i = 0; i < 6; ++i) {
    Result<FvResult> read = client.TableRead(ft);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data.size(), rows.size_bytes());
  }
  // Healthy pool: round-robin spreads the 6 reads 2-2-2.
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.node(r).stats().reliability().cluster_requests, 2u)
        << "replica " << r;
  }
}

TEST(ClusterTest, CrashFailoverKeepsReadsSucceeding) {
  ShardedConfig sc = TestConfig(2);
  ClusterConfig& cc = sc.cluster;
  cc.faulted_replica = 0;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;  // stays down
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(256 * kKiB);
  FTable ft = AllocOnly(client, rows);

  // Reads paced across the crash instant; every one must succeed — the
  // router fails the victim's traffic over to the survivor.
  int ok = 0;
  int issued = 0;
  for (SimTime t = 100 * kMicrosecond; t < 3 * kMillisecond;
       t += 200 * kMicrosecond) {
    ++issued;
    engine.ScheduleAt(t, [&]() {
      client.TableReadAsync(ft, [&](Result<FvResult> r) {
        if (r.ok()) ++ok;
      });
    });
  }
  client.TableWriteAsync(ft, rows, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  engine.Run();

  EXPECT_EQ(ok, issued);
  EXPECT_FALSE(cluster.InSync(0));
  EXPECT_TRUE(cluster.InSync(1));
  // The crash observation force-opened replica 0's breaker; its in-flight
  // read (if any) failed over. The survivor served the tail.
  EXPECT_GE(cluster.node(0).stats().reliability().circuit_opens, 1u);
  EXPECT_GT(cluster.node(1).stats().reliability().cluster_requests, 0u);
}

TEST(ClusterTest, FastFailSettlesImmediatelyWhenPoolIsDead) {
  // Regression guard for the fast-fail fix: with the only replica crashed
  // and its breaker open, a read must settle at its issuing instant with
  // Unavailable — not after completion_timeout * max_attempts of burned
  // backoff (1.75 ms with the default RetryPolicy).
  ShardedConfig sc = TestConfig(1);
  ClusterConfig& cc = sc.cluster;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 500 * kMicrosecond;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(64 * kKiB);
  FTable ft = AllocOnly(client, rows);

  std::optional<Status> settled;
  SimTime issued_at = 0;
  SimTime settled_at = 0;
  engine.ScheduleAt(1 * kMillisecond, [&]() {
    issued_at = engine.Now();
    client.TableReadAsync(ft, [&](Result<FvResult> r) {
      settled.emplace(r.status());
      settled_at = engine.Now();
    });
  });
  engine.Run();

  ASSERT_TRUE(settled.has_value());
  EXPECT_TRUE(settled->IsUnavailable());
  EXPECT_EQ(settled_at, issued_at) << "fast-fail burned simulated time";
  uint64_t fast_fails = 0;
  fast_fails += cluster.node(0).stats().reliability().fast_fails;
  EXPECT_GT(fast_fails, 0u);
}

TEST(ClusterTest, CircuitBreakerLifecycle) {
  sim::Engine engine;
  NodeStats stats;
  CircuitBreakerPolicy policy;
  CircuitBreaker breaker(&engine, policy, TestSeed(), &stats);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < policy.failure_threshold; ++i) {
    EXPECT_TRUE(breaker.AllowRequest());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.BlocksAttempts());
  EXPECT_EQ(stats.reliability().circuit_opens, 1u);

  // Advance past the worst-case reopen instant (duration + full jitter):
  // the next AllowRequest is the lazy Open -> Half-Open transition.
  engine.ScheduleAt(policy.open_duration + policy.open_jitter, []() {});
  engine.Run();
  EXPECT_FALSE(breaker.BlocksAttempts());
  bool probe = false;
  EXPECT_TRUE(breaker.AllowRequest(&probe));
  EXPECT_TRUE(probe);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(stats.reliability().circuit_half_opens, 1u);

  // A failed probe re-trips; another cool-down, then successful probes
  // close it.
  breaker.RecordFailure(/*probe=*/true);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  engine.ScheduleAt(2 * (policy.open_duration + policy.open_jitter), []() {});
  engine.Run();
  for (int i = 0; i < policy.probe_successes; ++i) {
    probe = false;
    EXPECT_TRUE(breaker.AllowRequest(&probe));
    EXPECT_TRUE(probe);
    breaker.RecordSuccess(probe);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(stats.reliability().circuit_closes, 1u);
  EXPECT_TRUE(breaker.AllowRequest());
}

TEST(ClusterTest, StaleCompletionsDoNotSettleHalfOpenProbes) {
  sim::Engine engine;
  NodeStats stats;
  CircuitBreakerPolicy policy;
  CircuitBreaker breaker(&engine, policy, TestSeed(), &stats);

  // Trip, then reopen Half-Open with one probe in flight.
  for (int i = 0; i < policy.failure_threshold; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  engine.ScheduleAt(policy.open_duration + policy.open_jitter, []() {});
  engine.Run();
  bool probe = false;
  ASSERT_TRUE(breaker.AllowRequest(&probe));
  ASSERT_TRUE(probe);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // Completions of requests routed while the breaker was still Closed now
  // land. Under the pre-fix accounting each would count as a probe
  // outcome: two stale successes would close the breaker without a single
  // probe ever completing, and a stale failure would re-trip it. Both must
  // be ignored.
  breaker.RecordSuccess(/*probe=*/false);
  breaker.RecordSuccess(/*probe=*/false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(stats.reliability().circuit_closes, 0u);
  breaker.RecordFailure(/*probe=*/false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // The real probe outcomes still drive the episode.
  breaker.RecordSuccess(/*probe=*/true);
  ASSERT_TRUE(breaker.AllowRequest(&probe));
  ASSERT_TRUE(probe);
  breaker.RecordSuccess(/*probe=*/true);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(stats.reliability().circuit_closes, 1u);
}

TEST(ClusterTest, NonRetryableProbeOutcomeDoesNotLeakProbeSlots) {
  // A Half-Open probe that draws a non-retryable error (bad request, not
  // replica health) must settle its slot: the router records it as a probe
  // success. Before the fix the slot was consumed and never returned, so a
  // breaker whose every probe drew a bad request wedged Half-Open with no
  // slots — permanently excluding a healthy replica from routing.
  ShardedConfig sc = TestConfig(2);
  ClusterConfig& cc = sc.cluster;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(256 * kKiB, 3);
  FTable ft = AllocOnly(client, rows);
  ASSERT_TRUE(client.TableWrite(ft, rows).ok());
  // A table whose range every replica's MMU drops behind the client's
  // back: the shard map still routes it, and every replica rejects its
  // reads at request level (MMU NotFound — non-retryable).
  FTable bogus = AllocOnly(client, rows, "bogus");
  for (int r = 0; r < 2; ++r) {
    ASSERT_TRUE(cluster.node(r).mmu().Free(1, bogus.vaddr).ok());
  }

  // Trip replica 0's breaker, then wait out the cool-down.
  for (int i = 0; i < cc.breaker.failure_threshold; ++i) {
    client.breaker(0, 0).RecordFailure();
  }
  ASSERT_EQ(client.breaker(0, 0).state(), CircuitBreaker::State::kOpen);
  engine.ScheduleAt(engine.Now() + cc.breaker.open_duration +
                        cc.breaker.open_jitter,
                    []() {});
  engine.Run();

  // Exhaust every probe slot with reads of the bogus table. Round-robin
  // alternates replicas; issue enough requests that at least
  // `probe_successes` of them probe replica 0.
  for (int i = 0; i < 2 * cc.breaker.probe_successes; ++i) {
    Result<FvResult> res = client.TableRead(bogus);
    EXPECT_FALSE(res.ok());
    EXPECT_FALSE(res.status().IsUnavailable());
  }

  // The probes settled as successes, so the breaker closed instead of
  // wedging Half-Open with zero slots; replica 0 serves reads again.
  EXPECT_EQ(client.breaker(0, 0).state(), CircuitBreaker::State::kClosed);
  const uint64_t served_before =
      cluster.node(0).stats().reliability().cluster_requests;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.TableRead(ft).ok());
  }
  EXPECT_GT(cluster.node(0).stats().reliability().cluster_requests,
            served_before);
}

TEST(ClusterTest, RestartResyncsMissedWritesFromSurvivor) {
  ShardedConfig sc = TestConfig(2);
  ClusterConfig& cc = sc.cluster;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(256 * kKiB, 7);
  const Table v2 = MakeRows(256 * kKiB, 8);
  FTable ft = AllocOnly(client, v1);

  // v1 lands on both replicas; v2 is written while replica 0 is down and
  // must reach it through the recovery resync stream after restart.
  std::optional<Status> wrote_v2;
  client.TableWriteAsync(ft, v1, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  engine.ScheduleAt(1500 * kMicrosecond, [&]() {
    EXPECT_FALSE(cluster.InSync(0));  // fenced while down
    client.TableWriteAsync(ft, v2, [&](Result<SimTime> w) {
      wrote_v2.emplace(w.status());
    });
  });
  engine.Run();

  ASSERT_TRUE(wrote_v2.has_value());
  EXPECT_TRUE(wrote_v2->ok());
  EXPECT_TRUE(cluster.InSync(0)) << "replica 0 never rejoined";
  EXPECT_GT(cluster.in_sync_at(0), cc.node.faults.node_restart_at);
  const ByteBuffer expect(v2.data(), v2.data() + v2.size_bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, ft), expect);
  const NodeStats::ReliabilityStats& rel =
      cluster.node(0).stats().reliability();
  EXPECT_EQ(rel.resyncs, 1u);
  EXPECT_EQ(rel.resync_bytes, v2.size_bytes());
  EXPECT_GT(rel.resync_time, 0);
}

TEST(ClusterTest, ControlEntriesReplayOnRejoin) {
  ShardedConfig sc = TestConfig(2);
  ClusterConfig& cc = sc.cluster;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable keep = AllocOnly(client, rows);
  // Async: the sync wrapper would drain the whole fault timeline before
  // the scheduled mid-outage operations below were registered.
  client.TableWriteAsync(keep, rows, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });

  // While replica 0 is down: free one table, allocate + write another.
  // Rejoin must replay the free and the alloc (checking address agreement)
  // before the resync stream copies the new table's bytes.
  FTable fresh;
  std::optional<Status> late_ops;
  engine.ScheduleAt(1500 * kMicrosecond, [&]() {
    Status s = client.FreeTableMem(&keep);
    if (s.ok()) {
      fresh.name = "fresh";
      fresh.schema = rows.schema();
      fresh.num_rows = rows.num_rows();
      s = client.AllocTableMem(&fresh);
    }
    if (s.ok()) {
      client.TableWriteAsync(fresh, rows, [&](Result<SimTime> w) {
        late_ops.emplace(w.status());
      });
    } else {
      late_ops.emplace(s);
    }
  });
  engine.Run();

  ASSERT_TRUE(late_ops.has_value());
  EXPECT_TRUE(late_ops->ok());
  EXPECT_TRUE(cluster.InSync(0));
  // The replayed allocator state matches: the fresh table's bytes are
  // readable at the agreed address on the recovered replica.
  const ByteBuffer expect(rows.data(), rows.data() + rows.size_bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, fresh), expect);
  // And the freed table is gone on both replicas.
  for (int r = 0; r < 2; ++r) {
    EXPECT_FALSE(cluster.node(r).mmu().Translate(1, keep.vaddr).ok())
        << "replica " << r;
  }
}

TEST(ClusterTest, FencedReplicaServesNoReadsUntilInSync) {
  ShardedConfig sc = TestConfig(2);
  ClusterConfig& cc = sc.cluster;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  // Slow the resync stream so the fenced window is wide and reads land in
  // it: 256 KiB at 1 Gbps is ~2 ms of resync.
  cc.replication.resync_rate_bytes_per_sec = GbpsToBytesPerSec(1.0);
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(256 * kKiB, 7);
  const Table v2 = MakeRows(256 * kKiB, 8);
  FTable ft = AllocOnly(client, v1);

  client.TableWriteAsync(ft, v1, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  engine.ScheduleAt(1200 * kMicrosecond, [&]() {
    client.TableWriteAsync(ft, v2, [](Result<SimTime> w) {
      EXPECT_TRUE(w.ok());
    });
  });
  // Reads issued across the resync window: every result must be v2 — a
  // read served by the stale replica would return v1 bytes.
  const ByteBuffer expect(v2.data(), v2.data() + v2.size_bytes());
  int checked = 0;
  const uint64_t before = cluster.node(0).stats().reliability()
                              .cluster_requests;
  for (SimTime t = 2100 * kMicrosecond; t < 4 * kMillisecond;
       t += 300 * kMicrosecond) {
    engine.ScheduleAt(t, [&]() {
      const bool fenced = !cluster.InSync(0);
      const uint64_t routed_before =
          cluster.node(0).stats().reliability().cluster_requests;
      client.TableReadAsync(ft, [&, fenced, routed_before](
                                    Result<FvResult> r) {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value().data, expect);
        if (fenced) {
          // Epoch fencing: the router never touched replica 0 for this
          // read while it was behind.
          EXPECT_EQ(cluster.node(0).stats().reliability().cluster_requests,
                    routed_before);
        }
        ++checked;
      });
    });
  }
  engine.Run();
  EXPECT_GT(checked, 0);
  (void)before;
  EXPECT_TRUE(cluster.InSync(0));
}

TEST(ClusterTest, SingleReplicaPoolRecoversWithoutSource) {
  // R=1: every write during the outage aborts (no in-rotation replica), so
  // rejoin needs no resync source and must not park forever.
  ShardedConfig sc = TestConfig(1);
  ClusterConfig& cc = sc.cluster;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);

  std::optional<Status> down_write;
  client.TableWriteAsync(ft, rows, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  engine.ScheduleAt(1500 * kMicrosecond, [&]() {
    client.TableWriteAsync(ft, rows, [&](Result<SimTime> w) {
      down_write.emplace(w.status());
    });
  });
  engine.Run();

  ASSERT_TRUE(down_write.has_value());
  EXPECT_TRUE(down_write->IsUnavailable());
  EXPECT_TRUE(cluster.InSync(0)) << "lone replica parked after restart";
  // Post-recovery the pool serves reads again (pre-crash contents).
  Result<FvResult> read = client.TableRead(ft);
  ASSERT_TRUE(read.ok());
  const ByteBuffer expect(rows.data(), rows.data() + rows.size_bytes());
  EXPECT_EQ(read.value().data, expect);
}

TEST(ClusterTest, FailedControlOpDuringOutageDoesNotPoisonRecovery) {
  // Regression: a control op that fails at request level (bad free, doomed
  // alloc) while a replica is out of rotation must abort its log epoch.
  // A live entry would be replayed on rejoin, fail again, and crash
  // recovery through the replay-divergence check.
  ShardedConfig sc = TestConfig(2);
  ClusterConfig& cc = sc.cluster;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);
  FTable bogus = AllocOnly(client, rows, "bogus");
  client.TableWriteAsync(ft, rows, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });

  uint64_t logged = 0;
  engine.ScheduleAt(1500 * kMicrosecond, [&]() {
    const uint64_t epoch_before = cluster.epoch();
    // Free of memory the survivor no longer maps (dropped from its MMU
    // behind the client's back): fails on the survivor.
    ASSERT_TRUE(cluster.node(1).mmu().Free(1, bogus.vaddr).ok());
    const Status freed = client.FreeTableMem(&bogus);
    EXPECT_FALSE(freed.ok());
    // Alloc doomed at the replica (larger than a node's memory): the entry
    // is appended before the first replica rejects it.
    FTable huge;
    huge.name = "huge";
    huge.schema = rows.schema();
    huge.num_rows = (1 * kGiB) / 64;
    EXPECT_FALSE(client.AllocTableMem(&huge).ok());
    logged = cluster.epoch() - epoch_before;
  });
  engine.Run();

  // Both ops reached the replication log before failing.
  EXPECT_EQ(logged, 2u);

  // Rejoin must skip both failed epochs instead of FV_CHECK-aborting.
  EXPECT_TRUE(cluster.InSync(0)) << "recovery never completed";
  Result<FvResult> read = client.TableRead(ft);
  ASSERT_TRUE(read.ok());
  const ByteBuffer expect(rows.data(), rows.data() + rows.size_bytes());
  EXPECT_EQ(read.value().data, expect);
}

TEST(ClusterTest, RequestErrorWriteDoesNotFenceReplicas) {
  // Regression: a mirrored write failing for a non-health reason (unmapped
  // vaddr -> MMU NotFound) must surface the error to the caller without
  // fencing the primary — and then, identically, every other candidate —
  // out of rotation.
  sim::Engine engine;
  ShardedPool pool(&engine, TestConfig(3));
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);
  ASSERT_TRUE(client.TableWrite(ft, rows).ok());
  // Unmap the range on every replica behind the client's back: the shard
  // map still routes the write, and every replica rejects it.
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(cluster.node(r).mmu().Free(1, ft.vaddr).ok());
  }

  Result<SimTime> wrote = client.TableWrite(ft, rows);
  ASSERT_FALSE(wrote.ok());
  EXPECT_FALSE(wrote.status().IsUnavailable());
  EXPECT_FALSE(wrote.status().IsDeadlineExceeded());
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(cluster.InSync(r)) << "replica " << r << " was fenced";
    const NodeStats::ReliabilityStats& rel =
        cluster.node(r).stats().reliability();
    EXPECT_EQ(rel.failovers, 0u) << "replica " << r;
    EXPECT_EQ(rel.resyncs, 0u) << "replica " << r;
  }
  // The pool still takes writes and serves reads afterwards.
  FTable again = AllocOnly(client, rows, "again");
  ASSERT_TRUE(client.TableWrite(again, rows).ok());
  EXPECT_TRUE(client.TableRead(again).ok());
}

// Write failover (DESIGN.md §12): a mirrored write's primary hop moves to
// the next replica when the primary dies under it, every candidate dying
// aborts the epoch, and a mirror hop lost to a crash is repaired by resync.
// Crashes are positioned on the write's own timeline: it reaches a node
// `fv_request_latency` after it is posted, and its 128 KiB payload takes
// several microseconds more before the node acknowledges it.

TEST(ClusterTest, PrimaryCrashBeforeItsAckFailsTheWriteOverToTheSecondary) {
  sim::Engine engine;
  ShardedPool pool(&engine, TestConfig(2));
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(128 * kKiB, 7);
  const Table v2 = MakeRows(128 * kKiB, 8);
  FTable ft = AllocOnly(client, v1);
  ASSERT_TRUE(client.TableWrite(ft, v1).ok());

  const uint64_t acked_before = cluster.node(0).stats().completed_count();
  const SimTime arrived =
      engine.Now() + cluster.node(0).config().net.fv_request_latency;
  std::optional<Result<SimTime>> wrote;
  client.TableWriteAsync(ft, v2, [&](Result<SimTime> w) { wrote.emplace(w); });
  engine.ScheduleAt(arrived + 1 * kNanosecond, [&]() {
    EXPECT_EQ(cluster.node(0).stats().completed_count(), acked_before)
        << "the primary acked before the crash";
    cluster.node(0).CrashNow();
  });
  engine.ScheduleAt(arrived + 1 * kMillisecond,
                    [&]() { cluster.node(0).RestartNow(); });
  engine.Run();

  ASSERT_TRUE(wrote.has_value());
  EXPECT_TRUE(wrote->ok()) << wrote->status().ToString();
  EXPECT_EQ(cluster.node(0).stats().reliability().failovers, 1u);
  EXPECT_TRUE(cluster.InSync(0)) << "crashed primary never rejoined";
  EXPECT_TRUE(cluster.InSync(1));
  EXPECT_EQ(cluster.node(0).stats().reliability().resync_bytes,
            v2.size_bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, ft), v2.bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 1, 1, ft), v2.bytes());
}

TEST(ClusterTest, WriteLosingEveryReplicaAbortsItsEpoch) {
  sim::Engine engine;
  ShardedPool pool(&engine, TestConfig(2));
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(128 * kKiB, 7);
  const Table v2 = MakeRows(128 * kKiB, 8);
  FTable ft = AllocOnly(client, v1);
  ASSERT_TRUE(client.TableWrite(ft, v1).ok());

  // Both replicas die while the primary hop is in flight: the primary's
  // ack is voided, and the failover hop finds the secondary down.
  const SimTime arrived =
      engine.Now() + cluster.node(0).config().net.fv_request_latency;
  std::optional<Result<SimTime>> wrote;
  client.TableWriteAsync(ft, v2, [&](Result<SimTime> w) { wrote.emplace(w); });
  engine.ScheduleAt(arrived + 1 * kNanosecond, [&]() {
    cluster.node(0).CrashNow();
    cluster.node(1).CrashNow();
  });
  engine.ScheduleAt(arrived + 1 * kMillisecond, [&]() {
    ASSERT_TRUE(wrote.has_value());
    cluster.node(0).RestartNow();
  });
  // With replica 1 still down there is no resync source: only an aborted
  // epoch lets replica 0 rejoin instead of parking.
  engine.ScheduleAt(arrived + 2 * kMillisecond, [&]() {
    EXPECT_TRUE(cluster.InSync(0)) << "replica 0 parked on an aborted epoch";
    cluster.node(1).RestartNow();
  });
  engine.Run();

  ASSERT_TRUE(wrote.has_value());
  ASSERT_FALSE(wrote->ok());
  // The first health error (the primary's voided ack) is the one reported.
  EXPECT_TRUE(wrote->status().IsUnavailable());
  EXPECT_NE(wrote->status().ToString().find("crashed during execution"),
            std::string::npos)
      << wrote->status().ToString();
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(cluster.InSync(r)) << "replica " << r << " never rejoined";
  }
  // The primary took the bytes when the write was posted, and rejoined
  // first with no source to copy from; replica 1 then copied the aborted
  // write's range from it, so the two agree.
  EXPECT_EQ(cluster.node(0).stats().reliability().resync_bytes, 0u);
  EXPECT_EQ(cluster.node(1).stats().reliability().resync_bytes,
            v2.size_bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, ft), v2.bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 1, 1, ft), v2.bytes());
}

TEST(ClusterTest, WriteAbortedOnEveryReplicaLeavesRoutedReadsAgreeing) {
  // The primary takes the write's bytes and dies before its ack; the
  // failover hop finds the secondary down, so the write is aborted and
  // only the primary holds the new bytes. Whichever replica restarts first
  // rejoins alone with what it holds, and the other copies the aborted
  // write's range from it: every routed read then returns the same bytes.
  for (const int first : {0, 1}) {
    SCOPED_TRACE("replica " + std::to_string(first) + " restarts first");
    sim::Engine engine;
    ShardedPool pool(&engine, TestConfig(2));
    FarviewCluster& cluster = pool.shard(0);
    ShardedClient client(&pool, 1);
    ASSERT_TRUE(client.OpenConnection().ok());
    const Table v1 = MakeRows(128 * kKiB, 7);
    const Table v2 = MakeRows(128 * kKiB, 8);
    FTable ft = AllocOnly(client, v1);
    ASSERT_TRUE(client.TableWrite(ft, v1).ok());

    const SimTime arrived =
        engine.Now() + cluster.node(0).config().net.fv_request_latency;
    std::optional<Result<SimTime>> wrote;
    client.TableWriteAsync(ft, v2,
                           [&](Result<SimTime> w) { wrote.emplace(w); });
    engine.ScheduleAt(arrived + 1 * kNanosecond, [&]() {
      cluster.node(0).CrashNow();
      cluster.node(1).CrashNow();
    });
    engine.ScheduleAt(arrived + 1 * kMillisecond,
                      [&]() { cluster.node(first).RestartNow(); });
    engine.ScheduleAt(arrived + 2 * kMillisecond,
                      [&]() { cluster.node(1 - first).RestartNow(); });
    engine.Run();

    ASSERT_TRUE(wrote.has_value());
    EXPECT_TRUE(wrote->status().IsUnavailable()) << wrote->status().ToString();
    const ByteBuffer& expect = first == 0 ? v2.bytes() : v1.bytes();
    for (int r = 0; r < 2; ++r) {
      EXPECT_TRUE(cluster.InSync(r)) << "replica " << r;
      EXPECT_EQ(ReplicaBytes(cluster, r, 1, ft), expect) << "replica " << r;
    }
    for (int i = 0; i < 4; ++i) {
      Result<FvResult> read = client.TableRead(ft);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      EXPECT_EQ(read.value().data, expect) << "read " << i;
    }
  }
}

TEST(ClusterTest, SecondaryCrashDuringTheMirrorHopStillAcksAndResyncs) {
  sim::Engine engine;
  ShardedPool pool(&engine, TestConfig(2));
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(128 * kKiB, 7);
  const Table v2 = MakeRows(128 * kKiB, 8);
  FTable ft = AllocOnly(client, v1);

  // Unfaulted, the mirror hop starts at the primary's ack, about halfway
  // through the write; three quarters of the way in it is in flight.
  SimTime start = engine.Now();
  Result<SimTime> clean = client.TableWrite(ft, v1);
  ASSERT_TRUE(clean.ok());
  const SimTime mirror_in_flight = (clean.value() - start) * 3 / 4;

  const uint64_t primary_acks = cluster.node(0).stats().completed_count();
  const uint64_t mirror_acks = cluster.node(1).stats().completed_count();
  start = engine.Now();
  std::optional<Result<SimTime>> wrote;
  client.TableWriteAsync(ft, v2, [&](Result<SimTime> w) { wrote.emplace(w); });
  engine.ScheduleAt(start + mirror_in_flight, [&]() {
    EXPECT_EQ(cluster.node(0).stats().completed_count(), primary_acks + 1)
        << "the primary hop has not acked yet";
    EXPECT_EQ(cluster.node(1).stats().completed_count(), mirror_acks)
        << "the mirror hop already acked";
    cluster.node(1).CrashNow();
  });
  engine.ScheduleAt(start + 1 * kMillisecond,
                    [&]() { cluster.node(1).RestartNow(); });
  engine.Run();

  ASSERT_TRUE(wrote.has_value());
  EXPECT_TRUE(wrote->ok()) << wrote->status().ToString();
  EXPECT_TRUE(cluster.InSync(1)) << "crashed secondary never rejoined";
  EXPECT_EQ(cluster.node(1).stats().reliability().resync_bytes,
            v2.size_bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 1, 1, ft), v2.bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, ft), v2.bytes());
}

TEST(ClusterTest, RepeatedCrashMidResyncStillConverges) {
  // Regression: epochs consumed by an in-flight resync stream must return
  // to the missed list when the stream is aborted by a second crash —
  // otherwise the replica rejoins as in-sync while holding pre-crash
  // bytes, violating epoch fencing.
  ShardedConfig sc = TestConfig(2);
  ClusterConfig& cc = sc.cluster;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 1 * kMillisecond;
  cc.node.faults.node_restart_at = 2 * kMillisecond;
  // 256 KiB at 1 Gbps is ~2 ms of resync: the 3 ms crash below lands
  // squarely inside the stream.
  cc.replication.resync_rate_bytes_per_sec = GbpsToBytesPerSec(1.0);
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(256 * kKiB, 7);
  const Table v2 = MakeRows(256 * kKiB, 8);
  FTable ft = AllocOnly(client, v1);

  client.TableWriteAsync(ft, v1, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  engine.ScheduleAt(1200 * kMicrosecond, [&]() {
    client.TableWriteAsync(ft, v2, [](Result<SimTime> w) {
      EXPECT_TRUE(w.ok());
    });
  });
  // Second outage, injected directly (the config schedule is one-shot),
  // while the first recovery's stream is still copying v2.
  engine.ScheduleAt(3 * kMillisecond, [&]() {
    EXPECT_FALSE(cluster.InSync(0)) << "resync finished before the crash";
    cluster.node(0).CrashNow();
  });
  engine.ScheduleAt(3500 * kMicrosecond, [&]() {
    cluster.node(0).RestartNow();
  });
  engine.Run();

  EXPECT_TRUE(cluster.InSync(0)) << "replica 0 never recovered twice";
  const ByteBuffer expect(v2.data(), v2.data() + v2.size_bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, ft), expect)
      << "rejoined holding pre-crash bytes";
  const NodeStats::ReliabilityStats& rel =
      cluster.node(0).stats().reliability();
  // Only the second, completed recovery counts as a resync; the aborted
  // stream still copied chunks, so total bytes exceed one table copy.
  EXPECT_GE(rel.resyncs, 1u);
  EXPECT_GT(rel.resync_bytes, v2.size_bytes());
}

TEST(ClusterTest, FailedConnectionLeavesClientDisconnected) {
  // Regression: OpenConnection failing on a later replica must not leave
  // the routing state partially populated — connected() would report true
  // and the router would index past the replica vector's end.
  ShardedConfig sc = TestConfig(2);
  ClusterConfig& cc = sc.cluster;
  cc.faulted_replica = 1;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 500 * kMicrosecond;  // stays down
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  engine.ScheduleAt(1 * kMillisecond, []() {});
  engine.Run();  // drive past the crash so replica 1 refuses connections

  ShardedClient client(&pool, 1);
  EXPECT_FALSE(client.OpenConnection().ok());
  EXPECT_FALSE(client.connected());
}

TEST(ClusterTest, RejoinWithFailedPipelineReloadServesReadsOnly) {
  // Regression: a replica whose rejoin pipeline reload fails re-enters
  // rotation for reads (its bytes are in sync) but must be fenced from
  // operator routing — it would run a stale pipeline.
  // Loads reconfigure for region_reconfig_time (5 ms), so the fault
  // schedule sits past the initial load and the mid-outage one starts
  // after the first completes.
  ShardedConfig sc = TestConfig(2);
  ClusterConfig& cc = sc.cluster;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 12 * kMillisecond;
  cc.node.faults.node_restart_at = 14 * kMillisecond;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable ft = AllocOnly(client, rows);
  bool fail_factory = false;
  PipelineFactory factory = [&fail_factory, &ft]() -> Result<Pipeline> {
    if (fail_factory) return Status::Internal("factory offline");
    return PipelineBuilder(ft.schema).Build();
  };

  client.TableWriteAsync(ft, rows, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  client.LoadPipelineAsync(ft, factory, [](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  engine.ScheduleAt(13 * kMillisecond, [&]() {
    // Version bump replica 0 misses. The factory builds the survivor's
    // copy synchronously inside the call, so it can be failed right after
    // — replica 0's rejoin reload at 14 ms then has nothing to load.
    client.LoadPipelineAsync(ft, factory, [](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
    fail_factory = true;
  });
  engine.Run();

  EXPECT_TRUE(cluster.InSync(0)) << "replica 0 never rejoined";
  const uint64_t routed_before =
      cluster.node(0).stats().reliability().cluster_requests;
  for (int i = 0; i < 4; ++i) {
    Result<FvResult> res = client.Offload(ft);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
  }
  // Every operator call went to the survivor with the current pipeline.
  EXPECT_EQ(cluster.node(0).stats().reliability().cluster_requests,
            routed_before)
      << "operator call routed to a replica with a stale pipeline";
  // Reads still use the rejoined replica: issue enough that round-robin
  // must touch it.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(client.TableRead(ft).ok());
  }
  EXPECT_GT(cluster.node(0).stats().reliability().cluster_requests,
            routed_before)
      << "rejoined replica serves no reads";
}

TEST(ClusterTest, RejoinReloadsAMissedPipelineAndServesOffloadsAgain) {
  // Twin of RejoinWithFailedPipelineReloadServesReadsOnly with a factory
  // that keeps working: replica 0 misses a pipeline version and an
  // allocation while down, so its rejoin pass replays only a control entry
  // and its rejoin step reloads the pipeline (a 5 ms reconfiguration). A
  // write posted during that reload is missed too and resynced by a second
  // pass before the replica rejoins with the current pipeline.
  ShardedConfig sc = TestConfig(2);
  ClusterConfig& cc = sc.cluster;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 12 * kMillisecond;
  cc.node.faults.node_restart_at = 14 * kMillisecond;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(128 * kKiB, 5);
  const Table v2 = MakeRows(128 * kKiB, 6);
  FTable ft = AllocOnly(client, v1);
  PipelineFactory factory = [&ft]() -> Result<Pipeline> {
    return PipelineBuilder(ft.schema).Build();
  };

  client.TableWriteAsync(ft, v1, [](Result<SimTime> w) {
    EXPECT_TRUE(w.ok());
  });
  client.LoadPipelineAsync(ft, factory, [](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  FTable during;
  engine.ScheduleAt(13 * kMillisecond, [&]() {
    // Replica 0 is down: it misses both the version bump and the
    // allocation (no write follows, so its pass replays control only).
    client.LoadPipelineAsync(ft, factory, [](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
    during = AllocOnly(client, v1, "during");
  });
  std::optional<Result<SimTime>> reload_write;
  engine.ScheduleAt(15 * kMillisecond, [&]() {
    // Restarted at 14 ms, replica 0 is still reloading the pipeline.
    EXPECT_FALSE(cluster.InSync(0));
    client.TableWriteAsync(
        ft, v2, [&](Result<SimTime> w) { reload_write.emplace(w); });
  });
  engine.Run();

  ASSERT_TRUE(reload_write.has_value());
  EXPECT_TRUE(reload_write->ok());
  EXPECT_TRUE(cluster.InSync(0)) << "replica 0 never rejoined";
  const ByteBuffer expect(v2.data(), v2.data() + v2.size_bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, ft), expect);
  EXPECT_EQ(ReplicaBytes(cluster, 1, 1, ft), expect);
  // The replayed allocation left both allocators at the same address.
  FTable after = AllocOnly(client, v1, "after");
  EXPECT_NE(after.vaddr, during.vaddr);

  const uint64_t routed_before =
      cluster.node(0).stats().reliability().cluster_requests;
  for (int i = 0; i < 4; ++i) {
    Result<FvResult> res = client.Offload(ft);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res.value().data, expect);
  }
  EXPECT_GT(cluster.node(0).stats().reliability().cluster_requests,
            routed_before)
      << "reloaded replica serves no operator calls";
}

TEST(ClusterTest, TwoClientsShareTheCrashAndTheRejoin) {
  // Two pool clients on one shard: replica 0's crash opens both clients'
  // breakers on it, a pipeline version client 2 loads during the outage is
  // reloaded before the replica rejoins, and client 1, closed meanwhile,
  // takes no part in the rejoin.
  ShardedConfig sc = TestConfig(2);
  ClusterConfig& cc = sc.cluster;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = 12 * kMillisecond;
  cc.node.faults.node_restart_at = 14 * kMillisecond;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client1(&pool, 1);
  ShardedClient client2(&pool, 2);
  ASSERT_TRUE(client1.OpenConnection().ok());
  ASSERT_TRUE(client2.OpenConnection().ok());
  const Table rows = MakeRows(128 * kKiB);
  FTable t1 = AllocOnly(client1, rows, "t1");
  FTable t2 = AllocOnly(client2, rows, "t2");
  PipelineFactory factory = [&rows]() -> Result<Pipeline> {
    return PipelineBuilder(rows.schema()).Build();
  };
  auto upload = [&](ShardedClient& client, const FTable& ft) {
    client.TableWriteAsync(ft, rows, [](Result<SimTime> w) {
      EXPECT_TRUE(w.ok());
    });
    client.LoadPipelineAsync(ft, factory, [](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
  };
  upload(client1, t1);
  upload(client2, t2);
  engine.ScheduleAt(12 * kMillisecond + 1 * kMicrosecond, [&]() {
    for (ShardedClient* client : {&client1, &client2}) {
      EXPECT_EQ(client->breaker(0, 0).state(), CircuitBreaker::State::kOpen)
          << "client " << client->client_id();
      EXPECT_EQ(client->breaker(0, 1).state(),
                CircuitBreaker::State::kClosed)
          << "client " << client->client_id();
    }
  });
  engine.ScheduleAt(13 * kMillisecond, [&]() {
    client2.LoadPipelineAsync(t2, factory, [](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
    client1.CloseConnection();
  });
  engine.Run();

  ASSERT_TRUE(cluster.InSync(0)) << "replica 0 never rejoined";
  // The restart, then client 2's reload: its request crosses the network
  // (0.9 us) and the region reconfigures (5 ms). Client 1's pipeline was
  // current, and its connection is closed.
  EXPECT_EQ(cluster.in_sync_at(0), 19 * kMillisecond + 900 * kNanosecond);
  const uint64_t routed_before =
      cluster.node(0).stats().reliability().cluster_requests;
  for (int i = 0; i < 4; ++i) {
    Result<FvResult> res = client2.Offload(t2);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res.value().data, rows.bytes());
  }
  EXPECT_GT(cluster.node(0).stats().reliability().cluster_requests,
            routed_before)
      << "client 2's offloads never returned to the rejoined replica";
}

TEST(ClusterTest, AbortedEpochUnparksLoneFencedReplica) {
  // A write hop failing on an in-sync replica fences it immediately, and
  // with no other in-sync replica the rejoin pass parks it waiting for a
  // resync source. If that write epoch is then aborted, an aborted write
  // never needs a source — the abort must restart the parked recovery, or
  // the lone replica stays fenced forever and the pool is dead.
  sim::Engine engine;
  FarviewCluster cluster(&engine, TestConfig(1).cluster);
  const uint64_t epoch = FarviewClusterTestPeer::MissWrite(cluster, 0);
  ASSERT_FALSE(cluster.InSync(0)) << "missed epoch must fence the replica";
  FarviewClusterTestPeer::Abort(cluster, epoch);
  EXPECT_TRUE(cluster.InSync(0))
      << "aborted epoch left the lone replica parked";
}

TEST(ClusterTest, RepeatCrashWithAbortedEpochConvergesAndRejoins) {
  // Repeat-crash regression for the abort/generation bookkeeping: replica
  // 0 crashes, misses a write, restarts, crashes *again* mid-resync (the
  // generation guard must void the first stream and re-queue its epochs),
  // and while both replicas are down a write is aborted — neither recovery
  // may wait on a source for that epoch. Replica 1 in particular rejoins
  // instantly: its only missed epoch is the aborted one, and no replica is
  // in sync to copy it from.
  sim::Engine engine;
  ShardedPool pool(&engine, TestConfig(2));
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(1 * kMiB, 5);
  const Table v2 = MakeRows(1 * kMiB, 6);
  FTable ft = AllocOnly(client, v1);
  ASSERT_TRUE(client.TableWrite(ft, v1).ok());

  std::optional<Result<SimTime>> missed_write;
  std::optional<Result<SimTime>> aborted_write;
  engine.ScheduleAt(1 * kMillisecond, [&]() { cluster.node(0).CrashNow(); });
  engine.ScheduleAt(1100 * kMicrosecond, [&]() {
    // Lands on replica 1 only; replica 0 misses the epoch.
    client.TableWriteAsync(ft, v2,
                           [&](Result<SimTime> w) { missed_write.emplace(w); });
  });
  engine.ScheduleAt(2 * kMillisecond, [&]() { cluster.node(0).RestartNow(); });
  // The 1 MiB resync at 20 Gbps takes ~420 us; crash again mid-stream.
  engine.ScheduleAt(2100 * kMicrosecond, [&]() {
    EXPECT_FALSE(cluster.InSync(0));
    cluster.node(0).CrashNow();
  });
  engine.ScheduleAt(3 * kMillisecond, [&]() { cluster.node(1).CrashNow(); });
  engine.ScheduleAt(3100 * kMicrosecond, [&]() {
    // Both replicas down: the write applies nowhere and must be aborted.
    client.TableWriteAsync(
        ft, v1, [&](Result<SimTime> w) { aborted_write.emplace(w); });
  });
  engine.ScheduleAt(4 * kMillisecond, [&]() { cluster.node(1).RestartNow(); });
  engine.ScheduleAt(4500 * kMicrosecond, [&]() {
    // Replica 1 applied every live epoch; the aborted one must not block
    // its rejoin (there is no in-sync resync source to wait for).
    EXPECT_TRUE(cluster.InSync(1))
        << "aborted epoch blocked the survivor's rejoin";
  });
  engine.ScheduleAt(5 * kMillisecond, [&]() { cluster.node(0).RestartNow(); });
  engine.Run();

  ASSERT_TRUE(missed_write.has_value() && aborted_write.has_value());
  EXPECT_TRUE(missed_write->ok());
  ASSERT_FALSE(aborted_write->ok());
  EXPECT_TRUE(aborted_write->status().IsUnavailable());
  EXPECT_TRUE(cluster.InSync(0)) << "repeat-crashed replica never rejoined";
  EXPECT_TRUE(cluster.InSync(1));
  // Replica 0 converged to the survivor's bytes despite the aborted
  // stream of the first recovery attempt.
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, ft), ReplicaBytes(cluster, 1, 1, ft));
  // The pool still serves both verbs.
  EXPECT_TRUE(client.TableWrite(ft, v2).ok());
  EXPECT_TRUE(client.TableRead(ft).ok());
}

// --- Closing with calls in flight -------------------------------------------

/// Runs `issue` at the engine's current time and `CloseConnection` 10 us
/// later, then drains the engine.
void CloseDuring(sim::Engine& engine, ShardedClient& client,
                 const std::function<void()>& issue) {
  issue();
  engine.ScheduleAfter(10 * kMicrosecond, [&]() { client.CloseConnection(); });
  engine.Run();
}

TEST(ClusterTest, CloseWithReadsInFlightFailsEachOnce) {
  // Regression: the routed calls' completions indexed the routing state
  // CloseConnection had cleared. With or without the retry policy, each
  // call in flight settles exactly once with FailedPrecondition.
  for (const bool retry : {false, true}) {
    SCOPED_TRACE(retry ? "retry on" : "retry off");
    ShardedConfig sc = TestConfig(2);
    sc.cluster.node.retry.enabled = retry;
    sim::Engine engine;
    ShardedPool pool(&engine, sc);
    ShardedClient client(&pool, 1);
    ASSERT_TRUE(client.OpenConnection().ok());
    const Table rows = MakeRows(1 * kMiB);
    FTable ft = AllocOnly(client, rows);
    ASSERT_TRUE(client.TableWrite(ft, rows).ok());

    std::vector<Result<FvResult>> settled;
    CloseDuring(engine, client, [&]() {
      for (int i = 0; i < 2; ++i) {  // one read on each replica
        client.TableReadAsync(
            ft, [&](Result<FvResult> r) { settled.push_back(std::move(r)); });
      }
    });
    ASSERT_EQ(settled.size(), 2u);
    for (const Result<FvResult>& r : settled) {
      EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
    }
    EXPECT_FALSE(client.connected());
  }
}

TEST(ClusterTest, CloseWithAnOffloadInFlightFailsItOnce) {
  sim::Engine engine;
  ShardedPool pool(&engine, TestConfig(2));
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table rows = MakeRows(1 * kMiB);
  FTable ft = AllocOnly(client, rows);
  ASSERT_TRUE(client.TableWrite(ft, rows).ok());
  ASSERT_TRUE(client
                  .LoadPipeline(ft, [&ft]() -> Result<Pipeline> {
                    return PipelineBuilder(ft.schema).Build();
                  })
                  .ok());

  int calls = 0;
  std::optional<Result<FvResult>> offload;
  CloseDuring(engine, client, [&]() {
    client.OffloadAsync(ft, /*vectorized=*/false, [&](Result<FvResult> r) {
      ++calls;
      offload.emplace(std::move(r));
    });
  });
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(offload.has_value());
  EXPECT_TRUE(offload->status().IsFailedPrecondition())
      << offload->status().ToString();
}

TEST(ClusterTest, CloseWithAMirroredWriteInFlightStillConverges) {
  // The primary acks after the close: no mirror hop can be posted any
  // more, so the write fails FailedPrecondition, but its epoch is applied
  // on the primary and missed on the secondary, which resyncs. The
  // replicas a later client reads agree.
  sim::Engine engine;
  ShardedPool pool(&engine, TestConfig(2));
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(1 * kMiB, 5);
  const Table v2 = MakeRows(1 * kMiB, 6);
  FTable ft = AllocOnly(client, v1);
  ASSERT_TRUE(client.TableWrite(ft, v1).ok());

  int calls = 0;
  std::optional<Result<SimTime>> wrote;
  CloseDuring(engine, client, [&]() {
    client.TableWriteAsync(ft, v2, [&](Result<SimTime> w) {
      ++calls;
      wrote.emplace(std::move(w));
    });
  });
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(wrote.has_value());
  EXPECT_TRUE(wrote->status().IsFailedPrecondition())
      << wrote->status().ToString();
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(cluster.InSync(r)) << "replica " << r;
  }
  const ByteBuffer expect(v2.data(), v2.data() + v2.size_bytes());
  EXPECT_EQ(ReplicaBytes(cluster, 0, 1, ft), expect);
  EXPECT_EQ(ReplicaBytes(cluster, 1, 1, ft), expect);
}

TEST(ClusterTest, ReusedTableNameKeepsReplicaAllocatorsAligned) {
  // Regression: each replica's client kept a catalog that refused a taken
  // name after that replica's allocator had already allocated, so the
  // replicas' allocators diverged and every later allocation on the shard
  // failed. The pool keys its tables by address: a reused name is a new
  // table.
  sim::Engine engine;
  ShardedPool pool(&engine, TestConfig(2));
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const Table v1 = MakeRows(64 * kKiB, 5);
  const Table v2 = MakeRows(64 * kKiB, 6);
  FTable first = AllocOnly(client, v1, "t");
  FTable second = AllocOnly(client, v2, "t");
  EXPECT_NE(first.vaddr, second.vaddr);
  FTable other = AllocOnly(client, v1, "u");
  ASSERT_TRUE(client.TableWrite(first, v1).ok());
  ASSERT_TRUE(client.TableWrite(second, v2).ok());
  Result<FvResult> read = client.TableRead(second);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().data, v2.bytes());
  EXPECT_TRUE(client.FreeTableMem(&other).ok());
}

}  // namespace
}  // namespace farview
