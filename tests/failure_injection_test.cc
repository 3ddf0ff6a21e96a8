// Failure-injection and determinism tests for the whole node: exhausted
// resources, busy regions, dangling handles — every failure must surface as
// a Status, never corrupt state, and the node must stay usable afterwards.
// Plus the global regression guard: the simulator is bit-deterministic.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "benchlib/experiment.h"
#include "fv/client.h"
#include "fv/farview_node.h"
#include "fv/sharding.h"
#include "table/generator.h"

namespace farview {
namespace {

TEST(FailureInjectionTest, MemoryExhaustionIsCleanAndRecoverable) {
  FarviewConfig cfg;
  cfg.dram.channel_capacity = 4 * Mmu::kPageSize;  // 8 pages total
  sim::Engine engine;
  FarviewNode node(&engine, cfg);
  FarviewClient client(&node, 1);
  ASSERT_TRUE(client.OpenConnection().ok());

  FTable big;
  big.name = "big";
  big.schema = Schema::DefaultWideRow();
  big.num_rows = (9 * Mmu::kPageSize) / 64;  // needs 9 pages
  EXPECT_TRUE(client.AllocTableMem(&big).IsOutOfMemory());
  EXPECT_FALSE(client.catalog().Contains("big"));

  // Node still serves smaller allocations afterwards.
  FTable small;
  small.name = "small";
  small.schema = Schema::DefaultWideRow();
  small.num_rows = 1024;
  EXPECT_TRUE(client.AllocTableMem(&small).ok());
}

TEST(FailureInjectionTest, TakenTableNameAllocatesNothing) {
  // Regression: the node allocated before the catalog refused the name, so
  // the refused call burned a 2 MiB page and still set the handle's vaddr.
  sim::Engine engine;
  FarviewNode node(&engine, FarviewConfig());
  FarviewClient client(&node, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  FTable first;
  first.name = "t";
  first.schema = Schema::DefaultWideRow();
  first.num_rows = 1024;  // 64 KiB: one page
  ASSERT_TRUE(client.AllocTableMem(&first).ok());

  FTable again = first;
  again.vaddr = 0;
  EXPECT_TRUE(client.AllocTableMem(&again).IsAlreadyExists());
  EXPECT_EQ(again.vaddr, 0u) << "a refused allocation changed the handle";

  FTable next = first;
  next.name = "u";
  ASSERT_TRUE(client.AllocTableMem(&next).ok());
  EXPECT_EQ(next.vaddr, first.vaddr + Mmu::kPageSize)
      << "the refused allocation burned address space";
}

TEST(FailureInjectionTest, RegionBusyRejectsOverlappingWork) {
  bench::FvFixture fx;
  TableGenerator gen(1);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), 50000, 100);
  ASSERT_TRUE(t.ok());
  const FTable ft = fx.Upload("t", t.value());
  Result<Pipeline> p = PipelineBuilder(ft.schema).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(fx.client().LoadPipeline(std::move(p).value()).ok());

  // Fire one request and, before draining the engine, a second on the same
  // connection plus a reconfiguration: both overlapping operations fail
  // with Unavailable while the first completes normally.
  std::optional<Result<FvResult>> first, second;
  std::optional<Status> reload;
  fx.client().FarviewRequestAsync(fx.client().ScanRequest(ft),
                                  [&](Result<FvResult> r) {
                                    first.emplace(std::move(r));
                                  });
  fx.client().FarviewRequestAsync(fx.client().ScanRequest(ft),
                                  [&](Result<FvResult> r) {
                                    second.emplace(std::move(r));
                                  });
  Result<Pipeline> p2 = PipelineBuilder(ft.schema).Build();
  ASSERT_TRUE(p2.ok());
  fx.client().LoadPipelineAsync(std::move(p2).value(),
                                [&](Status s) { reload.emplace(s); });
  fx.engine().Run();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(reload.has_value());
  EXPECT_TRUE(first->ok());
  EXPECT_TRUE(second->status().IsUnavailable());
  EXPECT_TRUE(reload->IsUnavailable());

  // The region is usable again.
  Result<FvResult> again =
      fx.client().FarviewRequest(fx.client().ScanRequest(ft));
  EXPECT_TRUE(again.ok());
}

TEST(FailureInjectionTest, RequestsOnClosedConnectionFail) {
  sim::Engine engine;
  FarviewNode node(&engine, FarviewConfig());
  FarviewClient client(&node, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  const int qp_id = client.qp()->qp_id;
  client.CloseConnection();
  bool failed = false;
  node.TableRead(qp_id, 0x200000, 64, [&](Result<FvResult> r) {
    failed = r.status().IsNotFound();
  });
  engine.Run();
  EXPECT_TRUE(failed);
  EXPECT_TRUE(node.Disconnect(qp_id).IsNotFound());  // double disconnect
}

TEST(FailureInjectionTest, FreeingForeignMemoryDenied) {
  sim::Engine engine;
  FarviewNode node(&engine, FarviewConfig());
  FarviewClient alice(&node, 1), bob(&node, 2);
  ASSERT_TRUE(alice.OpenConnection().ok());
  ASSERT_TRUE(bob.OpenConnection().ok());
  FTable t;
  t.name = "a";
  t.schema = Schema::DefaultWideRow();
  t.num_rows = 100;
  ASSERT_TRUE(alice.AllocTableMem(&t).ok());
  // Bob cannot free Alice's allocation.
  EXPECT_TRUE(node.FreeTableMem(*bob.qp(), t.vaddr).IsFailedPrecondition());
  // Alice still can.
  EXPECT_TRUE(alice.FreeTableMem(&t).ok());
}

TEST(FailureInjectionTest, PipelineErrorLeavesRegionReusable) {
  bench::FvFixture fx;
  TableGenerator gen(2);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), 1000, 100);
  ASSERT_TRUE(t.ok());
  const FTable ft = fx.Upload("t", t.value());
  // Mismatched pipeline width triggers a request-time error...
  Result<Pipeline> narrow = PipelineBuilder(Schema::DefaultWideRow(2)).Build();
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(fx.client().LoadPipeline(std::move(narrow).value()).ok());
  Result<FvResult> bad = fx.client().FarviewRequest(fx.client().ScanRequest(ft));
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  // ... after which a correct pipeline executes fine.
  Result<Pipeline> good = PipelineBuilder(ft.schema).Build();
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(fx.client().LoadPipeline(std::move(good).value()).ok());
  Result<FvResult> ok = fx.client().FarviewRequest(fx.client().ScanRequest(ft));
  EXPECT_TRUE(ok.ok());
}

// ---------------------------------------------------------------------------
// Determinism: the entire node, including multi-client contention, is
// bit-reproducible run-to-run. This is the regression guard that keeps
// every experiment quotable.
// ---------------------------------------------------------------------------

std::vector<SimTime> RunWorkloadOnce() {
  bench::FvFixture fx;
  FarviewClient* c1 = &fx.client();
  FarviewClient* c2 = &fx.AddClient();
  FarviewClient* c3 = &fx.AddClient();
  TableGenerator gen(9);
  std::vector<SimTime> completions;

  std::vector<FTable> tables;
  for (int i = 0; i < 3; ++i) {
    Result<Table> t =
        gen.WithDistinct(Schema::DefaultWideRow(), 20000, 0, 64, 100);
    EXPECT_TRUE(t.ok());
    FarviewClient* c = (i == 0 ? c1 : i == 1 ? c2 : c3);
    FTable ft;
    ft.name = "t" + std::to_string(i);
    ft.schema = t.value().schema();
    ft.num_rows = t.value().num_rows();
    EXPECT_TRUE(c->AllocTableMem(&ft).ok());
    EXPECT_TRUE(c->TableWrite(ft, t.value()).ok());
    tables.push_back(ft);
  }
  int loaded = 0;
  FarviewClient* clients[3] = {c1, c2, c3};
  for (int i = 0; i < 3; ++i) {
    Result<Pipeline> p = PipelineBuilder(tables[static_cast<size_t>(i)]
                                             .schema)
                             .Distinct({0})
                             .Build();
    EXPECT_TRUE(p.ok());
    clients[i]->LoadPipelineAsync(std::move(p).value(),
                                  [&loaded](Status s) {
                                    EXPECT_TRUE(s.ok());
                                    ++loaded;
                                  });
  }
  fx.engine().Run();
  EXPECT_EQ(loaded, 3);
  for (int i = 0; i < 3; ++i) {
    clients[i]->FarviewRequestAsync(
        clients[i]->ScanRequest(tables[static_cast<size_t>(i)]),
        [&completions](Result<FvResult> r) {
          EXPECT_TRUE(r.ok());
          completions.push_back(r.value().completed_at);
        });
  }
  fx.engine().Run();
  return completions;
}

TEST(DeterminismTest, FullWorkloadIsBitReproducible) {
  const std::vector<SimTime> a = RunWorkloadOnce();
  const std::vector<SimTime> b = RunWorkloadOnce();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Cluster liveness (DESIGN.md §12): under every combination of fault
// scenario, pool size, and seed, every request the client issues must
// terminate in exactly ONE of {ok, degraded_raw, definitive error} — no
// request may hang past engine drain, and no callback may fire twice.
// ---------------------------------------------------------------------------

/// Seed under test: FV_FAULT_SEED when set (the CI seed sweep), else 1.
uint64_t LivenessSeed() {
  const char* env = std::getenv("FV_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

struct LivenessScenario {
  const char* name;
  SimTime crash_at = 0;
  SimTime restart_at = 0;
  double region_stall_prob = 0.0;
  double packet_loss_rate = 0.0;
  SimTime link_flap_period = 0;
  SimTime link_flap_down = 0;
};

/// Runs one scenario: reads every 100 us and writes every 500 us over a
/// 4 ms horizon against a pool whose replica 0 runs the fault schedule.
/// Returns via EXPECT_* failures; the caller tags with the scenario name.
void RunLivenessScenario(const LivenessScenario& sc, int replicas,
                         uint64_t seed) {
  ShardedConfig pool_config;  // one shard: a replicated pool
  ClusterConfig& cc = pool_config.cluster;
  cc.node.dram.channel_capacity = 32 * kMiB;
  cc.node.retry.enabled = true;
  cc.seed = seed;
  cc.num_replicas = replicas;
  cc.node.faults.enabled =
      sc.crash_at > 0 || sc.region_stall_prob > 0;
  cc.node.faults.seed = seed;
  cc.node.faults.node_crash_at = sc.crash_at;
  cc.node.faults.node_restart_at = sc.restart_at;
  cc.node.faults.region_stall_prob = sc.region_stall_prob;
  cc.node.net.faults.enabled =
      sc.packet_loss_rate > 0 || sc.link_flap_period > 0;
  cc.node.net.faults.seed = seed;
  cc.node.net.faults.packet_loss_rate = sc.packet_loss_rate;
  cc.node.net.faults.link_flap_period = sc.link_flap_period;
  cc.node.net.faults.link_flap_down = sc.link_flap_down;

  sim::Engine engine;
  ShardedPool pool(&engine, pool_config);
  ShardedClient client(&pool, 1);
  ASSERT_TRUE(client.OpenConnection().ok());
  TableGenerator gen(7);
  Result<Table> t =
      gen.Uniform(Schema::DefaultWideRow(), (128 * kKiB) / 64, 100);
  ASSERT_TRUE(t.ok());
  const Table& rows = t.value();
  FTable ft;
  ft.name = "t";
  ft.schema = rows.schema();
  ft.num_rows = rows.num_rows();
  ASSERT_TRUE(client.AllocTableMem(&ft).ok());

  constexpr SimTime kHorizon = 4 * kMillisecond;
  int issued = 0;
  std::vector<int> settles;  // per-request settle count; must end at 1
  auto track = [&settles](int idx) {
    return [idx, &settles](const Status& s) {
      // Exactly one terminal state: ok (possibly degraded) or a definitive
      // error code — never OK-with-missing-payload, never a second settle.
      settles[static_cast<size_t>(idx)] += 1;
      if (!s.ok()) {
        EXPECT_TRUE(s.IsUnavailable() || s.IsDeadlineExceeded() ||
                    s.IsNotFound() || s.IsFailedPrecondition())
            << "non-definitive error: " << s.ToString();
      }
    };
  };
  for (SimTime at = 50 * kMicrosecond; at < kHorizon;
       at += 100 * kMicrosecond) {
    const int idx = issued++;
    settles.push_back(0);
    engine.ScheduleAt(at, [&, idx]() {
      client.TableReadAsync(ft, [&, idx](Result<FvResult> r) {
        if (r.ok()) {
          EXPECT_EQ(r.value().data.size(), ft.SizeBytes());
        }
        track(idx)(r.status());
      });
    });
  }
  for (SimTime at = 75 * kMicrosecond; at < kHorizon;
       at += 500 * kMicrosecond) {
    const int idx = issued++;
    settles.push_back(0);
    engine.ScheduleAt(at, [&, idx]() {
      client.TableWriteAsync(ft, rows, [&, idx](Result<SimTime> w) {
        track(idx)(w.status());
      });
    });
  }
  engine.Run();

  for (int i = 0; i < issued; ++i) {
    EXPECT_EQ(settles[static_cast<size_t>(i)], 1)
        << "request " << i << " settled " << settles[static_cast<size_t>(i)]
        << " times";
  }
}

TEST(ClusterLivenessTest, EveryRequestTerminatesUnderFaultSweep) {
  const LivenessScenario scenarios[] = {
      {"crash_no_restart", 1 * kMillisecond, 0, 0.0, 0.0, 0, 0},
      {"crash_restart", 1 * kMillisecond, 2 * kMillisecond, 0.0, 0.0, 0, 0},
      {"region_stalls", 0, 0, 0.3, 0.0, 0, 0},
      {"lossy_flapping_link", 0, 0, 0.0, 0.01, 500 * kMicrosecond,
       100 * kMicrosecond},
      {"crash_restart_lossy", 1 * kMillisecond, 2 * kMillisecond, 0.0, 0.01,
       0, 0},
  };
  const uint64_t base_seed = LivenessSeed();
  for (const LivenessScenario& sc : scenarios) {
    for (int replicas = 1; replicas <= 2; ++replicas) {
      SCOPED_TRACE(std::string(sc.name) + " R=" +
                   std::to_string(replicas));
      RunLivenessScenario(sc, replicas, base_seed);
    }
  }
}

}  // namespace
}  // namespace farview
