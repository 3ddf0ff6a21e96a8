// Wall-clock performance harness for the simulator core (DESIGN.md §8,
// EXPERIMENTS.md "Simulator performance").
//
// Unlike every other bench driver, this one intentionally measures HOST
// time: it exists to keep the simulator fast enough that the full figure
// suite stays cheap to run, not to reproduce a paper number. Its stdout is
// therefore machine-dependent and it is excluded from the bench
// byte-identity sweep (scripts/check_bench_identity.sh), exactly like the
// google-benchmark micro_primitives driver.
//
// Three representative workloads bracket the hot paths:
//  - fig6_read:    one client streaming 4 MiB raw reads (network stack and
//                  memory controller dominated; long burst trains).
//  - fig12_multiclient: six concurrent DISTINCT queries (operator pipeline,
//                  per-region servers, DRAM sharing — the densest event mix).
//  - ext_faults:   lossy 1 MiB reads with an 8-packet credit window
//                  (retransmit timers, attempt timeouts, client retries —
//                  far-future events stressing the calendar overflow).
// The layer workloads below them (failover, shardout, overload) add the
// replication, routing and admission event mixes, and far_future_drain
// isolates the event queue's far-future overflow.
//
// Per workload the harness reports simulated events executed, wall time,
// events/sec, ns/event, and — when the counting allocator hook is linked and
// active (see common/alloc_counter.h) — heap allocations per event. Output
// is a human-readable table on stdout plus a JSON report (default
// BENCH_simcore.json, override with FV_BENCH_JSON; FV_BENCH_JSON=- skips the
// file) consumed by scripts/bench_report.sh and the CI perf-smoke job.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchlib/experiment.h"
#include "common/alloc_counter.h"
#include "common/logging.h"
#include "common/rng.h"
#include "fv/region_scheduler.h"
#include "fv/sharding.h"
#include "table/generator.h"

namespace farview {
namespace {

struct Measurement {
  std::string name;
  uint64_t events = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  double wall_ns = 0;

  double events_per_sec() const {
    return wall_ns > 0 ? static_cast<double>(events) * 1e9 / wall_ns : 0.0;
  }
  double ns_per_event() const {
    return events > 0 ? wall_ns / static_cast<double>(events) : 0.0;
  }
  double allocs_per_event() const {
    return events > 0
               ? static_cast<double>(allocs) / static_cast<double>(events)
               : 0.0;
  }
};

/// Times `body` (which must run the fixture's engine to completion) and
/// attributes the event/allocation deltas to `name`. Setup cost (table
/// generation, uploads, pipeline load) stays outside the measured region.
template <typename Body>
Measurement Measure(const std::string& name, sim::Engine& engine, Body body) {
  const uint64_t events0 = engine.executed_events();
  const uint64_t allocs0 = alloc_counter::allocations();
  const uint64_t bytes0 = alloc_counter::bytes();
  const auto wall0 = std::chrono::steady_clock::now();
  body();
  const auto wall1 = std::chrono::steady_clock::now();
  Measurement m;
  m.name = name;
  m.events = engine.executed_events() - events0;
  m.allocs = alloc_counter::allocations() - allocs0;
  m.alloc_bytes = alloc_counter::bytes() - bytes0;
  m.wall_ns = std::chrono::duration<double, std::nano>(wall1 - wall0).count();
  return m;
}

/// fig6-style raw read: one client, 4 MiB table, three sequential reads.
Measurement RunFig6Read() {
  constexpr uint64_t kBytes = 4 * kMiB;
  bench::FvFixture fx;
  TableGenerator gen(kBytes);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), kBytes / 64, 100);
  FV_CHECK(t.ok()) << t.status().message();
  const FTable ft = fx.Upload("t", t.value());
  return Measure("fig6_read", fx.engine(), [&] {
    for (int i = 0; i < 3; ++i) {
      Result<FvResult> read = fx.client().TableRead(ft);
      FV_CHECK(read.ok()) << read.status().message();
    }
  });
}

/// fig12-style batch: six clients each running DISTINCT over 128 Ki rows.
Measurement RunFig12Multiclient() {
  constexpr int kClients = 6;
  constexpr uint64_t kRows = 1 << 17;
  bench::FvFixture fx;
  std::vector<FarviewClient*> clients{&fx.client()};
  for (int i = 1; i < kClients; ++i) clients.push_back(&fx.AddClient());

  TableGenerator gen(kRows);
  std::vector<FTable> tables;
  for (int i = 0; i < kClients; ++i) {
    Result<Table> t =
        gen.WithDistinct(Schema::DefaultWideRow(), kRows, 0, 32, 100);
    FV_CHECK(t.ok()) << t.status().message();
    FTable ft;
    ft.name = "t" + std::to_string(i);
    ft.schema = t.value().schema();
    ft.num_rows = kRows;
    FV_CHECK(clients[static_cast<size_t>(i)]->AllocTableMem(&ft).ok());
    FV_CHECK(clients[static_cast<size_t>(i)]->TableWrite(ft, t.value()).ok());
    tables.push_back(ft);
  }
  for (int i = 0; i < kClients; ++i) {
    Result<Pipeline> p = PipelineBuilder(tables[static_cast<size_t>(i)].schema)
                             .Distinct({0})
                             .Build();
    FV_CHECK(p.ok()) << p.status().message();
    clients[static_cast<size_t>(i)]->LoadPipelineAsync(std::move(p).value(),
                                                       [](Status) {});
  }
  fx.engine().Run();

  return Measure("fig12_multiclient", fx.engine(), [&] {
    int completed = 0;
    for (int i = 0; i < kClients; ++i) {
      clients[static_cast<size_t>(i)]->FarviewRequestAsync(
          clients[static_cast<size_t>(i)]->ScanRequest(
              tables[static_cast<size_t>(i)]),
          [&completed](Result<FvResult> r) {
            if (r.ok()) ++completed;
          });
    }
    fx.engine().Run();
    FV_CHECK(completed == kClients);
  });
}

/// ext_faults-style lossy reads: 2% loss, 8-packet credit window, retries
/// enabled — the timer/retry-heavy regime.
Measurement RunExtFaults() {
  constexpr uint64_t kBytes = 1 * kMiB;
  FarviewConfig cfg;
  cfg.net.credit_window_packets = 8;
  cfg.net.faults.enabled = true;
  cfg.net.faults.seed = 42;
  cfg.net.faults.packet_loss_rate = 2e-2;
  cfg.retry.enabled = true;
  bench::FvFixture fx(cfg);
  TableGenerator gen(kBytes);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), kBytes / 64, 100);
  FV_CHECK(t.ok()) << t.status().message();
  const FTable ft = fx.Upload("t", t.value());
  return Measure("ext_faults", fx.engine(), [&] {
    for (int i = 0; i < 12; ++i) {
      bool settled = false;
      fx.client().TableReadAsync(ft,
                                 [&settled](Result<FvResult>) { settled = true; });
      fx.engine().Run();
      FV_CHECK(settled);
    }
  });
}

/// ext_failover-style replicated pool (one shard, two replicas): replica 0
/// crashing at 3 ms and restarting at 6 ms, a closed-loop reader failing
/// over through the circuit breakers and a periodic writer forcing a resync
/// stream on rejoin — the replication-layer event mix (DESIGN.md §12).
Measurement RunExtFailover() {
  constexpr uint64_t kBytes = 1 * kMiB;
  constexpr SimTime kHorizon = 12 * kMillisecond;
  ShardedConfig sc;
  sc.cluster.node.dram.channel_capacity = 64 * kMiB;
  sc.cluster.node.retry.enabled = true;
  sc.cluster.node.faults.enabled = true;
  sc.cluster.node.faults.node_crash_at = 3 * kMillisecond;
  sc.cluster.node.faults.node_restart_at = 6 * kMillisecond;
  sc.cluster.num_replicas = 2;

  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, /*client_id=*/1);
  FV_CHECK(client.OpenConnection().ok());
  TableGenerator gen(kBytes);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), kBytes / 64, 100);
  FV_CHECK(t.ok()) << t.status().message();
  FTable ft;
  ft.name = "t";
  ft.schema = t.value().schema();
  ft.num_rows = t.value().num_rows();
  FV_CHECK(client.AllocTableMem(&ft).ok());

  return Measure("ext_failover", engine, [&] {
    int completed = 0;
    std::function<void()> issue_read = [&] {
      client.TableReadAsync(ft, [&](Result<FvResult> r) {
        if (engine.Now() >= kHorizon) return;
        if (r.ok()) ++completed;
        if (r.ok()) {
          issue_read();
        } else {
          engine.ScheduleAfter(50 * kMicrosecond, issue_read);
        }
      });
    };
    for (SimTime w = 250 * kMicrosecond; w < kHorizon;
         w += 500 * kMicrosecond) {
      engine.ScheduleAt(w, [&] {
        client.TableWriteAsync(ft, t.value(), [](Result<SimTime> r) {
          FV_IGNORE_ERROR(r.status(), "outage writes fail by design");
        });
      });
    }
    client.TableWriteAsync(ft, t.value(), [&](Result<SimTime> r) {
      FV_CHECK(r.ok()) << r.status().ToString();
      issue_read();
    });
    engine.Run();
    FV_CHECK(completed > 0);
  });
}

/// ext_shardout-style sharded pool: four shards serving 16 closed-loop
/// readers over hash-homed key-tables — the scatter/gather routing layer's
/// event mix on top of four independent node stacks (DESIGN.md §13).
Measurement RunExtShardout() {
  constexpr uint64_t kBytes = 256 * kKiB;
  constexpr int kTables = 8;
  constexpr int kReaders = 16;
  constexpr SimTime kHorizon = 3 * kMillisecond;
  ShardedConfig sc;
  sc.num_shards = 4;
  sc.cluster.node.dram.channel_capacity = 128 * kMiB;
  sc.cluster.node.submission_queue_depth = 64;

  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  ShardedClient client(&pool, /*client_id=*/1);
  FV_CHECK(client.OpenConnection().ok());
  TableGenerator gen(kBytes);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), kBytes / 64, 100);
  FV_CHECK(t.ok()) << t.status().message();
  std::vector<FTable> fts(kTables);
  for (int k = 0; k < kTables; ++k) {
    fts[static_cast<size_t>(k)].name =
        std::string("t").append(std::to_string(k));
    fts[static_cast<size_t>(k)].schema = t.value().schema();
    fts[static_cast<size_t>(k)].num_rows = t.value().num_rows();
    FV_CHECK(client
                 .AllocTableMem(&fts[static_cast<size_t>(k)],
                                /*home_shard=*/k % sc.num_shards)
                 .ok());
    FV_CHECK(client.TableWrite(fts[static_cast<size_t>(k)], t.value()).ok());
  }

  return Measure("ext_shardout", engine, [&] {
    Rng rng(42);
    const SimTime end = engine.Now() + kHorizon;
    int completed = 0;
    std::function<void()> issue = [&] {
      client.TableReadAsync(
          fts[static_cast<size_t>(rng.NextBelow(kTables))],
          [&](Result<FvResult> r) {
            if (engine.Now() >= end) return;
            if (r.ok()) {
              ++completed;
              issue();
            } else {
              engine.ScheduleAfter(50 * kMicrosecond, issue);
            }
          });
    };
    for (int c = 0; c < kReaders; ++c) issue();
    engine.Run();
    FV_CHECK(completed > 0);
  });
}

/// ext_overload-style admission storm (DESIGN.md §15): four closed-loop
/// latency-class tenants plus a 256-job batch burst through a
/// RegionScheduler with admission enabled — the token-bucket/EWMA gate and
/// the deficit-weighted drain on every submit/dispatch, the admission
/// layer's event mix.
Measurement RunExtOverload() {
  constexpr uint64_t kVictimLen = 256 * kKiB;
  constexpr uint64_t kStormLen = 64 * kKiB;
  constexpr int kVictims = 4;
  constexpr int kVictimRequests = 25;
  constexpr int kStorm = 256;

  FarviewConfig config;
  config.admission.enabled = true;
  config.admission.tenant_queue_cap = 24;
  config.admission.tenant_burst = 64.0;
  config.admission.tenant_rate_per_sec = 2e6;
  sim::Engine engine;
  FarviewNode node(&engine, config);
  RegionScheduler scheduler(&node);

  TableGenerator gen(7);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), kVictimLen / 64, 100);
  FV_CHECK(t.ok()) << t.status().message();
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

  // Warm-up (pipeline reconfiguration) stays outside the measured region.
  Result<QPair*> warm_qp = node.ConnectShared(99);
  FV_CHECK(warm_qp.ok());
  FvRequest warm;
  warm.vaddr = vaddr.value();
  warm.len = kStormLen;
  warm.tuple_bytes = 64;
  for (int r = 0; r < node.config().num_regions; ++r) {
    scheduler.Submit(99, warm_qp.value()->qp_id, key, factory, warm,
                     [](Result<FvResult> res) { FV_CHECK(res.ok()); });
  }
  engine.Run();

  Result<QPair*> hot_qp = node.ConnectShared(7);
  FV_CHECK(hot_qp.ok());
  std::vector<QPair*> victim_qps;
  for (int v = 0; v < kVictims; ++v) {
    Result<QPair*> qp = node.ConnectShared(100 + v);
    FV_CHECK(qp.ok());
    victim_qps.push_back(qp.value());
  }

  return Measure("ext_overload", engine, [&] {
    uint64_t settled = 0;
    FvRequest hot_req = warm;
    hot_req.slo = SloClass::kBatch;
    for (int s = 0; s < kStorm; ++s) {
      scheduler.Submit(7, hot_qp.value()->qp_id, key, factory, hot_req,
                       [&settled](Result<FvResult>) { ++settled; });
    }
    FvRequest victim_req = warm;
    victim_req.len = kVictimLen;
    victim_req.slo = SloClass::kLatencySensitive;
    int done = 0;
    std::vector<int> remaining(kVictims, kVictimRequests);
    std::function<void(int)> issue = [&](int v) {
      scheduler.Submit(100 + v, victim_qps[static_cast<size_t>(v)]->qp_id,
                       key, factory, victim_req,
                       [&, v](Result<FvResult> res) {
                         FV_CHECK(res.ok()) << res.status().ToString();
                         if (--remaining[static_cast<size_t>(v)] > 0) {
                           issue(v);
                         } else {
                           ++done;
                         }
                       });
    };
    for (int v = 0; v < kVictims; ++v) issue(v);
    engine.Run();
    FV_CHECK(done == kVictims && settled == kStorm);
  });
}

/// Far-future drain: 25k events scheduled up front, spread uniformly over
/// 137 ms (about 8k windows of the calendar queue), then drained. All but
/// the first window's events start in the overflow level, so this row times
/// their migration into the window, lap after lap.
Measurement RunFarFutureDrain() {
  constexpr int kEvents = 25000;
  constexpr SimTime kSpread = 137 * kMillisecond;
  sim::Engine engine;
  Rng rng(42);
  for (int i = 0; i < kEvents; ++i) {
    engine.ScheduleAt(
        static_cast<SimTime>(rng.NextBelow(static_cast<uint64_t>(kSpread))),
        [] {});
  }
  return Measure("far_future_drain", engine, [&] { engine.Run(); });
}

std::string JsonReport(const std::vector<Measurement>& ms) {
  std::string out = "{\n  \"schema\": \"fv-perf-simcore-v1\",\n";
  out += "  \"alloc_hook\": ";
  out += alloc_counter::hook_active() ? "true" : "false";
  out += ",\n  \"workloads\": [\n";
  char buf[512];
  for (size_t i = 0; i < ms.size(); ++i) {
    const Measurement& m = ms[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"events\": %llu, \"wall_ns\": %.0f, "
        "\"events_per_sec\": %.0f, \"ns_per_event\": %.1f, "
        "\"allocs\": %llu, \"alloc_bytes\": %llu, \"allocs_per_event\": "
        "%.3f}%s\n",
        m.name.c_str(), static_cast<unsigned long long>(m.events),
        m.wall_ns, m.events_per_sec(), m.ns_per_event(),
        static_cast<unsigned long long>(m.allocs),
        static_cast<unsigned long long>(m.alloc_bytes), m.allocs_per_event(),
        i + 1 < ms.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

/// Best-of-N to damp scheduler noise: the fastest run is the one least
/// perturbed by the host, and every run executes the identical event
/// sequence (the simulator is deterministic).
template <typename Fn>
Measurement BestOf(int n, Fn run) {
  Measurement best = run();
  for (int i = 1; i < n; ++i) {
    Measurement m = run();
    if (m.wall_ns < best.wall_ns) best = m;
  }
  return best;
}

/// True when `name` is selected by the FV_BENCH_ONLY filter (comma-free
/// substring match; unset/empty selects everything). With FV_BENCH_REPS the
/// harness takes best-of-N (default 3) — both knobs exist so a profiler run
/// can isolate and repeat one workload.
bool Selected(const char* name) {
  const char* only = std::getenv("FV_BENCH_ONLY");
  if (only == nullptr || only[0] == '\0') return true;
  return std::string(name).find(only) != std::string::npos;
}

int Reps() {
  const char* reps = std::getenv("FV_BENCH_REPS");
  const int n = reps != nullptr ? std::atoi(reps) : 0;
  return n > 0 ? n : 3;
}

void Run() {
  std::vector<Measurement> ms;
  const int reps = Reps();
  if (Selected("fig6_read")) ms.push_back(BestOf(reps, RunFig6Read));
  if (Selected("fig12_multiclient")) {
    ms.push_back(BestOf(reps, RunFig12Multiclient));
  }
  if (Selected("ext_faults")) ms.push_back(BestOf(reps, RunExtFaults));
  if (Selected("ext_failover")) ms.push_back(BestOf(reps, RunExtFailover));
  if (Selected("ext_shardout")) ms.push_back(BestOf(reps, RunExtShardout));
  if (Selected("ext_overload")) ms.push_back(BestOf(reps, RunExtOverload));
  if (Selected("far_future_drain")) {
    ms.push_back(BestOf(reps, RunFarFutureDrain));
  }

  std::printf("Simulator core performance (wall clock; machine-dependent)\n");
  std::printf("%-20s %12s %10s %12s %10s %12s\n", "workload", "events",
              "wall ms", "events/sec", "ns/event", "allocs/evt");
  for (const Measurement& m : ms) {
    std::printf("%-20s %12llu %10.1f %12.0f %10.1f %12.3f\n",
                m.name.c_str(), static_cast<unsigned long long>(m.events),
                m.wall_ns / 1e6,
                m.events_per_sec(), m.ns_per_event(), m.allocs_per_event());
  }
  if (!alloc_counter::hook_active()) {
    std::printf("(allocation hook inactive — allocs/evt not measured)\n");
  }

  const char* path = std::getenv("FV_BENCH_JSON");
  std::string out_path = path != nullptr ? path : "BENCH_simcore.json";
  if (out_path != "-") {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f != nullptr) {
      const std::string json = JsonReport(ms);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", out_path.c_str());
    }
  }
}

}  // namespace
}  // namespace farview

int main() {
  farview::Run();
  return 0;
}
