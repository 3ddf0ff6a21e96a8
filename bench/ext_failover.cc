// Extension ablation: availability of a replicated Farview pool through a
// node crash and recovery (DESIGN.md §12, EXPERIMENTS.md "ext_failover").
//
// A closed-loop client issues table reads against a replicated pool (a
// one-shard `ShardedPool`) while
// replica 0 crashes at 3 ms and restarts at 6 ms; a periodic writer keeps
// mutating the table so the crashed replica misses epochs and must resync
// from a survivor before rejoining rotation. The timeline counts completed
// reads per 500 us bucket: with one replica the pool goes dark for the
// whole outage (fast-fails only), with two or three the circuit breaker
// trips on the crash observation and the router fails the traffic over
// within one request. Recovery time is bounded by the resync stream rate,
// which the last table sweeps.

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "benchlib/experiment.h"
#include "common/logging.h"
#include "fv/sharding.h"
#include "table/generator.h"

namespace farview {
namespace {

constexpr uint64_t kTableBytes = 1 * kMiB;
constexpr SimTime kCrashAt = 3 * kMillisecond;
constexpr SimTime kRestartAt = 6 * kMillisecond;
constexpr SimTime kHorizon = 12 * kMillisecond;
constexpr SimTime kBucket = 500 * kMicrosecond;
constexpr int kNumBuckets = static_cast<int>(kHorizon / kBucket);
/// Pause before reissuing after a failed read. Fast-fails settle at the
/// issuing instant, so an unpaced closed loop would spin without advancing
/// simulated time.
constexpr SimTime kFailPause = 50 * kMicrosecond;
/// Writer cadence, offset from bucket edges.
constexpr SimTime kWriteFirst = 250 * kMicrosecond;
constexpr SimTime kWritePeriod = 500 * kMicrosecond;

struct ClusterRun {
  std::vector<double> ok_per_bucket;
  double steady_ops = 0;     ///< mean ok/bucket before the crash
  double dip_ops = 0;        ///< min ok/bucket during the outage
  double recovery_pct = 0;   ///< tail throughput as % of steady
  double rejoin_ms = 0;      ///< restart -> back in rotation
  double failovers = 0;
  double fast_fails = 0;
  double circuit_opens = 0;
  double resync_kib = 0;
  double resync_ms = 0;
  std::vector<double> requests_per_replica;
};

/// Runs one crash/restart scenario and collects the availability timeline
/// plus the cluster's reliability counters.
ClusterRun RunCluster(const Table& rows, int num_replicas,
                      double resync_gbps) {
  ShardedConfig sc;
  ClusterConfig& cc = sc.cluster;
  // Replicated runs stand up N nodes on one host; shrink the functional
  // backing (timing-neutral) so three replicas do not allocate 3 GiB.
  cc.node.dram.channel_capacity = 64 * kMiB;
  cc.node.retry.enabled = true;
  cc.node.faults.enabled = true;
  cc.node.faults.node_crash_at = kCrashAt;
  cc.node.faults.node_restart_at = kRestartAt;
  cc.num_replicas = num_replicas;
  cc.replication.resync_rate_bytes_per_sec = GbpsToBytesPerSec(resync_gbps);

  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewCluster& cluster = pool.shard(0);
  ShardedClient client(&pool, /*client_id=*/1);
  FV_CHECK(client.OpenConnection().ok());

  FTable ft;
  ft.name = "t";
  ft.schema = rows.schema();
  ft.num_rows = rows.num_rows();
  FV_CHECK(client.AllocTableMem(&ft).ok());

  ClusterRun run;
  run.ok_per_bucket.assign(kNumBuckets, 0.0);

  // Closed-loop reader: reissue on completion; pause after a failure so
  // same-instant fast-fails cannot spin the loop.
  std::function<void()> issue_read = [&]() {
    client.TableReadAsync(ft, [&](Result<FvResult> r) {
      const SimTime now = engine.Now();
      if (now >= kHorizon) return;
      if (r.ok()) {
        run.ok_per_bucket[static_cast<size_t>(now / kBucket)] += 1;
        issue_read();
      } else {
        engine.ScheduleAfter(kFailPause, issue_read);
      }
    });
  };

  // Periodic writer: keeps the replicas' contents moving so the outage
  // leaves missed write epochs behind. Failures during the outage are
  // expected (R=1 has no in-rotation replica at all).
  for (SimTime t = kWriteFirst; t < kHorizon; t += kWritePeriod) {
    engine.ScheduleAt(t, [&]() {
      client.TableWriteAsync(ft, rows, [](Result<SimTime> r) {
        FV_IGNORE_ERROR(r.status(),
                        "outage writes fail by design; survivors resync");
      });
    });
  }

  // Initial upload, then the read loop; one Run() drains the whole
  // timeline (faults included).
  client.TableWriteAsync(ft, rows, [&](Result<SimTime> r) {
    FV_CHECK(r.ok()) << r.status().ToString();
    issue_read();
  });
  engine.Run();

  const int crash_bucket = static_cast<int>(kCrashAt / kBucket);
  const int restart_bucket = static_cast<int>(kRestartAt / kBucket);
  double steady_sum = 0;
  for (int b = 1; b < crash_bucket; ++b) steady_sum += run.ok_per_bucket[b];
  run.steady_ops = steady_sum / (crash_bucket - 1);
  run.dip_ops = run.ok_per_bucket[crash_bucket];
  for (int b = crash_bucket; b < restart_bucket; ++b) {
    run.dip_ops = std::min(run.dip_ops, run.ok_per_bucket[b]);
  }
  // 8 buckets (4 ms) of tail: the closed loop lands 5/6 reads per bucket
  // depending on phase, so a shorter window aliases that alternation.
  double tail_sum = 0;
  constexpr int kTailBuckets = 8;
  for (int b = kNumBuckets - kTailBuckets; b < kNumBuckets; ++b) {
    tail_sum += run.ok_per_bucket[b];
  }
  run.recovery_pct =
      run.steady_ops > 0 ? 100.0 * tail_sum / kTailBuckets / run.steady_ops
                         : 0.0;
  const SimTime rejoined = cluster.in_sync_at(cc.faulted_replica);
  run.rejoin_ms = rejoined > kRestartAt ? ToMillis(rejoined - kRestartAt) : 0;

  for (int r = 0; r < num_replicas; ++r) {
    const NodeStats::ReliabilityStats& rel =
        cluster.node(r).stats().reliability();
    run.failovers += static_cast<double>(rel.failovers);
    run.fast_fails += static_cast<double>(rel.fast_fails);
    run.circuit_opens += static_cast<double>(rel.circuit_opens);
    run.resync_kib += static_cast<double>(rel.resync_bytes) / kKiB;
    run.resync_ms += ToMillis(rel.resync_time);
    run.requests_per_replica.push_back(
        static_cast<double>(rel.cluster_requests));
  }
  return run;
}

void Run() {
  TableGenerator gen(kTableBytes);
  Result<Table> t =
      gen.Uniform(Schema::DefaultWideRow(), kTableBytes / 64, 100);
  if (!t.ok()) return;

  const double kDefaultResyncGbps = 20.0;
  std::vector<ClusterRun> runs;
  for (int replicas = 1; replicas <= 3; ++replicas) {
    runs.push_back(RunCluster(t.value(), replicas, kDefaultResyncGbps));
  }

  bench::SeriesPrinter timeline(
      "Extension: cluster read availability through crash (3 ms) and "
      "restart (6 ms) [ok reads / 500 us]",
      "time ms", {"R=1", "R=2", "R=3"});
  for (int b = 0; b < kNumBuckets; ++b) {
    char label[16];
    std::snprintf(label, sizeof(label), "%.1f",
                  ToMillis(static_cast<SimTime>(b) * kBucket));
    timeline.Row(label, {runs[0].ok_per_bucket[static_cast<size_t>(b)],
                         runs[1].ok_per_bucket[static_cast<size_t>(b)],
                         runs[2].ok_per_bucket[static_cast<size_t>(b)]});
  }
  timeline.Print();

  bench::SeriesPrinter summary(
      "Extension: failover summary by pool size", "replicas",
      {"steady ok/bkt", "dip ok/bkt", "recovery %", "rejoin ms", "failovers",
       "fast fails", "circuit opens", "resync KiB", "resync ms"});
  for (int replicas = 1; replicas <= 3; ++replicas) {
    const ClusterRun& r = runs[static_cast<size_t>(replicas - 1)];
    summary.Row(std::to_string(replicas),
                {r.steady_ops, r.dip_ops, r.recovery_pct, r.rejoin_ms,
                 r.failovers, r.fast_fails, r.circuit_opens, r.resync_kib,
                 r.resync_ms});
  }
  summary.Print();

  bench::SeriesPrinter share(
      "Extension: routed-request share per replica (R=3)", "replica",
      {"requests", "share %"});
  double total = 0;
  for (const double v : runs[2].requests_per_replica) total += v;
  for (int r = 0; r < 3; ++r) {
    const double reqs = runs[2].requests_per_replica[static_cast<size_t>(r)];
    share.Row(std::to_string(r), {reqs, total > 0 ? 100.0 * reqs / total : 0});
  }
  share.Print();

  bench::SeriesPrinter resync(
      "Extension: recovery time vs resync stream rate (R=2)", "rate Gbps",
      {"rejoin ms", "resync KiB", "recovery %"});
  for (const double gbps : {5.0, 10.0, 20.0, 40.0}) {
    const ClusterRun r = RunCluster(t.value(), 2, gbps);
    char label[16];
    std::snprintf(label, sizeof(label), "%g", gbps);
    resync.Row(label, {r.rejoin_ms, r.resync_kib, r.recovery_pct});
  }
  resync.Print();
}

}  // namespace
}  // namespace farview

int main() {
  farview::Run();
  return 0;
}
