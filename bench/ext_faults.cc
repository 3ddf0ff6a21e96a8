// Extension ablation: goodput and latency under packet loss, FV vs the
// RNIC and RCPU baselines (DESIGN.md §7, EXPERIMENTS.md "ext_faults").
//
// The FV column runs the full simulated stack with fault injection live
// (seeded Bernoulli loss on egress data packets, selective-repeat
// retransmission after a timeout) and the client retry policy enabled, so
// it pays real retransmit timeouts and, past the knee, whole-attempt
// timeouts with capped-backoff retries. The retry policy runs in the pool
// client, so the node is a one-shard, one-replica pool whose circuit
// breaker never trips within a point (ext_failover measures the breaker;
// this ablation measures the retry policy alone). The baselines stay analytic:
// `RnicModel::ExpectedLossPenalty` charges the expected number of
// per-packet retransmissions on the same wire. Latency is measured at the
// client callback (settle time), never from the drained engine clock —
// stale attempt-timeout events outlive completions by design.

#include <string>
#include <vector>

#include "benchlib/experiment.h"
#include "fv/sharding.h"
#include "net/rnic_model.h"
#include "table/generator.h"

namespace farview {
namespace {

constexpr uint64_t kTransferBytes = 1 * kMiB;
constexpr int kRequestsPerPoint = 6;
constexpr uint64_t kFaultSeed = 42;

struct FvPoint {
  double goodput_gbps = 0;
  double mean_latency_us = 0;
  double retransmits = 0;
  double timeouts = 0;
  double retries = 0;
  double failed = 0;
};

/// Runs `kRequestsPerPoint` sequential 1 MiB reads through a faulted node
/// (a 1x1 pool) and reports client-observed goodput/latency plus
/// reliability counters.
/// `credit_window` shrinks the flow-control window: at the default 64 the
/// window absorbs retransmit holds and FV rides through loss; at 8 each
/// held slot throttles the stream, attempts cross the completion timeout,
/// and the client's retries amplify the load (the knee in EXPERIMENTS.md).
FvPoint RunFv(const Table& rows, double loss_rate, int credit_window) {
  ShardedConfig sc;
  FarviewConfig& cfg = sc.cluster.node;
  cfg.net.credit_window_packets = credit_window;
  cfg.net.faults.enabled = loss_rate > 0;
  cfg.net.faults.seed = kFaultSeed;
  cfg.net.faults.packet_loss_rate = loss_rate;
  cfg.retry.enabled = true;
  sc.cluster.breaker.failure_threshold = kRequestsPerPoint + 1;
  sim::Engine engine;
  ShardedPool pool(&engine, sc);
  FarviewNode& node = pool.shard(0).node(0);
  ShardedClient client(&pool, /*client_id=*/1);
  FV_CHECK(client.OpenConnection().ok());
  FTable ft{.name = "t", .schema = rows.schema(), .num_rows = rows.num_rows()};
  FV_CHECK(client.AllocTableMem(&ft).ok());
  FV_CHECK(client.TableWrite(ft, rows).ok());

  FvPoint point;
  uint64_t delivered = 0;
  SimTime busy = 0;
  for (int i = 0; i < kRequestsPerPoint; ++i) {
    const SimTime issued = engine.Now();
    SimTime settled = 0;
    uint64_t bytes = 0;
    bool ok = false;
    client.TableReadAsync(ft, [&](Result<FvResult> r) {
      settled = engine.Now();
      ok = r.ok();
      if (r.ok()) bytes = r.value().bytes_on_wire;
    });
    engine.Run();
    busy += settled - issued;
    if (ok) {
      delivered += bytes;
    } else {
      point.failed += 1;
    }
  }
  point.goodput_gbps = busy > 0 ? AchievedGBps(delivered, busy) : 0.0;
  point.mean_latency_us = ToMicros(busy) / kRequestsPerPoint;
  point.retransmits =
      static_cast<double>(node.network().fault_counters().retransmits);
  const NodeStats::ReliabilityStats& rel = node.stats().reliability();
  point.timeouts = static_cast<double>(rel.timeouts);
  point.retries = static_cast<double>(rel.retries);
  return point;
}

void Run() {
  bench::SeriesPrinter goodput(
      "Extension: read goodput under packet loss [GB/s]", "loss rate",
      {"FV", "RNIC", "RCPU"});
  bench::SeriesPrinter latency(
      "Extension: read latency under packet loss [us]", "loss rate",
      {"FV", "RNIC", "RCPU"});
  bench::SeriesPrinter reliability(
      "Extension: FV reliability counters", "loss rate",
      {"retransmits", "timeouts", "retries", "failed"});
  bench::SeriesPrinter constrained(
      "Extension: FV with an 8-packet credit window (retry knee)",
      "loss rate", {"GB/s", "latency us", "timeouts", "retries", "failed"});

  TableGenerator gen(kTransferBytes);
  Result<Table> t =
      gen.Uniform(Schema::DefaultWideRow(), kTransferBytes / 64, 100);
  if (!t.ok()) return;

  // RCPU server-side pass-through cost is loss-independent; price it once.
  RemoteEngine rcpu;
  Result<BaselineResult> base = rcpu.Execute(t.value(), QuerySpec());
  if (!base.ok()) return;

  sim::Engine rnic_engine;
  RnicModel rnic(&rnic_engine, NetConfig());

  const std::vector<std::pair<std::string, double>> sweep = {
      {"0", 0.0},     {"1e-4", 1e-4}, {"1e-3", 1e-3}, {"5e-3", 5e-3},
      {"1e-2", 1e-2}, {"2e-2", 2e-2}, {"5e-2", 5e-2}, {"7e-2", 7e-2},
      {"1e-1", 1e-1}};
  for (const auto& [label, p] : sweep) {
    const FvPoint fv = RunFv(t.value(), p, NetConfig().credit_window_packets);

    const SimTime rnic_time =
        rnic.ReadResponseTime(kTransferBytes) +
        rnic.ExpectedLossPenalty(kTransferBytes, p);
    const uint64_t shipped = base.value().data.size();
    const SimTime rcpu_time =
        base.value().elapsed + rnic.ExpectedLossPenalty(shipped, p);

    goodput.Row(label, {fv.goodput_gbps,
                        AchievedGBps(kTransferBytes, rnic_time),
                        AchievedGBps(kTransferBytes, rcpu_time)});
    latency.Row(label, {fv.mean_latency_us, ToMicros(rnic_time),
                        ToMicros(rcpu_time)});
    reliability.Row(label,
                    {fv.retransmits, fv.timeouts, fv.retries, fv.failed});

    const FvPoint w8 = RunFv(t.value(), p, 8);
    constrained.Row(label, {w8.goodput_gbps, w8.mean_latency_us, w8.timeouts,
                            w8.retries, w8.failed});
  }
  goodput.Print();
  latency.Print();
  reliability.Print();
  constrained.Print();
}

}  // namespace
}  // namespace farview

int main() {
  farview::Run();
  return 0;
}
