#ifndef FARVIEW_FV_NODE_STATS_H_
#define FARVIEW_FV_NODE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/units.h"
#include "fv/request_context.h"
#include "sim/stats.h"

namespace farview {

/// One row of a counter table: the counter's report name and its member of
/// `S` (a 64-bit counter, or an array of them for a histogram). Each
/// `NodeStats` counter struct lists its members in one `kCounters` tuple of
/// rows; zero tests and report sections loop over the rows, so no other
/// code lists a counter.
template <class S, class T>
struct Counter {
  const char* name;
  T S::*member;

  static constexpr size_t kBytes = sizeof(T);  ///< bytes of `S` it covers
};

/// Calls `fn(row)` for every row of a counter table, in table order.
template <class Table, class Fn>
constexpr void ForEachCounter(const Table& table, Fn&& fn) {
  std::apply([&fn](const auto&... row) { (fn(row), ...); }, table);
}

/// The 64-bit words of a row's member: the counter itself, or each bucket
/// of a histogram.
template <class T>
constexpr auto CounterWords(T& member) {
  if constexpr (std::is_array_v<T>) {
    return std::span(member);
  } else {
    return std::span(&member, 1);
  }
}

/// True when any word of any row of `table` is non-zero in `s`.
template <class S, class Table>
constexpr bool AnyCounterNonZero(const S& s, const Table& table) {
  bool any = false;
  ForEachCounter(table, [&s, &any](const auto& row) {
    for (const auto w : CounterWords(s.*row.member)) any = any || w != 0;
  });
  return any;
}

/// True when the rows of `S::kCounters` cover exactly `sizeof(S)` bytes,
/// which a member without a row makes false (checked after `NodeStats`).
template <class S>
constexpr bool EveryMemberHasARow() {
  size_t bytes = 0;
  ForEachCounter(S::kCounters,
                 [&bytes](const auto& row) { bytes += row.kBytes; });
  return bytes == sizeof(S);
}

/// Node-wide telemetry registry: the single sink for request lifecycle
/// records that used to live as scattered one-off counters across the
/// network stack, the region scheduler and the bench drivers.
///
/// The registry aggregates, per node:
///  - per-stage latency distributions over completed requests (ingress,
///    queue wait, region execution, egress+delivery, end-to-end), built on
///    `sim::SampleStats`;
///  - per-queue-pair throughput (requests, delivered bytes, rejections,
///    failures, queue-depth high-water marks);
///  - region busy time and, via the caller, egress-link utilization.
///
/// All recording happens at simulated instants from node code; the registry
/// itself is passive bookkeeping and never schedules events, so it cannot
/// perturb timing (the shape tests stay byte-identical with it enabled).
class NodeStats {
 public:
  /// Compact completion record. The registry keeps only the most recent
  /// `kRecentCompletions` of them (`recent_completions()`); the counts and
  /// distributions cover every completion.
  struct RequestRecord {
    uint64_t request_id = 0;
    int qp_id = -1;
    int client_id = -1;
    Verb verb = Verb::kFarview;
    SimTime submitted = 0;
    SimTime ingress_done = 0;
    SimTime region_start = 0;
    SimTime first_memory_beat = 0;
    SimTime operator_done = 0;
    SimTime egress_finished = 0;
    SimTime delivered = 0;
    uint64_t bytes_on_wire = 0;
    uint64_t packets = 0;
    uint64_t rows = 0;
  };

  /// Completion records kept: a fixed window of the latest, so the
  /// registry's memory does not grow with the length of a run.
  static constexpr size_t kRecentCompletions = 64;

  /// Fault, retry and degradation event counts (DESIGN.md §7). All stay
  /// zero while fault injection and the retry policy are disabled, and the
  /// report section is omitted then, so fault-free telemetry output is
  /// byte-identical to the seed.
  struct ReliabilityStats {
    uint64_t region_stalls = 0;     ///< injected pre-execution stalls
    uint64_t region_faults = 0;     ///< region fault windows opened
    uint64_t node_crashes = 0;      ///< whole-node crash events
    uint64_t node_restarts = 0;     ///< recoveries after a crash
    uint64_t crash_failures = 0;    ///< requests failed by a crash/down node
    uint64_t timeouts = 0;          ///< client attempts abandoned at deadline
    uint64_t retries = 0;           ///< retry attempts issued by clients
    uint64_t fallbacks = 0;         ///< degraded raw-read fallbacks
    uint64_t late_completions = 0;  ///< completions after the client gave up

    // Replication / failover events (DESIGN.md §12). Recorded on the
    // replica the event concerns: `failovers` on the replica failed away
    // from, `cluster_requests` on the replica that served a routed call,
    // circuit transitions on the replica whose breaker moved, resync
    // progress on the recovering replica. All stay zero without a cluster.
    uint64_t failovers = 0;          ///< routed calls re-sent to another replica
    uint64_t fast_fails = 0;         ///< calls settled instantly, circuit Open
    uint64_t circuit_opens = 0;      ///< Closed/Half-Open -> Open transitions
    uint64_t circuit_half_opens = 0; ///< Open -> Half-Open transitions
    uint64_t circuit_closes = 0;     ///< Half-Open -> Closed transitions
    uint64_t cluster_requests = 0;   ///< routed calls served by this replica
    uint64_t resyncs = 0;            ///< completed crash-recovery resyncs
    uint64_t resync_bytes = 0;       ///< bytes copied by resync streams
    SimTime resync_time = 0;         ///< restart -> rejoined-rotation total

    /// The "reliability" report section: the fault and retry rows.
    static constexpr std::tuple kFaultCounters{
        Counter{"region_stalls", &ReliabilityStats::region_stalls},
        Counter{"region_faults", &ReliabilityStats::region_faults},
        Counter{"node_crashes", &ReliabilityStats::node_crashes},
        Counter{"node_restarts", &ReliabilityStats::node_restarts},
        Counter{"crash_failures", &ReliabilityStats::crash_failures},
        Counter{"timeouts", &ReliabilityStats::timeouts},
        Counter{"retries", &ReliabilityStats::retries},
        Counter{"fallbacks", &ReliabilityStats::fallbacks},
        Counter{"late_completions", &ReliabilityStats::late_completions},
    };
    /// The "replication" report section: the cluster rows.
    static constexpr std::tuple kClusterCounters{
        Counter{"cluster_requests", &ReliabilityStats::cluster_requests},
        Counter{"failovers", &ReliabilityStats::failovers},
        Counter{"fast_fails", &ReliabilityStats::fast_fails},
        Counter{"circuit_opens", &ReliabilityStats::circuit_opens},
        Counter{"circuit_half_opens", &ReliabilityStats::circuit_half_opens},
        Counter{"circuit_closes", &ReliabilityStats::circuit_closes},
        Counter{"resyncs", &ReliabilityStats::resyncs},
        Counter{"resync_bytes", &ReliabilityStats::resync_bytes},
        Counter{"resync_time_ps", &ReliabilityStats::resync_time},
    };
    /// The counter table: every row of both sections.
    static constexpr auto kCounters =
        std::tuple_cat(kFaultCounters, kClusterCounters);

    bool AnyNonZero() const { return AnyCounterNonZero(*this, kCounters); }
  };

  /// Sharded-pool routing counters (DESIGN.md §13). Recorded on the primary
  /// node of the shard the traffic was routed to, by the pool only
  /// (`ShardedClient` and its shards' routed calls) — bare nodes never
  /// touch them, so the section is omitted from their reports and the seed
  /// goldens stay byte-identical (same gating discipline as
  /// `ReliabilityStats`).
  struct ShardingStats {
    uint64_t fragment_reads = 0;   ///< table-fragment reads served here
    uint64_t fragment_writes = 0;  ///< table-fragment writes applied here
    uint64_t fragment_offloads = 0;  ///< operator fragments executed here
    uint64_t gather_bytes = 0;  ///< result bytes gathered at the client
    uint64_t partial_groups = 0;  ///< partial group rows shipped for merge
    uint64_t repartition_bytes = 0;  ///< build bytes moved to repartition a join

    /// The counter table, which is also the "sharding" report section.
    static constexpr std::tuple kCounters{
        Counter{"fragment_reads", &ShardingStats::fragment_reads},
        Counter{"fragment_writes", &ShardingStats::fragment_writes},
        Counter{"fragment_offloads", &ShardingStats::fragment_offloads},
        Counter{"gather_bytes", &ShardingStats::gather_bytes},
        Counter{"partial_groups", &ShardingStats::partial_groups},
        Counter{"repartition_bytes", &ShardingStats::repartition_bytes},
    };

    bool AnyNonZero() const { return AnyCounterNonZero(*this, kCounters); }
  };

  /// Admission-control and fair-scheduling telemetry (DESIGN.md §15).
  /// Recorded only when `AdmissionConfig::enabled` (plus the always-on
  /// scheduler overflow counter), so the report section is omitted on seed
  /// workloads and their goldens stay byte-identical.
  struct AdmissionStats {
    uint64_t admitted_latency = 0;  ///< admitted latency-sensitive requests
    uint64_t admitted_batch = 0;    ///< admitted batch requests
    uint64_t shed_bucket_latency = 0;  ///< token-bucket / tenant-cap sheds
    uint64_t shed_bucket_batch = 0;
    uint64_t shed_overload_latency = 0;  ///< queue-delay overload sheds
    uint64_t shed_overload_batch = 0;
    uint64_t scheduler_overflows = 0;  ///< node-wide scheduler-cap bounces

    /// Retry-after hints attached to sheds, bucketed by log2 of the hint
    /// in microseconds: bucket i counts hints in [2^i, 2^(i+1)) µs; bucket
    /// 0 also takes sub-microsecond hints and the last bucket everything
    /// larger.
    static constexpr int kRetryAfterBuckets = 8;
    uint64_t shed_delay_hist[kRetryAfterBuckets] = {};

    /// Fairness high-water mark: the deepest per-tenant backlog the region
    /// scheduler ever held (bounded by AdmissionConfig::tenant_queue_cap
    /// when admission is on).
    size_t tenant_backlog_high_water = 0;

    /// The counter table, which is also the "admission" report section.
    static constexpr std::tuple kCounters{
        Counter{"admitted_latency", &AdmissionStats::admitted_latency},
        Counter{"admitted_batch", &AdmissionStats::admitted_batch},
        Counter{"shed_bucket_latency", &AdmissionStats::shed_bucket_latency},
        Counter{"shed_bucket_batch", &AdmissionStats::shed_bucket_batch},
        Counter{"shed_overload_latency",
                &AdmissionStats::shed_overload_latency},
        Counter{"shed_overload_batch", &AdmissionStats::shed_overload_batch},
        Counter{"scheduler_overflows", &AdmissionStats::scheduler_overflows},
        Counter{"shed_delay_hist_log2_us", &AdmissionStats::shed_delay_hist},
        Counter{"tenant_backlog_high_water",
                &AdmissionStats::tenant_backlog_high_water},
    };

    bool AnyNonZero() const { return AnyCounterNonZero(*this, kCounters); }
  };

  /// Per-queue-pair throughput aggregates.
  struct QpStats {
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t rejected = 0;
    uint64_t bytes_delivered = 0;
    size_t queue_high_water = 0;
    /// Earliest submission among completed requests; meaningful once
    /// `completed` > 0 (0 is a valid submit time, not a sentinel).
    SimTime first_submitted = 0;
    SimTime last_delivered = 0;
  };

  NodeStats() = default;

  NodeStats(const NodeStats&) = delete;
  NodeStats& operator=(const NodeStats&) = delete;

  /// Allocates the next node-unique request id (monotone from 1).
  uint64_t NextRequestId() { return ++last_request_id_; }

  /// Counts a finished request, folds it into the distributions and keeps
  /// its record in the recent window. Aborts when its stage stamps are out
  /// of lifecycle order (RequestContext::StampsMonotone), so every
  /// completion is checked, not only the recorded ones.
  void RecordCompletion(const RequestContext& ctx);

  /// Counts a request that reached the node but failed with a Status.
  void RecordFailure(int qp_id);

  /// Counts a request bounced by a full submission queue.
  void RecordRejection(int qp_id);

  /// Updates qp's queue-depth high-water mark with the observed depth.
  void RecordQueueDepth(int qp_id, size_t outstanding);

  /// Accumulates a region's busy interval (request occupancy).
  void RecordRegionBusy(int region_id, SimTime busy);

  // --- Reliability events (DESIGN.md §7) -----------------------------------

  void RecordRegionStall() { ++reliability_.region_stalls; }
  void RecordRegionFault() { ++reliability_.region_faults; }
  void RecordNodeCrash() { ++reliability_.node_crashes; }
  void RecordNodeRestart() { ++reliability_.node_restarts; }
  void RecordCrashFailure() { ++reliability_.crash_failures; }
  void RecordTimeout() { ++reliability_.timeouts; }
  void RecordRetry() { ++reliability_.retries; }
  void RecordFallback() { ++reliability_.fallbacks; }
  void RecordLateCompletion() { ++reliability_.late_completions; }

  // --- Replication / failover events (DESIGN.md §12) -----------------------

  void RecordFailover() { ++reliability_.failovers; }
  void RecordFastFail() { ++reliability_.fast_fails; }
  void RecordCircuitOpen() { ++reliability_.circuit_opens; }
  void RecordCircuitHalfOpen() { ++reliability_.circuit_half_opens; }
  void RecordCircuitClose() { ++reliability_.circuit_closes; }
  void RecordClusterRequest() { ++reliability_.cluster_requests; }
  void RecordResyncBytes(uint64_t bytes) {
    reliability_.resync_bytes += bytes;
  }
  void RecordResyncDone(SimTime elapsed) {
    ++reliability_.resyncs;
    reliability_.resync_time += elapsed;
  }

  // --- Sharded-pool routing events (DESIGN.md §13) -------------------------

  void RecordFragmentRead(uint64_t gathered_bytes) {
    ++sharding_.fragment_reads;
    sharding_.gather_bytes += gathered_bytes;
  }
  void RecordFragmentWrite() { ++sharding_.fragment_writes; }
  void RecordFragmentOffload(uint64_t gathered_bytes) {
    ++sharding_.fragment_offloads;
    sharding_.gather_bytes += gathered_bytes;
  }
  void RecordPartialGroups(uint64_t rows) { sharding_.partial_groups += rows; }
  void RecordRepartitionBytes(uint64_t bytes) {
    sharding_.repartition_bytes += bytes;
  }

  // --- Admission / fair-scheduling events (DESIGN.md §15) ------------------

  /// Counts a request the admission controller let through.
  void RecordAdmitted(SloClass slo);

  /// Counts a shed request: `overload` distinguishes queue-delay overload
  /// sheds from token-bucket/tenant-cap sheds; `retry_after` is the hint
  /// attached to the rejection (folded into the shed-delay histogram).
  void RecordAdmissionShed(SloClass slo, bool overload, SimTime retry_after);

  /// Counts a job bounced by the node-wide scheduler queue cap.
  void RecordSchedulerOverflow() { ++admission_.scheduler_overflows; }

  /// Updates the fairness high-water mark with an observed tenant backlog.
  void RecordTenantBacklog(size_t backlog);

  // --- Queries -------------------------------------------------------------

  uint64_t completed_count() const { return completed_count_; }
  /// Sums of the per-qp `failed` / `rejected` counters.
  uint64_t failed_count() const;
  uint64_t rejected_count() const;

  /// The records of the last `kRecentCompletions` completions (all of
  /// them before that many), oldest first.
  std::vector<RequestRecord> recent_completions() const;
  const std::map<int, QpStats>& per_qp() const { return per_qp_; }
  const ReliabilityStats& reliability() const { return reliability_; }
  const ShardingStats& sharding() const { return sharding_; }
  const AdmissionStats& admission() const { return admission_; }

  /// Stage distributions (latencies in picoseconds).
  const sim::SampleStats& ingress_latency() const { return ingress_; }
  const sim::SampleStats& queue_wait() const { return queue_wait_; }
  const sim::SampleStats& execute_latency() const { return execute_; }
  const sim::SampleStats& egress_latency() const { return egress_; }
  const sim::SampleStats& total_latency() const { return total_; }

  /// Accumulated busy time of `region_id` (0 when never busy).
  SimTime region_busy_time(int region_id) const;

  /// Text dump used by the benches: stage latency percentiles, per-qp
  /// throughput, queue-depth high-water marks, region busy fractions and
  /// the egress-link utilization supplied by the caller, then one
  /// `name=value` line per counter section with a non-zero row.
  std::string FormatReport(SimTime now, double link_utilization) const;

 private:
  uint64_t last_request_id_ = 0;

  uint64_t completed_count_ = 0;
  /// Ring of the latest records: completion i lives in slot
  /// i % kRecentCompletions.
  std::vector<RequestRecord> recent_;
  std::map<int, QpStats> per_qp_;
  std::map<int, SimTime> region_busy_;
  ReliabilityStats reliability_;
  ShardingStats sharding_;
  AdmissionStats admission_;

  sim::SampleStats ingress_;
  sim::SampleStats queue_wait_;
  sim::SampleStats execute_;
  sim::SampleStats egress_;
  sim::SampleStats total_;
};

// A counter added without a table row does not compile.
static_assert(EveryMemberHasARow<NodeStats::ReliabilityStats>());
static_assert(EveryMemberHasARow<NodeStats::ShardingStats>());
static_assert(EveryMemberHasARow<NodeStats::AdmissionStats>());

}  // namespace farview

#endif  // FARVIEW_FV_NODE_STATS_H_
