#ifndef FARVIEW_FV_FV_CONFIG_H_
#define FARVIEW_FV_FV_CONFIG_H_

#include <limits>

#include "common/logging.h"
#include "common/units.h"
#include "fv/request.h"
#include "mem/dram_config.h"
#include "net/net_config.h"

namespace farview {

/// Fault injection at the node/region level (DESIGN.md §7), complementing
/// the packet-level faults in `NetFaultConfig`. All stochastic choices are
/// drawn from a seeded `Rng` stream owned by the node; scheduled events
/// (region fault windows, node crash/restart) happen at fixed simulated
/// instants so tests and benches can position them precisely. With
/// `enabled == false` (the default) the node never draws from the stream
/// and never schedules a fault event, keeping every fault-free simulation
/// bit-identical to the seed.
struct FvFaultConfig {
  /// Master switch; nothing below has any effect while false.
  bool enabled = false;

  /// Seed of the node's fault stream (region-stall draws, in dispatch
  /// order).
  uint64_t seed = 1;

  /// Probability that a dispatched region verb stalls for
  /// `region_stall_time` before execution begins — transient datapath
  /// hiccups (ECC scrub, partial-reconfiguration housekeeping).
  double region_stall_prob = 0.0;
  SimTime region_stall_time = 20 * kMicrosecond;

  /// Takes `faulted_region` down at `region_fault_at` for
  /// `region_fault_duration` (0 duration = stays down). While faulted, the
  /// region rejects work with `Unavailable` and queued requests for it are
  /// failed at dispatch; clients degrade to raw reads (RetryPolicy).
  int faulted_region = -1;
  SimTime region_fault_at = 0;
  SimTime region_fault_duration = 0;

  /// Whole-node crash at `node_crash_at` (0 = never): every queued request
  /// is flushed with `Unavailable`, in-flight requests fail at completion,
  /// and all verbs are rejected until the node restarts at
  /// `node_restart_at` (0 = stays down; otherwise later than
  /// `node_crash_at`). Loaded pipelines survive a restart (configuration
  /// flash); in-flight state does not. Benches position crash and recovery
  /// on one timeline this way (DESIGN.md §12).
  SimTime node_crash_at = 0;
  SimTime node_restart_at = 0;
};

/// Client-side reliability policy (DESIGN.md §7): completion timeouts with
/// capped exponential backoff, and graceful degradation to raw reads. Run
/// by a pool shard's routed calls (`FarviewCluster::Route`), per replica
/// tried; a bare node's `FarviewClient` is single-shot and refuses a node
/// that enables it. Disabled by default, preserving byte-identity.
struct RetryPolicy {
  /// Master switch; when false a routed call issues each verb exactly once
  /// per replica and never arms a timeout.
  bool enabled = false;

  /// Client-side completion deadline per attempt. An attempt that has not
  /// completed by then is abandoned (`DeadlineExceeded`); its late
  /// completion, if any, is counted and dropped.
  SimTime completion_timeout = 250 * kMicrosecond;

  /// Total attempts (first try + retries). Retryable failures are
  /// `Unavailable` and `DeadlineExceeded`; other codes fail immediately.
  int max_attempts = 4;

  /// Backoff before retry k (1-based) is `min(backoff_base * 2^(k-1),
  /// backoff_cap)` — capped exponential.
  SimTime backoff_base = 50 * kMicrosecond;
  SimTime backoff_cap = 400 * kMicrosecond;

  /// Backoff delay before the retry that follows `attempts_done` completed
  /// attempts (1-based; the first retry follows attempt 1). Clamps *before*
  /// each doubling: a cap near the SimTime ceiling would otherwise let the
  /// final doubling overflow the signed picosecond clock (UB, then a
  /// negative delay handed to the scheduler) before the min() could save
  /// it. Identical to the naive capped-exponential for any cap that the
  /// doubling cannot overflow.
  SimTime BackoffForAttempt(int attempts_done) const {
    FV_CHECK(attempts_done >= 1)
        << "backoff is only defined after a completed attempt";
    SimTime backoff = backoff_base;
    for (int i = 1; i < attempts_done && backoff < backoff_cap; ++i) {
      if (backoff > std::numeric_limits<SimTime>::max() / 2) {
        return backoff_cap;
      }
      backoff *= 2;
    }
    return backoff < backoff_cap ? backoff : backoff_cap;
  }

  /// Graceful degradation: when a FARVIEW verb keeps failing and the
  /// connection's region is faulted, fall back to a raw one-sided read of
  /// the request's range (the RNIC-style bypass that needs no operator
  /// stack). The result is marked `FvResult::degraded_raw`.
  bool raw_read_fallback = true;
};

/// Per-tenant admission control and SLO-aware fair scheduling of a node's
/// `RegionScheduler` (DESIGN.md §15): deterministic token buckets per
/// tenant, a queue-delay shed threshold fed by the scheduler's observed
/// `RequestContext::QueueWait()`, and deficit-weighted round-robin drain.
/// Dedicated connections are never gated. Disabled by default — the
/// scheduler then admits every job under its queue cap and drains strict
/// FIFO, preserving byte-identity of every seed bench golden.
struct AdmissionConfig {
  /// Master switch; when false no bucket is consulted, no request is shed,
  /// and the scheduler drains FIFO.
  bool enabled = false;

  /// Token-bucket refill rate per tenant, in admitted requests per
  /// simulated second. Tokens accrue lazily off the engine clock (no
  /// refill events), so the bucket is exactly deterministic.
  double tenant_rate_per_sec = 100000.0;

  /// Bucket capacity in tokens — the burst a tenant may issue above its
  /// sustained rate before the bucket rejects.
  double tenant_burst = 32.0;

  /// Per-tenant cap on jobs waiting in the region scheduler; a tenant at
  /// its cap is shed even with tokens left (backlog bound).
  int tenant_queue_cap = 64;

  /// Queue-delay shed thresholds, compared against the EWMA of the
  /// scheduler's observed `RequestContext::QueueWait()`. Batch jobs are
  /// shed first (lower threshold); latency-sensitive ones only under
  /// deeper overload.
  SimTime shed_delay_batch = 150 * kMicrosecond;
  SimTime shed_delay_latency = 600 * kMicrosecond;

  /// Floor of the retry-after hint attached to `ResourceExhausted`
  /// rejections; overload sheds add the current queue-delay EWMA so the
  /// hint tracks how far behind the node actually is.
  SimTime retry_after_base = 100 * kMicrosecond;

  /// Deficit-weighted round-robin weights per SLO class (quanta granted
  /// per rotation; a tenant's class is the class of its queued head job).
  int weight_latency = 4;
  int weight_batch = 1;

  /// DWRR weight for the SLO class.
  int WeightFor(SloClass slo) const {
    return slo == SloClass::kBatch ? weight_batch : weight_latency;
  }

  /// Class-dependent shed threshold.
  SimTime ShedDelayFor(SloClass slo) const {
    return slo == SloClass::kBatch ? shed_delay_batch : shed_delay_latency;
  }
};

/// Top-level configuration of a Farview node, defaults matching the paper's
/// prototype (Alveo u250, 2 DRAM channels, 6 dynamic regions, 100 Gbps).
struct FarviewConfig {
  DramConfig dram;
  NetConfig net;

  /// Node/region-level fault injection (disabled by default).
  FvFaultConfig faults;

  /// Pool-client timeout/retry/degradation policy (disabled by default).
  RetryPolicy retry;

  /// Per-tenant admission control + fair scheduling (disabled by default).
  AdmissionConfig admission;

  /// Node-wide cap on jobs waiting in the region scheduler, enforced even
  /// with admission disabled (the deque must never grow without bound —
  /// DESIGN.md §15). Overflow is rejected with a typed `Unavailable`.
  /// Large enough that no seed workload ever reaches it.
  int scheduler_queue_cap = 4096;

  /// Number of virtual dynamic regions ("We use six dynamic regions in our
  /// experiments; Farview has been tested with up to ten", Section 6.1).
  int num_regions = 6;

  /// Ingest rate of one (non-vectorized) operator pipeline: the dynamic
  /// region datapath is 64 bytes wide and the operator stack runs at
  /// 250 MHz (Section 4.1), i.e. one tuple-width word per cycle = 16 GB/s.
  double pipe_rate_bytes_per_sec = GBpsToBytesPerSec(16.0);

  /// Number of parallel pipes in the vectorized processing model — "the
  /// number of parallel operators is chosen based on the number of memory
  /// channels" (Section 5.3).
  int vector_pipes = 2;

  /// Maximum outstanding requests per queue pair (the one executing on the
  /// region plus those waiting in the submission queue). The paper's
  /// prototype serves one request per queue pair at a time; depth 1
  /// reproduces that. Larger depths let a client post multiple asynchronous
  /// requests on one connection — the node drains the queue in FIFO order
  /// as the region frees and rejects submissions beyond the cap with
  /// `Unavailable` (Section 6.6's multi-client scaling direction).
  int submission_queue_depth = 1;

  /// Partial reconfiguration time for swapping a region's operator pipeline
  /// ("on the order of milliseconds", Section 3.2).
  SimTime region_reconfig_time = 5 * kMillisecond;

  /// Pipeline fill latency: cycles for the first word to traverse the
  /// operator pipeline (deep pipelining; tens of stages at 250 MHz).
  SimTime pipeline_fill_latency = 200 * kNanosecond;

  /// Per-group cost of the GROUP BY flush phase: the queue is drained one
  /// lookup per cycle at 250 MHz (Section 5.4).
  SimTime flush_per_group = 4 * kNanosecond;

  /// Burst size used by region reads (one memory stripe per burst, so
  /// channel arbitration and pipe submission stay aligned).
  uint64_t BurstBytes() const { return dram.stripe_bytes; }

  /// Effective pipe rate for a request.
  double PipeRate(bool vectorized) const {
    return vectorized ? pipe_rate_bytes_per_sec * vector_pipes
                      : pipe_rate_bytes_per_sec;
  }
};

}  // namespace farview

#endif  // FARVIEW_FV_FV_CONFIG_H_
