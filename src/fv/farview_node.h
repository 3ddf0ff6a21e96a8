#ifndef FARVIEW_FV_FARVIEW_NODE_H_
#define FARVIEW_FV_FARVIEW_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fv/dynamic_region.h"
#include "fv/fv_config.h"
#include "fv/node_stats.h"
#include "fv/request.h"
#include "fv/request_context.h"
#include "fv/resource_model.h"
#include "mem/memory_controller.h"
#include "mem/mmu.h"
#include "mem/physical_memory.h"
#include "net/network_stack.h"
#include "net/qpair.h"
#include "sim/engine.h"

namespace farview {

/// A complete Farview node (Figure 2): the memory stack (physical DRAM,
/// MMU, channel controllers), the network stack (RDMA, packetization,
/// credits), and the operator stack (N dynamic regions), wired together over
/// one simulation engine.
///
/// Clients connect to obtain a queue pair bound to a dynamic region, then
/// drive the paper's data API (Section 4.2) through `FarviewClient` or
/// directly via the async methods here.
///
/// Every data-path verb, and every `RegionScheduler` job, goes through one
/// request lifecycle (DESIGN.md §6b): `NewContext` builds its
/// `RequestContext` at submission, `Arrive` turns it away from a down node,
/// `FailSoon` (request_context.h) delivers every early failure, and
/// `Settle` voids crashed work and records the outcome in the node-wide
/// `NodeStats`. Dedicated connections admit region verbs through a bounded
/// per-queue-pair `SubmissionQueue` (`FarviewConfig::submission_queue_depth`
/// outstanding; FIFO drain as the region frees; `Unavailable` beyond the
/// cap). Each owns its region, so admission control never sheds them: it
/// gates only `RegionScheduler` jobs (DESIGN.md §15).
class FarviewNode {
 public:
  FarviewNode(sim::Engine* engine, const FarviewConfig& config);

  FarviewNode(const FarviewNode&) = delete;
  FarviewNode& operator=(const FarviewNode&) = delete;

  /// Opens a connection for `client_id`: assigns a free dynamic region and
  /// returns the queue pair. Fails when all regions are taken.
  Result<QPair*> Connect(int client_id);

  /// Opens a connection *without* a dedicated region (`region_id == -1`).
  /// Such connections can use the control path and memory management but
  /// must execute requests through a `RegionScheduler`, which multiplexes
  /// the regions — the elasticity extension (the paper defers "query
  /// processing elasticity" to future work).
  Result<QPair*> ConnectShared(int client_id);

  /// Tears down a connection, freeing its region. Requests still waiting in
  /// the submission queue fail with `Unavailable`; the one already executing
  /// finishes on its own (one-sided RDMA already in flight). Memory
  /// allocations survive (they belong to the client, not the connection).
  Status Disconnect(int qp_id);

  // --- Control path (immediate, like the paper's management interface) ---

  /// Allocates `bytes` of disaggregated memory on behalf of the connection's
  /// client; returns the virtual address.
  Result<uint64_t> AllocTableMem(const QPair& qp, uint64_t bytes);
  Status FreeTableMem(const QPair& qp, uint64_t vaddr);

  /// Makes an allocation readable by all clients (shared buffer pool).
  Status ShareTableMem(const QPair& qp, uint64_t vaddr);

  /// Loads an operator pipeline into the connection's region (partial
  /// reconfiguration; completes asynchronously). Requests queued during the
  /// reconfiguration are dispatched once it completes.
  void LoadPipeline(int qp_id, Pipeline pipeline,
                    std::function<void(Status)> done);

  // --- Data path (asynchronous; completion at client-side delivery) ------

  /// One-sided RDMA write of `len` bytes into Farview memory.
  void TableWrite(int qp_id, uint64_t vaddr, const uint8_t* data,
                  uint64_t len, std::function<void(Result<SimTime>)> done);

  /// One-sided RDMA read (no operators; Figure 3's bypass path).
  void TableRead(int qp_id, uint64_t vaddr, uint64_t len,
                 std::function<void(Result<FvResult>)> done);

  /// The Farview verb: execute the loaded pipeline over a read stream.
  void FarviewRequest(int qp_id, const FvRequest& request,
                      std::function<void(Result<FvResult>)> done);

  /// Raw one-sided read that bypasses the operator stack entirely: memory
  /// bursts stream straight onto the egress link, no region involved — the
  /// RNIC-style path a commercial NIC serves without any FPGA assistance.
  /// Used by clients as the graceful-degradation fallback when their region
  /// is faulted (DESIGN.md §7); unlike `TableRead`, it works even while the
  /// region is down or busy.
  void RawRead(int qp_id, uint64_t vaddr, uint64_t len,
               std::function<void(Result<FvResult>)> done);

  // --- Fault injection (DESIGN.md §7) -------------------------------------

  /// Crashes the node now: queued requests flush with `Unavailable`,
  /// in-flight requests fail at completion, and every verb is rejected
  /// until `RestartNow`. Scheduled automatically from
  /// `FvFaultConfig::node_crash_at`; public so tests can position crashes
  /// precisely.
  void CrashNow();

  /// Brings a crashed node back. Loaded pipelines survive (configuration
  /// flash); in-flight state did not.
  void RestartNow();

  /// True while the node is crashed.
  bool down() const { return down_; }

  /// Registers a crash/restart observer: invoked synchronously with `true`
  /// at the end of `CrashNow` and `false` at the end of `RestartNow`. The
  /// replication layer uses this to force circuit breakers open and to
  /// start crash recovery (DESIGN.md §12); observers must not themselves
  /// crash or restart the node. With no observers registered (the default)
  /// nothing changes, preserving byte-identity.
  void AddDownObserver(std::function<void(bool down)> observer) {
    down_observers_.push_back(std::move(observer));
  }

  // --- Introspection ------------------------------------------------------

  sim::Engine* engine() { return engine_; }
  const FarviewConfig& config() const { return config_; }
  Mmu& mmu() { return *mmu_; }
  MemoryController& memory_controller() { return *memctl_; }
  NetworkStack& network() { return *net_; }
  DynamicRegion& region(int i) { return *regions_[static_cast<size_t>(i)]; }
  int num_regions() const { return static_cast<int>(regions_.size()); }

  /// Queue pair lookup (nullptr when unknown).
  QPair* FindQPair(int qp_id);

  /// Device resource usage for the currently loaded pipelines.
  ResourceUsage CurrentResources() const;

  /// Node-wide telemetry: per-stage latency distributions, per-queue-pair
  /// throughput, queue high-water marks, region busy time. The scheduler
  /// records its completions here too.
  NodeStats& stats() { return stats_; }
  const NodeStats& stats() const { return stats_; }

  /// Submission queue of a dedicated connection (nullptr when unknown or
  /// shared). For tests and introspection.
  const SubmissionQueue* submission_queue(int qp_id) const;

  /// Human-readable telemetry dump (stage latencies, per-qp throughput,
  /// region/link utilization) at the current simulated time.
  std::string StatsReport();

 private:
  // The scheduler claims the free regions and its jobs share the request
  // lifecycle below.
  friend class RegionScheduler;

  /// Marks the lowest free region taken and returns its id; -1 when every
  /// region is taken (by a dedicated connection or the scheduler).
  int TakeFreeRegion();

  /// Hands a taken region back.
  void ReleaseRegion(int region_id) {
    region_taken_[static_cast<size_t>(region_id)] = false;
  }

  /// Registers an observer told when a region fault clears, after the
  /// dedicated queues were offered the region: the scheduler dispatches
  /// its waiting jobs from it.
  void AddHealObserver(std::function<void()> observer) {
    heal_observers_.push_back(std::move(observer));
  }

  // --- Request lifecycle (DESIGN.md §6b) ----------------------------------

  /// Builds the context of a verb posted now on `qp_id`: the one place a
  /// `RequestContext` is created. Writes pass no `done`; they complete
  /// through their own callback chain.
  RequestContextPtr NewContext(int qp_id, int client_id, Verb verb,
                               const FvRequest& request,
                               std::function<void(Result<FvResult>)> done);

  /// A request reached the node: stamps `ingress_done`. A down node turns
  /// it away with `Unavailable`, counted as a crash failure; returns false
  /// then. The failure goes to the context's `done`, or to `*write_done`
  /// when given (a write's context has no `done`).
  bool Arrive(const RequestContextPtr& ctx,
              std::function<void(Result<SimTime>)>* write_done = nullptr);

  /// The completion step of every verb and scheduler job. Voids an OK
  /// `*res` whose request reached the node at or before the last crash (its
  /// region, stream or write state died with the node, even though the
  /// simulation events still drain), then stamps `issued_at` and records
  /// the completion or the failure.
  void Settle(const RequestContext& ctx, Result<FvResult>* res);

  /// TableRead and FarviewRequest: a verb served by the connection's
  /// region, admitted at arrival by `OnArrival`.
  void SubmitRegionVerb(int qp_id, Verb verb, const FvRequest& request,
                        std::function<void(Result<FvResult>)> done);

  /// Region assigned to a queue pair, or error.
  Result<DynamicRegion*> RegionFor(int qp_id);

  /// Schedules the crash/restart and region-fault events named by
  /// `FvFaultConfig` (constructor helper; no-op when faults are disabled).
  void ScheduleFaultEvents();

  /// Fails every waiting request of the queue pair bound to `region_id`
  /// with `Unavailable` (its region just faulted).
  void FailQueuedForRegion(int region_id);

  /// A region verb finished its ingress hop: admit it to the queue pair's
  /// submission queue (or reject when the depth cap is hit).
  void OnArrival(RequestContextPtr ctx);

  /// Dispatches the oldest waiting request of `qp_id` when its region is
  /// free. No-op when the queue is empty, a request is executing, or the
  /// region is busy/reconfiguring.
  void MaybeDispatch(int qp_id);

  /// Completion of a dispatched request: settles it, frees the queue slot,
  /// dispatches the next waiting request, then notifies the client.
  void FinishRequest(RequestContextPtr ctx, Result<FvResult> res);

  sim::Engine* engine_;
  FarviewConfig config_;
  std::unique_ptr<PhysicalMemory> phys_;
  std::unique_ptr<Mmu> mmu_;
  std::unique_ptr<MemoryController> memctl_;
  std::unique_ptr<NetworkStack> net_;
  /// Ingress link (client→node data for writes); separate from egress.
  std::unique_ptr<sim::Server> ingress_;
  NodeStats stats_;
  std::vector<std::unique_ptr<DynamicRegion>> regions_;
  std::vector<bool> region_taken_;
  std::map<int, std::unique_ptr<QPair>> qpairs_;
  /// One bounded submission queue per dedicated connection.
  std::map<int, SubmissionQueue> qp_queues_;
  int next_qp_id_ = 1;

  /// Node-level fault stream (region-stall draws); non-null only when
  /// `FvFaultConfig::enabled`.
  std::unique_ptr<Rng> fault_rng_;
  /// Crash/restart observers, notified in registration order.
  std::vector<std::function<void(bool)>> down_observers_;
  /// Region-fault-cleared observers, notified in registration order.
  std::vector<std::function<void()>> heal_observers_;
  /// True while crashed (between CrashNow and RestartNow).
  bool down_ = false;
  /// Instant of the most recent crash; `Settle` voids requests that reached
  /// the node at or before it. -1 = never crashed.
  SimTime last_crash_at_ = -1;
};

}  // namespace farview

#endif  // FARVIEW_FV_FARVIEW_NODE_H_
