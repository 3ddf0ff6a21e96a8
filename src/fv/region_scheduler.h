#ifndef FARVIEW_FV_REGION_SCHEDULER_H_
#define FARVIEW_FV_REGION_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fv/admission.h"
#include "fv/farview_node.h"
#include "fv/request_context.h"

namespace farview {

/// Elastic region scheduling — the paper defers "query processing
/// elasticity" to future work; this is that extension.
///
/// Instead of binding one connection to one dynamic region for its
/// lifetime, shared connections (FarviewNode::ConnectShared) submit jobs to
/// the scheduler, which multiplexes the regions no dedicated connection
/// holds:
///
///  - it is the node's only admission point (DESIGN.md §15): it owns the
///    `AdmissionController`, built from `FarviewConfig::admission`, and
///    nothing else on the node sheds load;
///  - waiting jobs live in bounded per-tenant queues (keyed by client id;
///    DESIGN.md §15) under a node-wide cap
///    (`FarviewConfig::scheduler_queue_cap`) — overflow is rejected with a
///    typed `Unavailable`, never queued without bound;
///  - with admission disabled (default) the queues drain in strict global
///    FIFO order — every job carries an arrival sequence number, and the
///    drain replays the single-queue scheduler exactly, byte for byte;
///  - with `AdmissionConfig::enabled` the drain is deficit-weighted
///    round-robin across tenants (the SLO class of a tenant's head job
///    sets its weight), so a hot tenant's backlog can no longer starve the
///    others behind head-of-line blocking;
///  - each region remembers which pipeline it has loaded (keyed by a
///    caller-supplied signature); a job whose pipeline is already resident
///    on a free region skips the milliseconds-scale partial
///    reconfiguration — both drain modes prefer such affinity matches;
///  - pipelines are built lazily (via a factory) only when a region
///    actually needs reconfiguring.
///
/// Scheduler jobs go through the node's request lifecycle (DESIGN.md §6b):
/// the node builds their `RequestContext`, turns them away while down,
/// delivers their early failures and settles them into its `NodeStats`, so
/// the telemetry covers both submission paths and they get the crash
/// contract of dedicated connections. On top, waiting jobs are flushed at
/// the crash; a job that reached the node at or before the crash
/// (reconfiguring or executing then) fails at completion by the node's
/// rule.
class RegionScheduler {
 public:
  /// The scheduler claims every region of `node` no dedicated connection
  /// holds (at least one must be free); a later `FarviewNode::Connect`
  /// finds them taken. The destructor hands them back.
  explicit RegionScheduler(FarviewNode* node);
  ~RegionScheduler();

  RegionScheduler(const RegionScheduler&) = delete;
  RegionScheduler& operator=(const RegionScheduler&) = delete;

  /// Builder invoked when a region must be (re)configured for a job (the
  /// scheduler's name for `farview::PipelineFactory`).
  using PipelineFactory = farview::PipelineFactory;

  /// Submits a job on behalf of the shared connection `qp_id` owned by
  /// `client_id`. `pipeline_key` identifies the pipeline configuration for
  /// affinity scheduling (same key ⇒ same bitstream). `done` is called with
  /// the result (or the error) when the job finishes. Arrival at the node
  /// passes admission (DESIGN.md §15): the node-wide queue cap bounces
  /// with `Unavailable`; with admission enabled, the tenant's token bucket
  /// and the overload shed threshold reject with `ResourceExhausted`.
  void Submit(int client_id, int qp_id, const std::string& pipeline_key,
              PipelineFactory factory, const FvRequest& request,
              std::function<void(Result<FvResult>)> done);

  /// Jobs currently waiting for a region (all tenants).
  size_t queued_jobs() const { return total_waiting_; }

  /// Jobs `client_id` currently has waiting.
  size_t tenant_queued_jobs(int client_id) const;

  /// Completed jobs and reconfigurations performed.
  uint64_t jobs_completed() const { return jobs_completed_; }
  uint64_t reconfigurations() const { return reconfigurations_; }
  uint64_t affinity_hits() const { return affinity_hits_; }

  int num_regions() const { return static_cast<int>(regions_.size()); }

 private:
  struct Job {
    /// Lifecycle context (id, stamps, completion callback) of the request.
    RequestContextPtr ctx;
    std::string pipeline_key;
    PipelineFactory factory;
    /// Global arrival order; the FIFO drain serves ascending seq.
    uint64_t seq = 0;
  };

  /// One tenant's bounded backlog plus its DWRR state.
  struct TenantQueue {
    std::deque<Job> jobs;
    /// DWRR deficit in job units; reset when the backlog empties.
    int64_t deficit = 0;
    /// True while the tenant sits in the `rotation_` deque.
    bool active = false;
  };

  struct RegionSlot {
    DynamicRegion* region;
    std::string loaded_key;  ///< empty: nothing loaded yet
    bool busy = false;

    /// Whether the slot may take a job: idle, and its region not faulted
    /// (a faulted region would fail the job at once and take the next).
    bool Free() const { return !busy && !region->faulted(); }
  };

  /// Admission + enqueue at node arrival (after the ingress hop).
  void OnArrival(Job job);

  /// Starts queued jobs on free regions (affinity first).
  void Dispatch();

  /// Strict-FIFO drain (admission disabled): replays the single-queue
  /// scheduler — affinity pass over all waiting jobs in ascending seq,
  /// then oldest-first onto any free region.
  void DispatchFifo();

  /// Deficit-weighted round-robin drain (admission enabled).
  void DispatchFair();

  /// Removes and returns the waiting job with the smallest seq.
  Job PopOldest();

  /// Index of the first free slot, or `regions_.size()` when none is.
  size_t FirstFreeSlot() const;

  /// Free slot preferring `pipeline_key` residency (affinity hit), else
  /// the first free one; `regions_.size()` when none is.
  size_t PreferredFreeSlot(const std::string& pipeline_key);

  /// Removes the job at `pos` of `tenant`'s queue and maintains counters.
  Job TakeJob(TenantQueue& tenant, size_t pos);

  /// Runs `job` on slot `s` (which is free and reserved by the caller).
  void RunOn(size_t slot_index, Job job);

  /// Records the outcome, frees the slot, dispatches queued work, then
  /// notifies the job's owner (free-before-notify).
  void FinishJob(size_t slot_index, const RequestContextPtr& ctx,
                 Result<FvResult> res);

  /// Fails every waiting job with `Unavailable(why)`, counting each as a
  /// crash failure when `crash` (the crash observer's flush).
  void FailWaiting(const char* why, bool crash);

  FarviewNode* node_;
  /// Per-tenant token buckets and the queue-delay shed signal; inert while
  /// `AdmissionConfig::enabled` is false.
  AdmissionController admission_;
  std::vector<RegionSlot> regions_;
  /// Bounded per-tenant backlogs, keyed by client id (map: deterministic
  /// iteration in tenant order).
  std::map<int, TenantQueue> tenants_;
  /// DWRR rotation of tenants with waiting jobs (client ids).
  std::deque<int> rotation_;
  size_t total_waiting_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t jobs_completed_ = 0;
  uint64_t reconfigurations_ = 0;
  uint64_t affinity_hits_ = 0;
  /// Liveness flag shared with the crash observer registered on the
  /// (possibly longer-lived) node; the destructor clears it.
  std::shared_ptr<bool> alive_;
};

}  // namespace farview

#endif  // FARVIEW_FV_REGION_SCHEDULER_H_
