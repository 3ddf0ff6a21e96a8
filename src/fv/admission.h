#ifndef FARVIEW_FV_ADMISSION_H_
#define FARVIEW_FV_ADMISSION_H_

#include <map>

#include "common/status.h"
#include "common/units.h"
#include "fv/fv_config.h"
#include "fv/node_stats.h"
#include "fv/request.h"
#include "sim/engine.h"

namespace farview {

/// Per-tenant admission control of a node's `RegionScheduler`, which owns
/// it and is its only caller (DESIGN.md §15). Two deterministic
/// mechanisms, both driven purely off the engine clock so the simulation
/// stays bit-reproducible:
///
///  - a token bucket per tenant (`AdmissionConfig::tenant_rate_per_sec`
///    refill, `tenant_burst` capacity), refilled lazily at each admission
///    check — no refill events, no timers;
///  - a queue-delay shed threshold: an integer EWMA of the scheduler's
///    observed `RequestContext::QueueWait()` values, compared against the
///    SLO class's threshold (`ShedDelayFor`) — batch traffic is shed
///    first, latency-sensitive traffic only under deeper overload.
///
/// Rejections are typed `ResourceExhausted` (never `Unavailable`: a
/// shedding node is healthy) and carry a retry-after hint — time until a
/// token accrues for bucket sheds, current backlog delay for overload
/// sheds — before which the scheduler's caller should not resubmit.
///
/// With `AdmissionConfig::enabled == false` (the default) `Admit` returns
/// OK without touching any state, so seed workloads are byte-identical.
class AdmissionController {
 public:
  AdmissionController(sim::Engine* engine, const AdmissionConfig& config,
                      NodeStats* stats);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admission verdict for one arriving request of `tenant_id`. OK admits
  /// (one token consumed, `AdmissionStats` updated); otherwise a
  /// `ResourceExhausted` with a retry-after hint. Overload shed is checked
  /// before the bucket: under node-wide backlog even a tenant with tokens
  /// is shed.
  Status Admit(int tenant_id, SloClass slo);

  /// Sheds a request because the tenant's scheduler queue is at
  /// `AdmissionConfig::tenant_queue_cap` — counted with the bucket sheds
  /// (both are per-tenant bounds). Only called while enabled.
  Status ShedTenantQueueFull(int tenant_id, SloClass slo);

  /// Feeds one observed queue wait (dispatch instant minus ingress) into
  /// the shed-threshold EWMA. No-op while disabled.
  void ObserveQueueWait(SimTime wait);

  bool enabled() const { return config_.enabled; }

  /// Current queue-delay EWMA (test introspection).
  SimTime queue_delay_ewma() const { return ewma_; }

 private:
  /// Lazily-refilled per-tenant bucket state.
  struct Bucket {
    double tokens = 0;
    SimTime last_refill = 0;
  };

  /// Finds (or creates full) the tenant's bucket and refills it to now.
  Bucket& BucketFor(int tenant_id);

  /// Hint for a bucket shed: time until one token accrues, floored at
  /// `retry_after_base`.
  SimTime BucketRetryAfter(const Bucket& b) const;

  /// Hint for an overload shed: base plus the current backlog EWMA.
  SimTime OverloadRetryAfter() const;

  sim::Engine* engine_;
  AdmissionConfig config_;
  NodeStats* stats_;
  std::map<int, Bucket> buckets_;
  SimTime ewma_ = 0;
};

}  // namespace farview

#endif  // FARVIEW_FV_ADMISSION_H_
