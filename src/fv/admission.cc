#include "fv/admission.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"

namespace farview {

AdmissionController::AdmissionController(sim::Engine* engine,
                                         const AdmissionConfig& config,
                                         NodeStats* stats)
    : engine_(engine), config_(config), stats_(stats) {
  FV_CHECK(engine_ != nullptr && stats_ != nullptr);
  if (config_.enabled) {
    FV_CHECK(config_.tenant_rate_per_sec > 0 && config_.tenant_burst >= 1)
        << "admission needs a positive refill rate and a bucket that can "
           "hold at least one token";
    FV_CHECK(config_.weight_latency >= 1 && config_.weight_batch >= 1)
        << "DWRR weights must be positive";
  }
}

Status AdmissionController::Admit(int tenant_id, SloClass slo) {
  if (!config_.enabled) return Status::OK();
  // Overload shed first: when the node-wide queue delay is over the
  // class's threshold, even a tenant with tokens is shed — the backlog is
  // already too deep for its SLO.
  if (ewma_ > config_.ShedDelayFor(slo)) {
    const SimTime hint = OverloadRetryAfter();
    stats_->RecordAdmissionShed(slo, /*overload=*/true, hint);
    return Status::ResourceExhausted(
               "node overloaded (queue delay " +
               std::to_string(ToMicros(ewma_)) + " us over " +
               std::string(SloClassName(slo)) + " threshold)")
        .WithRetryAfter(hint);
  }
  Bucket& b = BucketFor(tenant_id);
  if (b.tokens < 1.0) {
    const SimTime hint = BucketRetryAfter(b);
    stats_->RecordAdmissionShed(slo, /*overload=*/false, hint);
    return Status::ResourceExhausted("tenant " + std::to_string(tenant_id) +
                                     " over admission rate")
        .WithRetryAfter(hint);
  }
  b.tokens -= 1.0;
  stats_->RecordAdmitted(slo);
  return Status::OK();
}

Status AdmissionController::ShedTenantQueueFull(int tenant_id, SloClass slo) {
  const SimTime hint = OverloadRetryAfter();
  stats_->RecordAdmissionShed(slo, /*overload=*/false, hint);
  return Status::ResourceExhausted(
             "tenant " + std::to_string(tenant_id) +
             " backlog at cap (" +
             std::to_string(config_.tenant_queue_cap) + ")")
      .WithRetryAfter(hint);
}

void AdmissionController::ObserveQueueWait(SimTime wait) {
  if (!config_.enabled) return;
  // Integer EWMA with a 1/8 gain: deterministic, no floating state, and
  // fast enough to track a storm within a handful of dispatches.
  ewma_ += (wait - ewma_) / 8;
}

AdmissionController::Bucket& AdmissionController::BucketFor(int tenant_id) {
  auto [it, inserted] = buckets_.try_emplace(
      tenant_id, Bucket{config_.tenant_burst, engine_->Now()});
  Bucket& b = it->second;
  const SimTime now = engine_->Now();
  if (now > b.last_refill) {
    const double accrued = static_cast<double>(now - b.last_refill) *
                           config_.tenant_rate_per_sec / 1e12;
    b.tokens = std::min(config_.tenant_burst, b.tokens + accrued);
    b.last_refill = now;
  }
  return b;
}

SimTime AdmissionController::BucketRetryAfter(const Bucket& b) const {
  const double need = 1.0 - b.tokens;
  const SimTime until_token = static_cast<SimTime>(
      std::ceil(need * 1e12 / config_.tenant_rate_per_sec));
  return std::max(config_.retry_after_base, until_token);
}

SimTime AdmissionController::OverloadRetryAfter() const {
  return config_.retry_after_base + ewma_;
}

}  // namespace farview
