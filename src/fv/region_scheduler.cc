#include "fv/region_scheduler.h"

#include <limits>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace farview {

RegionScheduler::RegionScheduler(FarviewNode* node)
    : node_(node),
      admission_(node->engine(), node->config().admission, &node->stats()),
      alive_(std::make_shared<bool>(true)) {
  // A region a dedicated connection holds stays its own: that region's
  // completions re-enter the connection's submission queue, never Dispatch.
  for (int r = node_->TakeFreeRegion(); r >= 0; r = node_->TakeFreeRegion()) {
    regions_.push_back(RegionSlot{&node_->region(r), "", false});
  }
  FV_CHECK(!regions_.empty()) << "no free region for the scheduler";
  node_->AddDownObserver([alive = alive_, this](bool down) {
    if (*alive && down) {
      FailWaiting("node crashed with the job queued", /*crash=*/true);
    }
  });
  node_->AddHealObserver([alive = alive_, this]() {
    if (*alive) Dispatch();
  });
}

RegionScheduler::~RegionScheduler() {
  *alive_ = false;
  for (const RegionSlot& slot : regions_) {
    node_->ReleaseRegion(slot.region->region_id());
  }
}

void RegionScheduler::FailWaiting(const char* why, bool crash) {
  NodeStats& stats = node_->stats();
  for (auto& [id, tenant] : tenants_) {
    for (Job& job : tenant.jobs) {
      stats.RecordFailure(job.ctx->qp_id);
      if (crash) stats.RecordCrashFailure();
      FailSoon(node_->engine(), std::move(job.ctx), Status::Unavailable(why));
    }
    tenant.jobs.clear();
    tenant.deficit = 0;
    tenant.active = false;
  }
  rotation_.clear();
  total_waiting_ = 0;
}

void RegionScheduler::Submit(int client_id, int qp_id,
                             const std::string& pipeline_key,
                             PipelineFactory factory,
                             const FvRequest& request,
                             std::function<void(Result<FvResult>)> done) {
  // The submission crosses the network like any other request; admission
  // and scheduling happen at the node.
  Job job{node_->NewContext(qp_id, client_id, Verb::kFarview, request,
                            std::move(done)),
          pipeline_key, std::move(factory), /*seq=*/0};
  node_->network().DeliverRequest(
      [this, job = std::move(job)]() mutable { OnArrival(std::move(job)); });
}

void RegionScheduler::OnArrival(Job job) {
  if (!node_->Arrive(job.ctx)) return;
  NodeStats& stats = node_->stats();
  const FarviewConfig& cfg = node_->config();
  // Node-wide backlog bound, enforced in every mode (DESIGN.md §15): the
  // waiting set must never grow without limit, admission on or off.
  if (total_waiting_ >= static_cast<size_t>(cfg.scheduler_queue_cap)) {
    stats.RecordRejection(job.ctx->qp_id);
    stats.RecordSchedulerOverflow();
    FailSoon(node_->engine(), std::move(job.ctx),
             Status::Unavailable(
                 std::string("scheduler queue full (cap ")
                     .append(std::to_string(cfg.scheduler_queue_cap))
                     .append(")")));
    return;
  }
  const int tenant_id = job.ctx->client_id;
  TenantQueue& tenant = tenants_[tenant_id];
  if (admission_.enabled()) {
    Status verdict =
        tenant.jobs.size() >= static_cast<size_t>(cfg.admission.tenant_queue_cap)
            ? admission_.ShedTenantQueueFull(tenant_id, job.ctx->request.slo)
            : admission_.Admit(tenant_id, job.ctx->request.slo);
    if (!verdict.ok()) {
      stats.RecordRejection(job.ctx->qp_id);
      FailSoon(node_->engine(), std::move(job.ctx), std::move(verdict));
      return;
    }
  }
  job.seq = next_seq_++;
  tenant.jobs.push_back(std::move(job));
  ++total_waiting_;
  if (admission_.enabled()) {
    stats.RecordTenantBacklog(tenant.jobs.size());
    if (!tenant.active) {
      tenant.active = true;
      rotation_.push_back(tenant_id);
    }
  }
  Dispatch();
}

size_t RegionScheduler::tenant_queued_jobs(int client_id) const {
  auto it = tenants_.find(client_id);
  return it == tenants_.end() ? 0 : it->second.jobs.size();
}

RegionScheduler::Job RegionScheduler::TakeJob(TenantQueue& tenant,
                                              size_t pos) {
  FV_CHECK(pos < tenant.jobs.size());
  Job job = std::move(tenant.jobs[pos]);
  tenant.jobs.erase(tenant.jobs.begin() + static_cast<std::ptrdiff_t>(pos));
  FV_CHECK(total_waiting_ > 0);
  --total_waiting_;
  return job;
}

RegionScheduler::Job RegionScheduler::PopOldest() {
  TenantQueue* best = nullptr;
  uint64_t best_seq = std::numeric_limits<uint64_t>::max();
  for (auto& [id, tenant] : tenants_) {
    if (!tenant.jobs.empty() && tenant.jobs.front().seq < best_seq) {
      best_seq = tenant.jobs.front().seq;
      best = &tenant;
    }
  }
  FV_CHECK(best != nullptr);
  return TakeJob(*best, 0);
}

size_t RegionScheduler::FirstFreeSlot() const {
  for (size_t s = 0; s < regions_.size(); ++s) {
    if (regions_[s].Free()) return s;
  }
  return regions_.size();
}

size_t RegionScheduler::PreferredFreeSlot(const std::string& pipeline_key) {
  size_t free_slot = regions_.size();
  for (size_t s = 0; s < regions_.size(); ++s) {
    if (!regions_[s].Free()) continue;
    if (!regions_[s].loaded_key.empty() &&
        regions_[s].loaded_key == pipeline_key) {
      return s;  // resident pipeline: skip the reconfiguration
    }
    if (free_slot == regions_.size()) free_slot = s;
  }
  return free_slot;
}

void RegionScheduler::Dispatch() {
  if (admission_.enabled()) {
    DispatchFair();
  } else {
    DispatchFifo();
  }
  // Jobs still wait, so no region is free. With every region faulted and
  // none busy, they fail now rather than wait for a fault to clear, as
  // FarviewNode::MaybeDispatch drains a faulted dedicated region's queue:
  // a fault need not ever clear (FvFaultConfig::region_fault_duration 0).
  // A fault that does clear dispatches through the node's heal observer.
  if (total_waiting_ == 0) return;
  for (const RegionSlot& slot : regions_) {
    if (slot.busy || !slot.region->faulted()) return;
  }
  FailWaiting("region faulted", /*crash=*/false);
}

void RegionScheduler::DispatchFifo() {
  // Affinity pass: walk every waiting job in global arrival order (the
  // per-tenant queues merged by seq — exactly the old single queue's FIFO
  // order); a job whose pipeline is resident on a free region runs without
  // reconfiguration.
  std::map<int, size_t> pos;
  while (true) {
    TenantQueue* best = nullptr;
    int best_id = 0;
    uint64_t best_seq = std::numeric_limits<uint64_t>::max();
    for (auto& [id, tenant] : tenants_) {
      auto it = pos.find(id);
      const size_t p = it == pos.end() ? 0 : it->second;
      if (p < tenant.jobs.size() && tenant.jobs[p].seq < best_seq) {
        best_seq = tenant.jobs[p].seq;
        best = &tenant;
        best_id = id;
      }
    }
    if (best == nullptr) break;
    size_t& p = pos[best_id];
    size_t match = regions_.size();
    for (size_t s = 0; s < regions_.size(); ++s) {
      if (regions_[s].Free() && !regions_[s].loaded_key.empty() &&
          regions_[s].loaded_key == best->jobs[p].pipeline_key) {
        match = s;
        break;
      }
    }
    if (match < regions_.size()) {
      Job job = TakeJob(*best, p);  // `p` now indexes the next job
      ++affinity_hits_;
      RunOn(match, std::move(job));
    } else {
      ++p;
    }
  }
  // FIFO pass: the oldest job takes any free region (paying a reconfig).
  while (total_waiting_ > 0) {
    const size_t free_slot = FirstFreeSlot();
    if (free_slot == regions_.size()) break;  // none free
    RunOn(free_slot, PopOldest());
  }
}

void RegionScheduler::DispatchFair() {
  const AdmissionConfig& adm = node_->config().admission;
  // Deficit-weighted round-robin, one job per step so nested dispatches
  // (a synchronous factory failure re-enters here) always see fresh
  // rotation state. A tenant serves up to `weight` consecutive jobs per
  // rotation visit, then yields the head of the rotation; every active
  // tenant is visited once per cycle, so none can starve (DESIGN.md §15).
  while (total_waiting_ > 0) {
    if (FirstFreeSlot() == regions_.size()) return;  // none free
    FV_CHECK(!rotation_.empty());
    const int tenant_id = rotation_.front();
    TenantQueue& tenant = tenants_[tenant_id];
    if (tenant.jobs.empty()) {
      rotation_.pop_front();
      tenant.active = false;
      tenant.deficit = 0;
      continue;
    }
    if (tenant.deficit < 1) {
      // New visit: the head job's SLO class sets this rotation's quantum.
      tenant.deficit += adm.WeightFor(tenant.jobs.front().ctx->request.slo);
    }
    const size_t slot = PreferredFreeSlot(tenant.jobs.front().pipeline_key);
    if (slot == regions_.size()) return;
    --tenant.deficit;
    Job job = TakeJob(tenant, 0);
    if (!regions_[slot].loaded_key.empty() &&
        regions_[slot].loaded_key == job.pipeline_key) {
      ++affinity_hits_;
    }
    if (tenant.jobs.empty()) {
      rotation_.pop_front();
      tenant.active = false;
      tenant.deficit = 0;
    } else if (tenant.deficit < 1) {
      rotation_.pop_front();
      rotation_.push_back(tenant_id);
    }
    RunOn(slot, std::move(job));
  }
}

void RegionScheduler::FinishJob(size_t slot_index,
                                const RequestContextPtr& ctx,
                                Result<FvResult> res) {
  regions_[slot_index].busy = false;
  ++jobs_completed_;
  // Waiting jobs were flushed at a crash, so a job the node's crash rule
  // voids here was reconfiguring or executing when it died.
  node_->Settle(*ctx, &res);
  // Free the region before notifying so the callback can submit follow-up
  // work that lands on it.
  Dispatch();
  ctx->done(std::move(res));
}

void RegionScheduler::RunOn(size_t slot_index, Job job) {
  RegionSlot& slot = regions_[slot_index];
  FV_CHECK(!slot.busy);
  slot.busy = true;
  admission_.ObserveQueueWait(node_->engine()->Now() - job.ctx->ingress_done);
  const bool cached =
      !slot.loaded_key.empty() && slot.loaded_key == job.pipeline_key;

  auto shared_job = std::make_shared<Job>(std::move(job));
  auto execute = [this, slot_index, shared_job]() {
    regions_[slot_index].region->Execute(
        shared_job->ctx,
        [this, slot_index, shared_job](Result<FvResult> r) {
          FinishJob(slot_index, shared_job->ctx, std::move(r));
        });
  };

  if (cached) {
    execute();
    return;
  }

  // Reconfigure: build the pipeline now and load it.
  Result<Pipeline> pipeline = shared_job->factory();
  if (!pipeline.ok()) {
    slot.busy = false;
    node_->stats().RecordFailure(shared_job->ctx->qp_id);
    FailSoon(node_->engine(), shared_job->ctx, pipeline.status());
    Dispatch();
    return;
  }
  ++reconfigurations_;
  slot.loaded_key.clear();  // unknown contents while reconfiguring
  slot.region->LoadPipeline(
      std::move(pipeline).value(),
      [this, slot_index, shared_job, execute](Status status) {
        if (!status.ok()) {
          regions_[slot_index].busy = false;
          node_->stats().RecordFailure(shared_job->ctx->qp_id);
          Dispatch();
          shared_job->ctx->done(status);
          return;
        }
        regions_[slot_index].loaded_key = shared_job->pipeline_key;
        execute();
      });
}

}  // namespace farview
