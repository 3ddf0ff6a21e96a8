#include "fv/farview_node.h"

#include <utility>

#include "common/logging.h"

namespace farview {

FarviewNode::FarviewNode(sim::Engine* engine, const FarviewConfig& config)
    : engine_(engine), config_(config) {
  FV_CHECK(engine_ != nullptr);
  FV_CHECK(config_.submission_queue_depth >= 1)
      << "submission_queue_depth must be at least 1";
  phys_ = std::make_unique<PhysicalMemory>(config_.dram.TotalCapacity(),
                                           Mmu::kPageSize);
  mmu_ = std::make_unique<Mmu>(phys_.get());
  memctl_ = std::make_unique<MemoryController>(engine_, config_.dram);
  net_ = std::make_unique<NetworkStack>(engine_, config_.net);
  ingress_ = std::make_unique<sim::Server>(
      engine_, "fv_ingress", config_.net.link_rate_bytes_per_sec,
      config_.net.fv_per_packet_overhead);
  region_taken_.assign(static_cast<size_t>(config_.num_regions), false);
  for (int r = 0; r < config_.num_regions; ++r) {
    regions_.push_back(std::make_unique<DynamicRegion>(
        r, engine_, config_, mmu_.get(), memctl_.get(), net_.get(),
        &stats_));
  }
  ScheduleFaultEvents();
}

void FarviewNode::ScheduleFaultEvents() {
  const FvFaultConfig& f = config_.faults;
  if (!f.enabled) return;
  // The fault Rng exists only on faulted nodes: a disabled config draws
  // nothing and schedules nothing, keeping the event sequence (and every
  // figure) bit-identical to a simulator without fault injection.
  fault_rng_ = std::make_unique<Rng>(f.seed);
  if (f.node_crash_at > 0) {
    engine_->ScheduleAt(f.node_crash_at, [this]() { CrashNow(); });
    if (f.node_restart_at > 0) {
      FV_CHECK(f.node_restart_at > f.node_crash_at)
          << "node_restart_at must be after node_crash_at";
      engine_->ScheduleAt(f.node_restart_at, [this]() { RestartNow(); });
    }
  }
  if (f.faulted_region >= 0 && f.faulted_region < config_.num_regions) {
    const int r = f.faulted_region;
    engine_->ScheduleAt(f.region_fault_at, [this, r]() {
      regions_[static_cast<size_t>(r)]->InjectFault();
      stats_.RecordRegionFault();
      FailQueuedForRegion(r);
    });
    if (f.region_fault_duration > 0) {
      engine_->ScheduleAt(
          f.region_fault_at + f.region_fault_duration, [this, r]() {
            regions_[static_cast<size_t>(r)]->ClearFault();
            for (const auto& entry : qp_queues_) MaybeDispatch(entry.first);
            for (const auto& observer : heal_observers_) observer();
          });
    }
  }
}

void FarviewNode::CrashNow() {
  if (down_) return;
  down_ = true;
  last_crash_at_ = engine_->Now();
  stats_.RecordNodeCrash();
  // Queued requests die with the node. The executing one, if any, fails at
  // completion through Settle's crash rule — its region state is gone even
  // though the simulation events still drain.
  for (auto& entry : qp_queues_) {
    for (RequestContextPtr& ctx : entry.second.Flush()) {
      stats_.RecordFailure(entry.first);
      stats_.RecordCrashFailure();
      FailSoon(engine_, std::move(ctx),
               Status::Unavailable("node crashed with the request queued"));
    }
  }
  for (const auto& observer : down_observers_) observer(true);
}

void FarviewNode::RestartNow() {
  if (!down_) return;
  down_ = false;
  stats_.RecordNodeRestart();
  // Loaded pipelines survive a restart (configuration flash, like the
  // paper's persistent bitstreams); queues were flushed at the crash and
  // arrivals were rejected while down, so this drain is a safety net.
  for (const auto& entry : qp_queues_) MaybeDispatch(entry.first);
  for (const auto& observer : down_observers_) observer(false);
}

void FarviewNode::FailQueuedForRegion(int region_id) {
  for (const auto& entry : qpairs_) {
    if (entry.second->region_id != region_id) continue;
    auto qit = qp_queues_.find(entry.first);
    if (qit == qp_queues_.end()) continue;
    for (RequestContextPtr& ctx : qit->second.Flush()) {
      stats_.RecordFailure(entry.first);
      FailSoon(engine_, std::move(ctx), Status::Unavailable("region faulted"));
    }
  }
}

int FarviewNode::TakeFreeRegion() {
  for (size_t r = 0; r < region_taken_.size(); ++r) {
    if (!region_taken_[r]) {
      region_taken_[r] = true;
      return static_cast<int>(r);
    }
  }
  return -1;
}

Result<QPair*> FarviewNode::Connect(int client_id) {
  if (down_) return Status::Unavailable("node down");
  const int region = TakeFreeRegion();
  if (region < 0) {
    return Status::Unavailable("all dynamic regions are assigned");
  }
  auto qp = std::make_unique<QPair>();
  qp->qp_id = next_qp_id_++;
  qp->client_id = client_id;
  qp->region_id = region;
  QPair* raw = qp.get();
  qpairs_.emplace(raw->qp_id, std::move(qp));
  qp_queues_.emplace(raw->qp_id,
                     SubmissionQueue(config_.submission_queue_depth));
  return raw;
}

Result<QPair*> FarviewNode::ConnectShared(int client_id) {
  if (down_) return Status::Unavailable("node down");
  auto qp = std::make_unique<QPair>();
  qp->qp_id = next_qp_id_++;
  qp->client_id = client_id;
  qp->region_id = -1;
  QPair* raw = qp.get();
  qpairs_.emplace(raw->qp_id, std::move(qp));
  return raw;
}

Status FarviewNode::Disconnect(int qp_id) {
  auto it = qpairs_.find(qp_id);
  if (it == qpairs_.end()) {
    return Status::NotFound("unknown queue pair");
  }
  if (it->second->region_id >= 0) ReleaseRegion(it->second->region_id);
  auto qit = qp_queues_.find(qp_id);
  if (qit != qp_queues_.end()) {
    // Waiting requests never reached a region; fail them. The executing
    // one, if any, is a one-sided operation already in the network and
    // completes on its own.
    for (RequestContextPtr& ctx : qit->second.Flush()) {
      stats_.RecordFailure(qp_id);
      FailSoon(engine_, std::move(ctx),
               Status::Unavailable(
                   "connection closed with the request still queued"));
    }
    qp_queues_.erase(qit);
  }
  qpairs_.erase(it);
  return Status::OK();
}

QPair* FarviewNode::FindQPair(int qp_id) {
  auto it = qpairs_.find(qp_id);
  return it == qpairs_.end() ? nullptr : it->second.get();
}

const SubmissionQueue* FarviewNode::submission_queue(int qp_id) const {
  auto it = qp_queues_.find(qp_id);
  return it == qp_queues_.end() ? nullptr : &it->second;
}

Result<DynamicRegion*> FarviewNode::RegionFor(int qp_id) {
  QPair* qp = FindQPair(qp_id);
  if (qp == nullptr) {
    return Status::NotFound("unknown queue pair");
  }
  if (qp->region_id < 0) {
    return Status::FailedPrecondition(
        "shared connection has no dedicated region; submit through a "
        "RegionScheduler");
  }
  return regions_[static_cast<size_t>(qp->region_id)].get();
}

Result<uint64_t> FarviewNode::AllocTableMem(const QPair& qp, uint64_t bytes) {
  if (down_) return Status::Unavailable("node down");
  return mmu_->Alloc(qp.client_id, bytes);
}

Status FarviewNode::FreeTableMem(const QPair& qp, uint64_t vaddr) {
  if (down_) return Status::Unavailable("node down");
  return mmu_->Free(qp.client_id, vaddr);
}

Status FarviewNode::ShareTableMem(const QPair& qp, uint64_t vaddr) {
  if (down_) return Status::Unavailable("node down");
  return mmu_->Share(qp.client_id, vaddr);
}

void FarviewNode::LoadPipeline(int qp_id, Pipeline pipeline,
                               std::function<void(Status)> done) {
  Result<DynamicRegion*> region = RegionFor(qp_id);
  if (!region.ok()) {
    FailSoon(engine_, std::move(done), region.status());
    return;
  }
  // Like any client-initiated operation, the reconfiguration command
  // crosses the network before the region acts on it. Once the swap
  // completes, requests that queued up behind it are dispatched.
  DynamicRegion* r = region.value();
  net_->DeliverRequest(
      [this, qp_id, r, p = std::make_shared<Pipeline>(std::move(pipeline)),
       done = std::move(done)]() mutable {
        if (down_) {
          done(Status::Unavailable("node down"));
          return;
        }
        r->LoadPipeline(std::move(*p),
                        [this, qp_id, done = std::move(done)](Status s) {
                          MaybeDispatch(qp_id);
                          done(s);
                        });
      });
}

RequestContextPtr FarviewNode::NewContext(
    int qp_id, int client_id, Verb verb, const FvRequest& request,
    std::function<void(Result<FvResult>)> done) {
  auto ctx = std::make_shared<RequestContext>();
  ctx->request_id = stats_.NextRequestId();
  ctx->qp_id = qp_id;
  ctx->client_id = client_id;
  ctx->verb = verb;
  ctx->request = request;
  ctx->submitted = engine_->Now();
  ctx->done = std::move(done);
  return ctx;
}

bool FarviewNode::Arrive(const RequestContextPtr& ctx,
                         std::function<void(Result<SimTime>)>* write_done) {
  ctx->ingress_done = engine_->Now();
  if (!down_) return true;
  stats_.RecordFailure(ctx->qp_id);
  stats_.RecordCrashFailure();
  Status s = Status::Unavailable("node down");
  if (write_done != nullptr) {
    FailSoon(engine_, std::move(*write_done), std::move(s));
  } else {
    FailSoon(engine_, ctx, std::move(s));
  }
  return false;
}

void FarviewNode::Settle(const RequestContext& ctx, Result<FvResult>* res) {
  if (res->ok() && ctx.ingress_done <= last_crash_at_) {
    stats_.RecordCrashFailure();
    *res = Status::Unavailable("node crashed during execution");
  }
  if (res->ok()) {
    res->value().issued_at = ctx.submitted;
    stats_.RecordCompletion(ctx);
  } else {
    stats_.RecordFailure(ctx.qp_id);
  }
}

void FarviewNode::TableWrite(int qp_id, uint64_t vaddr, const uint8_t* data,
                             uint64_t len,
                             std::function<void(Result<SimTime>)> done) {
  QPair* qp = FindQPair(qp_id);
  if (qp == nullptr) {
    FailSoon(engine_, std::move(done), Status::NotFound("unknown queue pair"));
    return;
  }
  // The functional write lands now, while the caller's bytes are valid, so
  // a down node is refused here too: it must not take the bytes. A node
  // that goes down later fails the write through `Arrive` and `Settle`,
  // like a read.
  if (down_) {
    stats_.RecordFailure(qp_id);
    stats_.RecordCrashFailure();
    FailSoon(engine_, std::move(done), Status::Unavailable("node down"));
    return;
  }
  // Functional write now (and access validation); timing below.
  const Status s = mmu_->Write(qp->client_id, vaddr, len, data);
  if (!s.ok()) {
    FailSoon(engine_, std::move(done), s);
    return;
  }
  FvRequest request;
  request.vaddr = vaddr;
  request.len = len;
  RequestContextPtr ctx =
      NewContext(qp_id, qp->client_id, Verb::kWrite, request, nullptr);
  ctx->bytes_on_wire = len;

  // Timing: request latency, then the payload crosses the ingress link in
  // packets, then streams into DRAM; completion (write acknowledgment back
  // at the client) after the final memory burst plus the return latency.
  // Writes never occupy a region, so the context skips the queue/region
  // stages entirely.
  const int flow = qp_id;
  engine_->ScheduleAfter(
      config_.net.fv_request_latency, [this, flow, vaddr, len, ctx,
                                       done = std::move(done)]() mutable {
        if (!Arrive(ctx, &done)) return;
        const uint64_t packet = config_.net.packet_bytes;
        uint64_t sent = 0;
        // Only the final packet carries a completion: earlier packets
        // submit fire-and-forget (their service time still shapes the
        // ingress queue), so `done` moves along the continuation chain
        // instead of being shared by every packet's callback.
        do {
          const uint64_t n = std::min<uint64_t>(packet, len - sent);
          const bool last = sent + n >= len;
          if (!last) {
            ingress_->Submit(flow, n, nullptr);
            sent += n;
            continue;
          }
          ingress_->Submit(
              flow, n,
              [this, flow, vaddr, len, ctx,
               done = std::move(done)](SimTime) mutable {
                // All packets arrived; stream the payload into memory.
                memctl_->StreamWrite(
                    flow, vaddr, len,
                    [this, ctx, done = std::move(done)](
                        uint64_t, bool mem_last, SimTime t) mutable {
                      if (ctx->first_memory_beat == 0) {
                        ctx->first_memory_beat = t;
                      }
                      if (!mem_last) return;
                      engine_->ScheduleAfter(
                          config_.net.fv_delivery_latency,
                          [this, ctx, done = std::move(done)]() mutable {
                            // A crash after the write arrived voids its
                            // ack, even when the node is back up by now:
                            // the client never learns the write landed.
                            ctx->delivered = engine_->Now();
                            Result<FvResult> res = FvResult{};
                            Settle(*ctx, &res);
                            if (res.ok()) {
                              done(engine_->Now());
                            } else {
                              done(res.status());
                            }
                          });
                    });
              });
          sent += n;
        } while (sent < len);
      });
}

void FarviewNode::TableRead(int qp_id, uint64_t vaddr, uint64_t len,
                            std::function<void(Result<FvResult>)> done) {
  FvRequest request;
  request.vaddr = vaddr;
  request.len = len;
  SubmitRegionVerb(qp_id, Verb::kRead, request, std::move(done));
}

void FarviewNode::FarviewRequest(int qp_id, const FvRequest& request,
                                 std::function<void(Result<FvResult>)> done) {
  SubmitRegionVerb(qp_id, Verb::kFarview, request, std::move(done));
}

void FarviewNode::SubmitRegionVerb(
    int qp_id, Verb verb, const FvRequest& request,
    std::function<void(Result<FvResult>)> done) {
  Result<DynamicRegion*> region = RegionFor(qp_id);
  if (!region.ok()) {
    FailSoon(engine_, std::move(done), region.status());
    return;
  }
  RequestContextPtr ctx = NewContext(qp_id, FindQPair(qp_id)->client_id, verb,
                                     request, std::move(done));
  net_->DeliverRequest([this, ctx]() { OnArrival(ctx); });
}

void FarviewNode::RawRead(int qp_id, uint64_t vaddr, uint64_t len,
                          std::function<void(Result<FvResult>)> done) {
  QPair* qp = FindQPair(qp_id);
  if (qp == nullptr) {
    FailSoon(engine_, std::move(done), Status::NotFound("unknown queue pair"));
    return;
  }
  FvRequest request;
  request.vaddr = vaddr;
  request.len = len;
  RequestContextPtr ctx =
      NewContext(qp_id, qp->client_id, Verb::kRead, request, std::move(done));
  net_->DeliverRequest([this, ctx]() {
    if (!Arrive(ctx)) return;
    auto st = std::make_shared<EgressState>();
    const Status s = mmu_->ReadInto(ctx->client_id, ctx->request.vaddr,
                                    ctx->request.len, &st->result.data);
    if (!s.ok()) {
      stats_.RecordFailure(ctx->qp_id);
      FailSoon(engine_, ctx, s);
      return;
    }
    // Raw path (DESIGN.md §7): no region, so it serves even when regions
    // are faulted or busy; the queue/region lifecycle stamps stay 0
    // (skipped stages).
    st->ctx = ctx;
    st->finish = [this, ctx](Result<FvResult> res) {
      Settle(*ctx, &res);
      ctx->done(std::move(res));
    };
    StreamBypass(memctl_.get(), net_.get(), st);
  });
}

void FarviewNode::OnArrival(RequestContextPtr ctx) {
  if (!Arrive(ctx)) return;
  auto it = qp_queues_.find(ctx->qp_id);
  if (it == qp_queues_.end()) {
    // Connection torn down while the request was crossing the network.
    stats_.RecordFailure(ctx->qp_id);
    FailSoon(engine_, std::move(ctx), Status::Unavailable("connection closed"));
    return;
  }
  SubmissionQueue& q = it->second;
  if (!q.CanAccept()) {
    stats_.RecordRejection(ctx->qp_id);
    FailSoon(engine_, std::move(ctx),
             Status::Unavailable(std::string("submission queue full (depth ")
                                     .append(std::to_string(q.depth()))
                                     .append(")")));
    return;
  }
  q.Enqueue(std::move(ctx));
  stats_.RecordQueueDepth(it->first, q.Outstanding());
  MaybeDispatch(it->first);
}

void FarviewNode::MaybeDispatch(int qp_id) {
  auto it = qp_queues_.find(qp_id);
  if (it == qp_queues_.end() || !it->second.CanDispatch()) return;
  QPair* qp = FindQPair(qp_id);
  FV_CHECK(qp != nullptr && qp->region_id >= 0)
      << "queued request on a connection without a region";
  DynamicRegion* r = regions_[static_cast<size_t>(qp->region_id)].get();
  // A faulted region serves nothing until it heals: drain the queue with
  // Unavailable so clients can retry later or degrade to a raw read.
  if (r->faulted()) {
    while (it->second.CanDispatch()) {
      RequestContextPtr ctx = it->second.PopForDispatch();
      it->second.MarkDone();
      stats_.RecordFailure(qp_id);
      FailSoon(engine_, std::move(ctx), Status::Unavailable("region faulted"));
    }
    return;
  }
  // A busy or reconfiguring region drains the queue when it frees (its
  // completion callback and LoadPipeline both re-enter here).
  if (r->busy() || r->reconfiguring()) return;
  RequestContextPtr ctx = it->second.PopForDispatch();
  auto on_result = [this, ctx](Result<FvResult> res) {
    FinishRequest(ctx, std::move(res));
  };
  // Injected pre-execution stall (FvFaultConfig::region_stall_prob): a
  // transient region hiccup delays acceptance. One Bernoulli draw per
  // dispatch, in dispatch order, so a given seed yields one fault schedule.
  SimTime stall = 0;
  if (fault_rng_ != nullptr && config_.faults.region_stall_prob > 0 &&
      fault_rng_->NextBernoulli(config_.faults.region_stall_prob)) {
    stall = config_.faults.region_stall_time;
    stats_.RecordRegionStall();
  }
  auto dispatch = [this, r, ctx,
                   on_result = std::move(on_result)]() mutable {
    if (ctx->verb == Verb::kRead) {
      r->ExecuteRead(ctx, std::move(on_result));
    } else {
      r->Execute(ctx, std::move(on_result));
    }
  };
  if (stall > 0) {
    engine_->ScheduleAfter(stall, std::move(dispatch));
  } else {
    dispatch();
  }
}

void FarviewNode::FinishRequest(RequestContextPtr ctx, Result<FvResult> res) {
  Settle(*ctx, &res);
  // Free the queue slot and hand the region to the next waiting request
  // before notifying the client (free-before-notify, like the scheduler).
  auto it = qp_queues_.find(ctx->qp_id);
  if (it != qp_queues_.end()) {
    it->second.MarkDone();
    MaybeDispatch(ctx->qp_id);
  }
  auto done = std::move(ctx->done);
  done(std::move(res));
}

ResourceUsage FarviewNode::CurrentResources() const {
  std::vector<const Pipeline*> loaded;
  for (const auto& r : regions_) {
    if (r->HasPipeline()) loaded.push_back(&r->pipeline());
  }
  return ResourceModel::Total(static_cast<int>(regions_.size()), loaded);
}

std::string FarviewNode::StatsReport() {
  return stats_.FormatReport(engine_->Now(), net_->link().Utilization());
}

}  // namespace farview
