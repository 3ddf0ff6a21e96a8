#include "fv/dynamic_region.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "operators/batch.h"

namespace farview {

DynamicRegion::DynamicRegion(int region_id, sim::Engine* engine,
                             const FarviewConfig& config, Mmu* mmu,
                             MemoryController* memctl, NetworkStack* net,
                             NodeStats* stats)
    : region_id_(region_id),
      engine_(engine),
      config_(config),
      mmu_(mmu),
      memctl_(memctl),
      net_(net),
      stats_(stats) {
  FV_CHECK(engine_ && mmu_ && memctl_ && net_ && stats_);
}

void DynamicRegion::LoadPipeline(Pipeline pipeline,
                                 std::function<void(Status)> done) {
  if (faulted_) {
    FailSoon(engine_, std::move(done), Status::Unavailable("region faulted"));
    return;
  }
  if (busy_ || reconfiguring_) {
    FailSoon(engine_, std::move(done),
             Status::Unavailable("region busy; cannot reconfigure"));
    return;
  }
  reconfiguring_ = true;
  // Partial reconfiguration: the bitstream for the pre-compiled pipeline is
  // loaded without disturbing other regions (Section 3.2).
  engine_->ScheduleAfter(
      config_.region_reconfig_time,
      [this, p = std::make_shared<Pipeline>(std::move(pipeline)),
       done = std::move(done)]() mutable {
        pipeline_.emplace(std::move(*p));
        reconfiguring_ = false;
        done(Status::OK());
      });
}

namespace {

/// Opens `st->tx`: the egress-stream callback of every read-type request.
/// Each delivered packet counts into `st->result`; the last one stamps the
/// completion time and the context's delivery fields, then calls
/// `st->finish`.
void OpenEgress(NetworkStack* net, const std::shared_ptr<EgressState>& st) {
  st->tx = net->OpenStream(
      st->ctx->qp_id, [st](uint64_t bytes, bool last, SimTime t) {
        st->result.bytes_on_wire += bytes;
        if (st->result.first_byte_at == 0) st->result.first_byte_at = t;
        if (!last) return;
        st->result.completed_at = t;
        RequestContext& ctx = *st->ctx;
        ctx.delivered = t;
        ctx.egress_finished = st->tx->last_link_exit();
        ctx.bytes_on_wire = st->result.bytes_on_wire;
        ctx.packets = st->tx->packets_sent();
        ctx.rows = st->result.rows;
        st->finish(std::move(st->result));
      });
}

}  // namespace

void StreamBypass(MemoryController* memctl, NetworkStack* net,
                  const std::shared_ptr<EgressState>& st) {
  OpenEgress(net, st);
  const FvRequest& request = st->ctx->request;
  memctl->StreamRead(st->ctx->qp_id, request.vaddr, request.len,
                     [st](uint64_t bytes, bool last, SimTime t) {
                       if (st->ctx->first_memory_beat == 0) {
                         st->ctx->first_memory_beat = t;
                       }
                       if (bytes > 0) st->tx->Push(bytes);
                       if (last) {
                         st->ctx->operator_done = t;
                         st->tx->Finish();
                       }
                     });
}

/// Per-request datapath state of the Farview verb, kept alive by
/// shared_ptr across the event callbacks of the three stacks; the egress
/// half is the base.
struct DynamicRegion::ExecState : EgressState {
  /// Functionally materialized input stream (whole tuples, or the
  /// smart-addressing extraction), consumed in order by the datapath.
  ByteBuffer stream;
  /// Bytes of `stream` that have cleared the datapath.
  uint64_t stream_cursor = 0;
  /// Bytes of `stream` handed to the pipeline: always a whole number of
  /// tuples, at most `stream_cursor`. The tuple straddling the two waits in
  /// the stream itself for the burst that completes it.
  uint64_t row_cursor = 0;

  /// Private datapath server for this request (rate depends on
  /// vectorization).
  std::unique_ptr<sim::Server> pipe;

  uint64_t mem_bursts_done = 0;
  uint64_t pipe_chunks_done = 0;
  bool input_done = false;
  bool failed = false;
};

Status DynamicRegion::Ready() const {
  if (faulted_) return Status::Unavailable("region faulted");
  if (busy_ || reconfiguring_) return Status::Unavailable("region busy");
  return Status::OK();
}

void DynamicRegion::Begin(const std::shared_ptr<EgressState>& st,
                          RequestContextPtr ctx,
                          std::function<void(Result<FvResult>)> on_result) {
  busy_ = true;
  busy_since_ = engine_->Now();
  ctx->region_start = busy_since_;
  st->ctx = std::move(ctx);
  st->finish = [this, on_result = std::move(on_result)](
                   Result<FvResult> res) mutable {
    ReleaseBusy();
    if (res.ok()) ++requests_served_;
    on_result(std::move(res));
  };
}

void DynamicRegion::ReleaseBusy() {
  busy_ = false;
  stats_->RecordRegionBusy(region_id_, engine_->Now() - busy_since_);
}

Status DynamicRegion::CheckLayout(const FvRequest& request) const {
  if (!pipeline_.has_value()) {
    return Status::FailedPrecondition("no pipeline loaded");
  }
  if (request.tuple_bytes == 0 || request.len % request.tuple_bytes != 0) {
    return Status::InvalidArgument("length is not a whole number of tuples");
  }
  const uint32_t stream_tuple =
      request.smart_addressing ? request.sa_access_bytes : request.tuple_bytes;
  if (stream_tuple != pipeline_->input_schema().tuple_width()) {
    return Status::InvalidArgument(
        "pipeline input width does not match the requested tuple layout");
  }
  if (request.smart_addressing) {
    if (request.vectorized) {
      return Status::InvalidArgument(
          "smart addressing and vectorization are mutually exclusive");
    }
    if (request.sa_access_bytes == 0 ||
        request.sa_offset + request.sa_access_bytes > request.tuple_bytes) {
      return Status::InvalidArgument("smart-addressing window out of tuple");
    }
  }
  return Status::OK();
}

void DynamicRegion::Execute(RequestContextPtr ctx,
                            std::function<void(Result<FvResult>)> on_result) {
  const FvRequest& request = ctx->request;
  Status s = Ready();
  if (s.ok()) s = CheckLayout(request);
  if (!s.ok()) {
    FailSoon(engine_, std::move(on_result), std::move(s));
    return;
  }

  auto st = std::make_shared<ExecState>();
  // Functional materialization of the input stream (and access check): the
  // one copy of the input the datapath makes; operators read it in place.
  // Take the recycled buffer (FinishStream returns it): its warm pages make
  // the materialization a single copy pass instead of fault + zero + copy.
  st->stream = std::move(stream_pool_);
  st->stream.clear();
  const uint64_t rows = request.len / request.tuple_bytes;
  if (request.smart_addressing) {
    st->stream.resize(rows * request.sa_access_bytes);
    for (uint64_t r = 0; r < rows && s.ok(); ++r) {
      s = mmu_->Read(
          ctx->client_id,
          request.vaddr + r * request.tuple_bytes + request.sa_offset,
          request.sa_access_bytes,
          st->stream.data() + r * request.sa_access_bytes);
    }
  } else {
    st->stream.resize(request.len);
    s = mmu_->Read(ctx->client_id, request.vaddr, request.len,
                   st->stream.data());
  }
  if (!s.ok()) {
    FailSoon(engine_, std::move(on_result), std::move(s));
    return;
  }

  Begin(st, ctx, std::move(on_result));
  pipeline_->Reset();
  st->pipe = std::make_unique<sim::Server>(
      engine_, "region" + std::to_string(region_id_) + "_pipe",
      config_.PipeRate(request.vectorized));
  OpenEgress(net_, st);

  // Timing: drive the memory stack; each completed burst is handed to the
  // datapath; each datapath completion processes the next chunk of the
  // functional stream.
  auto on_mem_burst = [this, st](uint64_t bytes, bool last, SimTime t) {
    if (st->failed) return;
    ++st->mem_bursts_done;
    if (st->ctx->first_memory_beat == 0) st->ctx->first_memory_beat = t;
    if (last) st->input_done = true;
    const SimTime fill = st->pipe_chunks_done == 0 && st->mem_bursts_done == 1
                             ? config_.pipeline_fill_latency
                             : 0;
    st->pipe->Submit(st->ctx->qp_id, bytes, fill, [this, st, bytes](SimTime) {
      OnBurstProcessed(st, bytes);
    });
  };

  if (request.smart_addressing) {
    memctl_->ScatteredRead(ctx->qp_id, request.vaddr, rows,
                           request.sa_access_bytes, request.tuple_bytes,
                           on_mem_burst);
  } else {
    memctl_->StreamRead(ctx->qp_id, request.vaddr, request.len, on_mem_burst);
  }
}

void DynamicRegion::OnBurstProcessed(std::shared_ptr<ExecState> st,
                                     uint64_t bytes) {
  if (st->failed) return;
  ++st->pipe_chunks_done;
  // Functional processing: the next `bytes` of the stream clear the
  // datapath now, and with them every tuple they complete.
  st->stream_cursor +=
      std::min<uint64_t>(bytes, st->stream.size() - st->stream_cursor);
  const Schema& schema = pipeline_->input_schema();
  const uint64_t rows =
      (st->stream_cursor - st->row_cursor) / schema.tuple_width();
  Result<Batch> out = pipeline_->Process(
      Batch::Borrow(&schema, st->stream.data() + st->row_cursor, rows));
  st->row_cursor += rows * schema.tuple_width();
  if (!out.ok()) {
    st->failed = true;
    st->finish(out.status());
    return;
  }
  out.value().AppendTo(&st->result.data);
  st->result.rows += out.value().num_rows;
  if (out.value().size_bytes() > 0) {
    st->tx->Push(out.value().size_bytes());
  }
  if (st->input_done && st->pipe_chunks_done == st->mem_bursts_done &&
      st->stream_cursor == st->stream.size()) {
    FinishStream(st);
  }
}

void DynamicRegion::FinishStream(std::shared_ptr<ExecState> st) {
  // The stream is fully consumed (OnBurstProcessed checks the cursor before
  // calling us), so its buffer can be recycled for the next request.
  stream_pool_ = std::move(st->stream);
  st->stream.clear();
  st->stream_cursor = 0;
  st->row_cursor = 0;
  Result<Batch> flushed = pipeline_->Flush();
  if (!flushed.ok()) {
    st->failed = true;
    st->finish(flushed.status());
    return;
  }
  const Batch& fb = flushed.value();
  // Blocking operators pay the flush-phase latency: one queue lookup per
  // group per cycle (Section 5.4).
  SimTime flush_latency = 0;
  if (fb.num_rows > 0 && pipeline_->IsBlocking()) {
    flush_latency = static_cast<SimTime>(fb.num_rows) * config_.flush_per_group;
  }
  fb.AppendTo(&st->result.data);
  st->result.rows += fb.num_rows;
  const uint64_t flush_bytes = fb.size_bytes();
  engine_->ScheduleAfter(flush_latency, [this, st, flush_bytes]() {
    st->ctx->operator_done = engine_->Now();
    if (flush_bytes > 0) st->tx->Push(flush_bytes);
    st->tx->Finish();
  });
}

void DynamicRegion::ExecuteRead(
    RequestContextPtr ctx, std::function<void(Result<FvResult>)> on_result) {
  Status s = Ready();
  if (!s.ok()) {
    FailSoon(engine_, std::move(on_result), std::move(s));
    return;
  }
  auto st = std::make_shared<EgressState>();
  // Plain reads have no datapath stage, so the payload is appended straight
  // into the result: one streaming-copy pass (no operator reads a result;
  // only a sharded pool's gather copies it once more), no scratch buffer
  // and no value-initializing resize.
  s = mmu_->ReadInto(ctx->client_id, ctx->request.vaddr, ctx->request.len,
                     &st->result.data);
  if (!s.ok()) {
    FailSoon(engine_, std::move(on_result), std::move(s));
    return;
  }
  Begin(st, std::move(ctx), std::move(on_result));
  StreamBypass(memctl_, net_, st);
}

}  // namespace farview
