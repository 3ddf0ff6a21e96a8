#ifndef FARVIEW_FV_DYNAMIC_REGION_H_
#define FARVIEW_FV_DYNAMIC_REGION_H_

#include <functional>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "common/inline_fn.h"
#include "common/status.h"
#include "fv/fv_config.h"
#include "fv/node_stats.h"
#include "fv/request.h"
#include "fv/request_context.h"
#include "mem/memory_controller.h"
#include "mem/mmu.h"
#include "net/network_stack.h"
#include "operators/pipeline.h"
#include "sim/engine.h"
#include "sim/server.h"

namespace farview {

/// Egress half of one read-type request (Figure 3), shared by the region
/// datapath and the bypass path: the result being built, the egress stream
/// carrying it to the client and the step that settles it.
struct EgressState {
  RequestContextPtr ctx;
  FvResult result;
  NetworkStack::StreamHandle tx;
  /// Runs once: with the result when its last byte lands in client memory,
  /// or with the failure that ended the request first.
  InlineFn<void(Result<FvResult>)> finish;
};

/// Figure 3's blue bypass path: streams the bytes of `st->ctx->request`
/// from memory straight onto a newly opened egress stream, with no
/// datapath stage; the memory stack's last burst stamps `operator_done`.
/// `st->result.data` must already hold the bytes. Plain region reads
/// (`DynamicRegion::ExecuteRead`) and raw reads (`FarviewNode::RawRead`)
/// both stream through it.
void StreamBypass(MemoryController* memctl, NetworkStack* net,
                  const std::shared_ptr<EgressState>& st);

/// One virtual dynamic region of the operator stack (Sections 3.2, 4.5).
///
/// A region is assigned to one connection, holds at most one loaded operator
/// pipeline (swappable at runtime with a milliseconds-scale partial
/// reconfiguration), and serves one request at a time — multiple outstanding
/// requests wait in the owning queue pair's submission queue at the node.
/// Request execution follows Figure 3:
///
///   memory stack ──bursts──▶ pipe (datapath @16 GB/s/pipe)
///        ▲   (completion order)   │ operators (functional, over the
///   read requests                 ▼  stream in address order)
///        └──────── region ──────▶ network stack TxStream ──▶ client
///
/// Timing: bursts queue on the shared DRAM channel servers (striped), then
/// on the region's private datapath server (rate = 16 GB/s × pipes), then
/// the produced payload queues on the shared egress link. Bursts clear the
/// datapath in channel completion order, which need not be address order:
/// a range's short last stripe can complete before a full one. There is no
/// reorder step. Functionally the request's input is copied once, at the
/// start, out of the MMU into one contiguous stream buffer in address
/// order. Each burst that clears the datapath advances a byte prefix of
/// that stream by the burst's byte count and hands the pipeline a borrowed
/// batch (`Batch::Borrow`) of the whole tuples the prefix now completes,
/// read in place. So operators see the rows, and emit output bytes, in
/// address order, while the size of each batch (and of each egress push)
/// follows completion order. A tuple split across two bursts waits in the
/// stream for the burst that completes it.
///
/// The region stamps each request's `RequestContext` as it moves through the
/// stacks (region-start, first-memory-beat, operator-done, egress-finished,
/// delivered) and reports its busy intervals to `NodeStats`.
class DynamicRegion {
 public:
  DynamicRegion(int region_id, sim::Engine* engine,
                const FarviewConfig& config, Mmu* mmu,
                MemoryController* memctl, NetworkStack* net,
                NodeStats* stats);

  DynamicRegion(const DynamicRegion&) = delete;
  DynamicRegion& operator=(const DynamicRegion&) = delete;

  /// Loads (or swaps) the operator pipeline; completes after the partial
  /// reconfiguration delay. Fails if a request is in flight.
  void LoadPipeline(Pipeline pipeline, std::function<void(Status)> done);

  /// True when a pipeline is loaded.
  bool HasPipeline() const { return pipeline_.has_value(); }

  /// The loaded pipeline (must exist).
  const Pipeline& pipeline() const { return *pipeline_; }

  /// Executes a Farview-verb request through the loaded pipeline. The
  /// request must already be at the node (ingress latency paid by the
  /// caller; `ctx->ingress_done` stamped). `on_result` runs when the last
  /// byte lands in client memory — the caller (node or scheduler) uses it
  /// to drain the submission queue before invoking `ctx->done`.
  void Execute(RequestContextPtr ctx,
               std::function<void(Result<FvResult>)> on_result);

  /// Executes a plain RDMA read of `ctx->request.vaddr/len` (the blue
  /// bypass path of Figure 3): memory streamed straight to the network, no
  /// operators.
  void ExecuteRead(RequestContextPtr ctx,
                   std::function<void(Result<FvResult>)> on_result);

  bool busy() const { return busy_; }
  bool reconfiguring() const { return reconfiguring_; }
  int region_id() const { return region_id_; }

  /// Fault window control (DESIGN.md §7). While faulted, Execute/
  /// ExecuteRead and LoadPipeline reject with `Unavailable("region
  /// faulted")`; the node fails queued requests for the region at dispatch
  /// so clients can retry or degrade to a raw read. A request already in
  /// flight when the fault opens finishes on its own (its datapath state is
  /// committed, like a one-sided RDMA in the paper's hardware).
  void InjectFault() { faulted_ = true; }
  void ClearFault() { faulted_ = false; }
  bool faulted() const { return faulted_; }

  /// Requests served since construction.
  uint64_t requests_served() const { return requests_served_; }

 private:
  struct ExecState;

  /// A burst of `bytes` cleared the datapath: advance the stream prefix by
  /// `bytes`, run the functional pipeline over the tuples that completes
  /// and push output to the network; finish after the last.
  void OnBurstProcessed(std::shared_ptr<ExecState> st, uint64_t bytes);

  void FinishStream(std::shared_ptr<ExecState> st);

  /// Shared prologue of Execute and ExecuteRead: OK when the region can
  /// take a request now, else the `Unavailable` to fail it with.
  Status Ready() const;

  /// Execute's request check: a pipeline is loaded and `request`'s tuple
  /// layout fits its input.
  Status CheckLayout(const FvRequest& request) const;

  /// Starts serving `ctx` with state `st`: marks the region busy and
  /// stamps `region_start`. `st->finish` frees the region before handing
  /// the outcome to `on_result`.
  void Begin(const std::shared_ptr<EgressState>& st, RequestContextPtr ctx,
             std::function<void(Result<FvResult>)> on_result);

  /// Frees the region and reports the busy interval to NodeStats.
  void ReleaseBusy();

  int region_id_;
  sim::Engine* engine_;
  FarviewConfig config_;
  Mmu* mmu_;
  MemoryController* memctl_;
  NetworkStack* net_;
  NodeStats* stats_;

  std::optional<Pipeline> pipeline_;
  /// Recycled input-stream buffer. Materializing a multi-MiB request into a
  /// fresh vector costs milliseconds of page faults + zeroing per request;
  /// reusing the previous request's buffer makes the same-size resize free
  /// (Execute overwrites every byte through the MMU before reading any).
  /// The copy is a plain one, not `Mmu::ReadInto`'s streaming stores: the
  /// datapath reads these bytes back within microseconds of host time, so
  /// they should still be in cache.
  ByteBuffer stream_pool_;
  bool busy_ = false;
  bool reconfiguring_ = false;
  bool faulted_ = false;
  SimTime busy_since_ = 0;
  uint64_t requests_served_ = 0;
};

}  // namespace farview

#endif  // FARVIEW_FV_DYNAMIC_REGION_H_
