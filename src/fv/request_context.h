#ifndef FARVIEW_FV_REQUEST_CONTEXT_H_
#define FARVIEW_FV_REQUEST_CONTEXT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "fv/request.h"
#include "net/qpair.h"
#include "sim/engine.h"

namespace farview {

/// The bookkeeping spine of one in-flight request on the client→node→
/// region→network data path. Every data-path verb (READ, WRITE, FARVIEW)
/// allocates one context at submission and threads it through the stacks in
/// place of loose callback captures, so the node can queue requests per
/// queue pair and account for every lifecycle stage (the per-request
/// breakdowns REMOP-style systems use to drive optimization decisions).
///
/// Stage stamps follow Figure 3's data path, in simulated picoseconds:
///
///   submitted ──ingress──▶ ingress_done ──queue──▶ region_start
///     ──memory stack──▶ first_memory_beat ──datapath──▶ operator_done
///     ──egress link──▶ egress_finished ──delivery──▶ delivered
///
/// A stamp stays 0 when its stage does not apply to the verb (WRITEs never
/// occupy a region; fully-filtered results still send an empty last packet,
/// so egress stamps are always set for region verbs).
struct RequestContext {
  /// Node-unique id, assigned at submission (monotone per node).
  uint64_t request_id = 0;

  /// Flow and ownership, copied from the queue pair at submission.
  int qp_id = -1;
  int client_id = -1;
  Verb verb = Verb::kFarview;

  /// Verb parameters (meaningful for FARVIEW; READ/WRITE use vaddr/len).
  /// `request.slo` is the class the admission controller and fair
  /// scheduler read (DESIGN.md §15).
  FvRequest request;

  // --- Lifecycle stamps (simulated time, ps; 0 = stage not reached) -------
  SimTime submitted = 0;          ///< client posted the verb
  SimTime ingress_done = 0;       ///< request arrived at the node
  SimTime region_start = 0;       ///< region began executing (left queue)
  SimTime first_memory_beat = 0;  ///< first DRAM burst completed
  SimTime operator_done = 0;      ///< last byte cleared the datapath
  SimTime egress_finished = 0;    ///< last packet left the egress link
  SimTime delivered = 0;          ///< last byte landed in client memory

  // --- Volume accounting ---------------------------------------------------
  uint64_t bytes_on_wire = 0;  ///< payload bytes that crossed the network
  uint64_t packets = 0;        ///< egress packets (region verbs)
  uint64_t rows = 0;           ///< result rows (FARVIEW verb)

  /// Client completion callback; invoked exactly once, with the result or
  /// the typed failure Status.
  std::function<void(Result<FvResult>)> done;

  /// Time spent waiting in the submission queue for the region.
  SimTime QueueWait() const { return region_start - ingress_done; }

  /// True when every stamp that was set is ordered along the lifecycle
  /// (skipping stages the verb does not visit). Completed requests must
  /// always satisfy this — it is the node's monotonicity invariant, which
  /// NodeStats::RecordCompletion checks for every completion.
  bool StampsMonotone() const;
};

/// Shared handle threading one request through client, node, region
/// scheduler, and network (DESIGN.md §6b).
using RequestContextPtr = std::shared_ptr<RequestContext>;

/// Fails a request with `s` from a zero-delay event on `engine`, so no verb
/// completes inside the call that posted it. `target` is the request's
/// context (its `done` runs) or, where no context exists yet, the bare
/// completion callback. A context rides in the event instead of its
/// `done`: with the Status it fills InlineFn's 64 inline bytes exactly,
/// where `done` would spill to the heap.
template <typename Target>
void FailSoon(sim::Engine* engine, Target target, Status s) {
  constexpr bool kContext = std::is_same_v<Target, RequestContextPtr>;
  auto fail = [target = std::move(target), s = std::move(s)]() mutable {
    if constexpr (kContext) {
      target->done(std::move(s));
    } else {
      target(std::move(s));
    }
  };
  static_assert(!kContext || sim::EventFn::StoredInline<decltype(fail)>(),
                "a context's failure event must not allocate");
  engine->ScheduleAfter(0, std::move(fail));
}

/// Bounded FIFO submission queue of one queue pair (Section 4.3's flows).
///
/// `depth` caps *outstanding* requests — the one executing on the region
/// plus those waiting — so a client can post several asynchronous requests
/// on one connection and the node drains them in FIFO order as the region
/// frees. Depth 1 reproduces the paper prototype's one-request-per-QP
/// behavior; admission beyond the cap is rejected with a typed Status by
/// the caller (the queue only answers CanAccept).
class SubmissionQueue {
 public:
  explicit SubmissionQueue(int depth);

  /// True when another request fits under the depth cap.
  bool CanAccept() const {
    return Outstanding() < static_cast<size_t>(depth_);
  }

  /// Appends a waiting request. The caller must have checked CanAccept.
  void Enqueue(RequestContextPtr ctx);

  /// True when a waiting request exists and none is executing.
  bool CanDispatch() const { return !executing_ && !waiting_.empty(); }

  /// Pops the oldest waiting request and marks the queue executing.
  RequestContextPtr PopForDispatch();

  /// Marks the executing request finished (the region freed).
  void MarkDone();

  /// Removes and returns every waiting request (connection teardown); the
  /// executing one, if any, finishes on its own.
  std::vector<RequestContextPtr> Flush();

  /// Executing + waiting requests.
  size_t Outstanding() const {
    return waiting_.size() + (executing_ ? 1u : 0u);
  }

  size_t waiting() const { return waiting_.size(); }
  bool executing() const { return executing_; }
  int depth() const { return depth_; }

  /// Largest Outstanding() ever observed (queue-depth high-water mark).
  size_t high_water() const { return high_water_; }

 private:
  int depth_;
  std::deque<RequestContextPtr> waiting_;
  bool executing_ = false;
  size_t high_water_ = 0;
};

}  // namespace farview

#endif  // FARVIEW_FV_REQUEST_CONTEXT_H_
