#include "fv/request_context.h"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "common/logging.h"

namespace farview {

const char* SloClassName(SloClass slo) {
  return slo == SloClass::kBatch ? "batch" : "latency";
}

bool RequestContext::StampsMonotone() const {
  SimTime prev = 0;
  for (SimTime s : {submitted, ingress_done, region_start, first_memory_beat,
                    operator_done, egress_finished, delivered}) {
    if (s == 0) continue;  // stage skipped by this verb
    if (s < prev) return false;
    prev = s;
  }
  return true;
}

SubmissionQueue::SubmissionQueue(int depth) : depth_(depth) {
  FV_CHECK(depth_ >= 1) << "submission queue depth must be positive";
}

void SubmissionQueue::Enqueue(RequestContextPtr ctx) {
  FV_CHECK(CanAccept()) << "enqueue past the depth cap (" << depth_ << ")";
  waiting_.push_back(std::move(ctx));
  high_water_ = std::max(high_water_, Outstanding());
}

RequestContextPtr SubmissionQueue::PopForDispatch() {
  FV_CHECK(CanDispatch());
  RequestContextPtr ctx = std::move(waiting_.front());
  waiting_.pop_front();
  executing_ = true;
  return ctx;
}

void SubmissionQueue::MarkDone() {
  FV_CHECK(executing_) << "MarkDone without an executing request";
  executing_ = false;
}

std::vector<RequestContextPtr> SubmissionQueue::Flush() {
  std::vector<RequestContextPtr> out(waiting_.begin(), waiting_.end());
  waiting_.clear();
  return out;
}

}  // namespace farview
