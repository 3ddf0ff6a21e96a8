#include "fv/client.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace farview {

/// One client-side reliable call: the retry loop's state, shared by the
/// attempt-completion, timeout and backoff events. `token` names the live
/// attempt — an event carrying a stale token belongs to an attempt the
/// client already abandoned and must not settle the call (DESIGN.md §7).
struct FarviewClient::ReliableCall {
  Verb verb = Verb::kFarview;
  FvRequest request;
  int attempts_done = 0;   ///< attempts issued so far (1-based after start)
  uint64_t token = 0;      ///< bumped whenever the live attempt changes
  bool settled = false;    ///< user callback already invoked
  std::function<void(Result<FvResult>)> done;
};

FailureKind ClassifyFailure(const Status& s) {
  if (s.IsUnavailable() || s.IsDeadlineExceeded()) return FailureKind::kHealth;
  if (s.IsResourceExhausted()) return FailureKind::kShed;
  return FailureKind::kRequest;
}

FarviewClient::FarviewClient(FarviewNode* node, int client_id)
    : node_(node), client_id_(client_id) {
  FV_CHECK(node_ != nullptr);
}

FarviewClient::~FarviewClient() { CloseConnection(); }

Status FarviewClient::OpenConnection() {
  if (qp_ != nullptr) {
    return Status::FailedPrecondition("connection already open");
  }
  FV_ASSIGN_OR_RETURN(qp_, node_->Connect(client_id_));
  return Status::OK();
}

void FarviewClient::CloseConnection() {
  if (qp_ == nullptr) return;
  const Status s = node_->Disconnect(qp_->qp_id);
  FV_CHECK(s.ok()) << s.ToString();
  qp_ = nullptr;
}

Status FarviewClient::AllocTableMem(FTable* table) {
  if (qp_ == nullptr) return Status::FailedPrecondition("not connected");
  if (table->name.empty() || table->num_rows == 0) {
    return Status::InvalidArgument("table needs a name and a row count");
  }
  FV_ASSIGN_OR_RETURN(table->vaddr,
                      node_->AllocTableMem(*qp_, table->SizeBytes()));
  TableEntry entry;
  entry.name = table->name;
  entry.schema = table->schema;
  entry.virtual_address = table->vaddr;
  entry.num_rows = table->num_rows;
  entry.size_bytes = table->SizeBytes();
  return catalog_.Register(std::move(entry));
}

Status FarviewClient::FreeTableMem(FTable* table) {
  if (qp_ == nullptr) return Status::FailedPrecondition("not connected");
  FV_RETURN_IF_ERROR(node_->FreeTableMem(*qp_, table->vaddr));
  if (catalog_.Contains(table->name)) {
    FV_RETURN_IF_ERROR(catalog_.Drop(table->name));
  }
  table->vaddr = 0;
  return Status::OK();
}

Result<TableEntry> FarviewClient::ShareTable(const FTable& table) {
  if (qp_ == nullptr) return Status::FailedPrecondition("not connected");
  FV_RETURN_IF_ERROR(node_->ShareTableMem(*qp_, table.vaddr));
  return catalog_.Lookup(table.name);
}

Status FarviewClient::ImportTable(const TableEntry& entry) {
  return catalog_.Register(entry);
}

Result<SimTime> FarviewClient::TableWrite(const FTable& table,
                                          const Table& rows) {
  if (qp_ == nullptr) return Status::FailedPrecondition("not connected");
  return AwaitSync<Result<SimTime>>(node_->engine(), [&](auto done) {
    TableWriteAsync(table, rows, std::move(done));
  });
}

void FarviewClient::TableWriteAsync(const FTable& table, const Table& rows,
                                    std::function<void(Result<SimTime>)> done) {
  FV_CHECK(qp_ != nullptr) << "not connected";
  if (!rows.schema().Equals(table.schema)) {
    done(Status::InvalidArgument("row data does not match table schema"));
    return;
  }
  if (rows.num_rows() != table.num_rows) {
    done(Status::InvalidArgument("row count does not match table"));
    return;
  }
  node_->TableWrite(qp_->qp_id, table.vaddr, rows.data(), rows.size_bytes(),
                    std::move(done));
}

Result<FvResult> FarviewClient::TableRead(const FTable& table) {
  if (qp_ == nullptr) return Status::FailedPrecondition("not connected");
  return AwaitSync<Result<FvResult>>(node_->engine(), [&](auto done) {
    TableReadAsync(table, std::move(done));
  });
}

Status FarviewClient::LoadPipeline(Pipeline pipeline) {
  if (qp_ == nullptr) return Status::FailedPrecondition("not connected");
  return AwaitSync<Status>(node_->engine(), [&](auto done) {
    LoadPipelineAsync(std::move(pipeline), std::move(done));
  });
}

Result<FvResult> FarviewClient::FarviewRequest(const FvRequest& request) {
  if (qp_ == nullptr) return Status::FailedPrecondition("not connected");
  return AwaitSync<Result<FvResult>>(node_->engine(), [&](auto done) {
    FarviewRequestAsync(request, std::move(done));
  });
}

void FarviewClient::FarviewRequestAsync(
    const FvRequest& request, std::function<void(Result<FvResult>)> done) {
  SubmitAsync(Verb::kFarview, request, std::move(done));
}

void FarviewClient::TableReadAsync(const FTable& table,
                                   std::function<void(Result<FvResult>)> done) {
  SubmitAsync(Verb::kRead, ScanRequest(table), std::move(done));
}

void FarviewClient::SubmitAsync(Verb verb, const FvRequest& request,
                                std::function<void(Result<FvResult>)> done) {
  FV_CHECK(qp_ != nullptr) << "not connected";
  if (node_->config().retry.enabled) {
    IssueWithRetries(verb, request, std::move(done));
    return;
  }
  if (GateBlocked()) {
    done(GateError());
    return;
  }
  Post(verb, request, std::move(done));
}

void FarviewClient::Post(Verb verb, const FvRequest& request,
                         std::function<void(Result<FvResult>)> done) {
  if (verb == Verb::kRead) {
    node_->TableRead(qp_->qp_id, request.vaddr, request.len, std::move(done));
  } else {
    node_->FarviewRequest(qp_->qp_id, request, std::move(done));
  }
}

bool FarviewClient::GateBlocked() {
  if (!gate_ || gate_()) return false;
  node_->stats().RecordFastFail();
  return true;
}

Status FarviewClient::GateError() {
  return Status::Unavailable("node circuit open (fast-fail)");
}

void FarviewClient::IssueWithRetries(
    Verb verb, const FvRequest& request,
    std::function<void(Result<FvResult>)> done) {
  auto call = std::make_shared<ReliableCall>();
  call->verb = verb;
  call->request = request;
  call->done = std::move(done);
  StartReliableAttempt(std::move(call));
}

void FarviewClient::StartReliableAttempt(std::shared_ptr<ReliableCall> call) {
  if (qp_ == nullptr) {
    // Connection closed between attempts (disconnect during backoff).
    FinishReliable(std::move(call),
                   Status::FailedPrecondition("not connected"));
    return;
  }
  if (GateBlocked()) {
    // Known-dead node: settle the whole call now instead of burning the
    // remaining timeout/backoff schedule — the router above (if any) fails
    // over to a live replica immediately (DESIGN.md §12).
    FinishReliable(std::move(call), GateError());
    return;
  }
  const RetryPolicy& rp = node_->config().retry;
  ++call->attempts_done;
  const uint64_t token = ++call->token;
  auto on_result = [this, call, token](Result<FvResult> res) {
    if (call->settled || token != call->token) {
      // The client already gave up on this attempt; the node's work still
      // completed (or failed) and the result is dropped here.
      node_->stats().RecordLateCompletion();
      return;
    }
    if (res.ok()) {
      FinishReliable(call, std::move(res));
      return;
    }
    const Status s = res.status();
    // Sheds retry too: the node is healthy, and its retry-after hint floors
    // the backoff below.
    if (ClassifyFailure(s) != FailureKind::kRequest) {
      HandleAttemptFailure(call, s);
    } else {
      FinishReliable(call, std::move(res));  // not retryable
    }
  };
  Post(call->verb, call->request, std::move(on_result));
  // The attempt's completion timeout. A resolved attempt (either way) bumps
  // the token, turning this event into a no-op.
  node_->engine()->ScheduleAfter(
      rp.completion_timeout, [this, call, token]() {
        if (call->settled || token != call->token) return;
        node_->stats().RecordTimeout();
        HandleAttemptFailure(
            call, Status::DeadlineExceeded(
                      "no completion within the attempt deadline"));
      });
}

void FarviewClient::HandleAttemptFailure(std::shared_ptr<ReliableCall> call,
                                         const Status& error) {
  ++call->token;  // invalidate the attempt's remaining pending events
  const RetryPolicy& rp = node_->config().retry;
  // Graceful degradation: when the region itself is faulted, retrying into
  // it cannot succeed until it heals — serve base-table bytes raw instead
  // (the RNIC path needs no region).
  if (rp.raw_read_fallback && qp_ != nullptr && qp_->region_id >= 0 &&
      node_->region(qp_->region_id).faulted()) {
    FallbackRawRead(std::move(call));
    return;
  }
  if (call->attempts_done >= rp.max_attempts) {
    FinishReliable(std::move(call), error);
    return;
  }
  // Capped exponential backoff: base * 2^(retry-1), clamped to the cap
  // (overflow-safe — the policy clamps before each doubling). A shedding
  // server's retry-after hint floors the backoff (DESIGN.md §15): retrying
  // sooner than the server asked would only be shed again.
  SimTime backoff = rp.BackoffForAttempt(call->attempts_done);
  if (error.retry_after_ps() > backoff) backoff = error.retry_after_ps();
  node_->stats().RecordRetry();
  node_->engine()->ScheduleAfter(backoff, [this, call]() {
    if (call->settled) return;
    StartReliableAttempt(call);
  });
}

void FarviewClient::FallbackRawRead(std::shared_ptr<ReliableCall> call) {
  node_->stats().RecordFallback();
  node_->RawRead(qp_->qp_id, call->request.vaddr, call->request.len,
                 [this, call](Result<FvResult> res) {
                   if (call->settled) return;
                   if (res.ok()) res.value().degraded_raw = true;
                   FinishReliable(call, std::move(res));
                 });
}

void FarviewClient::FinishReliable(std::shared_ptr<ReliableCall> call,
                                   Result<FvResult> res) {
  ++call->token;  // no event of this call may act after settlement
  call->settled = true;
  auto done = std::move(call->done);
  done(std::move(res));
}

void FarviewClient::LoadPipelineAsync(Pipeline pipeline,
                                      std::function<void(Status)> done) {
  FV_CHECK(qp_ != nullptr) << "not connected";
  node_->LoadPipeline(qp_->qp_id, std::move(pipeline), std::move(done));
}

FvRequest FarviewClient::ScanRequest(const FTable& table, bool vectorized) {
  FvRequest req;
  req.vaddr = table.vaddr;
  req.len = table.SizeBytes();
  req.tuple_bytes = table.schema.tuple_width();
  req.vectorized = vectorized;
  return req;
}

Result<FvResult> FarviewClient::LoadAndScan(Result<Pipeline> pipeline,
                                            const FTable& table,
                                            bool vectorized) {
  FV_RETURN_IF_ERROR(pipeline.status());
  FV_RETURN_IF_ERROR(LoadPipeline(std::move(pipeline).value()));
  return FarviewRequest(ScanRequest(table, vectorized));
}

Result<FvResult> FarviewClient::FvSelect(const FTable& table,
                                         std::vector<Predicate> predicates,
                                         std::vector<int> projection,
                                         bool vectorized) {
  PipelineBuilder builder(table.schema);
  builder.Select(std::move(predicates));
  if (!projection.empty()) builder.Project(std::move(projection));
  return LoadAndScan(builder.Build(), table, vectorized);
}

Result<FvResult> FarviewClient::FvDistinct(const FTable& table,
                                           std::vector<int> key_columns,
                                           const GroupingConfig& config) {
  return LoadAndScan(PipelineBuilder(table.schema)
                         .Distinct(std::move(key_columns), config)
                         .Build(),
                     table);
}

Result<FvResult> FarviewClient::FvGroupBy(const FTable& table,
                                          std::vector<int> key_columns,
                                          std::vector<AggSpec> aggs,
                                          const GroupingConfig& config) {
  return LoadAndScan(PipelineBuilder(table.schema)
                         .GroupBy(std::move(key_columns), std::move(aggs),
                                  config)
                         .Build(),
                     table);
}

Result<FvResult> FarviewClient::FvRegexSelect(const FTable& table, int column,
                                              const std::string& pattern) {
  return LoadAndScan(
      PipelineBuilder(table.schema).RegexSelect(column, pattern).Build(),
      table);
}

Result<FvResult> FarviewClient::FvJoinSmall(const FTable& table,
                                            int probe_key, const Table& build,
                                            int build_key) {
  return LoadAndScan(PipelineBuilder(table.schema)
                         .HashJoinSmall(probe_key, build, build_key)
                         .Build(),
                     table);
}

Result<FvResult> FarviewClient::FvDecryptRead(const FTable& table,
                                              const uint8_t key[16],
                                              const uint8_t nonce[16]) {
  return LoadAndScan(
      PipelineBuilder(table.schema).Decrypt(key, nonce).Build(), table);
}

}  // namespace farview
