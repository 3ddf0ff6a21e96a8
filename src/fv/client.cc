#include "fv/client.h"

#include <utility>

#include "common/logging.h"

namespace farview {

FarviewClient::FarviewClient(FarviewNode* node, int client_id)
    : node_(node), client_id_(client_id) {
  FV_CHECK(node_ != nullptr);
}

FarviewClient::~FarviewClient() { CloseConnection(); }

Status FarviewClient::OpenConnection() {
  if (qp_ != nullptr) {
    return Status::FailedPrecondition("connection already open");
  }
  if (node_->config().retry.enabled) {
    return Status::InvalidArgument(
        "a bare node client is single-shot: the retry policy runs in the "
        "pool client (a one-shard, one-replica ShardedPool)");
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
  // Refuse a taken name before the node allocates: memory allocated for a
  // table the catalog then rejects would never be freed.
  if (catalog_.Contains(table->name)) {
    return Status::AlreadyExists("table already registered: " + table->name);
  }
  TableEntry entry;
  FV_ASSIGN_OR_RETURN(entry.virtual_address,
                      node_->AllocTableMem(*qp_, table->SizeBytes()));
  entry.name = table->name;
  entry.schema = table->schema;
  entry.num_rows = table->num_rows;
  entry.size_bytes = table->SizeBytes();
  table->vaddr = entry.virtual_address;
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
  FV_CHECK(qp_ != nullptr) << "not connected";
  node_->FarviewRequest(qp_->qp_id, request, std::move(done));
}

void FarviewClient::TableReadAsync(const FTable& table,
                                   std::function<void(Result<FvResult>)> done) {
  FV_CHECK(qp_ != nullptr) << "not connected";
  node_->TableRead(qp_->qp_id, table.vaddr, table.SizeBytes(),
                   std::move(done));
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
