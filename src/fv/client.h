#ifndef FARVIEW_FV_CLIENT_H_
#define FARVIEW_FV_CLIENT_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "fv/farview_node.h"
#include "fv/request.h"
#include "operators/pipeline.h"
#include "table/catalog.h"
#include "table/table.h"

namespace farview {

/// Client-side handle to a table resident in Farview memory — the paper's
/// `FTable` (Section 4.2). Filled in by `AllocTableMem` and `TableWrite`.
struct FTable {
  std::string name;
  Schema schema;
  uint64_t num_rows = 0;
  uint64_t vaddr = 0;

  uint64_t SizeBytes() const { return num_rows * schema.tuple_width(); }
};

/// Synchronous form of an async call: posts it through `post` with a
/// callback capturing the outcome, then drives `engine` until it settles
/// (not at all when it settled synchronously). Only valid when no other
/// traffic must stay pending — the engine runs dry.
template <typename T, typename Post>
T AwaitSync(sim::Engine* engine, Post&& post) {
  std::optional<T> out;
  post([&out](T r) { out.emplace(std::move(r)); });
  if (!out.has_value()) engine->Run();
  FV_CHECK(out.has_value()) << "synchronous call did not settle";
  return std::move(*out);
}

/// A single-shot client of one Farview node, implementing the paper's
/// programmatic interface (Section 4.2):
///
///   openConnection / allocTableMem / freeTableMem / tableRead /
///   tableWrite / farviewRequest / fvSelect ...
///
/// Every verb is one attempt on one queue pair. Timeouts, retries, raw-read
/// degradation and failover (DESIGN.md §7, §12) belong to the pool: each
/// shard's `FarviewCluster` runs them for its clients. A bare node that
/// wants them is a one-shard, one-replica `ShardedPool`.
///
/// Methods come in two flavors:
///  - asynchronous (`...Async`), for experiments with concurrent clients;
///  - synchronous wrappers that drive the simulation engine until their own
///    completion arrives (only valid when no other traffic must stay
///    pending; benches with multiple clients use the async forms).
///
/// "The interface presented here is intended to be used by the query
/// compiler in Farview, rather than directly by the client" — the
/// convenience query methods (FvSelect etc.) stand in for that compiler:
/// they build the operator pipeline, load it, and issue the request.
class FarviewClient {
 public:
  FarviewClient(FarviewNode* node, int client_id);
  ~FarviewClient();

  FarviewClient(const FarviewClient&) = delete;
  FarviewClient& operator=(const FarviewClient&) = delete;

  /// Establishes the connection; a dynamic region is assigned. Refuses a
  /// node whose config enables `retry`: that policy runs only in the pool
  /// client, so accepting it here would silently ignore it.
  Status OpenConnection();

  /// Releases the connection and its region.
  void CloseConnection();

  bool connected() const { return qp_ != nullptr; }
  QPair* qp() { return qp_; }
  int client_id() const { return client_id_; }
  FarviewNode* node() { return node_; }

  /// Local catalog of tables this client knows about (Section 4.1: clients
  /// hold the catalog used to locate tables).
  Catalog& catalog() { return catalog_; }

  // --- Memory management --------------------------------------------------

  /// Allocates Farview memory for `table->SizeBytes()` bytes and registers
  /// the table in the local catalog. Requires name, schema and num_rows. A
  /// name the catalog already holds fails with `AlreadyExists` before any
  /// memory is allocated; on failure `*table` is left untouched.
  Status AllocTableMem(FTable* table);

  /// Frees the table's memory and drops it from the catalog.
  Status FreeTableMem(FTable* table);

  /// Shares the table's memory with all clients and exports a catalog entry
  /// another client can import.
  Result<TableEntry> ShareTable(const FTable& table);

  /// Imports a catalog entry exported by another client.
  Status ImportTable(const TableEntry& entry);

  // --- Synchronous data path ----------------------------------------------

  /// Writes the table's rows into its allocated memory. Returns the
  /// simulated completion time.
  Result<SimTime> TableWrite(const FTable& table, const Table& rows);

  /// Reads the whole table back (plain RDMA read, no operators).
  Result<FvResult> TableRead(const FTable& table);

  /// Loads an operator pipeline into this connection's region (partial
  /// reconfiguration, milliseconds of simulated time).
  Status LoadPipeline(Pipeline pipeline);

  /// Issues the Farview verb against the currently loaded pipeline.
  Result<FvResult> FarviewRequest(const FvRequest& request);

  // --- Convenience queries (pipeline + request in one call) ---------------

  /// SELECT <projection> FROM table WHERE <predicates> — loads a
  /// selection(+projection) pipeline and executes it. Empty `projection`
  /// means all columns (SELECT *).
  Result<FvResult> FvSelect(const FTable& table,
                            std::vector<Predicate> predicates,
                            std::vector<int> projection = {},
                            bool vectorized = false);

  /// SELECT DISTINCT <key columns> FROM table.
  Result<FvResult> FvDistinct(const FTable& table,
                              std::vector<int> key_columns,
                              const GroupingConfig& config = {});

  /// SELECT <keys>, <aggs> FROM table GROUP BY <keys>.
  Result<FvResult> FvGroupBy(const FTable& table,
                             std::vector<int> key_columns,
                             std::vector<AggSpec> aggs,
                             const GroupingConfig& config = {});

  /// SELECT * FROM table WHERE column ~ pattern.
  Result<FvResult> FvRegexSelect(const FTable& table, int column,
                                 const std::string& pattern);

  /// Read + AES-CTR decrypt on the data path (table stored encrypted).
  Result<FvResult> FvDecryptRead(const FTable& table, const uint8_t key[16],
                                 const uint8_t nonce[16]);

  /// Small-table join offload (the conclusion's extension): streams `table`
  /// and joins it on `probe_key == build_key` against `build`, which is
  /// shipped with the pipeline into the region's on-chip memory. `build`
  /// must fit the on-chip hash structure.
  Result<FvResult> FvJoinSmall(const FTable& table, int probe_key,
                               const Table& build, int build_key);

  // --- Asynchronous forms (for concurrent-client experiments) -------------

  /// One attempt each; `done` runs once with the node's outcome.
  void FarviewRequestAsync(const FvRequest& request,
                           std::function<void(Result<FvResult>)> done);
  void TableReadAsync(const FTable& table,
                      std::function<void(Result<FvResult>)> done);
  void LoadPipelineAsync(Pipeline pipeline, std::function<void(Status)> done);

  /// Async form of `TableWrite`. The rows are copied into memory before
  /// the call returns; the completion carries the write's ack time.
  void TableWriteAsync(const FTable& table, const Table& rows,
                       std::function<void(Result<SimTime>)> done);

  /// Builds the standard request for a full scan of `table`.
  static FvRequest ScanRequest(const FTable& table, bool vectorized = false);

 private:
  /// Body of the convenience queries: load `pipeline`, then scan `table`
  /// through it.
  Result<FvResult> LoadAndScan(Result<Pipeline> pipeline, const FTable& table,
                               bool vectorized = false);

  FarviewNode* node_;
  int client_id_;
  QPair* qp_ = nullptr;
  Catalog catalog_;
};

}  // namespace farview

#endif  // FARVIEW_FV_CLIENT_H_
