#ifndef FARVIEW_FV_CLIENT_H_
#define FARVIEW_FV_CLIENT_H_

#include <functional>
#include <memory>
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

/// How the client layers treat a failed attempt (DESIGN.md §7, §12, §15):
/// the one classification behind "retry?", "penalize the replica?" and
/// "rotate to another replica?".
enum class FailureKind {
  /// `Unavailable` / `DeadlineExceeded`: the node may be dead. Retried,
  /// recorded on the replica's circuit breaker, failed over.
  kHealth,
  /// `ResourceExhausted`: the node is healthy but shedding load. Retried
  /// no sooner than its retry-after hint; never trips a breaker.
  kShed,
  /// Anything else (bad request, MMU error): the request's own fault.
  /// Reported as is, never retried, never penalizes a replica.
  kRequest,
};

/// Classifies a non-OK status.
FailureKind ClassifyFailure(const Status& s);

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

/// A compute-node client of a Farview node, implementing the paper's
/// programmatic interface (Section 4.2):
///
///   openConnection / allocTableMem / freeTableMem / tableRead /
///   tableWrite / farviewRequest / fvSelect ...
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

  /// Establishes the connection; a dynamic region is assigned.
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
  /// the table in the local catalog. Requires name, schema and num_rows.
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

  /// When `FarviewConfig::retry.enabled`, both async verbs run under the
  /// reliability layer (DESIGN.md §7): each attempt carries a completion
  /// timeout; `Unavailable`/`DeadlineExceeded`/`ResourceExhausted`
  /// attempts retry with capped exponential backoff up to `max_attempts`
  /// (a shed's retry-after hint floors the backoff, DESIGN.md §15); and
  /// when the region is faulted the call degrades to a raw read
  /// (`FvResult::degraded_raw`).
  /// With the policy disabled (the default) they issue exactly one attempt,
  /// event-identical to the pre-reliability client.
  void FarviewRequestAsync(const FvRequest& request,
                           std::function<void(Result<FvResult>)> done);
  void TableReadAsync(const FTable& table,
                      std::function<void(Result<FvResult>)> done);
  void LoadPipelineAsync(Pipeline pipeline, std::function<void(Status)> done);

  /// The entry point both async verbs share: `Verb::kRead` reads
  /// [`request.vaddr`, `+ request.len`) raw, `Verb::kFarview` runs the
  /// loaded pipeline over it.
  void SubmitAsync(Verb verb, const FvRequest& request,
                   std::function<void(Result<FvResult>)> done);

  /// Async form of `TableWrite`. The rows are copied into memory before
  /// the call returns; the completion carries the write's ack time.
  void TableWriteAsync(const FTable& table, const Table& rows,
                       std::function<void(Result<SimTime>)> done);

  /// Builds the standard request for a full scan of `table`.
  static FvRequest ScanRequest(const FTable& table, bool vectorized = false);

  /// Installs a health gate consulted before every data-path attempt
  /// (DESIGN.md §12). When the gate returns false the node is known-dead
  /// (its circuit breaker is Open) and the call settles *immediately* with
  /// `Unavailable` — no completion timeout is armed and no backoff schedule
  /// is burned, so a replicated client can fail over at once. The gate must
  /// be deterministic and must not schedule events. Unset (the default),
  /// behavior is byte-identical to the ungated client.
  void SetHealthGate(std::function<bool()> gate) { gate_ = std::move(gate); }

 private:
  /// State of one call under the retry policy (defined in client.cc).
  struct ReliableCall;

  /// Posts one attempt of `verb` to the node.
  void Post(Verb verb, const FvRequest& request,
            std::function<void(Result<FvResult>)> done);
  /// Entry: allocates the call state and issues the first attempt.
  void IssueWithRetries(Verb verb, const FvRequest& request,
                        std::function<void(Result<FvResult>)> done);
  /// Issues one attempt plus its completion-timeout event.
  void StartReliableAttempt(std::shared_ptr<ReliableCall> call);
  /// A retryable failure (or timeout): backoff-retry, degrade, or give up.
  void HandleAttemptFailure(std::shared_ptr<ReliableCall> call,
                            const Status& error);
  /// Degraded raw-read path for a call whose region is faulted.
  void FallbackRawRead(std::shared_ptr<ReliableCall> call);
  /// Settles the call and invokes the user callback exactly once.
  void FinishReliable(std::shared_ptr<ReliableCall> call,
                      Result<FvResult> res);
  /// True when the health gate says the node is known-dead; counts the
  /// fast-fail on the node's stats.
  bool GateBlocked();
  /// The status fast-failed calls settle with.
  static Status GateError();
  /// Body of the convenience queries: load `pipeline`, then scan `table`
  /// through it.
  Result<FvResult> LoadAndScan(Result<Pipeline> pipeline, const FTable& table,
                               bool vectorized = false);

  FarviewNode* node_;
  int client_id_;
  QPair* qp_ = nullptr;
  Catalog catalog_;
  /// Optional known-dead gate (empty = always allow).
  std::function<bool()> gate_;
};

}  // namespace farview

#endif  // FARVIEW_FV_CLIENT_H_
