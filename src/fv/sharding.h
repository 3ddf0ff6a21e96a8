#ifndef FARVIEW_FV_SHARDING_H_
#define FARVIEW_FV_SHARDING_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fv/client.h"
#include "fv/cluster.h"
#include "operators/partial_merge.h"
#include "sim/engine.h"

namespace farview {

/// Configuration of a sharded Farview pool (DESIGN.md §13): S independent
/// replicated clusters striping one virtual address space. Sharding and
/// replication compose — each shard is a full `FarviewCluster`, so a
/// `ShardedConfig` with S shards and R replicas stands up S×R nodes.
struct ShardedConfig {
  /// Template for every shard (replica count, node config, breaker/resync
  /// policies). The fault schedule inside it is applied per `faulted_shard`.
  ClusterConfig cluster;

  /// Pool width. 1 disables sharding entirely: one fragment per table, no
  /// address translation, no scatter/gather — byte-identical routing over
  /// the single cluster (the identity tests pin this).
  int num_shards = 1;

  /// Virtual-address stripe owned by each shard: shard s owns global
  /// addresses [s * shard_stride, (s+1) * shard_stride). Every shard's
  /// sub-allocator hands out local addresses below the stride; a fragment
  /// that would cross its stripe end is rejected with `OutOfRange`, never
  /// silently split. Must be a multiple of the 2 MiB page. The default (16
  /// TiB) never rejects in practice; tests shrink it to force the edge.
  uint64_t shard_stride = 1ull << 44;

  /// Shard that keeps `cluster`'s fault schedule: the other shards run it
  /// with fault injection disabled, which is what makes a hot/faulty shard
  /// observable. -1 applies the schedule to every shard (whole-pool
  /// outages). Ignored while the schedule is disabled.
  int faulted_shard = 0;
};

/// A sharded Farview pool: `num_shards` independent `FarviewCluster`s on
/// one simulation engine, each owning a fixed stripe of the virtual address
/// space (DESIGN.md §13).
///
/// The pool is pure address arithmetic plus cluster ownership — allocation
/// policy, fragment maps and all routing live in `ShardedClient`, so the
/// address-space contract stays in one place:
///
///   global vaddr = shard * shard_stride + shard-local vaddr
///
/// Each shard's MMU allocates local addresses independently (the
/// "distributed allocator": per-shard sub-allocators behind one
/// client-facing `AllocTableMem`); the stripe offset makes them globally
/// unique without any cross-shard coordination.
class ShardedPool {
 public:
  ShardedPool(sim::Engine* engine, const ShardedConfig& config);

  ShardedPool(const ShardedPool&) = delete;
  ShardedPool& operator=(const ShardedPool&) = delete;

  sim::Engine* engine() { return engine_; }
  const ShardedConfig& config() const { return config_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  FarviewCluster& shard(int s) { return *shards_[static_cast<size_t>(s)]; }

  /// Shard owning `global_vaddr` (may be past the pool for bogus input;
  /// callers validate).
  int ShardOf(uint64_t global_vaddr) const {
    return static_cast<int>(global_vaddr / config_.shard_stride);
  }
  uint64_t LocalVaddr(uint64_t global_vaddr) const {
    return global_vaddr % config_.shard_stride;
  }
  uint64_t GlobalVaddr(int shard, uint64_t local_vaddr) const {
    return static_cast<uint64_t>(shard) * config_.shard_stride + local_vaddr;
  }

 private:
  sim::Engine* engine_;
  ShardedConfig config_;
  std::vector<std::unique_ptr<FarviewCluster>> shards_;
};

/// Builds a fresh `Pipeline` on demand. `Pipeline` is move-only, so a
/// replicated load keeps the recipe instead of the object: every replica —
/// including one rejoining after a crash — gets its own instance from the
/// same factory. Must be deterministic (same pipeline every call).
using PipelineFactory = std::function<Result<Pipeline>()>;

/// The client of a replicated and/or sharded pool: the paper's programmatic
/// interface (Section 4.2) over S shards × R replicas (DESIGN.md §12–§13).
/// An unsharded replicated pool is `num_shards = 1`; one shard of one
/// replica is event-identical to a bare node (fault_identity_test).
///
/// Per shard, the client routes like a replicated pool's client:
///
///  - one `FarviewClient` per replica carries the retry policy (DESIGN.md
///    §7); a per-replica `CircuitBreaker` gates it;
///  - reads and operator calls go to the next in-sync replica in
///    round-robin order whose breaker admits them; a health failure
///    (`Unavailable`, `DeadlineExceeded`) records on the breaker and fails
///    over; a shed (`ResourceExhausted`) rotates without penalty; when no
///    replica is left the call settles at once (fast-fail);
///  - writes are mirrored (primary first, then the other in-rotation
///    replicas) and alloc/free/share are applied on every in-rotation
///    replica, each logged in the shard's replication log so crashed
///    replicas converge on rejoin;
///  - a loaded pipeline is versioned per replica and reloaded on rejoin; a
///    replica behind the current version serves reads only.
///
/// Across shards, the client:
///
///  - range-partitions each striped table into per-shard row fragments and
///    keeps the client-side shard map (global vaddr -> fragments);
///  - scatters writes and gathers reads fragment-by-fragment;
///  - routes operators to the data: a pipeline is loaded on the shards that
///    hold the table's fragments, and each fragment is scanned through it
///    shard-local with a client-side gather (fragment order preserves row
///    order, so the gathered bytes equal the single-node result); GROUP BY
///    runs as shard-local partials merged by `PartialMerger`; a join whose
///    build side lives on other shards repartitions — the build fragments
///    are gathered to the client and broadcast to every probe shard's
///    pipeline.
///
/// Synchronous methods drive the engine like `FarviewClient`'s (only valid
/// when no other traffic must stay pending); the async forms require the
/// caller to keep referenced row data alive, and the table allocated, until
/// the completion fires (mirror hops read both after the primary's ack).
class ShardedClient {
 public:
  ShardedClient(ShardedPool* pool, int client_id);
  ~ShardedClient();

  ShardedClient(const ShardedClient&) = delete;
  ShardedClient& operator=(const ShardedClient&) = delete;

  /// Connects to every replica of every shard. Call before the fault
  /// schedule begins (a connection cannot be opened to a crashed replica);
  /// on failure nothing stays connected.
  Status OpenConnection();
  void CloseConnection();

  bool connected() const { return !shards_.empty(); }
  int client_id() const { return client_id_; }
  ShardedPool* pool() { return pool_; }

  /// Circuit breaker guarding `replica` of `shard`, for tests and
  /// introspection.
  CircuitBreaker& breaker(int shard, int replica) {
    return *StateOf(shard).breakers[static_cast<size_t>(replica)];
  }

  // --- Memory management (scattered; per-shard sub-allocators) -------------

  /// Allocates the table across the pool and registers it in the shard map.
  /// `home_shard == -1` (the default) range-partitions the rows over all
  /// shards; a non-negative value places the whole table on that shard
  /// (hash placement for tables too small to stripe — the benches route
  /// key-partitioned tables this way). Fails with `OutOfRange` — rolling
  /// back every fragment already allocated — if any fragment would cross
  /// its shard's address stripe. Within a shard the allocation is logged
  /// and must land at the same address on every in-rotation replica.
  Status AllocTableMem(FTable* table, int home_shard = -1);

  /// Frees every fragment and drops the shard-map entry. Fails with
  /// `FailedPrecondition` when the handle's vaddr was remapped (freed and
  /// reallocated to a different table) — a stale handle must never free
  /// another table's memory.
  Status FreeTableMem(FTable* table);

  /// Shares every fragment; returns a catalog entry carrying the global
  /// vaddr. Same remap guard as `FreeTableMem`.
  Result<TableEntry> ShareTable(const FTable& table);

  // --- Data path -----------------------------------------------------------

  /// Scattered, mirrored write: each shard receives exactly its fragment's
  /// rows, in parallel; completes at the last fragment's last mirror ack.
  /// Replicas out of rotation (or failing mid-write) miss the epoch and
  /// converge via resync.
  Result<SimTime> TableWrite(const FTable& table, const Table& rows);
  void TableWriteAsync(const FTable& table, const Table& rows,
                       std::function<void(Result<SimTime>)> done);

  /// Gathered, routed read: all fragments in parallel, concatenated in row
  /// order; completes at the last fragment's delivery.
  Result<FvResult> TableRead(const FTable& table);
  void TableReadAsync(const FTable& table,
                      std::function<void(Result<FvResult>)> done);

  // --- Operator offload (routed to the data) -------------------------------

  /// Loads the factory's pipeline on every in-rotation replica of the
  /// shards holding `table`'s fragments, and keeps the factory for rejoin
  /// reloads.
  Status LoadPipeline(const FTable& table, PipelineFactory factory);
  void LoadPipelineAsync(const FTable& table, PipelineFactory factory,
                         std::function<void(Status)> done);

  /// Scans every fragment of `table` through its shard's loaded pipeline
  /// (routed like reads, but only to replicas holding the current
  /// pipeline) and gathers the results in row order.
  Result<FvResult> Offload(const FTable& table, bool vectorized = false);
  void OffloadAsync(const FTable& table, bool vectorized,
                    std::function<void(Result<FvResult>)> done);

  /// Shard-local selection(+projection) with client-side gather. Streaming
  /// operators preserve row order within a fragment and fragments are
  /// gathered in row-range order, so the result bytes equal the single-node
  /// offload's.
  Result<FvResult> FvSelect(const FTable& table,
                            std::vector<Predicate> predicates,
                            std::vector<int> projection = {},
                            bool vectorized = false);

  /// Shard-local partial GROUP BY, merged at the client: AVG is rewritten
  /// into SUM+COUNT for the shard plans (`PartialAggSpecs`) and finalized
  /// by the merge; `FvResult::data` holds the final layout (key columns,
  /// then the requested aggregates), groups in first-gathered order.
  Result<FvResult> FvGroupBy(const FTable& table,
                             std::vector<int> key_columns,
                             std::vector<AggSpec> aggs,
                             const GroupingConfig& config = {});

  /// Sharded hash join with repartitioning: gathers the (small) build-side
  /// table from whichever shards hold it, then broadcasts it inside a
  /// `HashJoinSmall` pipeline to every shard holding probe rows; per-shard
  /// probe streams join locally and the results gather in probe-row order,
  /// matching the single-node `FvJoinSmall` bytes.
  Result<FvResult> FvJoin(const FTable& probe, int probe_key,
                          const FTable& build, int build_key);

 private:
  /// One per-shard fragment of a striped table.
  struct Fragment {
    int shard = 0;
    FTable local;            ///< handle on the owning shard (local vaddr)
    uint64_t row_begin = 0;  ///< first global row this fragment holds
  };

  /// Shard-map entry: the fragments backing one client-visible table.
  struct ShardedTable {
    std::string name;
    uint64_t num_rows = 0;
    std::vector<Fragment> fragments;
  };

  /// Routing state of one shard (DESIGN.md §12).
  struct Shard {
    std::vector<std::unique_ptr<FarviewClient>> replicas;
    std::vector<std::unique_ptr<CircuitBreaker>> breakers;
    /// Deterministic round-robin cursor over replicas.
    int rr_cursor = 0;
    /// Current pipeline recipe (empty = none loaded) and its version, vs
    /// the version each replica has loaded — rejoin reloads exactly when
    /// behind.
    PipelineFactory factory;
    uint64_t version = 0;
    std::vector<uint64_t> loaded_version;
    int rejoin_hook = 0;

    FarviewClient& Replica(int r) { return *replicas[static_cast<size_t>(r)]; }
  };

  /// One routed read / operator call, re-issued across a shard's replicas
  /// on failover.
  struct RoutedCall;
  /// One mirrored write across a shard's primary and mirror hops.
  struct MirroredWrite;
  /// Fan-in of one gathered read or offload.
  struct Gather;

  /// Routing state of shard `s`.
  Shard& StateOf(int s) { return shards_[static_cast<size_t>(s)]; }

  /// Shard-map lookup with the remap guard (vaddr, name and row count must
  /// all match the registered table).
  Result<const ShardedTable*> Lookup(const FTable& table) const;

  /// Appends `entry` to `shard`'s replication log and applies it through
  /// `apply` on every in-rotation replica; the others miss it. Aborts the
  /// epoch on the first error, or when no replica applied it (`what` names
  /// the operation in that error).
  Status ApplyLogged(
      int shard, FarviewCluster::LogEntry entry, const char* what,
      const std::function<Status(FarviewClient&, uint64_t epoch)>& apply);
  Status AllocOnShard(int shard, FTable* local);
  Status FreeOnShard(int shard, const FTable& local);

  /// Mirrored write of `rows` into `local` on one shard.
  void MirrorWrite(int shard, const FTable& local, const Table& rows,
                   std::function<void(Result<SimTime>)> done);
  /// Issues the primary write of `mw`, advancing past dead primaries.
  void TryPrimaryWrite(std::shared_ptr<MirroredWrite> mw);

  /// Routes one read / operator call on `shard`.
  void Route(int shard, Verb verb, const FvRequest& request,
             std::function<void(Result<FvResult>)> done);
  /// Routes (or re-routes after failover) one call.
  void IssueRouted(std::shared_ptr<RoutedCall> call);
  /// Next eligible replica of `shard` (in-sync, breaker admits, not yet
  /// tried), or -1. Operator calls additionally require the replica's
  /// loaded pipeline to be current. `probe` reports whether the admission
  /// consumed a Half-Open probe slot; the hop's outcome must be recorded on
  /// the breaker with that flag.
  int PickReplica(int shard, uint64_t tried_mask, Verb verb, bool* probe);

  /// Routes `verb` to every fragment of `table` and gathers the results in
  /// row order; `merger`, when set, folds the fragment payloads instead of
  /// concatenating them (GROUP BY).
  void GatherAsync(const FTable& table, Verb verb, bool vectorized,
                   PartialMerger* merger,
                   std::function<void(Result<FvResult>)> done);

  /// Load plus offload in one drive of the engine: the body of the `Fv*`
  /// queries.
  Result<FvResult> LoadAndOffload(const FTable& table, PipelineFactory factory,
                                  bool vectorized, PartialMerger* merger);

  /// Rejoin hook: reload the current pipeline on a recovered replica.
  void OnRejoin(int shard, int replica, std::function<void()> done);

  /// Records a fragment op on the owning shard's primary-node counters.
  NodeStats& ShardStats(int shard);

  ShardedPool* pool_;
  int client_id_;
  /// Per-shard routing state; empty while disconnected.
  std::vector<Shard> shards_;
  /// Client-side shard map: global vaddr of the table -> its fragments.
  std::map<uint64_t, ShardedTable> tables_;
  /// Liveness flag of the current connection, shared with the crash
  /// observers and rejoin hooks registered on the (longer-lived) pool;
  /// `CloseConnection` clears it.
  std::shared_ptr<bool> alive_;
};

}  // namespace farview

#endif  // FARVIEW_FV_SHARDING_H_
