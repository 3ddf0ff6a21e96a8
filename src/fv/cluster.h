#ifndef FARVIEW_FV_CLUSTER_H_
#define FARVIEW_FV_CLUSTER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "fv/farview_node.h"
#include "fv/replication.h"
#include "operators/pipeline.h"
#include "sim/engine.h"

namespace farview {

/// Fan-in of parallel hops — a scatter's or a gather's fragments, a
/// pipeline load's replicas, a mirrored write's mirrors: counts the
/// outstanding hops down, keeps the first error and the latest ack.
struct FanIn {
  size_t pending = 0;
  Status error;
  SimTime last_ack = 0;

  /// Folds one hop's outcome; true when it was the last outstanding hop.
  bool Arrive(const Status& hop, SimTime ack = 0) {
    if (!hop.ok()) {
      if (error.ok()) error = hop;
    } else {
      last_ack = std::max(last_ack, ack);
    }
    return --pending == 0;
  }
};

/// One pipeline load over the replicas of a table's shards: settles
/// `done` with the first error once every hop arrived. It starts with one
/// count that guards the issuing loop, dropped by a final
/// `Arrive(Status::OK())`, so hops that fail synchronously cannot settle
/// the load before every hop is out.
struct PipelineLoad {
  explicit PipelineLoad(std::function<void(Status)> on_done)
      : done(std::move(on_done)) {
    fan.pending = 1;
  }

  /// Folds one hop's outcome and settles `done` after the last.
  void Arrive(const Status& hop) {
    if (fan.Arrive(hop)) done(fan.error);
  }

  FanIn fan;
  std::function<void(Status)> done;
};

/// Configuration of a replicated Farview pool (DESIGN.md §12).
struct ClusterConfig {
  /// Template for every replica node (memory, network, regions) and the
  /// retry policy the cluster's routed calls run against each replica.
  /// The fault schedule inside `node.faults` / `node.net.faults` is
  /// applied to `faulted_replica` only — the surviving replicas run
  /// fault-free, which is what makes failover observable.
  FarviewConfig node;

  /// Pool size. 1 disables replication entirely: no mirroring hop, no
  /// epochs to miss, byte-identical routing (the identity tests pin this).
  int num_replicas = 1;

  /// The replica that receives the fault schedule (ignored when the
  /// schedule is disabled).
  int faulted_replica = 0;

  /// Seed from which per-replica circuit-breaker jitter streams are
  /// derived (mixed with replica index and client id).
  uint64_t seed = 0xFA11;

  /// Crash-recovery resync stream parameters.
  ReplicationConfig replication;

  /// Circuit-breaker policy of every connection's per-replica breakers.
  CircuitBreakerPolicy breaker;
};

/// A replicated Farview pool: N identically configured `FarviewNode`s on
/// one simulation engine, the replication protocol that keeps them
/// convergent across crashes, and every client connection to them
/// (DESIGN.md §12). The cluster is the only code that talks to its
/// replicas: a client (`ShardedClient`) opens one `Connection`, then calls
/// `Route`, `LoadPipeline`, `Write`, `Alloc` and `Free` through it, and
/// never sees a queue pair, a breaker or the log.
///
/// Every state-changing operation (alloc/free/write) appends one
/// epoch-numbered entry to the log before it is applied. Replicas that are
/// in rotation apply the entry immediately; replicas that are down or
/// resyncing miss it and the miss is recorded. Epoch fencing follows: a
/// replica is routed calls only while `InSync` — a restarted node can never
/// serve pre-crash bytes. An operation that fails with a request error, or
/// that no replica takes, aborts its epoch: the numbering stays monotone,
/// but rejoin replay skips an aborted control entry.
///
/// A crash opens every connection's breaker on the replica. Crash recovery
/// runs when a crashed replica restarts: missed control entries
/// (alloc/free) are replayed in log order, missed write ranges are copied
/// from a surviving in-sync replica by a rate-limited `ResyncScheduler`
/// stream, and every connection whose pipeline the replica missed reloads
/// it; passes repeat until no new entry was missed, then the replica
/// rejoins rotation. With `num_replicas == 1` none of this machinery ever
/// schedules an event.
class FarviewCluster {
 public:
  /// Rotation state of one replica.
  enum class ReplicaState {
    kInSync,     ///< applied every epoch; serves routed reads
    kDown,       ///< crashed; misses every entry
    kResyncing,  ///< restarted but fenced until recovery completes
  };

  /// One client's connection to every replica: its queue pair and
  /// `CircuitBreaker` on each, the round-robin cursor, and the pipeline
  /// recipe with the version each replica has loaded. Opaque outside the
  /// cluster; the client holds it from `Connect` to `Disconnect`, and the
  /// calls in flight on it hold it past that.
  struct Connection;
  using ConnectionPtr = std::shared_ptr<Connection>;

  FarviewCluster(sim::Engine* engine, const ClusterConfig& config);

  FarviewCluster(const FarviewCluster&) = delete;
  FarviewCluster& operator=(const FarviewCluster&) = delete;

  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  FarviewNode& node(int r) { return *replicas_[static_cast<size_t>(r)].node; }

  /// True when `r` has applied every epoch and may serve routed reads; the
  /// replicas that apply a new entry live are exactly these.
  bool InSync(int r) const {
    return replicas_[static_cast<size_t>(r)].state == ReplicaState::kInSync;
  }

  /// Current cluster epoch == number of log entries appended.
  uint64_t epoch() const { return static_cast<uint64_t>(log_.size()); }

  /// Instant replica `r` last (re-)entered rotation; 0 = in rotation since
  /// construction. Benches report time-to-rejoin from this.
  SimTime in_sync_at(int r) const {
    return replicas_[static_cast<size_t>(r)].in_sync_at;
  }

  // --- Connections ----------------------------------------------------------

  /// Opens `client_id`'s connection: a breaker and a queue pair on each
  /// replica, in replica order. Fails, leaving nothing open, when a replica
  /// refuses the queue pair (e.g. it is down).
  Result<ConnectionPtr> Connect(int client_id);

  /// Disconnects `conn`'s queue pairs. Each call still in flight on it
  /// settles once with `FailedPrecondition` at its next event and posts no
  /// further hop; a write in flight still settles its epoch, so the
  /// replicas converge.
  void Disconnect(Connection& conn);

  /// `conn`'s circuit breaker on replica `r`, for tests and introspection.
  CircuitBreaker& breaker(Connection& conn, int r);

  // --- Routed calls (DESIGN.md §7, §12) ------------------------------------

  /// Routes one read (`Verb::kRead`) or operator call over `request`'s
  /// range. Each replica the call tries is a hop: the next in-sync replica
  /// in round-robin order whose breaker admits it and, for an operator
  /// call, that holds the current pipeline. Under the node config's
  /// `RetryPolicy` a hop gets up to `max_attempts` attempts, each with a
  /// completion timeout and capped backoff between them, degrades to a raw
  /// read when the replica's region is faulted, and gives up early once
  /// the breaker is Open. A hop that ends in a health failure records on
  /// the breaker and fails over; any other error is the request's own and
  /// is reported as is. When no replica is left the call settles at once
  /// (fast-fail). `done` is the call's own completion, never wrapped.
  void Route(const ConnectionPtr& conn, Verb verb, const FvRequest& request,
             std::function<void(Result<FvResult>)> done);

  /// Loads the factory's pipeline on every in-sync replica through `conn`,
  /// one hop of `load` each (`Unavailable` when no replica is in sync), and
  /// keeps the factory as the connection's current version: a replica that
  /// missed it reloads it on rejoin, and one whose reload fails serves
  /// reads only.
  void LoadPipeline(const ConnectionPtr& conn, PipelineFactory factory,
                    const std::shared_ptr<PipelineLoad>& load);

  // --- Logged operations: each runs one epoch end to end -----------------

  /// Allocates `bytes` for `conn`'s client on every in-sync replica, which
  /// must agree on the address returned; the others miss the epoch. Aborts
  /// it on the first error (a control op's error is the request's, never a
  /// replica's health), or with `Unavailable` when no replica is in sync.
  Result<uint64_t> Alloc(const Connection& conn, uint64_t bytes);

  /// Frees `conn`'s client's allocation at `vaddr`, under `Alloc`'s rules.
  Status Free(const Connection& conn, uint64_t vaddr);

  /// Mirrored write of `len` bytes at `vaddr` through `conn`. The lowest
  /// in-sync replica is the primary, the next one replaces it after a
  /// health failure, and the mirrors follow in parallel after its ack;
  /// `done` gets the slowest ack. Aborts the epoch when no replica is in
  /// sync, a primary fails with a request error, or every primary failed.
  /// `data` must stay valid until `done`.
  void Write(const ConnectionPtr& conn, uint64_t vaddr, const uint8_t* data,
             uint64_t len, std::function<void(Result<SimTime>)> done);

 private:
  /// Tests drive the log directly through it (cluster_test.cc).
  friend class FarviewClusterTestPeer;

  /// One epoch-numbered replication-log entry.
  struct LogEntry {
    enum class Kind { kAlloc, kFree, kWrite };
    Kind kind = Kind::kWrite;
    int client_id = 0;
    /// For kAlloc this is the address the in-sync replicas agreed on
    /// (replay checks the recovering allocator reproduces it).
    uint64_t vaddr = 0;
    uint64_t bytes = 0;
    /// Replay skips an aborted control entry; an aborted write's range is
    /// copied only when a resync source exists (`RunRejoinPass`).
    bool aborted = false;
  };

  /// Per-replica recovery bookkeeping.
  struct Replica {
    std::unique_ptr<FarviewNode> node;
    std::unique_ptr<ResyncScheduler> resync;
    ReplicaState state = ReplicaState::kInSync;
    /// Epochs missed while out of rotation, in append order.
    std::vector<uint64_t> missed;
    /// Write epochs consumed from `missed` whose bytes are still in flight
    /// on the resync stream. An aborted stream re-merges them into `missed`
    /// so a repeated crash can never rejoin holding pre-crash bytes.
    std::vector<uint64_t> resyncing;
    /// Invalidation token for in-flight recovery steps: bumped on every
    /// crash/restart so stale resync/reload completions are dropped.
    uint64_t rejoin_gen = 0;
    /// Rejoin pipeline reloads still in flight, plus the issuing guard.
    int pending_reloads = 0;
    /// Fenced with missed writes but no in-sync resync source; recovery
    /// resumes when some replica rejoins (`StartParkedRejoins`).
    bool parked = false;
    SimTime restarted_at = 0;
    SimTime in_sync_at = 0;
  };

  /// One routed call in flight (`Route`).
  struct RoutedCall;
  /// One mirrored write in flight (`Write`).
  struct MirroredWrite;

  /// Starts the call's next hop on a picked replica, or fast-fails it.
  void IssueRouted(std::shared_ptr<RoutedCall> call);
  /// Posts one attempt of the current hop and, under the retry policy,
  /// then arms its completion timeout.
  void StartAttempt(std::shared_ptr<RoutedCall> call);
  /// A health failure or timeout of the live attempt: degrade to a raw
  /// read, back off and retry, or end the hop.
  void AttemptFailed(std::shared_ptr<RoutedCall> call, const Status& error);
  /// Ends the current hop: records its outcome on the replica's breaker,
  /// then settles the call or fails it over.
  void FinishHop(std::shared_ptr<RoutedCall> call, Result<FvResult> res);
  /// Next eligible replica for `conn` (in-sync, breaker admits, not yet
  /// tried), or -1. Operator calls additionally require the replica's
  /// loaded pipeline to be current. `probe` reports whether the admission
  /// consumed a Half-Open probe slot; the hop's outcome must be recorded on
  /// the breaker with that flag.
  int PickReplica(Connection& conn, uint64_t tried_mask, Verb verb,
                  bool* probe);

  /// Appends an entry; returns its epoch (1-based, monotone).
  uint64_t AppendEntry(const LogEntry& entry);

  /// The body of `Alloc` and `Free` (`what` names the op in the error when
  /// no replica is in sync); returns the entry as logged.
  Result<LogEntry> RunControlEntry(const LogEntry& entry, const char* what);

  /// Applies a control entry to `node`'s MMU, live and on rejoin replay.
  /// An alloc not yet `agreed` (its first live replica) records the address
  /// it got; any other must land there — divergent replica allocators are
  /// an `Internal` error, never a silent fork.
  static Status ApplyControlEntry(FarviewNode& node, LogEntry& entry,
                                  bool agreed);

  /// Issues the primary hop of `write`, advancing past dead primaries.
  void TryPrimaryWrite(std::shared_ptr<MirroredWrite> write);

  /// Replica `r` missed `epoch`. An in-sync replica (a write hop failed on
  /// it) is fenced at once and starts recovery.
  void MarkMissed(int r, uint64_t epoch);

  /// Marks an entry aborted and restarts recoveries parked for lack of a
  /// resync source (an aborted write never needs one).
  void AbortEntry(uint64_t epoch);

  /// Crash/restart observer of replica `r` (`FarviewNode::AddDownObserver`).
  void OnDownChange(int r, bool down);

  /// One recovery pass: replay missed control entries, then stream missed
  /// write ranges from a survivor. Parks (leaves the replica fenced) when
  /// live write ranges exist but no in-sync source does.
  void RunRejoinPass(int r);

  /// After a pass that drained the missed list: reload every open
  /// connection's pipeline that `r` is behind on, then `ReloadDone`.
  void ReloadPipelines(int r);
  /// One reload of `r`'s rejoin (of generation `gen`) settled; after the
  /// last, loop (new entries were missed meanwhile) or rejoin rotation.
  void ReloadDone(int r, uint64_t gen);
  void CompleteRejoin(int r);

  /// Re-merges epochs whose resync stream was aborted back into `missed`
  /// (they are older than anything missed since, so they go in front).
  void ReclaimResyncing(Replica& replica);

  /// Lowest-index in-sync replica other than `r`, or -1.
  int PickResyncSource(int r) const;

  /// Restarts recovery of replicas parked for lack of a resync source.
  void StartParkedRejoins();

  sim::Engine* engine_;
  ClusterConfig config_;
  std::vector<Replica> replicas_;
  std::vector<LogEntry> log_;
  /// Open connections, in the order they were opened: the order a crash
  /// opens their breakers and a rejoin reloads their pipelines.
  std::vector<ConnectionPtr> connections_;
};

}  // namespace farview

#endif  // FARVIEW_FV_CLUSTER_H_
