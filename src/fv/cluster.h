#ifndef FARVIEW_FV_CLUSTER_H_
#define FARVIEW_FV_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "fv/farview_node.h"
#include "fv/replication.h"
#include "sim/engine.h"

namespace farview {

/// Configuration of a replicated Farview pool (DESIGN.md §12).
struct ClusterConfig {
  /// Template for every replica node (memory, network, regions) and the
  /// retry policy the pool client runs against each replica. The fault
  /// schedule inside `node.faults` / `node.net.faults` is applied to
  /// `faulted_replica` only — the surviving replicas run fault-free, which
  /// is what makes failover observable.
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

  /// Per-replica circuit-breaker policy used by every pool client.
  CircuitBreakerPolicy breaker;
};

/// A replicated Farview pool: N identically configured `FarviewNode`s on
/// one simulation engine, plus the replication protocol that keeps them
/// convergent across crashes (DESIGN.md §12). The cluster is that
/// protocol's one owner: the pool client (`ShardedClient`) calls `Alloc`,
/// `Free` and `Write` and routes reads, and never sees the log.
///
/// Every state-changing operation (alloc/free/write) appends one
/// epoch-numbered entry to the log before it is applied. Replicas that are
/// in rotation apply the entry immediately; replicas that are down or
/// resyncing miss it and the miss is recorded. Epoch fencing follows: a
/// replica is routed reads only while `InSync` — a restarted node can never
/// serve pre-crash bytes. An operation that fails with a request error, or
/// that no replica takes, aborts its epoch: the numbering stays monotone,
/// but rejoin replay skips an aborted control entry.
///
/// Crash recovery runs when a crashed replica restarts: missed control
/// entries (alloc/free) are replayed in log order, missed write
/// ranges are copied from a surviving in-sync replica by a rate-limited
/// `ResyncScheduler` stream, and registered rejoin hooks (pipeline reloads)
/// run; passes repeat until no new entry was missed, then the replica
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

  /// Called when `replica` finished data resync; the hook performs its own
  /// recovery work (pipeline reload) and then must invoke the completion
  /// callback exactly once.
  using RejoinHook = std::function<void(int replica, std::function<void()>)>;

  FarviewCluster(sim::Engine* engine, const ClusterConfig& config);

  FarviewCluster(const FarviewCluster&) = delete;
  FarviewCluster& operator=(const FarviewCluster&) = delete;

  sim::Engine* engine() { return engine_; }
  const ClusterConfig& config() const { return config_; }
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

  // --- Logged operations: each runs one epoch end to end -----------------

  /// Allocates `bytes` for `client_id` on every in-sync replica, which must
  /// agree on the address returned; the others miss the epoch. Aborts it
  /// on the first error (a control op's error is the request's, never a
  /// replica's health), or with `Unavailable` when no replica is in sync.
  Result<uint64_t> Alloc(int client_id, uint64_t bytes);

  /// Frees `client_id`'s allocation at `vaddr`, under `Alloc`'s rules.
  Status Free(int client_id, uint64_t vaddr);

  /// Mirrored write of `len` bytes at `vaddr`, posted through the caller's
  /// queue pair `qp_ids[r]` on replica r (ids, never `QPair*`: `Disconnect`
  /// frees the queue pairs). The lowest in-sync replica is the primary, the
  /// next one replaces it after a health failure, and the mirrors follow in
  /// parallel after its ack; `done` gets the slowest ack. Aborts the epoch
  /// when no replica is in sync, a primary fails with a request error, or
  /// every primary failed. Once the caller's `alive` flag is false no hop
  /// is posted and `done` gets `FailedPrecondition`. `data` must stay valid
  /// until `done`.
  void Write(int client_id, const std::vector<int>& qp_ids,
             std::shared_ptr<bool> alive, uint64_t vaddr, const uint8_t* data,
             uint64_t len, std::function<void(Result<SimTime>)> done);

  /// Registers a rejoin hook; the returned id unregisters it.
  int AddRejoinHook(RejoinHook hook);
  void RemoveRejoinHook(int id);

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
    /// crash/restart so stale resync/hook completions are dropped.
    uint64_t rejoin_gen = 0;
    int pending_hooks = 0;
    /// Fenced with missed writes but no in-sync resync source; recovery
    /// resumes when some replica rejoins (`StartParkedRejoins`).
    bool parked = false;
    SimTime restarted_at = 0;
    SimTime in_sync_at = 0;
  };

  /// One mirrored write in flight (`Write`).
  struct MirroredWrite;

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

  /// After a pass that drained the missed list: run rejoin hooks, then
  /// either loop (new entries were missed meanwhile) or rejoin rotation.
  void RunRejoinHooks(int r);
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
  std::map<int, RejoinHook> rejoin_hooks_;
  int next_hook_id_ = 1;
};

}  // namespace farview

#endif  // FARVIEW_FV_CLUSTER_H_
