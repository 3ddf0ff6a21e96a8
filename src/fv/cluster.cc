#include "fv/cluster.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/bytes.h"
#include "common/logging.h"

namespace farview {

struct FarviewCluster::Connection {
  explicit Connection(int id) : client_id(id) {}

  int QpId(int r) const { return qp_ids[static_cast<size_t>(r)]; }
  CircuitBreaker& Breaker(int r) { return *breakers[static_cast<size_t>(r)]; }

  /// True when replica `r` is behind the current pipeline (it missed a
  /// load, or its reload failed): it then serves reads only.
  bool Stale(int r) const {
    return factory != nullptr &&
           loaded_version[static_cast<size_t>(r)] != version;
  }

  const int client_id;
  bool open = true;  ///< until `Disconnect`
  /// Queue pair ids by replica, never `QPair*`: `Disconnect` frees them.
  std::vector<int> qp_ids;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers;
  /// Deterministic round-robin cursor over replicas.
  int rr_cursor = 0;
  /// Current pipeline recipe (empty = none loaded) and its version, vs the
  /// version each replica has loaded.
  PipelineFactory factory;
  uint64_t version = 0;
  std::vector<uint64_t> loaded_version;
};

FarviewCluster::FarviewCluster(sim::Engine* engine,
                               const ClusterConfig& config)
    : engine_(engine), config_(config) {
  FV_CHECK(engine_ != nullptr);
  FV_CHECK(config_.num_replicas >= 1);
  // Routed calls track tried replicas in a 64-bit mask.
  FV_CHECK(config_.num_replicas <= 64);
  FV_CHECK(config_.faulted_replica >= 0 &&
           config_.faulted_replica < config_.num_replicas);
  for (int r = 0; r < config_.num_replicas; ++r) {
    FarviewConfig node_config = config_.node;
    if (r != config_.faulted_replica) {
      // Only the designated replica runs the fault schedule; survivors are
      // clean so failover has somewhere to go.
      node_config.faults = FvFaultConfig{};
      node_config.net.faults = NetFaultConfig{};
    }
    Replica replica;
    replica.node = std::make_unique<FarviewNode>(engine_, node_config);
    replica.resync =
        std::make_unique<ResyncScheduler>(engine_, config_.replication);
    replicas_.push_back(std::move(replica));
  }
  for (int r = 0; r < num_replicas(); ++r) {
    replicas_[static_cast<size_t>(r)].node->AddDownObserver(
        [this, r](bool down) { OnDownChange(r, down); });
  }
}

// --- Connections -------------------------------------------------------------

auto FarviewCluster::Connect(int client_id) -> Result<ConnectionPtr> {
  auto conn = std::make_shared<Connection>(client_id);
  conn->loaded_version.assign(static_cast<size_t>(num_replicas()), 0);
  for (int r = 0; r < num_replicas(); ++r) {
    // Distinct jitter stream per (client, replica) breaker, derived from
    // the cluster's seed so runs reproduce bit-for-bit.
    const uint64_t seed = config_.seed * 0x9E3779B97F4A7C15ull +
                          static_cast<uint64_t>(client_id) * 1000003ull +
                          static_cast<uint64_t>(r);
    conn->breakers.push_back(std::make_unique<CircuitBreaker>(
        engine_, config_.breaker, seed, &node(r).stats()));
    Result<QPair*> qp = node(r).Connect(client_id);
    if (!qp.ok()) {
      Disconnect(*conn);
      return qp.status();
    }
    conn->qp_ids.push_back(qp.value()->qp_id);
  }
  connections_.push_back(conn);
  return conn;
}

void FarviewCluster::Disconnect(Connection& conn) {
  conn.open = false;
  for (size_t r = 0; r < conn.qp_ids.size(); ++r) {
    const Status closed = node(static_cast<int>(r)).Disconnect(conn.qp_ids[r]);
    FV_CHECK(closed.ok()) << closed.ToString();
  }
  std::erase_if(connections_, [&conn](const ConnectionPtr& held) {
    return held.get() == &conn;
  });
}

CircuitBreaker& FarviewCluster::breaker(Connection& conn, int r) {
  return conn.Breaker(r);
}

// --- Routed calls ------------------------------------------------------------

/// One routed call (DESIGN.md §7, §12). `token` names the live attempt:
/// completion, timeout, backoff and fallback events carry the token they
/// were issued under, and one whose token is stale belongs to an attempt
/// the call already abandoned.
struct FarviewCluster::RoutedCall {
  ConnectionPtr conn;
  Verb verb = Verb::kRead;
  FvRequest request;
  uint64_t tried_mask = 0;
  int replica = 0;   ///< replica of the current hop
  int attempts = 0;  ///< attempts issued on the current hop
  /// True while the current hop occupies a Half-Open probe slot of its
  /// replica's breaker; the hop's outcome must settle that slot.
  bool probe_hop = false;
  uint64_t token = 0;
  std::function<void(Result<FvResult>)> done;

  /// Settles the caller; every event of the call still pending goes stale.
  void Settle(Result<FvResult> res) {
    ++token;
    auto cb = std::move(done);
    cb(std::move(res));
  }

  /// Whether the event issued under `event_token` may act: its token is
  /// still live and the connection open. The first live event to find the
  /// connection closed settles the caller instead.
  bool Live(uint64_t event_token) {
    if (event_token != token) return false;
    if (conn->open) return true;
    Settle(Status::FailedPrecondition("connection closed mid-call"));
    return false;
  }
};

void FarviewCluster::Route(const ConnectionPtr& conn, Verb verb,
                           const FvRequest& request,
                           std::function<void(Result<FvResult>)> done) {
  auto call = std::allocate_shared<RoutedCall>(PooledAllocator<RoutedCall>());
  call->conn = conn;
  call->verb = verb;
  call->request = request;
  call->done = std::move(done);
  IssueRouted(std::move(call));
}

int FarviewCluster::PickReplica(Connection& conn, uint64_t tried_mask,
                                Verb verb, bool* probe) {
  const int n = num_replicas();
  for (int i = 0; i < n; ++i) {
    const int r = (conn.rr_cursor + i) % n;
    if ((tried_mask >> r) & 1u) continue;
    if (!InSync(r)) continue;  // epoch fencing
    // A replica behind the current pipeline (reload failed or still in
    // flight) would fail an operator call non-retryably; it serves reads.
    if (verb == Verb::kFarview && conn.Stale(r)) continue;
    if (!conn.Breaker(r).AllowRequest(probe)) continue;
    conn.rr_cursor = (r + 1) % n;
    return r;
  }
  return -1;
}

void FarviewCluster::IssueRouted(std::shared_ptr<RoutedCall> call) {
  bool probe = false;
  const int r = PickReplica(*call->conn, call->tried_mask, call->verb, &probe);
  if (r < 0) {
    // Fast-fail: every replica is fenced, tripped, or already tried.
    // Counted on replica 0's stats (the shard-level sink).
    node(0).stats().RecordFastFail();
    call->Settle(
        Status::Unavailable("no in-sync replica available (fast-fail)"));
    return;
  }
  call->tried_mask |= uint64_t{1} << r;
  call->replica = r;
  call->attempts = 0;
  call->probe_hop = probe;
  node(r).stats().RecordClusterRequest();
  StartAttempt(std::move(call));
}

void FarviewCluster::StartAttempt(std::shared_ptr<RoutedCall> call) {
  const int r = call->replica;
  FarviewNode& target = node(r);
  const RetryPolicy& rp = target.config().retry;
  // A hop's first attempt follows the breaker's admission at this instant,
  // so only a retry can find the breaker Open. Then the replica is known
  // dead: end the hop now instead of burning the rest of its timeout and
  // backoff schedule, and fail over at once (DESIGN.md §12).
  if (call->attempts > 0 && call->conn->Breaker(r).BlocksAttempts()) {
    target.stats().RecordFastFail();
    FinishHop(std::move(call),
              Status::Unavailable("node circuit open (fast-fail)"));
    return;
  }
  ++call->attempts;
  const uint64_t token = ++call->token;
  auto on_result = [this, call, replica = &target,
                    token](Result<FvResult> res) {
    if (token != call->token) {
      // The call already gave up on this attempt; the node's work still
      // completed (or failed) and the result is dropped here.
      replica->stats().RecordLateCompletion();
      return;
    }
    if (!call->Live(token)) return;
    if (!res.ok() && IsHealthFailure(res.status()) &&
        replica->config().retry.enabled) {
      AttemptFailed(call, res.status());
      return;
    }
    FinishHop(call, std::move(res));
  };
  const int qp_id = call->conn->QpId(r);
  if (call->verb == Verb::kRead) {
    target.TableRead(qp_id, call->request.vaddr, call->request.len,
                     std::move(on_result));
  } else {
    target.FarviewRequest(qp_id, call->request, std::move(on_result));
  }
  if (!rp.enabled) return;
  // The attempt's completion timeout. A resolved attempt (either way) bumps
  // the token, turning this event into a no-op.
  engine_->ScheduleAfter(
      rp.completion_timeout, [this, call, replica = &target, token]() {
        if (!call->Live(token)) return;
        replica->stats().RecordTimeout();
        AttemptFailed(call, Status::DeadlineExceeded(
                                "no completion within the attempt deadline"));
      });
}

void FarviewCluster::AttemptFailed(std::shared_ptr<RoutedCall> call,
                                   const Status& error) {
  const uint64_t token = ++call->token;  // the attempt's events go stale
  FarviewNode& replica = node(call->replica);
  const RetryPolicy& rp = replica.config().retry;
  // The call is live, so the connection and its queue pairs are open.
  const QPair& qp = *replica.FindQPair(call->conn->QpId(call->replica));
  // Graceful degradation: when the region itself is faulted, retrying into
  // it cannot succeed until it heals — serve base-table bytes raw instead
  // (the RNIC path needs no region).
  if (rp.raw_read_fallback && qp.region_id >= 0 &&
      replica.region(qp.region_id).faulted()) {
    replica.stats().RecordFallback();
    replica.RawRead(qp.qp_id, call->request.vaddr, call->request.len,
                    [this, call, token](Result<FvResult> res) {
                      if (!call->Live(token)) return;
                      if (res.ok()) res.value().degraded_raw = true;
                      FinishHop(call, std::move(res));
                    });
    return;
  }
  if (call->attempts >= rp.max_attempts) {
    FinishHop(std::move(call), error);
    return;
  }
  // Capped exponential backoff: base * 2^(retry-1), clamped to the cap
  // (overflow-safe — the policy clamps before each doubling).
  const SimTime backoff = rp.BackoffForAttempt(call->attempts);
  replica.stats().RecordRetry();
  engine_->ScheduleAfter(backoff, [this, call, token]() {
    if (!call->Live(token)) return;
    StartAttempt(call);
  });
}

void FarviewCluster::FinishHop(std::shared_ptr<RoutedCall> call,
                               Result<FvResult> res) {
  ++call->token;  // no event of this hop may act after it ends
  const int r = call->replica;
  CircuitBreaker& replica_breaker = call->conn->Breaker(r);
  // Read before any re-route: a failover hop overwrites `probe_hop`.
  const bool probe_hop = call->probe_hop;
  if (res.ok()) {
    replica_breaker.RecordSuccess(probe_hop);
    // Fragment counters live on replica 0, with the shard-level ones.
    const uint64_t bytes = res.value().data.size();
    if (call->verb == Verb::kRead) {
      node(0).stats().RecordFragmentRead(bytes);
    } else {
      node(0).stats().RecordFragmentOffload(bytes);
    }
    call->Settle(std::move(res));
    return;
  }
  if (IsHealthFailure(res.status())) {
    replica_breaker.RecordFailure(probe_hop);
    node(r).stats().RecordFailover();
    IssueRouted(std::move(call));
    return;
  }
  // Not a health signal (bad request, schema mismatch): report it, don't
  // penalize the replica. A probe hop still settles its slot as a success
  // — the replica answered, the error is the request's fault — otherwise
  // the slot would leak and a breaker whose every probe drew a bad request
  // would wedge Half-Open forever.
  if (probe_hop) replica_breaker.RecordSuccess(/*probe=*/true);
  call->Settle(std::move(res));
}

// --- Pipeline loads ----------------------------------------------------------

void FarviewCluster::LoadPipeline(const ConnectionPtr& conn,
                                  PipelineFactory factory,
                                  const std::shared_ptr<PipelineLoad>& load) {
  FV_CHECK(factory != nullptr);
  conn->factory = std::move(factory);
  const uint64_t version = ++conn->version;
  bool any = false;
  for (int r = 0; r < num_replicas(); ++r) {
    if (!InSync(r)) continue;
    any = true;
    ++load->fan.pending;
    Result<Pipeline> pipeline = conn->factory();
    if (!pipeline.ok()) {
      load->Arrive(pipeline.status());
      continue;
    }
    node(r).LoadPipeline(conn->QpId(r), std::move(pipeline).value(),
                         [conn, load, r, version](Status loaded) {
                           if (loaded.ok()) {
                             conn->loaded_version[static_cast<size_t>(r)] =
                                 version;
                           }
                           load->Arrive(loaded);
                         });
  }
  if (!any) {
    ++load->fan.pending;
    load->Arrive(Status::Unavailable("no in-rotation replica for load"));
  }
}

// --- Logged control operations ----------------------------------------------

Result<uint64_t> FarviewCluster::Alloc(const Connection& conn,
                                       uint64_t bytes) {
  FV_ASSIGN_OR_RETURN(
      const LogEntry logged,
      RunControlEntry({.kind = LogEntry::Kind::kAlloc,
                       .client_id = conn.client_id,
                       .bytes = bytes},
                      "allocation"));
  return logged.vaddr;
}

Status FarviewCluster::Free(const Connection& conn, uint64_t vaddr) {
  return RunControlEntry({.kind = LogEntry::Kind::kFree,
                          .client_id = conn.client_id,
                          .vaddr = vaddr},
                         "free")
      .status();
}

uint64_t FarviewCluster::AppendEntry(const LogEntry& entry) {
  log_.push_back(entry);
  return static_cast<uint64_t>(log_.size());
}

auto FarviewCluster::RunControlEntry(const LogEntry& entry, const char* what)
    -> Result<LogEntry> {
  const uint64_t epoch = AppendEntry(entry);
  bool applied = false;
  for (int r = 0; r < num_replicas(); ++r) {
    if (!InSync(r)) {
      MarkMissed(r, epoch);
      continue;
    }
    const Status s =
        ApplyControlEntry(node(r), log_[static_cast<size_t>(epoch - 1)],
                          /*agreed=*/applied);
    if (!s.ok()) {
      // Abort before reporting, or a replica that missed the epoch would
      // replay a doomed op on rejoin and crash recovery.
      AbortEntry(epoch);
      return s;
    }
    applied = true;
  }
  if (!applied) {
    AbortEntry(epoch);
    return Status::Unavailable(std::string("no in-rotation replica for ") +
                               what);
  }
  return log_[static_cast<size_t>(epoch - 1)];
}

Status FarviewCluster::ApplyControlEntry(FarviewNode& node, LogEntry& entry,
                                         bool agreed) {
  switch (entry.kind) {
    case LogEntry::Kind::kAlloc: {
      FV_ASSIGN_OR_RETURN(const uint64_t vaddr,
                          node.mmu().Alloc(entry.client_id, entry.bytes));
      if (!agreed) {
        entry.vaddr = vaddr;
      } else if (vaddr != entry.vaddr) {
        return Status::Internal("replica allocators diverged");
      }
      return Status::OK();
    }
    case LogEntry::Kind::kFree:
      return node.mmu().Free(entry.client_id, entry.vaddr);
    case LogEntry::Kind::kWrite:
      break;
  }
  return Status::Internal("write entries are resynced, not replayed");
}

// --- Mirrored writes ---------------------------------------------------------

struct FarviewCluster::MirroredWrite {
  uint64_t epoch = 0;
  uint64_t vaddr = 0;
  const uint8_t* data = nullptr;
  uint64_t len = 0;
  std::vector<int> targets;  ///< replicas in sync at issue, in index order
  size_t primary_pos = 0;    ///< current primary candidate in `targets`
  /// Counts the mirror hops down after the primary's ack (`last_ack`
  /// starts at it); `error` keeps the first primary failure, reported only
  /// if every candidate primary fails.
  FanIn fan;
  ConnectionPtr conn;
  std::function<void(Result<SimTime>)> done;

  /// Settles the caller with `res`, or `FailedPrecondition` once the
  /// connection has closed.
  void Settle(Result<SimTime> res) {
    auto cb = std::move(done);
    if (conn->open) {
      cb(std::move(res));
    } else {
      cb(Status::FailedPrecondition("connection closed mid-write"));
    }
  }
};

void FarviewCluster::Write(const ConnectionPtr& conn, uint64_t vaddr,
                           const uint8_t* data, uint64_t len,
                           std::function<void(Result<SimTime>)> done) {
  // Per-write control blocks recycle through the byte-block pool's size
  // classes (DESIGN.md §8a) so a write-heavy steady state stays off the
  // global allocator.
  auto write =
      std::allocate_shared<MirroredWrite>(PooledAllocator<MirroredWrite>());
  write->vaddr = vaddr;
  write->data = data;
  write->len = len;
  write->conn = conn;
  write->done = std::move(done);
  write->epoch = AppendEntry({.kind = LogEntry::Kind::kWrite,
                              .client_id = conn->client_id,
                              .vaddr = vaddr,
                              .bytes = len});
  write->targets.reserve(static_cast<size_t>(num_replicas()));
  for (int r = 0; r < num_replicas(); ++r) {
    if (InSync(r)) {
      write->targets.push_back(r);
    } else {
      MarkMissed(r, write->epoch);
    }
  }
  if (write->targets.empty()) {
    // Nothing applied the write: abort the epoch, so a lone restarted
    // replica does not wait for a resync source that cannot exist.
    AbortEntry(write->epoch);
    write->Settle(
        Status::Unavailable("no in-rotation replica for mirrored write"));
    return;
  }
  TryPrimaryWrite(std::move(write));
}

void FarviewCluster::TryPrimaryWrite(std::shared_ptr<MirroredWrite> write) {
  if (write->primary_pos >= write->targets.size() || !write->conn->open) {
    // Every candidate primary failed (`fan.error` holds the first), or the
    // connection closed before the next could be tried.
    AbortEntry(write->epoch);
    write->Settle(write->fan.error);
    return;
  }
  const int primary = write->targets[write->primary_pos];
  node(primary).TableWrite(
      write->conn->QpId(primary), write->vaddr, write->data, write->len,
      [this, write, primary](Result<SimTime> res) {
        if (!res.ok()) {
          if (!IsHealthFailure(res.status())) {
            // Not a health signal (e.g. an MMU error on a stale vaddr):
            // the same request would fail on every replica, so fencing
            // the primary — and then each candidate in turn — would empty
            // the rotation over one bad write.
            AbortEntry(write->epoch);
            write->Settle(res.status());
            return;
          }
          // The primary died under the write: record the failover and try
          // the next candidate as primary.
          MarkMissed(primary, write->epoch);
          node(primary).stats().RecordFailover();
          if (write->fan.error.ok()) write->fan.error = res.status();
          ++write->primary_pos;
          TryPrimaryWrite(write);
          return;
        }
        write->fan.last_ack = res.value();
        const std::vector<int>& targets = write->targets;
        if (!write->conn->open) {
          // No mirror hop can be posted on a closed connection: the other
          // targets miss the epoch and resync it from the primary.
          for (size_t i = write->primary_pos + 1; i < targets.size(); ++i) {
            MarkMissed(targets[i], write->epoch);
          }
          write->Settle(write->fan.last_ack);
          return;
        }
        // Primary acked: forward to the remaining live replicas in
        // parallel (the primary->secondary mirror hop).
        write->fan.pending = targets.size() - write->primary_pos - 1;
        if (write->fan.pending == 0) {
          write->Settle(write->fan.last_ack);
          return;
        }
        for (size_t i = write->primary_pos + 1; i < targets.size(); ++i) {
          const int mirror = targets[i];
          node(mirror).TableWrite(
              write->conn->QpId(mirror), write->vaddr, write->data,
              write->len, [this, write, mirror](Result<SimTime> hop) {
                // A missed mirror converges via resync from the primary,
                // which holds the bytes whatever the cause; the write
                // still committed, so no mirror error is reported.
                if (!hop.ok()) MarkMissed(mirror, write->epoch);
                if (write->fan.Arrive(hop.status(),
                                      hop.ok() ? hop.value() : 0)) {
                  write->Settle(write->fan.last_ack);
                }
              });
        }
      });
}

// --- Log bookkeeping and crash recovery --------------------------------------

void FarviewCluster::AbortEntry(uint64_t epoch) {
  log_[static_cast<size_t>(epoch - 1)].aborted = true;
  // The epoch stays in every missed list. A parked replica may have been
  // waiting on it as a live write (e.g. the failed primary of the very
  // write being aborted); an aborted write never needs a source, so re-run
  // those recoveries now instead of waiting for a rejoin that, with every
  // other replica down, would never come.
  StartParkedRejoins();
}

void FarviewCluster::MarkMissed(int r, uint64_t epoch) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  replica.missed.push_back(epoch);
  if (replica.state == ReplicaState::kInSync) {
    // A write hop failed on a replica still in rotation (e.g. it died
    // after target selection): fence it *now* — epoch fencing forbids
    // serving reads past a missed epoch — and recover it immediately.
    ++replica.rejoin_gen;
    replica.resync->Abort();
    ReclaimResyncing(replica);
    replica.state = ReplicaState::kResyncing;
    replica.restarted_at = engine_->Now();
    RunRejoinPass(r);
  }
}

void FarviewCluster::ReclaimResyncing(Replica& replica) {
  if (replica.resyncing.empty()) return;
  replica.resyncing.insert(replica.resyncing.end(), replica.missed.begin(),
                           replica.missed.end());
  replica.missed.swap(replica.resyncing);
  replica.resyncing.clear();
}

void FarviewCluster::OnDownChange(int r, bool down) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  // Whatever recovery was in flight is void either way: a crash kills it, a
  // restart starts a fresh one. Epochs whose bytes were still streaming go
  // back to `missed` — they never landed, so the next pass must re-copy
  // them or the replica would rejoin holding pre-crash bytes.
  ++replica.rejoin_gen;
  replica.resync->Abort();
  ReclaimResyncing(replica);
  replica.pending_reloads = 0;
  replica.parked = false;
  if (down) {
    replica.state = ReplicaState::kDown;
    // Nothing should wait out a timeout against a known-dead replica.
    for (const ConnectionPtr& conn : connections_) {
      conn->Breaker(r).ForceOpen();
    }
    return;
  }
  replica.restarted_at = engine_->Now();
  replica.state = ReplicaState::kResyncing;
  RunRejoinPass(r);
}

int FarviewCluster::PickResyncSource(int r) const {
  for (int s = 0; s < num_replicas(); ++s) {
    if (s != r && InSync(s)) return s;
  }
  return -1;
}

void FarviewCluster::StartParkedRejoins() {
  for (int r = 0; r < num_replicas(); ++r) {
    Replica& replica = replicas_[static_cast<size_t>(r)];
    if (replica.state == ReplicaState::kResyncing && replica.parked) {
      replica.parked = false;
      RunRejoinPass(r);
    }
  }
}

void FarviewCluster::RunRejoinPass(int r) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  FV_CHECK(replica.state == ReplicaState::kResyncing);
  if (replica.missed.empty()) {
    ReloadPipelines(r);
    return;
  }
  const int source = PickResyncSource(r);
  if (source < 0) {
    for (const uint64_t epoch : replica.missed) {
      const LogEntry& entry = log_[static_cast<size_t>(epoch - 1)];
      if (!entry.aborted && entry.kind == LogEntry::Kind::kWrite) {
        // Every other replica is down or recovering too; park until one
        // rejoins (CompleteRejoin restarts parked recoveries).
        replica.parked = true;
        return;
      }
    }
  }
  FV_CHECK(replica.resyncing.empty())
      << "rejoin pass started with a resync stream outstanding";
  std::vector<uint64_t> missed;
  missed.swap(replica.missed);
  // Replay missed control entries in log order; collect missed write
  // ranges (deduplicated — a table rewritten ten times is copied once,
  // with the survivor's *current* bytes). An aborted write is copied too
  // when a source exists: a node takes a write's bytes when it is posted,
  // so a primary that died before its ack may hold them while the others
  // do not, and only a copy makes the replicas agree. With no source there
  // is nothing to agree with, so it is skipped. Control replays land on
  // the MMU immediately; write epochs stay attached to the replica
  // (`resyncing`) until the stream confirms their bytes landed, so an
  // abort mid-stream re-queues them instead of losing them.
  std::vector<ResyncScheduler::Range> ranges;
  std::set<std::tuple<int, uint64_t, uint64_t>> seen;
  for (const uint64_t epoch : missed) {
    LogEntry& entry = log_[static_cast<size_t>(epoch - 1)];
    if (entry.kind == LogEntry::Kind::kWrite) {
      if (source < 0) continue;  // aborted: live writes parked above
      replica.resyncing.push_back(epoch);
      const auto key =
          std::make_tuple(entry.client_id, entry.vaddr, entry.bytes);
      if (seen.insert(key).second) {
        ranges.push_back({entry.client_id, entry.vaddr, entry.bytes});
      }
      continue;
    }
    if (entry.aborted) continue;
    const Status replayed =
        ApplyControlEntry(*replica.node, entry, /*agreed=*/true);
    FV_CHECK(replayed.ok())
        << "replication log replay diverged: " << replayed.ToString();
  }
  if (ranges.empty()) {
    ReloadPipelines(r);
    return;
  }
  const uint64_t gen = replica.rejoin_gen;
  replica.resync->Start(
      replicas_[static_cast<size_t>(source)].node.get(), replica.node.get(),
      std::move(ranges), [this, r, gen](Status streamed) {
        Replica& rep = replicas_[static_cast<size_t>(r)];
        if (gen != rep.rejoin_gen) return;
        FV_CHECK(streamed.ok())
            << "resync stream failed: " << streamed.ToString();
        rep.resyncing.clear();
        // Entries may have been missed while the stream ran; loop until a
        // pass ends with nothing new missed.
        RunRejoinPass(r);
      });
}

void FarviewCluster::ReloadPipelines(int r) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  const uint64_t gen = replica.rejoin_gen;
  // Pipelines survive the crash itself (configuration flash), so only the
  // connections whose load `r` missed reload. One count guards the loop.
  replica.pending_reloads = 1;
  for (const ConnectionPtr& conn : connections_) {
    if (!conn->Stale(r)) continue;
    Result<Pipeline> pipeline = conn->factory();
    if (!pipeline.ok()) {
      // The replica still rejoins (its bytes are in sync) but stays stale,
      // so PickReplica routes it no operator call of this connection until
      // a later load succeeds. Reads are unaffected.
      FV_LOG(kWarning) << "pipeline factory failed during rejoin of replica "
                       << r << ": " << pipeline.status().ToString()
                       << "; replica serves reads only";
      continue;
    }
    ++replica.pending_reloads;
    node(r).LoadPipeline(
        conn->QpId(r), std::move(pipeline).value(),
        [this, r, gen, conn, version = conn->version](Status loaded) {
          if (!loaded.ok()) {
            // Same degraded mode as a factory failure.
            FV_LOG(kWarning) << "pipeline reload failed during rejoin of "
                             << "replica " << r << ": " << loaded.ToString()
                             << "; replica serves reads only";
          } else if (version == conn->version) {
            conn->loaded_version[static_cast<size_t>(r)] = version;
          }
          ReloadDone(r, gen);
        });
  }
  ReloadDone(r, gen);
}

void FarviewCluster::ReloadDone(int r, uint64_t gen) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  if (gen != replica.rejoin_gen || --replica.pending_reloads > 0) return;
  if (!replica.missed.empty()) {
    // Writes landed while pipelines reloaded: another pass.
    RunRejoinPass(r);
    return;
  }
  CompleteRejoin(r);
}

void FarviewCluster::CompleteRejoin(int r) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  replica.state = ReplicaState::kInSync;
  replica.in_sync_at = engine_->Now();
  replica.node->stats().RecordResyncDone(engine_->Now() -
                                         replica.restarted_at);
  // A replica waiting for a resync source can proceed now.
  StartParkedRejoins();
}

}  // namespace farview
