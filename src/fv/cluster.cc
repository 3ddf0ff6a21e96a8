#include "fv/cluster.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/bytes.h"
#include "common/logging.h"

namespace farview {

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

// --- Logged control operations ----------------------------------------------

Result<uint64_t> FarviewCluster::Alloc(int client_id, uint64_t bytes) {
  FV_ASSIGN_OR_RETURN(
      const LogEntry logged,
      RunControlEntry({.kind = LogEntry::Kind::kAlloc,
                       .client_id = client_id,
                       .bytes = bytes},
                      "allocation"));
  return logged.vaddr;
}

Status FarviewCluster::Free(int client_id, uint64_t vaddr) {
  return RunControlEntry({.kind = LogEntry::Kind::kFree,
                          .client_id = client_id,
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

/// Holds what the write's hops need by value: the caller's routing state
/// may be cleared by its `CloseConnection` before they complete.
struct FarviewCluster::MirroredWrite {
  /// An in-sync replica at issue and the caller's queue pair on it.
  struct Target {
    int replica = 0;
    int qp_id = 0;
  };
  uint64_t epoch = 0;
  uint64_t vaddr = 0;
  const uint8_t* data = nullptr;
  uint64_t len = 0;
  std::vector<Target> targets;  ///< in replica index order
  size_t primary_pos = 0;       ///< current primary candidate in `targets`
  size_t mirrors_pending = 0;
  Status first_failure;  ///< reported only if every candidate primary fails
  SimTime last_ack = 0;
  std::shared_ptr<bool> alive;
  std::function<void(Result<SimTime>)> done;

  /// Settles the caller with `res`, or `FailedPrecondition` once the
  /// connection has closed.
  void Settle(Result<SimTime> res) {
    auto cb = std::move(done);
    if (*alive) {
      cb(std::move(res));
    } else {
      cb(Status::FailedPrecondition("connection closed mid-write"));
    }
  }
};

void FarviewCluster::Write(int client_id, const std::vector<int>& qp_ids,
                           std::shared_ptr<bool> alive, uint64_t vaddr,
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
  write->alive = std::move(alive);
  write->done = std::move(done);
  write->epoch = AppendEntry({.kind = LogEntry::Kind::kWrite,
                              .client_id = client_id,
                              .vaddr = vaddr,
                              .bytes = len});
  write->targets.reserve(static_cast<size_t>(num_replicas()));
  for (int r = 0; r < num_replicas(); ++r) {
    if (InSync(r)) {
      write->targets.push_back({r, qp_ids[static_cast<size_t>(r)]});
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
  if (write->primary_pos >= write->targets.size() || !*write->alive) {
    // Every candidate primary failed (`first_failure` holds the first), or
    // the connection closed before the next could be tried.
    AbortEntry(write->epoch);
    write->Settle(write->first_failure);
    return;
  }
  const MirroredWrite::Target primary = write->targets[write->primary_pos];
  node(primary.replica)
      .TableWrite(
          primary.qp_id, write->vaddr, write->data, write->len,
          [this, write, primary](Result<SimTime> res) {
            if (!res.ok()) {
              if (!IsHealthFailure(res.status())) {
                // Not a health signal (e.g. an MMU error on a stale
                // vaddr): the same request would fail on every replica, so
                // fencing the primary — and then each candidate in turn —
                // would empty the rotation over one bad write.
                AbortEntry(write->epoch);
                write->Settle(res.status());
                return;
              }
              // The primary died under the write: record the failover and
              // try the next candidate as primary.
              MarkMissed(primary.replica, write->epoch);
              node(primary.replica).stats().RecordFailover();
              if (write->first_failure.ok()) {
                write->first_failure = res.status();
              }
              ++write->primary_pos;
              TryPrimaryWrite(write);
              return;
            }
            write->last_ack = res.value();
            const std::vector<MirroredWrite::Target>& targets =
                write->targets;
            if (!*write->alive) {
              // No mirror hop can be posted on a closed connection: the
              // other targets miss the epoch and resync it from the
              // primary.
              for (size_t i = write->primary_pos + 1; i < targets.size();
                   ++i) {
                MarkMissed(targets[i].replica, write->epoch);
              }
              write->Settle(write->last_ack);
              return;
            }
            // Primary acked: forward to the remaining live replicas in
            // parallel (the primary->secondary mirror hop).
            write->mirrors_pending = targets.size() - write->primary_pos - 1;
            if (write->mirrors_pending == 0) {
              write->Settle(write->last_ack);
              return;
            }
            for (size_t i = write->primary_pos + 1; i < targets.size(); ++i) {
              const MirroredWrite::Target mirror = targets[i];
              node(mirror.replica)
                  .TableWrite(
                      mirror.qp_id, write->vaddr, write->data, write->len,
                      [this, write, mirror](Result<SimTime> hop) {
                        // A missed mirror converges via resync from the
                        // primary, which holds the bytes whatever the
                        // cause; the write still committed, so no mirror
                        // error is reported.
                        if (hop.ok()) {
                          write->last_ack =
                              std::max(write->last_ack, hop.value());
                        } else {
                          MarkMissed(mirror.replica, write->epoch);
                        }
                        if (--write->mirrors_pending == 0) {
                          write->Settle(write->last_ack);
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

int FarviewCluster::AddRejoinHook(RejoinHook hook) {
  const int id = next_hook_id_++;
  rejoin_hooks_.emplace(id, std::move(hook));
  return id;
}

void FarviewCluster::RemoveRejoinHook(int id) { rejoin_hooks_.erase(id); }

void FarviewCluster::OnDownChange(int r, bool down) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  // Whatever recovery was in flight is void either way: a crash kills it, a
  // restart starts a fresh one. Epochs whose bytes were still streaming go
  // back to `missed` — they never landed, so the next pass must re-copy
  // them or the replica would rejoin holding pre-crash bytes.
  ++replica.rejoin_gen;
  replica.resync->Abort();
  ReclaimResyncing(replica);
  replica.pending_hooks = 0;
  replica.parked = false;
  if (down) {
    replica.state = ReplicaState::kDown;
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
    RunRejoinHooks(r);
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
    RunRejoinHooks(r);
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

void FarviewCluster::RunRejoinHooks(int r) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  if (rejoin_hooks_.empty()) {
    CompleteRejoin(r);
    return;
  }
  const uint64_t gen = replica.rejoin_gen;
  replica.pending_hooks = static_cast<int>(rejoin_hooks_.size());
  // Hooks may complete synchronously or unregister concurrently; iterate a
  // snapshot with the countdown pre-armed.
  std::vector<RejoinHook> hooks;
  hooks.reserve(rejoin_hooks_.size());
  for (const auto& entry : rejoin_hooks_) hooks.push_back(entry.second);
  for (const RejoinHook& hook : hooks) {
    hook(r, [this, r, gen]() {
      Replica& rep = replicas_[static_cast<size_t>(r)];
      if (gen != rep.rejoin_gen) return;
      if (--rep.pending_hooks > 0) return;
      if (!rep.missed.empty()) {
        // Writes landed while pipelines reloaded: another pass.
        RunRejoinPass(r);
        return;
      }
      CompleteRejoin(r);
    });
  }
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
