#include "fv/cluster.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

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

uint64_t FarviewCluster::AppendEntry(LogEntry entry) {
  log_.push_back(entry);
  return static_cast<uint64_t>(log_.size());
}

void FarviewCluster::SetEntryVaddr(uint64_t epoch, uint64_t vaddr) {
  log_[static_cast<size_t>(epoch - 1)].vaddr = vaddr;
}

void FarviewCluster::AbortEntry(uint64_t epoch) {
  log_[static_cast<size_t>(epoch - 1)].aborted = true;
  // Purge the epoch from every replica's recovery bookkeeping. A replica
  // fenced for this entry *before* the abort (e.g. the failed primary of
  // the very write being aborted) would otherwise keep it in `missed`: the
  // rejoin pass already ran against the pre-abort log, saw a live write
  // epoch, found no in-sync source holding bytes that in fact never landed
  // anywhere, and parked forever. Dropping the epoch here matches how
  // RunRejoinPass treats entries aborted before the pass (marked applied,
  // nothing to copy); epochs already consumed into `resyncing` stay with
  // their in-flight stream — the generation guard voids the stream if the
  // replica crashes again, and a completed stream just copied the
  // survivor's current bytes, which is the convergence target regardless.
  bool purged = false;
  for (Replica& replica : replicas_) {
    auto it = std::find(replica.missed.begin(), replica.missed.end(), epoch);
    if (it == replica.missed.end()) continue;
    replica.missed.erase(it);
    replica.applied_epoch = std::max(replica.applied_epoch, epoch);
    purged = true;
  }
  // A purge can turn a parked replica's missed list resyncable (or empty);
  // re-run those recoveries now instead of waiting for a rejoin that, with
  // every other replica down, would never come.
  if (purged) StartParkedRejoins();
}

void FarviewCluster::MarkApplied(int r, uint64_t epoch) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  replica.applied_epoch = std::max(replica.applied_epoch, epoch);
}

void FarviewCluster::MarkMissed(int r, uint64_t epoch) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  replica.missed.push_back(epoch);
  if (replica.state == ReplicaState::kInSync) {
    // A mirror hop failed on a replica still in rotation (e.g. it died
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

Status FarviewCluster::ReplayControlEntry(FarviewNode* node,
                                          const LogEntry& entry) {
  switch (entry.kind) {
    case LogEntry::Kind::kAlloc: {
      FV_ASSIGN_OR_RETURN(const uint64_t vaddr,
                          node->mmu().Alloc(entry.client_id, entry.bytes));
      if (vaddr != entry.vaddr) {
        return Status::Internal("allocator divergence during log replay");
      }
      return Status::OK();
    }
    case LogEntry::Kind::kFree:
      return node->mmu().Free(entry.client_id, entry.vaddr);
    case LogEntry::Kind::kWrite:
      break;
  }
  return Status::Internal("write entries are resynced, not replayed");
}

void FarviewCluster::RunRejoinPass(int r) {
  Replica& replica = replicas_[static_cast<size_t>(r)];
  FV_CHECK(replica.state == ReplicaState::kResyncing);
  if (replica.missed.empty()) {
    RunRejoinHooks(r);
    return;
  }
  bool needs_source = false;
  for (const uint64_t epoch : replica.missed) {
    const LogEntry& entry = log_[static_cast<size_t>(epoch - 1)];
    if (!entry.aborted && entry.kind == LogEntry::Kind::kWrite) {
      needs_source = true;
      break;
    }
  }
  const int source = PickResyncSource(r);
  if (needs_source && source < 0) {
    // Every other replica is down or recovering too; park until one
    // rejoins (CompleteRejoin restarts parked recoveries).
    replica.parked = true;
    return;
  }
  FV_CHECK(replica.resyncing.empty())
      << "rejoin pass started with a resync stream outstanding";
  std::vector<uint64_t> missed;
  missed.swap(replica.missed);
  // Replay missed control entries in log order; collect missed write
  // ranges (deduplicated — a table rewritten ten times is copied once,
  // with the survivor's *current* bytes). Control replays land on the MMU
  // immediately and are marked applied here; write epochs stay attached to
  // the replica (`resyncing`) until the stream confirms their bytes landed,
  // so an abort mid-stream re-queues them instead of losing them.
  std::vector<ResyncScheduler::Range> ranges;
  std::set<std::tuple<int, uint64_t, uint64_t>> seen;
  for (const uint64_t epoch : missed) {
    const LogEntry& entry = log_[static_cast<size_t>(epoch - 1)];
    if (!entry.aborted && entry.kind == LogEntry::Kind::kWrite) {
      replica.resyncing.push_back(epoch);
      const auto key =
          std::make_tuple(entry.client_id, entry.vaddr, entry.bytes);
      if (seen.insert(key).second) {
        ranges.push_back({entry.client_id, entry.vaddr, entry.bytes});
      }
      continue;
    }
    replica.applied_epoch = std::max(replica.applied_epoch, epoch);
    if (entry.aborted) continue;
    const Status replayed = ReplayControlEntry(replica.node.get(), entry);
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
        for (const uint64_t epoch : rep.resyncing) {
          rep.applied_epoch = std::max(rep.applied_epoch, epoch);
        }
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
  replica.applied_epoch = epoch();
  replica.in_sync_at = engine_->Now();
  replica.node->stats().RecordResyncDone(engine_->Now() -
                                         replica.restarted_at);
  // A replica waiting for a resync source can proceed now.
  StartParkedRejoins();
}

}  // namespace farview
