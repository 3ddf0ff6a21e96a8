#include "fv/sharding.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/logging.h"
#include "mem/mmu.h"

namespace farview {
namespace {

/// Golden-ratio mix keeping per-shard breaker jitter streams independent;
/// shard 0 keeps the template seed unchanged (the 1-shard identity pin).
constexpr uint64_t kShardSeedMix = 0x9E3779B97F4A7C15ull;

/// Fan-in of parallel hops (scatter, gather, load, mirror): counts the
/// outstanding hops down, keeps the first error and the latest ack.
struct FanIn {
  size_t pending = 0;
  Status error;
  SimTime last_ack = 0;

  void Fail(const Status& s) {
    if (error.ok()) error = s;
  }
  /// Folds one hop's outcome; true when it was the last outstanding hop.
  bool Arrive(const Status& hop, SimTime ack = 0) {
    if (!hop.ok()) {
      Fail(hop);
    } else {
      last_ack = std::max(last_ack, ack);
    }
    return --pending == 0;
  }
};

}  // namespace

ShardedPool::ShardedPool(sim::Engine* engine, const ShardedConfig& config)
    : engine_(engine), config_(config) {
  FV_CHECK(engine_ != nullptr);
  FV_CHECK(config_.num_shards >= 1);
  FV_CHECK(config_.shard_stride > 0 &&
           config_.shard_stride % Mmu::kPageSize == 0)
      << "shard stride must be a whole number of pages";
  FV_CHECK(config_.faulted_shard >= -1 &&
           config_.faulted_shard < config_.num_shards);
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int s = 0; s < config_.num_shards; ++s) {
    ClusterConfig cc = config_.cluster;
    cc.seed += kShardSeedMix * static_cast<uint64_t>(s);
    if (config_.faulted_shard >= 0 && s != config_.faulted_shard) {
      cc.node.faults.enabled = false;
      cc.node.net.faults.enabled = false;
    }
    shards_.push_back(std::make_unique<FarviewCluster>(engine_, cc));
  }
}

/// One routed (read / operator) call, re-issued across a shard's replicas
/// on failover until a replica answers or none is left.
struct ShardedClient::RoutedCall {
  int shard = 0;
  Verb verb = Verb::kRead;
  FvRequest request;
  uint64_t tried_mask = 0;
  /// True while the current hop occupies a Half-Open probe slot of its
  /// replica's breaker; the hop's outcome must settle that slot.
  bool probe_hop = false;
  /// Last `ResourceExhausted` seen while rotating (DESIGN.md §15). When the
  /// rotation exhausts, the call settles with this typed status (retry-after
  /// hint intact) instead of the generic fast-fail, so the caller's backoff
  /// can honor the server's hint.
  Status shed_error;
  std::function<void(Result<FvResult>)> done;
};

/// One mirrored write: primary hop, then parallel mirror hops.
struct ShardedClient::MirroredWrite {
  int shard = 0;
  const FTable* local = nullptr;  ///< shard-map handle of the fragment
  const Table* rows = nullptr;    ///< caller keeps it alive until completion
  uint64_t epoch = 0;
  std::vector<int> targets;  ///< in-rotation replicas at issue, index order
  size_t primary_pos = 0;    ///< current primary candidate within `targets`
  /// Mirror-hop countdown; `error` holds the first primary-hop error,
  /// reported only if every candidate primary fails.
  FanIn fan;
  std::function<void(Result<SimTime>)> done;
};

struct ShardedClient::Gather {
  FanIn fan;
  std::vector<std::optional<FvResult>> parts;  ///< fragment order
  PartialMerger* merger = nullptr;
  std::function<void(Result<FvResult>)> done;
};

ShardedClient::ShardedClient(ShardedPool* pool, int client_id)
    : pool_(pool), client_id_(client_id) {
  FV_CHECK(pool_ != nullptr);
}

ShardedClient::~ShardedClient() { CloseConnection(); }

Status ShardedClient::OpenConnection() {
  if (connected()) return Status::FailedPrecondition("already connected");
  // Build into a local vector and commit only on full success: a partial
  // shards_ would make connected() true while data-path methods index it
  // past its end.
  std::vector<Shard> shards(static_cast<size_t>(pool_->num_shards()));
  for (int s = 0; s < pool_->num_shards(); ++s) {
    FarviewCluster& cluster = pool_->shard(s);
    Shard& sh = shards[static_cast<size_t>(s)];
    const int n = cluster.num_replicas();
    sh.loaded_version.assign(static_cast<size_t>(n), 0);
    for (int r = 0; r < n; ++r) {
      // Distinct jitter stream per (client, replica) breaker, derived from
      // the shard's seed so runs reproduce bit-for-bit.
      const uint64_t seed = cluster.config().seed * 0x9E3779B97F4A7C15ull +
                            static_cast<uint64_t>(client_id_) * 1000003ull +
                            static_cast<uint64_t>(r);
      sh.breakers.push_back(std::make_unique<CircuitBreaker>(
          cluster.engine(), cluster.config().breaker, seed,
          &cluster.node(r).stats()));
      auto client =
          std::make_unique<FarviewClient>(&cluster.node(r), client_id_);
      FV_RETURN_IF_ERROR(client->OpenConnection());
      client->SetHealthGate([breaker = sh.breakers.back().get()]() {
        return !breaker->BlocksAttempts();
      });
      sh.replicas.push_back(std::move(client));
    }
  }
  shards_ = std::move(shards);
  alive_ = std::make_shared<bool>(true);
  for (int s = 0; s < pool_->num_shards(); ++s) {
    FarviewCluster& cluster = pool_->shard(s);
    for (int r = 0; r < cluster.num_replicas(); ++r) {
      // The nodes outlive this connection; the alive flag voids the
      // observer.
      cluster.node(r).AddDownObserver([alive = alive_, this, s, r](bool down) {
        if (!*alive || !down) return;
        // Crash observed: force the breaker open so nothing waits out a
        // timeout against a known-dead replica.
        breaker(s, r).ForceOpen();
      });
    }
    StateOf(s).rejoin_hook = cluster.AddRejoinHook(
        [this, s](int r, std::function<void()> hook_done) {
          OnRejoin(s, r, std::move(hook_done));
        });
  }
  return Status::OK();
}

void ShardedClient::CloseConnection() {
  if (!connected()) return;
  *alive_ = false;
  for (int s = 0; s < pool_->num_shards(); ++s) {
    pool_->shard(s).RemoveRejoinHook(StateOf(s).rejoin_hook);
  }
  shards_.clear();
  tables_.clear();
}

NodeStats& ShardedClient::ShardStats(int shard) {
  // Shard-level counters live on the shard's primary node: the stable home
  // replica 0 plays for reliability counters too.
  return pool_->shard(shard).node(0).stats();
}

// --- Logged control operations ----------------------------------------------

Status ShardedClient::ApplyLogged(
    int shard, FarviewCluster::LogEntry entry, const char* what,
    const std::function<Status(FarviewClient&, uint64_t epoch)>& apply) {
  FarviewCluster& cluster = pool_->shard(shard);
  entry.client_id = client_id_;
  const uint64_t epoch = cluster.AppendEntry(entry);
  bool applied = false;
  for (int r = 0; r < cluster.num_replicas(); ++r) {
    if (!cluster.CanApply(r)) {
      cluster.MarkMissed(r, epoch);
      continue;
    }
    const Status s = apply(StateOf(shard).Replica(r), epoch);
    if (!s.ok()) {
      // Control ops are synchronous and deterministic, so the failure is
      // not replica health: abort the epoch before reporting it, or a
      // replica that missed it would replay a doomed op on rejoin and
      // crash recovery.
      cluster.AbortEntry(epoch);
      return s;
    }
    cluster.MarkApplied(r, epoch);
    applied = true;
  }
  if (!applied) {
    cluster.AbortEntry(epoch);
    return Status::Unavailable(std::string("no in-rotation replica for ") +
                               what);
  }
  return Status::OK();
}

Status ShardedClient::AllocOnShard(int shard, FTable* local) {
  FarviewCluster::LogEntry entry;
  entry.kind = FarviewCluster::LogEntry::Kind::kAlloc;
  entry.bytes = local->SizeBytes();
  std::optional<uint64_t> vaddr;
  const Status allocated = ApplyLogged(
      shard, entry, "allocation",
      [&](FarviewClient& replica, uint64_t epoch) -> Status {
        FTable replica_table = *local;
        FV_RETURN_IF_ERROR(replica.AllocTableMem(&replica_table));
        if (!vaddr.has_value()) {
          vaddr = replica_table.vaddr;
          pool_->shard(shard).SetEntryVaddr(epoch, *vaddr);
        } else if (replica_table.vaddr != *vaddr) {
          return Status::Internal("replica allocators diverged");
        }
        return Status::OK();
      });
  if (allocated.ok()) local->vaddr = *vaddr;
  return allocated;
}

Status ShardedClient::FreeOnShard(int shard, const FTable& local) {
  FarviewCluster::LogEntry entry;
  entry.kind = FarviewCluster::LogEntry::Kind::kFree;
  entry.vaddr = local.vaddr;
  return ApplyLogged(shard, entry, "free",
                     [&](FarviewClient& replica, uint64_t) {
                       FTable replica_table = local;
                       return replica.FreeTableMem(&replica_table);
                     });
}

Status ShardedClient::AllocTableMem(FTable* table, int home_shard) {
  if (!connected()) return Status::FailedPrecondition("not connected");
  if (table == nullptr || table->name.empty() || table->num_rows == 0 ||
      table->schema.tuple_width() == 0) {
    return Status::InvalidArgument(
        "AllocTableMem requires name, schema and num_rows");
  }
  if (home_shard < -1 || home_shard >= pool_->num_shards()) {
    return Status::InvalidArgument("home shard out of range");
  }

  // Range-partition the rows into one contiguous fragment per shard (the
  // leading shards absorb the remainder); a homed table is one fragment.
  ShardedTable st;
  st.name = table->name;
  st.num_rows = table->num_rows;
  const int width =
      home_shard >= 0
          ? 1
          : static_cast<int>(std::min<uint64_t>(
                static_cast<uint64_t>(pool_->num_shards()), table->num_rows));
  const uint64_t base = table->num_rows / static_cast<uint64_t>(width);
  const uint64_t rem = table->num_rows % static_cast<uint64_t>(width);
  uint64_t row = 0;
  for (int i = 0; i < width; ++i) {
    Fragment frag;
    frag.shard = home_shard >= 0 ? home_shard : i;
    frag.row_begin = row;
    frag.local.name = table->name;
    frag.local.schema = table->schema;
    frag.local.num_rows = base + (static_cast<uint64_t>(i) < rem ? 1 : 0);
    row += frag.local.num_rows;
    st.fragments.push_back(std::move(frag));
  }

  auto spans_stripe = [&](const Fragment& f) {
    return Status::OutOfRange(
        "allocation spans a shard boundary: fragment of '" + table->name +
        "' does not fit shard " + std::to_string(f.shard) +
        "'s address stripe");
  };
  // Fast precheck: the shard-local allocator is bump-only starting at the
  // first page, so a fragment larger than `stride - page` can never fit its
  // stripe — reject before burning any (unreclaimable) address space.
  for (const Fragment& f : st.fragments) {
    if (f.local.SizeBytes() + Mmu::kPageSize > pool_->config().shard_stride) {
      return spans_stripe(f);
    }
  }

  auto rollback = [&](size_t allocated) {
    for (size_t i = 0; i < allocated; ++i) {
      const Fragment& f = st.fragments[i];
      FV_IGNORE_ERROR(FreeOnShard(f.shard, f.local),
                      "rolling back a partially allocated sharded table");
    }
  };

  for (size_t i = 0; i < st.fragments.size(); ++i) {
    Fragment& f = st.fragments[i];
    const Status s = AllocOnShard(f.shard, &f.local);
    if (!s.ok()) {
      rollback(i);
      return s;
    }
    // The stripe contract (DESIGN.md §13): a fragment never crosses its
    // shard's address stripe. Reject — do not silently split — so the
    // vaddr arithmetic stays bijective.
    if (f.local.vaddr + f.local.SizeBytes() > pool_->config().shard_stride) {
      rollback(i + 1);
      return spans_stripe(f);
    }
  }

  table->vaddr =
      pool_->GlobalVaddr(st.fragments[0].shard, st.fragments[0].local.vaddr);
  tables_[table->vaddr] = std::move(st);
  return Status::OK();
}

auto ShardedClient::Lookup(const FTable& table) const
    -> Result<const ShardedTable*> {
  auto it = tables_.find(table.vaddr);
  if (it == tables_.end()) {
    return Status::NotFound("no sharded table at vaddr " +
                            std::to_string(table.vaddr));
  }
  // Remap guard: a stale handle whose vaddr was freed and handed to a new
  // table must not operate on the new table's memory.
  if (it->second.name != table.name || it->second.num_rows != table.num_rows) {
    return Status::FailedPrecondition(
        "vaddr remapped: handle '" + table.name + "' does not match the "
        "table currently registered at its address ('" + it->second.name +
        "')");
  }
  return &it->second;
}

Status ShardedClient::FreeTableMem(FTable* table) {
  if (!connected()) return Status::FailedPrecondition("not connected");
  if (table == nullptr) return Status::InvalidArgument("null table");
  FV_ASSIGN_OR_RETURN(const ShardedTable* st, Lookup(*table));
  for (const Fragment& frag : st->fragments) {
    FV_RETURN_IF_ERROR(FreeOnShard(frag.shard, frag.local));
  }
  tables_.erase(table->vaddr);
  table->vaddr = 0;
  return Status::OK();
}

Result<TableEntry> ShardedClient::ShareTable(const FTable& table) {
  if (!connected()) return Status::FailedPrecondition("not connected");
  FV_ASSIGN_OR_RETURN(const ShardedTable* st, Lookup(table));
  std::optional<TableEntry> first;
  for (const Fragment& frag : st->fragments) {
    FarviewCluster::LogEntry entry;
    entry.kind = FarviewCluster::LogEntry::Kind::kShare;
    entry.vaddr = frag.local.vaddr;
    const Status shared = ApplyLogged(
        frag.shard, entry, "share",
        [&](FarviewClient& replica, uint64_t) -> Status {
          FV_ASSIGN_OR_RETURN(TableEntry e, replica.ShareTable(frag.local));
          if (!first.has_value()) first = std::move(e);
          return Status::OK();
        });
    if (!shared.ok()) return shared;
  }
  first->virtual_address = table.vaddr;
  first->num_rows = table.num_rows;
  first->size_bytes = table.SizeBytes();
  return *std::move(first);
}

// --- Writes: scattered over shards, mirrored over replicas -------------------

void ShardedClient::TableWriteAsync(
    const FTable& table, const Table& rows,
    std::function<void(Result<SimTime>)> done) {
  Result<const ShardedTable*> st = Lookup(table);
  if (!st.ok()) {
    done(st.status());
    return;
  }
  if (rows.num_rows() != table.num_rows ||
      !rows.schema().Equals(table.schema)) {
    done(Status::InvalidArgument("rows do not match the table handle"));
    return;
  }
  const std::vector<Fragment>& frags = st.value()->fragments;
  if (frags.size() == 1) {
    const Fragment& frag = frags[0];
    ShardStats(frag.shard).RecordFragmentWrite();
    MirrorWrite(frag.shard, frag.local, rows, std::move(done));
    return;
  }

  // Scatter: each shard gets exactly its row range. The slices live in the
  // shared state because the mirror hops read them after the primary ack.
  struct Scatter {
    FanIn fan;
    std::vector<Table> slices;
    std::function<void(Result<SimTime>)> done;
  };
  auto sc = std::make_shared<Scatter>();
  sc->done = std::move(done);
  sc->fan.pending = frags.size();
  const uint32_t width = rows.schema().tuple_width();
  for (const Fragment& frag : frags) {
    const uint8_t* begin = rows.data() + frag.row_begin * width;
    ByteBuffer bytes(begin, begin + frag.local.num_rows * width);
    Result<Table> slice = Table::FromBytes(rows.schema(), std::move(bytes));
    FV_CHECK(slice.ok()) << slice.status().ToString();
    sc->slices.push_back(std::move(slice).value());
  }
  for (size_t i = 0; i < frags.size(); ++i) {
    const Fragment& frag = frags[i];
    ShardStats(frag.shard).RecordFragmentWrite();
    MirrorWrite(frag.shard, frag.local, sc->slices[i],
                [sc](Result<SimTime> r) {
                  if (!sc->fan.Arrive(r.status(), r.ok() ? r.value() : 0)) {
                    return;
                  }
                  if (sc->fan.error.ok()) {
                    sc->done(sc->fan.last_ack);
                  } else {
                    sc->done(sc->fan.error);
                  }
                });
  }
}

Result<SimTime> ShardedClient::TableWrite(const FTable& table,
                                          const Table& rows) {
  return AwaitSync<Result<SimTime>>(pool_->engine(), [&](auto done) {
    TableWriteAsync(table, rows, std::move(done));
  });
}

void ShardedClient::MirrorWrite(int shard, const FTable& local,
                                const Table& rows,
                                std::function<void(Result<SimTime>)> done) {
  FarviewCluster& cluster = pool_->shard(shard);
  // Per-write control blocks recycle through the byte-block pool's size
  // classes (DESIGN.md §8a) so a write-heavy steady state stays off the
  // global allocator.
  auto mw =
      std::allocate_shared<MirroredWrite>(PooledAllocator<MirroredWrite>());
  mw->shard = shard;
  mw->local = &local;
  mw->rows = &rows;
  mw->done = std::move(done);
  FarviewCluster::LogEntry entry;
  entry.kind = FarviewCluster::LogEntry::Kind::kWrite;
  entry.client_id = client_id_;
  entry.vaddr = local.vaddr;
  entry.bytes = rows.size_bytes();
  mw->epoch = cluster.AppendEntry(entry);
  for (int r = 0; r < cluster.num_replicas(); ++r) {
    if (cluster.CanApply(r)) {
      mw->targets.push_back(r);
    } else {
      cluster.MarkMissed(r, mw->epoch);
    }
  }
  if (mw->targets.empty()) {
    // Nothing applied the write: abort the epoch so recovery skips it
    // (otherwise a lone restarted replica would wait forever for a resync
    // source holding bytes that never existed).
    cluster.AbortEntry(mw->epoch);
    auto cb = std::move(mw->done);
    cb(Status::Unavailable("no in-rotation replica for mirrored write"));
    return;
  }
  TryPrimaryWrite(std::move(mw));
}

void ShardedClient::TryPrimaryWrite(std::shared_ptr<MirroredWrite> mw) {
  FarviewCluster& cluster = pool_->shard(mw->shard);
  if (mw->primary_pos >= mw->targets.size()) {
    // Every candidate primary failed: no replica holds the bytes, so the
    // epoch must not be resynced.
    cluster.AbortEntry(mw->epoch);
    auto cb = std::move(mw->done);
    cb(mw->fan.error.ok()
           ? Status::Unavailable("mirrored write failed on every replica")
           : mw->fan.error);
    return;
  }
  const int primary = mw->targets[mw->primary_pos];
  StateOf(mw->shard).Replica(primary).TableWriteAsync(
      *mw->local, *mw->rows, [this, mw, primary](Result<SimTime> res) {
        FarviewCluster& c = pool_->shard(mw->shard);
        if (!res.ok()) {
          if (ClassifyFailure(res.status()) != FailureKind::kHealth) {
            // Not a health signal (e.g. an MMU error on a stale vaddr):
            // the same request would fail on every replica, so fencing
            // the primary — and then each candidate in turn — would empty
            // the rotation over one bad write. No bytes landed anywhere;
            // abort the epoch and report the error to the caller.
            c.AbortEntry(mw->epoch);
            auto cb = std::move(mw->done);
            cb(res.status());
            return;
          }
          // The primary died under the write: record the failover and try
          // the next candidate as primary.
          c.MarkMissed(primary, mw->epoch);
          c.node(primary).stats().RecordFailover();
          mw->fan.Fail(res.status());
          ++mw->primary_pos;
          TryPrimaryWrite(mw);
          return;
        }
        c.MarkApplied(primary, mw->epoch);
        mw->fan.last_ack = res.value();
        // Primary acked: forward to the remaining live replicas in
        // parallel (the primary->secondary mirror hop).
        mw->fan.pending = mw->targets.size() - mw->primary_pos - 1;
        if (mw->fan.pending == 0) {
          auto cb = std::move(mw->done);
          cb(mw->fan.last_ack);
          return;
        }
        for (size_t i = mw->primary_pos + 1; i < mw->targets.size(); ++i) {
          const int secondary = mw->targets[i];
          StateOf(mw->shard).Replica(secondary).TableWriteAsync(
              *mw->local, *mw->rows,
              [this, mw, secondary](Result<SimTime> mirror) {
                FarviewCluster& mc = pool_->shard(mw->shard);
                // A missed mirror converges via resync; the write still
                // committed on the primary. No error classification here —
                // whatever the cause, the primary holds bytes the secondary
                // lacks, and resync from the primary is the repair either
                // way. The fan-in's error is therefore never reported.
                if (mirror.ok()) {
                  mc.MarkApplied(secondary, mw->epoch);
                } else {
                  mc.MarkMissed(secondary, mw->epoch);
                }
                if (mw->fan.Arrive(mirror.status(),
                                   mirror.ok() ? mirror.value() : 0)) {
                  auto cb = std::move(mw->done);
                  cb(mw->fan.last_ack);
                }
              });
        }
      });
}

// --- Reads and offloads: routed per shard, gathered over shards -------------

void ShardedClient::Route(int shard, Verb verb, const FvRequest& request,
                          std::function<void(Result<FvResult>)> done) {
  auto call = std::allocate_shared<RoutedCall>(PooledAllocator<RoutedCall>());
  call->shard = shard;
  call->verb = verb;
  call->request = request;
  call->done = std::move(done);
  IssueRouted(std::move(call));
}

int ShardedClient::PickReplica(int shard, uint64_t tried_mask, Verb verb,
                               bool* probe) {
  FarviewCluster& cluster = pool_->shard(shard);
  Shard& sh = StateOf(shard);
  const int n = cluster.num_replicas();
  for (int i = 0; i < n; ++i) {
    const int r = (sh.rr_cursor + i) % n;
    if ((tried_mask >> r) & 1u) continue;
    if (!cluster.InSync(r)) continue;  // epoch fencing
    if (verb == Verb::kFarview && sh.factory != nullptr &&
        sh.loaded_version[static_cast<size_t>(r)] != sh.version) {
      // Rejoined without the current pipeline (reload failed or is still
      // in flight): operator calls would fail non-retryably, so route
      // them elsewhere; the replica still serves reads.
      continue;
    }
    if (!sh.breakers[static_cast<size_t>(r)]->AllowRequest(probe)) continue;
    sh.rr_cursor = (r + 1) % n;
    return r;
  }
  return -1;
}

void ShardedClient::IssueRouted(std::shared_ptr<RoutedCall> call) {
  FarviewCluster& cluster = pool_->shard(call->shard);
  bool probe = false;
  const int r = PickReplica(call->shard, call->tried_mask, call->verb, &probe);
  if (r < 0) {
    // Fast-fail: every replica is fenced, tripped, or already tried.
    // Counted on replica 0's stats (the shard-level sink). When at least
    // one replica shed the call, report that typed status instead — the
    // pool is healthy but saturated, and the retry-after hint must survive
    // to the caller's backoff (DESIGN.md §15).
    cluster.node(0).stats().RecordFastFail();
    auto cb = std::move(call->done);
    if (!call->shed_error.ok()) {
      cb(std::move(call->shed_error));
      return;
    }
    cb(Status::Unavailable("no in-sync replica available (fast-fail)"));
    return;
  }
  call->tried_mask |= uint64_t{1} << r;
  call->probe_hop = probe;
  cluster.node(r).stats().RecordClusterRequest();
  auto on_done = [this, call, r](Result<FvResult> res) {
    CircuitBreaker& replica_breaker = breaker(call->shard, r);
    // Read before any re-route: a failover hop overwrites `probe_hop`.
    const bool probe_hop = call->probe_hop;
    if (res.ok()) {
      replica_breaker.RecordSuccess(probe_hop);
      const uint64_t bytes = res.value().data.size();
      if (call->verb == Verb::kRead) {
        ShardStats(call->shard).RecordFragmentRead(bytes);
      } else {
        ShardStats(call->shard).RecordFragmentOffload(bytes);
      }
      auto cb = std::move(call->done);
      cb(std::move(res));
      return;
    }
    switch (ClassifyFailure(res.status())) {
      case FailureKind::kShed:
        // The replica is healthy, just refusing work — no breaker penalty,
        // no failover count. Rotate to another replica that may have
        // headroom; remember the typed status so an exhausted rotation
        // reports the shed (with its retry-after hint) rather than a
        // generic fast-fail.
        replica_breaker.RecordShed(probe_hop);
        call->shed_error = res.status();
        IssueRouted(call);
        return;
      case FailureKind::kRequest: {
        // Not a health signal (bad request, schema mismatch): report it,
        // don't penalize the replica. A probe hop still settles its slot
        // as a success — the replica answered, the error is the request's
        // fault — otherwise the slot would leak and a breaker whose every
        // probe drew a bad request would wedge Half-Open forever.
        if (probe_hop) replica_breaker.RecordSuccess(/*probe=*/true);
        auto cb = std::move(call->done);
        cb(std::move(res));
        return;
      }
      case FailureKind::kHealth:
        replica_breaker.RecordFailure(probe_hop);
        pool_->shard(call->shard).node(r).stats().RecordFailover();
        IssueRouted(call);
        return;
    }
  };
  StateOf(call->shard).Replica(r).SubmitAsync(call->verb, call->request,
                                                  std::move(on_done));
}

void ShardedClient::GatherAsync(const FTable& table, Verb verb,
                                bool vectorized, PartialMerger* merger,
                                std::function<void(Result<FvResult>)> done) {
  Result<const ShardedTable*> st = Lookup(table);
  if (!st.ok()) {
    done(st.status());
    return;
  }
  const std::vector<Fragment>& frags = st.value()->fragments;
  if (frags.size() == 1 && merger == nullptr) {
    // Single fragment: plain routing, event-identical to an unsharded pool
    // (the 1-shard identity pin).
    Route(frags[0].shard, verb,
          FarviewClient::ScanRequest(frags[0].local, vectorized),
          std::move(done));
    return;
  }
  // All fragments in parallel; concatenating in fragment order restores row
  // order because the partition is a contiguous range split.
  auto g = std::make_shared<Gather>();
  g->fan.pending = frags.size();
  g->parts.resize(frags.size());
  g->merger = merger;
  g->done = std::move(done);
  for (size_t i = 0; i < frags.size(); ++i) {
    const int shard = frags[i].shard;
    Route(shard, verb, FarviewClient::ScanRequest(frags[i].local, vectorized),
          [this, g, i, shard](Result<FvResult> r) {
            if (r.ok()) {
              if (g->merger != nullptr) {
                ShardStats(shard).RecordPartialGroups(r.value().rows);
              }
              g->parts[i] = std::move(r).value();
            }
            if (!g->fan.Arrive(r.status())) return;
            if (!g->fan.error.ok()) {
              g->done(g->fan.error);
              return;
            }
            FvResult out;
            out.issued_at = g->parts[0]->issued_at;
            out.first_byte_at = g->parts[0]->first_byte_at;
            for (std::optional<FvResult>& part : g->parts) {
              if (g->merger != nullptr) {
                const Status merged = g->merger->Consume(part->data.data(),
                                                         part->data.size());
                if (!merged.ok()) {
                  g->done(merged);
                  return;
                }
              } else {
                out.data.insert(out.data.end(), part->data.begin(),
                                part->data.end());
                out.rows += part->rows;
              }
              out.bytes_on_wire += part->bytes_on_wire;
              out.completed_at = std::max(out.completed_at, part->completed_at);
              out.first_byte_at =
                  std::min(out.first_byte_at, part->first_byte_at);
              out.degraded_raw = out.degraded_raw || part->degraded_raw;
            }
            if (g->merger != nullptr) {
              out.rows = g->merger->num_groups();
              out.data = g->merger->Finalize();
            }
            g->done(std::move(out));
          });
  }
}

void ShardedClient::TableReadAsync(
    const FTable& table, std::function<void(Result<FvResult>)> done) {
  GatherAsync(table, Verb::kRead, /*vectorized=*/false, /*merger=*/nullptr,
              std::move(done));
}

Result<FvResult> ShardedClient::TableRead(const FTable& table) {
  return AwaitSync<Result<FvResult>>(pool_->engine(), [&](auto done) {
    TableReadAsync(table, std::move(done));
  });
}

// --- Operator offload --------------------------------------------------------

void ShardedClient::LoadPipelineAsync(const FTable& table,
                                      PipelineFactory factory,
                                      std::function<void(Status)> done) {
  FV_CHECK(factory != nullptr);
  Result<const ShardedTable*> st = Lookup(table);
  if (!st.ok()) {
    done(st.status());
    return;
  }
  struct Load {
    FanIn fan;
    std::function<void(Status)> done;
    void Arrive(const Status& hop) {
      if (fan.Arrive(hop)) done(fan.error);
    }
  };
  auto ld = std::make_shared<Load>();
  ld->done = std::move(done);
  // One extra count guards the issuing loop: hops failing synchronously
  // cannot settle the load before every hop is out.
  ld->fan.pending = 1;
  for (const Fragment& frag : st.value()->fragments) {
    const int s = frag.shard;
    FarviewCluster& cluster = pool_->shard(s);
    Shard& sh = StateOf(s);
    sh.factory = factory;
    const uint64_t version = ++sh.version;
    bool any = false;
    for (int r = 0; r < cluster.num_replicas(); ++r) {
      if (!cluster.CanApply(r)) continue;
      any = true;
      ++ld->fan.pending;
      Result<Pipeline> pipeline = factory();
      if (!pipeline.ok()) {
        ld->Arrive(pipeline.status());
        continue;
      }
      sh.Replica(r).LoadPipelineAsync(
          std::move(pipeline).value(),
          [alive = alive_, this, ld, s, r, version](Status loaded) {
            if (*alive && loaded.ok()) {
              StateOf(s).loaded_version[static_cast<size_t>(r)] = version;
            }
            ld->Arrive(loaded);
          });
    }
    if (!any) {
      ++ld->fan.pending;
      ld->Arrive(Status::Unavailable("no in-rotation replica for load"));
    }
  }
  ld->Arrive(Status::OK());
}

Status ShardedClient::LoadPipeline(const FTable& table,
                                   PipelineFactory factory) {
  return AwaitSync<Status>(pool_->engine(), [&](auto done) {
    LoadPipelineAsync(table, std::move(factory), std::move(done));
  });
}

void ShardedClient::OffloadAsync(const FTable& table, bool vectorized,
                                 std::function<void(Result<FvResult>)> done) {
  GatherAsync(table, Verb::kFarview, vectorized, /*merger=*/nullptr,
              std::move(done));
}

Result<FvResult> ShardedClient::Offload(const FTable& table, bool vectorized) {
  return AwaitSync<Result<FvResult>>(pool_->engine(), [&](auto done) {
    OffloadAsync(table, vectorized, std::move(done));
  });
}

Result<FvResult> ShardedClient::LoadAndOffload(const FTable& table,
                                               PipelineFactory factory,
                                               bool vectorized,
                                               PartialMerger* merger) {
  return AwaitSync<Result<FvResult>>(pool_->engine(), [&](auto done) {
    LoadPipelineAsync(table, std::move(factory),
                      [this, &table, vectorized, merger,
                       done = std::move(done)](Status loaded) mutable {
                        if (!loaded.ok()) {
                          done(loaded);
                          return;
                        }
                        GatherAsync(table, Verb::kFarview, vectorized, merger,
                                    std::move(done));
                      });
  });
}

void ShardedClient::OnRejoin(int shard, int replica,
                             std::function<void()> done) {
  // Reload the current pipeline recipe when the recovered replica is
  // behind (it missed a LoadPipeline while out of rotation). Pipelines
  // survive the crash itself (configuration flash), so a replica that was
  // current stays current.
  Shard& sh = StateOf(shard);
  if (sh.factory == nullptr ||
      sh.loaded_version[static_cast<size_t>(replica)] == sh.version) {
    done();
    return;
  }
  Result<Pipeline> pipeline = sh.factory();
  if (!pipeline.ok()) {
    // The replica still rejoins (its bytes are in sync) but keeps a stale
    // loaded version, so PickReplica fences it from operator traffic until
    // a later LoadPipeline succeeds. Reads are unaffected.
    FV_LOG(kWarning) << "pipeline factory failed during rejoin of shard "
                     << shard << " replica " << replica << ": "
                     << pipeline.status().ToString()
                     << "; replica serves reads only";
    done();
    return;
  }
  const uint64_t version = sh.version;
  sh.Replica(replica).LoadPipelineAsync(
      std::move(pipeline).value(),
      [alive = alive_, this, shard, replica, version, done](Status loaded) {
        if (!*alive) {
          done();
          return;
        }
        Shard& current = StateOf(shard);
        if (loaded.ok() && version == current.version) {
          current.loaded_version[static_cast<size_t>(replica)] = version;
        } else if (!loaded.ok()) {
          // Same degraded mode as a factory failure: rejoin for reads,
          // fenced from operator routing while the pipeline is stale.
          FV_LOG(kWarning) << "pipeline reload failed during rejoin of shard "
                           << shard << " replica " << replica << ": "
                           << loaded.ToString()
                           << "; replica serves reads only";
        }
        done();
      });
}

Result<FvResult> ShardedClient::FvSelect(const FTable& table,
                                         std::vector<Predicate> predicates,
                                         std::vector<int> projection,
                                         bool vectorized) {
  const Schema schema = table.schema;
  PipelineFactory factory = [schema, predicates, projection]() {
    PipelineBuilder builder(schema);
    builder.Select(predicates);
    if (!projection.empty()) builder.Project(projection);
    return builder.Build();
  };
  return LoadAndOffload(table, std::move(factory), vectorized,
                        /*merger=*/nullptr);
}

Result<FvResult> ShardedClient::FvGroupBy(const FTable& table,
                                          std::vector<int> key_columns,
                                          std::vector<AggSpec> aggs,
                                          const GroupingConfig& config) {
  FV_ASSIGN_OR_RETURN(PartialMerger merger,
                      PartialMerger::Create(table.schema, key_columns, aggs));
  // The shards run the decomposable rewrite (AVG -> SUM + COUNT); the
  // merge reassembles the requested aggregates at the client.
  const std::vector<AggSpec> partials = PartialAggSpecs(aggs, nullptr);
  const Schema schema = table.schema;
  PipelineFactory factory = [schema, key_columns, partials, config]() {
    return PipelineBuilder(schema).GroupBy(key_columns, partials, config)
        .Build();
  };
  return LoadAndOffload(table, std::move(factory), /*vectorized=*/false,
                        &merger);
}

Result<FvResult> ShardedClient::FvJoin(const FTable& probe, int probe_key,
                                       const FTable& build, int build_key) {
  FV_RETURN_IF_ERROR(Lookup(probe).status());
  FV_ASSIGN_OR_RETURN(const ShardedTable* build_st, Lookup(build));
  // Repartition: the build side follows the probe data. Gather its
  // fragments to the client, then broadcast the whole build table to every
  // probe shard inside the join pipeline (it must fit the region's on-chip
  // hash structure, as in the single-node FvJoinSmall).
  FV_ASSIGN_OR_RETURN(FvResult build_read, TableRead(build));
  for (const Fragment& frag : build_st->fragments) {
    ShardStats(frag.shard).RecordRepartitionBytes(frag.local.SizeBytes());
  }
  FV_ASSIGN_OR_RETURN(Table build_rows,
                      Table::FromBytes(build.schema,
                                       std::move(build_read.data)));
  auto shared_build = std::make_shared<Table>(std::move(build_rows));
  const Schema schema = probe.schema;
  PipelineFactory factory = [schema, probe_key, shared_build, build_key]() {
    return PipelineBuilder(schema)
        .HashJoinSmall(probe_key, *shared_build, build_key)
        .Build();
  };
  return LoadAndOffload(probe, std::move(factory), /*vectorized=*/false,
                        /*merger=*/nullptr);
}

}  // namespace farview
