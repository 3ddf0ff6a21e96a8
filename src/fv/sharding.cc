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

/// Fan-in of parallel hops (scatter, gather, load): counts the outstanding
/// hops down, keeps the first error and the latest ack.
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

/// One routed call (DESIGN.md §7, §12). `token` names the live attempt:
/// completion, timeout, backoff and fallback events carry the token they
/// were issued under, and one whose token is stale belongs to an attempt
/// the call already abandoned.
struct ShardedClient::RoutedCall {
  int shard = 0;
  Verb verb = Verb::kRead;
  FvRequest request;
  uint64_t tried_mask = 0;
  int replica = 0;   ///< replica of the current hop
  int attempts = 0;  ///< attempts issued on the current hop
  /// True while the current hop occupies a Half-Open probe slot of its
  /// replica's breaker; the hop's outcome must settle that slot.
  bool probe_hop = false;
  uint64_t token = 0;
  /// Liveness flag of the connection the call was issued on.
  std::shared_ptr<bool> alive;
  std::function<void(Result<FvResult>)> done;

  /// Settles the caller; every event of the call still pending goes stale.
  void Settle(Result<FvResult> res) {
    ++token;
    auto cb = std::move(done);
    cb(std::move(res));
  }

  /// Whether the event issued under `event_token` may act: its token is
  /// still live and the connection open. The first live event to find the
  /// connection closed settles the caller instead, touching no routing
  /// state (it is gone).
  bool Live(uint64_t event_token) {
    if (event_token != token) return false;
    if (*alive) return true;
    Settle(Status::FailedPrecondition("connection closed mid-call"));
    return false;
  }
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
  alive_ = std::make_shared<bool>(true);
  shards_.resize(static_cast<size_t>(pool_->num_shards()));
  for (int s = 0; s < pool_->num_shards(); ++s) {
    FarviewCluster& cluster = pool_->shard(s);
    Shard& sh = StateOf(s);
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
      Result<QPair*> qp = cluster.node(r).Connect(client_id_);
      if (!qp.ok()) {
        // Nothing stays connected: a partial routing state would make
        // connected() true while data-path methods index past its end.
        CloseConnection();
        return qp.status();
      }
      sh.qp_ids.push_back(qp.value()->qp_id);
    }
  }
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
    FarviewCluster& cluster = pool_->shard(s);
    const Shard& sh = StateOf(s);
    cluster.RemoveRejoinHook(sh.rejoin_hook);
    for (size_t r = 0; r < sh.qp_ids.size(); ++r) {
      const Status closed =
          cluster.node(static_cast<int>(r)).Disconnect(sh.qp_ids[r]);
      FV_CHECK(closed.ok()) << closed.ToString();
    }
  }
  shards_.clear();
  tables_.clear();
}

NodeStats& ShardedClient::ShardStats(int shard) {
  // Shard-level counters live on the shard's primary node: the stable home
  // replica 0 plays for reliability counters too.
  return pool_->shard(shard).node(0).stats();
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
      FV_IGNORE_ERROR(pool_->shard(f.shard).Free(client_id_, f.local.vaddr),
                      "rolling back a partially allocated sharded table");
    }
  };

  for (size_t i = 0; i < st.fragments.size(); ++i) {
    Fragment& f = st.fragments[i];
    Result<uint64_t> vaddr =
        pool_->shard(f.shard).Alloc(client_id_, f.local.SizeBytes());
    if (!vaddr.ok()) {
      rollback(i);
      return vaddr.status();
    }
    f.local.vaddr = vaddr.value();
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
    FV_RETURN_IF_ERROR(pool_->shard(frag.shard).Free(client_id_,
                                                     frag.local.vaddr));
  }
  tables_.erase(table->vaddr);
  table->vaddr = 0;
  return Status::OK();
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
    pool_->shard(frag.shard).Write(client_id_, StateOf(frag.shard).qp_ids,
                                   alive_, frag.local.vaddr, rows.data(),
                                   rows.size_bytes(), std::move(done));
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
    const Table& slice = sc->slices[i];
    pool_->shard(frag.shard).Write(
        client_id_, StateOf(frag.shard).qp_ids, alive_, frag.local.vaddr,
        slice.data(), slice.size_bytes(), [sc](Result<SimTime> r) {
          if (!sc->fan.Arrive(r.status(), r.ok() ? r.value() : 0)) return;
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

// --- Reads and offloads: routed per shard, gathered over shards -------------

void ShardedClient::Route(int shard, Verb verb, const FvRequest& request,
                          std::function<void(Result<FvResult>)> done) {
  auto call = std::allocate_shared<RoutedCall>(PooledAllocator<RoutedCall>());
  call->shard = shard;
  call->verb = verb;
  call->request = request;
  call->alive = alive_;
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
    // Counted on replica 0's stats (the shard-level sink).
    cluster.node(0).stats().RecordFastFail();
    call->Settle(
        Status::Unavailable("no in-sync replica available (fast-fail)"));
    return;
  }
  call->tried_mask |= uint64_t{1} << r;
  call->replica = r;
  call->attempts = 0;
  call->probe_hop = probe;
  cluster.node(r).stats().RecordClusterRequest();
  StartAttempt(std::move(call));
}

void ShardedClient::StartAttempt(std::shared_ptr<RoutedCall> call) {
  const int r = call->replica;
  FarviewNode& node = pool_->shard(call->shard).node(r);
  const RetryPolicy& rp = node.config().retry;
  // A hop's first attempt follows the breaker's admission at this instant,
  // so only a retry can find the breaker Open. Then the replica is known
  // dead: end the hop now instead of burning the rest of its timeout and
  // backoff schedule, and fail over at once (DESIGN.md §12).
  if (call->attempts > 0 && breaker(call->shard, r).BlocksAttempts()) {
    node.stats().RecordFastFail();
    FinishHop(std::move(call),
              Status::Unavailable("node circuit open (fast-fail)"));
    return;
  }
  ++call->attempts;
  const uint64_t token = ++call->token;
  auto on_result = [this, call, replica = &node, token](Result<FvResult> res) {
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
  const int qp_id = StateOf(call->shard).QpId(r);
  if (call->verb == Verb::kRead) {
    node.TableRead(qp_id, call->request.vaddr, call->request.len,
                   std::move(on_result));
  } else {
    node.FarviewRequest(qp_id, call->request, std::move(on_result));
  }
  if (!rp.enabled) return;
  // The attempt's completion timeout. A resolved attempt (either way) bumps
  // the token, turning this event into a no-op.
  node.engine()->ScheduleAfter(
      rp.completion_timeout, [this, call, replica = &node, token]() {
        if (!call->Live(token)) return;
        replica->stats().RecordTimeout();
        AttemptFailed(call, Status::DeadlineExceeded(
                                "no completion within the attempt deadline"));
      });
}

void ShardedClient::AttemptFailed(std::shared_ptr<RoutedCall> call,
                                  const Status& error) {
  const uint64_t token = ++call->token;  // the attempt's events go stale
  const int r = call->replica;
  FarviewNode& node = pool_->shard(call->shard).node(r);
  const RetryPolicy& rp = node.config().retry;
  // The call is live, so the connection and its queue pairs are open.
  const QPair& qp = *node.FindQPair(StateOf(call->shard).QpId(r));
  // Graceful degradation: when the region itself is faulted, retrying into
  // it cannot succeed until it heals — serve base-table bytes raw instead
  // (the RNIC path needs no region).
  if (rp.raw_read_fallback && qp.region_id >= 0 &&
      node.region(qp.region_id).faulted()) {
    node.stats().RecordFallback();
    node.RawRead(qp.qp_id, call->request.vaddr, call->request.len,
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
  node.stats().RecordRetry();
  node.engine()->ScheduleAfter(backoff, [this, call, token]() {
    if (!call->Live(token)) return;
    StartAttempt(call);
  });
}

void ShardedClient::FinishHop(std::shared_ptr<RoutedCall> call,
                              Result<FvResult> res) {
  ++call->token;  // no event of this hop may act after it ends
  const int r = call->replica;
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
    call->Settle(std::move(res));
    return;
  }
  if (IsHealthFailure(res.status())) {
    replica_breaker.RecordFailure(probe_hop);
    pool_->shard(call->shard).node(r).stats().RecordFailover();
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
            if (g->merger == nullptr) {
              // One allocation, so each fragment's bytes are copied once.
              size_t total = 0;
              for (const std::optional<FvResult>& part : g->parts) {
                total += part->data.size();
              }
              out.data.reserve(total);
            }
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
      if (!cluster.InSync(r)) continue;
      any = true;
      ++ld->fan.pending;
      Result<Pipeline> pipeline = factory();
      if (!pipeline.ok()) {
        ld->Arrive(pipeline.status());
        continue;
      }
      cluster.node(r).LoadPipeline(
          sh.QpId(r), std::move(pipeline).value(),
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
  pool_->shard(shard).node(replica).LoadPipeline(
      sh.QpId(replica), std::move(pipeline).value(),
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
