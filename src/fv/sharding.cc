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
  for (int s = 0; s < pool_->num_shards(); ++s) {
    Result<FarviewCluster::ConnectionPtr> conn =
        pool_->shard(s).Connect(client_id_);
    if (!conn.ok()) {
      CloseConnection();
      return conn.status();
    }
    connections_.push_back(std::move(conn).value());
  }
  return Status::OK();
}

void ShardedClient::CloseConnection() {
  for (int s = 0; s < static_cast<int>(connections_.size()); ++s) {
    pool_->shard(s).Disconnect(*ConnectionTo(s));
  }
  connections_.clear();
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
      FV_IGNORE_ERROR(
          pool_->shard(f.shard).Free(*ConnectionTo(f.shard), f.local.vaddr),
          "rolling back a partially allocated sharded table");
    }
  };

  for (size_t i = 0; i < st.fragments.size(); ++i) {
    Fragment& f = st.fragments[i];
    Result<uint64_t> vaddr = pool_->shard(f.shard).Alloc(
        *ConnectionTo(f.shard), f.local.SizeBytes());
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
    FV_RETURN_IF_ERROR(
        pool_->shard(frag.shard).Free(*ConnectionTo(frag.shard),
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
    pool_->shard(frag.shard).Write(ConnectionTo(frag.shard), frag.local.vaddr,
                                   rows.data(), rows.size_bytes(),
                                   std::move(done));
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
        ConnectionTo(frag.shard), frag.local.vaddr, slice.data(),
        slice.size_bytes(), [sc](Result<SimTime> r) {
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
    pool_->shard(frags[0].shard)
        .Route(ConnectionTo(frags[0].shard), verb,
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
    pool_->shard(shard).Route(
        ConnectionTo(shard), verb,
        FarviewClient::ScanRequest(frags[i].local, vectorized),
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
  Result<const ShardedTable*> st = Lookup(table);
  if (!st.ok()) {
    done(st.status());
    return;
  }
  auto load = std::make_shared<PipelineLoad>(std::move(done));
  for (const Fragment& frag : st.value()->fragments) {
    pool_->shard(frag.shard).LoadPipeline(ConnectionTo(frag.shard), factory,
                                          load);
  }
  load->Arrive(Status::OK());
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
