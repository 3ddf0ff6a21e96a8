// shard_failover: a ShardedPool of 4 shards x 2 replicas behind one
// ShardedClient with client retries on. Segments of 64 KiB - 1 MiB are
// striped over all four shards; Poisson traffic: 75% gathered reads of a
// read-only segment, 25% scattered, mirrored rewrites of a whole writable
// segment. Shard 0 replica 0 crashes at 30% of the horizon and restarts at
// 50%, which forces a resync. Read bytes offered are `load` x the egress
// links of one replica per shard. Host and simulated time go to the client,
// cluster, replication and sharding routing layers; no operators run.
//
// Segments stand in for the rows of larger tables: the sharded client
// reads and writes whole tables, and each shard fragment occupies at least
// one 2 MiB page per replica, so segment count (not bytes) sets the
// footprint of the eight nodes.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "fv/sharding.h"
#include "workloads.h"

namespace fvbench {
namespace {

using farview::ByteBuffer;
using farview::FarviewNode;
using farview::FTable;
using farview::FvResult;
using farview::kKiB;
using farview::kMiB;
using farview::Result;
using farview::Schema;
using farview::ShardedClient;
using farview::ShardedConfig;
using farview::ShardedPool;
using farview::Table;

constexpr int kShards = 4;
constexpr int kReplicas = 2;
constexpr uint64_t kRow = 64;
constexpr uint64_t kMinSeg = 64 * kKiB;
constexpr uint64_t kMaxSeg = 1 * kMiB;
constexpr double kReadShare = 0.75;
constexpr uint64_t kFullCheckEvery = 8;

class ShardFailover : public Workload {
 public:
  ShardFailover(uint64_t seed, Size size)
      : seed_(seed),
        read_segs_(size == Size::kFull ? 16 : 4),
        write_segs_(size == Size::kFull ? 16 : 4),
        rng_(MixSeed(seed, 4)) {}

  void Setup(SetupTimes* times) override {
    const uint64_t g0 = HostNanos();
    const int segs = read_segs_ + write_segs_;
    std::vector<Table> rows;
    const Schema schema = Schema::DefaultWideRow();
    farview::Rng jitter(MixSeed(seed_, 5));
    for (int i = 0; i < segs; ++i) {
      // Sizes sit on a fixed log-spaced grid (read and write segments
      // interleaved), less 0-15 rows per shard drawn from the seed: every
      // seed offers the same size mix, yet an unqueued read's latency, which
      // the median can land on, differs from seed to seed.
      const int rank = i < read_segs_ ? 2 * i : 2 * (i - read_segs_) + 1;
      const uint64_t len =
          LogUniform((rank + 0.5) / segs, kMinSeg, kMaxSeg, kShards * kRow) -
          jitter.NextBelow(16) * kShards * kRow;
      ByteBuffer bytes(len);
      FillContent(SegKey(i), 0, bytes.data(), len);
      Result<Table> t = Table::FromBytes(schema, std::move(bytes));
      FV_CHECK(t.ok());
      rows.push_back(std::move(t).value());
    }
    payload_.resize(2 * kMaxSeg);
    FillContent(MixSeed(seed_, 6), 0, payload_.data(), payload_.size());
    const uint64_t g1 = HostNanos();

    ShardedConfig sc;
    sc.num_shards = kShards;
    sc.cluster.num_replicas = kReplicas;
    // One 2 MiB page per segment fragment on every node, plus slack.
    sc.cluster.node.dram.channel_capacity = (segs + 4) * kMiB;
    sc.cluster.node.retry.enabled = true;
    sc.cluster.node.submission_queue_depth = 64;
    pool_ = std::make_unique<ShardedPool>(&engine_, sc);
    client_ = std::make_unique<ShardedClient>(pool_.get(), 1);
    FV_CHECK(client_->OpenConnection().ok());
    for (int i = 0; i < segs; ++i) {
      FTable ft;
      ft.name = std::to_string(i);
      ft.schema = schema;
      ft.num_rows = rows[i].num_rows();
      FV_CHECK(client_->AllocTableMem(&ft).ok());
      FV_CHECK(client_->TableWrite(ft, rows[i]).ok());
      segs_.push_back(ft);
    }
    for (int i = read_segs_; i < segs; ++i) {
      shadow_.push_back(rows[i].bytes());
    }
    busy_.assign(write_segs_, false);
    times->gen_s += HostSeconds(g0, g1);
    times->upload_s += HostSeconds(g1, HostNanos());
  }

  void Start(SimTime start, SimTime horizon, double load,
             Recorder* rec) override {
    rec_ = rec;
    double mean_read = 0;
    for (int i = 0; i < read_segs_; ++i) {
      mean_read += static_cast<double>(segs_[i].SizeBytes());
    }
    mean_read /= read_segs_;
    const double read_bytes_per_s =
        load * kShards * farview::GbpsToBytesPerSec(100.0);
    const double ops_per_s = read_bytes_per_s / mean_read / kReadShare;
    stream_ = std::make_unique<ArrivalStream>(
        &engine_, MixSeed(seed_, 400), ops_per_s, start, start + horizon,
        [this](SimTime due) { Arrive(due); });
    FarviewNode* victim = &pool_->shard(0).node(0);
    engine_.ScheduleAt(start + horizon * 3 / 10,
                       [victim]() { victim->CrashNow(); });
    engine_.ScheduleAt(start + horizon / 2,
                       [victim]() { victim->RestartNow(); });
  }

  farview::sim::Engine& engine() override { return engine_; }
  std::vector<FarviewNode*> nodes() override {
    std::vector<FarviewNode*> out;
    for (int s = 0; s < kShards; ++s) {
      for (int r = 0; r < kReplicas; ++r) {
        out.push_back(&pool_->shard(s).node(r));
      }
    }
    return out;
  }
  int connections() const override { return kShards * kReplicas; }

  std::string Verify() override {
    if (!mismatch_.empty()) return mismatch_;
    if (full_checks_ == 0) return "no read was checked in full";
    if (!pool_->shard(0).InSync(0)) {
      return "shard 0 replica 0 never rejoined after its restart";
    }
    // A final gathered read of every segment: read-only segments hold the
    // generated bytes, writable ones the last acknowledged write.
    for (size_t i = 0; i < segs_.size(); ++i) {
      Result<FvResult> back = client_->TableRead(segs_[i]);
      if (!back.ok()) {
        return "final read of segment " + std::to_string(i) +
               " failed: " + back.status().ToString();
      }
      const ByteBuffer& data = back.value().data;
      const bool ok =
          static_cast<int>(i) < read_segs_
              ? data.size() == segs_[i].SizeBytes() &&
                    MatchesContent(SegKey(static_cast<int>(i)), 0,
                                   data.data(), data.size())
              : data == shadow_[i - read_segs_];
      if (!ok) {
        return "segment " + std::to_string(i) +
               " differs from its shadow after the failover and resync";
      }
    }
    return "";
  }

  void Replay(ReplayReport* out) override {
    // Each shard's allocator is bump-only and every segment puts one
    // single-page fragment on every shard, so a segment's fragments share
    // its shard-local address.
    ByteBuffer buf;
    uint64_t bytes = 0;
    const uint64_t t0 = HostNanos();
    for (int pass = 0; pass < 8; ++pass) {
      for (int i = 0; i < read_segs_; ++i) {
        const uint64_t rows = segs_[i].num_rows;
        const uint64_t local = pool_->LocalVaddr(segs_[i].vaddr);
        for (int s = 0; s < kShards; ++s) {
          const uint64_t len =
              (rows / kShards + (static_cast<uint64_t>(s) < rows % kShards))
              * kRow;
          buf.clear();
          FV_CHECK(pool_->shard(s).node(0).mmu()
                       .ReadInto(1, local, len, &buf).ok());
          bytes += len;
        }
      }
    }
    const double sec = HostSeconds(t0, HostNanos());
    out->mem_copy_gbps = sec > 0 ? static_cast<double>(bytes) / sec / 1e9 : 0;
  }

 private:
  uint64_t SegKey(int i) const { return MixSeed(seed_, 2000 + i); }

  void Arrive(SimTime due) {
    if (rng_.NextDouble() >= kReadShare) {
      // Writes go to an idle writable segment, so two writes to one
      // segment never race across replicas; when every writable segment
      // is busy the arrival becomes a read.
      const int w = static_cast<int>(rng_.NextBelow(write_segs_));
      for (int i = 0; i < write_segs_; ++i) {
        const int cand = (w + i) % write_segs_;
        if (!busy_[cand]) {
          Write(cand, due);
          return;
        }
      }
    }
    Read(static_cast<int>(rng_.NextBelow(read_segs_)), due);
  }

  void Read(int i, SimTime due) {
    Recorder::Op op = rec_->Begin(OpClass::kMeasured, due);
    const uint64_t h0 = rec_->timing_submits() ? HostNanos() : 0;
    client_->TableReadAsync(segs_[i], [this, op, i](Result<FvResult> r) {
      if (!r.ok()) {
        rec_->Fail(op, r.status());
        return;
      }
      const ByteBuffer& data = r.value().data;
      const uint64_t len = segs_[i].SizeBytes();
      bool ok = data.size() == len &&
                MatchesContent(SegKey(i), 0, data.data(), kRow) &&
                MatchesContent(SegKey(i), len - kRow,
                               data.data() + len - kRow, kRow);
      if (ok && op.seq % kFullCheckEvery == 0) {
        ok = MatchesContent(SegKey(i), 0, data.data(), len);
        ++full_checks_;
      }
      if (!ok && mismatch_.empty()) {
        mismatch_ = "gathered read of segment " + std::to_string(i) +
                    " differs from the generated bytes";
      }
      rec_->Complete(op, r.value().completed_at, data.size());
    });
    if (h0 != 0) rec_->RouteSubmit(op, HostNanos() - h0);
  }

  void Write(int w, SimTime due) {
    Recorder::Op op = rec_->Begin(OpClass::kWrite, due);
    const FTable& seg = segs_[read_segs_ + w];
    const uint64_t len = seg.SizeBytes();
    const uint64_t src =
        rng_.NextBelow((payload_.size() - len) / kRow + 1) * kRow;
    const uint8_t* begin = payload_.data() + src;
    Result<Table> rows =
        Table::FromBytes(seg.schema, ByteBuffer(begin, begin + len));
    FV_CHECK(rows.ok());
    shadow_[w].assign(begin, begin + len);
    busy_[w] = true;
    const uint64_t h0 = rec_->timing_submits() ? HostNanos() : 0;
    // Every segment spans all shards, so the client copies each shard's
    // slice before returning and `rows` may go out of scope.
    client_->TableWriteAsync(seg, rows.value(),
                             [this, op, w, len](Result<SimTime> r) {
                               busy_[w] = false;
                               if (!r.ok()) {
                                 rec_->Fail(op, r.status());
                                 return;
                               }
                               rec_->Complete(op, r.value(), len);
                             });
    if (h0 != 0) rec_->RouteSubmit(op, HostNanos() - h0);
  }

  uint64_t seed_;
  int read_segs_;
  int write_segs_;
  farview::Rng rng_;
  farview::sim::Engine engine_;
  std::unique_ptr<ShardedPool> pool_;
  std::unique_ptr<ShardedClient> client_;
  std::vector<FTable> segs_;
  std::vector<ByteBuffer> shadow_;
  std::vector<bool> busy_;
  ByteBuffer payload_;
  std::unique_ptr<ArrivalStream> stream_;
  Recorder* rec_ = nullptr;
  uint64_t full_checks_ = 0;
  std::string mismatch_;
};

}  // namespace

std::unique_ptr<Workload> MakeShardFailover(uint64_t seed, Size size) {
  return std::make_unique<ShardFailover>(seed, size);
}

}  // namespace fvbench
