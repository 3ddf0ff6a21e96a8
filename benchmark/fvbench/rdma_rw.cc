// rdma_rw: plain one-sided reads and writes on one node, no operators.
//
// Six dedicated connections, one 64 MiB table each (384 MiB in total, more
// than the host's last-level cache and well inside node DRAM). Poisson
// traffic: 80% reads through FarviewClient::TableReadAsync over each
// table's read-only part, 20% writes through FarviewNode::TableWrite into
// its write area, sizes log-uniform in [4 KiB, 1 MiB]. Read bytes offered
// are `load` x the 100 Gb/s egress link. Host time goes to the event core,
// the network and memory stacks and per-request overhead; the writes add
// the ingress link and the MMU write path.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "fv/client.h"
#include "workloads.h"

namespace fvbench {
namespace {

using farview::ByteBuffer;
using farview::FarviewClient;
using farview::FarviewConfig;
using farview::FarviewNode;
using farview::FTable;
using farview::FvResult;
using farview::kKiB;
using farview::kMiB;
using farview::Result;
using farview::Schema;
using farview::Table;

constexpr int kTables = 6;
constexpr uint64_t kRow = 64;
constexpr uint64_t kMinOp = 4 * kKiB;
constexpr uint64_t kMaxOp = 1 * kMiB;
constexpr double kReadShare = 0.8;
/// Every read's first and last row are checked against the generated
/// content; every kFullCheckEvery-th read is checked in full.
constexpr uint64_t kFullCheckEvery = 8;
/// Ranges remembered for the Mmu::ReadInto replay probe.
constexpr size_t kReplayRanges = 256;

class RdmaRw : public Workload {
 public:
  RdmaRw(uint64_t seed, Size size)
      : seed_(seed),
        table_bytes_(size == Size::kFull ? 64 * kMiB : 4 * kMiB),
        write_bytes_(size == Size::kFull ? 8 * kMiB : 1 * kMiB),
        rng_(MixSeed(seed, 1)) {}

  void Setup(SetupTimes* times) override {
    FarviewConfig config;
    // Functional backing sized to the tables (timing-neutral).
    config.dram.channel_capacity =
        (table_bytes_ * kTables / 2 + 16 * kMiB) / (2 * kMiB) * (2 * kMiB);
    config.submission_queue_depth = 64;
    node_ = std::make_unique<FarviewNode>(&engine_, config);
    const Schema schema = Schema::DefaultWideRow();
    for (int t = 0; t < kTables; ++t) {
      clients_.push_back(std::make_unique<FarviewClient>(node_.get(), t + 1));
      FV_CHECK(clients_.back()->OpenConnection().ok());
    }
    for (int t = 0; t < kTables; ++t) {
      const uint64_t g0 = HostNanos();
      ByteBuffer bytes(table_bytes_);
      FillContent(TableKey(t), 0, bytes.data(), table_bytes_);
      Result<Table> rows = Table::FromBytes(schema, std::move(bytes));
      FV_CHECK(rows.ok()) << rows.status().ToString();
      const uint64_t g1 = HostNanos();
      FTable ft;
      ft.name = std::to_string(t);
      ft.schema = schema;
      ft.num_rows = table_bytes_ / kRow;
      FV_CHECK(clients_[t]->AllocTableMem(&ft).ok());
      FV_CHECK(clients_[t]->TableWrite(ft, rows.value()).ok());
      tables_.push_back(ft);
      // The write area's shadow starts as the generated bytes.
      const uint8_t* area = rows.value().data() + ReadOnlyBytes();
      shadow_.emplace_back(area, area + write_bytes_);
      times->gen_s += HostSeconds(g0, g1);
      times->upload_s += HostSeconds(g1, HostNanos());
    }
    // Write payloads are windows of one random pool, so every write
    // carries bytes different from what it overwrites.
    payload_.resize(2 * kMaxOp);
    FillContent(MixSeed(seed_, 2), 0, payload_.data(), payload_.size());
  }

  void Start(SimTime start, SimTime horizon, double load,
             Recorder* rec) override {
    rec_ = rec;
    const double read_bytes_per_s =
        load * farview::GbpsToBytesPerSec(100.0);
    const double ops_per_s =
        read_bytes_per_s / LogUniformMean(kMinOp, kMaxOp) / kReadShare;
    for (int t = 0; t < kTables; ++t) {
      streams_.push_back(std::make_unique<ArrivalStream>(
          &engine_, MixSeed(seed_, 100 + t), ops_per_s / kTables, start,
          start + horizon, [this, t](SimTime due) { Arrive(t, due); }));
    }
  }

  farview::sim::Engine& engine() override { return engine_; }
  std::vector<FarviewNode*> nodes() override { return {node_.get()}; }
  int connections() const override { return kTables; }

  std::string Verify() override {
    if (!mismatch_.empty()) return mismatch_;
    // Read the write areas back through the data path after the drain:
    // every acknowledged write must be there, in submission order.
    for (int t = 0; t < kTables; ++t) {
      FTable area = tables_[t];
      area.vaddr += ReadOnlyBytes();
      area.num_rows = write_bytes_ / kRow;
      Result<FvResult> back = clients_[t]->TableRead(area);
      if (!back.ok()) return "write-area read-back failed: " +
                             back.status().ToString();
      const ByteBuffer& want = shadow_[t];
      if (back.value().data.size() != want.size() ||
          std::memcmp(back.value().data.data(), want.data(), want.size()) !=
              0) {
        return "table " + std::to_string(t) +
               ": write area differs from the shadow after drain";
      }
    }
    if (full_checks_ == 0) return "no read was checked in full";
    return "";
  }

  void Replay(ReplayReport* out) override {
    ByteBuffer buf;
    uint64_t bytes = 0;
    const uint64_t t0 = HostNanos();
    for (int pass = 0; pass < 8; ++pass) {
      for (const Range& r : replay_) {
        buf.clear();
        FV_CHECK(node_->mmu()
                     .ReadInto(r.client, tables_[r.table].vaddr + r.offset,
                               r.len, &buf)
                     .ok());
        bytes += r.len;
      }
    }
    const double s = HostSeconds(t0, HostNanos());
    out->mem_copy_gbps = s > 0 ? static_cast<double>(bytes) / s / 1e9 : 0;
  }

 private:
  struct Range {
    int table = 0;
    int client = 0;
    uint64_t offset = 0;
    uint64_t len = 0;
  };

  uint64_t TableKey(int t) const { return MixSeed(seed_, 1000 + t); }
  uint64_t ReadOnlyBytes() const { return table_bytes_ - write_bytes_; }

  void Arrive(int t, SimTime due) {
    const uint64_t len = LogUniform(rng_.NextDouble(), kMinOp, kMaxOp, kRow);
    if (rng_.NextDouble() < kReadShare) {
      const uint64_t off =
          rng_.NextBelow((ReadOnlyBytes() - len) / kRow + 1) * kRow;
      Read(t, due, off, len);
    } else {
      const uint64_t off =
          rng_.NextBelow((write_bytes_ - len) / kRow + 1) * kRow;
      Write(t, due, off, len);
    }
  }

  void Read(int t, SimTime due, uint64_t off, uint64_t len) {
    Recorder::Op op = rec_->Begin(OpClass::kMeasured, due);
    if (replay_.size() < kReplayRanges) {
      replay_.push_back(Range{t, t + 1, off, len});
    }
    FTable sub = tables_[t];
    sub.vaddr += off;
    sub.num_rows = len / kRow;
    const uint64_t h0 = rec_->timing_submits() ? HostNanos() : 0;
    clients_[t]->TableReadAsync(
        sub, [this, op, t, off, len](Result<FvResult> r) {
          if (!r.ok()) {
            rec_->Fail(op, r.status());
            return;
          }
          CheckRead(op, t, off, len, r.value().data);
          rec_->Complete(op, r.value().completed_at, r.value().data.size());
        });
    if (h0 != 0) rec_->RouteSubmit(op, HostNanos() - h0);
  }

  void CheckRead(const Recorder::Op& op, int t, uint64_t off, uint64_t len,
                 const ByteBuffer& data) {
    const uint64_t key = TableKey(t);
    bool ok = data.size() == len &&
              MatchesContent(key, off, data.data(), kRow) &&
              MatchesContent(key, off + len - kRow, data.data() + len - kRow,
                             kRow);
    if (ok && op.seq % kFullCheckEvery == 0) {
      ok = MatchesContent(key, off, data.data(), len);
      ++full_checks_;
    }
    if (!ok && mismatch_.empty()) {
      mismatch_ = "table " + std::to_string(t) + ": read of " +
                  std::to_string(len) + " B at offset " + std::to_string(off) +
                  " differs from the generated bytes";
    }
  }

  void Write(int t, SimTime due, uint64_t off, uint64_t len) {
    Recorder::Op op = rec_->Begin(OpClass::kWrite, due);
    const uint64_t src = rng_.NextBelow((payload_.size() - len) / kRow + 1) *
                         kRow;
    // The node applies the bytes when the verb is posted, so the shadow
    // follows submission order.
    std::memcpy(shadow_[t].data() + off, payload_.data() + src, len);
    const uint64_t h0 = rec_->timing_submits() ? HostNanos() : 0;
    node_->TableWrite(clients_[t]->qp()->qp_id,
                      tables_[t].vaddr + ReadOnlyBytes() + off,
                      payload_.data() + src, len,
                      [this, op, len](Result<SimTime> r) {
                        if (!r.ok()) {
                          rec_->Fail(op, r.status());
                          return;
                        }
                        rec_->Complete(op, r.value(), len);
                      });
    if (h0 != 0) rec_->RouteSubmit(op, HostNanos() - h0);
  }

  uint64_t seed_;
  uint64_t table_bytes_;
  uint64_t write_bytes_;
  farview::Rng rng_;
  farview::sim::Engine engine_;
  std::unique_ptr<FarviewNode> node_;
  std::vector<std::unique_ptr<FarviewClient>> clients_;
  std::vector<FTable> tables_;
  std::vector<ByteBuffer> shadow_;
  ByteBuffer payload_;
  std::vector<std::unique_ptr<ArrivalStream>> streams_;
  Recorder* rec_ = nullptr;
  std::vector<Range> replay_;
  uint64_t full_checks_ = 0;
  std::string mismatch_;
};

}  // namespace

std::unique_ptr<Workload> MakeRdmaRw(uint64_t seed, Size size) {
  return std::make_unique<RdmaRw>(seed, size);
}

}  // namespace fvbench
