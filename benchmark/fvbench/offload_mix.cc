// offload_mix: six dynamic regions, each with its own pipeline and its own
// 4 MiB table (24 MiB in total, the order of a host last-level cache):
// vectorized select+project, DISTINCT, GROUP BY SUM/AVG, regex, AES-CTR
// decrypt and a small-table join. Each region gets Poisson arrivals for
// one of 64 fixed ranges of its table (64 KiB apart, each 64 KiB less 0-15
// rows drawn from the seed); together they offer `load` x the node's DRAM
// bandwidth, the resource all six regions share. Host
// time goes to functional operator execution, simulated time to the
// region datapath and DRAM. Every result is checked against a reference
// computed once per (pipeline, range) by the src/baseline CPU engine.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "baseline/engines.h"
#include "baseline/query_spec.h"
#include "common/logging.h"
#include "crypto/aes_ctr.h"
#include "fv/client.h"
#include "operators/batch.h"
#include "table/generator.h"
#include "workloads.h"

namespace fvbench {
namespace {

using farview::AggSpec;
using farview::ByteBuffer;
using farview::CompareOp;
using farview::FarviewClient;
using farview::FarviewConfig;
using farview::FarviewNode;
using farview::FTable;
using farview::FvRequest;
using farview::FvResult;
using farview::kKiB;
using farview::kMiB;
using farview::Predicate;
using farview::QuerySpec;
using farview::Result;
using farview::Schema;
using farview::Table;
using farview::TableGenerator;

constexpr int kRegions = 6;
constexpr int kRanges = 64;
constexpr uint64_t kRow = 64;
constexpr uint8_t kAesKey[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                 0x09, 0xcf, 0x4f, 0x3c};
constexpr uint8_t kAesNonce[16] = {0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5,
                                   0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb,
                                   0xfc, 0xfd, 0xfe, 0xff};

/// Dimension table of the join region: keys 0..255, so a quarter of the
/// fact rows (keys uniform in [0, 1024)) find a partner.
std::shared_ptr<const Table> Dimension() {
  Result<Schema> schema = Schema::Create({{"k", farview::DataType::kInt64, 8},
                                          {"v", farview::DataType::kInt64, 8}});
  FV_CHECK(schema.ok());
  auto t = std::make_shared<Table>(std::move(schema).value());
  for (uint64_t r = 0; r < 256; ++r) {
    t->AppendRow();
    t->SetInt64(r, 0, static_cast<int64_t>(r));
    t->SetInt64(r, 1, static_cast<int64_t>(r * 7 + 3));
  }
  return t;
}

struct Plan {
  OpKind kind;
  QuerySpec spec;
  bool vectorized = false;
};

std::array<Plan, kRegions> Plans() {
  return {{
      {OpKind::kSelect,
       QuerySpec::Select({Predicate::Int(1, CompareOp::kLt, 25)},
                         {0, 1, 2, 3}),
       true},
      {OpKind::kDistinct, QuerySpec::Distinct({0})},
      {OpKind::kGroupBy,
       QuerySpec::GroupBy({0}, {AggSpec::Sum(1), AggSpec::Avg(2)})},
      {OpKind::kRegex, QuerySpec::Regex(0, "xq")},
      {OpKind::kDecrypt, QuerySpec::Decrypt(kAesKey, kAesNonce)},
      {OpKind::kJoin, QuerySpec::Join(Dimension(), 0, 0)},
  }};
}

class OffloadMix : public Workload {
 public:
  // The fixture is small already: both sizes use the full tables, so the
  // ladder probes see the same requests.
  OffloadMix(uint64_t seed, Size /*size*/)
      : seed_(seed),
        table_bytes_(4 * kMiB),
        stride_(table_bytes_ / kRanges),
        plans_(Plans()),
        rng_(MixSeed(seed, 3)) {
    // Unqueued requests of one pipeline and length all take the same
    // simulated time; lengths that vary with the seed keep a percentile
    // that lands on such a value from reading the same for every seed.
    farview::Rng lengths(MixSeed(seed, 9));
    for (uint64_t& len : len_) len = stride_ - lengths.NextBelow(16) * kRow;
  }

  void Setup(SetupTimes* times) override {
    FarviewConfig config;
    config.dram.channel_capacity =
        std::max<uint64_t>(16 * kMiB, kRegions * table_bytes_);
    config.submission_queue_depth = 64;
    node_ = std::make_unique<FarviewNode>(&engine_, config);
    for (int r = 0; r < kRegions; ++r) {
      clients_.push_back(std::make_unique<FarviewClient>(node_.get(), r + 1));
      FV_CHECK(clients_.back()->OpenConnection().ok());
    }
    for (int r = 0; r < kRegions; ++r) {
      const uint64_t g0 = HostNanos();
      tables_.push_back(Generate(r));
      const uint64_t g1 = HostNanos();
      FTable ft;
      ft.name = std::to_string(r);
      ft.schema = tables_[r].schema();
      ft.num_rows = tables_[r].num_rows();
      FV_CHECK(clients_[r]->AllocTableMem(&ft).ok());
      FV_CHECK(clients_[r]->TableWrite(ft, tables_[r]).ok());
      handles_.push_back(ft);
      const uint64_t g2 = HostNanos();
      Result<farview::Pipeline> p = plans_[r].spec.BuildPipeline(ft.schema);
      FV_CHECK(p.ok()) << p.status().ToString();
      FV_CHECK(clients_[r]->LoadPipeline(std::move(p).value()).ok());
      times->gen_s += HostSeconds(g0, g1);
      times->upload_s += HostSeconds(g1, g2);
      times->load_s += HostSeconds(g2, HostNanos());
    }
  }

  void ComputeReferences() override {
    farview::LocalEngine cpu;
    for (int r = 0; r < kRegions; ++r) {
      for (int k = 0; k < kRanges; ++k) {
        const uint8_t* begin = tables_[r].data() + k * stride_;
        Result<Table> slice = Table::FromBytes(
            tables_[r].schema(), ByteBuffer(begin, begin + len_[k]));
        FV_CHECK(slice.ok());
        Result<farview::BaselineResult> ref =
            cpu.Execute(slice.value(), plans_[r].spec);
        FV_CHECK(ref.ok()) << ref.status().ToString();
        expected_[r][k] = Expected{Digest(ref.value().data.data(),
                                          ref.value().data.size()),
                                   ref.value().data.size()};
      }
    }
  }

  void CorruptReference() override {
    for (Expected& e : expected_[0]) e.digest ^= 1;
  }

  void Start(SimTime start, SimTime horizon, double load,
             Recorder* rec) override {
    rec_ = rec;
    double mean_len = 0;
    for (uint64_t len : len_) mean_len += static_cast<double>(len) / kRanges;
    const double per_region =
        load * node_->config().dram.AggregateRate() / kRegions / mean_len;
    for (int r = 0; r < kRegions; ++r) {
      streams_.push_back(std::make_unique<ArrivalStream>(
          &engine_, MixSeed(seed_, 300 + r), per_region, start,
          start + horizon, [this, r](SimTime due) { Arrive(r, due); }));
    }
  }

  farview::sim::Engine& engine() override { return engine_; }
  std::vector<FarviewNode*> nodes() override { return {node_.get()}; }
  int connections() const override { return kRegions; }

  std::string Verify() override {
    if (!mismatch_.empty()) return mismatch_;
    if (checked_ == 0) return "no offload result was checked";
    return "";
  }

  void Replay(ReplayReport* out) override {
    ByteBuffer buf;
    uint64_t bytes = 0;
    const uint64_t t0 = HostNanos();
    for (int pass = 0; pass < 4; ++pass) {
      for (int r = 0; r < kRegions; ++r) {
        for (int k = 0; k < kRanges; ++k) {
          buf.clear();
          FV_CHECK(node_->mmu()
                       .ReadInto(r + 1, handles_[r].vaddr + k * stride_,
                                 len_[k], &buf)
                       .ok());
          bytes += len_[k];
        }
      }
    }
    const double s = HostSeconds(t0, HostNanos());
    out->mem_copy_gbps = s > 0 ? static_cast<double>(bytes) / s / 1e9 : 0;
    for (int r = 0; r < kRegions; ++r) {
      out->op_ns_per_byte[static_cast<size_t>(plans_[r].kind)] =
          ReplayPipeline(r);
    }
  }

 private:
  struct Expected {
    uint64_t digest = 0;
    uint64_t bytes = 0;
  };

  Table Generate(int r) {
    TableGenerator gen(MixSeed(seed_, 200 + r));
    const uint64_t rows = table_bytes_ / kRow;
    const Schema wide = Schema::DefaultWideRow();
    Result<Table> t = Table(wide);
    switch (plans_[r].kind) {
      case OpKind::kDistinct:
        t = gen.WithDistinct(wide, rows, 0, 32, 100);
        break;
      case OpKind::kGroupBy:
        t = gen.WithDistinct(wide, rows, 0, 64, 100);
        break;
      case OpKind::kRegex:
        t = gen.Strings(rows, kRow, "xq", 0.5);
        break;
      case OpKind::kJoin:
        t = gen.Uniform(wide, rows, 1024);
        break;
      case OpKind::kDecrypt:
        t = gen.Uniform(wide, rows, 1 << 20);
        break;
      default:
        t = gen.Uniform(wide, rows, 100);
        break;
    }
    FV_CHECK(t.ok()) << t.status().ToString();
    if (plans_[r].kind == OpKind::kDecrypt) {
      // Each range is encrypted from stream offset 0: a request scans one
      // whole range, and the loaded pipeline decrypts from offset 0.
      const farview::AesCtr ctr(kAesKey, kAesNonce);
      for (int k = 0; k < kRanges; ++k) {
        ctr.Apply(t.value().mutable_data() + k * stride_, stride_, 0);
      }
    }
    return std::move(t).value();
  }

  void Arrive(int r, SimTime due) {
    const int k = static_cast<int>(rng_.NextBelow(kRanges));
    FTable sub = handles_[r];
    sub.vaddr += k * stride_;
    sub.num_rows = len_[k] / kRow;
    FvRequest req = clients_[r]->ScanRequest(sub, plans_[r].vectorized);
    Recorder::Op op = rec_->Begin(OpClass::kMeasured, due);
    rec_->OperatorBytes(op, plans_[r].kind, len_[k]);
    const uint64_t h0 = rec_->timing_submits() ? HostNanos() : 0;
    clients_[r]->FarviewRequestAsync(
        req, [this, op, r, k](Result<FvResult> res) {
          if (!res.ok()) {
            rec_->Fail(op, res.status());
            return;
          }
          const ByteBuffer& data = res.value().data;
          const Expected& want = expected_[r][k];
          ++checked_;
          if ((data.size() != want.bytes ||
               Digest(data.data(), data.size()) != want.digest) &&
              mismatch_.empty()) {
            mismatch_ = std::string(OpKindName(plans_[r].kind)) +
                        " result for range " + std::to_string(k) +
                        " differs from the baseline reference";
          }
          rec_->Complete(op, res.value().completed_at, data.size());
        });
    if (h0 != 0) rec_->RouteSubmit(op, HostNanos() - h0);
  }

  /// ns per input byte of region `r`'s pipeline over its ranges, fed
  /// the way the region feeds it: stripe-sized pushes through a
  /// StreamParser, Process per push, Flush at the end of each range.
  double ReplayPipeline(int r) {
    Result<farview::Pipeline> built =
        plans_[r].spec.BuildPipeline(tables_[r].schema());
    FV_CHECK(built.ok());
    farview::Pipeline& pipeline = built.value();
    farview::StreamParser parser(&pipeline.input_schema());
    const uint64_t chunk = node_->config().BurstBytes();
    uint64_t bytes = 0;
    uint64_t ns = 0;
    for (int pass = 0; pass < 3 || ns < 20'000'000; ++pass) {
      const uint64_t t0 = HostNanos();
      for (int k = 0; k < kRanges; ++k) {
        pipeline.Reset();
        parser.Reset();
        const uint8_t* base = tables_[r].data() + k * stride_;
        for (uint64_t off = 0; off < len_[k]; off += chunk) {
          const uint64_t n = std::min(chunk, len_[k] - off);
          FV_CHECK(pipeline.Process(parser.Push(base + off, n)).ok());
        }
        FV_CHECK(pipeline.Flush().ok());
      }
      ns += HostNanos() - t0;
      for (uint64_t len : len_) bytes += len;
    }
    return static_cast<double>(ns) / static_cast<double>(bytes);
  }

  uint64_t seed_;
  uint64_t table_bytes_;
  uint64_t stride_;  ///< distance between range starts
  std::array<uint64_t, kRanges> len_{};
  std::array<Plan, kRegions> plans_;
  farview::Rng rng_;
  farview::sim::Engine engine_;
  std::unique_ptr<FarviewNode> node_;
  std::vector<std::unique_ptr<FarviewClient>> clients_;
  std::vector<Table> tables_;
  std::vector<FTable> handles_;
  std::array<std::array<Expected, kRanges>, kRegions> expected_{};
  std::vector<std::unique_ptr<ArrivalStream>> streams_;
  Recorder* rec_ = nullptr;
  uint64_t checked_ = 0;
  std::string mismatch_;
};

}  // namespace

std::unique_ptr<Workload> MakeOffloadMix(uint64_t seed, Size size) {
  return std::make_unique<OffloadMix>(seed, size);
}

}  // namespace fvbench
