// tenant_storm: one node whose six regions are multiplexed by the
// RegionScheduler with admission control on. 32 latency-class tenants send
// Poisson 64 KiB selections (the measured class); 224 batch tenants fire
// 1 MiB selections in storms, during the first 3 ms of every 10 ms. At the
// nominal load the latency class offers 40% of the node's DRAM bandwidth
// and the storms 150% while they last (0.85 on average). A shed request is
// resubmitted after the retry-after hint it carries, so sheds cost
// attempts, never operations. The only workload through the scheduler and
// admission paths (DWRR, token buckets, the queue-delay EWMA, sheds), and
// the one with the most completions, so telemetry memory shows here.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baseline/engines.h"
#include "baseline/query_spec.h"
#include "common/logging.h"
#include "fv/region_scheduler.h"
#include "operators/batch.h"
#include "table/generator.h"
#include "workloads.h"

namespace fvbench {
namespace {

using farview::ByteBuffer;
using farview::CompareOp;
using farview::FarviewConfig;
using farview::FarviewNode;
using farview::FvRequest;
using farview::FvResult;
using farview::kKiB;
using farview::kMicrosecond;
using farview::kMiB;
using farview::kMillisecond;
using farview::Predicate;
using farview::QPair;
using farview::QuerySpec;
using farview::RegionScheduler;
using farview::Result;
using farview::Schema;
using farview::SloClass;
using farview::Status;
using farview::Table;

constexpr int kLatencyTenants = 32;
constexpr int kBatchTenants = 224;
constexpr uint64_t kRow = 64;
constexpr uint64_t kLatencyLen = 64 * kKiB;
constexpr uint64_t kBatchLen = 1 * kMiB;
constexpr int kLatencyRanges = 32;
constexpr double kLatencyShare = 0.40;
constexpr double kStormLoad = 1.50;
constexpr SimTime kStormPeriod = 10 * kMillisecond;
constexpr SimTime kStormOn = 3 * kMillisecond;
/// Nominal load: latency share plus the storms' time-averaged share.
constexpr double kNominal = kLatencyShare + kStormLoad * 0.3;
/// Overload threshold of the latency class, far above any queue delay the
/// storms build.
constexpr SimTime kLatencyShedDelay = 50 * kMillisecond;
/// Latency-class arrivals go on this long past the horizon. The EWMA
/// moves only on dispatch, so with no traffic left it would stay over the
/// batch threshold and shed the last storm's retries for good; the tail of
/// latency traffic (outside the measured window) lets it decay.
constexpr SimTime kCoolDown = 20 * kMillisecond;
/// Back-off after a scheduler-overflow bounce (it carries no hint).
constexpr SimTime kOverflowBackoff = 100 * kMicrosecond;
/// An operation shed this many times fails.
constexpr int kMaxAttempts = 64;
const char kPipelineKey[] = "select a1<10";

QuerySpec Selection() {
  return QuerySpec::Select({Predicate::Int(1, CompareOp::kLt, 10)});
}

class TenantStorm : public Workload {
 public:
  TenantStorm(uint64_t seed, Size size)
      : seed_(seed),
        batch_ranges_(size == Size::kFull ? 8 : 2),
        table_bytes_(std::max(kLatencyRanges * kLatencyLen,
                              batch_ranges_ * kBatchLen)),
        rng_(MixSeed(seed, 7)) {}

  void Setup(SetupTimes* times) override {
    const uint64_t g0 = HostNanos();
    farview::TableGenerator gen(MixSeed(seed_, 8));
    Result<Table> t =
        gen.Uniform(Schema::DefaultWideRow(), table_bytes_ / kRow, 100);
    FV_CHECK(t.ok());
    table_ = std::make_unique<Table>(std::move(t).value());
    const uint64_t g1 = HostNanos();

    FarviewConfig config;
    config.dram.channel_capacity = 16 * kMiB;
    config.admission.enabled = true;
    // The queue-delay EWMA moves only when a job is dispatched. Once it
    // passes the latency-class threshold every arrival is shed, nothing is
    // dispatched and the node sheds forever, so the storm must never push
    // it there: only batch traffic is shed for overload here.
    config.admission.shed_delay_latency = kLatencyShedDelay;
    node_ = std::make_unique<FarviewNode>(&engine_, config);
    scheduler_ = std::make_unique<RegionScheduler>(node_.get());
    Result<QPair*> owner = node_->ConnectShared(0);
    FV_CHECK(owner.ok());
    Result<uint64_t> vaddr =
        node_->AllocTableMem(*owner.value(), table_->size_bytes());
    FV_CHECK(vaddr.ok());
    vaddr_ = vaddr.value();
    FV_CHECK(node_->mmu()
                 .Write(0, vaddr_, table_->size_bytes(), table_->data())
                 .ok());
    FV_CHECK(node_->ShareTableMem(*owner.value(), vaddr_).ok());
    for (int c = 1; c <= kLatencyTenants + kBatchTenants; ++c) {
      Result<QPair*> qp = node_->ConnectShared(c);
      FV_CHECK(qp.ok());
      qp_ids_.push_back(qp.value()->qp_id);
    }
    const uint64_t g2 = HostNanos();

    // Warm every region onto the shared pipeline, so the measured schedule
    // carries no 5 ms reconfiguration.
    int warmed = 0;
    for (int r = 0; r < node_->num_regions(); ++r) {
      scheduler_->Submit(0, owner.value()->qp_id, kPipelineKey, Factory(),
                         Request(0, kLatencyLen, SloClass::kBatch),
                         [&warmed](Result<FvResult> res) {
                           if (res.ok()) ++warmed;
                         });
    }
    engine_.Run();
    FV_CHECK(warmed == node_->num_regions());
    times->gen_s += HostSeconds(g0, g1);
    times->upload_s += HostSeconds(g1, g2);
    times->load_s += HostSeconds(g2, HostNanos());
  }

  void ComputeReferences() override {
    farview::LocalEngine cpu;
    auto reference = [&](uint64_t off, uint64_t len) {
      const uint8_t* begin = table_->data() + off;
      Result<Table> slice = Table::FromBytes(table_->schema(),
                                             ByteBuffer(begin, begin + len));
      FV_CHECK(slice.ok());
      Result<farview::BaselineResult> ref = cpu.Execute(slice.value(),
                                                        Selection());
      FV_CHECK(ref.ok());
      return Expected{Digest(ref.value().data.data(), ref.value().data.size()),
                      ref.value().data.size()};
    };
    latency_ref_.clear();
    batch_ref_.clear();
    for (int k = 0; k < kLatencyRanges; ++k) {
      latency_ref_.push_back(reference(k * kLatencyLen, kLatencyLen));
    }
    for (uint64_t k = 0; k < batch_ranges_; ++k) {
      batch_ref_.push_back(reference(k * kBatchLen, kBatchLen));
    }
  }

  void CorruptReference() override {
    for (Expected& e : latency_ref_) e.digest ^= 1;
  }

  void Start(SimTime start, SimTime horizon, double load,
             Recorder* rec) override {
    rec_ = rec;
    const double cap = node_->config().dram.AggregateRate();
    const double scale = load / kNominal;
    const double latency_rate = scale * kLatencyShare * cap / kLatencyLen;
    const double storm_rate = scale * kStormLoad * cap / kBatchLen;
    for (int c = 1; c <= kLatencyTenants + kBatchTenants; ++c) {
      const bool latency = c <= kLatencyTenants;
      streams_.push_back(std::make_unique<ArrivalStream>(
          &engine_, MixSeed(seed_, 500 + c),
          latency ? latency_rate / kLatencyTenants
                  : storm_rate / kBatchTenants,
          start, start + horizon + (latency ? kCoolDown : 0),
          [this, c, latency](SimTime due) { Arrive(c, latency, due); },
          latency ? 0 : kStormPeriod, latency ? 0 : kStormOn));
    }
  }

  farview::sim::Engine& engine() override { return engine_; }
  std::vector<FarviewNode*> nodes() override { return {node_.get()}; }
  int connections() const override {
    return kLatencyTenants + kBatchTenants;
  }
  const RegionScheduler* scheduler() const override {
    return scheduler_.get();
  }

  std::string Verify() override {
    if (!mismatch_.empty()) return mismatch_;
    if (checked_ == 0) return "no selection result was checked";
    return "";
  }

  void Replay(ReplayReport* out) override {
    ByteBuffer buf;
    uint64_t bytes = 0;
    const uint64_t t0 = HostNanos();
    for (int pass = 0; pass < 16; ++pass) {
      for (int k = 0; k < kLatencyRanges; ++k) {
        buf.clear();
        FV_CHECK(node_->mmu()
                     .ReadInto(0, vaddr_ + k * kLatencyLen, kLatencyLen, &buf)
                     .ok());
        bytes += kLatencyLen;
      }
    }
    const double s = HostSeconds(t0, HostNanos());
    out->mem_copy_gbps = s > 0 ? static_cast<double>(bytes) / s / 1e9 : 0;

    Result<farview::Pipeline> built =
        Selection().BuildPipeline(table_->schema());
    FV_CHECK(built.ok());
    farview::Pipeline& pipeline = built.value();
    farview::StreamParser parser(&pipeline.input_schema());
    const uint64_t chunk = node_->config().BurstBytes();
    uint64_t ns = 0;
    bytes = 0;
    for (int pass = 0; pass < 3 || ns < 20'000'000; ++pass) {
      const uint64_t p0 = HostNanos();
      for (int k = 0; k < kLatencyRanges; ++k) {
        pipeline.Reset();
        parser.Reset();
        const uint8_t* base = table_->data() + k * kLatencyLen;
        for (uint64_t off = 0; off < kLatencyLen; off += chunk) {
          FV_CHECK(pipeline.Process(parser.Push(base + off, chunk)).ok());
        }
        FV_CHECK(pipeline.Flush().ok());
      }
      ns += HostNanos() - p0;
      bytes += kLatencyRanges * kLatencyLen;
    }
    out->op_ns_per_byte[static_cast<size_t>(OpKind::kSelect)] =
        static_cast<double>(ns) / static_cast<double>(bytes);
  }

 private:
  struct Expected {
    uint64_t digest = 0;
    uint64_t bytes = 0;
  };

  /// Captures only `this`, so the per-submit copy stays inline.
  RegionScheduler::PipelineFactory Factory() const {
    return [this]() { return Selection().BuildPipeline(table_->schema()); };
  }

  FvRequest Request(uint64_t off, uint64_t len, SloClass slo) const {
    FvRequest req;
    req.vaddr = vaddr_ + off;
    req.len = len;
    req.tuple_bytes = kRow;
    req.slo = slo;
    return req;
  }

  void Arrive(int tenant, bool latency, SimTime due) {
    const int k = static_cast<int>(
        rng_.NextBelow(latency ? kLatencyRanges : batch_ranges_));
    Recorder::Op op =
        rec_->Begin(latency ? OpClass::kMeasured : OpClass::kBackground, due);
    rec_->OperatorBytes(op, OpKind::kSelect,
                        latency ? kLatencyLen : kBatchLen);
    Submit(tenant, latency, k, op, 1);
  }

  void Submit(int tenant, bool latency, int k, Recorder::Op op, int attempt) {
    const uint64_t len = latency ? kLatencyLen : kBatchLen;
    const FvRequest req =
        Request(k * len, len, latency ? SloClass::kLatencySensitive
                                      : SloClass::kBatch);
    const uint64_t h0 = rec_->timing_submits() ? HostNanos() : 0;
    scheduler_->Submit(
        tenant, qp_ids_[tenant - 1], kPipelineKey, Factory(), req,
        [this, tenant, latency, k, op, attempt](Result<FvResult> res) {
          if (res.ok()) {
            Check(latency, k, res.value().data);
            rec_->Complete(op, res.value().completed_at,
                           res.value().data.size());
            return;
          }
          const Status& s = res.status();
          const bool retryable = s.IsResourceExhausted() || s.IsUnavailable();
          if (!retryable || attempt >= kMaxAttempts) {
            rec_->Fail(op, s);
            return;
          }
          rec_->Retry(op);
          const SimTime wait =
              s.retry_after_ps() > 0 ? s.retry_after_ps() : kOverflowBackoff;
          engine_.ScheduleAfter(wait, [this, tenant, latency, k, op,
                                       attempt]() {
            Submit(tenant, latency, k, op, attempt + 1);
          });
        });
    if (h0 != 0) rec_->SchedSubmit(op, HostNanos() - h0);
  }

  void Check(bool latency, int k, const ByteBuffer& data) {
    const Expected& want = latency ? latency_ref_[k] : batch_ref_[k];
    ++checked_;
    if ((data.size() != want.bytes ||
         Digest(data.data(), data.size()) != want.digest) &&
        mismatch_.empty()) {
      mismatch_ = std::string(latency ? "latency" : "batch") +
                  " selection of range " + std::to_string(k) +
                  " differs from the baseline reference";
    }
  }

  uint64_t seed_;
  uint64_t batch_ranges_;
  uint64_t table_bytes_;
  farview::Rng rng_;
  farview::sim::Engine engine_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<FarviewNode> node_;
  std::unique_ptr<RegionScheduler> scheduler_;
  uint64_t vaddr_ = 0;
  std::vector<int> qp_ids_;
  std::vector<Expected> latency_ref_;
  std::vector<Expected> batch_ref_;
  std::vector<std::unique_ptr<ArrivalStream>> streams_;
  Recorder* rec_ = nullptr;
  uint64_t checked_ = 0;
  std::string mismatch_;
};

}  // namespace

std::unique_ptr<Workload> MakeTenantStorm(uint64_t seed, Size size) {
  return std::make_unique<TenantStorm>(seed, size);
}

}  // namespace fvbench
