// End-to-end tests of the Farview node: connections, memory management,
// table write/read round trips, operator offloading through dynamic
// regions, timing sanity, and the resource model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "baseline/engines.h"
#include "fv/client.h"
#include "fv/farview_node.h"
#include "crypto/aes_ctr.h"
#include "fv/resource_model.h"
#include "operators/grouping.h"
#include "table/generator.h"

namespace farview {
namespace {

class FvNodeTest : public ::testing::Test {
 protected:
  FvNodeTest() : node_(&engine_, FarviewConfig()), client_(&node_, 1) {
    EXPECT_TRUE(client_.OpenConnection().ok());
  }

  /// Builds, uploads and registers a uniform table.
  FTable Upload(const std::string& name, uint64_t rows, int64_t range,
                uint64_t seed, int cols = 8) {
    TableGenerator gen(seed);
    Result<Table> t = gen.Uniform(Schema::DefaultWideRow(cols), rows, range);
    EXPECT_TRUE(t.ok());
    last_table_.emplace(std::move(t).value());
    FTable ft;
    ft.name = name;
    ft.schema = last_table_->schema();
    ft.num_rows = rows;
    EXPECT_TRUE(client_.AllocTableMem(&ft).ok());
    EXPECT_TRUE(client_.TableWrite(ft, *last_table_).ok());
    return ft;
  }

  sim::Engine engine_;
  FarviewNode node_;
  FarviewClient client_;
  std::optional<Table> last_table_;
};

// ---------------------------------------------------------------------------
// Connection management
// ---------------------------------------------------------------------------

TEST_F(FvNodeTest, ConnectionAssignsRegion) {
  ASSERT_NE(client_.qp(), nullptr);
  EXPECT_GE(client_.qp()->region_id, 0);
  EXPECT_LT(client_.qp()->region_id, node_.num_regions());
}

TEST_F(FvNodeTest, RegionsExhaust) {
  // The fixture client took one region; 5 more fit, the 7th connection
  // fails ("six dynamic regions in our experiments").
  std::vector<std::unique_ptr<FarviewClient>> extra;
  for (int i = 0; i < 5; ++i) {
    extra.push_back(std::make_unique<FarviewClient>(&node_, 10 + i));
    EXPECT_TRUE(extra.back()->OpenConnection().ok()) << i;
  }
  FarviewClient overflow(&node_, 99);
  EXPECT_TRUE(overflow.OpenConnection().IsUnavailable());
  // Disconnecting frees a region for reuse.
  extra.pop_back();
  EXPECT_TRUE(overflow.OpenConnection().ok());
}

TEST_F(FvNodeTest, DoubleOpenFails) {
  EXPECT_TRUE(client_.OpenConnection().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Memory management + table round trip
// ---------------------------------------------------------------------------

TEST_F(FvNodeTest, TableWriteReadRoundTrip) {
  const FTable ft = Upload("t", 1000, 100, 1);
  Result<FvResult> r = client_.TableRead(ft);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().data, last_table_->bytes());
  EXPECT_EQ(r.value().bytes_on_wire, last_table_->size_bytes());
  EXPECT_GT(r.value().Elapsed(), 0);
}

TEST_F(FvNodeTest, AllocRequiresNameAndRows) {
  FTable bad;
  bad.schema = Schema::DefaultWideRow();
  EXPECT_TRUE(client_.AllocTableMem(&bad).IsInvalidArgument());
}

TEST_F(FvNodeTest, FreeDropsCatalogEntryAndMemory) {
  FTable ft = Upload("t", 100, 100, 2);
  const uint64_t allocated = node_.mmu().allocated_bytes();
  EXPECT_GT(allocated, 0u);
  EXPECT_TRUE(client_.FreeTableMem(&ft).ok());
  EXPECT_LT(node_.mmu().allocated_bytes(), allocated);
  EXPECT_FALSE(client_.catalog().Contains("t"));
}

TEST_F(FvNodeTest, CrossClientIsolationAndSharing) {
  const FTable ft = Upload("shared", 100, 100, 3);
  FarviewClient other(&node_, 2);
  ASSERT_TRUE(other.OpenConnection().ok());
  // Before sharing: the other client cannot read the table.
  Result<FvResult> denied = other.TableRead(ft);
  EXPECT_FALSE(denied.ok());
  // Share via catalog export/import.
  Result<TableEntry> entry = client_.ShareTable(ft);
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(other.ImportTable(entry.value()).ok());
  Result<FvResult> r = other.TableRead(ft);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().data, last_table_->bytes());
}

// ---------------------------------------------------------------------------
// Operator offloading
// ---------------------------------------------------------------------------

TEST_F(FvNodeTest, SelectMatchesLocalEvaluation) {
  const FTable ft = Upload("s", 4000, 100, 4);
  // SELECT * FROM S WHERE S.a < 50 AND S.b < 50.
  Result<FvResult> r = client_.FvSelect(
      ft, {Predicate::Int(0, CompareOp::kLt, 50),
           Predicate::Int(1, CompareOp::kLt, 50)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ByteBuffer expected;
  uint64_t expected_rows = 0;
  for (uint64_t row = 0; row < last_table_->num_rows(); ++row) {
    if (last_table_->GetInt64(row, 0) < 50 &&
        last_table_->GetInt64(row, 1) < 50) {
      const uint8_t* p = last_table_->Row(row).data();
      expected.insert(expected.end(), p, p + 64);
      ++expected_rows;
    }
  }
  EXPECT_EQ(r.value().rows, expected_rows);
  EXPECT_EQ(r.value().data, expected);
  EXPECT_EQ(r.value().bytes_on_wire, expected.size());
}

TEST_F(FvNodeTest, SelectWithProjection) {
  const FTable ft = Upload("s", 1000, 100, 5);
  Result<FvResult> r = client_.FvSelect(
      ft, {Predicate::Int(2, CompareOp::kGe, 90)}, {0, 2});
  ASSERT_TRUE(r.ok());
  // 16 B output rows.
  EXPECT_EQ(r.value().data.size(), r.value().rows * 16);
  Result<Table> out =
      Table::FromBytes(ft.schema.Project({0, 2}), r.value().data);
  ASSERT_TRUE(out.ok());
  for (uint64_t row = 0; row < out.value().num_rows(); ++row) {
    EXPECT_GE(out.value().GetInt64(row, 1), 90);
  }
}

TEST_F(FvNodeTest, VectorizedSelectSameResultFasterAtLowSelectivity) {
  const FTable ft = Upload("s", 200000, 100, 6);
  const std::vector<Predicate> preds = {
      Predicate::Int(0, CompareOp::kLt, 25)};
  Result<FvResult> scalar = client_.FvSelect(ft, preds, {}, false);
  ASSERT_TRUE(scalar.ok());
  Result<FvResult> vectorized = client_.FvSelect(ft, preds, {}, true);
  ASSERT_TRUE(vectorized.ok());
  EXPECT_EQ(scalar.value().data, vectorized.value().data);
  // 25% selectivity: the scalar pipe (16 GB/s) binds, vectorization nearly
  // doubles throughput (Section 6.4).
  const double speedup = static_cast<double>(scalar.value().Elapsed()) /
                         static_cast<double>(vectorized.value().Elapsed());
  EXPECT_GT(speedup, 1.5);
  EXPECT_LT(speedup, 2.2);
}

TEST_F(FvNodeTest, DistinctMatchesReference) {
  TableGenerator gen(7);
  Result<Table> t =
      gen.WithDistinct(Schema::DefaultWideRow(), 10000, 0, 500, 1000);
  ASSERT_TRUE(t.ok());
  last_table_.emplace(std::move(t).value());
  FTable ft;
  ft.name = "d";
  ft.schema = last_table_->schema();
  ft.num_rows = 10000;
  ASSERT_TRUE(client_.AllocTableMem(&ft).ok());
  ASSERT_TRUE(client_.TableWrite(ft, *last_table_).ok());

  Result<FvResult> r = client_.FvDistinct(ft, {0});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows, 500u);
  EXPECT_EQ(r.value().data.size(), 500u * 8);
}

TEST_F(FvNodeTest, GroupByMatchesReference) {
  TableGenerator gen(8);
  Result<Table> t =
      gen.WithDistinct(Schema::DefaultWideRow(), 5000, 1, 40, 1000);
  ASSERT_TRUE(t.ok());
  last_table_.emplace(std::move(t).value());
  FTable ft;
  ft.name = "g";
  ft.schema = last_table_->schema();
  ft.num_rows = 5000;
  ASSERT_TRUE(client_.AllocTableMem(&ft).ok());
  ASSERT_TRUE(client_.TableWrite(ft, *last_table_).ok());

  Result<FvResult> r = client_.FvGroupBy(ft, {1}, {AggSpec::Sum(2)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows, 40u);
  // Verify sums against a reference.
  std::map<int64_t, int64_t> ref;
  for (uint64_t row = 0; row < last_table_->num_rows(); ++row) {
    ref[last_table_->GetInt64(row, 1)] += last_table_->GetInt64(row, 2);
  }
  Result<Pipeline> p = PipelineBuilder(ft.schema)
                           .GroupBy({1}, {AggSpec::Sum(2)})
                           .Build();
  ASSERT_TRUE(p.ok());
  Result<Table> out = Table::FromBytes(p.value().output_schema(),
                                       r.value().data);
  ASSERT_TRUE(out.ok());
  for (uint64_t g = 0; g < out.value().num_rows(); ++g) {
    const int64_t key = out.value().GetInt64(g, 0);
    EXPECT_EQ(out.value().GetInt64(g, 1), ref[key]) << key;
  }
}

TEST_F(FvNodeTest, RegexSelectOverFarview) {
  TableGenerator gen(9);
  Result<Table> t = gen.Strings(2000, 32, "xq", 0.5);
  ASSERT_TRUE(t.ok());
  last_table_.emplace(std::move(t).value());
  FTable ft;
  ft.name = "r";
  ft.schema = last_table_->schema();
  ft.num_rows = 2000;
  ASSERT_TRUE(client_.AllocTableMem(&ft).ok());
  ASSERT_TRUE(client_.TableWrite(ft, *last_table_).ok());

  Result<FvResult> r = client_.FvRegexSelect(ft, 0, "xq");
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(static_cast<double>(r.value().rows) / 2000.0, 0.5, 0.05);
}

TEST_F(FvNodeTest, EncryptedTableDecryptOnRead) {
  TableGenerator gen(10);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), 1000, 100);
  ASSERT_TRUE(t.ok());
  last_table_.emplace(std::move(t).value());

  uint8_t key[16] = {1, 2, 3};
  uint8_t nonce[16] = {4, 5, 6};
  // Store the table encrypted (Cypherbase-style: memory holds ciphertext).
  Table encrypted = *last_table_;
  AesCtr(key, nonce).Apply(encrypted.mutable_data(),
                           encrypted.size_bytes(), 0);
  FTable ft;
  ft.name = "enc";
  ft.schema = last_table_->schema();
  ft.num_rows = 1000;
  ASSERT_TRUE(client_.AllocTableMem(&ft).ok());
  ASSERT_TRUE(client_.TableWrite(ft, encrypted).ok());

  Result<FvResult> r = client_.FvDecryptRead(ft, key, nonce);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().data, last_table_->bytes());
}

TEST_F(FvNodeTest, SmartAddressingProjection) {
  // 512 B tuples; project 3 contiguous 8 B columns (the Fig. 7 workload).
  const Schema wide = Schema::DefaultWideRow(64);
  TableGenerator gen(11);
  Result<Table> t = gen.Uniform(wide, 2000, 100);
  ASSERT_TRUE(t.ok());
  last_table_.emplace(std::move(t).value());
  FTable ft;
  ft.name = "wide";
  ft.schema = wide;
  ft.num_rows = 2000;
  ASSERT_TRUE(client_.AllocTableMem(&ft).ok());
  ASSERT_TRUE(client_.TableWrite(ft, *last_table_).ok());

  // Pipeline input = the 3-column extraction (columns 8,9,10).
  const Schema projected = wide.Project({8, 9, 10});
  Result<Pipeline> p = PipelineBuilder(projected).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());

  FvRequest req = client_.ScanRequest(ft);
  req.smart_addressing = true;
  req.sa_access_bytes = 24;
  req.sa_offset = 64;  // column 8 starts at byte 64
  Result<FvResult> r = client_.FarviewRequest(req);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows, 2000u);
  Result<Table> out = Table::FromBytes(projected, r.value().data);
  ASSERT_TRUE(out.ok());
  for (uint64_t row = 0; row < 2000; ++row) {
    EXPECT_EQ(out.value().GetInt64(row, 0), last_table_->GetInt64(row, 8));
    EXPECT_EQ(out.value().GetInt64(row, 2), last_table_->GetInt64(row, 10));
  }
}

/// Pass-through operator recording each batch the region hands its
/// pipeline.
class BatchProbe : public Operator {
 public:
  struct Seen {
    bool borrowed;
    uint64_t rows;
    ByteBuffer bytes;
  };

  BatchProbe(const Schema& schema, std::vector<Seen>* seen)
      : schema_(schema), seen_(seen) {}

  Result<Batch> Process(Batch in) override {
    ByteBuffer bytes;
    in.AppendTo(&bytes);
    seen_->push_back(Seen{in.borrowed(), in.num_rows, std::move(bytes)});
    return in;
  }
  Result<Batch> Flush() override { return Batch::Empty(&schema_); }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "probe"; }
  void Reset() override {}

 private:
  Schema schema_;
  std::vector<Seen>* seen_;
};

// The region feeds its pipeline borrowed batches read in place from the
// materialized stream. They must carry exactly the rows, and the batch
// boundaries, of a StreamParser fed the same bursts: for tuple widths that
// do not divide the 4 KiB stripe, for smart addressing, and with a short
// final burst (no case's length is a whole number of stripes).
TEST_F(FvNodeTest, BorrowedBatchesMatchStreamParserBatches) {
  struct Case {
    int cols;
    uint64_t rows;
    uint32_t sa_offset;  // smart addressing when sa_cols > 0
    int sa_cols;
  };
  for (const Case& c : {Case{3, 1000, 0, 0}, Case{5, 999, 0, 0},
                        Case{9, 777, 0, 0}, Case{17, 500, 0, 0},
                        Case{17, 500, 8, 3}}) {
    const uint32_t width = static_cast<uint32_t>(c.cols) * 8;
    SCOPED_TRACE(std::to_string(width) + " B tuples" +
                 (c.sa_cols > 0 ? ", smart addressing" : ""));
    const FTable ft =
        Upload(std::string("t").append(std::to_string(width))
                   .append(c.sa_cols > 0 ? "sa" : ""),
               c.rows, 1000, width, c.cols);
    const Schema input =
        Schema::DefaultWideRow(c.sa_cols > 0 ? c.sa_cols : c.cols);
    std::vector<BatchProbe::Seen> seen;
    Pipeline p(input);
    p.Append(std::make_unique<BatchProbe>(input, &seen));
    ASSERT_TRUE(client_.LoadPipeline(std::move(p)).ok());
    FvRequest req = client_.ScanRequest(ft);
    if (c.sa_cols > 0) {
      req.smart_addressing = true;
      req.sa_offset = c.sa_offset;
      req.sa_access_bytes = input.tuple_width();
    }
    Result<FvResult> r = client_.FarviewRequest(req);
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    // The stream the region materialized, and the bursts its memory stack
    // delivers for this request.
    ByteBuffer stream;
    for (uint64_t row = 0; row < c.rows; ++row) {
      const uint8_t* at = last_table_->Row(row).data() + c.sa_offset;
      stream.insert(stream.end(), at, at + input.tuple_width());
    }
    std::vector<uint64_t> bursts;
    auto on_burst = [&bursts](uint64_t bytes, bool, SimTime) {
      bursts.push_back(bytes);
    };
    if (c.sa_cols > 0) {
      node_.memory_controller().ScatteredRead(0, ft.vaddr, c.rows,
                                              input.tuple_width(), width,
                                              on_burst);
    } else {
      node_.memory_controller().StreamRead(0, ft.vaddr, ft.SizeBytes(),
                                           on_burst);
    }
    engine_.Run();
    if (c.sa_cols == 0) {
      // The range's last stripe is short (it may complete before others).
      EXPECT_LT(*std::min_element(bursts.begin(), bursts.end()),
                node_.config().BurstBytes());
    }

    StreamParser parser(&input);
    ASSERT_EQ(seen.size(), bursts.size());
    uint64_t pos = 0;
    for (size_t i = 0; i < bursts.size(); ++i) {
      const uint64_t n = std::min<uint64_t>(bursts[i], stream.size() - pos);
      const Batch want = parser.Push(stream.data() + pos, n);
      pos += n;
      EXPECT_TRUE(seen[i].borrowed) << "burst " << i;
      EXPECT_EQ(seen[i].rows, want.num_rows) << "burst " << i;
      EXPECT_EQ(seen[i].bytes, want.data) << "burst " << i;
    }
    EXPECT_EQ(pos, stream.size());
    EXPECT_EQ(parser.pending_bytes(), 0u);
    EXPECT_EQ(r.value().data, stream);
    EXPECT_EQ(r.value().rows, c.rows);
  }
}

// Bursts clear the datapath in channel completion order, and the region
// does not reorder them: each advances a byte prefix of the stream, which
// is in address order. With 24 B tuples the range's short last stripe
// completes before a full one, and most stripes end mid-tuple.
// Every batch must still be whole tuples, the batches must concatenate to
// the stream in address order, and an order-sensitive pipeline (DISTINCT
// emits keys in first-seen order) must return what the CPU oracle
// returns.
TEST_F(FvNodeTest, OutOfOrderStripesKeepStreamOrderAndWholeTuples) {
  constexpr int kCols = 3;
  constexpr uint64_t kRows = 1000;
  const FTable ft = Upload("t24", kRows, 1000, 24, kCols);
  const Schema input = Schema::DefaultWideRow(kCols);
  ASSERT_EQ(input.tuple_width(), 24u);

  // The precondition: the short last stripe is not the last burst.
  std::vector<uint64_t> bursts;
  node_.memory_controller().StreamRead(
      0, ft.vaddr, ft.SizeBytes(),
      [&bursts](uint64_t bytes, bool, SimTime) { bursts.push_back(bytes); });
  engine_.Run();
  ASSERT_GE(bursts.size(), 2u);
  const uint64_t stripe = node_.config().BurstBytes();
  ASSERT_NE(ft.SizeBytes() % stripe, 0u);
  const auto short_at = std::find(bursts.begin(), bursts.end(),
                                  ft.SizeBytes() % stripe);
  ASSERT_NE(short_at, bursts.end());
  ASSERT_LT(short_at - bursts.begin(),
            static_cast<std::ptrdiff_t>(bursts.size()) - 1)
      << "the short stripe arrived last; the case needs it earlier";

  std::vector<BatchProbe::Seen> seen;
  Pipeline p(input);
  p.Append(std::make_unique<BatchProbe>(input, &seen));
  Result<OperatorPtr> distinct = DistinctOp::Create(input, {0});
  ASSERT_TRUE(distinct.ok());
  p.Append(std::move(distinct).value());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p)).ok());
  Result<FvResult> r = client_.FarviewRequest(client_.ScanRequest(ft));
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ByteBuffer streamed;
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].bytes.size(), seen[i].rows * input.tuple_width())
        << "batch " << i;
    streamed.insert(streamed.end(), seen[i].bytes.begin(),
                    seen[i].bytes.end());
  }
  EXPECT_EQ(streamed, last_table_->bytes());

  const LocalEngine cpu;
  Result<BaselineResult> oracle =
      cpu.Execute(*last_table_, QuerySpec::Distinct({0}));
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(r.value().rows, oracle.value().rows);
  EXPECT_EQ(r.value().data, oracle.value().data);
  EXPECT_GT(oracle.value().rows, 100u);
}

// ---------------------------------------------------------------------------
// Error handling on the data path
// ---------------------------------------------------------------------------

TEST_F(FvNodeTest, RequestWithoutPipelineFails) {
  const FTable ft = Upload("t", 10, 10, 12);
  Result<FvResult> r = client_.FarviewRequest(client_.ScanRequest(ft));
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST_F(FvNodeTest, MismatchedTupleWidthFails) {
  const FTable ft = Upload("t", 10, 10, 13);
  Result<Pipeline> p =
      PipelineBuilder(Schema::DefaultWideRow(4)).Build();  // 32 B rows
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
  Result<FvResult> r = client_.FarviewRequest(client_.ScanRequest(ft));
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(FvNodeTest, UnmappedReadFails) {
  FTable ghost;
  ghost.name = "ghost";
  ghost.schema = Schema::DefaultWideRow();
  ghost.num_rows = 10;
  ghost.vaddr = 0xdead0000;
  Result<FvResult> r = client_.TableRead(ghost);
  EXPECT_FALSE(r.ok());
}

TEST_F(FvNodeTest, PartialTupleLengthRejected) {
  const FTable ft = Upload("t", 10, 10, 14);
  Result<Pipeline> p = PipelineBuilder(ft.schema).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
  FvRequest req = client_.ScanRequest(ft);
  req.len -= 1;  // no longer a whole number of tuples
  Result<FvResult> r = client_.FarviewRequest(req);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Timing sanity
// ---------------------------------------------------------------------------

TEST_F(FvNodeTest, ReadThroughputIsNetworkBound) {
  const FTable ft = Upload("big", 262144, 100, 15);  // 16 MiB
  Result<FvResult> r = client_.TableRead(ft);
  ASSERT_TRUE(r.ok());
  const double gbps = AchievedGBps(ft.SizeBytes(), r.value().Elapsed());
  // "Reading from local on-board FPGA memory peaks at 12 GBps, indicating
  // the network is the main bottleneck."
  EXPECT_NEAR(gbps, 12.0, 0.5);
}

TEST_F(FvNodeTest, FullSelectivityMatchesPlainReadTime) {
  const FTable ft = Upload("s", 65536, 100, 16);  // 4 MiB
  Result<FvResult> read = client_.TableRead(ft);
  ASSERT_TRUE(read.ok());
  Result<FvResult> select = client_.FvSelect(
      ft, {Predicate::Int(0, CompareOp::kLt, 100)});  // selects everything
  ASSERT_TRUE(select.ok());
  // "All these operators achieve near line-rate speed, adding insignificant
  // latency to baseline network overheads."
  const double ratio = static_cast<double>(select.value().Elapsed()) /
                       static_cast<double>(read.value().Elapsed());
  EXPECT_LT(ratio, 1.1);
}

TEST_F(FvNodeTest, LowSelectivityFasterThanFullRead) {
  const FTable ft = Upload("s", 262144, 100, 17);  // 16 MiB
  Result<FvResult> full =
      client_.FvSelect(ft, {Predicate::Int(0, CompareOp::kLt, 100)});
  ASSERT_TRUE(full.ok());
  Result<FvResult> quarter =
      client_.FvSelect(ft, {Predicate::Int(0, CompareOp::kLt, 25)});
  ASSERT_TRUE(quarter.ok());
  EXPECT_LT(quarter.value().Elapsed(), full.value().Elapsed());
}

TEST_F(FvNodeTest, PipelineLoadTakesMilliseconds) {
  const SimTime before = engine_.Now();
  Result<Pipeline> p = PipelineBuilder(Schema::DefaultWideRow()).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
  EXPECT_GE(engine_.Now() - before, 5 * kMillisecond);
}

TEST_F(FvNodeTest, StreamingDeliversFirstByteEarly) {
  // Time-to-first-byte: a streaming selection delivers its first packet
  // long before completion; a blocking group-by only delivers after the
  // whole input was consumed.
  const FTable ft = Upload("big", 262144, 100, 40);  // 16 MiB
  Result<FvResult> streaming = client_.FvSelect(
      ft, {Predicate::Int(0, CompareOp::kLt, 100)});
  ASSERT_TRUE(streaming.ok());
  EXPECT_LT(streaming.value().TimeToFirstByte(),
            streaming.value().Elapsed() / 10);

  Result<FvResult> blocking =
      client_.FvGroupBy(ft, {1}, {AggSpec::Sum(2)});
  ASSERT_TRUE(blocking.ok());
  // The flush-phase result arrives only near the end.
  EXPECT_GT(blocking.value().TimeToFirstByte(),
            blocking.value().Elapsed() / 2);
}

// ---------------------------------------------------------------------------
// Resource model (Table 1)
// ---------------------------------------------------------------------------

TEST(ResourceModelTest, BaseSystemMatchesTable1) {
  const ResourceUsage u = ResourceModel::BaseSystem(6);
  EXPECT_DOUBLE_EQ(u.lut_pct, 24.0);
  EXPECT_DOUBLE_EQ(u.reg_pct, 23.0);
  EXPECT_DOUBLE_EQ(u.bram_pct, 29.0);
  EXPECT_DOUBLE_EQ(u.dsp_pct, 0.0);
}

TEST(ResourceModelTest, OperatorRowsMatchTable1) {
  EXPECT_LT(ResourceModel::OperatorUsage("selection").lut_pct, 1.0);
  EXPECT_DOUBLE_EQ(ResourceModel::OperatorUsage("regex").lut_pct, 2.3);
  EXPECT_DOUBLE_EQ(ResourceModel::OperatorUsage("distinct").bram_pct, 8.0);
  EXPECT_DOUBLE_EQ(ResourceModel::OperatorUsage("crypto").lut_pct, 3.6);
  EXPECT_DOUBLE_EQ(ResourceModel::OperatorUsage("group_by").reg_pct, 1.3);
}

TEST(ResourceModelTest, TenRegionsWithFilterPipelinesFit) {
  // The paper tested up to ten regions; light selection/projection
  // pipelines in all ten fit the device.
  Result<Pipeline> filter =
      PipelineBuilder(Schema::DefaultWideRow())
          .Select({Predicate::Int(0, CompareOp::kLt, 5)})
          .Project({0, 1})
          .Build();
  ASSERT_TRUE(filter.ok());
  std::vector<const Pipeline*> light(10, &filter.value());
  EXPECT_TRUE(ResourceModel::Fits(ResourceModel::Total(10, light)));

  // BRAM-heavy hash pipelines fit in all six regions of the evaluated
  // deployment, but ten of them exhaust BRAM — the placement/sizing
  // restriction Section 4.1 discusses.
  Result<Pipeline> hash =
      PipelineBuilder(Schema::DefaultWideRow()).Distinct({0}).Build();
  ASSERT_TRUE(hash.ok());
  std::vector<const Pipeline*> six(6, &hash.value());
  EXPECT_TRUE(ResourceModel::Fits(ResourceModel::Total(6, six)));
  std::vector<const Pipeline*> ten(10, &hash.value());
  EXPECT_FALSE(ResourceModel::Fits(ResourceModel::Total(10, ten)));
}

TEST(ResourceModelTest, FormatTable1ContainsRows) {
  const std::string t = ResourceModel::FormatTable1(6);
  EXPECT_NE(t.find("6 regions"), std::string::npos);
  EXPECT_NE(t.find("Regular expression"), std::string::npos);
  EXPECT_NE(t.find("En(de)cryption"), std::string::npos);
  EXPECT_NE(t.find("<1%"), std::string::npos);
}

TEST_F(FvNodeTest, NodeTracksLoadedPipelineResources) {
  const ResourceUsage before = node_.CurrentResources();
  Result<Pipeline> p = PipelineBuilder(Schema::DefaultWideRow())
                           .Distinct({0})
                           .Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
  const ResourceUsage after = node_.CurrentResources();
  EXPECT_GT(after.bram_pct, before.bram_pct);  // distinct uses BRAM
}

// ---------------------------------------------------------------------------
// Submission queues + request lifecycle telemetry
// ---------------------------------------------------------------------------

/// Fixture with a deeper per-queue-pair submission queue so a single client
/// can post several outstanding requests on one connection.
class FvQueueTest : public ::testing::Test {
 protected:
  static FarviewConfig DeepQueueConfig(int depth) {
    FarviewConfig c;
    c.submission_queue_depth = depth;
    return c;
  }

  explicit FvQueueTest(int depth = 4)
      : node_(&engine_, DeepQueueConfig(depth)), client_(&node_, 1) {
    EXPECT_TRUE(client_.OpenConnection().ok());
  }

  /// Uploads a uniform table and loads the identity pipeline for it.
  FTable UploadWithPipeline(uint64_t rows, uint64_t seed) {
    TableGenerator gen(seed);
    Result<Table> t = gen.Uniform(Schema::DefaultWideRow(), rows, 100);
    EXPECT_TRUE(t.ok());
    FTable ft;
    ft.name = "t";
    ft.schema = t.value().schema();
    ft.num_rows = rows;
    EXPECT_TRUE(client_.AllocTableMem(&ft).ok());
    EXPECT_TRUE(client_.TableWrite(ft, t.value()).ok());
    Result<Pipeline> p = PipelineBuilder(ft.schema).Build();
    EXPECT_TRUE(p.ok());
    EXPECT_TRUE(client_.LoadPipeline(std::move(p).value()).ok());
    return ft;
  }

  sim::Engine engine_;
  FarviewNode node_;
  FarviewClient client_;
};

TEST_F(FvQueueTest, AsyncRequestsDrainFifoWithoutReconnecting) {
  const FTable ft = UploadWithPipeline(4096, 21);
  constexpr int kRequests = 4;  // == queue depth

  std::vector<int> completion_order;
  std::vector<Result<FvResult>> results;
  for (int i = 0; i < kRequests; ++i) {
    results.emplace_back(Status::Internal("pending"));
  }
  for (int i = 0; i < kRequests; ++i) {
    client_.FarviewRequestAsync(
        client_.ScanRequest(ft),
        [&completion_order, &results, i](Result<FvResult> r) {
          completion_order.push_back(i);
          results[static_cast<size_t>(i)] = std::move(r);
        });
  }
  engine_.Run();

  // All four completed, in submission order, on the one connection.
  ASSERT_EQ(completion_order.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(completion_order[static_cast<size_t>(i)], i);
    ASSERT_TRUE(results[static_cast<size_t>(i)].ok()) << i;
    EXPECT_EQ(results[static_cast<size_t>(i)].value().rows, 4096u);
  }
  // Later requests waited in the queue: strictly increasing completion.
  for (int i = 1; i < kRequests; ++i) {
    EXPECT_GT(results[static_cast<size_t>(i)].value().completed_at,
              results[static_cast<size_t>(i - 1)].value().completed_at);
  }

  // Telemetry observed the queue filling to its depth.
  const int qp_id = client_.qp()->qp_id;
  const auto it = node_.stats().per_qp().find(qp_id);
  ASSERT_NE(it, node_.stats().per_qp().end());
  EXPECT_EQ(it->second.queue_high_water, static_cast<size_t>(kRequests));
  EXPECT_EQ(node_.stats().rejected_count(), 0u);
  // And the report mentions it.
  EXPECT_NE(node_.StatsReport().find("queue high-water"), std::string::npos);
}

class FvQueueDepth2Test : public FvQueueTest {
 protected:
  FvQueueDepth2Test() : FvQueueTest(2) {}
};

TEST_F(FvQueueDepth2Test, SubmissionBeyondDepthRejectedUnavailable) {
  const FTable ft = UploadWithPipeline(4096, 22);
  std::vector<Result<FvResult>> results;
  for (int i = 0; i < 3; ++i) {
    results.emplace_back(Status::Internal("pending"));
  }
  for (int i = 0; i < 3; ++i) {
    client_.FarviewRequestAsync(client_.ScanRequest(ft),
                                [&results, i](Result<FvResult> r) {
                                  results[static_cast<size_t>(i)] =
                                      std::move(r);
                                });
  }
  engine_.Run();
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].status().IsUnavailable());
  EXPECT_EQ(node_.stats().rejected_count(), 1u);
  EXPECT_EQ(node_.stats().completed_count(), 3u);  // write + 2 requests
}

TEST_F(FvQueueTest, DisconnectFailsQueuedRequestsExecutingOneFinishes) {
  const FTable ft = UploadWithPipeline(4096, 23);
  std::vector<Result<FvResult>> results;
  for (int i = 0; i < 3; ++i) {
    results.emplace_back(Status::Internal("pending"));
  }
  for (int i = 0; i < 3; ++i) {
    client_.FarviewRequestAsync(client_.ScanRequest(ft),
                                [&results, i](Result<FvResult> r) {
                                  results[static_cast<size_t>(i)] =
                                      std::move(r);
                                });
  }
  // Run just past the ingress hop: the first request is executing on the
  // region, the other two are waiting in the submission queue.
  engine_.RunUntil(engine_.Now() + node_.config().net.fv_request_latency +
                   kNanosecond);
  const SubmissionQueue* q = node_.submission_queue(client_.qp()->qp_id);
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->executing());
  EXPECT_EQ(q->waiting(), 2u);

  client_.CloseConnection();
  engine_.Run();

  // The in-flight request completes (one-sided RDMA already in the
  // network); the queued ones fail with Unavailable.
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].status().IsUnavailable());
  EXPECT_TRUE(results[2].status().IsUnavailable());
  EXPECT_EQ(node_.stats().failed_count(), 2u);
}

TEST_F(FvQueueTest, StageStampsMonotoneForEveryCompletedRequest) {
  const FTable ft = UploadWithPipeline(4096, 24);
  // A mixed workload on one connection: queued Farview requests plus a
  // plain read, all through the submission queue.
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    client_.FarviewRequestAsync(client_.ScanRequest(ft),
                                [&done](Result<FvResult> r) {
                                  EXPECT_TRUE(r.ok());
                                  ++done;
                                });
  }
  node_.TableRead(client_.qp()->qp_id, client_.ScanRequest(ft).vaddr,
                  client_.ScanRequest(ft).len, [&done](Result<FvResult> r) {
                    EXPECT_TRUE(r.ok());
                    ++done;
                  });
  engine_.Run();
  ASSERT_EQ(done, 4);

  // Every completed request (the table write included) passed the
  // lifecycle check at record time; the kept records show region verbs
  // visited every stage.
  const std::vector<NodeStats::RequestRecord> recent =
      node_.stats().recent_completions();
  ASSERT_GE(recent.size(), 5u);
  for (const NodeStats::RequestRecord& rec : recent) {
    SCOPED_TRACE(rec.request_id);
    // (The very first write is submitted at sim time 0, so `submitted`
    // itself may legitimately be 0.)
    EXPECT_GE(rec.ingress_done, rec.submitted);
    EXPECT_GT(rec.delivered, 0);
    if (rec.verb == Verb::kFarview || rec.verb == Verb::kRead) {
      // submitted <= region-start <= operator-done <= delivered, all set.
      EXPECT_GE(rec.region_start, rec.submitted);
      EXPECT_GE(rec.first_memory_beat, rec.region_start);
      EXPECT_GE(rec.operator_done, rec.first_memory_beat);
      EXPECT_GE(rec.egress_finished, rec.operator_done);
      EXPECT_GE(rec.delivered, rec.egress_finished);
    }
  }
  // Queue waits were recorded for the requests that had to wait.
  EXPECT_GT(node_.stats().queue_wait().Max(), 0.0);
}

// --- NodeStats recording ----------------------------------------------------

/// A completed request on `qp_id`: submitted at `submitted`, delivered at
/// `delivered`, 1000 bytes on the wire, no other stage stamped.
RequestContext CompletedCtx(int qp_id, SimTime submitted, SimTime delivered) {
  RequestContext ctx;
  ctx.qp_id = qp_id;
  ctx.submitted = submitted;
  ctx.delivered = delivered;
  ctx.bytes_on_wire = 1000;
  return ctx;
}

TEST(NodeStatsTest, RecordersAccumulateIntoTheirCounters) {
  NodeStats stats;
  stats.RecordTimeout();
  stats.RecordTimeout();
  stats.RecordRetry();
  stats.RecordLateCompletion();
  stats.RecordFallback();
  stats.RecordResyncBytes(100);
  stats.RecordResyncDone(3 * kMicrosecond);
  stats.RecordFragmentRead(64);
  stats.RecordFragmentWrite();
  stats.RecordPartialGroups(17);
  stats.RecordQueueDepth(1, 9);
  stats.RecordQueueDepth(1, 5);
  stats.RecordFailure(1);
  stats.RecordRejection(2);
  stats.RecordRegionBusy(0, 3 * kMicrosecond);
  stats.RecordRegionBusy(0, 4 * kMicrosecond);
  for (int i = 0; i < 3; ++i) stats.NextRequestId();

  const NodeStats::ReliabilityStats& rel = stats.reliability();
  EXPECT_EQ(rel.timeouts, 2u);
  EXPECT_EQ(rel.retries, 1u);
  EXPECT_EQ(rel.late_completions, 1u);
  EXPECT_EQ(rel.fallbacks, 1u);
  EXPECT_EQ(rel.resyncs, 1u);
  EXPECT_EQ(rel.resync_bytes, 100u);
  EXPECT_EQ(rel.resync_time, 3 * kMicrosecond);
  const NodeStats::ShardingStats& sh = stats.sharding();
  EXPECT_EQ(sh.fragment_reads, 1u);
  EXPECT_EQ(sh.fragment_writes, 1u);
  EXPECT_EQ(sh.gather_bytes, 64u);
  EXPECT_EQ(sh.partial_groups, 17u);
  // The queue high-water mark keeps the deepest observation; busy time adds.
  EXPECT_EQ(stats.per_qp().at(1).queue_high_water, 9u);
  EXPECT_EQ(stats.failed_count(), 1u);
  EXPECT_EQ(stats.rejected_count(), 1u);
  EXPECT_EQ(stats.region_busy_time(0), 7 * kMicrosecond);
  EXPECT_EQ(stats.region_busy_time(1), 0);
  // Request ids stay node-unique: monotone from 1.
  EXPECT_EQ(stats.NextRequestId(), 4u);
}

TEST(NodeStatsTest, CountsEveryCompletionAndKeepsOnlyTheLatestRecords) {
  // A long run's registry must not grow with its completions: the count
  // stays exact while the records kept are a fixed window of the latest.
  NodeStats stats;
  EXPECT_TRUE(stats.recent_completions().empty());
  constexpr uint64_t kCompletions = 1'000'000;
  for (uint64_t i = 0; i < kCompletions; ++i) {
    RequestContext ctx = CompletedCtx(1, static_cast<SimTime>(i),
                                      static_cast<SimTime>(i + 10));
    ctx.request_id = i + 1;
    stats.RecordCompletion(ctx);
    if (i == 2) {
      // Before the window fills it holds every record, in order.
      const std::vector<NodeStats::RequestRecord> first =
          stats.recent_completions();
      ASSERT_EQ(first.size(), 3u);
      for (size_t j = 0; j < first.size(); ++j) {
        EXPECT_EQ(first[j].request_id, j + 1);
      }
    }
  }
  EXPECT_EQ(stats.completed_count(), kCompletions);
  EXPECT_EQ(stats.per_qp().at(1).completed, kCompletions);
  EXPECT_EQ(stats.total_latency().count(), kCompletions);
  const std::vector<NodeStats::RequestRecord> recent =
      stats.recent_completions();
  ASSERT_EQ(recent.size(), NodeStats::kRecentCompletions);
  // Oldest first, ending at the last completion.
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].request_id,
              kCompletions - NodeStats::kRecentCompletions + i + 1);
  }
}

TEST(NodeStatsDeathTest, OutOfOrderStampsAbortAtRecordTime) {
  // Delivered before it was submitted: the lifecycle check fails for the
  // completion itself, whether or not its record is kept.
  NodeStats stats;
  RequestContext ctx = CompletedCtx(1, 20 * kMicrosecond, 10 * kMicrosecond);
  EXPECT_DEATH(stats.RecordCompletion(ctx), "out of lifecycle order");
}

TEST(NodeStatsTest, QpSpanStartsAtASubmitAtTimeZero) {
  // 0 is a valid submit time: a qp whose first request is submitted at
  // t = 0 keeps first_submitted == 0 while later completions arrive (fig12's
  // clients write their tables at t = 0, then scan).
  NodeStats stats;
  stats.RecordCompletion(CompletedCtx(1, 0, 10 * kMicrosecond));
  stats.RecordCompletion(CompletedCtx(1, 5 * kMicrosecond, 20 * kMicrosecond));
  // The earliest submit wins whichever completion records first.
  stats.RecordCompletion(CompletedCtx(2, 8 * kMicrosecond, 30 * kMicrosecond));
  stats.RecordCompletion(CompletedCtx(2, 6 * kMicrosecond, 40 * kMicrosecond));

  const NodeStats::QpStats& qp1 = stats.per_qp().at(1);
  EXPECT_EQ(qp1.completed, 2u);
  EXPECT_EQ(qp1.first_submitted, 0);
  EXPECT_EQ(qp1.last_delivered, 20 * kMicrosecond);
  const NodeStats::QpStats& qp2 = stats.per_qp().at(2);
  EXPECT_EQ(qp2.first_submitted, 6 * kMicrosecond);
  EXPECT_EQ(qp2.last_delivered, 40 * kMicrosecond);
}

// --- NodeStats counter tables ----------------------------------------------

/// The registry hands its counter structs out read-only; this test writes
/// rows straight through the tables, which is well-defined because the
/// registries it writes are not const objects.
template <class T>
T& Mutable(const T& v) {
  return const_cast<T&>(v);
}

/// Checks one zero-gated report section: absent from a fresh registry, and
/// when any single word of its rows is set, the report is the fresh one
/// plus exactly that section's line. Returns the number of words checked.
template <class S, class Table>
size_t ExpectSectionGatedOnRows(const std::string& label, const Table& table,
                                const S& (NodeStats::*get)() const) {
  const std::string fresh = NodeStats().FormatReport(kMicrosecond, 0.0);
  EXPECT_EQ(fresh.find(label), std::string::npos) << label;
  size_t checked = 0;
  ForEachCounter(table, [&](const auto& row) {
    const S zero{};
    const size_t words = CounterWords(zero.*row.member).size();
    for (size_t i = 0; i < words; ++i, ++checked) {
      NodeStats stats;
      CounterWords(Mutable((stats.*get)()).*row.member)[i] = 1;
      const std::string report = stats.FormatReport(kMicrosecond, 0.0);
      ASSERT_GT(report.size(), fresh.size()) << row.name << "[" << i << "]";
      EXPECT_EQ(report.substr(0, fresh.size()), fresh);
      const std::string line = report.substr(fresh.size());
      EXPECT_EQ(line.rfind("  " + label + ": ", 0), 0u) << line;
      EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
    }
  });
  return checked;
}

TEST(NodeStatsCounterTableTest, EachSectionIsGatedOnItsRows) {
  using Rel = NodeStats::ReliabilityStats;
  EXPECT_EQ(ExpectSectionGatedOnRows("reliability", Rel::kFaultCounters,
                                     &NodeStats::reliability),
            9u);
  EXPECT_EQ(ExpectSectionGatedOnRows("replication", Rel::kClusterCounters,
                                     &NodeStats::reliability),
            9u);
  EXPECT_EQ(ExpectSectionGatedOnRows("sharding",
                                     NodeStats::ShardingStats::kCounters,
                                     &NodeStats::sharding),
            6u);
  // Seven counters, the shed-delay histogram's buckets and the backlog
  // high-water mark.
  EXPECT_EQ(ExpectSectionGatedOnRows("admission",
                                     NodeStats::AdmissionStats::kCounters,
                                     &NodeStats::admission),
            7u + NodeStats::AdmissionStats::kRetryAfterBuckets + 1u);
}

}  // namespace
}  // namespace farview
