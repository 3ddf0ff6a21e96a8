// Tests for the streaming operator library: parsing, every operator, and
// pipeline composition. Functional correctness is validated against naive
// reference computations.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "operators/batch.h"
#include "operators/crypto_op.h"
#include "operators/grouping.h"
#include "operators/packing.h"
#include "operators/pipeline.h"
#include "operators/predicate.h"
#include "operators/projection.h"
#include "operators/regex_select.h"
#include "operators/selection.h"
#include "table/generator.h"

namespace farview {
namespace {

Table MakeTable(int cols, uint64_t rows, int64_t range, uint64_t seed) {
  TableGenerator gen(seed);
  Result<Table> t = gen.Uniform(Schema::DefaultWideRow(cols), rows, range);
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

Batch TableBatch(const Table& t, const Schema* schema) {
  Batch b = Batch::Empty(schema);
  b.data = t.bytes();
  b.num_rows = t.num_rows();
  return b;
}

// ---------------------------------------------------------------------------
// StreamParser
// ---------------------------------------------------------------------------

TEST(StreamParserTest, WholeRowsPassThrough) {
  const Schema s = Schema::DefaultWideRow(2);  // 16 B rows
  StreamParser p(&s);
  ByteBuffer data(64);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  Batch b = p.Push(data.data(), data.size());
  EXPECT_EQ(b.num_rows, 4u);
  EXPECT_EQ(b.data, data);
  EXPECT_EQ(p.pending_bytes(), 0u);
}

TEST(StreamParserTest, SplitsAcrossArbitraryBoundaries) {
  const Schema s = Schema::DefaultWideRow(2);
  StreamParser p(&s);
  ByteBuffer data(16 * 10);
  Rng rng(5);
  for (auto& v : data) v = static_cast<uint8_t>(rng.Next());

  ByteBuffer reassembled;
  uint64_t rows = 0;
  size_t pos = 0;
  const size_t chunks[] = {1, 7, 16, 3, 30, 40, 63};
  for (size_t c : chunks) {
    Batch b = p.Push(data.data() + pos, c);
    reassembled.insert(reassembled.end(), b.data.begin(), b.data.end());
    rows += b.num_rows;
    pos += c;
  }
  Batch last = p.Push(data.data() + pos, data.size() - pos);
  reassembled.insert(reassembled.end(), last.data.begin(), last.data.end());
  rows += last.num_rows;
  EXPECT_EQ(rows, 10u);
  EXPECT_EQ(reassembled, data);
  EXPECT_EQ(p.pending_bytes(), 0u);
}

TEST(StreamParserTest, PendingPartialTuple) {
  const Schema s = Schema::DefaultWideRow(2);
  StreamParser p(&s);
  ByteBuffer data(10, 0xab);
  Batch b = p.Push(data.data(), data.size());
  EXPECT_EQ(b.num_rows, 0u);
  EXPECT_EQ(p.pending_bytes(), 10u);
  p.Reset();
  EXPECT_EQ(p.pending_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

TEST(ProjectionTest, SelectsColumnsInOrder) {
  const Schema s = Schema::DefaultWideRow(4);
  Table t = MakeTable(4, 100, 1000, 1);
  Result<OperatorPtr> op = ProjectionOp::Create(s, {3, 0});
  ASSERT_TRUE(op.ok());
  Result<Batch> out = op.value()->Process(TableBatch(t, &s));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().num_rows, 100u);
  EXPECT_EQ(out.value().schema->tuple_width(), 16u);
  for (uint64_t r = 0; r < 100; ++r) {
    EXPECT_EQ(out.value().Row(r).GetInt64(0), t.GetInt64(r, 3));
    EXPECT_EQ(out.value().Row(r).GetInt64(1), t.GetInt64(r, 0));
  }
}

TEST(ProjectionTest, DuplicateColumnsRejected) {
  const Schema s = Schema::DefaultWideRow(2);
  Result<OperatorPtr> op = ProjectionOp::Create(s, {1, 1});
  EXPECT_FALSE(op.ok());
  EXPECT_TRUE(op.status().IsInvalidArgument());
}

TEST(ProjectionTest, RejectsBadColumns) {
  const Schema s = Schema::DefaultWideRow(2);
  EXPECT_FALSE(ProjectionOp::Create(s, {}).ok());
  EXPECT_FALSE(ProjectionOp::Create(s, {2}).ok());
  EXPECT_FALSE(ProjectionOp::Create(s, {-1}).ok());
}

TEST(ProjectionTest, StatsTrackBytes) {
  const Schema s = Schema::DefaultWideRow(4);
  Table t = MakeTable(4, 50, 100, 3);
  Result<OperatorPtr> op = ProjectionOp::Create(s, {0});
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(op.value()->Process(TableBatch(t, &s)).ok());
  EXPECT_EQ(op.value()->stats().bytes_in, 50u * 32);
  EXPECT_EQ(op.value()->stats().bytes_out, 50u * 8);
  EXPECT_EQ(op.value()->stats().rows_in, 50u);
  EXPECT_EQ(op.value()->stats().rows_out, 50u);
}

// ---------------------------------------------------------------------------
// Predicates & Selection
// ---------------------------------------------------------------------------

TEST(PredicateTest, AllComparisonOps) {
  const Schema s = Schema::DefaultWideRow(1);
  Table t(s);
  t.AppendRow();
  t.SetInt64(0, 0, 5);
  const TupleView row = t.Row(0);
  EXPECT_TRUE(Predicate::Int(0, CompareOp::kLt, 6).Eval(row));
  EXPECT_FALSE(Predicate::Int(0, CompareOp::kLt, 5).Eval(row));
  EXPECT_TRUE(Predicate::Int(0, CompareOp::kLe, 5).Eval(row));
  EXPECT_TRUE(Predicate::Int(0, CompareOp::kGt, 4).Eval(row));
  EXPECT_TRUE(Predicate::Int(0, CompareOp::kGe, 5).Eval(row));
  EXPECT_TRUE(Predicate::Int(0, CompareOp::kEq, 5).Eval(row));
  EXPECT_TRUE(Predicate::Int(0, CompareOp::kNe, 4).Eval(row));
}

TEST(PredicateTest, RealPredicates) {
  Result<Schema> rs = Schema::Create({{"c", DataType::kDouble, 8}});
  ASSERT_TRUE(rs.ok());
  Table t(rs.value());
  t.AppendRow();
  t.SetDouble(0, 0, 3.5);
  // The paper's example: SELECT S.a FROM S WHERE S.c > 3.14.
  EXPECT_TRUE(Predicate::Real(0, CompareOp::kGt, 3.14).Eval(t.Row(0)));
  EXPECT_FALSE(Predicate::Real(0, CompareOp::kGt, 3.6).Eval(t.Row(0)));
}

TEST(PredicateTest, ValidationCatchesTypeMismatch) {
  const Schema ints = Schema::DefaultWideRow(1);
  EXPECT_FALSE(Predicate::Real(0, CompareOp::kLt, 1.0).Validate(ints).ok());
  EXPECT_FALSE(Predicate::Int(5, CompareOp::kLt, 1).Validate(ints).ok());
  Result<Schema> rs = Schema::Create({{"c", DataType::kDouble, 8}});
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE(Predicate::Int(0, CompareOp::kLt, 1).Validate(rs.value()).ok());
  EXPECT_TRUE(
      Predicate::Real(0, CompareOp::kLt, 1.0).Validate(rs.value()).ok());
}

TEST(PredicateTest, ToStringReadable) {
  const Schema s = Schema::DefaultWideRow(2);
  EXPECT_EQ(Predicate::Int(1, CompareOp::kLt, 50).ToString(s), "a1 < 50");
}

TEST(SelectionTest, MatchesReferenceFilter) {
  const Schema s = Schema::DefaultWideRow(8);
  Table t = MakeTable(8, 2000, 100, 4);
  // SELECT * FROM S WHERE S.a < 50 AND S.b < 70 (the Fig. 8 query shape).
  PredicateList preds({Predicate::Int(0, CompareOp::kLt, 50),
                       Predicate::Int(1, CompareOp::kLt, 70)});
  Result<OperatorPtr> op = SelectionOp::Create(s, preds);
  ASSERT_TRUE(op.ok());
  Result<Batch> out = op.value()->Process(TableBatch(t, &s));
  ASSERT_TRUE(out.ok());

  uint64_t expected = 0;
  ByteBuffer expected_bytes;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    if (t.GetInt64(r, 0) < 50 && t.GetInt64(r, 1) < 70) {
      ++expected;
      const uint8_t* p = t.Row(r).data();
      expected_bytes.insert(expected_bytes.end(), p, p + 64);
    }
  }
  EXPECT_EQ(out.value().num_rows, expected);
  EXPECT_EQ(out.value().data, expected_bytes);
  // Roughly 35% selectivity expected (0.5 × 0.7).
  EXPECT_NEAR(static_cast<double>(expected) / 2000.0, 0.35, 0.04);
}

TEST(SelectionTest, EmptyPredicateListPassesAll) {
  const Schema s = Schema::DefaultWideRow(2);
  Table t = MakeTable(2, 10, 100, 5);
  Result<OperatorPtr> op = SelectionOp::Create(s, PredicateList());
  ASSERT_TRUE(op.ok());
  Result<Batch> out = op.value()->Process(TableBatch(t, &s));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().num_rows, 10u);
}

TEST(SelectionTest, ZeroSelectivity) {
  const Schema s = Schema::DefaultWideRow(1);
  Table t = MakeTable(1, 100, 100, 6);
  Result<OperatorPtr> op =
      SelectionOp::Create(s, PredicateList({Predicate::Int(
                                 0, CompareOp::kLt, 0)}));
  ASSERT_TRUE(op.ok());
  Result<Batch> out = op.value()->Process(TableBatch(t, &s));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().num_rows, 0u);
  EXPECT_TRUE(out.value().data.empty());
}

// ---------------------------------------------------------------------------
// Regex selection
// ---------------------------------------------------------------------------

TEST(RegexSelectTest, FiltersByPattern) {
  TableGenerator gen(7);
  Result<Table> t = gen.Strings(500, 32, "xq", 0.5);
  ASSERT_TRUE(t.ok());
  const Schema& s = t.value().schema();
  Result<OperatorPtr> op = RegexSelectOp::Create(s, 0, "xq");
  ASSERT_TRUE(op.ok());
  Result<Batch> out = op.value()->Process(TableBatch(t.value(), &s));
  ASSERT_TRUE(out.ok());
  // Every emitted row matches; every matching row was emitted.
  uint64_t expected = 0;
  for (uint64_t r = 0; r < t.value().num_rows(); ++r) {
    const std::string_view sv(
        reinterpret_cast<const char*>(t.value().Row(r).ColumnData(0)), 32);
    if (sv.find("xq") != std::string_view::npos) ++expected;
  }
  EXPECT_EQ(out.value().num_rows, expected);
  EXPECT_GT(expected, 200u);
}

// Search mode runs a batch's fields through the DFA Regex::kLanes rows at
// a time. It must keep exactly the rows whose field single-stream Search
// matches, for any row count (full and partial lane groups), with the
// CHAR column at a non-zero offset inside a wider row.
TEST(RegexSelectTest, LockstepRowsKeepExactlyTheSearchMatches) {
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    const uint32_t width = 1 + static_cast<uint32_t>(rng.NextBelow(130));
    Result<Schema> s = Schema::Create({{"k", DataType::kInt64, 8},
                                       {"s", DataType::kChar, width},
                                       {"v", DataType::kInt64, 8}});
    ASSERT_TRUE(s.ok());
    const char* const kPatterns[] = {"a*", "xq", "x[qy]+z?"};
    const char* pattern = kPatterns[trial % 3];
    Result<OperatorPtr> op = RegexSelectOp::Create(s.value(), 1, pattern);
    ASSERT_TRUE(op.ok());
    const Regex& re = static_cast<RegexSelectOp*>(op.value().get())->regex();
    const uint64_t rows = rng.NextBelow(41);
    const uint32_t tw = s.value().tuple_width();
    ByteBuffer bytes(rows * tw);
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>("axqyz"[rng.NextBelow(5)]);
    }
    ByteBuffer want;
    for (uint64_t r = 0; r < rows; ++r) {
      const uint8_t* row = bytes.data() + r * tw;
      if (re.Search(std::string_view(reinterpret_cast<const char*>(row + 8),
                                     width))) {
        want.insert(want.end(), row, row + tw);
      }
    }
    Result<Batch> out = op.value()->Process(
        Batch::Borrow(&s.value(), bytes.data(), rows));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value().num_rows, want.size() / tw) << pattern;
    EXPECT_EQ(out.value().data, want)
        << pattern << ", width " << width << ", " << rows << " rows";
  }
}

TEST(RegexSelectTest, RejectsNonCharColumn) {
  EXPECT_FALSE(
      RegexSelectOp::Create(Schema::DefaultWideRow(1), 0, "a").ok());
  EXPECT_FALSE(RegexSelectOp::Create(Schema::Strings(1, 8), 3, "a").ok());
  EXPECT_FALSE(RegexSelectOp::Create(Schema::Strings(1, 8), 0, "(").ok());
}

// ---------------------------------------------------------------------------
// Distinct
// ---------------------------------------------------------------------------

TEST(DistinctTest, EmitsEachKeyOnceInFirstSeenOrder) {
  const Schema s = Schema::DefaultWideRow(8);
  TableGenerator gen(8);
  Result<Table> t = gen.WithDistinct(s, 5000, 0, 200, 1000);
  ASSERT_TRUE(t.ok());
  Result<OperatorPtr> op = DistinctOp::Create(s, {0});
  ASSERT_TRUE(op.ok());
  Result<Batch> out = op.value()->Process(TableBatch(t.value(), &s));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().num_rows, 200u);

  // First-seen order: walk the input keeping a set, compare sequences.
  std::set<int64_t> seen;
  std::vector<int64_t> expected_order;
  for (uint64_t r = 0; r < t.value().num_rows(); ++r) {
    const int64_t v = t.value().GetInt64(r, 0);
    if (seen.insert(v).second) expected_order.push_back(v);
  }
  ASSERT_EQ(out.value().num_rows, expected_order.size());
  for (uint64_t r = 0; r < out.value().num_rows; ++r) {
    EXPECT_EQ(out.value().Row(r).GetInt64(0), expected_order[r]);
  }
}

TEST(DistinctTest, MultiColumnKeys) {
  const Schema s = Schema::DefaultWideRow(3);
  Table t(s);
  // Rows: (1,2,x), (1,3,x), (1,2,y) → distinct (a0,a1) pairs: (1,2),(1,3).
  for (int i = 0; i < 3; ++i) t.AppendRow();
  t.SetInt64(0, 0, 1);
  t.SetInt64(0, 1, 2);
  t.SetInt64(1, 0, 1);
  t.SetInt64(1, 1, 3);
  t.SetInt64(2, 0, 1);
  t.SetInt64(2, 1, 2);
  Result<OperatorPtr> op = DistinctOp::Create(s, {0, 1});
  ASSERT_TRUE(op.ok());
  Result<Batch> out = op.value()->Process(TableBatch(t, &s));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().num_rows, 2u);
  EXPECT_EQ(out.value().schema->tuple_width(), 16u);
}

TEST(DistinctTest, SmallTableOverflowsButStaysExact) {
  GroupingConfig cfg;
  cfg.cuckoo_ways = 2;
  cfg.slots_per_way = 16;  // 32 slots for 200 distinct keys
  const Schema s = Schema::DefaultWideRow(1);
  TableGenerator gen(9);
  Result<Table> t = gen.WithDistinct(s, 1000, 0, 200, 1);
  ASSERT_TRUE(t.ok());
  Result<OperatorPtr> raw = DistinctOp::Create(s, {0}, cfg);
  ASSERT_TRUE(raw.ok());
  auto* op = static_cast<DistinctOp*>(raw.value().get());
  Result<Batch> out = op->Process(TableBatch(t.value(), &s));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().num_rows, 200u);
  EXPECT_GT(op->overflow_rows(), 0u);
  EXPECT_EQ(op->distinct_rows(), 200u);
}

TEST(DistinctTest, ResetClearsState) {
  const Schema s = Schema::DefaultWideRow(1);
  Table t(s);
  t.AppendRow();
  t.SetInt64(0, 0, 7);
  Result<OperatorPtr> op = DistinctOp::Create(s, {0});
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(op.value()->Process(TableBatch(t, &s)).ok());
  op.value()->Reset();
  Result<Batch> out = op.value()->Process(TableBatch(t, &s));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().num_rows, 1u);  // emitted again after reset
}

// ---------------------------------------------------------------------------
// GroupBy / Aggregate
// ---------------------------------------------------------------------------

TEST(GroupByTest, SumMatchesReference) {
  const Schema s = Schema::DefaultWideRow(8);
  TableGenerator gen(10);
  Result<Table> t = gen.WithDistinct(s, 3000, 1, 50, 1000);
  ASSERT_TRUE(t.ok());
  // SELECT a1, SUM(a2) FROM T GROUP BY a1 (the Fig. 9 query shape).
  Result<OperatorPtr> op =
      GroupByOp::Create(s, {1}, {AggSpec::Sum(2)});
  ASSERT_TRUE(op.ok());
  Result<Batch> streamed = op.value()->Process(TableBatch(t.value(), &s));
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed.value().num_rows, 0u);  // blocking: nothing streams
  Result<Batch> out = op.value()->Flush();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().num_rows, 50u);

  std::map<int64_t, int64_t> reference;
  for (uint64_t r = 0; r < t.value().num_rows(); ++r) {
    reference[t.value().GetInt64(r, 1)] += t.value().GetInt64(r, 2);
  }
  for (uint64_t g = 0; g < out.value().num_rows; ++g) {
    const int64_t key = out.value().Row(g).GetInt64(0);
    const int64_t sum = out.value().Row(g).GetInt64(1);
    ASSERT_TRUE(reference.count(key)) << key;
    EXPECT_EQ(sum, reference[key]);
  }
}

TEST(GroupByTest, AllAggregatesTogether) {
  const Schema s = Schema::DefaultWideRow(3);
  Table t(s);
  // Group 1: values 10, 20, 30. Group 2: value -5.
  const int64_t rows[][3] = {{1, 10, 0}, {1, 20, 0}, {2, -5, 0}, {1, 30, 0}};
  for (int i = 0; i < 4; ++i) {
    t.AppendRow();
    t.SetInt64(i, 0, rows[i][0]);
    t.SetInt64(i, 1, rows[i][1]);
  }
  Result<OperatorPtr> op = GroupByOp::Create(
      s, {0},
      {AggSpec::Count(), AggSpec::Sum(1), AggSpec::Min(1), AggSpec::Max(1),
       AggSpec::Avg(1)});
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(op.value()->Process(TableBatch(t, &s)).ok());
  Result<Batch> out = op.value()->Flush();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().num_rows, 2u);
  // First-insertion order: group 1 first.
  const TupleView g1 = out.value().Row(0);
  EXPECT_EQ(g1.GetInt64(0), 1);
  EXPECT_EQ(g1.GetInt64(1), 3);    // count
  EXPECT_EQ(g1.GetInt64(2), 60);   // sum
  EXPECT_EQ(g1.GetInt64(3), 10);   // min
  EXPECT_EQ(g1.GetInt64(4), 30);   // max
  EXPECT_DOUBLE_EQ(g1.GetDouble(5), 20.0);
  const TupleView g2 = out.value().Row(1);
  EXPECT_EQ(g2.GetInt64(0), 2);
  EXPECT_EQ(g2.GetInt64(1), 1);
  EXPECT_EQ(g2.GetInt64(2), -5);
  EXPECT_EQ(g2.GetInt64(3), -5);
  EXPECT_EQ(g2.GetInt64(4), -5);
  EXPECT_DOUBLE_EQ(g2.GetDouble(5), -5.0);
}

TEST(GroupByTest, MinMaxHandleNegativeOnlyGroups) {
  const Schema s = Schema::DefaultWideRow(2);
  Table t(s);
  t.AppendRow();
  t.SetInt64(0, 0, 1);
  t.SetInt64(0, 1, -100);
  Result<OperatorPtr> op =
      GroupByOp::Create(s, {0}, {AggSpec::Min(1), AggSpec::Max(1)});
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(op.value()->Process(TableBatch(t, &s)).ok());
  Result<Batch> out = op.value()->Flush();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().Row(0).GetInt64(1), -100);
  EXPECT_EQ(out.value().Row(0).GetInt64(2), -100);
}

TEST(GroupByTest, RejectsBadSpecs) {
  const Schema s = Schema::DefaultWideRow(2);
  EXPECT_FALSE(GroupByOp::Create(s, {}, {AggSpec::Count()}).ok());
  EXPECT_FALSE(GroupByOp::Create(s, {0}, {}).ok());
  EXPECT_FALSE(GroupByOp::Create(s, {0}, {AggSpec::Sum(9)}).ok());
  EXPECT_FALSE(GroupByOp::Create(s, {7}, {AggSpec::Count()}).ok());
}

TEST(AggregateTest, StandaloneFold) {
  const Schema s = Schema::DefaultWideRow(2);
  Table t(s);
  for (int i = 1; i <= 10; ++i) {
    t.AppendRow();
    t.SetInt64(static_cast<uint64_t>(i - 1), 1, i);
  }
  Result<OperatorPtr> op = AggregateOp::Create(
      s, {AggSpec::Count(), AggSpec::Sum(1), AggSpec::Avg(1)});
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(op.value()->Process(TableBatch(t, &s)).ok());
  Result<Batch> out = op.value()->Flush();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().num_rows, 1u);
  EXPECT_EQ(out.value().Row(0).GetInt64(0), 10);
  EXPECT_EQ(out.value().Row(0).GetInt64(1), 55);
  EXPECT_DOUBLE_EQ(out.value().Row(0).GetDouble(2), 5.5);
}

TEST(AggregateTest, SecondFlushEmitsNothing) {
  const Schema s = Schema::DefaultWideRow(1);
  Result<OperatorPtr> op = AggregateOp::Create(s, {AggSpec::Count()});
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(op.value()->Flush().ok());
  Result<Batch> again = op.value()->Flush();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().num_rows, 0u);
}

TEST(AggregateTest, EmptyInputCountsZero) {
  const Schema s = Schema::DefaultWideRow(1);
  Result<OperatorPtr> op =
      AggregateOp::Create(s, {AggSpec::Count(), AggSpec::Avg(0)});
  ASSERT_TRUE(op.ok());
  Result<Batch> out = op.value()->Flush();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().num_rows, 1u);
  EXPECT_EQ(out.value().Row(0).GetInt64(0), 0);
  EXPECT_DOUBLE_EQ(out.value().Row(0).GetDouble(1), 0.0);
}

// ---------------------------------------------------------------------------
// CryptoOp
// ---------------------------------------------------------------------------

TEST(CryptoOpTest, DecryptsChunkedStream) {
  const Schema s = Schema::DefaultWideRow(8);
  Table plain = MakeTable(8, 100, 1000, 11);
  // Encrypt the table as it would rest in Farview memory.
  uint8_t key[16] = {1, 2, 3, 4};
  uint8_t nonce[16] = {5, 6, 7, 8};
  ByteBuffer encrypted = plain.bytes();
  AesCtr(key, nonce).Apply(&encrypted);

  Result<OperatorPtr> op = CryptoOp::Create(s, key, nonce);
  ASSERT_TRUE(op.ok());
  // Feed in uneven chunks (but whole tuples, as the parser guarantees).
  ByteBuffer out_bytes;
  size_t pos = 0;
  for (size_t chunk : {640, 1280, 64, 4416}) {
    Batch in = Batch::Empty(&s);
    in.data.assign(encrypted.begin() + pos, encrypted.begin() + pos + chunk);
    in.num_rows = chunk / 64;
    pos += chunk;
    Result<Batch> out = op.value()->Process(std::move(in));
    ASSERT_TRUE(out.ok());
    out_bytes.insert(out_bytes.end(), out.value().data.begin(),
                     out.value().data.end());
  }
  ASSERT_EQ(pos, encrypted.size());
  EXPECT_EQ(out_bytes, plain.bytes());
}

TEST(CryptoOpTest, ResetRestartsKeystream) {
  const Schema s = Schema::DefaultWideRow(1);
  uint8_t key[16] = {9};
  uint8_t nonce[16] = {3};
  Result<OperatorPtr> op = CryptoOp::Create(s, key, nonce);
  ASSERT_TRUE(op.ok());
  Batch b1 = Batch::Empty(&s);
  b1.data.assign(8, 0);
  b1.num_rows = 1;
  Result<Batch> out1 = op.value()->Process(std::move(b1));
  ASSERT_TRUE(out1.ok());
  op.value()->Reset();
  Batch b2 = Batch::Empty(&s);
  b2.data.assign(8, 0);
  b2.num_rows = 1;
  Result<Batch> out2 = op.value()->Process(std::move(b2));
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out1.value().data, out2.value().data);
}

TEST(CryptoOpTest, RejectsNullKey) {
  const Schema s = Schema::DefaultWideRow(1);
  uint8_t key[16] = {};
  EXPECT_FALSE(CryptoOp::Create(s, nullptr, key).ok());
  EXPECT_FALSE(CryptoOp::Create(s, key, nullptr).ok());
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

TEST(PackingTest, PassThroughWithPaddingAccounting) {
  const Schema s = Schema::DefaultWideRow(1);  // 8 B rows
  PackingOp op(s);
  Batch b = Batch::Empty(&s);
  b.data.assign(8 * 5, 1);  // 40 B: 24 B padding to the 64 B word
  b.num_rows = 5;
  Result<Batch> out = op.Process(std::move(b));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().num_rows, 5u);
  EXPECT_EQ(op.padding_bytes(), 24u);
  // Another 3 rows: total 64 B, no padding.
  Batch b2 = Batch::Empty(&s);
  b2.data.assign(8 * 3, 1);
  b2.num_rows = 3;
  ASSERT_TRUE(op.Process(std::move(b2)).ok());
  EXPECT_EQ(op.padding_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

TEST(PipelineTest, SelectThenProjectMatchesReference) {
  const Schema s = Schema::DefaultWideRow(8);
  Table t = MakeTable(8, 1000, 100, 12);
  Result<Pipeline> p = PipelineBuilder(s)
                           .Select({Predicate::Int(0, CompareOp::kLt, 30)})
                           .Project({2, 5})
                           .Build();
  ASSERT_TRUE(p.ok());
  Batch in = TableBatch(t, &s);
  Result<Batch> out = p.value().Process(std::move(in));
  ASSERT_TRUE(out.ok());

  ByteBuffer expected;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    if (t.GetInt64(r, 0) < 30) {
      uint8_t row[16];
      StoreLE64Signed(row, t.GetInt64(r, 2));
      StoreLE64Signed(row + 8, t.GetInt64(r, 5));
      expected.insert(expected.end(), row, row + 16);
    }
  }
  EXPECT_EQ(out.value().data, expected);
}

TEST(PipelineTest, BuilderPropagatesErrors) {
  const Schema s = Schema::DefaultWideRow(2);
  Result<Pipeline> p = PipelineBuilder(s)
                           .Project({9})  // bad column
                           .Select({Predicate::Int(0, CompareOp::kLt, 1)})
                           .Build();
  EXPECT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(PipelineTest, ProjectionThenPredicateOnProjectedSchema) {
  // After projection, predicate indices refer to the *projected* schema.
  const Schema s = Schema::DefaultWideRow(4);
  Table t = MakeTable(4, 500, 100, 13);
  Result<Pipeline> p = PipelineBuilder(s)
                           .Project({3})
                           .Select({Predicate::Int(0, CompareOp::kGe, 50)})
                           .Build();
  ASSERT_TRUE(p.ok());
  Result<Batch> out = p.value().Process(TableBatch(t, &s));
  ASSERT_TRUE(out.ok());
  uint64_t expected = 0;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    if (t.GetInt64(r, 3) >= 50) ++expected;
  }
  EXPECT_EQ(out.value().num_rows, expected);
}

TEST(PipelineTest, FlushRoutesThroughDownstreamOperators) {
  // group_by followed by (auto-appended) packing: flush output must pass
  // through packing and be accounted there.
  const Schema s = Schema::DefaultWideRow(2);
  Table t = MakeTable(2, 100, 10, 14);
  Result<Pipeline> p =
      PipelineBuilder(s).GroupBy({0}, {AggSpec::Count()}).Build();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p.value().Process(TableBatch(t, &s)).ok());
  Result<Batch> out = p.value().Flush();
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out.value().num_rows, 0u);
  // The packer saw the flush bytes.
  const Operator& packer = p.value().op(p.value().num_operators() - 1);
  EXPECT_EQ(packer.stats().bytes_in, out.value().size_bytes());
}

TEST(PipelineTest, IsBlockingDetection) {
  const Schema s = Schema::DefaultWideRow(2);
  Result<Pipeline> streaming =
      PipelineBuilder(s).Select({Predicate::Int(0, CompareOp::kLt, 5)}).Build();
  ASSERT_TRUE(streaming.ok());
  EXPECT_FALSE(streaming.value().IsBlocking());
  Result<Pipeline> blocking =
      PipelineBuilder(s).GroupBy({0}, {AggSpec::Count()}).Build();
  ASSERT_TRUE(blocking.ok());
  EXPECT_TRUE(blocking.value().IsBlocking());
}

TEST(PipelineTest, DescribeListsOperators) {
  const Schema s = Schema::DefaultWideRow(2);
  Result<Pipeline> p = PipelineBuilder(s)
                           .Select({Predicate::Int(0, CompareOp::kLt, 5)})
                           .Project({0})
                           .Build();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().Describe(), "selection|projection|packing");
}

TEST(PipelineTest, EmptyPipelineIsIdentity) {
  const Schema s = Schema::DefaultWideRow(2);
  Pipeline p(s);
  Table t = MakeTable(2, 10, 10, 15);
  Result<Batch> out = p.Process(TableBatch(t, &s));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().data, t.bytes());
  EXPECT_EQ(p.Describe(), "read");
}

TEST(PipelineTest, ResetAllowsReuse) {
  const Schema s = Schema::DefaultWideRow(2);
  Table t = MakeTable(2, 50, 5, 16);
  Result<Pipeline> p =
      PipelineBuilder(s).Distinct({0}).Build();
  ASSERT_TRUE(p.ok());
  Result<Batch> first = p.value().Process(TableBatch(t, &s));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(p.value().Flush().ok());
  p.value().Reset();
  Result<Batch> second = p.value().Process(TableBatch(t, &s));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().data, second.value().data);
}

// Property: for random predicates and projections, pipeline output equals a
// naive row-by-row evaluation.
TEST(PipelinePropertyTest, RandomQueriesMatchNaiveReference) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const int cols = 2 + static_cast<int>(rng.NextBelow(6));
    const Schema s = Schema::DefaultWideRow(cols);
    Table t = MakeTable(cols, 200 + rng.NextBelow(800), 50, 100 + trial);

    const int pred_col = static_cast<int>(rng.NextBelow(cols));
    const auto op = static_cast<CompareOp>(rng.NextBelow(6));
    const int64_t threshold = rng.NextInRange(0, 49);
    const int proj_col = static_cast<int>(rng.NextBelow(cols));

    Result<Pipeline> p =
        PipelineBuilder(s)
            .Select({Predicate::Int(pred_col, op, threshold)})
            .Project({proj_col})
            .Build();
    ASSERT_TRUE(p.ok());
    Result<Batch> out = p.value().Process(TableBatch(t, &s));
    ASSERT_TRUE(out.ok());

    ByteBuffer expected;
    const Predicate pred = Predicate::Int(pred_col, op, threshold);
    for (uint64_t r = 0; r < t.num_rows(); ++r) {
      if (pred.Eval(t.Row(r))) {
        uint8_t v[8];
        StoreLE64Signed(v, t.GetInt64(r, proj_col));
        expected.insert(expected.end(), v, v + 8);
      }
    }
    EXPECT_EQ(out.value().data, expected) << "trial " << trial;
  }
}


// ---------------------------------------------------------------------------
// Borrowed batches and compiled selection terms. fvbench's digest gate
// cannot see a bug here (its references run these same operators), so
// these tests are the check.
// ---------------------------------------------------------------------------

/// k INT64 in [0, 50), v INT64, d DOUBLE, s CHAR(16): 40 B rows, every
/// operator kind has a column to work on. About a third of the strings
/// embed "ab".
Table MixedTable(uint64_t rows, uint64_t seed) {
  Result<Schema> schema = Schema::Create({{"k", DataType::kInt64, 8},
                                          {"v", DataType::kInt64, 8},
                                          {"d", DataType::kDouble, 8},
                                          {"s", DataType::kChar, 16}});
  EXPECT_TRUE(schema.ok());
  Table t(schema.value());
  Rng rng(seed);
  for (uint64_t r = 0; r < rows; ++r) {
    uint8_t row[40];
    StoreLE64Signed(row, rng.NextInRange(0, 49));
    StoreLE64Signed(row + 8, rng.NextInRange(-1000, 1000));
    StoreDouble(row + 16, rng.NextDouble() * 100.0);
    for (int i = 0; i < 16; ++i) {
      row[24 + i] = static_cast<uint8_t>('c' + rng.NextBelow(20));
    }
    if (rng.NextBernoulli(0.35)) {
      const uint64_t at = rng.NextBelow(15);
      row[24 + at] = 'a';
      row[24 + at + 1] = 'b';
    }
    t.AppendRowBytes(row);
  }
  return t;
}

/// The bytes a batch carries, whichever form it has.
ByteBuffer BatchBytes(const Batch& b) {
  ByteBuffer out;
  b.AppendTo(&out);
  return out;
}

TEST(BorrowedBatchTest, BorrowReadsRowsInPlace) {
  const Table t = MakeTable(3, 10, 100, 5);
  const Batch b = Batch::Borrow(&t.schema(), t.data() + 24, 4);
  EXPECT_TRUE(b.borrowed());
  EXPECT_TRUE(b.data.empty());
  EXPECT_EQ(b.bytes(), t.data() + 24);
  EXPECT_EQ(b.size_bytes(), 4u * 24);
  EXPECT_EQ(b.Row(2).data(), t.Row(3).data());
  EXPECT_EQ(b.Row(3).GetInt64(1), t.GetInt64(4, 1));
  EXPECT_FALSE(TableBatch(t, &t.schema()).borrowed());
}

// Every operator kind gives the same rows, batch by batch and at flush,
// whether its input borrows the table's bytes or owns a copy of them, and
// no operator writes through a borrowed batch (decrypt rewrites bytes, so it
// must XOR into a buffer of its own).
TEST(BorrowedBatchTest, EveryOperatorKindMatchesOwnedInput) {
  const Table t = MixedTable(700, 21);
  const Schema& s = t.schema();
  const ByteBuffer original = t.bytes();
  Table build(Schema::DefaultWideRow(2));
  for (int64_t k = 0; k < 40; k += 2) {
    uint8_t row[16];
    StoreLE64Signed(row, k);
    StoreLE64Signed(row + 8, k * 1000);
    build.AppendRowBytes(row);
  }
  const uint8_t key[16] = {9, 8, 7, 6, 5};
  const uint8_t nonce[16] = {1, 1, 2, 3, 5, 8};

  const std::map<std::string,
                 std::function<PipelineBuilder&(PipelineBuilder&)>>
      kinds = {
          {"select",
           [](PipelineBuilder& b) -> PipelineBuilder& {
             return b.Select({Predicate::Int(0, CompareOp::kLt, 25),
                              Predicate::Real(2, CompareOp::kGe, 30.0)});
           }},
          {"project",
           [](PipelineBuilder& b) -> PipelineBuilder& {
             return b.Project({3, 0});
           }},
          {"regex",
           [](PipelineBuilder& b) -> PipelineBuilder& {
             return b.RegexSelect(3, "ab");
           }},
          {"distinct",
           [](PipelineBuilder& b) -> PipelineBuilder& {
             return b.Distinct({0});
           }},
          {"group_by",
           [](PipelineBuilder& b) -> PipelineBuilder& {
             return b.GroupBy({0}, {AggSpec::Sum(1), AggSpec::Count()});
           }},
          {"join",
           [&build](PipelineBuilder& b) -> PipelineBuilder& {
             return b.HashJoinSmall(0, build, 0);
           }},
          {"decrypt",
           [&key, &nonce](PipelineBuilder& b) -> PipelineBuilder& {
             return b.Decrypt(key, nonce);
           }},
          {"compress",
           [](PipelineBuilder& b) -> PipelineBuilder& {
             return b.Compress();
           }},
          {"packer_only",
           [](PipelineBuilder& b) -> PipelineBuilder& { return b; }},
      };
  for (const auto& [kind, add] : kinds) {
    SCOPED_TRACE(kind);
    PipelineBuilder borrowed_builder(s);
    PipelineBuilder owned_builder(s);
    Result<Pipeline> borrowed = add(borrowed_builder).Build();
    Result<Pipeline> owned = add(owned_builder).Build();
    ASSERT_TRUE(borrowed.ok() && owned.ok());
    uint64_t row = 0;
    uint64_t rows_out = 0;
    for (const uint64_t n : {0, 1, 37, 100, 3, 259, 300}) {
      ASSERT_LE(row + n, t.num_rows());
      const uint8_t* at = t.data() + row * s.tuple_width();
      Batch copy = Batch::Empty(&s);
      copy.data.assign(at, at + n * s.tuple_width());
      copy.num_rows = n;
      Result<Batch> a = borrowed.value().Process(Batch::Borrow(&s, at, n));
      Result<Batch> b = owned.value().Process(std::move(copy));
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a.value().num_rows, b.value().num_rows);
      EXPECT_EQ(BatchBytes(a.value()), BatchBytes(b.value()));
      rows_out += a.value().num_rows;
      row += n;
    }
    ASSERT_EQ(row, t.num_rows());
    Result<Batch> a = borrowed.value().Flush();
    Result<Batch> b = owned.value().Flush();
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().num_rows, b.value().num_rows);
    EXPECT_EQ(BatchBytes(a.value()), BatchBytes(b.value()));
    rows_out += a.value().num_rows;
    EXPECT_GT(rows_out, 0u);
    for (size_t i = 0; i < borrowed.value().num_operators(); ++i) {
      const OperatorStats& x = borrowed.value().op(i).stats();
      const OperatorStats& y = owned.value().op(i).stats();
      EXPECT_EQ(x.rows_in, y.rows_in);
      EXPECT_EQ(x.rows_out, y.rows_out);
      EXPECT_EQ(x.bytes_in, y.bytes_in);
      EXPECT_EQ(x.bytes_out, y.bytes_out);
    }
    EXPECT_EQ(t.bytes(), original);
  }
}

// The compiled terms agree with per-row Predicate::Eval on random
// conjunctions: all six ops, INT64, UINT64 (compared signed) and DOUBLE
// columns at non-zero, unaligned offsets, NaN and signed zeros, small value
// domains so that equality hits, and the empty conjunction.
TEST(CompiledPredicateTest, MatchesPredicateEvalOnRandomConjunctions) {
  constexpr CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                CompareOp::kGt, CompareOp::kGe,
                                CompareOp::kEq, CompareOp::kNe};
  const double kReals[] = {-1.5, -0.0, 0.0, 0.5, 1.0,
                           std::numeric_limits<double>::quiet_NaN()};
  const uint64_t kUnsigned[] = {0, 1, 2, 1ull << 63, ~0ull};
  Rng rng(20261019);
  uint64_t matched = 0;
  uint64_t evaluated = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // A leading CHAR column of 1..13 bytes puts every numeric column at a
    // non-zero offset, usually not 8-byte aligned.
    std::vector<Column> cols = {
        {"pad", DataType::kChar, static_cast<uint32_t>(1 + rng.NextBelow(13))}};
    const int numeric = 1 + static_cast<int>(rng.NextBelow(5));
    for (int c = 0; c < numeric; ++c) {
      const DataType types[] = {DataType::kInt64, DataType::kUInt64,
                                DataType::kDouble};
      cols.push_back({std::string("c").append(std::to_string(c)),
                      types[rng.NextBelow(3)], 8});
    }
    Result<Schema> schema = Schema::Create(cols);
    ASSERT_TRUE(schema.ok());
    const Schema& s = schema.value();

    std::vector<Predicate> preds;
    const uint64_t terms = rng.NextBelow(5);  // 0 = the empty conjunction
    for (uint64_t i = 0; i < terms; ++i) {
      const int col = 1 + static_cast<int>(rng.NextBelow(
                              static_cast<uint64_t>(numeric)));
      const CompareOp op = kOps[rng.NextBelow(6)];
      if (s.column(col).type == DataType::kDouble) {
        preds.push_back(Predicate::Real(col, op, kReals[rng.NextBelow(6)]));
      } else {
        preds.push_back(Predicate::Int(col, op, rng.NextInRange(-2, 2)));
      }
    }
    const PredicateList list(preds);
    Result<CompiledPredicate> compiled = CompiledPredicate::Compile(list, s);
    ASSERT_TRUE(compiled.ok());
    ASSERT_EQ(compiled.value().size(), list.size());

    ByteBuffer row(s.tuple_width(), 0);
    for (int r = 0; r < 50; ++r) {
      for (uint32_t i = 0; i < s.width(0); ++i) {
        row[i] = static_cast<uint8_t>(rng.Next());
      }
      for (int c = 1; c <= numeric; ++c) {
        uint8_t* p = row.data() + s.offset(c);
        switch (s.column(c).type) {
          case DataType::kDouble:
            StoreDouble(p, kReals[rng.NextBelow(6)]);
            break;
          case DataType::kUInt64:
            StoreLE64(p, kUnsigned[rng.NextBelow(5)]);
            break;
          default:
            StoreLE64Signed(p, rng.NextInRange(-2, 2));
            break;
        }
      }
      const bool want = list.Eval(TupleView(&s, row.data()));
      ASSERT_EQ(compiled.value().Eval(row.data()), want)
          << "trial " << trial << " row " << r;
      matched += want ? 1 : 0;
      ++evaluated;
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(matched, evaluated / 20);
  EXPECT_LT(matched, evaluated - evaluated / 20);
}

TEST(CompiledPredicateTest, CompileValidatesLikeTheList) {
  const Schema s = Schema::DefaultWideRow(2);
  EXPECT_FALSE(CompiledPredicate::Compile(
                   PredicateList({Predicate::Real(0, CompareOp::kLt, 1.0)}), s)
                   .ok());
  EXPECT_FALSE(CompiledPredicate::Compile(
                   PredicateList({Predicate::Int(2, CompareOp::kLt, 1)}), s)
                   .ok());
  Result<CompiledPredicate> empty =
      CompiledPredicate::Compile(PredicateList(), s);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().size(), 0u);
  const uint8_t row[16] = {};
  EXPECT_TRUE(empty.value().Eval(row));
}

}  // namespace
}  // namespace farview
