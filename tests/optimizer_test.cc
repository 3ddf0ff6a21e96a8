// Tests for the cost-based optimizer: decision correctness and accountability
// of its estimates against simulated outcomes.

#include <gtest/gtest.h>

#include "benchlib/experiment.h"
#include "optimizer/optimizer.h"
#include "table/generator.h"

namespace farview {
namespace {

Optimizer DefaultOptimizer() {
  return Optimizer(FarviewConfig(), CpuModelConfig());
}

TableStats StatsFor(uint64_t rows, uint32_t tuple_bytes,
                    double selectivity = 1.0, uint64_t distinct = 0) {
  TableStats s;
  s.num_rows = rows;
  s.tuple_bytes = tuple_bytes;
  s.selectivity = selectivity;
  s.distinct_keys = distinct;
  return s;
}

// ---------------------------------------------------------------------------
// Smart-addressing eligibility
// ---------------------------------------------------------------------------

TEST(SmartAddressingWindowTest, ContiguousProjectionEligible) {
  const Schema s = Schema::DefaultWideRow(64);
  QuerySpec spec;
  spec.projection = {8, 9, 10};
  uint32_t offset = 0, bytes = 0;
  EXPECT_TRUE(Optimizer::SmartAddressingWindow(spec, s, &offset, &bytes));
  EXPECT_EQ(offset, 64u);
  EXPECT_EQ(bytes, 24u);
}

TEST(SmartAddressingWindowTest, GapsAndReordersIneligible) {
  const Schema s = Schema::DefaultWideRow(64);
  QuerySpec gap;
  gap.projection = {8, 10};
  EXPECT_FALSE(Optimizer::SmartAddressingWindow(gap, s, nullptr, nullptr));
  QuerySpec reorder;
  reorder.projection = {9, 8};
  EXPECT_FALSE(
      Optimizer::SmartAddressingWindow(reorder, s, nullptr, nullptr));
}

TEST(SmartAddressingWindowTest, OtherOperatorsDisableIt) {
  const Schema s = Schema::DefaultWideRow(64);
  QuerySpec with_pred;
  with_pred.projection = {8, 9};
  with_pred.predicates = {Predicate::Int(0, CompareOp::kLt, 1)};
  EXPECT_FALSE(
      Optimizer::SmartAddressingWindow(with_pred, s, nullptr, nullptr));
  QuerySpec with_group;
  with_group.projection = {8, 9};
  with_group.group_keys = {0};
  with_group.aggregates = {AggSpec::Count()};
  EXPECT_FALSE(
      Optimizer::SmartAddressingWindow(with_group, s, nullptr, nullptr));
}

// ---------------------------------------------------------------------------
// Decisions
// ---------------------------------------------------------------------------

TEST(OptimizerTest, PicksSmartAddressingForWideTuples) {
  // The Figure 7 crossover: 512 B tuples → smart addressing; 256 B tuples
  // → streaming projection.
  const Optimizer opt = DefaultOptimizer();
  QuerySpec spec;
  spec.projection = {8, 9, 10};

  const Schema wide = Schema::DefaultWideRow(64);  // 512 B
  PhysicalPlan wide_plan = opt.Plan(spec, wide, StatsFor(100000, 512));
  EXPECT_TRUE(wide_plan.smart_addressing);
  EXPECT_EQ(wide_plan.sa_access_bytes, 24u);

  const Schema narrow = Schema::DefaultWideRow(32);  // 256 B
  PhysicalPlan narrow_plan = opt.Plan(spec, narrow, StatsFor(100000, 256));
  EXPECT_FALSE(narrow_plan.smart_addressing);
}

TEST(OptimizerTest, VectorizesOnlyWhenPipeBound) {
  const Optimizer opt = DefaultOptimizer();
  const Schema s = Schema::DefaultWideRow();
  // 100% selectivity: network-bound, no point in extra pipes.
  QuerySpec all = QuerySpec::Select({Predicate::Int(0, CompareOp::kLt, 100)});
  PhysicalPlan p100 = opt.Plan(all, s, StatsFor(1 << 20, 64, 1.0));
  EXPECT_FALSE(p100.vectorized);
  // 25% selectivity: the single pipe binds; vectorize.
  PhysicalPlan p25 = opt.Plan(all, s, StatsFor(1 << 20, 64, 0.25));
  EXPECT_TRUE(p25.vectorized);
}

TEST(OptimizerTest, TinyTablesStayLocal) {
  const Optimizer opt = DefaultOptimizer();
  const Schema s = Schema::DefaultWideRow();
  const QuerySpec spec =
      QuerySpec::Select({Predicate::Int(0, CompareOp::kLt, 50)});
  // 64 rows = 4 kB: the offload RTT dwarfs local processing.
  PhysicalPlan tiny = opt.Plan(spec, s, StatsFor(64, 64, 0.5));
  EXPECT_EQ(tiny.placement, PhysicalPlan::Placement::kLocalCpu);
  // 1 M rows = 64 MB: offload wins comfortably.
  PhysicalPlan big = opt.Plan(spec, s, StatsFor(1 << 20, 64, 0.5));
  EXPECT_EQ(big.placement, PhysicalPlan::Placement::kFarview);
}

TEST(OptimizerTest, GroupByShipsToMemory) {
  const Optimizer opt = DefaultOptimizer();
  const Schema s = Schema::DefaultWideRow();
  const QuerySpec spec = QuerySpec::GroupBy({1}, {AggSpec::Sum(2)});
  PhysicalPlan plan =
      opt.Plan(spec, s, StatsFor(1 << 20, 64, 1.0, /*distinct=*/64));
  EXPECT_EQ(plan.placement, PhysicalPlan::Placement::kFarview);
  // The hash phase makes the local estimate far larger.
  EXPECT_GT(plan.estimated_local, 3 * plan.estimated_farview);
}

TEST(OptimizerTest, ExplainMentionsDecisions) {
  const Optimizer opt = DefaultOptimizer();
  QuerySpec spec;
  spec.projection = {8, 9, 10};
  PhysicalPlan plan =
      opt.Plan(spec, Schema::DefaultWideRow(64), StatsFor(100000, 512));
  const std::string text = plan.Explain();
  EXPECT_NE(text.find("offload"), std::string::npos);
  EXPECT_NE(text.find("smart-addressing"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Accountability: estimates vs simulation
// ---------------------------------------------------------------------------

struct AccountabilityCase {
  const char* name;
  double selectivity;  // for the selection spec
  bool vectorized;
};

// Gives each case a stable printed value, which test discovery uses as the
// case name. Without it gtest prints the struct's raw bytes — the `name`
// pointer and uninitialised padding — so the names change on every run.
void PrintTo(const AccountabilityCase& c, std::ostream* os) { *os << c.name; }

class OptimizerAccountabilityTest
    : public ::testing::TestWithParam<AccountabilityCase> {};

TEST_P(OptimizerAccountabilityTest, FarviewEstimateTracksSimulation) {
  const AccountabilityCase& c = GetParam();
  const Schema schema = Schema::DefaultWideRow();
  const uint64_t rows = (8 * kMiB) / 64;
  const int64_t threshold =
      static_cast<int64_t>(c.selectivity * 100.0);
  const QuerySpec spec =
      QuerySpec::Select({Predicate::Int(0, CompareOp::kLt, threshold)});

  // Simulated ground truth.
  bench::FvFixture fx;
  TableGenerator gen(99);
  Result<Table> t = gen.Uniform(schema, rows, 100);
  ASSERT_TRUE(t.ok());
  const FTable ft = fx.Upload("t", t.value());
  Result<Pipeline> p = spec.BuildPipeline(schema);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(fx.client().LoadPipeline(std::move(p).value()).ok());
  Result<FvResult> r = fx.client().FarviewRequest(
      fx.client().ScanRequest(ft, c.vectorized));
  ASSERT_TRUE(r.ok());

  // Optimizer estimate with the true selectivity.
  const Optimizer opt = DefaultOptimizer();
  const SimTime estimate = opt.EstimateFarview(
      spec, schema, StatsFor(rows, 64, c.selectivity), c.vectorized, false,
      0);

  const double actual = static_cast<double>(r.value().Elapsed());
  const double est = static_cast<double>(estimate);
  EXPECT_LT(std::abs(est - actual) / actual, 0.25)
      << c.name << ": estimated " << ToMicros(estimate) << " us vs actual "
      << ToMicros(r.value().Elapsed()) << " us";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OptimizerAccountabilityTest,
    ::testing::Values(AccountabilityCase{"full_scan", 1.0, false},
                      AccountabilityCase{"half", 0.5, false},
                      AccountabilityCase{"quarter", 0.25, false},
                      AccountabilityCase{"quarter_vec", 0.25, true},
                      AccountabilityCase{"tenth_vec", 0.10, true}));

}  // namespace
}  // namespace farview
