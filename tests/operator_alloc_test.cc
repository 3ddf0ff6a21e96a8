// Operator data-path allocation contract (DESIGN.md §8a): after a warm-up
// pass, streaming batches through a GroupBy + hash-join pipeline, a regex
// selection or a DISTINCT performs ZERO heap allocations per batch.
// Operator scratch (key scratch, group queues, operator outputs, packer
// output) lives in ByteBuffers whose blocks recycle through ByteBlockPool's
// size classes, so the steady state is pure pointer pops at the allocator
// boundary. The counting operator-new hook (same object as
// bench/perf_simcore) observes every hidden allocation — container growth,
// std::function fallbacks, shared_ptr control blocks — which is what makes
// this pin trustworthy.

#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/alloc_counter.h"
#include "operators/grouping.h"
#include "operators/hash_join.h"
#include "operators/pipeline.h"
#include "table/generator.h"
#include "table/schema.h"
#include "table/table.h"

namespace farview {
namespace {

/// Dimension-style build side: key = 0..rows-1, payload = key * 10.
Table MakeBuild(uint64_t rows) {
  Result<Schema> schema = Schema::Create({
      {"k", DataType::kInt64, 8},
      {"v", DataType::kInt64, 8},
  });
  Table t(std::move(schema).value());
  for (uint64_t r = 0; r < rows; ++r) {
    t.AppendRow();
    t.SetInt64(r, 0, static_cast<int64_t>(r));
    t.SetInt64(r, 1, static_cast<int64_t>(r) * 10);
  }
  return t;
}

TEST(OperatorAllocTest, GroupByJoinPipelineZeroAllocsPerBatchAfterWarmup) {
  if (!alloc_counter::hook_active()) {
    GTEST_SKIP() << "counting operator new hook not active in this binary";
  }

  // Probe rows draw keys from a fixed domain, so the warm-up pass discovers
  // every group/join key and later passes only revisit warm hash state —
  // any allocation in the measured region is a real regression, not
  // first-touch growth of the group queue or cuckoo structure.
  constexpr uint64_t kKeyDomain = 64;
  constexpr uint64_t kRowsPerBatch = 2000;
  const Schema probe_schema = Schema::DefaultWideRow(4);
  TableGenerator gen(7);
  Result<Table> probe =
      gen.Uniform(probe_schema, kRowsPerBatch, kKeyDomain);
  ASSERT_TRUE(probe.ok());
  const Table build = MakeBuild(kKeyDomain);

  Result<Pipeline> built =
      PipelineBuilder(probe_schema)
          .HashJoinSmall(0, build, 0)
          .GroupBy({0}, {AggSpec::Count(), AggSpec::Sum(1)})
          .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Pipeline pipeline = std::move(built).value();

  auto run_pass = [&]() {
    // A fresh input ByteBuffer per batch, exactly as DynamicRegion feeds
    // the datapath; its block recycles through the pool between batches.
    Batch in = Batch::Empty(&probe_schema);
    in.data = probe.value().bytes();
    in.num_rows = probe.value().num_rows();
    Result<Batch> out = pipeline.Process(std::move(in));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    Result<Batch> flushed = pipeline.Flush();
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    EXPECT_EQ(flushed.value().num_rows, kKeyDomain);
    pipeline.Reset();
  };

  // Warm-up: grows every scratch buffer and free-list class to its
  // steady-state high-water mark (two passes, so flush/reset churn is
  // warmed too).
  run_pass();
  run_pass();

  constexpr int kMeasuredBatches = 50;
  const uint64_t allocs0 = alloc_counter::allocations();
  for (int i = 0; i < kMeasuredBatches; ++i) {
    run_pass();
  }
  const uint64_t allocs = alloc_counter::allocations() - allocs0;
  EXPECT_EQ(allocs, 0u) << "operator data path allocated in steady state ("
                        << kMeasuredBatches << " batches, " << allocs
                        << " allocs = "
                        << static_cast<double>(allocs) / kMeasuredBatches
                        << "/batch)";
}

/// Allocations over `kMeasured` requests of `pipeline` over `table`, after
/// two warm-up requests. A request is what a region runs: the table fed as
/// borrowed batches of the rows each 4 KiB burst completes, then Flush,
/// then the Reset that rearms the region for the next request.
uint64_t SteadyStateAllocs(Pipeline* pipeline, const Table& table) {
  const Schema& schema = pipeline->input_schema();
  const uint64_t tw = schema.tuple_width();
  auto request = [&]() {
    uint64_t row = 0;
    for (uint64_t end = 4096; row < table.num_rows(); end += 4096) {
      const uint64_t rows = std::min(end / tw, table.num_rows()) - row;
      Result<Batch> out = pipeline->Process(
          Batch::Borrow(&schema, table.data() + row * tw, rows));
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      row += rows;
    }
    Result<Batch> flushed = pipeline->Flush();
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    pipeline->Reset();
  };
  request();
  request();
  constexpr int kMeasured = 50;
  const uint64_t allocs0 = alloc_counter::allocations();
  for (int i = 0; i < kMeasured; ++i) request();
  return alloc_counter::allocations() - allocs0;
}

TEST(OperatorAllocTest, RegexPipelineZeroAllocsPerBatchAfterWarmup) {
  if (!alloc_counter::hook_active()) {
    GTEST_SKIP() << "counting operator new hook not active in this binary";
  }
  TableGenerator gen(8);
  Result<Table> t = gen.Strings(2000, 64, "xq", 0.5);
  ASSERT_TRUE(t.ok());
  Result<Pipeline> p =
      PipelineBuilder(t.value().schema()).RegexSelect(0, "xq").Build();
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(SteadyStateAllocs(&p.value(), t.value()), 0u);
}

TEST(OperatorAllocTest, DistinctPipelineZeroAllocsPerBatchAfterWarmup) {
  if (!alloc_counter::hook_active()) {
    GTEST_SKIP() << "counting operator new hook not active in this binary";
  }
  // A default-size table (4 ways x 2^18 slots), cleared by every Reset.
  TableGenerator gen(9);
  Result<Table> t =
      gen.WithDistinct(Schema::DefaultWideRow(), 2000, 0, 500, 100);
  ASSERT_TRUE(t.ok());
  Result<Pipeline> p =
      PipelineBuilder(t.value().schema()).Distinct({0}).Build();
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(SteadyStateAllocs(&p.value(), t.value()), 0u);
}

}  // namespace
}  // namespace farview
