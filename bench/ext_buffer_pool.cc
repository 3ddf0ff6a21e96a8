// Extension benchmark: cache management for the disaggregated buffer pool
// (the paper's future work: "design suitable cache management strategies to
// move data back and forth to persistent storage").
//
// A working set of tables lives on a simulated NVMe storage tier; Farview
// DRAM caches a fraction of it. A skewed (80/20-style) query sequence runs
// offloaded selections; misses pay the storage load in simulated time.
// Reports hit rate and total completion time per eviction policy and cache
// size.

#include <memory>
#include <vector>

#include "benchlib/experiment.h"
#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "table/generator.h"

namespace farview {
namespace {

constexpr int kTables = 12;
constexpr uint64_t kTableBytes = 2 * kMiB;
constexpr int kQueries = 120;

struct Outcome {
  double hit_rate = 0;
  double total_ms = 0;
};

Outcome RunPolicy(const std::string& policy, uint64_t capacity,
                  uint64_t seed) {
  bench::FvFixture fx;
  StorageNode storage(&fx.engine());
  const Schema schema = Schema::DefaultWideRow();
  for (int i = 0; i < kTables; ++i) {
    TableGenerator gen(seed + static_cast<uint64_t>(i));
    Result<Table> t = gen.Uniform(schema, kTableBytes / 64, 100);
    if (!t.ok()) return {};
    storage.PutExtent(std::string("t").append(std::to_string(i)),
                      t.value().bytes());
  }
  Result<std::unique_ptr<EvictionPolicy>> p = MakeEvictionPolicy(policy);
  if (!p.ok()) return {};
  BufferPoolManager pool(&fx.client(), &storage, capacity,
                         std::move(p).value());
  for (int i = 0; i < kTables; ++i) {
    const std::string name = std::string("t").append(std::to_string(i));
    if (!pool.RegisterTable(name, schema).ok()) return {};
  }

  // All queries share one selection pipeline: load it once (partial
  // reconfiguration costs milliseconds; re-loading per query would dominate
  // the workload).
  Result<Pipeline> pipeline =
      PipelineBuilder(schema)
          .Select({Predicate::Int(0, CompareOp::kLt, 10)})
          .Build();
  if (!pipeline.ok()) return {};
  if (!fx.client().LoadPipeline(std::move(pipeline).value()).ok()) return {};

  // Skewed accesses: 80% of queries hit the first 3 tables.
  Rng rng(seed * 31 + 7);
  const SimTime start = fx.engine().Now();
  for (int q = 0; q < kQueries; ++q) {
    const int table = rng.NextBernoulli(0.8)
                          ? static_cast<int>(rng.NextBelow(3))
                          : 3 + static_cast<int>(rng.NextBelow(kTables - 3));
    const std::string name =
        std::string("t").append(std::to_string(table));
    Result<FTable> ft = pool.Pin(name);
    if (!ft.ok()) return {};
    Result<FvResult> r =
        fx.client().FarviewRequest(fx.client().ScanRequest(ft.value()));
    if (!r.ok()) return {};
    if (!pool.Unpin(name).ok()) return {};
  }
  Outcome out;
  out.hit_rate = 100.0 * static_cast<double>(pool.hits()) /
                 static_cast<double>(pool.hits() + pool.misses());
  out.total_ms = ToMillis(fx.engine().Now() - start);
  return out;
}

void Run() {
  bench::SeriesPrinter hits(
      "Extension: buffer-pool hit rate [%] (12x2 MiB tables, 80/20 skew)",
      "cache size", {"lru", "clock", "fifo"});
  bench::SeriesPrinter time(
      "Extension: workload completion time [ms] incl. storage loads",
      "cache size", {"lru", "clock", "fifo"});
  for (uint64_t frac : {4, 6, 8, 12}) {
    const uint64_t capacity = frac * kTableBytes;
    std::vector<double> hit_row, time_row;
    for (const char* policy : {"lru", "clock", "fifo"}) {
      const Outcome o = RunPolicy(policy, capacity, frac);
      hit_row.push_back(o.hit_rate);
      time_row.push_back(o.total_ms);
    }
    const std::string label = std::to_string(frac) + "/12 tables";
    hits.Row(label, hit_row);
    time.Row(label, time_row);
  }
  hits.Print();
  time.Print();
}

}  // namespace
}  // namespace farview

int main() {
  farview::Run();
  return 0;
}
