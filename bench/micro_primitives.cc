// Google-benchmark microbenchmarks for the hot primitives underneath the
// simulator and the functional operators. These measure *host* throughput
// (how fast the simulation itself runs), not simulated time — useful when
// tuning the library and for spotting regressions.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/aes_ctr.h"
#include "hash/cuckoo_table.h"
#include "hash/hash.h"
#include "hash/lru_shift_register.h"
#include "operators/batch.h"
#include "operators/pipeline.h"
#include "regex/regex.h"
#include "sim/engine.h"
#include "sim/server.h"
#include "table/generator.h"

namespace farview {
namespace {

void BM_HashBytes8(benchmark::State& state) {
  uint8_t key[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashBytes(key, 8, seed++));
  }
}
BENCHMARK(BM_HashBytes8);

void BM_AesEncryptBlock(benchmark::State& state) {
  uint8_t key[16] = {0x2b, 0x7e};
  Aes128 aes(key);
  uint8_t block[16] = {1};
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block[0]);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_AesCtrStream(benchmark::State& state) {
  uint8_t key[16] = {1};
  uint8_t nonce[16] = {2};
  AesCtr ctr(key, nonce);
  ByteBuffer data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    ctr.Apply(data.data(), data.size(), 0);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtrStream)->Arg(4096)->Arg(65536);

void BM_RegexSearch(benchmark::State& state) {
  Result<Regex> re = Regex::Compile("x(q|z)[a-f]*q?");
  if (!re.ok()) return;
  const std::string text(static_cast<size_t>(state.range(0)), 'a');
  for (auto _ : state) {
    benchmark::DoNotOptimize(re.value().Search(text));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RegexSearch)->Arg(64)->Arg(1024);

void BM_RegexSearchRows(benchmark::State& state) {
  // fvbench offload_mix's regex region: 64 B string rows, half holding the
  // needle, searched by RegexSelectOp's lockstep rows over a borrowed
  // batch (the region's in-place stream).
  TableGenerator gen(4);
  Result<Table> t = gen.Strings(16384, 64, "xq", 0.5);
  if (!t.ok()) return;
  const Schema& schema = t.value().schema();
  Result<Pipeline> p = PipelineBuilder(schema).RegexSelect(0, "xq").Build();
  if (!p.ok()) return;
  for (auto _ : state) {
    Result<Batch> out = p.value().Process(
        Batch::Borrow(&schema, t.value().data(), t.value().num_rows()));
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(t.value().size_bytes()));
}
BENCHMARK(BM_RegexSearchRows);

void BM_CuckooUpsert(benchmark::State& state) {
  CuckooTable table(4, 1 << 16, 8, 8);
  Rng rng(1);
  for (auto _ : state) {
    uint8_t key[8];
    StoreLE64(key, rng.NextBelow(1 << 15));
    uint8_t* payload = nullptr;
    benchmark::DoNotOptimize(table.Upsert(key, &payload));
  }
}
BENCHMARK(BM_CuckooUpsert);

void BM_DistinctRequest(benchmark::State& state) {
  // One region request of a DISTINCT pipeline on the default table
  // (4 ways x 2^18 slots): a 64 KiB batch of 64 B rows over 32 keys, then
  // the Reset that rearms the region for the next request, which clears
  // the cuckoo table.
  const Schema schema = Schema::DefaultWideRow();
  TableGenerator gen(5);
  Result<Table> t = gen.WithDistinct(schema, 1024, 0, 32, 100);
  if (!t.ok()) return;
  Result<Pipeline> p = PipelineBuilder(schema).Distinct({0}).Build();
  if (!p.ok()) return;
  for (auto _ : state) {
    Result<Batch> out = p.value().Process(
        Batch::Borrow(&schema, t.value().data(), t.value().num_rows()));
    benchmark::DoNotOptimize(out.ok());
    p.value().Reset();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(t.value().size_bytes()));
}
BENCHMARK(BM_DistinctRequest);

void BM_LruTouch(benchmark::State& state) {
  LruShiftRegister lru(8, 8);
  Rng rng(2);
  for (auto _ : state) {
    uint8_t key[8];
    StoreLE64(key, rng.NextBelow(16));
    benchmark::DoNotOptimize(lru.Touch(key));
  }
}
BENCHMARK(BM_LruTouch);

void BM_StreamParserPush(benchmark::State& state) {
  const Schema schema = Schema::DefaultWideRow();
  StreamParser parser(&schema);
  ByteBuffer chunk(4096, 0x5a);
  for (auto _ : state) {
    Batch b = parser.Push(chunk.data(), chunk.size());
    benchmark::DoNotOptimize(b.num_rows);
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_StreamParserPush);

void BM_SelectionPipeline(benchmark::State& state) {
  const Schema schema = Schema::DefaultWideRow();
  TableGenerator gen(3);
  Result<Table> t = gen.Uniform(schema, 16384, 100);
  if (!t.ok()) return;
  Result<Pipeline> p =
      PipelineBuilder(schema)
          .Select({Predicate::Int(0, CompareOp::kLt, 50)})
          .Build();
  if (!p.ok()) return;
  // The pipeline reads the table in place, as a region reads its stream,
  // so the loop times the selection kernel rather than a table copy.
  for (auto _ : state) {
    p.value().Reset();
    Result<Batch> out = p.value().Process(
        Batch::Borrow(&schema, t.value().data(), t.value().num_rows()));
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(t.value().size_bytes()));
}
BENCHMARK(BM_SelectionPipeline);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      e.ScheduleAt(i, [&counter] { ++counter; });
    }
    e.Run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_ServerFairShare(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    sim::Server s(&e, "link", 12.5e9);
    for (int f = 0; f < 6; ++f) {
      for (int i = 0; i < 200; ++i) {
        s.Submit(f, 1024, nullptr);
      }
    }
    e.Run();
    benchmark::DoNotOptimize(s.total_bytes_served());
  }
  state.SetItemsProcessed(state.iterations() * 1200);
}
BENCHMARK(BM_ServerFairShare);

}  // namespace
}  // namespace farview

BENCHMARK_MAIN();
