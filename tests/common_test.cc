// Unit tests for src/common: Status/Result, units, bytes, rng, logging.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/alloc_counter.h"
#include "common/bytes.h"
#include "common/inline_fn.h"
#include "common/logging.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"

namespace farview {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfMemory("x").IsOutOfMemory());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_FALSE(Status::Internal("x").ok());
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  const Status s = Status::NotFound("table t");
  EXPECT_EQ(s.ToString(), "NotFound: table t");
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfMemory), "OutOfMemory");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("abc");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "abc");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  FV_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseHalf(3, &out).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

TEST(UnitsTest, TimeConversions) {
  EXPECT_EQ(kMicrosecond, 1000 * kNanosecond);
  EXPECT_DOUBLE_EQ(ToMicros(2 * kMicrosecond), 2.0);
  EXPECT_DOUBLE_EQ(ToMillis(kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
}

TEST(UnitsTest, BandwidthConversions) {
  EXPECT_DOUBLE_EQ(GbpsToBytesPerSec(100.0), 12.5e9);
  EXPECT_DOUBLE_EQ(GBpsToBytesPerSec(18.0), 18e9);
}

TEST(UnitsTest, TransferTimeRoundsUp) {
  // 1 byte at 1 GB/s = 1 ns exactly.
  EXPECT_EQ(TransferTime(1, 1e9), kNanosecond);
  // 0 bytes take no time.
  EXPECT_EQ(TransferTime(0, 1e9), 0);
  // Never faster than the line rate: ceil rounding.
  EXPECT_GE(TransferTime(3, 1e12), 3);
}

TEST(UnitsTest, TransferTimeLargeValues) {
  // 1 GiB at 12.5 GB/s ≈ 85.9 ms; must not overflow.
  const SimTime t = TransferTime(1ull << 30, 12.5e9);
  EXPECT_NEAR(ToMillis(t), 85.9, 0.2);
}

TEST(UnitsTest, AchievedBandwidth) {
  EXPECT_NEAR(AchievedGBps(12'500'000'000ull, kSecond), 12.5, 1e-9);
  EXPECT_EQ(AchievedGBps(100, 0), 0.0);
}

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

TEST(BytesTest, RoundTrip64) {
  uint8_t buf[8];
  StoreLE64(buf, 0x1122334455667788ull);
  EXPECT_EQ(LoadLE64(buf), 0x1122334455667788ull);
  StoreLE64Signed(buf, -12345);
  EXPECT_EQ(LoadLE64Signed(buf), -12345);
}

TEST(BytesTest, RoundTripDouble) {
  uint8_t buf[8];
  StoreDouble(buf, 3.14159);
  EXPECT_DOUBLE_EQ(LoadDouble(buf), 3.14159);
}

TEST(BytesTest, RoundTrip32) {
  uint8_t buf[4];
  StoreLE32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadLE32(buf), 0xdeadbeefu);
}

TEST(BytesTest, LittleEndianLayout) {
  uint8_t buf[8];
  StoreLE64(buf, 0x01);
  EXPECT_EQ(buf[0], 0x01);  // least significant byte first
  EXPECT_EQ(buf[7], 0x00);
}

TEST(BytesTest, Alignment) {
  EXPECT_EQ(AlignUp(0, 64), 0u);
  EXPECT_EQ(AlignUp(1, 64), 64u);
  EXPECT_EQ(AlignUp(64, 64), 64u);
  EXPECT_EQ(AlignUp(65, 64), 128u);
  EXPECT_EQ(AlignDown(65, 64), 64u);
  EXPECT_EQ(AlignDown(63, 64), 0u);
}

TEST(BytesTest, PowerOfTwoAndCeilDiv) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(24));
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(CeilDiv(0, 3), 0u);
}

TEST(BytesTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(64), "64 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3.0 MiB");
  EXPECT_EQ(FormatBytes(kGiB), "1.00 GiB");
}

TEST(ByteBlockPoolTest, EverySizeTakesTheSmallestClassThatHoldsIt) {
  using P = ByteBlockPool;
  // Each class maps back to itself and the last one is the largest block.
  for (int c = 0; c < P::kNumClasses; ++c) {
    ASSERT_EQ(P::ClassOf(P::ClassBytes(c)), c) << c;
    if (c > 0) {
      ASSERT_LT(P::ClassBytes(c - 1), P::ClassBytes(c)) << c;
    }
  }
  EXPECT_EQ(P::ClassBytes(P::kNumClasses - 1), P::kMaxClassBytes);
  EXPECT_EQ(P::ClassBytes(0), P::kMinClassBytes);
  EXPECT_EQ(P::ClassOf(1), 0);
  // Every size up to 1 MiB takes the smallest class holding it: a power
  // of two up to 256 KiB, and above it at most an eighth larger than the
  // size.
  for (std::size_t n = 1; n <= (std::size_t{1} << 20); ++n) {
    const int c = P::ClassOf(n);
    ASSERT_GE(P::ClassBytes(c), n) << n;
    if (c > 0) {
      ASSERT_LT(P::ClassBytes(c - 1), n) << n;
    }
    if (n <= P::kFineClassBytes) {
      ASSERT_TRUE(IsPowerOfTwo(P::ClassBytes(c))) << n;
    } else {
      ASSERT_LE(P::ClassBytes(c), n + n / 8) << n;
    }
  }
}

TEST(ByteBlockPoolTest, DistinctLargeSizesReuseTheirClassBlocks) {
  // fvbench's rdma_rw reads thousands of distinct sizes in [4 KiB, 1 MiB].
  // Keyed by exact size, each distinct size cost a fresh block that was
  // then parked and never reused; by class, the range costs one block and
  // one free list per class, whatever the number of sizes.
  if (!alloc_counter::hook_active()) {
    GTEST_SKIP() << "counting operator-new hook not linked (sanitizer build)";
  }
  constexpr std::size_t kLo = 256 * 1024;
  constexpr std::size_t kHi = 1024 * 1024;
  Rng rng(28);
  std::set<std::size_t> distinct;
  std::vector<std::size_t> sizes;
  while (sizes.size() < 10'000) {
    // Log-uniform in [kLo, kHi].
    const auto n = static_cast<std::size_t>(
        static_cast<double>(kLo) * std::exp2(2.0 * rng.NextDouble()));
    if (distinct.insert(n).second) sizes.push_back(n);
  }
  ByteBlockPool pool;
  const uint64_t allocs0 = alloc_counter::allocations();
  for (const std::size_t n : sizes) pool.Deallocate(pool.Allocate(n), n);
  const uint64_t fresh = alloc_counter::allocations() - allocs0;
  const int classes =
      ByteBlockPool::ClassOf(kHi) - ByteBlockPool::ClassOf(kLo) + 1;
  EXPECT_EQ(classes, 17);
  EXPECT_LE(fresh, 2u * static_cast<uint64_t>(classes));
}

TEST(PoolPoisonConfig, ReleaseMatchesBuildConfiguration) {
  // Pool poisoning (kPoolPoisonByte, src/common/pool.h) is a debug aid: the
  // default build must leave recycled bytes untouched (no memset on the hot
  // path; bench_identity pins the observable side), while a poisoned build
  // (ASan CI defines FV_POOL_POISON build-wide) must overwrite them. This
  // test asserts whichever contract matches how it was compiled.
  struct Blob {
    Blob() {}  // user-provided so placement T() does not zero the bytes
    unsigned char bytes[32];
  };
  Pool<Blob> pool;
  Blob* p = pool.Acquire();
  // Volatile accesses: plain writes to an object whose lifetime then ends
  // are dead stores the optimizer may (and does, at -O2) eliminate.
  volatile unsigned char* raw = reinterpret_cast<unsigned char*>(p);
  for (std::size_t i = 0; i < sizeof(Blob); ++i) raw[i] = 0x5A;
  pool.Release(p);
#ifdef FV_POOL_POISON
  const unsigned char expected = kPoolPoisonByte;
#else
  const unsigned char expected = 0x5A;
#endif
  for (std::size_t i = 0; i < sizeof(Blob); ++i) {
    ASSERT_EQ(raw[i], expected) << "offset " << i;
  }
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo |= (v == -2);
    hi |= (v == 2);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

TEST(LoggingTest, LevelFilterRoundTrip) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below the floor: must not crash (and is swallowed).
  FV_LOG(kDebug) << "invisible";
  SetLogLevel(prev);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  FV_CHECK(1 + 1 == 2) << "never printed";
}

TEST(LoggingDeathTest, CheckAbortsOnFalse) {
  EXPECT_DEATH({ FV_CHECK(false) << "boom"; }, "Check failed");
}

// The row layout relies on little-endian hosts; make it explicit.
TEST(PlatformTest, HostIsLittleEndian) {
  const uint32_t v = 1;
  uint8_t b[4];
  std::memcpy(b, &v, 4);
  EXPECT_EQ(b[0], 1);
}

// ---------------------------------------------------------------------------
// InlineFn
// ---------------------------------------------------------------------------

TEST(InlineFnTest, InvokesAndPassesArguments) {
  InlineFn<int(int, int)> f = [](int a, int b) { return a * 10 + b; };
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(3, 4), 34);
}

TEST(InlineFnTest, StorageThreshold) {
  // The event structs schedule `this` + a state pointer + scalars; all of
  // that must stay inside the 64-byte inline buffer. One byte past the
  // threshold (or a throwing move) falls back to the heap model.
  struct Fits {
    char pad[InlineFn<void()>::kInlineBytes];
    void operator()() {}
  };
  struct TooBig {
    char pad[InlineFn<void()>::kInlineBytes + 1];
    void operator()() {}
  };
  static_assert(InlineFn<void()>::StoredInline<Fits>());
  static_assert(!InlineFn<void()>::StoredInline<TooBig>());
  InlineFn<void()> in_place = Fits{};
  InlineFn<void()> on_heap = TooBig{};
  EXPECT_TRUE(in_place.is_inline());
  EXPECT_FALSE(on_heap.is_inline());
  in_place();
  on_heap();
}

TEST(InlineFnTest, MoveTransfersNonTrivialCapture) {
  // std::string is not trivially relocatable, so this exercises the
  // indirect relocate path (Ops::relocate != nullptr).
  std::string payload(40, 'x');
  InlineFn<std::size_t()> a = [payload]() { return payload.size(); };
  ASSERT_TRUE(a.is_inline());
  InlineFn<std::size_t()> b = std::move(a);
  EXPECT_EQ(a, nullptr);  // NOLINT(bugprone-use-after-move): pinned contract
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b(), 40u);
  InlineFn<std::size_t()> c;
  c = std::move(b);
  EXPECT_EQ(c(), 40u);
}

TEST(InlineFnTest, TrivialCaptureUsesRawBufferRelocation) {
  // Trivially copyable captures relocate via whole-buffer memcpy (the
  // nullptr relocate fast path); the value must survive a chain of moves.
  struct Counter {
    int base;
    int operator()(int add) const { return base + add; }
  };
  InlineFn<int(int)> a = Counter{100};
  InlineFn<int(int)> b = std::move(a);
  InlineFn<int(int)> c = std::move(b);
  EXPECT_EQ(c(23), 123);
}

TEST(InlineFnTest, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    InlineFn<int()> f = [token]() { return *token; };
    token.reset();
    InlineFn<int()> g = std::move(f);
    EXPECT_EQ(g(), 7);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFnTest, HeapFallbackOwnsCallable) {
  auto token = std::make_shared<int>(9);
  std::weak_ptr<int> watch = token;
  struct Big {
    std::shared_ptr<int> t;
    char pad[InlineFn<int()>::kInlineBytes];
    int operator()() const { return *t; }
  };
  {
    InlineFn<int()> f = Big{token, {}};
    token.reset();
    EXPECT_FALSE(f.is_inline());
    InlineFn<int()> g = std::move(f);
    EXPECT_EQ(g(), 9);
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFnTest, NullComparisons) {
  InlineFn<void()> empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  EXPECT_TRUE(empty == nullptr);
  InlineFn<void()> f = [] {};
  EXPECT_TRUE(f != nullptr);
  f = nullptr;
  EXPECT_TRUE(f == nullptr);
}

}  // namespace
}  // namespace farview
