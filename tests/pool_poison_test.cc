// Pool-poisoning contract (ISSUE 4 satellite; DESIGN.md §11): this binary is
// compiled with FV_POOL_POISON, so released Pool<T> slots and parked
// ByteBlockPool blocks must read back as 0xFB — converting pool-escape bugs
// (stale references into recycled storage) from silent corruption into loud
// failures. The test deliberately links no farview library: Pool and
// ByteBlockPool are header-inline, and instantiating them only here keeps
// one consistent FV_POOL_POISON definition per binary.
//
// The disabled-by-default side of the contract is pinned elsewhere:
// common_test's PoolPoisonConfig.ReleaseMatchesBuildConfiguration checks
// the default build leaves recycled bytes untouched, and the bench_identity
// suite proves the default build's output is byte-identical to the seed
// goldens.

#ifndef FV_POOL_POISON
#error "pool_poison_test must be compiled with -DFV_POOL_POISON"
#endif

#include <cstddef>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/pool.h"

namespace farview {
namespace {

/// Payload with a user-provided no-op constructor: Acquire()'s placement
/// `T()` then default-initializes (no zeroing), leaving the bytes exactly as
/// the recycler left them — which is what a pool-escape bug would observe.
struct RawPayload {
  RawPayload() {}  // NOLINT: `= default` would make T() zero the aggregate
  unsigned char bytes[48];
};

TEST(PoolPoisonTest, ReleasedSlotReadsAsPoison) {
  Pool<RawPayload> pool;
  RawPayload* p = pool.Acquire();
  // Volatile accesses throughout: plain writes to an object whose lifetime
  // then ends are dead stores the optimizer may eliminate, and post-release
  // reads must actually hit memory to observe the poison.
  volatile unsigned char* raw = reinterpret_cast<unsigned char*>(p);
  for (std::size_t i = 0; i < sizeof(RawPayload); ++i) raw[i] = 0x5A;
  pool.Release(p);
  for (std::size_t i = 0; i < sizeof(RawPayload); ++i) {
    ASSERT_EQ(raw[i], kPoolPoisonByte) << "offset " << i;
  }
}

TEST(PoolPoisonTest, RecycledSlotStillPoisonedAfterDefaultInitAcquire) {
  Pool<RawPayload> pool;
  RawPayload* first = pool.Acquire();
  volatile unsigned char* raw = reinterpret_cast<unsigned char*>(first);
  for (std::size_t i = 0; i < sizeof(RawPayload); ++i) raw[i] = 0x5A;
  pool.Release(first);
  // The recycled slot is handed back; default-init does not overwrite, so a
  // reader of "uninitialized" pooled state sees loud 0xFB, not stale data.
  RawPayload* second = pool.Acquire();
  ASSERT_EQ(second, first) << "free list should recycle LIFO";
  volatile unsigned char* again = reinterpret_cast<unsigned char*>(second);
  for (std::size_t i = 0; i < sizeof(RawPayload); ++i) {
    ASSERT_EQ(again[i], kPoolPoisonByte) << "offset " << i;
  }
  pool.Release(second);
}

TEST(PoolPoisonTest, ParkedByteBlockReadsAsPoison) {
  ByteBlockPool pool;
  const std::size_t n = 256 * 1024;
  auto* block = static_cast<unsigned char*>(pool.Allocate(n));
  std::memset(block, 0x5A, n);
  pool.Deallocate(block, n);  // parked in the free list, poisoned
  auto* again = static_cast<unsigned char*>(pool.Allocate(n));
  ASSERT_EQ(again, block) << "class free list should recycle the block";
  volatile unsigned char* raw = again;
  for (std::size_t i = 0; i < n; i += 4096) {
    ASSERT_EQ(raw[i], kPoolPoisonByte) << "offset " << i;
  }
  ASSERT_EQ(raw[n - 1], kPoolPoisonByte);
  pool.Deallocate(again, n);
}

TEST(PoolPoisonTest, ParkedClassBlockPoisonedToFullClassSize) {
  // Up to 256 KiB blocks recycle through power-of-two size classes
  // (ISSUE 6: operator scratch, SoA queue arrays). Poison-on-park must
  // cover the full physical class size, not just the requested byte count:
  // a later Allocate from the same class may expose the tail beyond `n`.
  ByteBlockPool pool;
  const std::size_t n = 300;  // class 1 (512 B physical), 212 B of tail
  const std::size_t phys = ByteBlockPool::ClassBytes(ByteBlockPool::ClassOf(n));
  ASSERT_EQ(phys, 512u);
  auto* block = static_cast<unsigned char*>(pool.Allocate(n));
  std::memset(block, 0x5A, n);
  pool.Deallocate(block, n);  // parked in the class free list, poisoned
  // A same-class request of a different size must recycle the block and see
  // poison across the whole physical block, tail included.
  auto* again = static_cast<unsigned char*>(pool.Allocate(phys));
  ASSERT_EQ(again, block) << "class free list should recycle LIFO";
  volatile unsigned char* raw = again;
  for (std::size_t i = 0; i < phys; ++i) {
    ASSERT_EQ(raw[i], kPoolPoisonByte) << "offset " << i;
  }
  pool.Deallocate(again, phys);
}

TEST(PoolPoisonTest, LargeClassBlockPoisonedOverALargerRequest) {
  // Large payloads share classes too: a block freed after a 300 KiB
  // request is reissued for a 320 KiB one (both in the 320 KiB class), and
  // the bytes past the first request must read as poison as well.
  ByteBlockPool pool;
  const std::size_t small = 300 * 1024;
  const std::size_t large = 320 * 1024;
  ASSERT_EQ(ByteBlockPool::ClassOf(small), ByteBlockPool::ClassOf(large));
  auto* block = static_cast<unsigned char*>(pool.Allocate(small));
  std::memset(block, 0x5A, small);
  pool.Deallocate(block, small);
  auto* again = static_cast<unsigned char*>(pool.Allocate(large));
  ASSERT_EQ(again, block) << "class free list should recycle the block";
  volatile unsigned char* raw = again;
  for (std::size_t i = 0; i < large; ++i) {
    ASSERT_EQ(raw[i], kPoolPoisonByte) << "offset " << i;
  }
  pool.Deallocate(again, large);
}

TEST(PoolPoisonTest, TinyBlocksRoundUpToClassZeroAndPoison) {
  // Even a tiny request occupies (and on park, poisons) a whole class-0
  // block, so no recycled storage escapes the poisoning contract.
  ByteBlockPool pool;
  auto* p = static_cast<unsigned char*>(pool.Allocate(64));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, 64);
  pool.Deallocate(p, 64);
  auto* again = static_cast<unsigned char*>(
      pool.Allocate(ByteBlockPool::kMinClassBytes));
  ASSERT_EQ(again, p) << "64 B rounds up to the 256 B class-0 free list";
  volatile unsigned char* raw = again;
  for (std::size_t i = 0; i < ByteBlockPool::kMinClassBytes; ++i) {
    ASSERT_EQ(raw[i], kPoolPoisonByte) << "offset " << i;
  }
  pool.Deallocate(again, ByteBlockPool::kMinClassBytes);
}

}  // namespace
}  // namespace farview
