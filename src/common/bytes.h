#ifndef FARVIEW_COMMON_BYTES_H_
#define FARVIEW_COMMON_BYTES_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include <sys/mman.h>

#include "common/logging.h"

namespace farview {

/// Process-wide recycler for payload blocks.
///
/// glibc serves multi-MiB allocations from fresh mmap regions even when an
/// equal-size block was freed a microsecond earlier: freeing an mmap'd chunk
/// bumps the dynamic mmap threshold to exactly the freed size, and
/// equal-or-larger requests still take the mmap path. Every simulated
/// request that materializes a multi-MiB stream therefore pays the full
/// page-fault + zero cost again — milliseconds per request at fig12 sizes,
/// dwarfing the event core (DESIGN.md §8). Small blocks cost allocator
/// traffic instead: per-burst operator output (selection and hash-join
/// survivors, decrypt's output for a borrowed batch, group-by key scratch)
/// allocates thousands of small, similarly-sized ByteBuffers per simulated
/// stream, and even with malloc's fast bins that is the dominant
/// allocs/event term on fig12 (DESIGN.md §8a).
///
/// Every block recycles through one size-class rule: a request rounds up
/// to the next class, and one free list serves every request of a class,
/// so the steady state is pure pointer pops. Up to 256 KiB the classes
/// are powers of two: neighbouring sizes then share blocks, so fewer sit
/// parked (eight classes per octave there measured 11 MiB more peak RSS
/// on fvbench's `shard_failover`). Above 256 KiB there are eight classes
/// per octave (288 KiB, 320 KiB, ..., 512 KiB, 576 KiB, ...), so a block
/// is at most 12.5% larger than its request. Large payload sizes vary far
/// more than a handful of recurring values (`rdma_rw` reads any multiple
/// of 64 B in [4 KiB, 1 MiB]), and a free list keyed by exact size hits
/// only on a repeat of the same size: it parks blocks nothing reuses. By
/// class, the parked bytes follow the live blocks.
///
/// Zeroed stores (AcquireZeroed / ReleaseZeroed) are a second kind: large,
/// sparsely written, zero-initialized memory such as a node's DRAM frame
/// store (mem/physical_memory.h). They come from anonymous private
/// mappings, which the kernel zero-fills page by page on first touch, and
/// are parked for reuse only once their owner has re-zeroed what it wrote.
///
/// Single-threaded by design, like the rest of the simulator. Pool state
/// never feeds back into simulated behavior — only wall-clock speed.
class ByteBlockPool {
 public:
  /// Smallest size class. Requests below it still round up to one class-0
  /// block; the waste is bounded and tiny vectors are rare on the hot path.
  static constexpr std::size_t kMinClassBytes = 256;

  /// Largest power-of-two class; above it classes step by an eighth of an
  /// octave.
  static constexpr std::size_t kFineClassBytes = 256 * 1024;

  /// Largest size class: 2^63 bytes, past any container's `max_size()`,
  /// so every request a container can make has a class.
  static constexpr std::size_t kMaxClassBytes = std::size_t{1} << 63;

  /// Bound on bytes parked in free lists; past it, frees release for real.
  static constexpr std::size_t kMaxHeldBytes = 256ull << 20;

  /// Size class serving a request of `n` bytes (n <= kMaxClassBytes): the
  /// smallest class whose blocks hold `n` bytes.
  static constexpr int ClassOf(std::size_t n) {
    if (n <= kMinClassBytes) return 0;
    if (n <= kFineClassBytes) return std::bit_width(n - 1) - 8;  // 1..10
    // `n - 1` is a mantissa of 8 to 15 shifted left by `shift` (15 or
    // more), plus a remainder; the class one mantissa step up holds `n`.
    const int shift = std::bit_width(n - 1) - 4;
    const int mantissa = static_cast<int>((n - 1) >> shift);
    return 10 + 8 * (shift - 15) + mantissa - 7;
  }

  /// Physical byte size of blocks in class `c`: 256 B << c up to class 10
  /// (256 KiB), then (9 + g % 8) << (15 + g / 8) for g = c - 11.
  static constexpr std::size_t ClassBytes(int c) {
    if (c <= 10) return kMinClassBytes << c;
    const int g = c - 11;
    return static_cast<std::size_t>(9 + g % 8) << (15 + g / 8);
  }

  /// Eleven power-of-two classes (256 B to 256 KiB), then eight per octave
  /// up to 2^63 B.
  static constexpr int kNumClasses = 11 + 8 * (63 - 18);

  ByteBlockPool() = default;

  ByteBlockPool(const ByteBlockPool&) = delete;
  ByteBlockPool& operator=(const ByteBlockPool&) = delete;

  ~ByteBlockPool() {
    for (auto& blocks : free_) {
      for (void* p : blocks) ::operator delete(p);
    }
    for (auto& [size, stores] : zeroed_) {
      for (uint8_t* p : stores) ::munmap(p, size);
    }
  }

  [[nodiscard]] void* Allocate(std::size_t n) {
    const int c = ClassOf(n);
    auto& blocks = free_[static_cast<std::size_t>(c)];
    if (!blocks.empty()) {
      void* p = blocks.back();
      blocks.pop_back();
      held_ -= ClassBytes(c);
      return p;
    }
    // Allocate the full class size so the block can serve any same-class
    // request on recycle; Deallocate recomputes the class from `n`.
    return ::operator new(ClassBytes(c));
  }

  void Deallocate(void* p, std::size_t n) {
    const int c = ClassOf(n);
    if (held_ + ClassBytes(c) > kMaxHeldBytes) {
      ::operator delete(p);
      return;
    }
#ifdef FV_POOL_POISON
    // Parked blocks are handed back verbatim by Allocate; poisoning makes a
    // use-after-free of a recycled block read 0xFB instead of the previous
    // owner's bytes (see kPoolPoisonByte in common/pool.h). Poison the full
    // class size, not just the requested `n`: a later Allocate from this
    // class may expose up to ClassBytes(c) bytes, and the tail beyond `n`
    // must read as poison too.
    std::memset(p, 0xFB, ClassBytes(c));
#endif
    free_[static_cast<std::size_t>(c)].push_back(p);
    held_ += ClassBytes(c);
  }

  /// Returns `n` bytes (n > 0) that read as zero: a parked store of
  /// exactly `n` bytes when one is held, else a fresh anonymous mapping.
  /// A fresh mapping costs nothing per byte up front; only the pages its
  /// owner touches become resident. Pair with ReleaseZeroed, never with
  /// Deallocate.
  [[nodiscard]] uint8_t* AcquireZeroed(std::size_t n) {
    auto it = zeroed_.find(n);
    if (it != zeroed_.end() && !it->second.empty()) {
      uint8_t* p = it->second.back();
      it->second.pop_back();
      held_ -= n;
      return p;
    }
    void* p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    FV_CHECK(p != MAP_FAILED) << "cannot map a " << n << "-byte store";
    return static_cast<uint8_t*>(p);
  }

  /// Takes back a store from AcquireZeroed(n). If it fits under
  /// kMaxHeldBytes it is parked, touched pages still resident, after
  /// `scrub()` has re-zeroed every byte its owner wrote; otherwise it is
  /// unmapped and `scrub` does not run. Under FV_POOL_POISON stores are
  /// always unmapped: a parked store must read zero, so it cannot carry
  /// poison, and a stale access to an unmapped one faults.
  template <typename Scrub>
  void ReleaseZeroed(uint8_t* p, std::size_t n,
                     [[maybe_unused]] Scrub&& scrub) {
#ifndef FV_POOL_POISON
    if (held_ + n <= kMaxHeldBytes) {
      scrub();
      zeroed_[n].push_back(p);
      held_ += n;
      return;
    }
#endif
    ::munmap(p, n);
  }

  static ByteBlockPool& Global() {
    // Magic-static singleton. Host-side state only: which blocks the pool
    // holds never feeds back into simulated time or output bytes, so runs
    // sharing it stay deterministic, and the simulation is single-threaded,
    // so nothing races on it.
    // fvcheck:allow=domain-confinement
    static ByteBlockPool pool;
    return pool;
  }

 private:
  /// Parked blocks by size class, each list used as a stack (LIFO).
  std::array<std::vector<void*>, kNumClasses> free_;
  /// Parked zeroed stores, keyed by exact byte count; all read zero.
  std::unordered_map<std::size_t, std::vector<uint8_t*>> zeroed_;
  std::size_t held_ = 0;
};

static_assert(ByteBlockPool::ClassOf(ByteBlockPool::kMaxClassBytes) ==
              ByteBlockPool::kNumClasses - 1);
static_assert(ByteBlockPool::ClassBytes(ByteBlockPool::kNumClasses - 1) ==
              ByteBlockPool::kMaxClassBytes);

/// Allocator behind ByteBuffer: blocks recycle through ByteBlockPool's size
/// classes. Stateless, so all instances compare equal and container moves steal
/// storage.
class PooledByteAllocator {
 public:
  using value_type = uint8_t;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;
  template <typename U>
  struct rebind {
    using other = PooledByteAllocator;
  };

  PooledByteAllocator() noexcept = default;

  uint8_t* allocate(std::size_t n) {
    return static_cast<uint8_t*>(ByteBlockPool::Global().Allocate(n));
  }
  void deallocate(uint8_t* p, std::size_t n) {
    ByteBlockPool::Global().Deallocate(p, n);
  }

  /// Value-less construction default-initializes (no zeroing). This makes
  /// `resize(n)` / `ByteBuffer(n)` leave new bytes indeterminate — legal
  /// for unsigned char — so full-overwrite paths (Mmu::ReadInto, operator
  /// flushes) pay one pass over the payload instead of memset + copy
  /// (DESIGN.md §8). Callers that need zeroed growth must say so:
  /// `resize(n, 0)` / `ByteBuffer(n, 0)` still zero-fill.
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const PooledByteAllocator&,
                         const PooledByteAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const PooledByteAllocator&,
                         const PooledByteAllocator&) noexcept {
    return false;
  }
};

/// Typed face of the pooled allocator: routes objects of any `T` through
/// ByteBlockPool's size classes. Pair with
/// `std::allocate_shared` for per-request control blocks (e.g. the pool
/// client's mirrored-write state), so steady-state request traffic
/// recycles through the pool instead of hitting the global allocator
/// (DESIGN.md §8a).
template <typename T>
class PooledAllocator {
 public:
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "ByteBlockPool blocks are only new-aligned");
  using value_type = T;

  PooledAllocator() noexcept = default;
  template <typename U>
  PooledAllocator(const PooledAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(ByteBlockPool::Global().Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    ByteBlockPool::Global().Deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const PooledAllocator&,
                         const PooledAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const PooledAllocator&,
                         const PooledAllocator&) noexcept {
    return false;
  }
};

/// Byte buffer used throughout for raw tuple data; rows are stored in
/// little-endian fixed-width layout (see src/table/row_layout.h). Buffers
/// recycle their blocks through ByteBlockPool, so the payload path stays
/// free of repeated page-fault + zero costs. NOTE: unlike a plain
/// std::vector, `resize(n)` and `ByteBuffer(n)` default-initialize — new
/// bytes are indeterminate until written; use `resize(n, 0)` when zeroed
/// growth is required (see PooledByteAllocator::construct).
using ByteBuffer = std::vector<uint8_t, PooledByteAllocator>;

/// Copies `n` bytes like memcpy, but for large blocks uses non-temporal
/// stores so a multi-MiB payload copy does not evict the simulator's
/// working set (event buckets, flow tables, hash state) from the private
/// caches. Meant for bytes that are not read back at once: plain-read
/// results (`Mmu::ReadInto`). The client receives a result whole; only a
/// sharded pool's gather (`ShardedClient::GatherAsync`) reads one again, to
/// copy each fragment result once into the gathered result, and a plain
/// memcpy here measured no faster on fvbench's `rdma_rw`. A region's input
/// stream is read back by its operators within microseconds, so it is
/// copied with a plain memcpy instead: streamed bytes would have to come
/// back from DRAM (DESIGN.md §8).
void StreamCopy(uint8_t* dst, const uint8_t* src, std::size_t n);

/// Reads a little-endian 64-bit unsigned integer at `p`.
inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // This codebase targets little-endian hosts (checked at startup
             // of the test suite); serialized layout is little-endian.
}

/// Writes a little-endian 64-bit unsigned integer at `p`.
inline void StoreLE64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

/// Reads a little-endian signed 64-bit integer at `p`.
inline int64_t LoadLE64Signed(const uint8_t* p) {
  return static_cast<int64_t>(LoadLE64(p));
}

/// Writes a little-endian signed 64-bit integer at `p`.
inline void StoreLE64Signed(uint8_t* p, int64_t v) {
  StoreLE64(p, static_cast<uint64_t>(v));
}

/// Reads an IEEE-754 double stored in 8 little-endian bytes at `p`.
inline double LoadDouble(const uint8_t* p) {
  double d;
  std::memcpy(&d, p, sizeof(d));
  return d;
}

/// Writes an IEEE-754 double into 8 little-endian bytes at `p`.
inline void StoreDouble(uint8_t* p, double d) { std::memcpy(p, &d, sizeof(d)); }

/// Reads a little-endian 32-bit unsigned integer at `p`.
inline uint32_t LoadLE32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Writes a little-endian 32-bit unsigned integer at `p`.
inline void StoreLE32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

/// Rounds `v` up to the next multiple of `alignment` (a power of two).
inline uint64_t AlignUp(uint64_t v, uint64_t alignment) {
  return (v + alignment - 1) & ~(alignment - 1);
}

/// Rounds `v` down to a multiple of `alignment` (a power of two).
inline uint64_t AlignDown(uint64_t v, uint64_t alignment) {
  return v & ~(alignment - 1);
}

/// True when `v` is a power of two (and nonzero).
inline bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Number of `unit`-sized pieces needed to cover `total` (ceiling division).
inline uint64_t CeilDiv(uint64_t total, uint64_t unit) {
  return (total + unit - 1) / unit;
}

/// Renders a byte count as a human-readable string ("64 B", "2.0 MiB").
std::string FormatBytes(uint64_t bytes);

}  // namespace farview

#endif  // FARVIEW_COMMON_BYTES_H_
