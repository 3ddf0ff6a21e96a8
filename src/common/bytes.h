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

namespace farview {

/// Process-wide recycler for large payload blocks.
///
/// glibc serves multi-MiB allocations from fresh mmap regions even when an
/// equal-size block was freed a microsecond earlier: freeing an mmap'd chunk
/// bumps the dynamic mmap threshold to exactly the freed size, and
/// equal-or-larger requests still take the mmap path. Every simulated
/// request that materializes a multi-MiB stream therefore pays the full
/// page-fault + zero cost again — milliseconds per request at fig12 sizes,
/// dwarfing the event core (DESIGN.md §8). Payload buffers come in a
/// handful of recurring sizes (request streams, table images, read
/// results), so an exact-size free list converts them to warm-page reuse.
///
/// Blocks below the exact-size threshold recycle through power-of-two size
/// classes instead: per-burst operator scratch (StreamParser batches,
/// hash-join emit buffers, group-by key scratch) allocates thousands of
/// small, similarly-sized ByteBuffers per simulated stream, and even with
/// malloc's fast bins that is the dominant allocs/event term on fig12
/// (DESIGN.md §8a). A class free list turns the steady state into pure
/// pointer pops with zero allocator traffic.
///
/// Single-threaded by design, like the rest of the simulator. Pool state
/// never feeds back into simulated behavior — only wall-clock speed.
class ByteBlockPool {
 public:
  /// At or above this size blocks are keyed by exact byte count; below it
  /// they round up to a power-of-two size class. Large payloads recur in a
  /// handful of exact sizes (so exact keys maximize reuse without waste);
  /// small scratch comes in many sizes (so classes are needed to hit).
  static constexpr std::size_t kMinPooledBytes = 256 * 1024;

  /// Smallest size class. Requests below it still round up to one class-0
  /// block; the waste is bounded and tiny vectors are rare on the hot path.
  static constexpr std::size_t kMinClassBytes = 256;

  /// Classes cover [256 B, 256 KiB] in powers of two; class `c` holds
  /// blocks of physical size `kMinClassBytes << c`.
  static constexpr int kNumClasses = 11;

  /// Bound on bytes parked in free lists; past it, frees release for real.
  static constexpr std::size_t kMaxHeldBytes = 256ull << 20;

  /// Size class serving a request of `n` bytes (n < kMinPooledBytes).
  static constexpr int ClassOf(std::size_t n) {
    return n <= kMinClassBytes ? 0 : std::bit_width(n - 1) - 8;
  }

  /// Physical byte size of blocks in class `c`.
  static constexpr std::size_t ClassBytes(int c) {
    return kMinClassBytes << c;
  }

  ~ByteBlockPool() {
    for (auto& [size, blocks] : free_) {
      for (void* p : blocks) ::operator delete(p);
    }
    for (auto& blocks : class_free_) {
      for (void* p : blocks) ::operator delete(p);
    }
  }

  [[nodiscard]] void* Allocate(std::size_t n) {
    if (n >= kMinPooledBytes) {
      auto it = free_.find(n);
      if (it != free_.end() && !it->second.empty()) {
        void* p = it->second.back();
        it->second.pop_back();
        held_ -= n;
        return p;
      }
      return ::operator new(n);
    }
    const int c = ClassOf(n);
    auto& blocks = class_free_[static_cast<std::size_t>(c)];
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
    if (n >= kMinPooledBytes) {
      if (held_ + n <= kMaxHeldBytes) {
#ifdef FV_POOL_POISON
        // Parked blocks are handed back verbatim by Allocate; poisoning
        // makes a use-after-free of recycled payload read 0xFB instead of
        // the previous request's bytes (see kPoolPoisonByte in
        // common/pool.h).
        std::memset(p, 0xFB, n);
#endif
        free_[n].push_back(p);
        held_ += n;
        return;
      }
      ::operator delete(p);
      return;
    }
    const int c = ClassOf(n);
    if (held_ + ClassBytes(c) <= kMaxHeldBytes) {
#ifdef FV_POOL_POISON
      // Poison the full physical class size, not just the requested `n`:
      // a later Allocate from this class may expose up to ClassBytes(c)
      // bytes, and the tail beyond `n` must read as poison too.
      std::memset(p, 0xFB, ClassBytes(c));
#endif
      class_free_[static_cast<std::size_t>(c)].push_back(p);
      held_ += ClassBytes(c);
      return;
    }
    ::operator delete(p);
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
  std::unordered_map<std::size_t, std::vector<void*>> free_;
  std::array<std::vector<void*>, kNumClasses> class_free_;
  std::size_t held_ = 0;
};

/// Allocator behind ByteBuffer: exact-size recycling through ByteBlockPool
/// for large blocks, power-of-two size-class recycling below the threshold.
/// Stateless, so all instances compare equal and container moves steal
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
/// ByteBlockPool's power-of-two size classes. Pair with
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
/// little-endian fixed-width layout (see src/table/row_layout.h). Large
/// buffers recycle their blocks through ByteBlockPool, so the payload path
/// stays free of repeated page-fault + zero costs. NOTE: unlike a plain
/// std::vector, `resize(n)` and `ByteBuffer(n)` default-initialize — new
/// bytes are indeterminate until written; use `resize(n, 0)` when zeroed
/// growth is required (see PooledByteAllocator::construct).
using ByteBuffer = std::vector<uint8_t, PooledByteAllocator>;

/// Copies `n` bytes like memcpy, but for large blocks uses non-temporal
/// stores so a multi-MiB payload copy does not evict the simulator's
/// working set (event buckets, flow tables, hash state) from the private
/// caches. The simulated workloads stream payloads that are written once
/// and consumed far later (or never, for discarded results), so keeping
/// them out of L1/L2 is pure win for the event core (DESIGN.md §8).
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
