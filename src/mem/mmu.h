#ifndef FARVIEW_MEM_MMU_H_
#define FARVIEW_MEM_MMU_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "mem/physical_memory.h"

namespace farview {

/// Farview's memory management unit (Section 4.4).
///
/// Responsibilities mirrored from the hardware:
///  - dynamic allocation of naturally aligned 2 MB pages;
///  - virtual→physical translation with a TLB that holds *all* mappings
///    (implemented on BRAM in hardware, so translation is a fixed latency
///    and there are no TLB misses);
///  - isolation: accesses are validated against the owning allocation, so a
///    region can never read another client's pages;
///  - a shared virtual space: allocations can be used by any queue pair the
///    client shares them with (memory "can also be shared between different
///    queue pairs").
///
/// Ownership is tracked per allocation by a client id; `kAnyClient` reads
/// are allowed for shared tables.
class Mmu {
 public:
  static constexpr uint64_t kPageSize = 2ull * 1024 * 1024;
  static constexpr int kAnyClient = -1;

  explicit Mmu(PhysicalMemory* phys);

  Mmu(const Mmu&) = delete;
  Mmu& operator=(const Mmu&) = delete;

  /// Allocates `bytes` (rounded up to whole pages) on behalf of `client`.
  /// Returns the virtual address of the first byte. Virtual addresses are
  /// never reused, so dangling references fault instead of aliasing.
  Result<uint64_t> Alloc(int client, uint64_t bytes);

  /// Frees the allocation starting at `vaddr` (must be an allocation base).
  /// Only the owner (or kAnyClient) may free.
  Status Free(int client, uint64_t vaddr);

  /// Marks the allocation as shared: any client may read/write it. This is
  /// how a table becomes visible to all queue pairs.
  Status Share(int client, uint64_t vaddr);

  /// Translates one virtual address to a physical address; the address must
  /// be mapped and accessible to `client`.
  Result<uint64_t> Translate(int client, uint64_t vaddr) const;

  /// Functional data path: copies `len` bytes from virtual memory into
  /// `out`, page by page. The whole range must be mapped and accessible.
  Status Read(int client, uint64_t vaddr, uint64_t len, uint8_t* out) const;

  /// Like Read, but appends to `*out` instead of writing through a raw
  /// pointer. The append is a single streaming-copy pass per page span — no
  /// value-initializing resize of the destination first — which keeps the
  /// per-request materialization cost at one pass over the payload and, for
  /// large spans, out of the private caches (DESIGN.md §8). For plain-read
  /// results, which are not read back at once (a sharded pool's gather
  /// copies each fragment result once more); a region's operator input,
  /// read back at once, is copied with `Read` so it stays in cache. On
  /// error the appended region is indeterminate; callers must discard
  /// `*out`.
  Status ReadInto(int client, uint64_t vaddr, uint64_t len,
                  ByteBuffer* out) const;

  /// Functional data path: copies `len` bytes into virtual memory.
  Status Write(int client, uint64_t vaddr, uint64_t len, const uint8_t* data);

  /// Number of live TLB entries (== mapped pages; the hardware TLB is sized
  /// to hold them all).
  uint64_t tlb_entries() const { return page_table_.size(); }

  /// Total bytes currently allocated (page granular).
  uint64_t allocated_bytes() const { return allocated_bytes_; }

 private:
  struct Allocation {
    int owner;
    uint64_t bytes;          ///< requested size
    uint64_t pages;          ///< mapped pages
    bool shared = false;
    std::vector<uint64_t> frames;
  };

  /// Finds the allocation containing `vaddr`, or nullptr.
  const Allocation* FindAllocation(uint64_t vaddr) const;

  /// True when `client` may access `alloc`.
  static bool MayAccess(int client, const Allocation& alloc) {
    return client == kAnyClient || alloc.shared || alloc.owner == client;
  }

  PhysicalMemory* phys_;
  uint64_t next_vaddr_;
  /// vaddr page base → physical frame index.
  std::map<uint64_t, uint64_t> page_table_;
  /// allocation base vaddr → allocation record.
  std::map<uint64_t, Allocation> allocations_;
  uint64_t allocated_bytes_ = 0;
};

}  // namespace farview

#endif  // FARVIEW_MEM_MMU_H_
