#ifndef FARVIEW_MEM_PHYSICAL_MEMORY_H_
#define FARVIEW_MEM_PHYSICAL_MEMORY_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace farview {

/// The functional backing store for Farview's on-board DRAM: a flat byte
/// array divided into fixed-size frames handed out by a free-list
/// allocator. Channel interleaving is a *timing* concern handled by the
/// MemoryController; functionally the frames are plain bytes.
///
/// The store is lazily zeroed (ByteBlockPool::AcquireZeroed): experiments
/// touch a small part of the board's capacity, so building a node costs
/// nothing per byte, and only pages that are touched become resident.
/// WritePhysical, the store's only writer, records the byte extent written
/// in each frame since it was last all zero; scrub-on-free and the
/// destructor zero just that extent, which keeps every other byte zero
/// untouched and lets the pool hand the store, all zero again, to the next
/// node of the same size (DESIGN.md §8).
class PhysicalMemory {
 public:
  /// `capacity` is rounded down to a whole number of `frame_bytes` frames.
  PhysicalMemory(uint64_t capacity, uint64_t frame_bytes);

  /// Hands the store back to ByteBlockPool, scrubbed if it is parked.
  ~PhysicalMemory();

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  /// Allocates one frame; returns its index. Fails when memory is full.
  Result<uint64_t> AllocFrame();

  /// Returns a frame to the free list, zeroing what was written to it.
  /// Fails on double free / bad index.
  Status FreeFrame(uint64_t frame);

  /// Raw access to physical bytes. `paddr` + `len` must be in range.
  Status ReadPhysical(uint64_t paddr, uint64_t len, uint8_t* out) const;
  Status WritePhysical(uint64_t paddr, uint64_t len, const uint8_t* data);

  /// Bounds-checked pointer to `len` contiguous physical bytes at `paddr`
  /// (the frame store is one flat array). Lets the MMU append page spans to
  /// a destination buffer without a pre-zeroing pass over it.
  Result<const uint8_t*> Span(uint64_t paddr, uint64_t len) const;

  /// Base physical address of a frame.
  uint64_t FrameAddress(uint64_t frame) const { return frame * frame_bytes_; }

  uint64_t capacity() const { return num_frames_ * frame_bytes_; }
  uint64_t frame_bytes() const { return frame_bytes_; }
  uint64_t num_frames() const { return num_frames_; }
  uint64_t free_frames() const { return free_list_.size(); }
  uint64_t used_frames() const { return num_frames_ - free_list_.size(); }

 private:
  /// Byte range [lo, hi) of a frame, relative to its base, that may hold
  /// non-zero bytes; empty (lo == hi) while the frame is all zero.
  struct Extent {
    uint64_t lo = 0;
    uint64_t hi = 0;
  };

  /// Zeroes the written extent of `frame` and marks the frame all zero.
  void Scrub(uint64_t frame);

  uint64_t frame_bytes_;
  uint64_t num_frames_;
  /// From ByteBlockPool::AcquireZeroed; the destructor releases it.
  uint8_t* store_;  // fvcheck:owner=pool
  /// Written extent per frame.
  std::vector<Extent> written_;
  std::vector<uint64_t> free_list_;
  std::vector<bool> in_use_;
};

}  // namespace farview

#endif  // FARVIEW_MEM_PHYSICAL_MEMORY_H_
