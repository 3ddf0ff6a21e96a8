#include "mem/physical_memory.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace farview {

PhysicalMemory::PhysicalMemory(uint64_t capacity, uint64_t frame_bytes)
    : frame_bytes_(frame_bytes), num_frames_(capacity / frame_bytes) {
  FV_CHECK(frame_bytes_ > 0);
  FV_CHECK(num_frames_ > 0) << "capacity smaller than one frame";
  store_ = ByteBlockPool::Global().AcquireZeroed(this->capacity());
  written_.assign(num_frames_, Extent{});
  in_use_.assign(num_frames_, false);
  free_list_.reserve(num_frames_);
  // Hand out low frames first: push in reverse so pop_back yields frame 0.
  for (uint64_t f = num_frames_; f > 0; --f) free_list_.push_back(f - 1);
}

PhysicalMemory::~PhysicalMemory() {
  ByteBlockPool::Global().ReleaseZeroed(store_, capacity(), [this] {
    for (uint64_t f = 0; f < num_frames_; ++f) Scrub(f);
  });
}

void PhysicalMemory::Scrub(uint64_t frame) {
  Extent& e = written_[frame];
  std::memset(store_ + FrameAddress(frame) + e.lo, 0, e.hi - e.lo);
  e = Extent{};
}

Result<uint64_t> PhysicalMemory::AllocFrame() {
  if (free_list_.empty()) {
    return Status::OutOfMemory("no free frames");
  }
  const uint64_t frame = free_list_.back();
  free_list_.pop_back();
  in_use_[frame] = true;
  return frame;
}

Status PhysicalMemory::FreeFrame(uint64_t frame) {
  if (frame >= num_frames_) {
    return Status::InvalidArgument("frame index out of range");
  }
  if (!in_use_[frame]) {
    return Status::FailedPrecondition("frame already free");
  }
  in_use_[frame] = false;
  // Scrub on free: a subsequent allocation must not observe stale tenant
  // data (the MMU provides isolation between clients).
  Scrub(frame);
  free_list_.push_back(frame);
  return Status::OK();
}

Status PhysicalMemory::ReadPhysical(uint64_t paddr, uint64_t len,
                                    uint8_t* out) const {
  if (paddr + len > capacity() || paddr + len < paddr) {
    return Status::OutOfRange("physical read out of range");
  }
  std::memcpy(out, store_ + paddr, len);
  return Status::OK();
}

Result<const uint8_t*> PhysicalMemory::Span(uint64_t paddr,
                                            uint64_t len) const {
  if (paddr + len > capacity() || paddr + len < paddr) {
    return Status::OutOfRange("physical read out of range");
  }
  return store_ + paddr;
}

Status PhysicalMemory::WritePhysical(uint64_t paddr, uint64_t len,
                                     const uint8_t* data) {
  if (paddr + len > capacity() || paddr + len < paddr) {
    return Status::OutOfRange("physical write out of range");
  }
  std::memcpy(store_ + paddr, data, len);
  // Widen the written extent of every frame the write touches.
  for (uint64_t a = paddr, end = paddr + len; a < end;) {
    const uint64_t frame = a / frame_bytes_;
    const uint64_t base = FrameAddress(frame);
    const uint64_t lo = a - base;
    const uint64_t hi = std::min(end - base, frame_bytes_);
    Extent& e = written_[frame];
    e = e.lo == e.hi ? Extent{lo, hi}
                     : Extent{std::min(e.lo, lo), std::max(e.hi, hi)};
    a = base + hi;
  }
  return Status::OK();
}

}  // namespace farview
