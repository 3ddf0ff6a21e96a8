#include "hash/cuckoo_table.h"

#include <cstring>

#include "common/logging.h"
#include "hash/hash.h"

namespace farview {

namespace {
/// Kick-chain bound: after this many displacements the entry overflows. The
/// hardware uses a small bound because eviction happens in the background
/// without stalling the pipeline.
constexpr int kMaxKicks = 32;
}  // namespace

CuckooTable::CuckooTable(int num_ways, uint64_t slots_per_way,
                         uint32_t key_width, uint32_t payload_width)
    : num_ways_(num_ways),
      slots_per_way_(slots_per_way),
      key_width_(key_width),
      payload_width_(payload_width),
      slot_mask_(slots_per_way - 1) {
  FV_CHECK(num_ways_ >= 1);
  FV_CHECK(IsPowerOfTwo(slots_per_way_))
      << "slots_per_way must be a power of two, got " << slots_per_way_;
  FV_CHECK(key_width_ > 0);
  const uint64_t total = static_cast<uint64_t>(num_ways_) * slots_per_way_;
  occupied_.assign(CeilDiv(total, 64), 0);
  dirty_.assign(CeilDiv(occupied_.size(), 64), 0);
  // Default-initialized (ByteBuffer's resize does not zero): a slot's bytes
  // are written by the insert that occupies it before anything reads them,
  // so the storage of slots a query never touches costs no page faults.
  keys_.resize(total * key_width_);
  payloads_.resize(total * PayloadStride());
  pending_key_.reserve(key_width_);
  pending_payload_.reserve(PayloadStride());
  evicted_key_.reserve(key_width_);
  evicted_payload_.reserve(PayloadStride());
}

uint64_t CuckooTable::HashWay(const uint8_t* key, int way) const {
  // Each way uses an independent seed — the hardware instantiates one hash
  // circuit per way. Single-INT64 keys (the common shape) take the unrolled
  // HashBytes8 path; it produces the same value as the general routine.
  const uint64_t seed = 0x5bd1e995u + static_cast<uint64_t>(way);
  const uint64_t h =
      key_width_ == 8 ? HashBytes8(key, seed) : HashBytes(key, key_width_, seed);
  return h & slot_mask_;
}

bool CuckooTable::KeyEquals(const uint8_t* a, const uint8_t* b) const {
  return KeyEqual(a, b, key_width_);
}

uint8_t* CuckooTable::Lookup(const uint8_t* key) {
  for (int w = 0; w < num_ways_; ++w) {
    const uint64_t idx = SlotIndex(w, HashWay(key, w));
    if (Occupied(idx) && KeyEquals(SlotKey(idx), key)) {
      return SlotPayload(idx);
    }
  }
  const uint64_t n = overflow_size();
  for (uint64_t i = 0; i < n; ++i) {
    if (KeyEquals(overflow_keys_.data() + i * key_width_, key)) {
      return overflow_payloads_.data() + i * PayloadStride();
    }
  }
  return nullptr;
}

const uint8_t* CuckooTable::Lookup(const uint8_t* key) const {
  return const_cast<CuckooTable*>(this)->Lookup(key);
}

CuckooTable::UpsertResult CuckooTable::Upsert(const uint8_t* key,
                                              uint8_t** payload_out) {
  if (uint8_t* p = Lookup(key)) {
    if (payload_out) *payload_out = p;
    return UpsertResult::kFound;
  }

  // Not present: place into the first way with a free slot; otherwise kick.
  // The pending/evictee entries live in member scratch (`assign` reuses
  // their capacity), so the insert path is allocation-free.
  pending_key_.assign(key, key + key_width_);
  pending_payload_.assign(PayloadStride(), 0);

  int way = 0;
  for (int kick = 0; kick <= kMaxKicks; ++kick) {
    // Try all ways for a free slot for the pending key.
    for (int w = 0; w < num_ways_; ++w) {
      const int try_way = (way + w) % num_ways_;
      const uint64_t idx = SlotIndex(try_way, HashWay(pending_key_.data(),
                                                      try_way));
      if (!Occupied(idx)) {
        MarkOccupied(idx);
        std::memcpy(SlotKey(idx), pending_key_.data(), key_width_);
        std::memcpy(SlotPayload(idx), pending_payload_.data(),
                    PayloadStride());
        ++size_;
        if (payload_out) {
          // The original key is resident now (it may have been placed
          // directly, or the displaced chain ended elsewhere) — return its
          // payload location.
          *payload_out = Lookup(key);
          FV_CHECK(*payload_out != nullptr);
        }
        return UpsertResult::kInserted;
      }
    }
    if (kick == kMaxKicks) break;
    // All ways full for this key: evict the occupant of the pending key's
    // slot in `way`, take its place, and continue with the evictee in the
    // next way (Section 5.4: "upon the eviction from one of the tables, the
    // evicted entry is inserted into the next hash table").
    const uint64_t idx = SlotIndex(way, HashWay(pending_key_.data(), way));
    evicted_key_.assign(SlotKey(idx), SlotKey(idx) + key_width_);
    evicted_payload_.assign(SlotPayload(idx),
                            SlotPayload(idx) + PayloadStride());
    std::memcpy(SlotKey(idx), pending_key_.data(), key_width_);
    std::memcpy(SlotPayload(idx), pending_payload_.data(), PayloadStride());
    pending_key_.swap(evicted_key_);
    pending_payload_.swap(evicted_payload_);
    ++total_kicks_;
    way = (way + 1) % num_ways_;
  }

  // Kick chain exhausted: the pending entry overflows. Note the pending
  // entry may be an evictee rather than the key being inserted.
  overflow_keys_.insert(overflow_keys_.end(), pending_key_.begin(),
                        pending_key_.end());
  overflow_payloads_.insert(overflow_payloads_.end(),
                            pending_payload_.begin(), pending_payload_.end());
  if (payload_out) {
    *payload_out = Lookup(key);
    FV_CHECK(*payload_out != nullptr);
  }
  return UpsertResult::kOverflow;
}

void CuckooTable::Clear() {
  // Key/payload bytes of unoccupied slots are never read (every probe
  // checks `occupied_` first, and inserts overwrite both arrays), so only
  // the occupancy bits need resetting, and only the words the summary
  // names hold any. Regions Clear a full-size table between queries that
  // may have touched a handful of slots.
  for (size_t d = 0; d < dirty_.size(); ++d) {
    for (uint64_t bits = dirty_[d]; bits != 0; bits &= bits - 1) {
      occupied_[d * 64 + std::countr_zero(bits)] = 0;
    }
    dirty_[d] = 0;
  }
  overflow_keys_.clear();
  overflow_payloads_.clear();
  size_ = 0;
  total_kicks_ = 0;
}

}  // namespace farview
