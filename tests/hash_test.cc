// Unit tests for hashing, the cuckoo hash table, and the shift-register LRU.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "hash/cuckoo_table.h"
#include "hash/hash.h"
#include "hash/lru_shift_register.h"

namespace farview {
namespace {

// ---------------------------------------------------------------------------
// Hash functions
// ---------------------------------------------------------------------------

TEST(HashTest, MixHashDeterministic) {
  EXPECT_EQ(MixHash64(42, 1), MixHash64(42, 1));
  EXPECT_NE(MixHash64(42, 1), MixHash64(42, 2));
  EXPECT_NE(MixHash64(42, 1), MixHash64(43, 1));
}

TEST(HashTest, HashBytesRespectsLength) {
  const uint8_t data[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_NE(HashBytes(data, 8, 0), HashBytes(data, 9, 0));
  EXPECT_EQ(HashBytes(data, 12, 7), HashBytes(data, 12, 7));
  EXPECT_NE(HashBytes(data, 12, 7), HashBytes(data, 12, 8));
}

TEST(HashTest, AvalancheOnSingleBitFlip) {
  uint8_t a[8] = {0};
  uint8_t b[8] = {0};
  b[0] = 1;
  const uint64_t ha = HashBytes(a, 8, 0);
  const uint64_t hb = HashBytes(b, 8, 0);
  // At least a quarter of the bits should differ.
  EXPECT_GE(__builtin_popcountll(ha ^ hb), 16);
}

TEST(HashTest, UniformBucketSpread) {
  // Sequential keys should spread across 256 buckets roughly uniformly.
  std::vector<int> buckets(256, 0);
  for (uint64_t i = 0; i < 256 * 64; ++i) {
    uint8_t key[8];
    StoreLE64(key, i);
    buckets[HashBytes(key, 8, 1) & 255]++;
  }
  for (int b : buckets) {
    EXPECT_GT(b, 16);
    EXPECT_LT(b, 256);
  }
}

// ---------------------------------------------------------------------------
// CuckooTable
// ---------------------------------------------------------------------------

void MakeKey(uint64_t v, uint8_t out[8]) { StoreLE64(out, v); }

TEST(CuckooTest, InsertAndLookup) {
  CuckooTable t(4, 1024, 8, 8);
  uint8_t key[8];
  MakeKey(7, key);
  EXPECT_EQ(t.Lookup(key), nullptr);
  uint8_t* payload = nullptr;
  EXPECT_EQ(t.Upsert(key, &payload), CuckooTable::UpsertResult::kInserted);
  ASSERT_NE(payload, nullptr);
  StoreLE64(payload, 99);
  EXPECT_EQ(t.size(), 1u);
  uint8_t* found = t.Lookup(key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(LoadLE64(found), 99u);
}

TEST(CuckooTest, UpsertFindsExisting) {
  CuckooTable t(4, 1024, 8, 8);
  uint8_t key[8];
  MakeKey(5, key);
  uint8_t* p1 = nullptr;
  EXPECT_EQ(t.Upsert(key, &p1), CuckooTable::UpsertResult::kInserted);
  uint8_t* p2 = nullptr;
  EXPECT_EQ(t.Upsert(key, &p2), CuckooTable::UpsertResult::kFound);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(t.size(), 1u);
}

TEST(CuckooTest, PayloadZeroInitialized) {
  CuckooTable t(2, 64, 8, 16);
  uint8_t key[8];
  MakeKey(1, key);
  uint8_t* p = nullptr;
  t.Upsert(key, &p);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(p[i], 0);
}

TEST(CuckooTest, ManyKeysAllRetrievable) {
  CuckooTable t(4, 4096, 8, 8);
  const uint64_t n = 8000;  // ~49% load
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    uint8_t* p = nullptr;
    t.Upsert(key, &p);
    StoreLE64(p, i * 2);
  }
  EXPECT_EQ(t.size() + t.overflow_size(), n);
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    const uint8_t* p = t.Lookup(key);
    ASSERT_NE(p, nullptr) << "missing key " << i;
    EXPECT_EQ(LoadLE64(p), i * 2);
  }
}

TEST(CuckooTest, OverflowBeyondCapacityStaysExact) {
  // Tiny table: force overflow and verify nothing is lost or duplicated.
  CuckooTable t(2, 16, 8, 0);
  const uint64_t n = 100;  // way beyond 32 slots
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    t.Upsert(key, nullptr);
  }
  EXPECT_EQ(t.size() + t.overflow_size(), n);
  EXPECT_GT(t.overflow_size(), 0u);
  // Re-upserting any key reports kFound (exact dedup including overflow).
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    EXPECT_EQ(t.Upsert(key, nullptr), CuckooTable::UpsertResult::kFound);
  }
  EXPECT_EQ(t.size() + t.overflow_size(), n);
}

TEST(CuckooTest, ForEachVisitsEveryEntryOnce) {
  CuckooTable t(4, 256, 8, 8);
  const uint64_t n = 500;
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    uint8_t* p = nullptr;
    t.Upsert(key, &p);
    StoreLE64(p, i);
  }
  std::set<uint64_t> seen;
  t.ForEach([&](const uint8_t* key, const uint8_t* payload) {
    const uint64_t k = LoadLE64(key);
    EXPECT_EQ(LoadLE64(payload), k);
    EXPECT_TRUE(seen.insert(k).second) << "duplicate visit of " << k;
  });
  EXPECT_EQ(seen.size(), n);
}

TEST(CuckooTest, ClearEmptiesEverything) {
  CuckooTable t(2, 16, 8, 0);
  for (uint64_t i = 0; i < 50; ++i) {
    uint8_t key[8];
    MakeKey(i, key);
    t.Upsert(key, nullptr);
  }
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.overflow_size(), 0u);
  EXPECT_EQ(t.total_kicks(), 0u);
  uint8_t key[8];
  MakeKey(1, key);
  EXPECT_EQ(t.Lookup(key), nullptr);
}

// A region reuses one table across queries. After Clear, the table must
// behave exactly like a new one: same lookups (the previous query's keys
// gone), sizes, kick count, overflow and ForEach order. At 0.95 fill the
// kick chains run long and some entries overflow, so every slot the first
// query dirtied is in play.
TEST(CuckooTest, ClearThenReuseMatchesAFreshTable) {
  // 16 Ki slots: 256 occupancy words, so the dirty summary spans 4 words.
  constexpr int kWays = 4;
  constexpr uint64_t kSlots = 4096;
  auto key_of = [](uint64_t v) {
    std::array<uint8_t, 8> key;
    MakeKey(v, key.data());
    return key;
  };
  for (const double fill : {0.05, 0.95}) {
    SCOPED_TRACE("fill " + std::to_string(fill));
    const uint64_t n = static_cast<uint64_t>(fill * kWays * kSlots);
    // Key i of a query is base + i * 7919; the two queries' bases keep
    // their key sets disjoint.
    auto insert_all = [&](CuckooTable* t, uint64_t base) {
      for (uint64_t i = 0; i < n; ++i) {
        uint8_t* payload = nullptr;
        t->Upsert(key_of(base + i * 7919).data(), &payload);
        StoreLE64(payload, (base + i) * 3);
      }
    };
    auto entries = [](const CuckooTable& t) {
      std::vector<std::pair<uint64_t, uint64_t>> out;
      t.ForEach([&out](const uint8_t* k, const uint8_t* p) {
        out.emplace_back(LoadLE64(k), LoadLE64(p));
      });
      return out;
    };
    constexpr uint64_t kFirst = 17;
    constexpr uint64_t kSecond = kFirst + (1ull << 40);

    CuckooTable reused(kWays, kSlots, 8, 8);
    insert_all(&reused, kFirst);
    reused.Clear();
    insert_all(&reused, kSecond);
    CuckooTable fresh(kWays, kSlots, 8, 8);
    insert_all(&fresh, kSecond);

    EXPECT_EQ(reused.size(), fresh.size());
    EXPECT_EQ(reused.overflow_size(), fresh.overflow_size());
    EXPECT_EQ(reused.total_kicks(), fresh.total_kicks());
    if (fill > 0.9) {
      EXPECT_GT(fresh.overflow_size(), 0u);
      EXPECT_GT(fresh.total_kicks(), 0u);
    }
    EXPECT_EQ(entries(reused), entries(fresh));
    for (uint64_t i = 0; i < n; ++i) {
      EXPECT_EQ(reused.Lookup(key_of(kFirst + i * 7919).data()), nullptr)
          << "stale key " << i;
      const auto key = key_of(kSecond + i * 7919);
      const uint8_t* a = reused.Lookup(key.data());
      const uint8_t* b = fresh.Lookup(key.data());
      ASSERT_NE(a, nullptr) << i;
      ASSERT_NE(b, nullptr) << i;
      EXPECT_EQ(LoadLE64(a), LoadLE64(b));
    }
  }
}

TEST(CuckooTest, WideKeysAndPayloads) {
  // Two-column 16-byte keys with 32-byte aggregation payloads.
  CuckooTable t(4, 128, 16, 32);
  for (uint64_t i = 0; i < 100; ++i) {
    uint8_t key[16];
    StoreLE64(key, i);
    StoreLE64(key + 8, i * 7);
    uint8_t* p = nullptr;
    EXPECT_EQ(t.Upsert(key, &p), CuckooTable::UpsertResult::kInserted);
    StoreLE64(p + 24, i);
  }
  for (uint64_t i = 0; i < 100; ++i) {
    uint8_t key[16];
    StoreLE64(key, i);
    StoreLE64(key + 8, i * 7);
    const uint8_t* p = t.Lookup(key);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(LoadLE64(p + 24), i);
  }
}

TEST(CuckooTest, LoadFactorAndKicks) {
  CuckooTable t(2, 64, 8, 0);
  for (uint64_t i = 0; i < 96; ++i) {  // 75% of 128 slots
    uint8_t key[8];
    MakeKey(i * 1000003, key);
    t.Upsert(key, nullptr);
  }
  EXPECT_GT(t.LoadFactor(), 0.5);
  // At 75% on 2 ways, some kicks are overwhelmingly likely.
  EXPECT_GT(t.total_kicks(), 0u);
}

TEST(CuckooDeathTest, RequiresPowerOfTwoSlots) {
  EXPECT_DEATH(CuckooTable(2, 100, 8, 0), "power of two");
}

// ---------------------------------------------------------------------------
// LruShiftRegister
// ---------------------------------------------------------------------------

TEST(LruTest, MissThenHit) {
  LruShiftRegister lru(4, 8);
  uint8_t k[8];
  MakeKey(1, k);
  EXPECT_FALSE(lru.Touch(k));
  EXPECT_TRUE(lru.Touch(k));
  EXPECT_EQ(lru.hits(), 1u);
  EXPECT_EQ(lru.misses(), 1u);
}

TEST(LruTest, EvictsLeastRecentlyUsed) {
  LruShiftRegister lru(2, 8);
  uint8_t k1[8], k2[8], k3[8];
  MakeKey(1, k1);
  MakeKey(2, k2);
  MakeKey(3, k3);
  lru.Touch(k1);
  lru.Touch(k2);
  lru.Touch(k3);  // evicts k1
  EXPECT_FALSE(lru.Contains(k1));
  EXPECT_TRUE(lru.Contains(k2));
  EXPECT_TRUE(lru.Contains(k3));
}

TEST(LruTest, TouchRefreshesRecency) {
  LruShiftRegister lru(2, 8);
  uint8_t k1[8], k2[8], k3[8];
  MakeKey(1, k1);
  MakeKey(2, k2);
  MakeKey(3, k3);
  lru.Touch(k1);
  lru.Touch(k2);
  lru.Touch(k1);  // k1 most recent; k2 is now LRU
  lru.Touch(k3);  // evicts k2
  EXPECT_TRUE(lru.Contains(k1));
  EXPECT_FALSE(lru.Contains(k2));
}

TEST(LruTest, BackToBackDuplicatesAreHits) {
  // The hazard the hardware LRU exists to mask: equal keys closer together
  // than the hash pipeline depth.
  LruShiftRegister lru(8, 8);
  uint8_t k[8];
  MakeKey(42, k);
  EXPECT_FALSE(lru.Touch(k));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(lru.Touch(k));
  }
}

TEST(LruTest, SizeNeverExceedsDepth) {
  LruShiftRegister lru(3, 8);
  for (uint64_t i = 0; i < 100; ++i) {
    uint8_t k[8];
    MakeKey(i, k);
    lru.Touch(k);
    EXPECT_LE(lru.size(), 3u);
  }
}

TEST(LruTest, ClearForgetsEverything) {
  LruShiftRegister lru(4, 8);
  uint8_t k[8];
  MakeKey(1, k);
  lru.Touch(k);
  lru.Clear();
  EXPECT_FALSE(lru.Contains(k));
  EXPECT_EQ(lru.size(), 0u);
}

// Property: a DISTINCT built from (LRU + cuckoo) must agree with a std::set
// on random streams, including heavy duplication.
TEST(LruCuckooPropertyTest, DistinctAgreesWithReference) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    CuckooTable table(4, 256, 8, 0);
    LruShiftRegister lru(8, 8);
    std::set<uint64_t> reference;
    uint64_t emitted = 0;
    const uint64_t domain = 1 + rng.NextBelow(400);
    for (int i = 0; i < 3000; ++i) {
      const uint64_t v = rng.NextBelow(domain);
      uint8_t key[8];
      MakeKey(v, key);
      const bool is_new_ref = reference.insert(v).second;
      bool emitted_now = false;
      if (!lru.Touch(key)) {
        if (table.Upsert(key, nullptr) != CuckooTable::UpsertResult::kFound) {
          emitted_now = true;
          ++emitted;
        }
      }
      EXPECT_EQ(emitted_now, is_new_ref) << "value " << v << " trial "
                                         << trial;
    }
    EXPECT_EQ(emitted, reference.size());
  }
}

}  // namespace
}  // namespace farview
