//===- tests/service/content_cache_test.cpp --------------------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache-correctness suite for the service's content-addressed result
/// cache: distinct requests get distinct keys, a replayed hit is
/// byte-identical to the freshly inserted result, the store stays within
/// its entry bound under LRU eviction, and the raw-text alias index
/// resolves (and self-heals when its target was evicted).
///
//===----------------------------------------------------------------------===//

#include "service/ContentCache.h"

#include <gtest/gtest.h>

using namespace vpo;
using namespace vpo::service;

namespace {

ContentKey keyFor(int I) {
  return hashContent("kernel-" + std::to_string(I), "coalesce-all", "alpha",
                     "");
}

CachedResult resultFor(int I) {
  CachedResult R;
  R.Key = keyFor(I).hex();
  R.IR = "func @k" + std::to_string(I) + "() {\nentry:\n  ret\n}\n";
  R.Stats = "{\"load-runs\":" + std::to_string(I) + "}";
  R.Remarks = "{\"pass\":\"coalesce\",\"n\":" + std::to_string(I) + "}\n";
  R.Incidents = "";
  R.Ran = true;
  R.RunStatus = "ok";
  R.ReturnValue = I;
  R.Cycles = 10 + I;
  R.Instructions = 5 + I;
  return R;
}

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

TEST(ContentKeys, EveryTupleFieldChangesTheKey) {
  ContentKey Base = hashContent("ir", "cfg", "tgt", "run");
  EXPECT_NE(Base, hashContent("ir2", "cfg", "tgt", "run"));
  EXPECT_NE(Base, hashContent("ir", "cfg2", "tgt", "run"));
  EXPECT_NE(Base, hashContent("ir", "cfg", "tgt2", "run"));
  EXPECT_NE(Base, hashContent("ir", "cfg", "tgt", "run2"));
  EXPECT_EQ(Base, hashContent("ir", "cfg", "tgt", "run"));
}

TEST(ContentKeys, FieldBoundariesAreNotAmbiguous) {
  // Moving a character across a field boundary must change the key —
  // the tuple is separated, not concatenated.
  EXPECT_NE(hashContent("ab", "c", "t", ""), hashContent("a", "bc", "t", ""));
  EXPECT_NE(hashContent("", "x", "t", ""), hashContent("x", "", "t", ""));
}

TEST(ContentKeys, HexRoundtrip) {
  ContentKey K = hashContent("some kernel", "O0", "m68030", "1,2@64");
  std::string Hex = K.hex();
  ASSERT_EQ(Hex.size(), 32u);
  std::optional<ContentKey> Back = contentKeyFromHex(Hex);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, K);
}

TEST(ContentKeys, HexRejectsMalformedInput) {
  EXPECT_FALSE(contentKeyFromHex("").has_value());
  EXPECT_FALSE(contentKeyFromHex("abcd").has_value());
  EXPECT_FALSE(
      contentKeyFromHex("0123456789abcdef0123456789abcdeZ").has_value());
  EXPECT_FALSE(
      contentKeyFromHex("0123456789abcdef0123456789abcdef0").has_value());
}

TEST(ContentKeys, RunSignatureSeparatesRunFromCompileOnly) {
  ServiceRequest Compile;
  EXPECT_EQ(runSignature(Compile), "");

  ServiceRequest Run = Compile;
  Run.RunArgs = "4096,8";
  Run.ArenaKB = 128;
  std::string Sig = Run.RunArgs + "@128";
  EXPECT_EQ(runSignature(Run), Sig);

  // Same args, different arena -> different identity (the arena bounds
  // what the kernel can touch, so results can legitimately differ).
  ServiceRequest Run2 = Run;
  Run2.ArenaKB = 256;
  EXPECT_NE(runSignature(Run), runSignature(Run2));
}

//===----------------------------------------------------------------------===//
// Store behavior
//===----------------------------------------------------------------------===//

TEST(ContentCacheStore, HitReplaysByteIdenticalResult) {
  ContentCache Cache(8);
  CachedResult Fresh = resultFor(1);
  Cache.insert(keyFor(1), Fresh);

  const CachedResult *Hit = Cache.lookup(keyFor(1));
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Key, Fresh.Key);
  EXPECT_EQ(Hit->IR, Fresh.IR);
  EXPECT_EQ(Hit->Stats, Fresh.Stats);
  EXPECT_EQ(Hit->Remarks, Fresh.Remarks);
  EXPECT_EQ(Hit->Incidents, Fresh.Incidents);
  EXPECT_EQ(Hit->Ran, Fresh.Ran);
  EXPECT_EQ(Hit->RunStatus, Fresh.RunStatus);
  EXPECT_EQ(Hit->ReturnValue, Fresh.ReturnValue);
  EXPECT_EQ(Hit->Cycles, Fresh.Cycles);
  EXPECT_EQ(Hit->Instructions, Fresh.Instructions);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 0u);
}

TEST(ContentCacheStore, MissIsCountedAndReturnsNull) {
  ContentCache Cache(8);
  EXPECT_EQ(Cache.lookup(keyFor(99)), nullptr);
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Cache.misses(), 1u);
}

TEST(ContentCacheStore, EvictionIsBoundedAndLRU) {
  ContentCache Cache(4);
  for (int I = 0; I < 4; ++I)
    Cache.insert(keyFor(I), resultFor(I));
  EXPECT_EQ(Cache.size(), 4u);

  // Touch 0 so it becomes most-recently-used, then overflow the bound.
  ASSERT_NE(Cache.lookup(keyFor(0)), nullptr);
  for (int I = 4; I < 10; ++I)
    Cache.insert(keyFor(I), resultFor(I));

  EXPECT_EQ(Cache.size(), 4u) << "bound must hold under any insert load";
  // 1 was the least-recently-used entry; it must be gone. The recent
  // inserts and nothing beyond the bound survive.
  EXPECT_EQ(Cache.lookup(keyFor(1)), nullptr);
  EXPECT_NE(Cache.lookup(keyFor(9)), nullptr);
  EXPECT_NE(Cache.lookup(keyFor(8)), nullptr);
}

TEST(ContentCacheStore, ReinsertRefreshesInsteadOfDuplicating) {
  ContentCache Cache(2);
  Cache.insert(keyFor(1), resultFor(1));
  CachedResult Updated = resultFor(1);
  Updated.Stats = "{\"load-runs\":777}";
  Cache.insert(keyFor(1), Updated);
  EXPECT_EQ(Cache.size(), 1u);
  const CachedResult *Hit = Cache.lookup(keyFor(1));
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Stats, "{\"load-runs\":777}");
}

//===----------------------------------------------------------------------===//
// Alias index
//===----------------------------------------------------------------------===//

TEST(ContentCacheAlias, RawVariantResolvesToCanonicalEntry) {
  ContentCache Cache(8);
  ContentKey Canon = keyFor(1);
  // A whitespace variant of the same kernel: different raw bytes.
  ContentKey Raw = hashContent("  kernel-1  \n", "coalesce-all", "alpha", "");
  ASSERT_FALSE(Raw == Canon);

  Cache.insert(Canon, resultFor(1));
  Cache.alias(Raw, Canon);

  const CachedResult *Hit = Cache.lookupRaw(Raw);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->IR, resultFor(1).IR);
}

TEST(ContentCacheAlias, CanonicalKeyHitsStoreDirectlyWithoutAlias) {
  // lookupRaw must also serve the case where the raw bytes *are* the
  // canonical form (the common byte-identical repeat).
  ContentCache Cache(8);
  Cache.insert(keyFor(2), resultFor(2));
  EXPECT_NE(Cache.lookupRaw(keyFor(2)), nullptr);
}

TEST(ContentCacheAlias, DanglingAliasDiesLazilyAfterEviction) {
  ContentCache Cache(1);
  ContentKey Canon = keyFor(1);
  ContentKey Raw = hashContent("variant", "coalesce-all", "alpha", "");
  Cache.insert(Canon, resultFor(1));
  Cache.alias(Raw, Canon);
  ASSERT_NE(Cache.lookupRaw(Raw), nullptr);

  // Evict the canonical entry by inserting another one.
  Cache.insert(keyFor(2), resultFor(2));
  EXPECT_EQ(Cache.size(), 1u);

  uint64_t MissesBefore = Cache.misses();
  EXPECT_EQ(Cache.lookupRaw(Raw), nullptr)
      << "alias to an evicted entry must miss, not resurrect stale data";
  EXPECT_GT(Cache.misses(), MissesBefore);
  // And it was erased: a second lookup is still a clean miss.
  EXPECT_EQ(Cache.lookupRaw(Raw), nullptr);
}

TEST(ContentCacheAlias, AliasIndexIsBounded) {
  // The alias index holds at most 4x the entry bound; flooding it with
  // unique variants must not grow it without limit (we can't inspect the
  // map directly, but the oldest alias must be dropped).
  ContentCache Cache(2);
  Cache.insert(keyFor(1), resultFor(1));
  ContentKey First = hashContent("variant-0", "c", "t", "");
  Cache.alias(First, keyFor(1));
  for (int I = 1; I < 64; ++I)
    Cache.alias(hashContent("variant-" + std::to_string(I), "c", "t", ""),
                keyFor(1));
  // First alias fell off the bounded index -> miss; a recent one hits.
  EXPECT_EQ(Cache.lookupRaw(First), nullptr);
  EXPECT_NE(
      Cache.lookupRaw(hashContent("variant-63", "c", "t", "")), nullptr);
}

TEST(ContentCacheAlias, ReAliasAfterDanglingEraseKeepsOneOrderEntry) {
  // Erasing a dangling alias must also forget its place in the order.
  // Otherwise re-aliasing the raw key queues it twice: compaction writes
  // it twice, and the bound trims the fresh alias as if it were oldest.
  ContentCache Cache(4); // alias bound 16
  ContentKey Raw = hashContent("variant", "coalesce-all", "alpha", "");
  Cache.insert(keyFor(0), resultFor(0));
  Cache.alias(Raw, keyFor(0));
  for (int I = 1; I <= 4; ++I)
    Cache.insert(keyFor(I), resultFor(I)); // evicts 0
  ASSERT_EQ(Cache.lookupRaw(Raw), nullptr); // dangling: erased

  Cache.insert(keyFor(0), resultFor(0));
  Cache.alias(Raw, keyFor(0));
  size_t Visits = 0;
  Cache.forEachAlias([&](const ContentKey &R, const ContentKey &) {
    Visits += R == Raw ? 1 : 0;
  });
  EXPECT_EQ(Visits, 1u);

  for (int I = 0; I < 15; ++I)
    Cache.alias(hashContent("other-" + std::to_string(I), "c", "t", ""),
                keyFor(0));
  EXPECT_NE(Cache.lookupRaw(Raw), nullptr)
      << "16 aliases fit the bound; the re-aliased one must still resolve";
}

} // namespace
