//===- tests/service/cache_store_test.cpp - Journal crash safety ---------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
//
// The cache journal's whole contract is "kill -9 at any byte yields the
// old value or a clean miss, never a corrupt serve". These tests walk
// that contract directly: round-trip recovery, torn-tail truncation at
// EVERY byte boundary, single-bit corruption, and compaction identity.
//
//===----------------------------------------------------------------------===//

#include "service/CacheStore.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace vpo;
using namespace vpo::service;

namespace {

std::string tempPath(const char *Tag) {
  std::ostringstream OS;
  OS << "cache_store_" << Tag << "_" << ::getpid() << ".vpj";
  return OS.str();
}

CachedResult makeResult(int N) {
  CachedResult R;
  R.Status = ErrorCode::Ok;
  R.Key = ContentKey{uint64_t(N) * 7919, uint64_t(N) * 104729}.hex();
  R.IR = "function f" + std::to_string(N) + "(%a) { ret %a }";
  R.Stats = "{\"runs\": " + std::to_string(N) + "}";
  R.Remarks = "{\"pass\":\"coalesce\",\"n\":" + std::to_string(N) + "}";
  R.Incidents = N % 3 == 0 ? "pass=coalesce rolled-back" : "";
  R.Ran = N % 2 == 0;
  R.RunStatus = R.Ran ? "ok" : "";
  R.ReturnValue = -N * 17;
  R.Cycles = 0;
  R.Instructions = uint64_t(N) * 1000;
  return R;
}

ContentKey keyFor(int N) {
  return ContentKey{0x1000 + uint64_t(N), 0x2000 + uint64_t(N) * 3};
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

void dump(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), std::streamsize(Bytes.size()));
}

/// Scoped temp file that cleans up on destruction.
struct TempJournal {
  std::string Path;
  explicit TempJournal(const char *Tag) : Path(tempPath(Tag)) {
    ::unlink(Path.c_str());
  }
  ~TempJournal() {
    ::unlink(Path.c_str());
    ::unlink((Path + ".tmp").c_str());
  }
};

bool sameResult(const CachedResult &A, const CachedResult &B) {
  return A.Status == B.Status && A.Key == B.Key && A.IR == B.IR &&
         A.Stats == B.Stats && A.Remarks == B.Remarks &&
         A.Incidents == B.Incidents && A.Ran == B.Ran &&
         A.RunStatus == B.RunStatus && A.ReturnValue == B.ReturnValue &&
         A.Cycles == B.Cycles && A.Instructions == B.Instructions;
}

TEST(CacheStore, RoundTripRecovery) {
  TempJournal J("roundtrip");
  {
    ContentCache Cache(64);
    CacheStore Store;
    CacheRecoveryStats St;
    std::string Err;
    ASSERT_TRUE(Store.open(J.Path, Cache, St, Err)) << Err;
    EXPECT_EQ(St.RecoveredEntries, 0u);
    for (int N = 0; N < 8; ++N) {
      Store.noteInsert(keyFor(N), makeResult(N));
      Cache.insert(keyFor(N), makeResult(N));
    }
    Store.noteAlias(ContentKey{9, 9}, keyFor(3));
    Cache.alias(ContentKey{9, 9}, keyFor(3));
    Store.close();
  }
  // Fresh process: replay.
  ContentCache Cache(64);
  CacheStore Store;
  CacheRecoveryStats St;
  std::string Err;
  ASSERT_TRUE(Store.open(J.Path, Cache, St, Err)) << Err;
  EXPECT_EQ(St.RecoveredEntries, 8u);
  EXPECT_EQ(St.RecoveredAliases, 1u);
  EXPECT_EQ(St.DiscardedRecords, 0u);
  EXPECT_FALSE(St.TornTail);
  for (int N = 0; N < 8; ++N) {
    const CachedResult *R = Cache.lookup(keyFor(N));
    ASSERT_NE(R, nullptr) << "entry " << N;
    EXPECT_TRUE(sameResult(*R, makeResult(N))) << "entry " << N;
  }
  // The alias resolves to the canonical entry.
  const CachedResult *A = Cache.lookupRaw(ContentKey{9, 9});
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(sameResult(*A, makeResult(3)));
}

TEST(CacheStore, TornTailTruncationAtEveryBoundary) {
  TempJournal J("torn");
  // Build a clean 3-record journal once, in memory.
  {
    ContentCache Cache(64);
    CacheStore Store;
    CacheRecoveryStats St;
    std::string Err;
    ASSERT_TRUE(Store.open(J.Path, Cache, St, Err)) << Err;
    for (int N = 0; N < 3; ++N)
      Store.noteInsert(keyFor(N), makeResult(N));
    Store.close();
  }
  const std::string Full = slurp(J.Path);
  ASSERT_GT(Full.size(), 48u);

  // Record boundaries, for computing how many entries each prefix holds.
  std::vector<size_t> Ends;
  for (int N = 0; N < 3; ++N) {
    std::string Rec = CacheStore::encodeRecord(
        CacheStore::encodeInsertPayload(keyFor(N), makeResult(N)));
    Ends.push_back((Ends.empty() ? 0 : Ends.back()) + Rec.size());
  }
  ASSERT_EQ(Ends.back(), Full.size());

  for (size_t Cut = 0; Cut < Full.size(); ++Cut) {
    dump(J.Path, Full.substr(0, Cut));
    ContentCache Cache(64);
    CacheStore Store;
    CacheRecoveryStats St;
    std::string Err;
    ASSERT_TRUE(Store.open(J.Path, Cache, St, Err))
        << Err << " at cut " << Cut;
    size_t ExpectEntries = 0;
    while (ExpectEntries < Ends.size() && Ends[ExpectEntries] <= Cut)
      ++ExpectEntries;
    EXPECT_EQ(St.RecoveredEntries, ExpectEntries) << "cut " << Cut;
    // A cut mid-record is a torn tail; a cut exactly on a boundary is a
    // clean (shorter) journal.
    bool OnBoundary = Cut == 0;
    for (size_t E : Ends)
      OnBoundary = OnBoundary || E == Cut;
    EXPECT_EQ(St.TornTail, !OnBoundary) << "cut " << Cut;
    EXPECT_EQ(St.DiscardedRecords, 0u) << "cut " << Cut;
    // Every surviving entry must be byte-exact; later entries are clean
    // misses, never garbage.
    for (size_t N = 0; N < 3; ++N) {
      const CachedResult *R = Cache.lookup(keyFor(int(N)));
      if (N < ExpectEntries) {
        ASSERT_NE(R, nullptr) << "cut " << Cut << " entry " << N;
        EXPECT_TRUE(sameResult(*R, makeResult(int(N))));
      } else {
        EXPECT_EQ(R, nullptr) << "cut " << Cut << " entry " << N;
      }
    }
    Store.close();
    // The torn tail was truncated in place: reopening is now clean.
    ContentCache Cache2(64);
    CacheStore Store2;
    CacheRecoveryStats St2;
    ASSERT_TRUE(Store2.open(J.Path, Cache2, St2, Err));
    EXPECT_FALSE(St2.TornTail) << "cut " << Cut;
    EXPECT_EQ(St2.RecoveredEntries, ExpectEntries) << "cut " << Cut;
  }
}

TEST(CacheStore, SingleBitCorruptionDiscardsOneRecord) {
  TempJournal J("bitflip");
  {
    ContentCache Cache(64);
    CacheStore Store;
    CacheRecoveryStats St;
    std::string Err;
    ASSERT_TRUE(Store.open(J.Path, Cache, St, Err)) << Err;
    for (int N = 0; N < 3; ++N)
      Store.noteInsert(keyFor(N), makeResult(N));
    Store.close();
  }
  const std::string Full = slurp(J.Path);
  std::string Rec0 = CacheStore::encodeRecord(
      CacheStore::encodeInsertPayload(keyFor(0), makeResult(0)));
  std::string Rec1 = CacheStore::encodeRecord(
      CacheStore::encodeInsertPayload(keyFor(1), makeResult(1)));

  // Flip one bit in the middle of record 1's payload.
  std::string Bad = Full;
  size_t FlipAt = Rec0.size() + 16 + Rec1.size() / 2;
  Bad[FlipAt] = char(Bad[FlipAt] ^ 0x10);
  dump(J.Path, Bad);

  ContentCache Cache(64);
  CacheStore Store;
  CacheRecoveryStats St;
  std::string Err;
  ASSERT_TRUE(Store.open(J.Path, Cache, St, Err)) << Err;
  // Record 1 is discarded; records 0 and 2 survive intact.
  EXPECT_GE(St.DiscardedRecords, 1u);
  EXPECT_EQ(St.RecoveredEntries, 2u);
  const CachedResult *R0 = Cache.lookup(keyFor(0));
  ASSERT_NE(R0, nullptr);
  EXPECT_TRUE(sameResult(*R0, makeResult(0)));
  EXPECT_EQ(Cache.lookup(keyFor(1)), nullptr); // clean miss, not garbage
  const CachedResult *R2 = Cache.lookup(keyFor(2));
  ASSERT_NE(R2, nullptr);
  EXPECT_TRUE(sameResult(*R2, makeResult(2)));
}

TEST(CacheStore, CompactionPreservesContentsAndDropsGarbage) {
  TempJournal J("compact");
  ContentCache Cache(4); // small bound: churn creates evictions
  CacheStore Store;
  Store.Opts.CompactMinBytes = 1; // always eligible
  CacheRecoveryStats St;
  std::string Err;
  ASSERT_TRUE(Store.open(J.Path, Cache, St, Err)) << Err;

  // 12 inserts into a 4-entry cache: 8 evictions' worth of garbage.
  for (int N = 0; N < 12; ++N) {
    Store.noteInsert(keyFor(N), makeResult(N));
    Cache.insert(keyFor(N), makeResult(N));
  }
  Store.noteAlias(ContentKey{7, 7}, keyFor(11));
  Cache.alias(ContentKey{7, 7}, keyFor(11));
  uint64_t Before = Store.journalBytes();
  EXPECT_GT(Store.garbageBytes(), 0u);

  ASSERT_TRUE(Store.maybeCompact(Cache));
  EXPECT_EQ(Store.compactions(), 1u);
  EXPECT_LT(Store.journalBytes(), Before);
  EXPECT_EQ(Store.garbageBytes(), 0u);

  // Appends after compaction land in the new journal.
  Store.noteInsert(keyFor(12), makeResult(12));
  Cache.insert(keyFor(12), makeResult(12));
  Store.close();

  // Replay: live entries (9,10,11,12 after the last eviction), the
  // alias, and byte-exact payloads.
  ContentCache Cache2(4);
  CacheStore Store2;
  CacheRecoveryStats St2;
  ASSERT_TRUE(Store2.open(J.Path, Cache2, St2, Err)) << Err;
  EXPECT_EQ(St2.RecoveredEntries, 5u); // 4 compacted + 1 appended
  EXPECT_EQ(St2.DiscardedRecords, 0u);
  EXPECT_EQ(Cache2.size(), 4u); // the 5th replayed insert evicts one
  for (int N = 10; N <= 12; ++N) {
    const CachedResult *R = Cache2.lookup(keyFor(N));
    ASSERT_NE(R, nullptr) << "entry " << N;
    EXPECT_TRUE(sameResult(*R, makeResult(N)));
  }
  const CachedResult *A = Cache2.lookupRaw(ContentKey{7, 7});
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(sameResult(*A, makeResult(11)));

  // Compacting the replayed cache writes a byte-identical live set:
  // compaction is idempotent over a compacted journal.
  ASSERT_TRUE(Store2.compact(Cache2));
  Store2.close();
  std::string Once = slurp(J.Path);
  ContentCache Cache3(4);
  CacheStore Store3;
  CacheRecoveryStats St3;
  ASSERT_TRUE(Store3.open(J.Path, Cache3, St3, Err)) << Err;
  ASSERT_TRUE(Store3.compact(Cache3));
  Store3.close();
  EXPECT_EQ(slurp(J.Path), Once);
}

TEST(CacheStore, RefreshAccountsGarbageAndEvictHookFires) {
  TempJournal J("refresh");
  ContentCache Cache(2);
  CacheStore Store;
  CacheRecoveryStats St;
  std::string Err;
  ASSERT_TRUE(Store.open(J.Path, Cache, St, Err)) << Err;

  Store.noteInsert(keyFor(0), makeResult(0));
  Cache.insert(keyFor(0), makeResult(0));
  EXPECT_EQ(Store.garbageBytes(), 0u);

  // Refreshing the same key supersedes the old record.
  Store.noteInsert(keyFor(0), makeResult(5));
  Cache.insert(keyFor(0), makeResult(5));
  EXPECT_GT(Store.garbageBytes(), 0u);
  uint64_t AfterRefresh = Store.garbageBytes();

  // Overflowing the 2-entry bound evicts key 0 through the hook.
  Store.noteInsert(keyFor(1), makeResult(1));
  Cache.insert(keyFor(1), makeResult(1));
  Store.noteInsert(keyFor(2), makeResult(2));
  Cache.insert(keyFor(2), makeResult(2));
  EXPECT_GT(Store.garbageBytes(), AfterRefresh);
}

/// Journals raw -> canon the way the daemon does: record, index, compact.
void aliasAndCompact(CacheStore &Store, ContentCache &Cache,
                     const ContentKey &Raw, const ContentKey &Canon) {
  Store.noteAlias(Raw, Canon);
  Cache.alias(Raw, Canon);
  Store.maybeCompact(Cache);
}

TEST(CacheStore, AliasesTheIndexDropsAreGarbage) {
  TempJournal J("aliasgarbage");
  ContentCache Cache(1); // alias bound 4
  CacheStore Store;
  CacheRecoveryStats St;
  std::string Err;
  ASSERT_TRUE(Store.open(J.Path, Cache, St, Err)) << Err;
  Store.noteInsert(keyFor(0), makeResult(0));
  Cache.insert(keyFor(0), makeResult(0));
  const uint64_t Record =
      CacheStore::encodeRecord(
          CacheStore::encodeAliasPayload(ContentKey{1, 1}, keyFor(0)))
          .size();

  for (uint64_t N = 1; N <= 4; ++N)
    aliasAndCompact(Store, Cache, ContentKey{N, N}, keyFor(0));
  EXPECT_EQ(Store.garbageBytes(), 0u);
  aliasAndCompact(Store, Cache, ContentKey{5, 5}, keyFor(0));
  EXPECT_EQ(Store.garbageBytes(), Record) << "dropped by the bound";
  aliasAndCompact(Store, Cache, ContentKey{5, 5}, keyFor(0));
  EXPECT_EQ(Store.garbageBytes(), 2 * Record) << "replaced by a re-alias";

  Store.noteInsert(keyFor(1), makeResult(1));
  Cache.insert(keyFor(1), makeResult(1)); // evicts 0: its aliases dangle
  const uint64_t AfterEvict = Store.garbageBytes();
  EXPECT_EQ(Cache.lookupRaw(ContentKey{5, 5}), nullptr);
  EXPECT_EQ(Store.garbageBytes(), AfterEvict + Record)
      << "erased as dangling";
}

TEST(CacheStore, AliasOnlyTrafficCompactsAndStaysBounded) {
  // Variants of stored content journal an alias and nothing else. Far
  // more of them than the index keeps (4x entries) must still compact.
  TempJournal J("aliasonly");
  ContentCache Cache(2);
  CacheStore Store;
  Store.Opts.SyncEveryWrite = false;
  CacheRecoveryStats St;
  std::string Err;
  ASSERT_TRUE(Store.open(J.Path, Cache, St, Err)) << Err;
  Store.noteInsert(keyFor(0), makeResult(0));
  Cache.insert(keyFor(0), makeResult(0));

  uint64_t MaxBytes = 0;
  for (uint64_t N = 1; N <= 5000; ++N) {
    aliasAndCompact(Store, Cache, ContentKey{N, N}, keyFor(0));
    MaxBytes = std::max(MaxBytes, Store.journalBytes());
  }
  EXPECT_GT(Store.compactions(), 0u);
  EXPECT_LE(MaxBytes, 2 * Store.Opts.CompactMinBytes)
      << "5000 aliases of ~100 bytes each must not accumulate";
  Store.close();

  // The compacted journal still replays the entry and the newest aliases.
  ContentCache Cache2(2);
  CacheStore Store2;
  CacheRecoveryStats St2;
  ASSERT_TRUE(Store2.open(J.Path, Cache2, St2, Err)) << Err;
  EXPECT_EQ(St2.DiscardedRecords, 0u);
  EXPECT_NE(Cache2.lookupRaw(ContentKey{5000, 5000}), nullptr);
  EXPECT_EQ(Cache2.lookupRaw(ContentKey{1, 1}), nullptr);
}

} // namespace
