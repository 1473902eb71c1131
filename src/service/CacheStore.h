//===- service/CacheStore.h - Crash-safe cache journal ----------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Append-only on-disk journal for the content cache, so a restarted
/// daemon boots warm instead of recompiling everything it had already
/// served. The commit protocol is built for kill -9 at any byte:
///
///   record := "VPJ1" | u32le payload-len | u64le fnv1a(payload) | payload
///
/// where the payload is one flat JSON object (service/Protocol.h
/// dialect) describing either a store insert or a raw->canonical alias.
/// Appends are write-then-fsync; a record is committed iff its checksum
/// verifies. Recovery replays the journal front to back:
///
///   * a torn tail (header or payload cut short by a crash) is
///     truncated back to the last committed record;
///   * a checksum failure discards that record and byte-scans forward
///     to the next magic, so one corrupt sector cannot take out the
///     records behind it.
///
/// Either way the cache ends up holding only values that were fully
/// committed — a crashed write yields a clean miss, never a corrupt
/// serve.
///
/// Superseded records (LRU evictions, refreshed keys, aliases the index
/// let go of) become garbage that only compaction reclaims: the live
/// entries are rewritten oldest-first to a temp file (so replay
/// reproduces the cache's recency order), fsync'd, renamed over the
/// journal, and the directory fsync'd — the same atomic-replace idiom as
/// the snapshot journal.
///
//===----------------------------------------------------------------------===//

#ifndef VPO_SERVICE_CACHESTORE_H
#define VPO_SERVICE_CACHESTORE_H

#include "service/ContentCache.h"

#include <cstdint>
#include <string>
#include <unordered_map>

namespace vpo {
namespace service {

/// What recovery found, reported by the daemon's status op so the chaos
/// harness (and operators) can see crash-recovery working.
struct CacheRecoveryStats {
  uint64_t RecoveredEntries = 0;  ///< committed inserts replayed
  uint64_t RecoveredAliases = 0;  ///< committed aliases replayed
  uint64_t DiscardedRecords = 0;  ///< checksum/parse failures skipped
  bool TornTail = false;          ///< trailing partial record truncated
  uint64_t JournalBytes = 0;      ///< journal size after recovery
};

class CacheStore {
public:
  struct Options {
    /// fsync after every append. The whole point of the journal is
    /// surviving kill -9, so this defaults on; tests that hammer the
    /// write path can turn it off.
    bool SyncEveryWrite = true;
    /// Compaction trigger floor: below this size the garbage ratio is
    /// ignored (rewriting a tiny journal buys nothing).
    uint64_t CompactMinBytes = 64 * 1024;
  };

  CacheStore() = default;
  ~CacheStore();
  CacheStore(const CacheStore &) = delete;
  CacheStore &operator=(const CacheStore &) = delete;

  Options Opts;

  /// Opens (creating if absent) the journal at \p Path and replays every
  /// committed record into \p Cache. Truncates a torn tail in place.
  /// \returns false with \p Err set if the file cannot be opened; a
  /// damaged-but-openable journal still succeeds (damage is reported in
  /// \p Stats, not treated as fatal).
  bool open(const std::string &Path, ContentCache &Cache,
            CacheRecoveryStats &Stats, std::string &Err);

  /// Journals a store insert. Call *before* ContentCache::insert so the
  /// on-disk copy is write-ahead: a crash between the two costs a
  /// recompile, never a phantom cache entry.
  void noteInsert(const ContentKey &Canon, const CachedResult &R);

  /// Journals a raw -> canonical alias (a self-alias is not recorded,
  /// as ContentCache::alias ignores it). Call before ContentCache::alias,
  /// whose drop hook then counts any record this one replaces.
  void noteAlias(const ContentKey &Raw, const ContentKey &Canon);

  /// Garbage accounting for an LRU eviction (wire via
  /// ContentCache::setEvictHook). The record stays on disk until
  /// compaction; replaying it is harmless (the entry just re-evicts).
  void noteEvicted(const ContentKey &Canon);

  /// Garbage accounting for an alias the index let go of (wire via
  /// ContentCache::setAliasDropHook).
  void noteAliasDropped(const ContentKey &Raw, const ContentKey &Canon);

  /// Compacts when the journal is big enough and mostly garbage.
  /// \returns true if a compaction ran.
  bool maybeCompact(const ContentCache &Cache);

  /// Rewrites the journal to exactly \p Cache's live contents via
  /// tmp + fsync + rename + directory fsync. \returns false (journal
  /// left untouched) on any I/O failure.
  bool compact(const ContentCache &Cache);

  /// fsync the journal (drain path: flush before exit).
  void sync();

  /// fsync + close. Reopen with open().
  void close();

  /// Drops the fd without syncing — for forked children that must not
  /// touch the parent's journal.
  void abandon();

  bool isOpen() const { return Fd >= 0; }
  uint64_t journalBytes() const { return JournalBytes; }
  uint64_t garbageBytes() const { return GarbageBytes; }
  uint64_t compactions() const { return Compactions; }

  /// Serializes one insert/alias payload (exposed for tests, which
  /// hand-craft journals to corrupt).
  static std::string encodeInsertPayload(const ContentKey &Canon,
                                         const CachedResult &R);
  static std::string encodeAliasPayload(const ContentKey &Raw,
                                        const ContentKey &Canon);
  /// Frames \p Payload as a full record (magic + header + checksum).
  static std::string encodeRecord(const std::string &Payload);

private:
  void appendRecord(const std::string &Payload);

  int Fd = -1;
  std::string Path;
  uint64_t JournalBytes = 0;
  uint64_t GarbageBytes = 0;
  uint64_t Compactions = 0;
  /// Last journaled record size per live canonical key, so a refresh or
  /// eviction can move exactly that many bytes to the garbage side.
  std::unordered_map<std::string, uint64_t> LiveBytes;
};

} // namespace service
} // namespace vpo

#endif // VPO_SERVICE_CACHESTORE_H
