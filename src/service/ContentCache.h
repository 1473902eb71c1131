//===- service/ContentCache.h - Content-addressed result cache --*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed caching for the compile service: results are keyed
/// by a 128-bit hash of (canonicalized IR, pipeline config, target,
/// run-mode signature), so a repeated request is a cache hit that
/// bypasses the worker pool entirely and returns a byte-identical
/// result.
///
/// Canonicalization is parse -> print: two textually different requests
/// for the same kernel (whitespace, comments) share a canonical key.
/// But parsing untrusted IR is exactly the kind of work the daemon
/// refuses to do in-process — it happens in a crash-contained worker.
/// The cache therefore has two levels:
///
///   * the **store**, keyed by the canonical hash the worker computed
///     (entries hold the full result payload);
///   * a **raw-text alias index**, mapping the hash of the request's
///     literal bytes to the canonical key.
///
/// A byte-identical repeat resolves through the alias index without any
/// parsing. A whitespace-variant request misses the alias index and goes
/// to a worker, which parses it and stops there: it sends the daemon the
/// canonical key (the key exchange, service/Protocol.h) and waits. If the
/// store holds that key, the daemon serves the stored result
/// byte-identical, aliases the variant's raw hash for next time, and
/// frees the worker — no pipeline, audit or run is paid twice. Only a
/// store miss lets the worker go on to compile.
///
/// Eviction is LRU with a fixed entry bound; aliases of an evicted
/// entry die lazily on their next lookup. Only clean full-pipeline
/// results are inserted — degraded results describe transient worker
/// state, not the content, and must not be replayed.
///
//===----------------------------------------------------------------------===//

#ifndef VPO_SERVICE_CONTENTCACHE_H
#define VPO_SERVICE_CONTENTCACHE_H

#include "service/Protocol.h"

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

namespace vpo {
namespace service {

/// 128-bit content key (two independent 64-bit FNV-1a passes — not
/// cryptographic, but collision-proof at any realistic cache size).
struct ContentKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const ContentKey &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
  bool isZero() const { return Hi == 0 && Lo == 0; }

  /// 32 lowercase hex digits.
  std::string hex() const;
};

struct ContentKeyHash {
  size_t operator()(const ContentKey &K) const {
    return static_cast<size_t>(K.Lo ^ (K.Hi * 0x9e3779b97f4a7c15ull));
  }
};

/// Hashes one field-separated content tuple. \p RunSig encodes the
/// run-mode part of the request ("args:arena", empty for compile-only).
ContentKey hashContent(const std::string &IRText, const std::string &Config,
                       const std::string &Target,
                       const std::string &RunSig);

/// Parses 32 hex digits back into a key (the wire form a worker reports
/// via ServiceResponse::Key). \returns nullopt on malformed input.
std::optional<ContentKey> contentKeyFromHex(const std::string &Hex);

/// The run-mode part of a request's content identity: "args@arenakb"
/// when the request executes the kernel, empty for compile-only. Both
/// the daemon's raw-bytes key and the worker's canonical key hash this,
/// so compile-only and run results never collide.
std::string runSignature(const ServiceRequest &Req);

/// The payload a hit replays. Everything response-visible about the
/// *result*; serving metadata (Cached, Id) is per-request.
struct CachedResult {
  ErrorCode Status = ErrorCode::Ok;
  std::string Key; ///< canonical key hex (part of the result signature)
  std::string IR;
  std::string Stats;
  std::string Remarks;
  std::string Incidents;
  bool Ran = false;
  std::string RunStatus;
  int64_t ReturnValue = 0;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
};

class ContentCache {
public:
  explicit ContentCache(size_t MaxEntries) : MaxEntries(MaxEntries) {}

  /// Store lookup by canonical key; bumps LRU and the hit counter.
  /// \returns nullptr on miss (counted).
  const CachedResult *lookup(const ContentKey &Canon);

  /// Alias-index lookup: raw-bytes key -> canonical key, then the store.
  /// A dangling alias (entry evicted) is erased and counts as a miss.
  const CachedResult *lookupRaw(const ContentKey &Raw);

  /// Inserts (or refreshes) the store entry for \p Canon, evicting the
  /// LRU tail beyond the bound.
  void insert(const ContentKey &Canon, CachedResult R);

  /// Records raw -> canonical (a re-alias counts as the newest). Bounded
  /// at 4x the entry bound; beyond that the oldest aliases are dropped
  /// (they only cost a re-parse).
  void alias(const ContentKey &Raw, const ContentKey &Canon);

  size_t size() const { return Entries.size(); }
  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

  /// Called with the canonical key of every entry evicted by the LRU
  /// bound (not for refreshes). The persistent journal (CacheStore) uses
  /// it for garbage accounting so compaction knows when to run.
  void setEvictHook(std::function<void(const ContentKey &)> H) {
    OnEvict = std::move(H);
  }

  /// Called with every alias the index lets go of: trimmed by the bound,
  /// erased as dangling, or replaced by a re-alias. The journal counts the
  /// record that named it as garbage.
  void setAliasDropHook(
      std::function<void(const ContentKey &Raw, const ContentKey &Canon)> H) {
    OnAliasDrop = std::move(H);
  }

  /// Walks live entries oldest-first (LRU tail to MRU head) — the order
  /// a compacted journal must append in so replaying it reproduces this
  /// cache's recency order.
  void forEachOldestFirst(
      const std::function<void(const ContentKey &, const CachedResult &)>
          &Fn) const {
    for (auto It = LRU.rbegin(); It != LRU.rend(); ++It)
      Fn(It->first, It->second);
  }

  /// Walks raw -> canonical aliases oldest-first, once each.
  void forEachAlias(
      const std::function<void(const ContentKey &, const ContentKey &)> &Fn)
      const {
    for (const auto &[Raw, Canon] : AliasOrder)
      Fn(Raw, Canon);
  }

private:
  size_t MaxEntries;
  /// MRU-first list of (canonical key, payload).
  std::list<std::pair<ContentKey, CachedResult>> LRU;
  std::unordered_map<ContentKey, decltype(LRU)::iterator, ContentKeyHash>
      Entries;
  /// Oldest-first list of (raw key, canonical key), one node per alias.
  std::list<std::pair<ContentKey, ContentKey>> AliasOrder;
  using AliasMap =
      std::unordered_map<ContentKey, decltype(AliasOrder)::iterator,
                         ContentKeyHash>;
  AliasMap Aliases;

  /// Erases one alias from the index, telling the drop hook.
  void dropAlias(AliasMap::iterator It);

  uint64_t Hits = 0;
  uint64_t Misses = 0;
  std::function<void(const ContentKey &)> OnEvict;
  std::function<void(const ContentKey &, const ContentKey &)> OnAliasDrop;
};

} // namespace service
} // namespace vpo

#endif // VPO_SERVICE_CONTENTCACHE_H
