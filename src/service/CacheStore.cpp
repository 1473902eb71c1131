//===- service/CacheStore.cpp - Crash-safe cache journal ------------------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//

#include "service/CacheStore.h"

#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define VPO_CACHESTORE_POSIX 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace vpo;
using namespace vpo::service;

namespace {

constexpr char Magic[4] = {'V', 'P', 'J', '1'};
/// magic + u32 len + u64 checksum.
constexpr size_t HeaderBytes = 16;
/// Mirrors the wire-frame bound: nothing bigger was ever a response.
constexpr uint64_t MaxPayloadBytes = uint64_t(8) << 20;

uint64_t fnv1aBytes(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

void putU32le(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(char((V >> (I * 8)) & 0xff));
}

void putU64le(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(char((V >> (I * 8)) & 0xff));
}

uint32_t getU32le(const char *P) {
  uint32_t V = 0;
  for (int I = 3; I >= 0; --I)
    V = (V << 8) | uint8_t(P[I]);
  return V;
}

uint64_t getU64le(const char *P) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | uint8_t(P[I]);
  return V;
}

#ifdef VPO_CACHESTORE_POSIX

bool writeFull(int Fd, const char *Data, size_t N) {
  while (N > 0) {
    ssize_t W = ::write(Fd, Data, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += W;
    N -= size_t(W);
  }
  return true;
}

/// fsync the directory holding \p Path so a rename into it is durable.
void syncDirOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? std::string(".")
                    : Slash == 0               ? std::string("/")
                                               : Path.substr(0, Slash);
  int D = ::open(Dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (D >= 0) {
    ::fsync(D);
    ::close(D);
  }
}

#endif // VPO_CACHESTORE_POSIX

std::string getOr(const std::map<std::string, std::string> &M,
                  const char *Key) {
  auto It = M.find(Key);
  return It == M.end() ? std::string() : It->second;
}

} // namespace

std::string CacheStore::encodeInsertPayload(const ContentKey &Canon,
                                            const CachedResult &R) {
  JsonWriter W;
  W.str("t", "i");
  W.str("canon", Canon.hex());
  W.str("status", errorCodeName(R.Status));
  W.str("key", R.Key);
  W.str("ir", R.IR);
  W.str("stats", R.Stats);
  W.str("remarks", R.Remarks);
  W.str("incidents", R.Incidents);
  W.boolean("ran", R.Ran);
  W.str("run_status", R.RunStatus);
  W.num("ret", R.ReturnValue);
  W.num("cycles", R.Cycles);
  W.num("insns", R.Instructions);
  return W.finish();
}

std::string CacheStore::encodeAliasPayload(const ContentKey &Raw,
                                           const ContentKey &Canon) {
  JsonWriter W;
  W.str("t", "a");
  W.str("raw", Raw.hex());
  W.str("canon", Canon.hex());
  return W.finish();
}

std::string CacheStore::encodeRecord(const std::string &Payload) {
  std::string Out;
  Out.reserve(HeaderBytes + Payload.size());
  Out.append(Magic, 4);
  putU32le(Out, uint32_t(Payload.size()));
  putU64le(Out, fnv1aBytes(Payload));
  Out += Payload;
  return Out;
}

#ifdef VPO_CACHESTORE_POSIX

CacheStore::~CacheStore() { close(); }

bool CacheStore::open(const std::string &P, ContentCache &Cache,
                      CacheRecoveryStats &Stats, std::string &Err) {
  close();
  Path = P;
  JournalBytes = 0;
  GarbageBytes = 0;
  LiveBytes.clear();
  Fd = ::open(P.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (Fd < 0) {
    Err = "cannot open cache journal " + P + ": " + std::strerror(errno);
    return false;
  }

  // Evictions and alias drops (including any triggered by the replay
  // below, if the journal holds more live records than the cache bounds)
  // feed garbage accounting from here on.
  Cache.setEvictHook([this](const ContentKey &K) { noteEvicted(K); });
  Cache.setAliasDropHook([this](const ContentKey &Raw, const ContentKey &C) {
    noteAliasDropped(Raw, C);
  });

  // Slurp the whole journal; it is bounded by the cache size times the
  // garbage ratio, both of which compaction keeps small.
  std::string Buf;
  {
    char Chunk[1 << 16];
    for (;;) {
      ssize_t R = ::read(Fd, Chunk, sizeof(Chunk));
      if (R < 0) {
        if (errno == EINTR)
          continue;
        Err = "cannot read cache journal " + P + ": " + std::strerror(errno);
        ::close(Fd);
        Fd = -1;
        return false;
      }
      if (R == 0)
        break;
      Buf.append(Chunk, size_t(R));
    }
  }

  size_t Off = 0;
  size_t CommittedEnd = 0; // byte offset just past the last good record
  bool Damaged = false;
  while (Off < Buf.size()) {
    // Resync: a record that fails magic or checksum forfeits the bytes
    // up to the next magic. (A payload could contain the magic string —
    // a false resync just fails the next checksum and scans again, so
    // the worst case is extra discards, never a corrupt accept.)
    auto resync = [&](size_t From) {
      ++Stats.DiscardedRecords;
      Damaged = true;
      size_t Next = Buf.find("VPJ1", From);
      Off = Next == std::string::npos ? Buf.size() : Next;
    };

    if (Buf.size() - Off < HeaderBytes) {
      Stats.TornTail = true;
      break; // truncated below
    }
    if (std::memcmp(Buf.data() + Off, Magic, 4) != 0) {
      resync(Off + 1);
      continue;
    }
    uint64_t Len = getU32le(Buf.data() + Off + 4);
    if (Len > MaxPayloadBytes) {
      resync(Off + 4);
      continue;
    }
    if (Buf.size() - Off - HeaderBytes < Len) {
      Stats.TornTail = true;
      break;
    }
    std::string Payload = Buf.substr(Off + HeaderBytes, Len);
    if (fnv1aBytes(Payload) != getU64le(Buf.data() + Off + 8)) {
      resync(Off + 4);
      continue;
    }

    size_t RecordBytes = HeaderBytes + Len;
    std::map<std::string, std::string> M;
    std::string Type;
    if (parseFlatJson(Payload, M))
      Type = getOr(M, "t");
    if (Type == "i") {
      auto Canon = contentKeyFromHex(getOr(M, "canon"));
      auto Status = errorCodeFromName(getOr(M, "status"));
      if (Canon && Status) {
        CachedResult R;
        R.Status = *Status;
        R.Key = getOr(M, "key");
        R.IR = getOr(M, "ir");
        R.Stats = getOr(M, "stats");
        R.Remarks = getOr(M, "remarks");
        R.Incidents = getOr(M, "incidents");
        R.Ran = getOr(M, "ran") == "true";
        R.RunStatus = getOr(M, "run_status");
        R.ReturnValue = std::strtoll(getOr(M, "ret").c_str(), nullptr, 10);
        R.Cycles = std::strtoull(getOr(M, "cycles").c_str(), nullptr, 10);
        R.Instructions =
            std::strtoull(getOr(M, "insns").c_str(), nullptr, 10);
        std::string Hex = Canon->hex();
        if (auto It = LiveBytes.find(Hex); It != LiveBytes.end())
          GarbageBytes += It->second; // superseded by this refresh
        LiveBytes[Hex] = RecordBytes;
        Cache.insert(*Canon, std::move(R));
        ++Stats.RecoveredEntries;
      } else {
        ++Stats.DiscardedRecords;
      }
    } else if (Type == "a") {
      auto Raw = contentKeyFromHex(getOr(M, "raw"));
      auto Canon = contentKeyFromHex(getOr(M, "canon"));
      if (Raw && Canon) {
        Cache.alias(*Raw, *Canon);
        ++Stats.RecoveredAliases;
      } else {
        ++Stats.DiscardedRecords;
      }
    } else {
      ++Stats.DiscardedRecords;
    }
    Off += RecordBytes;
    CommittedEnd = Off;
  }

  (void)Damaged; // mid-file damage stays on disk; resync skips it again
  if (Stats.TornTail && CommittedEnd < Buf.size()) {
    // Truncate the torn tail so the next append starts a clean record.
    // (If truncation fails, recovery still skipped the bad bytes and the
    // next boot's resync scan will find the appended records after them.)
    if (::ftruncate(Fd, off_t(CommittedEnd)) == 0)
      Buf.resize(CommittedEnd);
  }
  // Appends go to the end of what survived.
  off_t End = ::lseek(Fd, 0, SEEK_END);
  JournalBytes = End < 0 ? Buf.size() : uint64_t(End);
  Stats.JournalBytes = JournalBytes;
  return true;
}

void CacheStore::appendRecord(const std::string &Payload) {
  if (Fd < 0)
    return;
  std::string Rec = encodeRecord(Payload);
  if (!writeFull(Fd, Rec.data(), Rec.size()))
    return;
  if (Opts.SyncEveryWrite)
    ::fsync(Fd);
  JournalBytes += Rec.size();
}

void CacheStore::noteInsert(const ContentKey &Canon, const CachedResult &R) {
  if (Fd < 0)
    return;
  std::string Payload = encodeInsertPayload(Canon, R);
  std::string Hex = Canon.hex();
  if (auto It = LiveBytes.find(Hex); It != LiveBytes.end())
    GarbageBytes += It->second; // old record superseded
  LiveBytes[Hex] = HeaderBytes + Payload.size();
  appendRecord(Payload);
}

void CacheStore::noteAlias(const ContentKey &Raw, const ContentKey &Canon) {
  if (Fd < 0 || Raw == Canon)
    return;
  appendRecord(encodeAliasPayload(Raw, Canon));
}

void CacheStore::noteAliasDropped(const ContentKey &Raw,
                                  const ContentKey &Canon) {
  if (Fd >= 0)
    GarbageBytes += HeaderBytes + encodeAliasPayload(Raw, Canon).size();
}

void CacheStore::noteEvicted(const ContentKey &Canon) {
  auto It = LiveBytes.find(Canon.hex());
  if (It == LiveBytes.end())
    return;
  GarbageBytes += It->second;
  LiveBytes.erase(It);
}

bool CacheStore::maybeCompact(const ContentCache &Cache) {
  if (Fd < 0 || JournalBytes < Opts.CompactMinBytes)
    return false;
  if (GarbageBytes * 2 <= JournalBytes)
    return false;
  return compact(Cache);
}

bool CacheStore::compact(const ContentCache &Cache) {
  if (Fd < 0)
    return false;
  std::string Tmp = Path + ".tmp";
  int TFd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0644);
  if (TFd < 0)
    return false;

  // Oldest-first so replay rebuilds the same LRU order; aliases after,
  // when every target they name is already present.
  std::string Out;
  std::unordered_map<std::string, uint64_t> NewLive;
  Cache.forEachOldestFirst(
      [&](const ContentKey &Canon, const CachedResult &R) {
        std::string Payload = encodeInsertPayload(Canon, R);
        NewLive[Canon.hex()] = HeaderBytes + Payload.size();
        Out += encodeRecord(Payload);
      });
  Cache.forEachAlias([&](const ContentKey &Raw, const ContentKey &Canon) {
    Out += encodeRecord(encodeAliasPayload(Raw, Canon));
  });

  bool Ok = writeFull(TFd, Out.data(), Out.size()) && ::fsync(TFd) == 0;
  ::close(TFd);
  if (!Ok || ::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return false;
  }
  syncDirOf(Path);

  // The old fd now points at the unlinked pre-compaction inode; switch
  // appends over to the new journal.
  int NFd = ::open(Path.c_str(), O_RDWR | O_CLOEXEC);
  if (NFd < 0)
    return false; // journal on disk is valid; appends are lost until reopen
  ::lseek(NFd, 0, SEEK_END);
  ::close(Fd);
  Fd = NFd;
  JournalBytes = Out.size();
  GarbageBytes = 0;
  LiveBytes = std::move(NewLive);
  ++Compactions;
  return true;
}

void CacheStore::sync() {
  if (Fd >= 0)
    ::fsync(Fd);
}

void CacheStore::close() {
  if (Fd < 0)
    return;
  ::fsync(Fd);
  ::close(Fd);
  Fd = -1;
}

void CacheStore::abandon() {
  if (Fd < 0)
    return;
  ::close(Fd);
  Fd = -1;
}

#else // !VPO_CACHESTORE_POSIX

CacheStore::~CacheStore() = default;

bool CacheStore::open(const std::string &, ContentCache &,
                      CacheRecoveryStats &, std::string &Err) {
  Err = "persistent cache journal requires POSIX";
  return false;
}
void CacheStore::appendRecord(const std::string &) {}
void CacheStore::noteInsert(const ContentKey &, const CachedResult &) {}
void CacheStore::noteAlias(const ContentKey &, const ContentKey &) {}
void CacheStore::noteEvicted(const ContentKey &) {}
void CacheStore::noteAliasDropped(const ContentKey &, const ContentKey &) {}
bool CacheStore::maybeCompact(const ContentCache &) { return false; }
bool CacheStore::compact(const ContentCache &) { return false; }
void CacheStore::sync() {}
void CacheStore::close() {}
void CacheStore::abandon() {}

#endif // VPO_CACHESTORE_POSIX
