//===- service/ContentCache.cpp - Content-addressed result cache *- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//

#include "service/ContentCache.h"

#include <iterator>

using namespace vpo;
using namespace vpo::service;

namespace {

constexpr uint64_t FnvPrime = 1099511628211ull;

uint64_t fnv1a(uint64_t H, const std::string &S, uint8_t Salt) {
  for (unsigned char C : S) {
    H ^= static_cast<uint64_t>(C ^ Salt);
    H *= FnvPrime;
  }
  // Field separator: a byte no input can contain unescaped ensures
  // ("ab","c") and ("a","bc") hash apart.
  H ^= 0x1full ^ Salt;
  H *= FnvPrime;
  return H;
}

} // namespace

std::string ContentKey::hex() const {
  static const char *Digits = "0123456789abcdef";
  std::string Out(32, '0');
  for (int I = 0; I < 16; ++I)
    Out[15 - I] = Digits[(Hi >> (I * 4)) & 0xf];
  for (int I = 0; I < 16; ++I)
    Out[31 - I] = Digits[(Lo >> (I * 4)) & 0xf];
  return Out;
}

ContentKey vpo::service::hashContent(const std::string &IRText,
                                     const std::string &Config,
                                     const std::string &Target,
                                     const std::string &RunSig) {
  ContentKey K;
  K.Lo = 14695981039346656037ull; // FNV offset basis
  K.Lo = fnv1a(K.Lo, IRText, 0);
  K.Lo = fnv1a(K.Lo, Config, 0);
  K.Lo = fnv1a(K.Lo, Target, 0);
  K.Lo = fnv1a(K.Lo, RunSig, 0);
  K.Hi = 0x6c62272e07bb0142ull; // independent basis, salted bytes
  K.Hi = fnv1a(K.Hi, IRText, 0xa5);
  K.Hi = fnv1a(K.Hi, Config, 0xa5);
  K.Hi = fnv1a(K.Hi, Target, 0xa5);
  K.Hi = fnv1a(K.Hi, RunSig, 0xa5);
  return K;
}

std::optional<ContentKey>
vpo::service::contentKeyFromHex(const std::string &Hex) {
  if (Hex.size() != 32)
    return std::nullopt;
  ContentKey K;
  for (int I = 0; I < 32; ++I) {
    char C = Hex[I];
    uint64_t Nib;
    if (C >= '0' && C <= '9')
      Nib = uint64_t(C - '0');
    else if (C >= 'a' && C <= 'f')
      Nib = uint64_t(C - 'a') + 10;
    else
      return std::nullopt;
    uint64_t &Word = I < 16 ? K.Hi : K.Lo;
    Word = (Word << 4) | Nib;
  }
  return K;
}

std::string vpo::service::runSignature(const ServiceRequest &Req) {
  if (Req.RunArgs.empty())
    return "";
  return Req.RunArgs + "@" + std::to_string(Req.ArenaKB);
}

const CachedResult *ContentCache::lookup(const ContentKey &Canon) {
  auto It = Entries.find(Canon);
  if (It == Entries.end()) {
    ++Misses;
    return nullptr;
  }
  LRU.splice(LRU.begin(), LRU, It->second); // bump to MRU
  ++Hits;
  return &It->second->second;
}

const CachedResult *ContentCache::lookupRaw(const ContentKey &Raw) {
  // An already-canonical request's raw key IS its store key (the common
  // case: byte-identical repeat of printed IR) — no alias hop needed.
  if (auto Direct = Entries.find(Raw); Direct != Entries.end()) {
    LRU.splice(LRU.begin(), LRU, Direct->second);
    ++Hits;
    return &Direct->second->second;
  }
  auto A = Aliases.find(Raw);
  if (A == Aliases.end()) {
    ++Misses;
    return nullptr;
  }
  auto It = Entries.find(A->second->second);
  if (It == Entries.end()) {
    dropAlias(A); // dangling: target was evicted
    ++Misses;
    return nullptr;
  }
  LRU.splice(LRU.begin(), LRU, It->second);
  ++Hits;
  return &It->second->second;
}

void ContentCache::insert(const ContentKey &Canon, CachedResult R) {
  if (MaxEntries == 0)
    return;
  auto It = Entries.find(Canon);
  if (It != Entries.end()) {
    It->second->second = std::move(R);
    LRU.splice(LRU.begin(), LRU, It->second);
    return;
  }
  LRU.emplace_front(Canon, std::move(R));
  Entries[Canon] = LRU.begin();
  while (Entries.size() > MaxEntries) {
    if (OnEvict)
      OnEvict(LRU.back().first);
    Entries.erase(LRU.back().first);
    LRU.pop_back();
  }
}

void ContentCache::alias(const ContentKey &Raw, const ContentKey &Canon) {
  if (MaxEntries == 0 || Raw == Canon)
    return;
  if (auto It = Aliases.find(Raw); It != Aliases.end())
    dropAlias(It); // replaced: the new record supersedes the old one
  AliasOrder.emplace_back(Raw, Canon);
  Aliases[Raw] = std::prev(AliasOrder.end());
  while (AliasOrder.size() > MaxEntries * 4)
    dropAlias(Aliases.find(AliasOrder.front().first));
}

void ContentCache::dropAlias(AliasMap::iterator It) {
  if (OnAliasDrop)
    OnAliasDrop(It->second->first, It->second->second);
  AliasOrder.erase(It->second);
  Aliases.erase(It);
}
