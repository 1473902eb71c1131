//===- service/Protocol.cpp - vpod wire protocol ----------------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "support/Posix.h"
#include "support/Remark.h" // appendJsonString

#include <cctype>
#include <cstdlib>

using namespace vpo;
using namespace vpo::service;

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

void vpo::service::appendFrame(std::string &Out, const std::string &Payload) {
  Out += std::to_string(Payload.size());
  Out += '\n';
  Out += Payload;
  Out += '\n';
}

bool vpo::service::writeFrame(int Fd, const std::string &Payload) {
  std::string Frame;
  appendFrame(Frame, Payload);
  return posix::writeFull(Fd, Frame);
}

FrameStatus vpo::service::readFrame(int Fd, std::string &Payload,
                                    size_t MaxBytes) {
  // Header: decimal digits up to '\n'. Read byte-wise — headers are tiny
  // and this keeps the blocking reader free of lookahead state.
  std::string Header;
  while (true) {
    char C;
    long Got = posix::readRetry(Fd, &C, 1);
    if (Got < 0)
      return FrameStatus::IoError;
    if (Got == 0)
      return Header.empty() ? FrameStatus::Eof : FrameStatus::Malformed;
    if (C == '\n')
      break;
    if (!std::isdigit(static_cast<unsigned char>(C)) ||
        Header.size() > 12)
      return FrameStatus::Malformed;
    Header += C;
  }
  if (Header.empty())
    return FrameStatus::Malformed;
  size_t Len = std::strtoull(Header.c_str(), nullptr, 10);
  if (Len > MaxBytes)
    return FrameStatus::Malformed;
  Payload.clear();
  Payload.reserve(Len);
  char Buf[4096];
  while (Payload.size() < Len) {
    size_t Want = std::min(sizeof(Buf), Len - Payload.size());
    long Got = posix::readRetry(Fd, Buf, Want);
    if (Got < 0)
      return FrameStatus::IoError;
    if (Got == 0)
      return FrameStatus::Malformed; // EOF mid-payload
    Payload.append(Buf, static_cast<size_t>(Got));
  }
  char Term;
  long Got = posix::readRetry(Fd, &Term, 1);
  if (Got < 0)
    return FrameStatus::IoError;
  if (Got == 0 || Term != '\n')
    return FrameStatus::Malformed;
  return FrameStatus::Ok;
}

FrameStatus FrameDecoder::next(std::string &Payload) {
  if (Bad)
    return FrameStatus::Malformed;
  size_t NL = Buf.find('\n');
  if (NL == std::string::npos) {
    if (Buf.size() > 13) { // longest sane header: 12 digits + '\n'
      Bad = true;
      return FrameStatus::Malformed;
    }
    return FrameStatus::NeedMore;
  }
  if (NL == 0 || NL > 12) {
    Bad = true;
    return FrameStatus::Malformed;
  }
  for (size_t I = 0; I < NL; ++I)
    if (!std::isdigit(static_cast<unsigned char>(Buf[I]))) {
      Bad = true;
      return FrameStatus::Malformed;
    }
  size_t Len = std::strtoull(Buf.substr(0, NL).c_str(), nullptr, 10);
  if (Len > MaxBytes) {
    Bad = true;
    return FrameStatus::Malformed;
  }
  if (Buf.size() < NL + 1 + Len + 1)
    return FrameStatus::NeedMore;
  if (Buf[NL + 1 + Len] != '\n') {
    Bad = true;
    return FrameStatus::Malformed;
  }
  Payload.assign(Buf, NL + 1, Len);
  Buf.erase(0, NL + 1 + Len + 1);
  return FrameStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Flat JSON
//===----------------------------------------------------------------------===//

void JsonWriter::str(const char *Key, const std::string &V) {
  if (!First)
    Out += ',';
  First = false;
  appendJsonString(Out, Key);
  Out += ':';
  appendJsonString(Out, V);
}

void JsonWriter::num(const char *Key, int64_t V) {
  if (!First)
    Out += ',';
  First = false;
  appendJsonString(Out, Key);
  Out += ':';
  Out += std::to_string(V);
}

void JsonWriter::num(const char *Key, uint64_t V) {
  if (!First)
    Out += ',';
  First = false;
  appendJsonString(Out, Key);
  Out += ':';
  Out += std::to_string(V);
}

void JsonWriter::boolean(const char *Key, bool V) {
  if (!First)
    Out += ',';
  First = false;
  appendJsonString(Out, Key);
  Out += ':';
  Out += V ? "true" : "false";
}

std::string JsonWriter::finish() {
  Out += '}';
  return std::move(Out);
}

namespace {

void skipWs(const std::string &S, size_t &I) {
  while (I < S.size() &&
         std::isspace(static_cast<unsigned char>(S[I])))
    ++I;
}

/// Parses a JSON string literal at S[I] (expects the opening quote).
bool parseJsonStringAt(const std::string &S, size_t &I, std::string &Out) {
  if (I >= S.size() || S[I] != '"')
    return false;
  ++I;
  Out.clear();
  while (I < S.size()) {
    char C = S[I++];
    if (C == '"')
      return true;
    if (C == '\\') {
      if (I >= S.size())
        return false;
      char N = S[I++];
      switch (N) {
      case '"': Out += '"'; break;
      case '\\': Out += '\\'; break;
      case '/': Out += '/'; break;
      case 'n': Out += '\n'; break;
      case 't': Out += '\t'; break;
      case 'r': Out += '\r'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'u': {
        if (I + 4 > S.size())
          return false;
        // The writer only emits \u00XX (control bytes); decode that
        // range and pass anything else through as '?' rather than
        // implementing full UTF-16 surrogates.
        unsigned V = static_cast<unsigned>(
            std::strtoul(S.substr(I, 4).c_str(), nullptr, 16));
        Out += V < 256 ? static_cast<char>(V) : '?';
        I += 4;
        break;
      }
      default:
        return false;
      }
      continue;
    }
    Out += C;
  }
  return false; // unterminated
}

} // namespace

bool vpo::service::parseFlatJson(
    const std::string &Text, std::map<std::string, std::string> &Out) {
  size_t I = 0;
  skipWs(Text, I);
  if (I >= Text.size() || Text[I] != '{')
    return false;
  ++I;
  skipWs(Text, I);
  if (I < Text.size() && Text[I] == '}')
    return true; // empty object
  while (true) {
    skipWs(Text, I);
    std::string Key;
    if (!parseJsonStringAt(Text, I, Key))
      return false;
    skipWs(Text, I);
    if (I >= Text.size() || Text[I] != ':')
      return false;
    ++I;
    skipWs(Text, I);
    if (I >= Text.size())
      return false;
    std::string Val;
    if (Text[I] == '"') {
      if (!parseJsonStringAt(Text, I, Val))
        return false;
    } else if (Text[I] == '{' || Text[I] == '[') {
      return false; // flat objects only
    } else {
      // Number / true / false / null: raw token up to , } or ws.
      size_t Start = I;
      while (I < Text.size() && Text[I] != ',' && Text[I] != '}' &&
             !std::isspace(static_cast<unsigned char>(Text[I])))
        ++I;
      if (I == Start)
        return false;
      Val = Text.substr(Start, I - Start);
    }
    Out[Key] = std::move(Val);
    skipWs(Text, I);
    if (I >= Text.size())
      return false;
    if (Text[I] == ',') {
      ++I;
      continue;
    }
    if (Text[I] == '}')
      return true;
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Messages
//===----------------------------------------------------------------------===//

namespace {

uint64_t fieldU64(const std::map<std::string, std::string> &M,
                  const char *Key) {
  auto It = M.find(Key);
  if (It == M.end())
    return 0;
  return std::strtoull(It->second.c_str(), nullptr, 10);
}

int64_t fieldI64(const std::map<std::string, std::string> &M,
                 const char *Key) {
  auto It = M.find(Key);
  if (It == M.end())
    return 0;
  return std::strtoll(It->second.c_str(), nullptr, 10);
}

std::string fieldStr(const std::map<std::string, std::string> &M,
                     const char *Key) {
  auto It = M.find(Key);
  return It == M.end() ? std::string() : It->second;
}

bool fieldBool(const std::map<std::string, std::string> &M,
               const char *Key) {
  return fieldStr(M, Key) == "true";
}

} // namespace

std::string ServiceRequest::toJson() const {
  JsonWriter W;
  W.str("op", Op);
  if (!Id.empty())
    W.str("id", Id);
  if (!Config.empty())
    W.str("config", Config);
  if (!Target.empty())
    W.str("target", Target);
  if (WantRemarks)
    W.boolean("remarks", true);
  if (!WantIR)
    W.boolean("want_ir", false);
  if (DeadlineMs)
    W.num("deadline_ms", DeadlineMs);
  if (!RunArgs.empty())
    W.str("run_args", RunArgs);
  if (ArenaKB)
    W.num("arena_kb", ArenaKB);
  if (!Fault.empty())
    W.str("fault", Fault);
  if (Rung)
    W.num("rung", uint64_t(Rung));
  if (!IR.empty())
    W.str("ir", IR); // last: the big field, keeps headers greppable
  return W.finish();
}

std::optional<ServiceRequest>
ServiceRequest::fromJson(const std::string &Text) {
  std::map<std::string, std::string> M;
  if (!parseFlatJson(Text, M))
    return std::nullopt;
  ServiceRequest R;
  if (M.count("op"))
    R.Op = M["op"];
  R.Id = fieldStr(M, "id");
  R.IR = fieldStr(M, "ir");
  if (M.count("config"))
    R.Config = M["config"];
  if (M.count("target"))
    R.Target = M["target"];
  R.WantRemarks = fieldBool(M, "remarks");
  R.WantIR = !M.count("want_ir") || fieldBool(M, "want_ir");
  R.DeadlineMs = fieldU64(M, "deadline_ms");
  R.RunArgs = fieldStr(M, "run_args");
  R.ArenaKB = fieldU64(M, "arena_kb");
  R.Fault = fieldStr(M, "fault");
  R.Rung = static_cast<unsigned>(fieldU64(M, "rung"));
  return R;
}

std::string ServiceResponse::toJson() const {
  JsonWriter W;
  W.str("status", errorCodeName(Status));
  if (!Id.empty())
    W.str("id", Id);
  if (!Error.empty())
    W.str("error", Error);
  if (Rung)
    W.num("rung", uint64_t(Rung));
  if (!Degraded.empty())
    W.str("degraded", Degraded);
  if (!Incidents.empty())
    W.str("incidents", Incidents);
  if (Cached)
    W.boolean("cached", true);
  if (!Key.empty())
    W.str("key", Key);
  if (!Stats.empty())
    W.str("stats", Stats);
  if (Ran) {
    W.boolean("ran", true);
    W.str("run_status", RunStatus);
    W.num("return_value", ReturnValue);
    W.num("cycles", Cycles);
    W.num("instructions", Instructions);
  }
  for (const auto &KV : Extra)
    W.str(KV.first.c_str(), KV.second);
  if (!Remarks.empty())
    W.str("remarks", Remarks);
  if (!IR.empty())
    W.str("ir", IR);
  return W.finish();
}

std::optional<ServiceResponse>
ServiceResponse::fromJson(const std::string &Text) {
  std::map<std::string, std::string> M;
  if (!parseFlatJson(Text, M))
    return std::nullopt;
  ServiceResponse R;
  std::optional<ErrorCode> Code = errorCodeFromName(fieldStr(M, "status"));
  if (!Code)
    return std::nullopt;
  R.Status = *Code;
  R.Id = fieldStr(M, "id");
  R.Error = fieldStr(M, "error");
  R.Rung = static_cast<unsigned>(fieldU64(M, "rung"));
  R.Degraded = fieldStr(M, "degraded");
  R.Incidents = fieldStr(M, "incidents");
  R.Cached = fieldBool(M, "cached");
  R.Key = fieldStr(M, "key");
  R.Stats = fieldStr(M, "stats");
  R.Ran = fieldBool(M, "ran");
  R.RunStatus = fieldStr(M, "run_status");
  R.ReturnValue = fieldI64(M, "return_value");
  R.Cycles = fieldU64(M, "cycles");
  R.Instructions = fieldU64(M, "instructions");
  R.Remarks = fieldStr(M, "remarks");
  R.IR = fieldStr(M, "ir");
  // Anything else lands in Extra, preserving the status-op counters.
  static const char *Known[] = {
      "status", "id",         "error",        "rung",   "degraded",
      "incidents", "cached",  "key",          "stats",  "ran",
      "run_status", "return_value", "cycles", "instructions",
      "remarks", "ir"};
  for (const auto &KV : M) {
    bool IsKnown = false;
    for (const char *K : Known)
      if (KV.first == K) {
        IsKnown = true;
        break;
      }
    if (!IsKnown)
      R.Extra.emplace_back(KV.first, KV.second);
  }
  return R;
}

std::string vpo::service::keyFrame(const std::string &KeyHex) {
  JsonWriter W;
  W.str("op", "key");
  W.str("key", KeyHex);
  return W.finish();
}

std::optional<std::string>
vpo::service::parseKeyFrame(const std::string &Payload) {
  // Responses open with "status", so a compile response is told apart by
  // its first bytes instead of by a second full parse.
  static const std::string Head = "{\"op\":\"key\",";
  std::map<std::string, std::string> M;
  if (Payload.compare(0, Head.size(), Head) != 0 ||
      !parseFlatJson(Payload, M) || M.size() != 2 || !M.count("key"))
    return std::nullopt;
  return M["key"];
}

std::string vpo::service::verdictFrame(bool Hit) {
  JsonWriter W;
  W.str("op", "verdict");
  W.boolean("hit", Hit);
  return W.finish();
}

std::optional<bool>
vpo::service::parseVerdictFrame(const std::string &Payload) {
  std::map<std::string, std::string> M;
  if (!parseFlatJson(Payload, M) || M.size() != 2 || M["op"] != "verdict")
    return std::nullopt;
  const std::string &Hit = M["hit"];
  if (Hit != "true" && Hit != "false")
    return std::nullopt;
  return Hit == "true";
}

std::string ServiceResponse::resultSignature() const {
  JsonWriter W;
  W.str("status", errorCodeName(Status));
  W.num("rung", uint64_t(Rung));
  W.str("incidents", Incidents);
  W.str("ir", IR);
  W.str("stats", Stats);
  W.str("remarks", Remarks);
  W.str("key", Key);
  if (Ran) {
    W.str("run_status", RunStatus);
    W.num("return_value", ReturnValue);
    W.num("cycles", Cycles);
    W.num("instructions", Instructions);
  }
  return W.finish();
}
