//===- service/Protocol.h - vpod wire protocol ------------------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile service's wire protocol: length-prefixed NDJSON over a
/// Unix-domain socket. Every message is one frame:
///
///   <decimal payload length> '\n' <payload> '\n'
///
/// where the payload is a single flat JSON object on one line (the same
/// dialect the remark writer emits: string keys, string/number/boolean
/// values, no nesting). Length-prefixing lets the daemon reject an
/// oversized request before buffering it; the NDJSON payload keeps every
/// message greppable and `tools/remark_query`-compatible where remark
/// streams are embedded.
///
/// The same framing runs on both hops — client <-> daemon and daemon <->
/// forked worker — so one decoder serves both, and a worker can stream a
/// response through the daemon without re-encoding.
///
/// The worker hop adds one exchange inside a rung-0 attempt that carries
/// no fault plant: the worker parses the request, sends a key frame with
/// the canonical content key, and blocks for the daemon's verdict. On a
/// hit the daemon answers the client from its store and the attempt ends
/// with no response frame; on a miss the worker compiles and responds as
/// usual, under the same key:
///
///   worker -> daemon  {"op":"key","key":"<32 hex digits>"}
///   daemon -> worker  {"op":"verdict","hit":true}
///
/// Requests (op = "compile" | "ping" | "status" | "shutdown"):
///   {"op":"compile","id":"7","config":"coalesce-all","target":"alpha",
///    "ir":"function f(...) ...","remarks":true,"deadline_ms":2000}
///
/// Responses always carry "status" (support/Diagnostics.h error-code
/// name: "ok", "parse-error", "overloaded", "deadline-exceeded", ...),
/// plus the compile payload on success. See ServiceResponse.
///
//===----------------------------------------------------------------------===//

#ifndef VPO_SERVICE_PROTOCOL_H
#define VPO_SERVICE_PROTOCOL_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace vpo {
namespace service {

/// Upper bound a frame reader enforces before allocating. Both sides
/// reject bigger frames as malformed rather than buffering them.
constexpr size_t defaultMaxFrameBytes = size_t(8) << 20;

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

/// Appends one encoded frame to \p Out (for buffered nonblocking writers).
void appendFrame(std::string &Out, const std::string &Payload);

/// Writes one frame (blocking, EINTR-safe). \returns false on I/O error.
bool writeFrame(int Fd, const std::string &Payload);

enum class FrameStatus : uint8_t {
  Ok,        ///< one complete frame delivered
  NeedMore,  ///< (decoder) no complete frame buffered yet
  Eof,       ///< peer closed cleanly between frames
  Malformed, ///< bad length header, missing terminator, or oversized
  IoError,   ///< read failed
};

/// Blocking read of exactly one frame. Partial trailing garbage and
/// frames over \p MaxBytes yield Malformed.
FrameStatus readFrame(int Fd, std::string &Payload,
                      size_t MaxBytes = defaultMaxFrameBytes);

/// Incremental decoder for nonblocking loops: feed() whatever arrived,
/// then drain next() until it returns NeedMore. Malformed is sticky —
/// the stream cannot be resynchronized and the peer should be dropped.
class FrameDecoder {
public:
  explicit FrameDecoder(size_t MaxBytes = defaultMaxFrameBytes)
      : MaxBytes(MaxBytes) {}

  void feed(const char *Data, size_t N) { Buf.append(Data, N); }

  /// \returns Ok with \p Payload filled, NeedMore, or Malformed.
  FrameStatus next(std::string &Payload);

  size_t buffered() const { return Buf.size(); }

private:
  std::string Buf;
  size_t MaxBytes;
  bool Bad = false;
};

//===----------------------------------------------------------------------===//
// Flat JSON payloads
//===----------------------------------------------------------------------===//

/// Serializer for the protocol's one-line flat JSON objects. Keys are
/// emitted in call order, so equal message contents render byte-
/// identically (the cache-correctness tests diff whole payloads).
class JsonWriter {
public:
  JsonWriter() : Out("{") {}
  void str(const char *Key, const std::string &V);
  void num(const char *Key, int64_t V);
  void num(const char *Key, uint64_t V);
  void boolean(const char *Key, bool V);
  std::string finish();

private:
  std::string Out;
  bool First = true;
};

/// Parses a one-line flat JSON object into key -> raw value. String
/// values are unescaped; numbers and booleans arrive as their literal
/// text ("42", "true"). Nested objects/arrays are rejected. \returns
/// false on malformed input.
bool parseFlatJson(const std::string &Text,
                   std::map<std::string, std::string> &Out);

//===----------------------------------------------------------------------===//
// Messages
//===----------------------------------------------------------------------===//

/// One request to the daemon (or, with Rung set, to a worker).
struct ServiceRequest {
  std::string Op = "compile"; ///< "compile" | "ping" | "status" | "shutdown"
  std::string Id;             ///< opaque, echoed in the response
  std::string IR;             ///< RTL text (ir/IRParser.h dialect)
  std::string Config = "coalesce-all"; ///< named pipeline config
  std::string Target = "alpha";
  bool WantRemarks = false; ///< include the remark NDJSON in the response
  bool WantIR = true;       ///< include the optimized IR in the response
  uint64_t DeadlineMs = 0;  ///< per-request override (daemon caps it); 0 = default
  /// Optional simulation after the compile: comma-separated int64
  /// arguments. The kernel runs over a zero-filled arena under the
  /// daemon's instruction budget; out-of-bounds addresses trap safely.
  std::string RunArgs;
  uint64_t ArenaKB = 0; ///< run-mode arena size (0 = 64 KB)
  /// Test-only fault plant, refused unless the daemon runs with
  /// --allow-fault-injection: "crash[:maxrung]", "hang[:maxrung]", or
  /// "<pass>:<fault-kind>:<seed>" (pipeline/FaultInjection.h).
  std::string Fault;
  /// Degradation-ladder attempt (0 = full pipeline). Set by the daemon
  /// on the worker hop; clients leave it 0.
  unsigned Rung = 0;

  std::string toJson() const;
  static std::optional<ServiceRequest> fromJson(const std::string &Text);
};

/// One response. Fields beyond Status are meaningful only where noted.
struct ServiceResponse {
  std::string Id; ///< echoed from the request
  /// Overall outcome; errorCodeName(Status) is the wire form. Ok covers
  /// degraded-but-correct results — check Rung/Degraded/Incidents.
  ErrorCode Status = ErrorCode::Ok;
  std::string Error; ///< human-readable detail when Status != Ok
  /// Degradation rung that produced the result: 0 full requested
  /// pipeline, 1 conservative (no coalescing), 2 reference O0.
  unsigned Rung = 0;
  /// Why the ladder moved ("worker-crash", "worker-deadline"); empty at
  /// rung 0.
  std::string Degraded;
  /// Guard-rail incident summary from the compile, ";"-separated
  /// "pass=coalesce rolled-back disabled" entries; empty when clean.
  std::string Incidents;
  std::string IR;      ///< optimized IR text (WantIR)
  std::string Stats;   ///< CoalesceStats JSON
  std::string Remarks; ///< remark NDJSON stream (WantRemarks)
  bool Cached = false; ///< served from the content cache
  std::string Key;     ///< canonical content key (hex)
  /// Run-mode results (request had RunArgs).
  bool Ran = false;
  std::string RunStatus; ///< sim/Interpreter.h runStatusName
  int64_t ReturnValue = 0;
  /// Always 0 from current workers: run mode executes on the functional
  /// tiered engine, which carries no cycle model. The field stays on the
  /// wire for compatibility.
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  /// Extra counters for op=status responses (key order preserved).
  std::vector<std::pair<std::string, std::string>> Extra;

  std::string toJson() const;
  static std::optional<ServiceResponse> fromJson(const std::string &Text);

  /// The fields a cache hit must reproduce byte-for-byte: everything a
  /// client can observe about the *result*, excluding serving metadata
  /// (Cached, Id). The cache-correctness suite diffs this.
  std::string resultSignature() const;
};

/// The worker hop's key exchange (see the file comment).
std::string keyFrame(const std::string &KeyHex);
/// \returns the key a key frame names, or nullopt for any other payload.
std::optional<std::string> parseKeyFrame(const std::string &Payload);
std::string verdictFrame(bool Hit);
/// \returns the verdict's hit flag, or nullopt for any other payload.
std::optional<bool> parseVerdictFrame(const std::string &Payload);

} // namespace service
} // namespace vpo

#endif // VPO_SERVICE_PROTOCOL_H
