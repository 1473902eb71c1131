//===- tests/service/protocol_test.cpp -------------------------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vpod wire protocol in isolation: frame encoding, the incremental
/// decoder's handling of split/concatenated/malformed input, the flat
/// JSON writer/parser roundtrip (including escapes), and the request and
/// response message mappings with their byte-stability guarantees
/// (resultSignature is what the cache-correctness suite diffs).
///
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define VPO_HAVE_PIPES 1
#endif

using namespace vpo;
using namespace vpo::service;

namespace {

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

TEST(Framing, AppendFrameFormat) {
  std::string Out;
  appendFrame(Out, "hello");
  EXPECT_EQ(Out, "5\nhello\n");
  appendFrame(Out, "");
  EXPECT_EQ(Out, "5\nhello\n0\n\n");
}

TEST(Framing, DecoderDrainsConcatenatedFrames) {
  std::string Wire;
  appendFrame(Wire, "one");
  appendFrame(Wire, "two");
  appendFrame(Wire, "three");

  FrameDecoder Dec;
  Dec.feed(Wire.data(), Wire.size());
  std::string P;
  ASSERT_EQ(Dec.next(P), FrameStatus::Ok);
  EXPECT_EQ(P, "one");
  ASSERT_EQ(Dec.next(P), FrameStatus::Ok);
  EXPECT_EQ(P, "two");
  ASSERT_EQ(Dec.next(P), FrameStatus::Ok);
  EXPECT_EQ(P, "three");
  EXPECT_EQ(Dec.next(P), FrameStatus::NeedMore);
  EXPECT_EQ(Dec.buffered(), 0u);
}

TEST(Framing, DecoderHandlesByteAtATimeDelivery) {
  std::string Wire;
  appendFrame(Wire, "payload with spaces");

  FrameDecoder Dec;
  std::string P;
  for (size_t I = 0; I + 1 < Wire.size(); ++I) {
    Dec.feed(&Wire[I], 1);
    EXPECT_EQ(Dec.next(P), FrameStatus::NeedMore) << "at byte " << I;
  }
  Dec.feed(&Wire[Wire.size() - 1], 1);
  ASSERT_EQ(Dec.next(P), FrameStatus::Ok);
  EXPECT_EQ(P, "payload with spaces");
}

TEST(Framing, DecoderPayloadMayContainNewlines) {
  std::string Payload = "line1\nline2\n\nline4";
  std::string Wire;
  appendFrame(Wire, Payload);

  FrameDecoder Dec;
  Dec.feed(Wire.data(), Wire.size());
  std::string P;
  ASSERT_EQ(Dec.next(P), FrameStatus::Ok);
  EXPECT_EQ(P, Payload);
}

TEST(Framing, DecoderRejectsNonNumericHeader) {
  FrameDecoder Dec;
  std::string Wire = "abc\npayload\n";
  Dec.feed(Wire.data(), Wire.size());
  std::string P;
  EXPECT_EQ(Dec.next(P), FrameStatus::Malformed);
}

TEST(Framing, DecoderRejectsOversizedFrameBeforeBuffering) {
  FrameDecoder Dec(/*MaxBytes=*/16);
  // Only the header arrives; the bound must trip without the payload.
  std::string Wire = "1048576\n";
  Dec.feed(Wire.data(), Wire.size());
  std::string P;
  EXPECT_EQ(Dec.next(P), FrameStatus::Malformed);
}

TEST(Framing, DecoderRejectsMissingTerminator) {
  FrameDecoder Dec;
  std::string Wire = "3\nabcX"; // terminator should be '\n'
  Dec.feed(Wire.data(), Wire.size());
  std::string P;
  EXPECT_EQ(Dec.next(P), FrameStatus::Malformed);
}

TEST(Framing, MalformedIsSticky) {
  FrameDecoder Dec;
  std::string Bad = "nope\n";
  Dec.feed(Bad.data(), Bad.size());
  std::string P;
  ASSERT_EQ(Dec.next(P), FrameStatus::Malformed);
  // Even a well-formed frame afterwards cannot resynchronize the stream.
  std::string Good;
  appendFrame(Good, "ok");
  Dec.feed(Good.data(), Good.size());
  EXPECT_EQ(Dec.next(P), FrameStatus::Malformed);
}

#ifdef VPO_HAVE_PIPES
TEST(Framing, BlockingReadWriteRoundtripOverPipe) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  ASSERT_TRUE(writeFrame(Fds[1], "across the pipe"));
  std::string P;
  ASSERT_EQ(readFrame(Fds[0], P), FrameStatus::Ok);
  EXPECT_EQ(P, "across the pipe");
  ::close(Fds[1]);
  EXPECT_EQ(readFrame(Fds[0], P), FrameStatus::Eof);
  ::close(Fds[0]);
}

TEST(Framing, BlockingReadEnforcesMaxBytes) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  ASSERT_TRUE(writeFrame(Fds[1], std::string(64, 'x')));
  std::string P;
  EXPECT_EQ(readFrame(Fds[0], P, /*MaxBytes=*/16), FrameStatus::Malformed);
  ::close(Fds[0]);
  ::close(Fds[1]);
}
#endif

//===----------------------------------------------------------------------===//
// Flat JSON
//===----------------------------------------------------------------------===//

TEST(FlatJson, WriterParserRoundtripWithEscapes) {
  JsonWriter W;
  W.str("plain", "value");
  W.str("quotes", "say \"hi\"");
  W.str("slashes", "a\\b\\c");
  W.str("newlines", "line1\nline2\ttabbed");
  W.str("control", std::string("nul\x01soh", 7));
  W.num("count", int64_t(-42));
  W.num("big", uint64_t(1) << 63);
  W.boolean("flag", true);
  std::string Text = W.finish();

  std::map<std::string, std::string> M;
  ASSERT_TRUE(parseFlatJson(Text, M)) << Text;
  EXPECT_EQ(M["plain"], "value");
  EXPECT_EQ(M["quotes"], "say \"hi\"");
  EXPECT_EQ(M["slashes"], "a\\b\\c");
  EXPECT_EQ(M["newlines"], "line1\nline2\ttabbed");
  EXPECT_EQ(M["control"], std::string("nul\x01soh", 7));
  EXPECT_EQ(M["count"], "-42");
  EXPECT_EQ(M["big"], "9223372036854775808");
  EXPECT_EQ(M["flag"], "true");
}

TEST(FlatJson, ParserRejectsNestedStructures) {
  std::map<std::string, std::string> M;
  EXPECT_FALSE(parseFlatJson("{\"a\":{\"b\":1}}", M));
  EXPECT_FALSE(parseFlatJson("{\"a\":[1,2]}", M));
  EXPECT_FALSE(parseFlatJson("not json", M));
  EXPECT_FALSE(parseFlatJson("{\"a\":\"unterminated}", M));
}

TEST(FlatJson, EqualContentSerializesByteIdentically) {
  auto Render = [] {
    JsonWriter W;
    W.str("ir", "func @f() {\nentry:\n  ret\n}");
    W.num("n", uint64_t(7));
    return W.finish();
  };
  EXPECT_EQ(Render(), Render());
}

//===----------------------------------------------------------------------===//
// Messages
//===----------------------------------------------------------------------===//

TEST(Messages, RequestRoundtrip) {
  ServiceRequest Req;
  Req.Op = "compile";
  Req.Id = "req-17";
  Req.IR = "func @k(r1) {\nentry:\n  ret r1\n}\n";
  Req.Config = "coalesce-all-u4";
  Req.Target = "m88100";
  Req.WantRemarks = true;
  Req.WantIR = false;
  Req.DeadlineMs = 1234;
  Req.RunArgs = "4096,-8,16";
  Req.ArenaKB = 256;
  Req.Fault = "coalesce:wrong-width:9";
  Req.Rung = 2;

  std::optional<ServiceRequest> Back = ServiceRequest::fromJson(Req.toJson());
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Op, Req.Op);
  EXPECT_EQ(Back->Id, Req.Id);
  EXPECT_EQ(Back->IR, Req.IR);
  EXPECT_EQ(Back->Config, Req.Config);
  EXPECT_EQ(Back->Target, Req.Target);
  EXPECT_EQ(Back->WantRemarks, Req.WantRemarks);
  EXPECT_EQ(Back->WantIR, Req.WantIR);
  EXPECT_EQ(Back->DeadlineMs, Req.DeadlineMs);
  EXPECT_EQ(Back->RunArgs, Req.RunArgs);
  EXPECT_EQ(Back->ArenaKB, Req.ArenaKB);
  EXPECT_EQ(Back->Fault, Req.Fault);
  EXPECT_EQ(Back->Rung, Req.Rung);
}

TEST(Messages, ResponseRoundtrip) {
  ServiceResponse Resp;
  Resp.Id = "req-17";
  Resp.Status = ErrorCode::DeadlineExceeded;
  Resp.Error = "worker killed after 250 ms";
  Resp.Rung = 2;
  Resp.Degraded = "worker-deadline";
  Resp.Incidents = "pass=coalesce rolled-back disabled";
  Resp.IR = "func @k() {\nentry:\n  ret\n}\n";
  Resp.Stats = "{\"load-runs\":3}";
  Resp.Remarks = "{\"pass\":\"coalesce\"}\n";
  Resp.Cached = true;
  Resp.Key = "00000000000000010000000000000002";
  Resp.Ran = true;
  Resp.RunStatus = "out-of-bounds";
  Resp.ReturnValue = -5;
  Resp.Cycles = 99;
  Resp.Instructions = 42;

  std::optional<ServiceResponse> Back =
      ServiceResponse::fromJson(Resp.toJson());
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Id, Resp.Id);
  EXPECT_EQ(Back->Status, Resp.Status);
  EXPECT_EQ(Back->Error, Resp.Error);
  EXPECT_EQ(Back->Rung, Resp.Rung);
  EXPECT_EQ(Back->Degraded, Resp.Degraded);
  EXPECT_EQ(Back->Incidents, Resp.Incidents);
  EXPECT_EQ(Back->IR, Resp.IR);
  EXPECT_EQ(Back->Stats, Resp.Stats);
  EXPECT_EQ(Back->Remarks, Resp.Remarks);
  EXPECT_EQ(Back->Cached, Resp.Cached);
  EXPECT_EQ(Back->Key, Resp.Key);
  EXPECT_EQ(Back->Ran, Resp.Ran);
  EXPECT_EQ(Back->RunStatus, Resp.RunStatus);
  EXPECT_EQ(Back->ReturnValue, Resp.ReturnValue);
  EXPECT_EQ(Back->Cycles, Resp.Cycles);
  EXPECT_EQ(Back->Instructions, Resp.Instructions);
}

TEST(Messages, RequestDefaultsSurviveMinimalJson) {
  std::optional<ServiceRequest> Req =
      ServiceRequest::fromJson("{\"op\":\"ping\"}");
  ASSERT_TRUE(Req.has_value());
  EXPECT_EQ(Req->Op, "ping");
  EXPECT_EQ(Req->Config, "coalesce-all");
  EXPECT_EQ(Req->Target, "alpha");
  EXPECT_TRUE(Req->WantIR);
  EXPECT_FALSE(Req->WantRemarks);
  EXPECT_EQ(Req->Rung, 0u);
}

TEST(Messages, ResultSignatureIgnoresServingMetadata) {
  ServiceResponse A;
  A.Id = "a";
  A.IR = "func @f...";
  A.Key = "k";
  ServiceResponse B = A;
  B.Id = "totally-different";
  B.Cached = true;
  EXPECT_EQ(A.resultSignature(), B.resultSignature());
}

TEST(Messages, ResultSignatureCoversResultFields) {
  ServiceResponse Base;
  Base.IR = "ir";
  Base.Stats = "{}";
  Base.Key = "k";

  ServiceResponse DifferentIR = Base;
  DifferentIR.IR = "other";
  EXPECT_NE(Base.resultSignature(), DifferentIR.resultSignature());

  ServiceResponse DifferentKey = Base;
  DifferentKey.Key = "k2";
  EXPECT_NE(Base.resultSignature(), DifferentKey.resultSignature());

  ServiceResponse DifferentRun = Base;
  DifferentRun.Ran = true;
  DifferentRun.RunStatus = "ok";
  DifferentRun.ReturnValue = 3;
  EXPECT_NE(Base.resultSignature(), DifferentRun.resultSignature());

  ServiceResponse DifferentRung = Base;
  DifferentRung.Rung = 1;
  DifferentRung.Degraded = "worker-crash";
  EXPECT_NE(Base.resultSignature(), DifferentRung.resultSignature());
}

//===----------------------------------------------------------------------===//
// The worker hop's key exchange
//===----------------------------------------------------------------------===//

TEST(KeyExchange, FramesRoundtripAndRejectEverythingElse) {
  const std::string Hex = "0123456789abcdef0123456789abcdef";
  EXPECT_EQ(parseKeyFrame(keyFrame(Hex)), Hex);
  EXPECT_EQ(parseVerdictFrame(verdictFrame(true)), true);
  EXPECT_EQ(parseVerdictFrame(verdictFrame(false)), false);

  // The daemon tells a key frame from a compile response on the same
  // stream; a response (even one carrying a key) is never a key frame.
  ServiceResponse R;
  R.Key = Hex;
  EXPECT_FALSE(parseKeyFrame(R.toJson()).has_value());
  EXPECT_FALSE(parseKeyFrame("{\"op\":\"key\"}").has_value());
  EXPECT_FALSE(
      parseKeyFrame("{\"op\":\"key\",\"key\":\"k\",\"x\":\"1\"}").has_value());
  EXPECT_FALSE(parseKeyFrame("{\"op\":\"key\",\"key\":").has_value());

  // The worker dies on anything but a well-formed verdict.
  EXPECT_FALSE(parseVerdictFrame(ServiceRequest().toJson()).has_value());
  EXPECT_FALSE(parseVerdictFrame("{\"op\":\"verdict\"}").has_value());
  EXPECT_FALSE(
      parseVerdictFrame("{\"op\":\"verdict\",\"hit\":\"yes\"}").has_value());
  EXPECT_FALSE(parseVerdictFrame("not json").has_value());
}

} // namespace
