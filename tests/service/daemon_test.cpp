//===- tests/service/daemon_test.cpp ---------------------------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end daemon tests: fork a real vpod (worker pool and all),
/// drive it over its Unix socket with ServiceClient, and prove the
/// robustness ladder — crash containment, deadline kills, rung-by-rung
/// degradation, structured exhaustion, load shedding, byte-identical
/// cache hits — without ever losing the daemon itself. Every planted
/// worker death in here is a real SIGKILL/SIGTRAP of a real process.
///
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Daemon.h"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <csignal>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace vpo;
using namespace vpo::service;

namespace {

const char *SumKernel = R"(func @sum(r1, r2) {
entry:
  r3 = mov 0
  r4 = mov 0
  jmp head
head:
  br.lts r4, r2, body, exit
body:
  r5 = load.i16.s [r1]
  r3 = add r3, r5
  r1 = add r1, 2
  r4 = add r4, 1
  jmp head
exit:
  ret r3
}
)";

/// Forks a private daemon with fault injection enabled; tears it down
/// (shutdown op if still reachable, SIGKILL otherwise) on destruction.
class DaemonHarness {
public:
  explicit DaemonHarness(DaemonOptions Opts = DaemonOptions()) {
    static int Counter = 0;
    Socket = "/tmp/vpod_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(++Counter) + ".sock";
    ::unlink(Socket.c_str());
    Opts.SocketPath = Socket;
    Opts.Limits.AllowFaultInjection = true;
    Pid = ::fork();
    if (Pid == 0) {
      Daemon D(Opts);
      if (!D.start())
        ::_exit(1);
      D.run();
      ::_exit(0);
    }
  }

  ~DaemonHarness() {
    if (Pid <= 0)
      return;
    if (alive()) {
      ServiceClient C;
      if (C.connectTo(Socket)) {
        ServiceRequest Req;
        Req.Op = "shutdown";
        (void)C.call(Req);
      }
    }
    for (int I = 0; I < 100 && alive(); ++I)
      ::usleep(20'000);
    if (alive()) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      Pid = -1;
    }
    ::unlink(Socket.c_str());
  }

  /// \returns true while the daemon process has not exited.
  bool alive() {
    if (Pid <= 0)
      return false;
    int WStatus = 0;
    pid_t Got = ::waitpid(Pid, &WStatus, WNOHANG);
    if (Got == Pid) {
      Pid = -1;
      return false;
    }
    return true;
  }

  /// Connects with retry (the child needs a moment to bind).
  bool connect(ServiceClient &C) {
    for (int I = 0; I < 100; ++I) {
      if (C.connectTo(Socket))
        return true;
      ::usleep(50'000);
    }
    return false;
  }

  const std::string &socket() const { return Socket; }
  pid_t pid() const { return Pid; }

private:
  std::string Socket;
  pid_t Pid = -1;
};

ServiceRequest compileReq(const std::string &Id) {
  ServiceRequest Req;
  Req.Id = Id;
  Req.IR = SumKernel;
  Req.Config = "coalesce-all";
  Req.WantRemarks = true;
  return Req;
}

ServiceResponse mustCall(ServiceClient &C, const ServiceRequest &Req) {
  StatusOr<ServiceResponse> R = C.call(Req);
  EXPECT_TRUE(R.isOk()) << R.status().message();
  return R.isOk() ? *R : ServiceResponse();
}

std::string extra(const ServiceResponse &R, const std::string &Key) {
  for (const auto &KV : R.Extra)
    if (KV.first == Key)
      return KV.second;
  return "<missing " + Key + ">";
}

ServiceResponse status(ServiceClient &C) {
  ServiceRequest St;
  St.Op = "status";
  return mustCall(C, St);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Basic serving
//===----------------------------------------------------------------------===//

TEST(DaemonService, PingStatusAndUnknownOp) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceRequest Ping;
  Ping.Op = "ping";
  Ping.Id = "p";
  ServiceResponse R = mustCall(C, Ping);
  EXPECT_EQ(R.Status, ErrorCode::Ok);
  EXPECT_EQ(R.Id, "p");

  ServiceRequest St;
  St.Op = "status";
  R = mustCall(C, St);
  EXPECT_EQ(R.Status, ErrorCode::Ok);
  EXPECT_EQ(extra(R, "workers"), "4");
  EXPECT_EQ(extra(R, "requests"), "0");
  EXPECT_EQ(extra(R, "cache_entries"), "0");

  ServiceRequest Bad;
  Bad.Op = "frobnicate";
  R = mustCall(C, Bad);
  EXPECT_EQ(R.Status, ErrorCode::Unsupported);
}

TEST(DaemonService, CompileRoundtrip) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceRequest Req = compileReq("c1");
  Req.RunArgs = "8192,8";
  ServiceResponse R = mustCall(C, Req);
  ASSERT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  EXPECT_EQ(R.Id, "c1");
  EXPECT_EQ(R.Rung, 0u);
  EXPECT_FALSE(R.Cached);
  EXPECT_FALSE(R.IR.empty());
  EXPECT_EQ(R.Key.size(), 32u);
  EXPECT_TRUE(R.Ran);
  EXPECT_EQ(R.RunStatus, "ok");
  EXPECT_EQ(R.ReturnValue, 0);
}

TEST(DaemonService, ParseErrorsAreContainedAndStructured) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceRequest Req = compileReq("bad");
  Req.IR = "this is not RTL at all {{{";
  ServiceResponse R = mustCall(C, Req);
  EXPECT_EQ(R.Status, ErrorCode::ParseError);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_TRUE(H.alive());
  // The daemon and its worker shrug it off: the next request is clean.
  R = mustCall(C, compileReq("after"));
  EXPECT_EQ(R.Status, ErrorCode::Ok) << R.Error;
}

//===----------------------------------------------------------------------===//
// Content cache through the daemon
//===----------------------------------------------------------------------===//

TEST(DaemonCache, RepeatIsAByteIdenticalHit) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceRequest Req = compileReq("cold");
  Req.RunArgs = "8192,8";
  ServiceResponse Cold = mustCall(C, Req);
  ASSERT_EQ(Cold.Status, ErrorCode::Ok) << Cold.Error;
  ASSERT_FALSE(Cold.Cached);

  Req.Id = "warm";
  ServiceResponse Warm = mustCall(C, Req);
  ASSERT_EQ(Warm.Status, ErrorCode::Ok) << Warm.Error;
  EXPECT_TRUE(Warm.Cached);
  EXPECT_EQ(Warm.resultSignature(), Cold.resultSignature())
      << "a cache hit must replay the fresh result byte for byte";

  ServiceRequest St;
  St.Op = "status";
  ServiceResponse R = mustCall(C, St);
  EXPECT_EQ(extra(R, "cache_hits"), "1");
  EXPECT_EQ(extra(R, "cache_entries"), "1");
}

TEST(DaemonCache, WhitespaceVariantSharesTheEntry) {
  DaemonOptions Opts;
  Opts.CacheJournalPath =
      "/tmp/vpod_test_" + std::to_string(::getpid()) + "_variant.vpj";
  ::unlink(Opts.CacheJournalPath.c_str());
  DaemonHarness H(Opts);
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceResponse Canon = mustCall(C, compileReq("canon"));
  ASSERT_EQ(Canon.Status, ErrorCode::Ok) << Canon.Error;
  ASSERT_FALSE(Canon.Cached);
  const std::string JournalBefore = slurp(Opts.CacheJournalPath);

  // Different raw bytes, same kernel: the worker parses it and names the
  // stored canonical key, so the daemon answers from the store with no
  // compile. From then on the variant's raw bytes hit directly.
  ServiceRequest Variant = compileReq("variant");
  Variant.IR = std::string("\n  ") + SumKernel + "\n\t\n";
  ServiceResponse First = mustCall(C, Variant);
  ASSERT_EQ(First.Status, ErrorCode::Ok) << First.Error;
  EXPECT_TRUE(First.Cached);
  EXPECT_EQ(First.Key, Canon.Key);
  EXPECT_EQ(First.resultSignature(), Canon.resultSignature());
  ServiceResponse S = status(C);
  EXPECT_EQ(extra(S, "canonical_hits"), "1");
  EXPECT_EQ(extra(S, "cache_hits"), "0");

  // The journal gained the variant's alias and nothing else.
  std::optional<ContentKey> CanonKey = contentKeyFromHex(Canon.Key);
  ASSERT_TRUE(CanonKey.has_value());
  ContentKey Raw = hashContent(Variant.IR, Variant.Config, Variant.Target,
                               runSignature(Variant));
  std::string Alias = CacheStore::encodeRecord(
      CacheStore::encodeAliasPayload(Raw, *CanonKey));
  EXPECT_EQ(slurp(Opts.CacheJournalPath), JournalBefore + Alias);

  Variant.Id = "variant-again";
  ServiceResponse Second = mustCall(C, Variant);
  EXPECT_TRUE(Second.Cached);
  EXPECT_EQ(Second.resultSignature(), Canon.resultSignature());
  S = status(C);
  EXPECT_EQ(extra(S, "canonical_hits"), "1");
  EXPECT_EQ(extra(S, "cache_hits"), "1");
  ::unlink(Opts.CacheJournalPath.c_str());
}

TEST(DaemonCache, PlantedVariantStillReachesThePipeline) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));
  ServiceResponse Canon = mustCall(C, compileReq("canon"));
  ASSERT_EQ(Canon.Status, ErrorCode::Ok) << Canon.Error;

  // A plant is part of the request, not the content: no key exchange, so
  // the crash plant after parsing fires and the ladder serves rung 1.
  ServiceRequest Variant = compileReq("planted");
  Variant.IR = std::string("\n") + SumKernel;
  Variant.Fault = "crash";
  ServiceResponse R = mustCall(C, Variant);
  ASSERT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  EXPECT_FALSE(R.Cached);
  EXPECT_EQ(R.Rung, 1u);
  EXPECT_EQ(R.Degraded, "worker-crash");
  ServiceResponse S = status(C);
  EXPECT_EQ(extra(S, "canonical_hits"), "0");
  EXPECT_EQ(extra(S, "worker_crashes"), "1");
}

#ifdef __linux__
/// The daemon's live worker processes: its children, from procfs.
std::vector<pid_t> workerPids(pid_t Daemon) {
  std::ifstream In("/proc/" + std::to_string(Daemon) + "/task/" +
                   std::to_string(Daemon) + "/children");
  std::vector<pid_t> Pids;
  for (pid_t P; In >> P;)
    Pids.push_back(P);
  return Pids;
}

TEST(DaemonCache, ProbationProbeRunsThePipeline) {
  DaemonOptions Opts;
  Opts.Workers = 1;
  DaemonHarness H(Opts);
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));
  ServiceResponse Canon = mustCall(C, compileReq("canon"));
  ASSERT_EQ(Canon.Status, ErrorCode::Ok) << Canon.Error;

  // Three deaths with no success between them make the slot sticky-
  // degraded; idle deaths count (that is what boot trouble looks like).
  for (int I = 0; I < 3; ++I) {
    std::vector<pid_t> Before = workerPids(H.pid());
    ASSERT_EQ(Before.size(), 1u);
    ::kill(Before[0], SIGKILL);
    bool Respawned = false;
    for (int T = 0; T < 500 && !Respawned; ++T) {
      ::usleep(10'000);
      std::vector<pid_t> Now = workerPids(H.pid());
      Respawned = Now.size() == 1 && Now[0] != Before[0];
    }
    ASSERT_TRUE(Respawned) << "kill " << I;
  }
  ASSERT_EQ(extra(status(C), "sticky_degraded"), "1");
  ServiceRequest Reload;
  Reload.Op = "reload";
  ASSERT_EQ(extra(mustCall(C, Reload), "probes_armed"), "1");

  // The armed probe is a rung-0 unplanted attempt of stored content, but
  // it exists to test the full pipeline: the verdict must be "compile".
  ServiceRequest Variant = compileReq("probe");
  Variant.IR = std::string("\n") + SumKernel;
  ServiceResponse R = mustCall(C, Variant);
  ASSERT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  EXPECT_FALSE(R.Cached);
  EXPECT_EQ(R.Rung, 0u);
  EXPECT_EQ(R.resultSignature(), Canon.resultSignature());
  ServiceResponse S = status(C);
  EXPECT_EQ(extra(S, "probes"), "1");
  EXPECT_EQ(extra(S, "sticky_degraded"), "0");
  EXPECT_EQ(extra(S, "canonical_hits"), "0");
}
#endif // __linux__

TEST(DaemonCache, ServingFlagsFilterWithoutForkingIdentity) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceResponse Full = mustCall(C, compileReq("full"));
  ASSERT_EQ(Full.Status, ErrorCode::Ok) << Full.Error;
  EXPECT_FALSE(Full.IR.empty());

  ServiceRequest Slim = compileReq("slim");
  Slim.WantIR = false;
  Slim.WantRemarks = false;
  ServiceResponse R = mustCall(C, Slim);
  ASSERT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  EXPECT_TRUE(R.Cached) << "preference flags must not change cache identity";
  EXPECT_TRUE(R.IR.empty());
  EXPECT_TRUE(R.Remarks.empty());
  EXPECT_EQ(R.Key, Full.Key);
}

//===----------------------------------------------------------------------===//
// The degradation ladder, with real worker deaths
//===----------------------------------------------------------------------===//

TEST(DaemonLadder, WorkerCrashDegradesToRungOne) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceRequest Req = compileReq("crash");
  Req.Fault = "crash"; // kills the rung-0 worker, survives rung 1
  ServiceResponse R = mustCall(C, Req);
  ASSERT_EQ(R.Status, ErrorCode::Ok)
      << "a worker crash costs optimization, not availability: " << R.Error;
  EXPECT_EQ(R.Rung, 1u);
  EXPECT_EQ(R.Degraded, "worker-crash");
  EXPECT_FALSE(R.IR.empty());
  EXPECT_TRUE(H.alive());

  ServiceRequest St;
  St.Op = "status";
  ServiceResponse S = mustCall(C, St);
  EXPECT_EQ(extra(S, "worker_crashes"), "1");
  EXPECT_EQ(extra(S, "served_degraded"), "1");
  EXPECT_EQ(extra(S, "respawns"), "1");
}

TEST(DaemonLadder, HungWorkerIsKilledAtTheDeadline) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceRequest Req = compileReq("hang");
  Req.Fault = "hang";
  Req.DeadlineMs = 250;
  ServiceResponse R = mustCall(C, Req);
  ASSERT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  EXPECT_EQ(R.Rung, 1u);
  EXPECT_EQ(R.Degraded, "worker-deadline");
  EXPECT_TRUE(H.alive());

  ServiceRequest St;
  St.Op = "status";
  ServiceResponse S = mustCall(C, St);
  EXPECT_EQ(extra(S, "worker_deadlines"), "1");
}

TEST(DaemonLadder, RungTwoIsTheLastResortThatWorks) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceRequest Req = compileReq("c1");
  Req.Fault = "crash:1"; // kills rungs 0 and 1; only O0 survives
  ServiceResponse R = mustCall(C, Req);
  ASSERT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  EXPECT_EQ(R.Rung, 2u);
  EXPECT_EQ(R.Degraded, "worker-crash");
  EXPECT_FALSE(R.IR.empty());
  EXPECT_TRUE(H.alive());
}

TEST(DaemonLadder, ExhaustionIsAStructuredErrorNotAnOutage) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceRequest Req = compileReq("doomed");
  Req.Fault = "crash:2"; // dies at every rung, reference included
  ServiceResponse R = mustCall(C, Req);
  EXPECT_EQ(R.Status, ErrorCode::Internal);
  EXPECT_EQ(R.Rung, 2u);
  EXPECT_EQ(R.Degraded, "worker-crash");
  EXPECT_NE(R.Error.find("ladder exhausted"), std::string::npos) << R.Error;

  // The point of the exercise: the daemon survived three worker deaths
  // for one request and keeps serving everyone else.
  EXPECT_TRUE(H.alive());
  ServiceResponse After = mustCall(C, compileReq("after"));
  EXPECT_EQ(After.Status, ErrorCode::Ok) << After.Error;
  EXPECT_EQ(After.Rung, 0u);

  ServiceRequest St;
  St.Op = "status";
  ServiceResponse S = mustCall(C, St);
  EXPECT_EQ(extra(S, "exhausted"), "1");
}

TEST(DaemonLadder, DeadlineExhaustionReportsDeadlineExceeded) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceRequest Req = compileReq("doomed");
  Req.Fault = "hang:2";
  Req.DeadlineMs = 200;
  ServiceResponse R = mustCall(C, Req);
  EXPECT_EQ(R.Status, ErrorCode::DeadlineExceeded);
  EXPECT_EQ(R.Degraded, "worker-deadline");
  EXPECT_TRUE(H.alive());
}

TEST(DaemonLadder, DegradedResultsAreNotCached) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceRequest Req = compileReq("crash");
  Req.Fault = "crash";
  ServiceResponse R = mustCall(C, Req);
  ASSERT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  ASSERT_EQ(R.Rung, 1u);

  // The same kernel without the plant must be compiled fresh at rung 0,
  // not served the degraded rung-1 result.
  ServiceResponse Clean = mustCall(C, compileReq("clean"));
  ASSERT_EQ(Clean.Status, ErrorCode::Ok) << Clean.Error;
  EXPECT_FALSE(Clean.Cached);
  EXPECT_EQ(Clean.Rung, 0u);
}

//===----------------------------------------------------------------------===//
// Pipelining
//===----------------------------------------------------------------------===//

TEST(DaemonPipeline, ResponsesComeBackInRequestOrder) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  // Distinct kernels shard onto different workers, so completion order
  // is a race — but the ticketed response path must put answers back on
  // the wire in request order, which is what lets a batch client
  // pipeline without correlating by id. The trailing ping is answered
  // instantly by the event loop yet must still arrive last.
  const int N = 12;
  for (int I = 0; I < N; ++I) {
    ServiceRequest Req = compileReq("p-" + std::to_string(I));
    size_t At = Req.IR.find("@sum");
    ASSERT_NE(At, std::string::npos);
    Req.IR.replace(At, 4, "@k" + std::to_string(I));
    ASSERT_TRUE(C.send(Req).isOk());
  }
  ServiceRequest Ping;
  Ping.Op = "ping";
  Ping.Id = "after";
  ASSERT_TRUE(C.send(Ping).isOk());

  for (int I = 0; I < N; ++I) {
    StatusOr<ServiceResponse> R = C.receive();
    ASSERT_TRUE(R.isOk()) << R.status().message();
    EXPECT_EQ(R->Id, "p-" + std::to_string(I));
    EXPECT_EQ(R->Status, ErrorCode::Ok) << R->Error;
  }
  StatusOr<ServiceResponse> Last = C.receive();
  ASSERT_TRUE(Last.isOk()) << Last.status().message();
  EXPECT_EQ(Last->Id, "after");
}

//===----------------------------------------------------------------------===//
// Load shedding
//===----------------------------------------------------------------------===//

TEST(DaemonOverload, FullQueueShedsInsteadOfQueueingForever) {
  DaemonOptions Opts;
  Opts.Workers = 1;
  Opts.QueueDepth = 1;
  DaemonHarness H(Opts);
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  // Occupy the only worker for a while, then pile on.
  ServiceRequest Hog = compileReq("hog");
  Hog.Fault = "hang";
  Hog.DeadlineMs = 400;
  ASSERT_TRUE(C.send(Hog).isOk());
  for (int I = 0; I < 5; ++I)
    ASSERT_TRUE(C.send(compileReq("pile-" + std::to_string(I))).isOk());

  size_t Shed = 0, Served = 0;
  bool HogServed = false;
  for (int I = 0; I < 6; ++I) {
    StatusOr<ServiceResponse> R = C.receive();
    ASSERT_TRUE(R.isOk()) << R.status().message();
    if (R->Id == "hog") {
      EXPECT_EQ(R->Status, ErrorCode::Ok) << R->Error;
      HogServed = true;
    } else if (R->Status == ErrorCode::Overloaded) {
      ++Shed;
      EXPECT_NE(R->Error.find("queue full"), std::string::npos);
    } else {
      EXPECT_EQ(R->Status, ErrorCode::Ok) << R->Error;
      ++Served;
    }
  }
  EXPECT_TRUE(HogServed) << "the in-flight request still completes";
  EXPECT_GE(Shed, 3u) << "a bounded queue must shed, not buffer, overload";
  EXPECT_TRUE(H.alive());

  // Shedding is immediate rejection, not failure: a retry succeeds.
  ServiceResponse Retry = mustCall(C, compileReq("retry"));
  EXPECT_EQ(Retry.Status, ErrorCode::Ok) << Retry.Error;
}

//===----------------------------------------------------------------------===//
// Shutdown
//===----------------------------------------------------------------------===//

TEST(DaemonShutdown, ShutdownOpStopsTheDaemonCleanly) {
  DaemonHarness H;
  ServiceClient C;
  ASSERT_TRUE(H.connect(C));

  ServiceRequest Req;
  Req.Op = "shutdown";
  Req.Id = "bye";
  ServiceResponse R = mustCall(C, Req);
  EXPECT_EQ(R.Status, ErrorCode::Ok);

  for (int I = 0; I < 100 && H.alive(); ++I)
    ::usleep(20'000);
  EXPECT_FALSE(H.alive()) << "shutdown op must stop the daemon";
  // The socket is unlinked on the way out: reconnecting fails fast.
  ServiceClient C2;
  EXPECT_FALSE(C2.connectTo(H.socket()).isOk());
}

} // namespace

#endif // __unix__ || __APPLE__
