//===- perfbench/ServiceBench.cpp - The vpod service workload -------------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload `service`: a closed loop against a private vpod, the
/// vpoc -> vpod -> response round trip. Two client connections from this
/// process each keep one request in flight; the daemon runs 2 workers
/// (--threads changes the worker count only), its cache journal is on
/// with the default fsync per insert, and cache and journal start empty.
/// Clients, daemon and workers share one CPU (see runService), so the two
/// workers never compile in parallel: the workload measures the service's
/// work per request, not its parallel speed-up.
///
/// Request bodies come from the `compile` population: KernelGen kernels
/// as IR text, sent in run mode with arguments laid out as vpod_load does
/// (stream bases then N = 16, 1 MB arena), and the hand-built kernels
/// printed to IR text, compile-only. A request's identity is (kernel,
/// config, target); each client owns its own identities, so a repeat
/// never races its first sight. Each client's stream names three classes.
/// The repository records no vpoc/vpod traffic, so the split below, the
/// recency window and its geometric preference are unverified
/// assumptions; every run prints each class's measured share and rate.
///
///  * new (10%): first sight of an identity. A worker parses, compiles
///    with its always-on remark sink and schedule audit, runs the kernel
///    on the tiered engine, and the daemon journals (fsync) and caches
///    the result. Each client sends all of its hand-built identities
///    (every config on every target) before any generated one, so every
///    run pays each of them exactly once.
///  * repeat (70%): a byte-identical resend of one of the client's eight
///    most recent identities (geometric preference for the newest) —
///    served by the raw-key lookup, no worker involved.
///  * variant (20%): a fresh whitespace variant of a recent generated
///    kernel — a full worker round and then a refresh insert.
///
/// The stream is skewed toward recent identities, so most repeats hit
/// although the cache bound (256) is below the number of distinct
/// identities even the census alone sends (about 300), so every run
/// evicts. Variants are drawn from the generated kernels
/// only: a single 300 ms hand-built compile resent at random would make
/// throughput depend on the draw rather than on the service.
///
/// Why: this is the only workload where the service layers, the cache
/// journal and the audit run, and it puts cache writes next to reads.
///
/// Every response is checked after the timed phase against an in-process
/// compileServiceRequest reference (status, key, IR and run outcome), and
/// every repeat and variant must match its identity's first answer byte
/// for byte. Shed and degraded requests count as failures.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Population.h"

#include "ir/Function.h"
#include "ir/IRParser.h"
#include "service/CacheStore.h"
#include "service/Client.h"
#include "service/ContentCache.h"
#include "service/Worker.h"
#include "sim/Memory.h"
#include "support/RNG.h"
#include "target/TargetMachine.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstring>
#include <deque>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <optional>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/sysmacros.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace vpo;
using namespace vpo::service;

namespace perfbench {
namespace {

constexpr unsigned Clients = 2;
constexpr unsigned GeneratedKernels = 400;
constexpr size_t CacheEntries = 256;
/// Each client's census — the stream prefix that always runs, even if the
/// clock has run out, and over which the deterministic counts are taken —
/// ends with its first CensusGenerated generated news, after all of its
/// hand-built ones.
constexpr size_t CensusGenerated = 50;
constexpr size_t StreamCap = 150000;
/// A run-mode request's arena: ArenaKB = 1024, to which the worker adds
/// 4 KB (Worker.cpp).
constexpr unsigned ArenaKB = 1024;
constexpr size_t ArenaBytes = ArenaKB * size_t(1024) + 4096;

enum class Kind : uint8_t { New, Repeat, Variant };
const char *kindName(Kind K) {
  return K == Kind::New ? "new" : K == Kind::Repeat ? "repeat" : "variant";
}

/// One request identity: kernel text, config, target, run mode.
struct Identity {
  const Input *In = nullptr;
  std::string Config, Target;
  std::string RunArgs; ///< empty: compile-only
  std::string name() const {
    return In->Name + "/" + Target + "/" + Config;
  }
};

struct Step {
  Kind K = Kind::New;
  uint32_t Id = 0;      ///< index into the identity table
  uint32_t Variant = 0; ///< variant number (Kind::Variant)
};

std::string renderArgs(const std::vector<int64_t> &Args) {
  std::string Out;
  for (int64_t A : Args)
    Out += (Out.empty() ? "" : ",") + std::to_string(A);
  return Out;
}

ServiceRequest makeRequest(const Identity &I, const Step &S) {
  ServiceRequest Req;
  Req.Config = I.Config;
  Req.Target = I.Target;
  Req.IR = I.In->Text;
  if (S.K == Kind::Variant)
    // Unique per variant number: 1..8 leading newlines, then trailing
    // spaces; parse -> print maps every one to the same canonical key.
    Req.IR = std::string(1 + S.Variant % 8, '\n') + Req.IR +
             std::string(1 + S.Variant / 8, ' ') + "\n";
  Req.RunArgs = I.RunArgs;
  Req.ArenaKB = I.RunArgs.empty() ? 0 : ArenaKB;
  Req.WantRemarks = false;
  return Req;
}

/// Identities and per-client streams, a pure function of the seed.
struct Plan {
  std::vector<Input> Pop;
  std::vector<Identity> Ids;
  std::vector<Step> Streams[Clients];
  /// Per client, the length of the stream prefix that always runs.
  size_t Census[Clients] = {};
};

Plan makePlan(uint64_t Seed, const std::string &RepoRoot, std::string &Err) {
  Plan P;
  P.Pop = makePopulation(Seed, GeneratedKernels, RepoRoot, Err);
  if (P.Pop.empty())
    return P;
  RNG R(Seed * 0x9e3779b97f4a7c15ull + 11);
  const std::vector<PipelineConfig> &Cfgs = serviceConfigs();
  const char *Targets[] = {"alpha", "m88100", "m68030"};
  // Per client: hand-built identities and generated identities.
  std::vector<uint32_t> Hand[Clients], Gen[Clients];
  unsigned NextClient = 0;
  for (const Input &In : P.Pop) {
    if (In.Src == Input::Source::HandBuilt) {
      // Compile-only, every config on every target: the paper's own
      // kernels through the coalescer and its audit, the same set in
      // every run.
      for (const char *T : Targets)
        for (const PipelineConfig &C : Cfgs) {
          Identity I;
          I.In = &In;
          I.Target = T;
          I.Config = C.Name;
          Hand[NextClient].push_back(uint32_t(P.Ids.size()));
          NextClient = (NextClient + 1) % Clients;
          P.Ids.push_back(std::move(I));
        }
    } else if (In.Src == Input::Source::Generated && !In.IsC) {
      Memory Scratch(ArenaBytes); // the layout the worker's arena gets
      std::string Args = renderArgs(
          fuzz::setupKernelMemory(In.Spec, 16, Scratch, /*LayoutSkew=*/0));
      // Every config on every target, each a distinct identity.
      for (const char *T : Targets)
        for (const PipelineConfig &C : Cfgs) {
          Identity I;
          I.In = &In;
          I.Target = T;
          I.Config = C.Name;
          I.RunArgs = Args;
          Gen[R.nextBelow(Clients)].push_back(uint32_t(P.Ids.size()));
          P.Ids.push_back(std::move(I));
        }
    }
  }
  for (unsigned C = 0; C < Clients; ++C) {
    RNG CR(Seed * 1000003 + C);
    for (size_t I = Gen[C].size(); I > 1; --I)
      std::swap(Gen[C][I - 1], Gen[C][CR.nextBelow(I)]);
    for (size_t I = Hand[C].size(); I > 1; --I)
      std::swap(Hand[C][I - 1], Hand[C][CR.nextBelow(I)]);
    // News: the client's hand-built identities first, then generated.
    std::vector<uint32_t> News = Hand[C];
    News.insert(News.end(), Gen[C].begin(), Gen[C].end());
    // The census ends with the first CensusGenerated generated news.
    const size_t CensusNews = Hand[C].size() + CensusGenerated;
    std::deque<uint32_t> Recent; // most recent first
    std::vector<uint32_t> VariantNo(P.Ids.size(), 0);
    size_t NextNew = 0;
    std::vector<Step> &S = P.Streams[C];
    while (S.size() < StreamCap) {
      uint64_t U = CR.nextBelow(100);
      Step St;
      if (Recent.empty() || U < 10) {
        if (NextNew == News.size())
          break;
        St.K = Kind::New;
        St.Id = News[NextNew++];
        if (NextNew == CensusNews)
          P.Census[C] = S.size() + 1;
        Recent.push_front(St.Id);
        if (Recent.size() > 8)
          Recent.pop_back();
      } else {
        // Geometric preference for the most recent identities.
        size_t K = 0;
        while (K + 1 < Recent.size() && CR.nextBelow(2) == 0)
          ++K;
        St.Id = Recent[K];
        St.K = Kind::Repeat;
        if (U >= 80) {
          // Variants only of run-mode (generated) identities.
          for (size_t J = 0; J < Recent.size(); ++J) {
            uint32_t Id = Recent[(K + J) % Recent.size()];
            if (!P.Ids[Id].RunArgs.empty()) {
              St.Id = Id;
              St.K = Kind::Variant;
              St.Variant = VariantNo[Id]++;
              break;
            }
          }
        }
      }
      S.push_back(St);
    }
  }
  return P;
}

uint64_t digestOf(const std::string &S) {
  return digest(reinterpret_cast<const uint8_t *>(S.data()), S.size());
}

/// What the reference check compares: status, content key, optimized IR
/// and run outcome, the long fields as digests.
struct Outcome {
  ErrorCode Status = ErrorCode::Ok;
  uint64_t Key = 0, IR = 0;
  bool Ran = false;
  std::string RunStatus;
  int64_t ReturnValue = 0;

  explicit Outcome(const ServiceResponse &R)
      : Status(R.Status), Key(digestOf(R.Key)), IR(digestOf(R.IR)),
        Ran(R.Ran), RunStatus(R.RunStatus), ReturnValue(R.ReturnValue) {}
};

/// A response reduced to what the check phase needs, so the client holds
/// small records, not responses, through the timed phase.
struct Answer {
  Step S;
  double Ms = 0;
  bool Transport = true; ///< the call returned a response
  bool FirstSight = false; ///< its identity's first answer
  ErrorCode Status = ErrorCode::Ok;
  unsigned Rung = 0;
  uint64_t SigDigest = 0;
};

/// The private daemon: forked, exec'ed, stopped and reaped.
class DaemonProc {
public:
  DaemonProc() = default;
  DaemonProc(const DaemonProc &) = delete;
  DaemonProc &operator=(const DaemonProc &) = delete;
  ~DaemonProc() { kill(); }

  bool start(const std::string &Vpod, unsigned Workers) {
    ::unlink("cache.vpj");
    ::unlink("vpod.sock");
    Pid = ::fork();
    if (Pid < 0)
      return false;
    if (Pid == 0) {
      // Dies with the benchmark, whatever ends it; its workers then see
      // EOF and exit too.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int Log = ::open("vpod.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Log >= 0)
        ::dup2(Log, 2);
      std::string W = "--workers=" + std::to_string(Workers);
      std::string E = "--cache-entries=" + std::to_string(CacheEntries);
      ::execl(Vpod.c_str(), Vpod.c_str(), "--socket=vpod.sock", W.c_str(),
              E.c_str(), "--cache-file=cache.vpj", (char *)nullptr);
      ::_exit(127);
    }
    return true;
  }

  /// Asks the daemon to stop and reaps it (SIGKILL after 10 s).
  bool stop(ServiceClient &C) {
    if (Pid <= 0)
      return true;
    ServiceRequest Req;
    Req.Op = "shutdown";
    (void)C.call(Req);
    C.close();
    for (int I = 0; I < 1000; ++I) {
      int St = 0;
      if (::waitpid(Pid, &St, WNOHANG) == Pid) {
        Pid = -1;
        return WIFEXITED(St) && WEXITSTATUS(St) == 0;
      }
      ::usleep(10000);
    }
    kill();
    return false;
  }

  long pid() const { return Pid; }

  bool alive() {
    int St = 0;
    if (Pid > 0 && ::waitpid(Pid, &St, WNOHANG) == Pid)
      Pid = -1; // reaped: never signal a pid that may be reused
    return Pid > 0;
  }

  void kill() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGKILL);
    int St = 0;
    ::waitpid(Pid, &St, 0);
    Pid = -1;
  }

private:
  long Pid = -1;
};

/// The CPU that has taken most interrupts of the disk holding \p Dir (its
/// device's MSI vectors, counted per CPU in /sys/kernel/irq), or -1 when
/// sysfs does not say.
int diskInterruptCpu(const char *Dir) {
  struct stat St;
  if (::stat(Dir, &St) != 0)
    return -1;
  const std::string Link = "/sys/dev/block/" +
                           std::to_string(major(St.st_dev)) + ":" +
                           std::to_string(minor(St.st_dev));
  char Dev[PATH_MAX];
  if (!::realpath(Link.c_str(), Dev))
    return -1;
  std::vector<uint64_t> PerCpu;
  // Up from the block device (or partition) to the device with the
  // interrupt vectors.
  for (std::string P = Dev; P.size() > 1; P.resize(P.rfind('/'))) {
    DIR *D = ::opendir((P + "/msi_irqs").c_str());
    if (!D)
      continue;
    while (dirent *E = ::readdir(D)) {
      if (E->d_name[0] == '.')
        continue;
      std::ifstream In(std::string("/sys/kernel/irq/") + E->d_name +
                       "/per_cpu_count");
      uint64_t N = 0;
      for (size_t Cpu = 0; In >> N; ++Cpu) {
        if (PerCpu.size() <= Cpu)
          PerCpu.resize(Cpu + 1, 0);
        PerCpu[Cpu] += N;
        In.ignore(1); // the comma
      }
    }
    ::closedir(D);
    break;
  }
  auto Max = std::max_element(PerCpu.begin(), PerCpu.end());
  return Max == PerCpu.end() || *Max == 0 ? -1 : int(Max - PerCpu.begin());
}

bool connectRetry(ServiceClient &C, DaemonProc &D) {
  for (int I = 0; I < 1000; ++I) {
    if (C.connectTo("vpod.sock"))
      return true;
    if (!D.alive())
      return false;
    ::usleep(2000);
  }
  return false;
}

std::map<std::string, uint64_t> daemonStatus(ServiceClient &C) {
  std::map<std::string, uint64_t> M;
  ServiceRequest Req;
  Req.Op = "status";
  if (StatusOr<ServiceResponse> R = C.call(Req))
    for (const auto &[K, V] : R->Extra)
      M[K] = std::strtoull(V.c_str(), nullptr, 10);
  return M;
}

/// Correct iff the service answer matches the in-process reference:
/// status, content key, optimized IR and run outcome.
std::string matchesReference(const Outcome &Got, const Outcome &Want) {
  if (Got.Status != Want.Status)
    return std::string("status ") + errorCodeName(Got.Status) + " != " +
           errorCodeName(Want.Status);
  if (Got.Key != Want.Key)
    return "content key diverged";
  if (Got.IR != Want.IR)
    return "optimized IR diverged";
  if (Got.Ran != Want.Ran || Got.RunStatus != Want.RunStatus ||
      Got.ReturnValue != Want.ReturnValue)
    return "run outcome diverged";
  return {};
}

/// Folds the sched-audit lines of a remark NDJSON stream into \p C.
void addAuditLines(const std::string &NDJSON, Counts &C) {
  size_t Pos = 0;
  auto Field = [](const std::string &L, const char *Key) {
    std::string Pat = std::string("\"") + Key + "\":\"";
    size_t B = L.find(Pat);
    if (B == std::string::npos)
      return std::string();
    B += Pat.size();
    return L.substr(B, L.find('"', B) - B);
  };
  while (Pos < NDJSON.size()) {
    size_t End = NDJSON.find('\n', Pos);
    if (End == std::string::npos)
      End = NDJSON.size();
    std::string L = NDJSON.substr(Pos, End - Pos);
    Pos = End + 1;
    if (L.find("\"reason\":\"sched-audit\"") == std::string::npos)
      continue;
    ++C.Audits;
    C.AuditStates += std::strtoull(Field(L, "states").c_str(), nullptr, 10);
    if (Field(L, "status") == "budget-exceeded")
      ++C.AuditBudgetExceeded;
  }
}

void addStatsJson(const std::string &Json, Counts &C) {
  std::map<std::string, std::string> M;
  if (!parseFlatJson(Json, M))
    return;
  auto U = [&M](const char *K) {
    return std::strtoull(M[K].c_str(), nullptr, 10);
  };
  C.LoopsExamined += U("loops-examined");
  C.LoopsTransformed += U("loops-transformed");
  C.NarrowRemoved += U("narrow-loads-removed") + U("narrow-stores-removed");
  C.RunsRejected +=
      U("runs-rejected-hazard") + U("runs-rejected-checks-disabled");
  C.CheckInsts += U("check-instructions");
  C.AliasDeferred += U("alias-pairs-deferred");
  C.AliasProven += U("alias-pairs-proven-disjoint");
}

/// Census counts of one identity from its reference answer: the audit
/// and coalescing counts the worker reported, then the answer's code run
/// on the cycle engine (and on the tiered engine for the jit counts).
std::string censusCounts(const Identity &I, const ServiceResponse &Ref,
                         uint64_t Seed, Counts &C) {
  addAuditLines(Ref.Remarks, C);
  addStatsJson(Ref.Stats, C);
  std::string Err;
  std::unique_ptr<Module> M = parseModule(Ref.IR, &Err);
  if (!M || M->functions().empty())
    return "answer IR does not parse: " + Err;
  const Function &F = *M->functions().front();
  C.CodeInsts += F.instructionCount();
  TargetMachine TM = *tryMakeTargetByName(I.Target);
  if (I.RunArgs.empty()) {
    // Compile-only hand-built kernel: the answer must also match the
    // kernel's golden output.
    Arch Golden;
    Arch Cyc = runScenario(F, TM, *I.In, 0, Seed, /*Cycles=*/true, nullptr,
                           &Golden);
    std::string Why = compareArch(Cyc, Golden);
    if (!Why.empty())
      return "answer differs from the golden reference: " + Why;
    CollectingRemarkSink Sink;
    runScenario(F, TM, *I.In, 0, Seed, /*Cycles=*/false, &Sink);
    C.addRun(Cyc.R);
    C.addRemarks(Sink.remarks());
    return {};
  }
  std::vector<int64_t> Args;
  for (const char *P = I.RunArgs.c_str(); *P;) {
    char *End = nullptr;
    Args.push_back(std::strtoll(P, &End, 10));
    P = *End == ',' ? End + 1 : End;
  }
  // The worker's run: a zero-filled arena of the same size.
  Memory CMem(ArenaBytes), JMem(ArenaBytes);
  InterpreterOptions CO;
  CO.MaxSteps = WorkerLimits().MaxInsts;
  RunResult CR = Interpreter(TM, CMem, CO).run(F, Args);
  CollectingRemarkSink Sink;
  InterpreterOptions JO = CO;
  JO.EnableJIT = true;
  JO.Remarks = &Sink;
  RunResult JR = Interpreter(TM, JMem, JO).run(F, Args);
  if (CR.Exit != JR.Exit || CR.ReturnValue != JR.ReturnValue ||
      std::memcmp(CMem.data(), JMem.data(), ArenaBytes) != 0)
    return "cycle and tiered engines disagree on the answer";
  if (runStatusName(CR.Exit) != Ref.RunStatus ||
      CR.ReturnValue != Ref.ReturnValue)
    return "answer's run outcome differs from the cycle engine's";
  C.addRun(CR);
  C.addRemarks(Sink.remarks());
  return {};
}

/// One line attributing an identity's worker-core time: the in-process
/// compileServiceRequest (always-on remark sink, so the schedule audit
/// runs) against the library path on the same text (no sink, no audit).
std::string attributeAudit(const Identity &I, double RoundTripMs,
                           double CoreMs, const Counts &C) {
  std::string Err;
  double LibMs = 0;
  if (std::unique_ptr<Module> M = parseModule(I.In->Text, &Err)) {
    double T0 = now();
    compileFunction(*M->functions().front(), *tryMakeTargetByName(I.Target),
                    serviceConfigByName(I.Config)->Options);
    LibMs = (now() - T0) * 1e3;
  }
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "%s new: round trip %.3f ms; worker core %.3f ms in process "
                "vs %.3f ms compiled without a sink; %llu audits, %llu "
                "audit states",
                I.name().c_str(), RoundTripMs, CoreMs, LibMs,
                (unsigned long long)C.Audits,
                (unsigned long long)C.AuditStates);
  return Buf;
}

/// Medians of the service's in-process building blocks, timed on the
/// stream's own first-sight requests and their reference answers.
struct InProcess {
  double JournalAppendUs = 0, LookupHitNs = 0, LookupMissNs = 0;
  double RawHashUs = 0, CodecUs = 0;
};

InProcess probeInProcess(const std::vector<ServiceRequest> &Reqs,
                         const std::vector<const ServiceResponse *> &Refs,
                         Result &Res) {
  InProcess IP;
  std::vector<ContentKey> Raw, Canon, Missing;
  std::vector<double> HashUs, CodecUs;
  for (size_t I = 0; I < Reqs.size(); ++I) {
    const ServiceRequest &Q = Reqs[I];
    double T0 = now();
    ContentKey K = hashContent(Q.IR, Q.Config, Q.Target, runSignature(Q));
    HashUs.push_back((now() - T0) * 1e6);
    Raw.push_back(K);
    Canon.push_back(contentKeyFromHex(Refs[I]->Key).value_or(K));
    // A raw key no entry answers to: the same request one byte longer.
    Missing.push_back(
        hashContent(Q.IR + " ", Q.Config, Q.Target, runSignature(Q)));

    // Codec: request and response through JSON and framing both ways.
    T0 = now();
    std::string Frames;
    appendFrame(Frames, Q.toJson());
    appendFrame(Frames, Refs[I]->toJson());
    FrameDecoder Dec;
    Dec.feed(Frames.data(), Frames.size());
    std::string ReqText, RespText;
    bool Ok = Dec.next(ReqText) == FrameStatus::Ok &&
              Dec.next(RespText) == FrameStatus::Ok &&
              ServiceRequest::fromJson(ReqText).has_value() &&
              ServiceResponse::fromJson(RespText).has_value();
    CodecUs.push_back((now() - T0) * 1e6);
    if (!Ok)
      Res.fail("codec round trip failed in process");
  }
  IP.RawHashUs = median(HashUs);
  IP.CodecUs = median(CodecUs);

  // Journal appends with the daemon's default fsync per insert, against
  // a scratch journal.
  ::unlink("probe.vpj");
  {
    ContentCache Cache(CacheEntries);
    CacheStore Store;
    CacheRecoveryStats RS;
    std::string Err;
    if (!Store.open("probe.vpj", Cache, RS, Err)) {
      Res.fail("cannot open a scratch journal: " + Err);
      return IP;
    }
    std::vector<double> Us;
    for (size_t I = 0; I < Refs.size() && I < 200; ++I) {
      CachedResult CR;
      CR.Status = Refs[I]->Status;
      CR.Key = Refs[I]->Key;
      CR.IR = Refs[I]->IR;
      CR.Stats = Refs[I]->Stats;
      CR.Remarks = Refs[I]->Remarks;
      CR.Incidents = Refs[I]->Incidents;
      double T0 = now();
      Store.noteInsert(Canon[I], CR);
      Us.push_back((now() - T0) * 1e6);
    }
    IP.JournalAppendUs = median(Us);
  }
  ::unlink("probe.vpj");

  // Raw-key lookups: every sample aliased into a cache big enough to hold
  // it, then hit and miss passes, per-call time from batched passes.
  ContentCache Cache(Reqs.size() + 1);
  for (size_t I = 0; I < Reqs.size(); ++I) {
    CachedResult CR;
    CR.Key = Refs[I]->Key;
    Cache.insert(Canon[I], CR);
    Cache.alias(Raw[I], Canon[I]);
  }
  auto Batch = [&Cache](const std::vector<ContentKey> &Keys, bool WantHit,
                        Result &R) {
    std::vector<double> Ns;
    for (int Pass = 0; Pass < 21; ++Pass) {
      size_t Hits = 0;
      double T0 = now();
      for (const ContentKey &K : Keys)
        Hits += Cache.lookupRaw(K) != nullptr;
      Ns.push_back((now() - T0) * 1e9 / double(Keys.size()));
      if (Hits != (WantHit ? Keys.size() : 0))
        R.fail("in-process cache lookup gave an unexpected hit/miss");
    }
    return median(Ns);
  };
  if (!Raw.empty()) {
    IP.LookupHitNs = Batch(Raw, true, Res);
    IP.LookupMissNs = Batch(Missing, false, Res);
  }
  return IP;
}

} // namespace

int runService(const Args &A) {
  Result Res;
  const unsigned Workers = A.Threads ? A.Threads : 2;

  char Self[PATH_MAX];
  ssize_t N = ::readlink("/proc/self/exe", Self, sizeof(Self) - 1);
  if (N <= 0) {
    std::fprintf(stderr, "service: cannot locate the vpod binary\n");
    return 1;
  }
  Self[N] = '\0';
  std::string Vpod = Self;
  Vpod = Vpod.substr(0, Vpod.rfind('/')) + "/vpod";
  char Root[PATH_MAX], Out[PATH_MAX];
  if (!::realpath(A.RepoRoot.c_str(), Root) ||
      !::realpath(A.OutDir.c_str(), Out)) {
    std::fprintf(stderr, "service: bad --repo-root or --out-dir\n");
    return 1;
  }
  // Socket, journal and daemon log live in the output directory; working
  // there keeps the socket path short.
  if (::chdir(Out) != 0) {
    std::fprintf(stderr, "service: cannot enter %s\n", Out);
    return 1;
  }
  // The clients, the daemon and its workers share one CPU (threads and
  // forked processes inherit this). Left to the scheduler, or with the
  // daemon on CPUs of its own, each request crosses CPUs several times,
  // and on a 4-vCPU VM those wakeups amplified host-speed drift about
  // fourfold: while tables and compile ranged over +40-50% in one set of
  // ten seeds, the service's throughput ranged over +200%, a spread above
  // the 0.25 bound. On one CPU the service drifts with the host like the
  // CPU-bound workloads. The cost is parallelism: the two workers never
  // compile at once.
  //
  // The CPU is the one that takes the interrupts of the journal's disk,
  // when it is allowed: each insert's fsync then completes on the CPU the
  // daemon waits on, with no cross-CPU wakeup. On a 4-vCPU VM whose disk
  // interrupts all land on the last vCPU, that CPU against the first
  // raised throughput by 11% and won all five interleaved rounds on one
  // seed (spread 0.050 against 0.072).
  cpu_set_t Allowed;
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0) {
    int Pin = diskInterruptCpu(".");
    const bool Disk =
        Pin >= 0 && Pin < CPU_SETSIZE && CPU_ISSET(Pin, &Allowed);
    if (!Disk)
      for (Pin = 0; Pin < CPU_SETSIZE && !CPU_ISSET(Pin, &Allowed); ++Pin)
        ;
    if (Pin < CPU_SETSIZE) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Pin, &One);
      ::sched_setaffinity(0, sizeof(One), &One);
      Res.note("service: clients, daemon and workers on CPU " +
               std::to_string(Pin) +
               (Disk ? " (takes the journal disk's interrupts)"
                     : " (the first allowed CPU)"));
    }
  }

  // Set-up, five times: inputs and streams generated, daemon booted on
  // an empty journal with its workers forked, both clients connected.
  Plan P;
  std::string Err;
  DaemonProc D;
  ServiceClient Conn[Clients];
  bool SetupOk = true;
  double SetupS = medianSeconds(5, [&](unsigned Rep) {
    if (Rep > 0) {
      SetupOk &= D.stop(Conn[0]);
      for (ServiceClient &C : Conn)
        C.close();
    }
    P = makePlan(A.Seed, Root, Err);
    SetupOk &= !P.Pop.empty() && D.start(Vpod, Workers);
    for (ServiceClient &C : Conn)
      SetupOk &= SetupOk && connectRetry(C, D);
    SetupOk &= SetupOk && daemonStatus(Conn[0])["workers"] == Workers;
  });
  if (!SetupOk) {
    std::fprintf(stderr, "service: set-up failed%s%s (see %s/vpod.log)\n",
                 Err.empty() ? "" : ": ", Err.c_str(), Out);
    return 1;
  }

  // Answer records for every step of the stream, and each identity's
  // first-answer outcome, allocated and written before the timed phase:
  // the client's resident set then does not grow with how many requests a
  // run completes. Each identity belongs to one client, so the clients
  // write disjoint elements of FirstOutcome.
  std::vector<Answer> Answers[Clients];
  for (unsigned C = 0; C < Clients; ++C)
    Answers[C].resize(P.Streams[C].size());
  std::vector<std::optional<Outcome>> FirstOutcome(P.Ids.size());
  size_t Answered[Clients] = {};

  Tracer Tr;
  OverheadMeter Meter;
  double Ends[Clients] = {};
  const double Start = now();
  const double Deadline = Start + A.Seconds;
  auto Client = [&](unsigned C) {
    std::vector<bool> Seen(P.Ids.size(), false);
    const std::vector<Step> &S = P.Streams[C];
    for (size_t T = 0; T < S.size(); ++T) {
      if (T >= P.Census[C] && now() >= Deadline)
        break;
      ServiceRequest Req = makeRequest(P.Ids[S[T].Id], S[T]);
      Req.Id = std::to_string(C) + "-" + std::to_string(T);
      const bool Traced = A.Trace && T % 2 == 1;
      std::optional<OpTrace> OT;
      if (Traced)
        OT.emplace(T * Clients + C, C, "request");
      OpTrace *TP = OT ? &*OT : nullptr;
      Answer &Ans = Answers[C][T];
      Ans.S = S[T];
      double T0 = now();
      Status Sent = Status::ok();
      std::optional<StatusOr<ServiceResponse>> R;
      {
        Scope Sc(TP, "service.send");
        Sent = Conn[C].send(Req);
      }
      if (Sent) {
        Scope Sc(TP, "service.wait_receive");
        R.emplace(Conn[C].receive());
      }
      const double Secs = now() - T0;
      if (OT) {
        OT->finish();
        Tr.commit(std::move(*OT));
      }
      if (A.Trace)
        Meter.add(kindName(S[T].K), Traced, Secs);
      Ans.Ms = Secs * 1e3;
      if (!R || !R->isOk()) {
        Ans.Transport = false;
      } else {
        const ServiceResponse &Resp = R->value();
        Ans.Status = Resp.Status;
        Ans.Rung = Resp.Rung;
        Ans.SigDigest = digestOf(Resp.resultSignature());
        if (!Seen[S[T].Id]) {
          Seen[S[T].Id] = true;
          Ans.FirstSight = true;
          FirstOutcome[S[T].Id].emplace(Resp);
        }
      }
      Answered[C] = T + 1;
    }
    Ends[C] = now();
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();
  const double Elapsed = *std::max_element(Ends, Ends + Clients) - Start;
  for (unsigned C = 0; C < Clients; ++C)
    Answers[C].resize(Answered[C]);
  // Peak resident sets, read before any checking: the client process and
  // the live daemon and its workers.
  const double ClientRssMb = selfPeakRssMb();
  const double DaemonRssMb = processTreePeakRssMb(D.pid());
  if (DaemonRssMb <= 0)
    Res.fail("cannot read the daemon's peak resident set");

  std::map<std::string, uint64_t> St = daemonStatus(Conn[0]);
  bool CleanExit = D.stop(Conn[0]);
  if (!CleanExit)
    Res.fail("vpod did not shut down cleanly");

  // Check phase. References are compiled in-process, one per first
  // sight (two threads; one in a traced run, whose timings become
  // service.worker_core_ms); repeats and variants must match their
  // identity's first answer byte for byte.
  std::vector<const Answer *> First(P.Ids.size(), nullptr);
  std::vector<bool> InCensus(P.Ids.size(), false);
  std::vector<double> Ms, ClassMs[3];
  for (unsigned C = 0; C < Clients; ++C)
    for (size_t T = 0; T < Answers[C].size(); ++T) {
      const Answer &An = Answers[C][T];
      if (An.FirstSight) {
        First[An.S.Id] = &An;
        InCensus[An.S.Id] = T < P.Census[C];
      }
    }
  std::vector<uint32_t> ToCheck;
  for (uint32_t Id = 0; Id < P.Ids.size(); ++Id)
    if (First[Id])
      ToCheck.push_back(Id);
  std::vector<ServiceResponse> Refs(P.Ids.size());
  std::vector<double> RefMs(P.Ids.size(), 0.0);
  {
    const unsigned Lanes = A.Trace ? 1 : 2;
    std::vector<std::thread> Pool;
    for (unsigned L = 0; L < Lanes; ++L)
      Pool.emplace_back([&, L] {
        for (size_t I = L; I < ToCheck.size(); I += Lanes) {
          uint32_t Id = ToCheck[I];
          ServiceRequest Req = makeRequest(P.Ids[Id], Step());
          double T0 = now();
          Refs[Id] = compileServiceRequest(Req, WorkerLimits());
          RefMs[Id] = (now() - T0) * 1e3;
        }
      });
    for (std::thread &T : Pool)
      T.join();
  }
  uint64_t Counted[3] = {0, 0, 0};
  for (unsigned C = 0; C < Clients; ++C)
    for (const Answer &An : Answers[C]) {
      ++Res.Attempted;
      Ms.push_back(An.Ms);
      ClassMs[int(An.S.K)].push_back(An.Ms);
      ++Counted[int(An.S.K)];
      const Identity &I = P.Ids[An.S.Id];
      std::string Name = std::string(kindName(An.S.K)) + " " + I.name();
      if (!An.Transport) {
        Res.fail(Name + ": no response");
        continue;
      }
      if (An.Status == ErrorCode::Overloaded) {
        Res.fail(Name + ": shed");
        continue;
      }
      if (An.Rung != 0) {
        Res.fail(Name + ": degraded to rung " + std::to_string(An.Rung));
        continue;
      }
      if (An.FirstSight) {
        std::string Why =
            matchesReference(*FirstOutcome[An.S.Id], Outcome(Refs[An.S.Id]));
        if (!Why.empty())
          Res.fail(Name + ": " + Why);
      } else if (!First[An.S.Id] ||
                 An.SigDigest != First[An.S.Id]->SigDigest) {
        Res.fail(Name + ": result differs from the identity's first answer");
      }
    }

  // Census: identities first sent within each client's first requests.
  // sim_cycles and code_insts are taken over its hand-built part, which
  // every run sends with only the configs drawn by seed.
  Counts Total, HandTotal;
  std::vector<double> NewCoreMs;
  std::vector<std::string> EqntottNotes;
  for (uint32_t Id : ToCheck) {
    if (!InCensus[Id])
      continue;
    Counts C;
    std::string Why = censusCounts(P.Ids[Id], Refs[Id], A.Seed, C);
    if (!Why.empty())
      Res.fail(P.Ids[Id].name() + ": " + Why);
    if (P.Ids[Id].In->Src == Input::Source::HandBuilt)
      HandTotal.merge(C);
    if (P.Ids[Id].In->Workload == "eqntott" && P.Ids[Id].Target == "alpha")
      EqntottNotes.push_back(attributeAudit(P.Ids[Id], First[Id]->Ms,
                                            RefMs[Id], C));
    Total.merge(C);
  }
  for (uint32_t Id : ToCheck)
    NewCoreMs.push_back(RefMs[Id]);

  const size_t Requests = Ms.size();
  Res.endToEnd("setup_s", SetupS, "s");
  Res.endToEnd("ops_per_s", double(Requests) / Elapsed, "ops/s");
  Res.latency("op_ms", Ms);
  Res.latency("new_ms", ClassMs[0]);
  Res.latency("repeat_ms", ClassMs[1]);
  Res.latency("variant_ms", ClassMs[2]);
  Res.counts(Total, &HandTotal);
  Res.endToEnd("peak_rss_mb", std::max(ClientRssMb, DaemonRssMb), "MB");
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "service: %zu requests in %.3f s, %.1f req/s; %u workers, "
                "%u clients; peak RSS client %.1f MB, daemon/workers %.1f MB",
                Requests, Elapsed, double(Requests) / Elapsed, Workers,
                Clients, ClientRssMb, DaemonRssMb);
  Res.note(Buf);
  // The class mix is an assumption, so each class's share of requests and
  // of client time is printed beside the throughput it produces.
  double ClientSeconds = 0;
  for (const std::vector<double> &V : ClassMs)
    for (double X : V)
      ClientSeconds += X / 1e3;
  for (int K = 0; K < 3; ++K) {
    double Secs = 0;
    for (double X : ClassMs[K])
      Secs += X / 1e3;
    std::snprintf(Buf, sizeof(Buf),
                  "  %-7s %6llu requests, %5.1f%% of requests, %5.1f%% of "
                  "client time, %8.1f req/s",
                  kindName(Kind(K)), (unsigned long long)Counted[K],
                  100.0 * double(Counted[K]) / double(Requests),
                  100.0 * Secs / ClientSeconds, double(Counted[K]) / Elapsed);
    Res.note(Buf);
  }
  for (const std::string &N : EqntottNotes)
    Res.note(N);

  const double Reqs = double(std::max<uint64_t>(St["requests"], 1));
  Res.perLayer("service.hit_ratio", double(St["cache_hits"]) / Reqs, "ratio");
  Res.perLayer("service.cache_entries", double(St["cache_entries"]), "count");
  Res.perLayer("service.journal_bytes", double(St["journal_bytes"]), "B");
  Res.perLayer("service.journal_garbage", double(St["journal_garbage"]), "B");
  Res.perLayer("service.compactions", double(St["compactions"]), "count");
  Res.perLayer("service.shed", double(St["shed"]), "count");
  Res.perLayer("service.worker_crashes", double(St["worker_crashes"]),
               "count");
  Res.perLayer("service.degraded", double(St["served_degraded"]), "count");
  if (St["shed"] || St["worker_crashes"] || St["served_degraded"])
    Res.fail("daemon reports shed, crashed or degraded requests");

  if (A.Trace) {
    SelfTimes ST = Tr.selfTimes();
    Res.layers(ST);
    Res.perLayer("trace.overhead_pct", Meter.percent(), "%");
    std::vector<ServiceRequest> Sample;
    std::vector<const ServiceResponse *> SampleRefs;
    for (uint32_t Id : ToCheck) {
      Sample.push_back(makeRequest(P.Ids[Id], Step()));
      SampleRefs.push_back(&Refs[Id]);
    }
    InProcess IP = probeInProcess(Sample, SampleRefs, Res);
    double CoreMs = median(NewCoreMs);
    Res.perLayer("service.worker_core_ms", CoreMs, "ms");
    Res.perLayer("service.journal_append_us", IP.JournalAppendUs, "us");
    Res.perLayer("service.lookup_hit_ns", IP.LookupHitNs, "ns");
    Res.perLayer("service.lookup_miss_ns", IP.LookupMissNs, "ns");
    Res.perLayer("service.raw_hash_us", IP.RawHashUs, "us");
    Res.perLayer("service.codec_us", IP.CodecUs, "us");
    Res.perLayer("service.unattributed_ms",
                 median(ClassMs[0]) - CoreMs - IP.JournalAppendUs / 1e3, "ms");
    std::string Base = "service-seed" + std::to_string(A.Seed);
    if (!Tr.write(Base + ".trace.json", Base + ".selftime.txt"))
      Res.fail("cannot write the trace files under " + std::string(Out));
  }
  return Res.finish(A);
}

} // namespace perfbench
