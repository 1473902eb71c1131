//===- tests/service/worker_test.cpp ---------------------------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker's pure compile core (compileServiceRequest) and the
/// degradation ladder, driven in-process with no daemon: request
/// validation, canonical content keys across textual variants (a
/// metamorphic check over generated kernels), the key callback, byte-
/// stable results (cached-vs-fresh equivalence), run-mode
/// simulation with its trap and budget semantics, guard-rail incident
/// reporting for injected pass faults at every rung, and the ladder's
/// options transform itself.
///
//===----------------------------------------------------------------------===//

#include "service/Worker.h"

#include "fuzz/KernelGen.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/FaultInjection.h"
#include "sim/Memory.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>

using namespace vpo;
using namespace vpo::service;

namespace {

/// A loop kernel with a narrow load the coalescer can chew on. Sums r2
/// 16-bit elements starting at r1; zero-filled memory -> returns 0.
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

/// A paper workload kernel (image_add) as request text: unlike the tiny
/// hand-written loop, it gives the coalescer real runs to transform and
/// every fault kind an injection site.
std::string workloadIR() {
  std::unique_ptr<Workload> W = makeWorkloadByName("image_add");
  Module M;
  Function *F = W->build(M);
  return printFunction(*F);
}

ServiceRequest compileReq(const char *IR = SumKernel) {
  ServiceRequest Req;
  Req.Op = "compile";
  Req.Id = "t";
  Req.IR = IR;
  Req.Config = "coalesce-all";
  Req.Target = "alpha";
  return Req;
}

bool isHexKey(const std::string &K) {
  if (K.size() != 32)
    return false;
  for (char C : K)
    if (!((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Named configurations and the ladder
//===----------------------------------------------------------------------===//

TEST(ServiceConfigs, MirrorsTheOracleMatrix) {
  const std::vector<PipelineConfig> &Cfgs = serviceConfigs();
  ASSERT_EQ(Cfgs.size(), 6u);
  const char *Expected[] = {"O0",           "vpo-O",
                            "coalesce-loads", "coalesce-all",
                            "coalesce-all+companions", "coalesce-all-u4"};
  for (const char *Name : Expected) {
    const PipelineConfig *C = serviceConfigByName(Name);
    ASSERT_NE(C, nullptr) << Name;
    EXPECT_EQ(C->Name, Name);
  }
  EXPECT_EQ(serviceConfigByName("no-such-config"), nullptr);
}

TEST(Ladder, RungZeroPassesTheConfigThrough) {
  const CompileOptions &Req =
      serviceConfigByName("coalesce-all")->Options;
  CompileOptions CO = ladderOptions(Req, 0);
  EXPECT_EQ(CO.Mode, Req.Mode);
  EXPECT_EQ(CO.Unroll, Req.Unroll);
  EXPECT_EQ(CO.Schedule, Req.Schedule);
}

TEST(Ladder, RungOneDisablesCoalescingAndCompanions) {
  CompileOptions Req = serviceConfigByName("coalesce-all")->Options;
  Req.OptimizeRecurrences = true;
  Req.ScalarReplace = true;
  CompileOptions CO = ladderOptions(Req, 1);
  EXPECT_EQ(CO.Mode, CoalesceMode::None);
  EXPECT_FALSE(CO.OptimizeRecurrences);
  EXPECT_FALSE(CO.ScalarReplace);
  EXPECT_TRUE(CO.GuardRails) << "every rung keeps the guard rails";
}

TEST(Ladder, RungTwoIsTheReferencePipeline) {
  CompileOptions O0 = serviceConfigByName("O0")->Options;
  for (unsigned Rung = maxServiceRung; Rung <= maxServiceRung + 2; ++Rung) {
    CompileOptions CO =
        ladderOptions(serviceConfigByName("coalesce-all-u4")->Options, Rung);
    EXPECT_EQ(CO.Mode, O0.Mode) << "rung " << Rung;
    EXPECT_EQ(CO.Unroll, O0.Unroll) << "rung " << Rung;
    EXPECT_EQ(CO.Schedule, O0.Schedule) << "rung " << Rung;
    EXPECT_EQ(CO.Cleanup, O0.Cleanup) << "rung " << Rung;
    EXPECT_TRUE(CO.GuardRails) << "rung " << Rung;
  }
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

TEST(WorkerValidation, RejectsNonCompileOps) {
  ServiceRequest Req = compileReq();
  Req.Op = "status";
  ServiceResponse R = compileServiceRequest(Req, WorkerLimits());
  EXPECT_EQ(R.Status, ErrorCode::Unsupported);
}

TEST(WorkerValidation, UnknownConfigAndTargetAreStructuredErrors) {
  ServiceRequest Req = compileReq();
  Req.Config = "O9";
  ServiceResponse R = compileServiceRequest(Req, WorkerLimits());
  EXPECT_EQ(R.Status, ErrorCode::Unsupported);
  EXPECT_NE(R.Error.find("unknown config"), std::string::npos);

  Req = compileReq();
  Req.Target = "riscv";
  R = compileServiceRequest(Req, WorkerLimits());
  EXPECT_EQ(R.Status, ErrorCode::Unsupported);
  EXPECT_NE(R.Error.find("unknown target"), std::string::npos);
}

TEST(WorkerValidation, ParseErrorCarriesTheDiagnosticAndZeroKey) {
  ServiceRequest Req = compileReq("func @broken( {\n");
  ContentKey Canon;
  Canon.Hi = 1; // must be cleared even on failure
  ServiceResponse R = compileServiceRequest(Req, WorkerLimits(), &Canon);
  EXPECT_EQ(R.Status, ErrorCode::ParseError);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_TRUE(Canon.isZero());
}

TEST(WorkerValidation, MalformedRunArgsAreRejected) {
  ServiceRequest Req = compileReq();
  Req.RunArgs = "4096,eight";
  ServiceResponse R = compileServiceRequest(Req, WorkerLimits());
  EXPECT_EQ(R.Status, ErrorCode::ParseError);
  EXPECT_NE(R.Error.find("run args"), std::string::npos);
}

TEST(WorkerValidation, FaultPlantsRefusedUnlessDaemonAllowsThem) {
  ServiceRequest Req = compileReq();
  Req.Fault = "crash";
  WorkerLimits Limits; // AllowFaultInjection defaults to false
  ServiceResponse R = compileServiceRequest(Req, Limits);
  EXPECT_EQ(R.Status, ErrorCode::Unsupported);
  EXPECT_NE(R.Error.find("fault"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Compiles and content keys
//===----------------------------------------------------------------------===//

TEST(WorkerCompile, CleanCompileReturnsFullPayload) {
  ContentKey Canon;
  ServiceResponse R =
      compileServiceRequest(compileReq(), WorkerLimits(), &Canon);
  ASSERT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  EXPECT_EQ(R.Rung, 0u);
  EXPECT_TRUE(R.Degraded.empty());
  EXPECT_TRUE(R.Incidents.empty());
  EXPECT_FALSE(R.IR.empty());
  EXPECT_FALSE(R.Stats.empty());
  EXPECT_TRUE(isHexKey(R.Key)) << R.Key;
  EXPECT_EQ(R.Key, Canon.hex());
  // The optimized IR must itself be valid input (roundtrip property).
  std::vector<Diagnostic> Diags;
  EXPECT_NE(parseModule(R.IR, Diags), nullptr);
}

TEST(WorkerCompile, DeterministicByteIdenticalResults) {
  // The cached-vs-fresh guarantee reduces to this: two compiles of one
  // request produce identical result signatures, so a replayed cache
  // entry is indistinguishable from a fresh compile.
  ServiceRequest Req = compileReq();
  Req.RunArgs = "8192,16";
  ServiceResponse A = compileServiceRequest(Req, WorkerLimits());
  ServiceResponse B = compileServiceRequest(Req, WorkerLimits());
  ASSERT_EQ(A.Status, ErrorCode::Ok) << A.Error;
  EXPECT_EQ(A.resultSignature(), B.resultSignature());
}

/// A run-mode request for the key checks: the hand-written SumKernel and
/// a fixed-seed set of KernelGen kernels, each with arguments laid out
/// over the worker's 64 KB run arena.
struct KeyCase {
  std::string IR;
  std::vector<int64_t> Args;
};

std::vector<KeyCase> keyCases() {
  std::vector<KeyCase> Cases = {{SumKernel, {8192, 8}}};
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    fuzz::GeneratedKernel K = fuzz::generateKernel(Seed);
    Memory Arena(64 * 1024 + 4096); // the layout the worker's arena gets
    Cases.push_back(
        {K.IRText, fuzz::setupKernelMemory(K.Spec, 8, Arena, 0)});
  }
  return Cases;
}

ServiceRequest caseReq(const std::string &IR,
                       const std::vector<int64_t> &Args) {
  ServiceRequest Req = compileReq(IR.c_str());
  for (int64_t A : Args)
    Req.RunArgs += (Req.RunArgs.empty() ? "" : ",") + std::to_string(A);
  Req.ArenaKB = 64;
  return Req;
}

/// \p IR with \p Edit applied to every line.
std::string
perLine(const std::string &IR,
        const std::function<std::string(const std::string &)> &Edit) {
  std::string Out;
  for (size_t Pos = 0; Pos < IR.size();) {
    size_t NL = std::min(IR.find('\n', Pos), IR.size());
    Out += Edit(IR.substr(Pos, NL - Pos)) + "\n";
    Pos = NL + 1;
  }
  return Out;
}

/// \p IR with the number that starts at \p At replaced by \p Edit(number).
std::string editNumberAt(const std::string &IR, size_t At,
                         const std::function<int64_t(int64_t)> &Edit) {
  size_t End = IR.find_first_not_of("-0123456789", At);
  int64_t V = std::stoll(IR.substr(At, End - At));
  return IR.substr(0, At) + std::to_string(Edit(V)) + IR.substr(End);
}

/// \returns the canonical key of \p Req, stopping at the key callback.
ContentKey keyOf(const ServiceRequest &Req) {
  ContentKey K;
  ServiceResponse R = compileServiceRequest(
      Req, WorkerLimits(), nullptr, [&K](const ContentKey &C) {
        K = C;
        return true;
      });
  EXPECT_TRUE(R.Cached) << "never reached the key: " << R.Error;
  return K;
}

TEST(WorkerCompile, WhitespaceVariantsShareTheCanonicalKey) {
  // A canonical hit serves stored bytes to text that was never compiled,
  // so every non-semantic spelling must give the same key *and* compile
  // to the same result.
  for (const KeyCase &KC : keyCases()) {
    SCOPED_TRACE(KC.IR);
    ServiceRequest Base = caseReq(KC.IR, KC.Args);
    ContentKey K1;
    ServiceResponse R1 = compileServiceRequest(Base, WorkerLimits(), &K1);
    ASSERT_EQ(R1.Status, ErrorCode::Ok) << R1.Error;
    ASSERT_TRUE(R1.Ran);
    EXPECT_FALSE(K1.isZero());
    const std::pair<const char *, std::string> Spellings[] = {
        {"blank lines",
         perLine(KC.IR, [](const std::string &L) { return L + "\n"; })},
        {"trailing spaces",
         perLine(KC.IR, [](const std::string &L) { return L + " \t "; })},
        {"// comment lines", perLine(KC.IR,
                                     [](const std::string &L) {
                                       return "// note\n" + L;
                                     })},
        {"# comment lines", "# kernel\n" + KC.IR + "# end of kernel\n"},
    };
    for (const auto &[What, Text] : Spellings) {
      ServiceRequest Variant = Base;
      Variant.IR = Text;
      ContentKey K2;
      ServiceResponse R2 = compileServiceRequest(Variant, WorkerLimits(), &K2);
      EXPECT_EQ(K1, K2) << What;
      EXPECT_EQ(R1.resultSignature(), R2.resultSignature()) << What;
    }
  }
}

TEST(WorkerCompile, ConfigTargetAndRunShapeTheKey) {
  // Each single semantic edit must move the key, or a canonical hit would
  // serve one request's stored result to another.
  for (const KeyCase &KC : keyCases()) {
    SCOPED_TRACE(KC.IR);
    ServiceRequest Base = caseReq(KC.IR, KC.Args);
    ContentKey K = keyOf(Base);
    auto ExpectMoved = [&K](const char *What, const ServiceRequest &Req) {
      EXPECT_FALSE(keyOf(Req) == K) << What;
    };

    size_t Mov = KC.IR.find(" = mov ");
    while (Mov != std::string::npos && !std::isdigit(KC.IR[Mov + 7]))
      Mov = KC.IR.find(" = mov ", Mov + 1);
    ASSERT_NE(Mov, std::string::npos);
    ServiceRequest Imm = Base;
    Imm.IR = editNumberAt(KC.IR, Mov + 7, [](int64_t V) { return V + 1; });
    ExpectMoved("immediate", Imm);

    size_t Mem = std::min(KC.IR.find("load.i"), KC.IR.find("store.i"));
    ASSERT_NE(Mem, std::string::npos);
    ServiceRequest Width = Base;
    Width.IR = editNumberAt(KC.IR, KC.IR.find(".i", Mem) + 2, [](int64_t W) {
      return W == 64 ? 32 : W * 2;
    });
    ExpectMoved("load/store width", Width);

    ServiceRequest Tgt = Base;
    Tgt.Target = "m88100";
    ExpectMoved("target", Tgt);

    ServiceRequest Cfg = Base;
    Cfg.Config = "O0";
    ExpectMoved("config", Cfg);

    std::vector<int64_t> Args = KC.Args;
    Args.back() += 1;
    ExpectMoved("run args", caseReq(KC.IR, Args));

    ServiceRequest Arena = Base;
    Arena.ArenaKB = 128;
    ExpectMoved("arena size", Arena);
  }
}

TEST(WorkerCompile, KeyCallbackIsAskedOnlyWhenTheExchangeIsDue) {
  ServiceRequest Req = compileReq();
  ServiceResponse Full = compileServiceRequest(Req, WorkerLimits());
  ASSERT_EQ(Full.Status, ErrorCode::Ok) << Full.Error;

  // Asked once, after parsing; "stored" ends the attempt before the
  // pipeline with the key and no payload.
  unsigned Asked = 0;
  ServiceResponse Hit = compileServiceRequest(
      Req, WorkerLimits(), nullptr, [&](const ContentKey &K) {
        ++Asked;
        EXPECT_EQ(K.hex(), Full.Key);
        return true;
      });
  EXPECT_EQ(Asked, 1u);
  EXPECT_TRUE(Hit.Cached);
  EXPECT_EQ(Hit.Key, Full.Key);
  EXPECT_TRUE(Hit.IR.empty());
  EXPECT_TRUE(Hit.Stats.empty());

  // "Not stored" compiles exactly as with no callback.
  ServiceResponse Miss = compileServiceRequest(
      Req, WorkerLimits(), nullptr, [](const ContentKey &) { return false; });
  EXPECT_FALSE(Miss.Cached);
  EXPECT_EQ(Miss.resultSignature(), Full.resultSignature());

  // Degraded and planted attempts must reach the pipeline unasked.
  KeyCallback Never = [](const ContentKey &) {
    ADD_FAILURE() << "asked on an attempt the exchange is not due for";
    return true;
  };
  ServiceRequest Degraded = Req;
  Degraded.Rung = 1;
  EXPECT_FALSE(
      compileServiceRequest(Degraded, WorkerLimits(), nullptr, Never).Cached);
  ServiceRequest Planted = Req;
  Planted.Fault = "coalesce:not-a-kind:1";
  WorkerLimits Faulty;
  Faulty.AllowFaultInjection = true;
  EXPECT_FALSE(compileServiceRequest(Planted, Faulty, nullptr, Never).Cached);
}

TEST(WorkerCompile, ServingFlagsDoNotChangeTheKey) {
  // WantIR/WantRemarks are filtered at serve time by the daemon; the
  // worker's result and key must not depend on them, or cache identity
  // would fracture by client preference.
  ServiceRequest A = compileReq();
  ServiceRequest B = compileReq();
  B.WantIR = false;
  B.WantRemarks = true;
  ContentKey KA, KB;
  ServiceResponse RA = compileServiceRequest(A, WorkerLimits(), &KA);
  ServiceResponse RB = compileServiceRequest(B, WorkerLimits(), &KB);
  EXPECT_EQ(KA, KB);
  EXPECT_EQ(RA.resultSignature(), RB.resultSignature());
}

//===----------------------------------------------------------------------===//
// Run mode
//===----------------------------------------------------------------------===//

TEST(WorkerRun, SimulationReportsResultAndCost) {
  ServiceRequest Req = compileReq();
  Req.RunArgs = "8192,8";
  ServiceResponse R = compileServiceRequest(Req, WorkerLimits());
  ASSERT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  EXPECT_TRUE(R.Ran);
  EXPECT_EQ(R.RunStatus, "ok");
  EXPECT_EQ(R.ReturnValue, 0) << "zero-filled arena sums to zero";
  EXPECT_GT(R.Instructions, 0u);
  // Run mode executes on the functional tiered engine: architectural
  // results are exact, but there is no cycle model to report.
  EXPECT_EQ(R.Cycles, 0u);
}

TEST(WorkerRun, OutOfBoundsIsACacheableTrapNotAnError) {
  ServiceRequest Req = compileReq();
  Req.RunArgs = "999999999,4"; // base far outside any arena
  ServiceResponse R = compileServiceRequest(Req, WorkerLimits());
  EXPECT_EQ(R.Status, ErrorCode::Ok)
      << "a trap is a deterministic property of (kernel, args, arena)";
  EXPECT_TRUE(R.Ran);
  EXPECT_EQ(R.RunStatus, "out-of-bounds");
}

TEST(WorkerRun, StepBudgetExhaustionIsResourceExhausted) {
  ServiceRequest Req = compileReq();
  Req.RunArgs = "8192,1000000"; // far more iterations than the budget
  WorkerLimits Limits;
  Limits.MaxInsts = 1000;
  ServiceResponse R = compileServiceRequest(Req, Limits);
  EXPECT_EQ(R.Status, ErrorCode::ResourceExhausted);
  EXPECT_TRUE(R.Ran);
  EXPECT_EQ(R.RunStatus, "step-limit");
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(WorkerRun, NativePromotionPolicyNeverChangesTheAnswer) {
  // Rung 2 and --no-jit daemons withhold native promotion (the tiered
  // engine stays on its portable interpreter tier); the architectural
  // outcome a client sees must not move. Instruction counts differ
  // across rungs (different pipelines), so only result fields compare.
  ServiceRequest Req = compileReq();
  Req.RunArgs = "8192,8";
  ServiceResponse R0 = compileServiceRequest(Req, WorkerLimits());
  ASSERT_EQ(R0.Status, ErrorCode::Ok) << R0.Error;

  ServiceRequest Degraded = Req;
  Degraded.Rung = maxServiceRung;
  ServiceResponse R2 = compileServiceRequest(Degraded, WorkerLimits());
  EXPECT_EQ(R2.RunStatus, R0.RunStatus);
  EXPECT_EQ(R2.ReturnValue, R0.ReturnValue);
  EXPECT_EQ(R2.Cycles, 0u);

  WorkerLimits NoJit;
  NoJit.JITNative = false;
  ServiceResponse RN = compileServiceRequest(Req, NoJit);
  EXPECT_EQ(RN.RunStatus, R0.RunStatus);
  EXPECT_EQ(RN.ReturnValue, R0.ReturnValue);
  EXPECT_EQ(RN.Instructions, R0.Instructions)
      << "same pipeline, same kernel: promotion is invisible";
}

//===----------------------------------------------------------------------===//
// Fault plants and the ladder, in-process
//===----------------------------------------------------------------------===//

WorkerLimits faultyLimits() {
  WorkerLimits L;
  L.AllowFaultInjection = true;
  return L;
}

TEST(WorkerFaults, CrashPlantIgnoresRungsAboveItsBound) {
  // "crash" defaults to max rung 0: a rung-1 attempt must survive it.
  // (That the plant really kills rung 0 is proven through the daemon in
  // daemon_test.cpp — in-process it would take the test binary with it.)
  ServiceRequest Req = compileReq();
  Req.Fault = "crash";
  Req.Rung = 1;
  ServiceResponse R = compileServiceRequest(Req, faultyLimits());
  EXPECT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  EXPECT_EQ(R.Rung, 1u);
}

TEST(WorkerFaults, EveryFaultKindIsCaughtByTheGuardRails) {
  std::string IR = workloadIR();
  const FaultKind Kinds[] = {FaultKind::WrongWidth, FaultKind::ClobberedBase,
                             FaultKind::DroppedCheck,
                             FaultKind::MissingOperand, FaultKind::EmptyBlock};
  for (FaultKind K : Kinds) {
    SCOPED_TRACE(faultKindName(K));
    ServiceRequest Req = compileReq(IR.c_str());
    Req.Fault = std::string("coalesce:") + faultKindName(K) + ":42";
    ServiceResponse R = compileServiceRequest(Req, faultyLimits());
    ASSERT_EQ(R.Status, ErrorCode::Ok)
        << "a corrupted optional pass must degrade, not fail: " << R.Error;
    EXPECT_NE(R.Incidents.find("pass=coalesce"), std::string::npos)
        << R.Incidents;
    EXPECT_NE(R.Incidents.find("rolled-back"), std::string::npos);
    EXPECT_NE(R.Incidents.find("disabled"), std::string::npos);
    // The rolled-back compile really did skip coalescing.
    EXPECT_NE(R.Stats.find("\"load-runs\":0"), std::string::npos) << R.Stats;
  }
}

TEST(WorkerFaults, LadderRungsSkipPlantsOnPassesTheyDisable) {
  // The companion-pass plant fires at rung 0 but is inert at rung 1,
  // which disables the recurrence pass outright — degraded attempts must
  // not re-trip the very machinery the ladder turned off.
  ServiceRequest Req = compileReq();
  Req.Config = "coalesce-all+companions";
  Req.Fault = "recurrence:wrong-width:42";
  ServiceResponse R0 = compileServiceRequest(Req, faultyLimits());
  ASSERT_EQ(R0.Status, ErrorCode::Ok) << R0.Error;
  EXPECT_NE(R0.Incidents.find("pass=recurrence"), std::string::npos)
      << R0.Incidents;

  Req.Rung = 1;
  ServiceResponse R1 = compileServiceRequest(Req, faultyLimits());
  ASSERT_EQ(R1.Status, ErrorCode::Ok) << R1.Error;
  EXPECT_TRUE(R1.Incidents.empty()) << R1.Incidents;
}

TEST(WorkerFaults, MalformedPlantSpecIsInert) {
  // An unknown plant string neither crashes nor corrupts: the compile
  // proceeds as if unplanted (only recognized specs bind hooks).
  ServiceRequest Req = compileReq();
  Req.Fault = "coalesce:not-a-kind:1";
  ServiceResponse R = compileServiceRequest(Req, faultyLimits());
  EXPECT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  EXPECT_TRUE(R.Incidents.empty());
}

//===----------------------------------------------------------------------===//
// Growth budget
//===----------------------------------------------------------------------===//

TEST(WorkerBudget, GrowthBudgetRollsBackTheExplodingPass) {
  // A budget far under the forced-4x unroll's output: the exploding
  // coalesce pass trips it and is rolled back as a resource incident;
  // the compile still finishes.
  std::unique_ptr<Workload> W = makeWorkloadByName("image_add");
  Module M;
  Function *F = W->build(M);
  ServiceRequest Req = compileReq(printFunction(*F).c_str());
  Req.Config = "coalesce-all-u4";
  WorkerLimits Limits;
  // Twice the kernel's size: enough headroom for legalization's modest
  // growth, nowhere near the unrolled explosion.
  Limits.MaxFunctionInsts = F->instructionCount() * 2;
  ServiceResponse R = compileServiceRequest(Req, Limits);
  ASSERT_EQ(R.Status, ErrorCode::Ok) << R.Error;
  EXPECT_NE(R.Incidents.find("pass=coalesce rolled-back"), std::string::npos)
      << R.Incidents;
  // With an unconstrained budget the same request keeps the transform.
  ServiceResponse Free = compileServiceRequest(Req, WorkerLimits());
  ASSERT_EQ(Free.Status, ErrorCode::Ok) << Free.Error;
  EXPECT_TRUE(Free.Incidents.empty()) << Free.Incidents;
  EXPECT_GT(Free.IR.size(), R.IR.size())
      << "the budgeted compile must be the smaller, un-exploded one";
}

} // namespace
