//===- service/Worker.cpp - Crash-contained compile worker ------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//

#include "service/Worker.h"

#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/FaultInjection.h"
#include "sim/Interpreter.h"
#include "sim/Memory.h"
#include "support/Posix.h"
#include "support/Remark.h"
#include "target/TargetMachine.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace vpo;
using namespace vpo::service;

//===----------------------------------------------------------------------===//
// Configurations and the degradation ladder
//===----------------------------------------------------------------------===//

const std::vector<PipelineConfig> &vpo::service::serviceConfigs() {
  // Mirrors the fuzzer's oracle matrix (fuzz/Oracle.cpp) by name so a
  // kernel that survived fuzzing is requestable under the same labels —
  // without making the service link the fuzzing subsystem.
  static const std::vector<PipelineConfig> Configs = [] {
    std::vector<PipelineConfig> Cfgs;
    {
      PipelineConfig C;
      C.Name = "O0";
      C.Options.Mode = CoalesceMode::None;
      C.Options.Unroll = false;
      C.Options.Schedule = false;
      C.Options.Cleanup = false;
      Cfgs.push_back(C);
    }
    {
      PipelineConfig C;
      C.Name = "vpo-O";
      C.Options.Mode = CoalesceMode::None;
      Cfgs.push_back(C);
    }
    {
      PipelineConfig C;
      C.Name = "coalesce-loads";
      C.Options.Mode = CoalesceMode::Loads;
      Cfgs.push_back(C);
    }
    {
      PipelineConfig C;
      C.Name = "coalesce-all";
      C.Options.Mode = CoalesceMode::LoadsAndStores;
      Cfgs.push_back(C);
    }
    {
      PipelineConfig C;
      C.Name = "coalesce-all+companions";
      C.Options.Mode = CoalesceMode::LoadsAndStores;
      C.Options.OptimizeRecurrences = true;
      C.Options.ScalarReplace = true;
      Cfgs.push_back(C);
    }
    {
      PipelineConfig C;
      C.Name = "coalesce-all-u4";
      C.Options.Mode = CoalesceMode::LoadsAndStores;
      C.Options.UnrollFactor = 4;
      Cfgs.push_back(C);
    }
    return Cfgs;
  }();
  return Configs;
}

const PipelineConfig *vpo::service::serviceConfigByName(
    const std::string &Name) {
  for (const PipelineConfig &C : serviceConfigs())
    if (C.Name == Name)
      return &C;
  return nullptr;
}

CompileOptions vpo::service::ladderOptions(const CompileOptions &Requested,
                                           unsigned Rung) {
  if (Rung == 0)
    return Requested;
  if (Rung == 1) {
    // Conservative: the requested pipeline minus coalescing and its
    // companion passes — the machinery most likely to have hurt the
    // previous attempt. Equivalent to the "vpo -O" column.
    CompileOptions CO = Requested;
    CO.Mode = CoalesceMode::None;
    CO.OptimizeRecurrences = false;
    CO.ScalarReplace = false;
    return CO;
  }
  // Rung 2+: the O0 reference pipeline, identical to the "O0" named
  // config the differential fuzzer baselines against.
  CompileOptions CO = serviceConfigByName("O0")->Options;
  CO.TraceHook = Requested.TraceHook;
  return CO;
}

//===----------------------------------------------------------------------===//
// Fault plants
//===----------------------------------------------------------------------===//

namespace {

/// Parses "NAME" or "NAME:K" (K = highest rung the plant fires on).
bool parsePlant(const std::string &Fault, const char *Name,
                unsigned &MaxRung) {
  size_t N = std::strlen(Name);
  if (Fault.compare(0, N, Name) != 0)
    return false;
  if (Fault.size() == N) {
    MaxRung = 0;
    return true;
  }
  if (Fault[N] != ':')
    return false;
  char *End = nullptr;
  unsigned long K = std::strtoul(Fault.c_str() + N + 1, &End, 10);
  if (End == Fault.c_str() + N + 1 || *End != '\0')
    return false;
  MaxRung = static_cast<unsigned>(K);
  return true;
}

std::optional<FaultKind> faultKindByName(const std::string &Name) {
  static const FaultKind All[] = {FaultKind::WrongWidth,
                                  FaultKind::ClobberedBase,
                                  FaultKind::DroppedCheck,
                                  FaultKind::MissingOperand,
                                  FaultKind::EmptyBlock};
  for (FaultKind K : All)
    if (Name == faultKindName(K))
      return K;
  return std::nullopt;
}

/// "pass:kind:seed" -> a bound FaultInjector hook, or nullopt.
std::optional<FaultInjector> parseInjectPlant(const std::string &Fault) {
  size_t C1 = Fault.find(':');
  if (C1 == std::string::npos)
    return std::nullopt;
  size_t C2 = Fault.find(':', C1 + 1);
  if (C2 == std::string::npos)
    return std::nullopt;
  std::optional<FaultKind> K =
      faultKindByName(Fault.substr(C1 + 1, C2 - C1 - 1));
  if (!K)
    return std::nullopt;
  char *End = nullptr;
  uint64_t Seed = std::strtoull(Fault.c_str() + C2 + 1, &End, 10);
  if (End == Fault.c_str() + C2 + 1 || *End != '\0')
    return std::nullopt;
  return FaultInjector(Fault.substr(0, C1), *K, Seed);
}

/// Honors a crash/hang plant: dies (or never returns) when the plant's
/// rung bound covers \p Rung. The bound is what makes the ladder
/// testable — "crash:1" kills the rung-0 and rung-1 attempts, so the
/// client's answer must have come from the rung-2 reference compile.
void maybeDie(const std::string &Fault, unsigned Rung) {
  unsigned MaxRung = 0;
  if (parsePlant(Fault, "crash", MaxRung) && Rung <= MaxRung)
    __builtin_trap();
  if (parsePlant(Fault, "hang", MaxRung) && Rung <= MaxRung) {
    for (;;) {
#if defined(__unix__) || defined(__APPLE__)
      ::usleep(50'000);
#endif
    }
  }
}

std::string renderIncidents(const CompileReport &Rep) {
  std::string Out;
  for (const CompileReport::PassIncident &I : Rep.Incidents) {
    if (!Out.empty())
      Out += ";";
    Out += "pass=" + I.Pass;
    if (I.RolledBack)
      Out += " rolled-back";
    if (I.Retried)
      Out += " retried";
    if (I.Disabled)
      Out += " disabled";
    if (I.PipelineStopped)
      Out += " stopped";
  }
  return Out;
}

/// Comma-separated int64 list. \returns false on any malformed element.
bool parseRunArgs(const std::string &Text, std::vector<int64_t> &Out) {
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = Text.find(',', Pos);
    std::string Tok = Text.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    if (Tok.empty())
      return false;
    errno = 0;
    char *End = nullptr;
    long long V = std::strtoll(Tok.c_str(), &End, 0);
    if (End != Tok.c_str() + Tok.size() || errno == ERANGE)
      return false;
    Out.push_back(static_cast<int64_t>(V));
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return true;
}

ServiceResponse errorResponse(const ServiceRequest &Req, ErrorCode Code,
                              std::string Error) {
  ServiceResponse R;
  R.Id = Req.Id;
  R.Rung = Req.Rung;
  R.Status = Code;
  R.Error = std::move(Error);
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// The compile core
//===----------------------------------------------------------------------===//

ServiceResponse vpo::service::compileServiceRequest(const ServiceRequest &Req,
                                                    const WorkerLimits &Limits,
                                                    ContentKey *Canon,
                                                    const KeyCallback &OnKey) {
  if (Canon)
    *Canon = ContentKey();

  if (Req.Op != "compile")
    return errorResponse(Req, ErrorCode::Unsupported,
                         "worker handles op=compile only, got \"" + Req.Op +
                             "\"");
  if (!Req.Fault.empty() && !Limits.AllowFaultInjection)
    return errorResponse(
        Req, ErrorCode::Unsupported,
        "fault plants require a daemon started with --allow-fault-injection");

  const PipelineConfig *Cfg = serviceConfigByName(Req.Config);
  if (!Cfg) {
    std::string Known;
    for (const PipelineConfig &C : serviceConfigs())
      Known += (Known.empty() ? "" : ", ") + C.Name;
    return errorResponse(Req, ErrorCode::Unsupported,
                         "unknown config \"" + Req.Config + "\" (known: " +
                             Known + ")");
  }
  std::optional<TargetMachine> TM = tryMakeTargetByName(Req.Target);
  if (!TM) {
    std::string Known;
    for (const std::string &N : knownTargetNames())
      Known += (Known.empty() ? "" : ", ") + N;
    return errorResponse(Req, ErrorCode::Unsupported,
                         "unknown target \"" + Req.Target + "\" (known: " +
                             Known + ")");
  }

  std::vector<int64_t> RunArgs;
  if (!Req.RunArgs.empty() && !parseRunArgs(Req.RunArgs, RunArgs))
    return errorResponse(Req, ErrorCode::ParseError,
                         "malformed run args \"" + Req.RunArgs +
                             "\" (want comma-separated integers)");

  std::vector<Diagnostic> ParseDiags;
  std::unique_ptr<Module> M = parseModule(Req.IR, ParseDiags);
  if (!M)
    return errorResponse(Req, ErrorCode::ParseError,
                         ParseDiags.empty() ? "unparseable IR"
                                            : ParseDiags.front().render());
  if (M->functions().empty())
    return errorResponse(Req, ErrorCode::ParseError,
                         "module contains no function");
  Function &F = *M->functions().front();

  // Canonical content key: parse -> print normalizes whitespace and
  // comments, so textual variants of one kernel share a store entry.
  // Run-mode requests get a distinct key (they carry extra results).
  ContentKey Key = hashContent(printFunction(F), Cfg->Name, Req.Target,
                               runSignature(Req));
  if (Canon)
    *Canon = Key;

  ServiceResponse R;
  R.Id = Req.Id;
  R.Rung = Req.Rung;
  R.Key = Key.hex();

  // A textual variant of stored content ends here: the daemon serves the
  // stored result, so the pipeline, the audit and the run are not paid
  // twice for one kernel.
  if (OnKey && keyExchangeDue(Req.Rung, Req.Fault) && OnKey(Key)) {
    R.Cached = true;
    return R;
  }

  // Crash/hang plants fire after parsing, before the pipeline — a real
  // worker death on a well-formed request, which is exactly the shape of
  // failure the daemon's containment and ladder exist for.
  if (Limits.AllowFaultInjection && !Req.Fault.empty())
    maybeDie(Req.Fault, Req.Rung);

  CollectingRemarkSink Sink;
  CompileOptions CO = ladderOptions(Cfg->Options, Req.Rung);
  CO.GuardRails = true;
  CO.MaxFunctionInsts = Limits.MaxFunctionInsts;
  // Always collect remarks: the response filter (WantRemarks) is applied
  // at serving time so the flag never changes what gets cached, and the
  // telemetry contract guarantees the sink cannot perturb the compile.
  CO.Remarks = &Sink;
  if (Limits.AllowFaultInjection && !Req.Fault.empty())
    if (std::optional<FaultInjector> Inj = parseInjectPlant(Req.Fault))
      CO.FaultHook = *Inj;

  CompileReport Rep = compileFunction(F, *TM, CO);
  R.Incidents = renderIncidents(Rep);
  R.Stats = Rep.Coalesce.toJson();
  R.Remarks = Sink.toJsonLines();
  R.IR = printFunction(F);
  if (!Rep.Succeeded) {
    // Input never verified or a required pass failed after retry. The
    // diagnostics say which; surface the most specific code we have.
    std::vector<Diagnostic> Diags = Rep.allDiagnostics();
    R.Status = Diags.empty() ? ErrorCode::PassFailed : Diags.front().Code;
    if (R.Status == ErrorCode::Ok)
      R.Status = ErrorCode::PassFailed;
    R.Error = Diags.empty() ? "pipeline failed" : Diags.front().render();
    return R;
  }

  if (!Req.RunArgs.empty()) {
    size_t ArenaBytes =
        (Req.ArenaKB ? Req.ArenaKB : 64) * size_t(1024) + 4096;
    Memory Mem(ArenaBytes);
    InterpreterOptions IO;
    IO.MaxSteps = Limits.MaxInsts;
    // Run mode answers "what does this kernel compute" — return value,
    // memory effects, trap point — not "how fast", so it executes on the
    // functional tiered engine: exact architectural results (including
    // byte-identical trap diagnostics) with Cycles reported as 0. Native
    // promotion is withheld at the last ladder rung: an input that has
    // already killed workers stays on the portable interpreter tier.
    IO.EnableJIT = true;
    IO.JITNative = Limits.JITNative && Req.Rung < maxServiceRung;
    // "jit-wild-store[:N]" plants a wild store into the Nth native block
    // (jit/JIT.h fault injector): the quarantine machinery must catch
    // the fault, permanently deopt the block, and replay per-op on the
    // interpreter — the response must still be architecturally exact.
    unsigned PlantBlock = 0;
    if (Limits.AllowFaultInjection && IO.JITNative &&
        parsePlant(Req.Fault, "jit-wild-store", PlantBlock)) {
      IO.JITPlantWildStore = PlantBlock ? PlantBlock : 1;
      // Service kernels iterate only a handful of times; promote almost
      // immediately so the planted block actually compiles and faults.
      IO.JITHotThreshold = 2;
      IO.Remarks = &Sink; // surface jit-native-fault / jit-summary
    }
    Interpreter Interp(*TM, Mem, IO);
    RunResult RR = Interp.run(F, RunArgs);
    if (IO.Remarks)
      R.Remarks = Sink.toJsonLines(); // re-render: include run remarks
    R.Ran = true;
    R.RunStatus = runStatusName(RR.Exit);
    R.ReturnValue = RR.ReturnValue;
    R.Cycles = RR.Cycles;
    R.Instructions = RR.Instructions;
    if (RR.Exit == RunResult::Status::StepLimit) {
      // The budget fence, not a program property: don't cache, the
      // daemon may retry with a different budget.
      R.Status = ErrorCode::ResourceExhausted;
      R.Error = "run exceeded the instruction budget (" +
                std::to_string(Limits.MaxInsts) + ")";
    } else if (RR.Exit == RunResult::Status::MalformedIR) {
      R.Status = ErrorCode::Internal;
      R.Error = "compiled function failed to verify for execution: " +
                RR.Error;
    }
    // Traps (out-of-bounds, unaligned, divide-by-zero) are deterministic
    // properties of (kernel, args, arena): Status stays Ok and RunStatus
    // carries the outcome, so they cache like any other result.
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Forked-child serve loop
//===----------------------------------------------------------------------===//

void vpo::service::workerMain(int Fd, const WorkerLimits &Limits) {
  posix::ignoreSigpipe();
  if (Limits.MemLimitMB)
    posix::limitAddressSpace(Limits.MemLimitMB << 20);
  // The key exchange: report the canonical key, block for the verdict.
  // A broken exchange ends the worker like any other protocol error.
  KeyCallback AskDaemon = [&](const ContentKey &K) {
    std::string Payload;
    if (!writeFrame(Fd, keyFrame(K.hex())) ||
        readFrame(Fd, Payload, Limits.MaxFrameBytes) != FrameStatus::Ok)
      ::_exit(1);
    std::optional<bool> Hit = parseVerdictFrame(Payload);
    if (!Hit)
      ::_exit(1);
    return *Hit;
  };
  for (;;) {
    std::string Payload;
    FrameStatus FS = readFrame(Fd, Payload, Limits.MaxFrameBytes);
    if (FS == FrameStatus::Eof)
      ::_exit(0);
    if (FS != FrameStatus::Ok)
      ::_exit(1);
    std::optional<ServiceRequest> Req = ServiceRequest::fromJson(Payload);
    ServiceResponse Resp;
    if (!Req) {
      Resp.Status = ErrorCode::ParseError;
      Resp.Error = "malformed request frame";
    } else {
      Resp = compileServiceRequest(*Req, Limits, nullptr, AskDaemon);
    }
    if (Resp.Cached)
      continue; // a hit: the daemon has already answered from its store
    if (!writeFrame(Fd, Resp.toJson()))
      ::_exit(1);
  }
}
