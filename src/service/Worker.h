//===- service/Worker.h - Crash-contained compile worker --------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker side of the compile service: a forked child that serves
/// compile requests over a socketpair until EOF. Everything that can be
/// damaged by untrusted input — parsing, the optimization pipeline, the
/// optional simulation — happens here, behind three fences:
///
///   * the daemon's per-request wall-clock deadline (a hung worker is
///     SIGKILLed and respawned; compare fuzz/Watchdog.h);
///   * InterpreterOptions::MaxSteps on run-mode simulations;
///   * an optional RLIMIT_AS address-space ceiling plus the pipeline's
///     CompileOptions::MaxFunctionInsts growth budget.
///
/// compileServiceRequest is the pure, fork-free core (tests call it
/// directly); workerMain wraps it in the serve loop and answers its key
/// callback with the daemon's verdict (the key exchange, Protocol.h).
///
/// The degradation ladder lives here too: rung 0 is the requested
/// configuration, rung 1 disables coalescing and its companion passes
/// (the guard-rail-incident passes of PR 1), rung 2 is the O0 reference
/// pipeline. The daemon escalates the rung each time a worker dies on a
/// request; a rung-2 compile exercises no optimization machinery, so
/// every request ends in a correct answer or a structured error.
///
//===----------------------------------------------------------------------===//

#ifndef VPO_SERVICE_WORKER_H
#define VPO_SERVICE_WORKER_H

#include "pipeline/Pipeline.h"
#include "service/ContentCache.h"
#include "service/Protocol.h"

#include <functional>

namespace vpo {
namespace service {

/// Last rung of the degradation ladder (O0 reference compile).
constexpr unsigned maxServiceRung = 2;

/// Per-worker limits and switches, decided by the daemon at spawn time.
struct WorkerLimits {
  /// Instruction budget for run-mode simulations.
  uint64_t MaxInsts = 50'000'000;
  /// Pipeline IR growth budget (CompileOptions::MaxFunctionInsts).
  size_t MaxFunctionInsts = 2'000'000;
  /// Address-space ceiling for the worker process, MB (0 = off; forced
  /// off under ASan — see support/Posix.h).
  size_t MemLimitMB = 0;
  /// Honor ServiceRequest::Fault plants (test/benchmark daemons only).
  bool AllowFaultInjection = false;
  size_t MaxFrameBytes = defaultMaxFrameBytes;
  /// Allow run-mode simulations to promote hot blocks to native code
  /// (jit/JIT.h). The daemon's --no-jit clears it; rung-2 requests never
  /// promote regardless, keeping crash-suspect inputs on the portable
  /// interpreter tier.
  bool JITNative = true;
};

/// The named pipeline configurations the service accepts, mirroring the
/// fuzzer's oracle matrix: "O0", "vpo-O", "coalesce-loads",
/// "coalesce-all", "coalesce-all+companions", "coalesce-all-u4".
const std::vector<PipelineConfig> &serviceConfigs();

/// \returns the config named \p Name, or nullptr.
const PipelineConfig *serviceConfigByName(const std::string &Name);

/// Applies degradation rung \p Rung to a requested configuration:
/// rung 0 passes through, rung 1 turns off coalescing/companions, rung 2
/// returns the O0 reference options. All rungs keep guard rails on.
CompileOptions ladderOptions(const CompileOptions &Requested, unsigned Rung);

/// Whether an attempt runs the key exchange (service/Protocol.h): rung 0
/// with no fault plant. Worker and daemon both decide by this, so a key
/// frame on any other attempt is a protocol violation.
inline bool keyExchangeDue(unsigned Rung, const std::string &Fault) {
  return Rung == 0 && Fault.empty();
}

/// Called with the canonical content key; \returns true when the result
/// for that key is already stored, so the compile need not run.
using KeyCallback = std::function<bool(const ContentKey &)>;

/// The pure worker core: validate, parse, canonicalize, compile at the
/// request's rung, optionally simulate. Never throws, never aborts on
/// any input (a crash here is a bug the daemon's containment turns into
/// a degraded-but-served request). Fault plants of the crash/hang kind
/// are honored *before* this returns, so they manifest as real worker
/// deaths. \p Canon receives the canonical content key (zero when the
/// input never parsed). When the key exchange is due, \p OnKey (if set)
/// is asked after parsing; if it answers true the call returns at once
/// with Cached set, the key, and no payload.
ServiceResponse compileServiceRequest(const ServiceRequest &Req,
                                      const WorkerLimits &Limits,
                                      ContentKey *Canon = nullptr,
                                      const KeyCallback &OnKey = nullptr);

/// Forked-child entry point: serves framed requests on \p Fd until EOF
/// or a fatal protocol error, then _exit(0)s. Installs SIGPIPE-ignore
/// and the address-space ceiling first.
[[noreturn]] void workerMain(int Fd, const WorkerLimits &Limits);

} // namespace service
} // namespace vpo

#endif // VPO_SERVICE_WORKER_H
