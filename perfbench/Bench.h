//===- perfbench/Bench.h - Shared benchmark plumbing ------------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads (tables, compile, service) share: the command
/// line, the result record that becomes the last line of stdout, the
/// deterministic counts gathered over each workload's census, latency
/// summaries, and the traced-versus-untraced overhead meter.
///
/// A workload fills a Result in three phases: set-up (timed several
/// times, median reported as setup_s), the timed phase (ops only, no
/// checking), and the check phase, where every op's recorded output is
/// compared with its reference. Failures are counted, never hidden: any
/// failure makes the command exit nonzero.
///
//===----------------------------------------------------------------------===//

#ifndef VPO_PERFBENCH_BENCH_H
#define VPO_PERFBENCH_BENCH_H

#include "Stats.h"
#include "Tracer.h"

#include "coalesce/Coalesce.h"
#include "pipeline/Pipeline.h"
#include "sim/Interpreter.h"
#include "support/Remark.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sched.h>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Op threads (tables, compile) or daemon workers (service; the two
  /// client connections are fixed). 0 = the workload's fixed default;
  /// never derived from hardware_concurrency().
  unsigned Threads = 0;
  /// Checkout root: examples/kernels/*.c are read from here.
  std::string RepoRoot = ".";
  /// Where traces, the daemon socket and its journal go.
  std::string OutDir = ".";
  bool Ok = true;
};

Args parseArgs(int Argc, char **Argv);

/// Deterministic counts over a workload's census: a fixed set of ops
/// (every cell once, every population compile once, the stream's first
/// requests) that does not depend on how many ops the timed phase ran.
/// Equal seeds must give equal Counts at any thread count, traced or not.
struct Counts {
  std::vector<double> Cycles; ///< simulated cycles per census run
  uint64_t CodeInsts = 0;     ///< static instructions of compiled code
  uint64_t SimInsts = 0, SimMemRefs = 0, SimBytes = 0;
  uint64_t DCacheMisses = 0, ICacheMisses = 0;
  uint64_t JitBlocks = 0, JitCodeBytes = 0, JitDeopts = 0;
  uint64_t LoopsExamined = 0, LoopsTransformed = 0, NarrowRemoved = 0;
  uint64_t RunsRejected = 0, CheckInsts = 0;
  uint64_t AliasDeferred = 0, AliasProven = 0;
  uint64_t Audits = 0, AuditStates = 0, AuditBudgetExceeded = 0;
  uint64_t Incidents = 0;

  void addRun(const vpo::RunResult &R);
  void addCoalesce(const vpo::CoalesceStats &S);
  /// Folds jit-summary and sched-audit remarks in.
  void addRemarks(const std::vector<vpo::Remark> &Rs);
  void merge(const Counts &O);
};

/// Per-op wall times, split by whether the op was traced, for
/// trace.overhead_pct. Ops alternate traced/untraced, and only keys (cell,
/// compile or request class) seen both ways are compared, so both sides
/// cover the same work.
class OverheadMeter {
public:
  void add(const std::string &Key, bool Traced, double Seconds);
  /// 100 * (traced / untraced - 1), each side the per-key medians summed
  /// with the key's op count as weight.
  double percent() const;

private:
  mutable std::mutex Mu;
  std::map<std::string, std::vector<double>> Samples[2];
};

/// Runs ops in whole passes over \p NOps on \p Threads threads: op I is
/// \p Op(I % NOps, I / NOps, Lane). New passes start only while less than
/// \p Seconds have elapsed, so every run covers whole passes and at least
/// one. \returns each pass's duration: from the end of the previous pass's
/// last op (or the start) to the end of its own last op.
std::vector<double> runPasses(size_t NOps, unsigned Threads, double Seconds,
                              const std::function<void(size_t K, size_t Pass,
                                                       unsigned Lane)> &Op);

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

class Result {
public:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  /// Records one failed op with a reason (the first few are printed).
  void fail(const std::string &Why);

  void endToEnd(const std::string &Name, double Value, const char *Unit);
  void perLayer(const std::string &Name, double Value, const char *Unit);
  /// A human-readable line printed before the result (tables, rows).
  void note(const std::string &Line);

  /// Adds the deterministic census counts as per-layer metrics and as
  /// the DETERMINISTIC line the determinism self-check compares.
  /// sim_cycles and code_insts come from \p E2E when given (a narrower,
  /// fixed part of the census), else from \p C.
  void counts(const Counts &C, const Counts *E2E = nullptr);
  /// Per-layer self times from a traced run (mean seconds per traced op),
  /// bench.self_s, and an Unbalanced check.
  void layers(const SelfTimes &ST);
  /// Emits \p Prefix_p50 and \p Prefix_tail (ms) as per-layer metrics,
  /// and a note naming the tail's percentile and sample count.
  void latency(const std::string &Prefix, const std::vector<double> &Ms);

  /// Prints notes, failures and the final one-line JSON. \returns the
  /// process exit code (0 only with no failures).
  int finish(const Args &A);

private:
  std::vector<std::string> Notes;
  std::vector<std::string> Failures;
  std::vector<Metric> E2E;
  std::map<std::string, Metric> Layer;
  std::string Deterministic;
  std::mutex Mu;
};

/// Every per-layer metric name, with its unit, in output order. A traced
/// run prints all of them; a layer the workload never calls reads 0.
const std::vector<std::pair<const char *, const char *>> &perLayerMetrics();

/// 64-bit digest of a byte range (word-wise multiply/xor mixing).
uint64_t digest(const uint8_t *P, size_t N);
/// \returns true if every byte of [P, P+N) is zero.
bool allZero(const uint8_t *P, size_t N);

/// Peak resident set of this process, MB.
double selfPeakRssMb();
/// Largest peak resident set (VmHWM) among the live process \p Pid and
/// its child processes, MB; 0 if none can be read. Unlike
/// RUSAGE_CHILDREN, VmHWM starts afresh at exec, so a daemon's figure does
/// not include the image of the process that forked it.
double processTreePeakRssMb(long Pid);

/// Throughput robust to a stall in one part of the run: the median over
/// slices (passes) of \p Ops[i] / \p Seconds[i].
double medianRate(const std::vector<double> &Ops,
                  const std::vector<double> &Seconds);
/// A note line for slice timings: each slice's duration and the
/// quartiles of the per-slice rates medianRate() takes the median of.
std::string sliceNote(const char *What, const std::vector<double> &Ops,
                      const std::vector<double> &Seconds);

/// Moves the calling thread round the CPUs its affinity mask allows, and
/// restores the mask when destroyed.
class CpuTour {
public:
  CpuTour();
  ~CpuTour();
  CpuTour(const CpuTour &) = delete;
  CpuTour &operator=(const CpuTour &) = delete;
  /// Pins the calling thread to allowed CPU number \p I modulo their count.
  void pinTo(unsigned I);

private:
  cpu_set_t Saved;
  std::vector<int> Cpus;
};

/// Runs \p F(I) for I = 0 .. Reps-1 and \returns the median duration.
/// Repetition I runs on the I-th allowed CPU in turn: on a shared host each
/// vCPU's speed drifts on its own, and a process left on one vCPU reports
/// that vCPU's speed (compile's set-up, about 0.7 ms, fell into two modes,
/// ~0.55 and ~0.85 ms, from one process to the next on the same seed).
template <typename Fn> double medianSeconds(unsigned Reps, Fn &&F) {
  CpuTour Tour;
  std::vector<double> T;
  for (unsigned I = 0; I < Reps; ++I) {
    Tour.pinTo(I);
    double T0 = now();
    F(I);
    T.push_back(now() - T0);
  }
  return median(T);
}

/// Lays a CompileOptions::ProfilePasses report out as leaf spans under
/// the innermost open span, starting at \p Begin, named by layer
/// ("coalesce.pass", "transform.cleanup", "target.legalize", ...).
void addPassSpans(OpTrace *T, double Begin,
                  const std::vector<vpo::CompileReport::PassProfile> &Passes);

// Workload entry points.
int runTables(const Args &A);
int runCompile(const Args &A);
int runService(const Args &A);

} // namespace perfbench

#endif // VPO_PERFBENCH_BENCH_H
