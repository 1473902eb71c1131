//===- perfbench/Bench.cpp - Shared benchmark plumbing --------------------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sys/resource.h>
#include <thread>

namespace perfbench {

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc) {
      A.Ok = false;
      break;
    }
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload") {
      A.Workload = V;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      A.Ok &= End && *End == '\0' && !V.empty();
    } else if (K == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      A.Ok &= End && *End == '\0' && A.Seconds > 0;
    } else if (K == "--trace") {
      A.Ok &= V == "0" || V == "1";
      A.Trace = V == "1";
    } else if (K == "--threads") {
      A.Threads = unsigned(std::strtoul(V.c_str(), &End, 10));
      A.Ok &= End && *End == '\0' && A.Threads > 0 && A.Threads <= 4;
    } else if (K == "--repo-root") {
      A.RepoRoot = V;
    } else if (K == "--out-dir") {
      A.OutDir = V;
    } else {
      A.Ok = false;
    }
  }
  A.Ok &= A.Workload == "tables" || A.Workload == "compile" ||
          A.Workload == "service";
  return A;
}

//===----------------------------------------------------------------------===//
// Counts
//===----------------------------------------------------------------------===//

void Counts::addRun(const vpo::RunResult &R) {
  Cycles.push_back(double(R.Cycles));
  SimInsts += R.Instructions;
  SimMemRefs += R.MemRefs();
  SimBytes += R.LoadBytes + R.StoreBytes;
  DCacheMisses += R.Cache.Misses;
  ICacheMisses += R.ICache.Misses;
}

void Counts::addCoalesce(const vpo::CoalesceStats &S) {
  LoopsExamined += S.LoopsExamined;
  LoopsTransformed += S.LoopsTransformed;
  NarrowRemoved += S.NarrowLoadsRemoved + S.NarrowStoresRemoved;
  RunsRejected += S.RunsRejectedHazard + S.RunsRejectedChecksDisabled;
  CheckInsts += S.CheckInstructions;
  AliasDeferred += S.AliasPairsDeferred;
  AliasProven += S.AliasPairsProvenDisjoint;
}

namespace {
uint64_t argU64(const vpo::Remark &R, const char *Key) {
  for (const auto &[K, V] : R.Args)
    if (std::strcmp(K, Key) == 0)
      return std::strtoull(V.c_str(), nullptr, 10);
  return 0;
}
std::string argStr(const vpo::Remark &R, const char *Key) {
  for (const auto &[K, V] : R.Args)
    if (std::strcmp(K, Key) == 0)
      return V;
  return {};
}
} // namespace

void Counts::addRemarks(const std::vector<vpo::Remark> &Rs) {
  for (const vpo::Remark &R : Rs) {
    if (std::strcmp(R.Reason, "jit-summary") == 0) {
      JitBlocks += argU64(R, "blocks-compiled");
      JitCodeBytes += argU64(R, "bytes-emitted");
      JitDeopts += argU64(R, "deopt-budget") + argU64(R, "deopt-cold");
    } else if (std::strcmp(R.Reason, "sched-audit") == 0) {
      ++Audits;
      AuditStates += argU64(R, "states");
      if (argStr(R, "status") == "budget-exceeded")
        ++AuditBudgetExceeded;
    }
  }
}

void Counts::merge(const Counts &O) {
  Cycles.insert(Cycles.end(), O.Cycles.begin(), O.Cycles.end());
  CodeInsts += O.CodeInsts;
  SimInsts += O.SimInsts;
  SimMemRefs += O.SimMemRefs;
  SimBytes += O.SimBytes;
  DCacheMisses += O.DCacheMisses;
  ICacheMisses += O.ICacheMisses;
  JitBlocks += O.JitBlocks;
  JitCodeBytes += O.JitCodeBytes;
  JitDeopts += O.JitDeopts;
  LoopsExamined += O.LoopsExamined;
  LoopsTransformed += O.LoopsTransformed;
  NarrowRemoved += O.NarrowRemoved;
  RunsRejected += O.RunsRejected;
  CheckInsts += O.CheckInsts;
  AliasDeferred += O.AliasDeferred;
  AliasProven += O.AliasProven;
  Audits += O.Audits;
  AuditStates += O.AuditStates;
  AuditBudgetExceeded += O.AuditBudgetExceeded;
  Incidents += O.Incidents;
}

//===----------------------------------------------------------------------===//
// OverheadMeter
//===----------------------------------------------------------------------===//

void OverheadMeter::add(const std::string &Key, bool Traced, double Seconds) {
  std::lock_guard<std::mutex> L(Mu);
  Samples[Traced ? 1 : 0][Key].push_back(Seconds);
}

double OverheadMeter::percent() const {
  std::lock_guard<std::mutex> L(Mu);
  double Traced = 0, Untraced = 0;
  for (const auto &[Key, U] : Samples[0]) {
    auto It = Samples[1].find(Key);
    if (It == Samples[1].end())
      continue;
    // Medians, so one slow outlier on one side does not tip the
    // comparison; weighted by how often the key ran.
    double W = double(U.size() + It->second.size());
    Untraced += W * median(U);
    Traced += W * median(It->second);
  }
  return Untraced > 0 ? 100.0 * (Traced / Untraced - 1.0) : 0.0;
}

std::vector<double> runPasses(size_t NOps, unsigned Threads, double Seconds,
                              const std::function<void(size_t K, size_t Pass,
                                                       unsigned Lane)> &Op) {
  std::mutex Mu;
  size_t Next = 0, Limit = SIZE_MAX;
  const double Start = now();
  std::vector<double> PassEnd;
  auto Work = [&](unsigned Lane) {
    for (;;) {
      size_t I;
      {
        std::lock_guard<std::mutex> L(Mu);
        if (Next % NOps == 0 && Next > 0 && now() >= Start + Seconds)
          Limit = std::min(Limit, Next);
        if (Next >= Limit)
          return;
        I = Next++;
      }
      Op(I % NOps, I / NOps, Lane);
      double T = now();
      std::lock_guard<std::mutex> L(Mu);
      size_t Pass = I / NOps;
      if (PassEnd.size() <= Pass)
        PassEnd.resize(Pass + 1, Start);
      PassEnd[Pass] = std::max(PassEnd[Pass], T);
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned L = 0; L < Threads; ++L)
    Pool.emplace_back(Work, L);
  for (std::thread &T : Pool)
    T.join();
  std::vector<double> Durations;
  double Prev = Start;
  for (double E : PassEnd) {
    E = std::max(E, Prev);
    Durations.push_back(E - Prev);
    Prev = E;
  }
  return Durations;
}

CpuTour::CpuTour() {
  if (::sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
    return;
  for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Saved))
      Cpus.push_back(Cpu);
}

CpuTour::~CpuTour() {
  if (Cpus.size() > 1)
    ::sched_setaffinity(0, sizeof(Saved), &Saved);
}

void CpuTour::pinTo(unsigned I) {
  if (Cpus.size() < 2)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[I % Cpus.size()], &One);
  ::sched_setaffinity(0, sizeof(One), &One);
}

double medianRate(const std::vector<double> &Ops,
                  const std::vector<double> &Seconds) {
  std::vector<double> R;
  for (size_t I = 0; I < Ops.size() && I < Seconds.size(); ++I)
    if (Seconds[I] > 0)
      R.push_back(Ops[I] / Seconds[I]);
  return median(R);
}

std::string sliceNote(const char *What, const std::vector<double> &Ops,
                      const std::vector<double> &Seconds) {
  std::string S = std::string(What) + " durations (s):";
  char Buf[96];
  std::vector<double> Rates;
  for (size_t I = 0; I < Seconds.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), " %.3f", Seconds[I]);
    S += Buf;
    if (Seconds[I] > 0 && I < Ops.size())
      Rates.push_back(Ops[I] / Seconds[I]);
  }
  Quartiles Q = quartiles(Rates);
  std::snprintf(Buf, sizeof(Buf), "; ops/s per %s quartiles %.4g %.4g %.4g",
                What, Q.Q1, Q.Q2, Q.Q3);
  return S + Buf;
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

const std::vector<std::pair<const char *, const char *>> &perLayerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> M = {
      {"workloads.setup_s", "s"},
      {"workloads.golden_s", "s"},
      {"sim.run_s", "s"},
      {"sim.minsts_per_s", "Minsts/s"},
      {"sim.insts", "count"},
      {"sim.memrefs", "count"},
      {"sim.bytes_moved", "B"},
      {"sim.dcache_misses", "count"},
      {"sim.icache_misses", "count"},
      {"jit.run_s", "s"},
      {"jit.minsts_per_s", "Minsts/s"},
      {"jit.blocks_compiled", "count"},
      {"jit.code_bytes", "B"},
      {"jit.deopts", "count"},
      {"coalesce.loops_examined", "count"},
      {"coalesce.loops_transformed", "count"},
      {"coalesce.accept_ratio", "ratio"},
      {"coalesce.narrow_refs_removed", "count"},
      {"coalesce.runs_rejected", "count"},
      {"coalesce.check_insts", "count"},
      {"coalesce.alias_pairs_deferred", "count"},
      {"coalesce.alias_pairs_proven", "count"},
      {"ir.parse_s", "s"},
      {"frontend.compile_c_s", "s"},
      {"pipeline.compile_s", "s"},
      {"pipeline.driver_s", "s"},
      {"transform.strength-reduce_s", "s"},
      {"transform.recurrence_s", "s"},
      {"transform.scalar-replace_s", "s"},
      {"transform.cleanup_s", "s"},
      {"coalesce.pass_s", "s"},
      {"target.legalize_s", "s"},
      {"sched.schedule_s", "s"},
      {"pipeline.incidents", "count"},
      {"sched.audits", "count"},
      {"sched.audit_states", "count"},
      {"sched.audit_budget_exceeded", "count"},
      {"service.hit_ratio", "ratio"},
      {"service.cache_entries", "count"},
      {"service.journal_bytes", "B"},
      {"service.journal_garbage", "B"},
      {"service.compactions", "count"},
      {"service.shed", "count"},
      {"service.worker_crashes", "count"},
      {"service.degraded", "count"},
      {"service.worker_core_ms", "ms"},
      {"service.journal_append_us", "us"},
      {"service.lookup_hit_ns", "ns"},
      {"service.lookup_miss_ns", "ns"},
      {"service.raw_hash_us", "us"},
      {"service.codec_us", "us"},
      {"service.unattributed_ms", "ms"},
      {"op_ms_p50", "ms"},
      {"op_ms_tail", "ms"},
      {"compile_ms_p50", "ms"},
      {"compile_ms_tail", "ms"},
      {"new_ms_p50", "ms"},
      {"new_ms_tail", "ms"},
      {"repeat_ms_p50", "ms"},
      {"repeat_ms_tail", "ms"},
      {"variant_ms_p50", "ms"},
      {"variant_ms_tail", "ms"},
      {"error_rate", "fraction"},
      {"bench.self_s", "s"},
      {"trace.overhead_pct", "%"},
  };
  return M;
}

void Result::fail(const std::string &Why) {
  std::lock_guard<std::mutex> L(Mu);
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(Why);
}

void Result::endToEnd(const std::string &Name, double Value,
                      const char *Unit) {
  E2E.push_back(Metric{Name, Value, Unit});
}

void Result::perLayer(const std::string &Name, double Value,
                      const char *Unit) {
  Layer[Name] = Metric{Name, Value, Unit};
}

void Result::note(const std::string &Line) { Notes.push_back(Line); }

namespace {

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

} // namespace

void Result::counts(const Counts &C, const Counts *E2E) {
  const Counts &E = E2E ? *E2E : C;
  double Accept = C.LoopsExamined
                      ? double(C.LoopsTransformed) / double(C.LoopsExamined)
                      : 0.0;
  const std::vector<std::pair<const char *, double>> Det = {
      {"sim_cycles", geomean(E.Cycles)},
      {"code_insts", double(E.CodeInsts)},
      {"sim.insts", double(C.SimInsts)},
      {"sim.memrefs", double(C.SimMemRefs)},
      {"sim.bytes_moved", double(C.SimBytes)},
      {"sim.dcache_misses", double(C.DCacheMisses)},
      {"sim.icache_misses", double(C.ICacheMisses)},
      {"jit.blocks_compiled", double(C.JitBlocks)},
      {"jit.code_bytes", double(C.JitCodeBytes)},
      {"jit.deopts", double(C.JitDeopts)},
      {"coalesce.loops_examined", double(C.LoopsExamined)},
      {"coalesce.loops_transformed", double(C.LoopsTransformed)},
      {"coalesce.accept_ratio", Accept},
      {"coalesce.narrow_refs_removed", double(C.NarrowRemoved)},
      {"coalesce.runs_rejected", double(C.RunsRejected)},
      {"coalesce.check_insts", double(C.CheckInsts)},
      {"coalesce.alias_pairs_deferred", double(C.AliasDeferred)},
      {"coalesce.alias_pairs_proven", double(C.AliasProven)},
      {"pipeline.incidents", double(C.Incidents)},
      {"sched.audits", double(C.Audits)},
      {"sched.audit_states", double(C.AuditStates)},
      {"sched.audit_budget_exceeded", double(C.AuditBudgetExceeded)},
  };
  Deterministic = "{";
  for (size_t I = 0; I < Det.size(); ++I) {
    Deterministic += (I ? ",\"" : "\"") + std::string(Det[I].first) +
                     "\":" + num(Det[I].second);
    if (I >= 2)
      perLayer(Det[I].first, Det[I].second,
               std::strstr(Det[I].first, "bytes") ? "B"
               : std::strcmp(Det[I].first, "coalesce.accept_ratio") == 0
                   ? "ratio"
                   : "count");
  }
  Deterministic += "}";
  endToEnd("sim_cycles", geomean(E.Cycles), "cycles");
  endToEnd("code_insts", double(E.CodeInsts), "insts");
}

void Result::layers(const SelfTimes &ST) {
  auto PerOp = [&ST](const std::map<std::string, double> &M,
                     const char *Span) {
    auto It = M.find(Span);
    return It == M.end() || ST.Ops == 0 ? 0.0 : It->second / double(ST.Ops);
  };
  static const std::pair<const char *, const char *> SelfMap[] = {
      {"workloads.setup_s", "workloads.setup"},
      {"workloads.golden_s", "workloads.golden"},
      {"sim.run_s", "sim.run"},
      {"jit.run_s", "jit.run"},
      {"ir.parse_s", "ir.parse"},
      {"frontend.compile_c_s", "frontend.compile_c"},
      {"pipeline.driver_s", "pipeline.compile"},
      {"transform.strength-reduce_s", "transform.strength-reduce"},
      {"transform.recurrence_s", "transform.recurrence"},
      {"transform.scalar-replace_s", "transform.scalar-replace"},
      {"transform.cleanup_s", "transform.cleanup"},
      {"coalesce.pass_s", "coalesce.pass"},
      {"target.legalize_s", "target.legalize"},
      {"sched.schedule_s", "sched.schedule"},
      {"bench.self_s", "bench.self"},
  };
  for (const auto &[Metric, Span] : SelfMap)
    perLayer(Metric, PerOp(ST.Seconds, Span), "s");
  perLayer("pipeline.compile_s", PerOp(ST.Inclusive, "pipeline.compile"),
           "s");
  if (ST.Unbalanced)
    fail(std::to_string(ST.Unbalanced) +
         " traced ops whose layer self times do not add up to the op span");
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "trace: %llu traced ops, %.6f s of op spans; self times "
                "add up in every op: %s",
                (unsigned long long)ST.Ops, ST.OpSeconds,
                ST.Unbalanced ? "no" : "yes");
  note(Buf);
}

void Result::latency(const std::string &Prefix,
                     const std::vector<double> &Ms) {
  double P50 = median(Ms);
  Tail T = tail(Ms);
  perLayer(Prefix + "_p50", P50, "ms");
  perLayer(Prefix + "_tail", T.Value, "ms");
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "%s: p50 %.4f ms, tail p%g = %.4f ms over n=%zu samples "
                "(%zu beyond)",
                Prefix.c_str(), P50, T.Percentile, T.Value, T.Samples,
                T.Beyond);
  note(Buf);
}

int Result::finish(const Args &A) {
  for (const std::string &N : Notes)
    std::printf("%s\n", N.c_str());
  for (const std::string &F : Failures)
    std::printf("FAIL: %s\n", F.c_str());
  double ErrorRate = Attempted ? double(Failed) / double(Attempted) : 1.0;
  std::printf("error_rate %s (%llu failed of %llu attempted)\n",
              num(ErrorRate).c_str(), (unsigned long long)Failed,
              (unsigned long long)Attempted);
  std::printf("DETERMINISTIC %s\n", Deterministic.c_str());
  perLayer("error_rate", ErrorRate, "fraction");

  std::string Out = "{\"correct\": ";
  Out += Failed == 0 && Attempted > 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  auto Put = [&](const Metric &M) {
    Out += First ? "" : ", ";
    First = false;
    Out += "\"" + M.Name + "\": {\"value\": " + num(M.Value) +
           ", \"unit\": \"" + M.Unit + "\"}";
  };
  if (A.Trace) {
    for (const auto &[Name, Unit] : perLayerMetrics()) {
      auto It = Layer.find(Name);
      Put(It != Layer.end() ? It->second : Metric{Name, 0.0, Unit});
    }
  } else {
    for (const Metric &M : E2E)
      Put(M);
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
  return Failed == 0 && Attempted > 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

uint64_t digest(const uint8_t *P, size_t N) {
  uint64_t H = 0x9e3779b97f4a7c15ull ^ N;
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    uint64_t W;
    std::memcpy(&W, P + I, 8);
    H = (H ^ W) * 0xff51afd7ed558ccdull;
    H ^= H >> 29;
  }
  for (; I < N; ++I)
    H = (H ^ P[I]) * 0x100000001b3ull;
  return H ^ (H >> 31);
}

bool allZero(const uint8_t *P, size_t N) {
  size_t I = 0;
  uint64_t Acc = 0;
  for (; I + 8 <= N; I += 8) {
    uint64_t W;
    std::memcpy(&W, P + I, 8);
    Acc |= W;
  }
  for (; I < N; ++I)
    Acc |= P[I];
  return Acc == 0;
}

double selfPeakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KB on Linux
}

namespace {
/// VmHWM of process \p Pid, MB; 0 if it cannot be read.
double procPeakRssMb(long Pid) {
  std::ifstream F("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}
} // namespace

double processTreePeakRssMb(long Pid) {
  double Peak = procPeakRssMb(Pid);
  const std::string Tasks = "/proc/" + std::to_string(Pid) + "/task";
  if (DIR *D = opendir(Tasks.c_str())) {
    while (dirent *E = readdir(D)) {
      if (E->d_name[0] == '.')
        continue;
      std::ifstream Children(Tasks + "/" + E->d_name + "/children");
      long Child = 0;
      while (Children >> Child)
        Peak = std::max(Peak, procPeakRssMb(Child));
    }
    closedir(D);
  }
  return Peak;
}

void addPassSpans(OpTrace *T, double Begin,
                  const std::vector<vpo::CompileReport::PassProfile> &Passes) {
  if (!T)
    return;
  static const std::pair<const char *, const char *> Names[] = {
      {"strength-reduce", "transform.strength-reduce"},
      {"recurrence", "transform.recurrence"},
      {"scalar-replace", "transform.scalar-replace"},
      {"coalesce", "coalesce.pass"},
      {"cleanup", "transform.cleanup"},
      {"cleanup-post-legalize", "transform.cleanup"},
      {"legalize", "target.legalize"},
      {"schedule", "sched.schedule"},
  };
  // The report gives durations in execution order, not timestamps; the
  // passes ran one after another, so laying them end to end from the
  // compile's start gives exact self times (only the gaps, the pipeline's
  // own work, are placed approximately).
  double At = Begin;
  for (const vpo::CompileReport::PassProfile &P : Passes) {
    std::string Name = "pipeline." + P.Pass;
    for (const auto &[Pass, Layer] : Names)
      if (P.Pass == Pass)
        Name = Layer;
    T->addLeaf(Name, At, At + P.Seconds);
    At += P.Seconds;
  }
}

} // namespace perfbench
