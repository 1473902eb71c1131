//===- perfbench/CompileBench.cpp - The compile workload ------------------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload `compile`: text in, compiled function out. The inputs are the
/// shared population (Population.h): a seeded draw of KernelGen kernels
/// as IR text and mini-C, the eleven hand-built kernels printed to IR
/// text, and examples/kernels/*.c. Each is compiled under every named
/// service configuration on all three targets, with no remark sink — the
/// library path. One op is parseModule or cc::compileC followed by
/// compileFunction, on four threads (unless --threads says otherwise), in
/// whole passes over the op list.
///
/// Why four threads: on a shared host each vCPU's speed drifts on its own,
/// by up to 30% within seconds (perfbench/README.md, "Four vCPUs").
/// One compile thread follows one vCPU's drift; four, one per vCPU of a
/// 4-vCPU VM, average it. The compiles are independent, so a faster pass
/// still shows in full.
///
/// Why: the passes do nearly all the work and nothing is simulated in the
/// timed phase, so a faster or slower pass shows here in full. It skips
/// the cycle engine and the exact-scheduler audit (no sink, so
/// CompileOptions::SchedAudit has nothing to report to).
///
/// The timed phase keeps only each op's counts (code size and coalescing
/// statistics). After it, every distinct op is compiled again, must
/// reproduce those counts, and its function is run on the functional
/// tiered engine in each of its input's scenarios and compared with the
/// same input compiled at O0 (hand-built kernels: with their golden
/// output). The census — each distinct op once — also runs on the cycle
/// engine for sim_cycles and the sim.* counts.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Population.h"

#include "ir/Function.h"
#include "service/Worker.h"
#include "target/TargetMachine.h"

#include <map>
#include <mutex>
#include <numeric>
#include <optional>

using namespace vpo;

namespace perfbench {
namespace {

/// KernelGen kernels drawn per seed (each adds an IR input and, where the
/// spec allows, a mini-C one).
constexpr unsigned GeneratedKernels = 40;

struct Op {
  size_t In = 0;
  size_t Target = 0;
  const PipelineConfig *Config = nullptr;
};

/// What a compile leaves behind: counts, never the module, so the peak
/// resident set reflects one compile at a time.
Counts compileCounts(const Function &F, const CompileReport &Rep) {
  Counts C;
  C.CodeInsts = F.instructionCount();
  C.addCoalesce(Rep.Coalesce);
  return C;
}

bool sameCode(const Counts &A, const Counts &B) {
  return A.CodeInsts == B.CodeInsts && A.LoopsExamined == B.LoopsExamined &&
         A.LoopsTransformed == B.LoopsTransformed &&
         A.NarrowRemoved == B.NarrowRemoved && A.CheckInsts == B.CheckInsts;
}

} // namespace

int runCompile(const Args &A) {
  Result Res;
  std::vector<Input> Pop;
  std::vector<TargetMachine> TMs;
  std::vector<Op> Ops;
  std::string Err;
  double SetupS = medianSeconds(21, [&](unsigned) {
    Pop = makePopulation(A.Seed, GeneratedKernels, A.RepoRoot, Err);
    TMs.clear();
    TMs.push_back(makeAlphaTarget());
    TMs.push_back(makeM88100Target());
    TMs.push_back(makeM68030Target());
    Ops.clear();
    for (size_t I = 0; I < Pop.size(); ++I)
      for (size_t T = 0; T < TMs.size(); ++T)
        for (const PipelineConfig &C : service::serviceConfigs())
          Ops.push_back(Op{I, T, &C});
  });
  if (Pop.empty()) {
    std::fprintf(stderr, "compile: %s\n", Err.c_str());
    return 1;
  }
  const size_t NOps = Ops.size();

  Tracer Tr;
  OverheadMeter Meter;
  std::vector<std::optional<Counts>> Census(NOps);
  std::vector<std::vector<double>> OpMs(NOps);
  std::mutex Mu;
  const unsigned Threads = A.Threads ? A.Threads : 4;
  const std::vector<double> Passes = runPasses(
      NOps, Threads, A.Seconds, [&](size_t K, size_t Pass, unsigned Lane) {
        const Op &O = Ops[K];
        const Input &In = Pop[O.In];
        const bool Traced = A.Trace && (K + Pass) % 2 == 1;
        std::optional<OpTrace> T;
        if (Traced)
          T.emplace(K, Lane, "compile");
        OpTrace *TP = T ? &*T : nullptr;

        double T0 = now();
        std::string FrontErr;
        std::unique_ptr<Module> M;
        {
          Scope Sc(TP, In.IsC ? "frontend.compile_c" : "ir.parse");
          M = frontEnd(In, FrontErr);
        }
        CompileReport Rep;
        Function *F = M && !M->functions().empty()
                          ? M->functions().front().get()
                          : nullptr;
        if (F) {
          CompileOptions CO = O.Config->Options;
          CO.ProfilePasses = Traced;
          Scope Sc(TP, "pipeline.compile");
          double Begin = TP ? TP->openBegin() : 0;
          Rep = compileFunction(*F, TMs[O.Target], CO);
          addPassSpans(TP, Begin, Rep.Passes);
        }
        double Secs = now() - T0;
        if (T) {
          T->finish();
          Tr.commit(std::move(*T));
        }
        if (A.Trace)
          Meter.add(std::to_string(K), Traced, Secs);

        // Bookkeeping outside the op: the first compile of each op leaves
        // its counts; later ones must reproduce them.
        std::lock_guard<std::mutex> L(Mu);
        OpMs[K].push_back(Secs * 1e3);
        ++Res.Attempted;
        std::string Name = In.Name + "/" + TMs[O.Target].name() + "/" +
                           O.Config->Name;
        if (!F) {
          Res.fail(Name + ": front end failed: " + FrontErr);
          return;
        }
        if (!Rep.Succeeded || !Rep.Incidents.empty()) {
          Res.fail(Name + ": " + std::to_string(Rep.Incidents.size()) +
                   " guard-rail incident(s)");
          return;
        }
        Counts C = compileCounts(*F, Rep);
        if (!Census[K])
          Census[K] = C;
        else if (!sameCode(*Census[K], C))
          Res.fail(Name + ": a repeat compile produced different code");
      });
  const size_t Done = Res.Attempted;
  // Read before the check phase compiles anything.
  const double PeakRssMb = selfPeakRssMb();

  // Check phase: each distinct op compiled again, against its timed
  // counts and then its O0 compile (or golden).
  // sim_cycles and code_insts are taken over the inputs every run
  // compiles (hand-built kernels and examples): the seeded KernelGen draw
  // would otherwise move them more than any bound worth gating on.
  std::map<std::pair<size_t, size_t>, std::unique_ptr<Module>> O0;
  Counts Total, Fixed;
  for (size_t K = 0; K < NOps; ++K) {
    const Op &O = Ops[K];
    const Input &In = Pop[O.In];
    const TargetMachine &TM = TMs[O.Target];
    std::string Name = In.Name + "/" + TM.name() + "/" + O.Config->Name;
    if (!Census[K]) {
      if (Res.Failed == 0)
        Res.fail(Name + ": never compiled");
      continue;
    }
    std::unique_ptr<Module> M = frontEnd(In, Err);
    CompileReport Rep = compileFunction(*M->functions().front(), TM,
                                        O.Config->Options);
    const Function &F = *M->functions().front();
    if (!sameCode(compileCounts(F, Rep), *Census[K])) {
      Res.fail(Name + ": the check compile differs from the timed ones");
      continue;
    }
    std::unique_ptr<Module> &Ref = O0[{O.In, O.Target}];
    if (!Ref && In.Src != Input::Source::HandBuilt) {
      Ref = frontEnd(In, Err);
      compileFunction(*Ref->functions().front(), TM,
                      service::serviceConfigByName("O0")->Options);
    }
    for (unsigned S = 0; S < scenarioCount(In); ++S) {
      Arch Want;
      CollectingRemarkSink Sink;
      const bool CensusRun = S == censusScenario(In);
      Arch Got = runScenario(F, TM, In, S, A.Seed, /*Cycles=*/false,
                             CensusRun ? &Sink : nullptr,
                             In.Src == Input::Source::HandBuilt ? &Want
                                                                : nullptr);
      if (In.Src != Input::Source::HandBuilt)
        Want = runScenario(*Ref->functions().front(), TM, In, S, A.Seed,
                           /*Cycles=*/false);
      std::string Why = compareArch(Got, Want);
      if (!Why.empty()) {
        Res.fail(Name + " scenario " + std::to_string(S) + ": " + Why);
        break;
      }
      if (CensusRun) {
        Census[K]->addRemarks(Sink.remarks());
        Arch Cyc = runScenario(F, TM, In, S, A.Seed, /*Cycles=*/true);
        if (!compareArch(Cyc, Got).empty())
          Res.fail(Name + ": cycle engine disagrees with the tiered engine");
        Census[K]->addRun(Cyc.R);
      }
    }
    Total.merge(*Census[K]);
    if (In.Src != Input::Source::Generated)
      Fixed.merge(*Census[K]);
  }

  Res.endToEnd("setup_s", SetupS, "s");
  // Compiles per second: the median over passes, each pass every
  // distinct op once.
  const double Elapsed = std::accumulate(Passes.begin(), Passes.end(), 0.0);
  const std::vector<double> PassOps(Passes.size(), double(NOps));
  Res.note(sliceNote("pass", PassOps, Passes));
  Res.endToEnd("ops_per_s", medianRate(PassOps, Passes), "ops/s");
  // Latency per distinct op: the median of its compiles, so every run
  // summarizes the same ops however many passes fit in the window.
  std::vector<double> Ms;
  for (const std::vector<double> &V : OpMs)
    Ms.push_back(median(V));
  Res.latency("op_ms", Ms);
  Res.latency("compile_ms", Ms);
  Res.counts(Total, &Fixed);
  Res.endToEnd("peak_rss_mb", PeakRssMb, "MB");
  Res.note("compile: " + std::to_string(Pop.size()) + " inputs, " +
           std::to_string(NOps) + " distinct ops, " + std::to_string(Done) +
           " compiles in " + std::to_string(Passes.size()) + " passes, " +
           std::to_string(Elapsed) + " s on " +
           std::to_string(Threads) + " thread(s)");
  if (A.Trace) {
    Res.layers(Tr.selfTimes());
    Res.perLayer("trace.overhead_pct", Meter.percent(), "%");
    std::string Base = A.OutDir + "/compile-seed" + std::to_string(A.Seed);
    if (!Tr.write(Base + ".trace.json", Base + ".selftime.txt"))
      Res.fail("cannot write the trace files under " + A.OutDir);
  }
  return Res.finish(A);
}

} // namespace perfbench
