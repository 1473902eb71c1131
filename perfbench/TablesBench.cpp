//===- perfbench/TablesBench.cpp - The paper-table workload ---------------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload `tables`: the 84 cells of the three paper-table harnesses
/// (table2_alpha, table3_m88100, table4_m68030) — the seven Table I
/// kernels under each harness's four configurations, at the paper's
/// 500x500 / 250 000-element size, with the seed choosing the data.
///
/// Why: every number the paper reports flows through this path, and the
/// cycle engine does most of the work here (compiling is a few percent),
/// so it is the workload that shows a faster or slower simulator.
///
/// One op is one verified cell: build, set up, golden reference, compile,
/// cycle-accurate run, and the tiered-engine cross-check on a fresh
/// arena. The op records digests of the three memory images; comparing
/// them happens after the timed phase. Ops run on a fixed pool of
/// threads (4 unless --threads says otherwise), in whole passes over the
/// 84 cells, so every run measures the same mix of cells. Four threads,
/// one per vCPU of a 4-vCPU VM, average the drift each vCPU shows on its
/// own on a shared host (see CompileBench.cpp).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/Function.h"
#include "target/TargetMachine.h"
#include "workloads/Workload.h"

#include <cstring>
#include <numeric>
#include <optional>

using namespace vpo;

namespace perfbench {
namespace {

struct Cell {
  std::string Workload;
  std::string Config;
  const TargetMachine *TM = nullptr;
  CompileOptions Options;
  std::unique_ptr<vpo::Workload> W;
  std::string name() const {
    return Workload + "/" + TM->name() + "/" + Config;
  }
};

/// What one op leaves behind for the check phase.
struct Outcome {
  size_t Cell = 0;
  bool Traced = false;
  double Seconds = 0;
  RunResult Sim, Jit;
  int64_t Expected = 0;
  size_t Used = 0, JitUsed = 0;
  uint64_t SimDigest = 0, GoldenDigest = 0, JitDigest = 0;
  bool SimTailZero = false, JitTailZero = false;
  Counts C;
};

std::vector<Cell> makeCells(const std::vector<TargetMachine> &TMs) {
  // Table IV's configurations (bench/table4_m68030.cpp): unrolled and
  // scheduled, coalescing forced past the profitability test, and the
  // guarded pipeline that refuses it.
  CompileOptions Base;
  Base.Mode = CoalesceMode::None;
  CompileOptions ForcedLoads = Base;
  ForcedLoads.Mode = CoalesceMode::Loads;
  ForcedLoads.RequireProfitability = false;
  CompileOptions Forced = Base;
  Forced.Mode = CoalesceMode::LoadsAndStores;
  Forced.RequireProfitability = false;
  CompileOptions Guarded = Base;
  Guarded.Mode = CoalesceMode::LoadsAndStores;
  const std::vector<PipelineConfig> M68030 = {{"vpo -O", Base},
                                              {"forced-loads", ForcedLoads},
                                              {"forced-lds+sts", Forced},
                                              {"with-profit", Guarded}};
  // Largest kernels first, so a pass ends on short cells and the pool
  // idles little at the end of the run.
  const char *Names[] = {"convolution", "eqntott",   "image_add16",
                         "image_add",   "image_xor", "mirror",
                         "translate"};
  std::vector<Cell> Cells;
  for (const char *Name : Names)
    for (const TargetMachine &TM : TMs) {
      std::vector<PipelineConfig> Cfgs =
          TM.name() == "m68030" ? M68030 : paperConfigs();
      for (const PipelineConfig &C : Cfgs) {
        Cell X;
        X.Workload = Name;
        X.Config = C.Name;
        X.TM = &TM;
        X.Options = C.Options;
        X.W = makeWorkloadByName(Name);
        Cells.push_back(std::move(X));
      }
    }
  return Cells;
}

/// A lane's reusable golden image, as large as a cell's arena: High is
/// how far earlier cells may have dirtied it.
struct GoldenArena {
  std::vector<uint8_t> Image;
  size_t High = 0;
};

Outcome runCell(const Cell &X, size_t Index, const SetupOptions &SO,
                GoldenArena &G, OpTrace *T) {
  Outcome O;
  O.Cell = Index;
  Module Mod;
  Function *F = nullptr;
  std::optional<Memory> Arena, JitArena;
  {
    Scope Sc(T, "sim.memory");
    Arena.emplace();
    JitArena.emplace(Arena->size());
  }
  Memory &Mem = *Arena, &JMem = *JitArena;
  SetupResult S;
  {
    Scope Sc(T, "workloads.setup");
    F = X.W->build(Mod);
    S = X.W->setup(Mem, SO);
  }
  O.Used = Mem.usedBytes();

  // The lane's golden arena is reused across cells; only the span a
  // previous cell may have dirtied beyond this cell's prefix is cleared.
  std::memcpy(G.Image.data(), Mem.data(), O.Used);
  if (G.High > O.Used)
    std::memset(G.Image.data() + O.Used, 0, G.High - O.Used);
  G.High = O.Used;
  {
    Scope Sc(T, "workloads.golden");
    O.Expected = X.W->golden(G.Image.data(), SO, S);
  }

  CompileOptions CO = X.Options;
  CO.ProfilePasses = T != nullptr;
  CompileReport Rep;
  {
    Scope Sc(T, "pipeline.compile");
    double Begin = T ? T->openBegin() : 0;
    Rep = compileFunction(*F, *X.TM, CO);
    addPassSpans(T, Begin, Rep.Passes);
  }
  O.C.CodeInsts = F->instructionCount();
  O.C.addCoalesce(Rep.Coalesce);
  O.C.Incidents = Rep.Incidents.size();

  {
    Scope Sc(T, "sim.run");
    Interpreter Interp(*X.TM, Mem);
    O.Sim = Interp.run(*F, S.Args);
  }
  O.C.addRun(O.Sim);

  SetupResult JS;
  {
    Scope Sc(T, "workloads.setup");
    JS = X.W->setup(JMem, SO);
  }
  O.JitUsed = JMem.usedBytes();
  CollectingRemarkSink Sink;
  InterpreterOptions JO;
  JO.EnableJIT = true;
  JO.Remarks = &Sink;
  {
    Scope Sc(T, "jit.run");
    Interpreter JInterp(*X.TM, JMem, JO);
    O.Jit = JInterp.run(*F, JS.Args);
  }
  O.C.addRemarks(Sink.remarks());

  O.SimDigest = digest(Mem.data(), O.Used);
  O.GoldenDigest = digest(G.Image.data(), O.Used);
  O.SimTailZero = allZero(Mem.data() + O.Used, Mem.size() - O.Used);
  O.JitDigest = digest(JMem.data(), O.JitUsed);
  O.JitTailZero = allZero(JMem.data() + O.JitUsed, JMem.size() - O.JitUsed);
  return O;
}

/// Checks one op; \returns an empty string or why it failed.
std::string check(const Outcome &O) {
  if (!O.Sim.ok())
    return std::string("cycle engine exited ") + runStatusName(O.Sim.Exit) +
           ": " + O.Sim.Error;
  if (O.Sim.ReturnValue != O.Expected)
    return "return value " + std::to_string(O.Sim.ReturnValue) +
           " != golden " + std::to_string(O.Expected);
  if (O.SimDigest != O.GoldenDigest || !O.SimTailZero)
    return "memory image differs from the golden reference";
  if (O.Jit.Exit != O.Sim.Exit || O.Jit.ReturnValue != O.Sim.ReturnValue ||
      O.Jit.Instructions != O.Sim.Instructions ||
      O.Jit.Loads != O.Sim.Loads || O.Jit.Stores != O.Sim.Stores)
    return "tiered engine disagrees with the cycle engine";
  if (O.JitUsed != O.Used || O.JitDigest != O.SimDigest || !O.JitTailZero)
    return "tiered engine's memory image differs";
  if (O.C.Incidents)
    return std::to_string(O.C.Incidents) + " guard-rail incident(s)";
  return {};
}

bool sameCounts(const Counts &A, const Counts &B) {
  return A.Cycles == B.Cycles && A.CodeInsts == B.CodeInsts &&
         A.SimInsts == B.SimInsts && A.SimMemRefs == B.SimMemRefs &&
         A.SimBytes == B.SimBytes && A.DCacheMisses == B.DCacheMisses &&
         A.ICacheMisses == B.ICacheMisses && A.JitBlocks == B.JitBlocks &&
         A.JitCodeBytes == B.JitCodeBytes && A.JitDeopts == B.JitDeopts &&
         A.LoopsExamined == B.LoopsExamined &&
         A.LoopsTransformed == B.LoopsTransformed &&
         A.NarrowRemoved == B.NarrowRemoved &&
         A.CheckInsts == B.CheckInsts;
}

/// Table II/III savings as the paper printed them (bench/table2_alpha.cpp,
/// bench/table3_m88100.cpp); a negative value means the paper gives none.
double paperSave(const std::string &Target, const std::string &W) {
  static const std::map<std::string, double> Alpha = {
      {"convolution", 11.26}, {"image_add", 41.05}, {"image_add16", 32.36},
      {"image_xor", 40.08},   {"translate", 33.11}, {"eqntott", 3.86},
      {"mirror", 32.09}};
  static const std::map<std::string, double> M88100 = {
      {"convolution", 17.3}, {"image_add", 15.39}, {"image_xor", 15.64},
      {"translate", 24.46},  {"eqntott", 1.3},     {"mirror", 16.64}};
  const auto &M = Target == "alpha" ? Alpha : M88100;
  auto It = M.find(W);
  return It == M.end() ? -1 : It->second;
}

void reportAccuracy(Result &Res, const std::vector<Cell> &Cells,
                    const std::vector<const Outcome *> &Census) {
  auto Cycles = [&](const std::string &W, const std::string &Target,
                    const std::string &Config) -> double {
    for (size_t I = 0; I < Cells.size(); ++I)
      if (Cells[I].Workload == W && Cells[I].TM->name() == Target &&
          Cells[I].Config == Config && Census[I])
        return double(Census[I]->Sim.Cycles);
    return 0;
  };
  char Buf[256];
  Res.note("paper accuracy (reported, not gated):");
  for (const char *Target : {"alpha", "m88100"}) {
    // Table II compares the fully coalesced column with vpo -O; Table III
    // the loads-only column, since the 88100 has no insert instructions.
    const char *Col =
        std::strcmp(Target, "alpha") == 0 ? "coalesce loads+stores"
                                          : "coalesce loads";
    for (const char *W : {"convolution", "image_add", "image_add16",
                          "image_xor", "translate", "eqntott", "mirror"}) {
      double Base = Cycles(W, Target, "vpo -O");
      double Co = Cycles(W, Target, Col);
      double Save = Base > 0 ? (Base - Co) / Base * 100.0 : 0.0;
      double Paper = paperSave(Target, W);
      if (Paper < 0)
        std::snprintf(Buf, sizeof(Buf),
                      "  %-7s %-12s measured %%save %7.2f   paper n/a",
                      Target, W, Save);
      else
        std::snprintf(Buf, sizeof(Buf),
                      "  %-7s %-12s measured %%save %7.2f   paper %6.2f   "
                      "diff %+7.2f",
                      Target, W, Save, Paper, Save - Paper);
      Res.note(Buf);
    }
  }
  unsigned Slower = 0, Fired = 0;
  for (const char *W : {"convolution", "image_add", "image_add16",
                        "image_xor", "translate", "eqntott", "mirror"}) {
    double Base = Cycles(W, "m68030", "vpo -O");
    double L = Cycles(W, "m68030", "forced-loads");
    double F = Cycles(W, "m68030", "forced-lds+sts");
    if (L != Base || F != Base) {
      ++Fired;
      Slower += (L > Base || F > Base) ? 1 : 0;
    }
  }
  std::snprintf(Buf, sizeof(Buf),
                "  m68030: forced coalescing slower in %u of %u kernels "
                "where it fired; the model is validated only by this sign "
                "(paper: \"slower in all cases\")",
                Slower, Fired);
  Res.note(Buf);
}

} // namespace

int runTables(const Args &A) {
  Result Res;
  const unsigned Threads = A.Threads ? A.Threads : 4;
  SetupOptions SO;
  SO.N = 250000;
  SO.Width = 500;
  SO.Height = 500;
  SO.BaseAlign = 8;
  SO.Seed = A.Seed;

  // Set-up: targets, the cell list and each lane's zeroed golden arena
  // (each cell builds and fills its own inputs, as the table harnesses
  // do). Repeated, median reported; the last copy is the one measured.
  const size_t ArenaBytes = Memory().size();
  std::vector<TargetMachine> TMs;
  std::vector<Cell> Cells;
  std::vector<GoldenArena> Golden;
  double SetupS = medianSeconds(21, [&](unsigned) {
    TMs.clear();
    TMs.push_back(makeAlphaTarget());
    TMs.push_back(makeM88100Target());
    TMs.push_back(makeM68030Target());
    Cells = makeCells(TMs);
    Golden.clear();
    Golden.resize(Threads);
    for (GoldenArena &G : Golden)
      G.Image.assign(ArenaBytes, 0);
  });
  const size_t NCells = Cells.size();

  Tracer Tr;
  OverheadMeter Meter;
  std::mutex Mu;
  std::vector<Outcome> Outcomes;
  const std::vector<double> Passes = runPasses(
      NCells, Threads, A.Seconds, [&](size_t C, size_t Pass, unsigned Lane) {
        const bool Traced = A.Trace && (C + Pass) % 2 == 1;
        std::optional<OpTrace> T;
        if (Traced)
          T.emplace(C, Lane, "cell");
        double T0 = now();
        Outcome O = runCell(Cells[C], C, SO, Golden[Lane],
                            T ? &*T : nullptr);
        O.Seconds = now() - T0;
        O.Traced = Traced;
        if (T) {
          T->finish();
          Tr.commit(std::move(*T));
        }
        if (A.Trace)
          Meter.add(std::to_string(C), Traced, O.Seconds);
        std::lock_guard<std::mutex> L(Mu);
        Outcomes.push_back(std::move(O));
      });
  const double PeakRssMb = selfPeakRssMb();

  // Check phase: every op against its references, and every repeat of a
  // cell against the cell's first outcome (the census).
  std::vector<const Outcome *> Census(NCells, nullptr);
  std::vector<std::vector<double>> CellMs(NCells);
  for (const Outcome &O : Outcomes) {
    ++Res.Attempted;
    CellMs[O.Cell].push_back(O.Seconds * 1e3);
    std::string Why = check(O);
    if (Why.empty() && Census[O.Cell] &&
        !sameCounts(O.C, Census[O.Cell]->C))
      Why = "counts differ from an earlier run of the same cell";
    if (!Why.empty()) {
      Res.fail(Cells[O.Cell].name() + ": " + Why);
      continue;
    }
    if (!Census[O.Cell])
      Census[O.Cell] = &O;
  }
  Counts Total;
  for (size_t C = 0; C < NCells; ++C) {
    if (!Census[C]) {
      Res.fail(Cells[C].name() + ": no verified run");
      continue;
    }
    const Outcome &O = *Census[C];
    Total.merge(O.C);
    char Buf[200];
    std::snprintf(Buf, sizeof(Buf),
                  "cell %-40s cycles %12llu memrefs %10llu insts %11llu "
                  "code_insts %4llu",
                  Cells[C].name().c_str(), (unsigned long long)O.Sim.Cycles,
                  (unsigned long long)O.Sim.MemRefs(),
                  (unsigned long long)O.Sim.Instructions,
                  (unsigned long long)O.C.CodeInsts);
    Res.note(Buf);
  }
  if (Res.Failed == 0)
    reportAccuracy(Res, Cells, Census);

  Res.endToEnd("setup_s", SetupS, "s");
  // Cells per second: the median over passes, each pass the same 84
  // cells.
  const double Elapsed = std::accumulate(Passes.begin(), Passes.end(), 0.0);
  const std::vector<double> PassOps(Passes.size(), double(NCells));
  Res.note(sliceNote("pass", PassOps, Passes));
  Res.endToEnd("ops_per_s", medianRate(PassOps, Passes), "ops/s");
  // Latency per cell: the median of its runs, so every run summarizes
  // the same 84 samples however many passes fit in the window.
  std::vector<double> Ms;
  for (const std::vector<double> &V : CellMs)
    Ms.push_back(median(V));
  Res.latency("op_ms", Ms);
  Res.counts(Total);
  Res.endToEnd("peak_rss_mb", PeakRssMb, "MB");
  Res.note("tables: " + std::to_string(Outcomes.size()) + " cells in " +
           std::to_string(Passes.size()) + " passes, " +
           std::to_string(Elapsed) + " s on " + std::to_string(Threads) +
           " threads");

  if (A.Trace) {
    SelfTimes ST = Tr.selfTimes();
    Res.layers(ST);
    // Engine throughput over the traced ops, whose seconds the spans hold.
    double SimInsts = 0, JitInsts = 0;
    for (const Outcome &O : Outcomes)
      if (O.Traced) {
        SimInsts += double(O.Sim.Instructions);
        JitInsts += double(O.Jit.Instructions);
      }
    double SimS = ST.Seconds["sim.run"], JitS = ST.Seconds["jit.run"];
    Res.perLayer("sim.minsts_per_s", SimS > 0 ? SimInsts / SimS / 1e6 : 0,
                 "Minsts/s");
    Res.perLayer("jit.minsts_per_s", JitS > 0 ? JitInsts / JitS / 1e6 : 0,
                 "Minsts/s");
    Res.perLayer("trace.overhead_pct", Meter.percent(), "%");
    std::string Base = A.OutDir + "/tables-seed" + std::to_string(A.Seed);
    if (!Tr.write(Base + ".trace.json", Base + ".selftime.txt"))
      Res.fail("cannot write the trace files under " + A.OutDir);
  }
  return Res.finish(A);
}

} // namespace perfbench
