//===- perfbench/Population.cpp - Kernel population for compile/service ---===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//

#include "Population.h"
#include "Bench.h"

#include "frontend/CFront.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "support/RNG.h"
#include "target/TargetMachine.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>

using namespace vpo;

namespace perfbench {
namespace {

/// The seed a later performance claim must also hold on (README.md). Its
/// generated kernels come from a pool of their own, disjoint from the pool
/// every other seed draws from.
constexpr uint64_t HeldOutSeed = 7919;
constexpr size_t ArenaBytes = size_t(1) << 20;
constexpr uint64_t MaxSteps = 50'000'000;
const int64_t ExampleTrips[] = {0, 7, 1000};

/// Reads the parameter list of the first function in a mini-C file:
/// element size and float-ness of pointer parameters, scalars as 0.
bool parseSignature(const std::string &Src, Input &In) {
  size_t Open = Src.find('(');
  size_t Close = Src.find(')', Open);
  if (Open == std::string::npos || Close == std::string::npos)
    return false;
  std::stringstream SS(Src.substr(Open + 1, Close - Open - 1));
  std::string P;
  while (std::getline(SS, P, ',')) {
    bool Ptr = P.find('*') != std::string::npos;
    unsigned Bytes = P.find("char") != std::string::npos    ? 1
                     : P.find("short") != std::string::npos ? 2
                     : P.find("long") != std::string::npos ||
                             P.find("double") != std::string::npos
                         ? 8
                         : 4;
    bool Float = P.find("float") != std::string::npos ||
                 P.find("double") != std::string::npos;
    size_t E = P.find_last_not_of(" \t\n");
    size_t B = P.find_last_of(" \t\n*", E);
    In.ParamNames.push_back(P.substr(B + 1, E - B));
    In.Params.push_back({Ptr ? Bytes : 0u, Float});
  }
  return !In.Params.empty();
}

std::vector<int64_t> setupExample(const Input &In, int64_t N, uint64_t Seed,
                                  Memory &Mem) {
  std::vector<int64_t> Args;
  for (size_t I = 0; I < In.Params.size(); ++I) {
    auto [Bytes, Float] = In.Params[I];
    if (Bytes == 0) {
      Args.push_back(In.ParamNames[I] == "n" ? N : 3);
      continue;
    }
    uint64_t Base = Mem.allocate(size_t(N) * Bytes + 64, 8);
    RNG R(Seed * 31 + I);
    for (int64_t E = 0; E < N; ++E) {
      uint8_t *P = Mem.data() + Base + uint64_t(E) * Bytes;
      if (Float && Bytes == 4) {
        float V = float(int64_t(R.nextBelow(200)) - 100) / 8.0f;
        std::memcpy(P, &V, 4);
      } else if (Float) {
        double V = double(int64_t(R.nextBelow(200)) - 100) / 8.0;
        std::memcpy(P, &V, 8);
      } else {
        for (unsigned B = 0; B < Bytes; ++B)
          P[B] = uint8_t(R.next());
      }
    }
    Args.push_back(int64_t(Base));
  }
  return Args;
}

SetupOptions handBuiltSetup(uint64_t Seed) {
  SetupOptions SO; // 4096 elements / 64x64 images
  SO.Seed = Seed;
  return SO;
}

Arch finishRun(const RunResult &R, const Memory &Mem) {
  Arch A;
  A.R = R;
  size_t Used = Mem.usedBytes();
  A.Digest = digest(Mem.data(), Used);
  A.TailZero = allZero(Mem.data() + Used, Mem.size() - Used);
  return A;
}

} // namespace

std::vector<Input> makePopulation(uint64_t Seed, unsigned Generated,
                                  const std::string &RepoRoot,
                                  std::string &Err) {
  std::vector<Input> Pop;
  // The draw: Generated kernels out of a fixed pool a quarter larger,
  // chosen by the seed. Population sums (code size, cycles) then move
  // with the seed far less than with a fresh draw each time, which keeps
  // seed-to-seed spread below the benchmark's bounds. The held-out seed
  // draws from a second pool, so a claim checked on it meets kernels no
  // tuning seed has shown.
  std::vector<uint64_t> PoolSeeds;
  RNG PoolRng(Seed == HeldOutSeed ? 0x4e1d0017ull : 0x5eed5eedull);
  for (unsigned I = 0; I < Generated + Generated / 4; ++I)
    PoolSeeds.push_back(PoolRng.next());
  RNG R(Seed ^ 0x9e3779b97f4a7c15ull);
  for (size_t I = PoolSeeds.size(); I > 1; --I)
    std::swap(PoolSeeds[I - 1], PoolSeeds[R.nextBelow(I)]);
  for (unsigned I = 0; I < Generated; ++I) {
    fuzz::GeneratedKernel GK = fuzz::generateKernel(PoolSeeds[I]);
    Input In;
    In.Src = Input::Source::Generated;
    In.Name = "gen" + std::to_string(I) + ".ir";
    In.Text = GK.IRText;
    In.Spec = GK.Spec;
    if (!GK.CSource.empty()) {
      Input C = In;
      C.Name = "gen" + std::to_string(I) + ".c";
      C.IsC = true;
      C.Text = GK.CSource;
      Pop.push_back(std::move(In));
      Pop.push_back(std::move(C));
    } else {
      Pop.push_back(std::move(In));
    }
  }
  for (const std::unique_ptr<Workload> &W : allWorkloads()) {
    Module M;
    Input In;
    In.Src = Input::Source::HandBuilt;
    In.Name = std::string("hand.") + W->name();
    In.Workload = W->name();
    In.Text = printFunction(*W->build(M));
    Pop.push_back(std::move(In));
  }
  std::string Dir = RepoRoot + "/examples/kernels";
  std::vector<std::string> Files;
  if (DIR *D = opendir(Dir.c_str())) {
    while (dirent *E = readdir(D)) {
      std::string N = E->d_name;
      if (N.size() > 2 && N.compare(N.size() - 2, 2, ".c") == 0)
        Files.push_back(N);
    }
    closedir(D);
  }
  std::sort(Files.begin(), Files.end());
  if (Files.empty()) {
    Err = "no kernels under " + Dir;
    return {};
  }
  for (const std::string &N : Files) {
    std::ifstream F(Dir + "/" + N);
    std::stringstream SS;
    SS << F.rdbuf();
    Input In;
    In.Src = Input::Source::Example;
    In.Name = "ex." + N.substr(0, N.size() - 2);
    In.IsC = true;
    In.Text = SS.str();
    if (!F || !parseSignature(In.Text, In)) {
      Err = "cannot read the signature of " + Dir + "/" + N;
      return {};
    }
    Pop.push_back(std::move(In));
  }
  return Pop;
}

std::unique_ptr<Module> frontEnd(const Input &In, std::string &Err) {
  return In.IsC ? cc::compileC(In.Text, &Err) : parseModule(In.Text, &Err);
}

unsigned scenarioCount(const Input &In) {
  switch (In.Src) {
  case Input::Source::Generated:
    return unsigned(In.Spec.TripCounts.size()) * 2;
  case Input::Source::HandBuilt:
    return 1;
  case Input::Source::Example:
    return 3;
  }
  return 0;
}

unsigned censusScenario(const Input &In) {
  if (In.Src == Input::Source::Generated) {
    const std::vector<int64_t> &T = In.Spec.TripCounts;
    return unsigned(std::max_element(T.begin(), T.end()) - T.begin()) * 2;
  }
  return scenarioCount(In) - 1;
}

Arch runScenario(const Function &F, const TargetMachine &TM, const Input &In,
                 unsigned Scenario, uint64_t Seed, bool Cycles,
                 RemarkSink *Sink, Arch *Golden) {
  InterpreterOptions IO;
  IO.MaxSteps = MaxSteps;
  IO.EnableJIT = !Cycles;
  IO.Remarks = Sink;
  if (In.Src == Input::Source::HandBuilt) {
    std::unique_ptr<Workload> W = makeWorkloadByName(In.Workload);
    SetupOptions SO = handBuiltSetup(Seed);
    Memory Mem;
    SetupResult S = W->setup(Mem, SO);
    if (Golden) {
      size_t Used = Mem.usedBytes();
      std::vector<uint8_t> Image(Mem.data(), Mem.data() + Used);
      Golden->R = RunResult();
      Golden->R.ReturnValue = W->golden(Image.data(), SO, S);
      Golden->Digest = digest(Image.data(), Used);
      Golden->TailZero = true;
    }
    Interpreter Interp(TM, Mem, IO);
    RunResult R = Interp.run(F, S.Args);
    return finishRun(R, Mem);
  }
  Memory Mem(ArenaBytes);
  std::vector<int64_t> Args;
  if (In.Src == Input::Source::Generated)
    Args = fuzz::setupKernelMemory(In.Spec, In.Spec.TripCounts[Scenario / 2],
                                   Mem, (Scenario % 2) * 3);
  else
    Args = setupExample(In, ExampleTrips[Scenario], Seed, Mem);
  Interpreter Interp(TM, Mem, IO);
  RunResult R = Interp.run(F, Args);
  return finishRun(R, Mem);
}

std::string compareArch(const Arch &A, const Arch &B) {
  if (A.R.Exit != B.R.Exit)
    return std::string("exit ") + runStatusName(A.R.Exit) + " vs " +
           runStatusName(B.R.Exit) + " " + A.R.Error + B.R.Error;
  if (A.R.ReturnValue != B.R.ReturnValue)
    return "return " + std::to_string(A.R.ReturnValue) + " vs " +
           std::to_string(B.R.ReturnValue);
  if (A.Digest != B.Digest || A.TailZero != B.TailZero)
    return "memory image differs";
  return {};
}

} // namespace perfbench
