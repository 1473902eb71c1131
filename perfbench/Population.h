//===- perfbench/Population.h - Kernel population for compile/service -*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs the `compile` and `service` workloads share:
///
///  * a seeded draw of KernelGen kernels (fuzz/KernelGen.h) from a fixed
///    pool, as IR text plus their mini-C rendering where one exists;
///  * the eleven hand-built workload kernels, printed to IR text;
///  * examples/kernels/*.c, read from the checkout.
///
/// Each input also knows how to run: on the memory layout its generator
/// defines, against either the same input compiled at O0 or, for the
/// hand-built kernels, their golden C++ reference.
///
//===----------------------------------------------------------------------===//

#ifndef VPO_PERFBENCH_POPULATION_H
#define VPO_PERFBENCH_POPULATION_H

#include "fuzz/KernelGen.h"
#include "sim/Interpreter.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace vpo {
class Function;
class Module;
class RemarkSink;
class TargetMachine;
} // namespace vpo

namespace perfbench {

struct Input {
  enum class Source { Generated, HandBuilt, Example };
  Source Src = Source::Generated;
  std::string Name; ///< "gen3.ir", "gen3.c", "hand.eqntott", "ex.blend"
  bool IsC = false; ///< Text is mini-C (else IR text)
  std::string Text;
  vpo::fuzz::KernelSpec Spec; ///< Generated only
  std::string Workload;       ///< HandBuilt only: makeWorkloadByName key
  /// Example only: per C parameter, its element bytes (0 for a scalar)
  /// and whether it is floating point; the scalar named "n" is the count.
  std::vector<std::pair<unsigned, bool>> Params;
  std::vector<std::string> ParamNames;
};

/// Builds the population: \p Generated kernels drawn from \p Seed, the
/// hand-built kernels, and \p RepoRoot/examples/kernels/*.c. \returns an
/// empty vector with \p Err set when the examples cannot be read.
std::vector<Input> makePopulation(uint64_t Seed, unsigned Generated,
                                  const std::string &RepoRoot,
                                  std::string &Err);

/// Parses or compiles \p In into a fresh module (parseModule or
/// cc::compileC). \returns null with \p Err set on failure.
std::unique_ptr<vpo::Module> frontEnd(const Input &In, std::string &Err);

/// The architectural outcome of one run, reduced for comparison.
struct Arch {
  vpo::RunResult R;
  uint64_t Digest = 0; ///< live arena prefix
  bool TailZero = true;
};

/// How many check scenarios \p In has (trip counts x layouts).
unsigned scenarioCount(const Input &In);

/// Runs \p F (compiled from \p In) in scenario \p Scenario on the
/// functional tiered engine, or on the cycle engine when \p Cycles.
/// For hand-built kernels \p Golden receives the golden reference's
/// outcome for the same scenario. \p Sink, if set, collects jit remarks.
Arch runScenario(const vpo::Function &F, const vpo::TargetMachine &TM,
                 const Input &In, unsigned Scenario, uint64_t Seed,
                 bool Cycles, vpo::RemarkSink *Sink = nullptr,
                 Arch *Golden = nullptr);

/// The scenario whose cycle-engine run feeds the census (the largest).
unsigned censusScenario(const Input &In);

/// \returns an empty string if \p A and \p B agree architecturally.
std::string compareArch(const Arch &A, const Arch &B);

} // namespace perfbench

#endif // VPO_PERFBENCH_POPULATION_H
