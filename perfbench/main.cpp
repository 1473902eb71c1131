//===- perfbench/main.cpp - Benchmark entry point -------------------------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   vpo_perfbench --workload tables|compile|service --seed N --seconds S
///                 --trace 0|1 [--threads N] [--repo-root DIR]
///                 [--out-dir DIR]
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object with the keys correct, attempted, failed and metrics: the
/// end-to-end metrics with --trace 0, the per-layer metrics with
/// --trace 1. Exits nonzero if any op failed its check. perfbench/run.py
/// builds this binary and is the command to run.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>

int main(int Argc, char **Argv) {
  perfbench::Args A = perfbench::parseArgs(Argc, Argv);
  if (!A.Ok) {
    std::fprintf(stderr,
                 "usage: vpo_perfbench --workload tables|compile|service "
                 "--seed N --seconds S --trace 0|1 [--threads N] "
                 "[--repo-root DIR] [--out-dir DIR]\n");
    return 2;
  }
  if (A.Workload == "tables")
    return perfbench::runTables(A);
  if (A.Workload == "compile")
    return perfbench::runCompile(A);
  return perfbench::runService(A);
}
