//===- tools/vpod.cpp - The optimizer-as-a-service daemon -------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for service/Daemon.h: bind a Unix socket, fork
/// the worker pool, serve until SIGINT or an op=shutdown request.
/// SIGTERM drains instead of stopping: the daemon closes the listen
/// socket, finishes queued work under --drain-deadline-ms, flushes the
/// cache journal, and exits 0.
///
///   vpod --socket=/tmp/vpod.sock --workers=4
///   vpod --socket=vpod.sock --deadline-ms=2000 --mem-limit-mb=512
///   vpod --socket=vpod.sock --cache-file=vpod.vpj   # warm-boot journal
///   vpod --socket=vpod.sock --allow-fault-injection   # test rigs only
///
/// Every option maps 1:1 onto DaemonOptions / WorkerLimits; see
/// --help for the full list. The daemon prints one line when it is
/// ready ("vpod: serving on <path> ...") so scripts can wait for it.
///
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace vpo;
using namespace vpo::service;

namespace {

volatile std::sig_atomic_t StopFlag = 0;
volatile std::sig_atomic_t DrainFlag = 0;

void onStop(int) { StopFlag = 1; }
void onDrain(int) { DrainFlag = 1; }

void usage() {
  std::fprintf(
      stderr,
      "usage: vpod [options]\n"
      "  --socket=PATH           Unix socket to serve on (default "
      "vpod.sock)\n"
      "  --workers=N             worker processes (default 4)\n"
      "  --queue-depth=N         per-worker queue bound (default 64)\n"
      "  --deadline-ms=N         default per-request deadline (default "
      "5000)\n"
      "  --max-deadline-ms=N     cap on client deadline overrides "
      "(default 30000)\n"
      "  --cache-entries=N       content-cache bound (default 1024)\n"
      "  --cache-file=PATH       persistent cache journal; replayed on "
      "boot,\n"
      "                          crash-safe (fsync per insert). Default: "
      "off\n"
      "  --no-journal-sync       skip the per-insert fsync (benchmarks "
      "only)\n"
      "  --drain-deadline-ms=N   SIGTERM drain budget before exiting "
      "(default 5000)\n"
      "  --max-insts=N           run-mode instruction budget (default "
      "50000000)\n"
      "  --max-function-insts=N  pipeline IR growth budget (default "
      "2000000)\n"
      "  --mem-limit-mb=N        worker address-space ceiling, 0 = off "
      "(default 0)\n"
      "  --allow-fault-injection honor request fault plants (test rigs "
      "only)\n"
      "  --no-jit                keep run-mode simulations on the "
      "portable interpreter tier\n");
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonOptions Opts;
  Opts.StopFlag = &StopFlag;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Val = [&Arg](const char *Name) -> const char * {
      size_t N = std::strlen(Name);
      if (Arg.compare(0, N, Name) == 0 && Arg.size() > N && Arg[N] == '=')
        return Arg.c_str() + N + 1;
      return nullptr;
    };
    uint64_t U = 0;
    if (const char *V = Val("--socket")) {
      Opts.SocketPath = V;
    } else if (const char *V = Val("--workers")) {
      if (!parseU64(V, U) || U == 0 || U > 256) {
        usage();
        return 2;
      }
      Opts.Workers = unsigned(U);
    } else if (const char *V = Val("--queue-depth")) {
      if (!parseU64(V, U) || U == 0) {
        usage();
        return 2;
      }
      Opts.QueueDepth = size_t(U);
    } else if (const char *V = Val("--deadline-ms")) {
      if (!parseU64(V, U) || U == 0) {
        usage();
        return 2;
      }
      Opts.DefaultDeadlineMs = U;
    } else if (const char *V = Val("--max-deadline-ms")) {
      if (!parseU64(V, U) || U == 0) {
        usage();
        return 2;
      }
      Opts.MaxDeadlineMs = U;
    } else if (const char *V = Val("--cache-entries")) {
      if (!parseU64(V, U)) {
        usage();
        return 2;
      }
      Opts.CacheEntries = size_t(U);
    } else if (const char *V = Val("--cache-file")) {
      Opts.CacheJournalPath = V;
    } else if (Arg == "--no-journal-sync") {
      Opts.JournalSyncEveryInsert = false;
    } else if (const char *V = Val("--drain-deadline-ms")) {
      if (!parseU64(V, U) || U == 0) {
        usage();
        return 2;
      }
      Opts.DrainDeadlineMs = U;
    } else if (const char *V = Val("--max-insts")) {
      if (!parseU64(V, U) || U == 0) {
        usage();
        return 2;
      }
      Opts.Limits.MaxInsts = U;
    } else if (const char *V = Val("--max-function-insts")) {
      if (!parseU64(V, U)) {
        usage();
        return 2;
      }
      Opts.Limits.MaxFunctionInsts = size_t(U);
    } else if (const char *V = Val("--mem-limit-mb")) {
      if (!parseU64(V, U)) {
        usage();
        return 2;
      }
      Opts.Limits.MemLimitMB = size_t(U);
    } else if (Arg == "--allow-fault-injection") {
      Opts.Limits.AllowFaultInjection = true;
    } else if (Arg == "--no-jit") {
      Opts.Limits.JITNative = false;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "vpod: unknown argument '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }

  Opts.DrainFlag = &DrainFlag;
  std::signal(SIGINT, onStop);
  std::signal(SIGTERM, onDrain);

  Daemon D(Opts);
  if (Status S = D.start(); !S) {
    std::fprintf(stderr, "vpod: %s\n", S.message().c_str());
    return 1;
  }
  const CacheRecoveryStats &RS = D.recovery();
  if (!Opts.CacheJournalPath.empty())
    std::fprintf(stderr,
                 "vpod: cache journal %s: recovered=%llu aliases=%llu "
                 "discarded=%llu torn_tail=%d\n",
                 Opts.CacheJournalPath.c_str(),
                 (unsigned long long)RS.RecoveredEntries,
                 (unsigned long long)RS.RecoveredAliases,
                 (unsigned long long)RS.DiscardedRecords,
                 RS.TornTail ? 1 : 0);
  std::fprintf(stderr, "vpod: serving on %s (%u workers, deadline %llu ms%s)\n",
               D.socketPath().c_str(), Opts.Workers,
               (unsigned long long)Opts.DefaultDeadlineMs,
               Opts.Limits.AllowFaultInjection ? ", fault injection ON"
                                               : "");
  D.run();
  const DaemonCounters &C = D.counters();
  std::fprintf(stderr,
               "vpod: stopped. requests=%llu cache_hits=%llu "
               "canonical_hits=%llu shed=%llu crashes=%llu deadlines=%llu "
               "respawns=%llu degraded=%llu exhausted=%llu\n",
               (unsigned long long)C.Requests,
               (unsigned long long)C.CacheHits,
               (unsigned long long)C.CanonicalHits, (unsigned long long)C.Shed,
               (unsigned long long)C.WorkerCrashes,
               (unsigned long long)C.WorkerDeadlines,
               (unsigned long long)C.Respawns,
               (unsigned long long)C.Degraded,
               (unsigned long long)C.Exhausted);
  return 0;
}
