//===- perfbench/Tracer.cpp - In-memory spans around layer calls ----------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"
#include "Stats.h"

#include "support/Trace.h"

#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

double now() {
  static const auto Start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

OpTrace::OpTrace(uint64_t Op, unsigned Lane, const char *RootName)
    : Op(Op), Lane(Lane) {
  Span Root;
  Root.Name = RootName;
  Root.Begin = now();
  Spans.push_back(std::move(Root));
  Stack.push_back(0);
}

void OpTrace::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Stack.back();
  S.Begin = now();
  Stack.push_back(int(Spans.size()));
  Spans.push_back(std::move(S));
}

void OpTrace::close() {
  Spans[Stack.back()].End = now();
  Stack.pop_back();
}

void OpTrace::addLeaf(const std::string &Name, double Begin, double End) {
  Span S;
  S.Name = Name;
  S.Parent = Stack.back();
  S.Begin = Begin;
  S.End = End;
  Spans.push_back(std::move(S));
}

void OpTrace::finish() {
  Spans[0].End = now();
  Stack.clear();
}

void Tracer::commit(OpTrace T) {
  std::lock_guard<std::mutex> L(Mu);
  Ops.push_back(std::move(T));
}

SelfTimes Tracer::selfTimes() const {
  std::lock_guard<std::mutex> L(Mu);
  SelfTimes Out;
  for (const OpTrace &T : Ops) {
    const std::vector<Span> &S = T.spans();
    std::vector<std::vector<std::pair<double, double>>> Kids(S.size());
    for (size_t I = 1; I < S.size(); ++I)
      Kids[size_t(S[I].Parent)].push_back({S[I].Begin, S[I].End});
    double Sum = 0;
    for (size_t I = 0; I < S.size(); ++I) {
      double Self = selfTime(S[I].Begin, S[I].End, Kids[I]);
      const std::string &Name = I == 0 ? std::string("bench.self") : S[I].Name;
      Out.Seconds[Name] += Self;
      Out.Inclusive[Name] += S[I].End - S[I].Begin;
      Out.Calls[Name] += 1;
      Sum += Self;
    }
    ++Out.Ops;
    Out.OpSeconds += T.duration();
    // Children nest inside their parents and siblings run one after
    // another, so the self times partition the op's span exactly (up to
    // floating-point rounding).
    if (std::fabs(Sum - T.duration()) > 1e-9 + 1e-9 * T.duration())
      ++Out.Unbalanced;
  }
  return Out;
}

bool Tracer::write(const std::string &TracePath,
                   const std::string &TablePath) const {
  vpo::TraceFile TF;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (const OpTrace &T : Ops) {
      const std::vector<Span> &S = T.spans();
      for (size_t I = 0; I < S.size(); ++I) {
        vpo::TraceEvent E;
        E.Name = S[I].Name;
        E.Cat = I == 0 ? "op" : "layer";
        E.TsMicros = uint64_t(S[I].Begin * 1e6);
        E.DurMicros = uint64_t((S[I].End - S[I].Begin) * 1e6);
        E.Tid = T.lane();
        E.Args.push_back({"op", std::to_string(T.op())});
        if (I != 0)
          E.Args.push_back({"parent", S[size_t(S[I].Parent)].Name});
        TF.add(std::move(E));
      }
    }
  }
  if (!TF.writeFile(TracePath))
    return false;

  SelfTimes ST = selfTimes();
  std::FILE *F = std::fopen(TablePath.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "# self time per layer over %llu traced ops (%.6f s of op "
                  "spans)\n",
               (unsigned long long)ST.Ops, ST.OpSeconds);
  std::fprintf(F, "%-28s %10s %14s %14s %8s\n", "layer", "calls",
               "self_s", "self_s/op", "share%");
  for (const auto &[Name, Secs] : ST.Seconds)
    std::fprintf(F, "%-28s %10llu %14.6f %14.9f %7.2f%%\n", Name.c_str(),
                 (unsigned long long)ST.Calls[Name], Secs,
                 ST.Ops ? Secs / double(ST.Ops) : 0.0,
                 ST.OpSeconds > 0 ? 100.0 * Secs / ST.OpSeconds : 0.0);
  return std::fclose(F) == 0;
}

} // namespace perfbench
