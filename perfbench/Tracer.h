//===- perfbench/Tracer.h - In-memory spans around layer calls --*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark's own code around each call it makes
/// into a src/ layer. A span holds a name ("sim.run", "pipeline.compile",
/// ...), start and end on one steady clock, its parent and the op it
/// belongs to (cell index, compile index or request id). Spans stay in
/// memory, one OpTrace per op, and are written when the run ends: as a
/// Chrome trace (support/Trace.h) and as a table of self time per layer.
///
/// An untraced op passes a null OpTrace; every Scope on it is then a
/// pointer test, so the untraced and traced paths run the same calls.
///
//===----------------------------------------------------------------------===//

#ifndef VPO_PERFBENCH_TRACER_H
#define VPO_PERFBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the process started.
double now();

struct Span {
  std::string Name;
  double Begin = 0;
  double End = 0;
  int Parent = -1; ///< index in the op's span list; -1 for the op's root
};

/// The spans of one op, root first. Built by one thread.
class OpTrace {
public:
  OpTrace(uint64_t Op, unsigned Lane, const char *RootName);

  /// Opens a child of the innermost open span.
  void open(const char *Name);
  /// Closes the innermost open span.
  void close();
  /// Adds an already-timed leaf under the innermost open span (pass
  /// profiles, which report durations rather than timestamps).
  void addLeaf(const std::string &Name, double Begin, double End);
  /// Closes the root. Every span must be closed by then.
  void finish();

  uint64_t op() const { return Op; }
  unsigned lane() const { return Lane; }
  const std::vector<Span> &spans() const { return Spans; }
  double duration() const { return Spans[0].End - Spans[0].Begin; }
  /// Start of the innermost open span.
  double openBegin() const { return Spans[Stack.back()].Begin; }

private:
  uint64_t Op;
  unsigned Lane;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span on a possibly-null OpTrace.
class Scope {
public:
  Scope(OpTrace *T, const char *Name) : T(T) {
    if (T)
      T->open(Name);
  }
  ~Scope() {
    if (T)
      T->close();
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  OpTrace *T;
};

/// Per-layer self time summed over every committed op.
struct SelfTimes {
  std::map<std::string, double> Seconds; ///< span name -> summed self time
  std::map<std::string, double> Inclusive; ///< span name -> summed duration
  std::map<std::string, uint64_t> Calls; ///< span name -> span count
  uint64_t Ops = 0;
  double OpSeconds = 0; ///< summed root durations
  /// Ops whose self times do not add up to the root span (nesting bug).
  uint64_t Unbalanced = 0;
};

/// Collects finished ops from any thread.
class Tracer {
public:
  void commit(OpTrace T);

  /// Self time of every span, grouped by name; the root's self time is
  /// the benchmark's own share ("bench.self").
  SelfTimes selfTimes() const;

  /// Writes the Chrome trace to \p TracePath and the self-time table to
  /// \p TablePath. \returns false on I/O failure.
  bool write(const std::string &TracePath, const std::string &TablePath) const;

private:
  mutable std::mutex Mu;
  std::vector<OpTrace> Ops;
};

} // namespace perfbench

#endif // VPO_PERFBENCH_TRACER_H
