//===- perfbench/Stats.h - Summary statistics for the benchmark -*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The few statistics every benchmark figure is built from, kept in one
/// place so they can be tested against hand-computed values
/// (stats_test.cpp):
///
///  * median and quartiles, computed exactly as Python's
///    `statistics.median` and `statistics.quantiles(data, n=4)` (the
///    default "exclusive" method) do, so the benchmark and any script
///    reading its output agree on a spread;
///  * the tail rule: a latency tail is the highest percentile that still
///    has at least ten samples beyond it, reported with that percentile
///    and the sample count, never a p99 of two dozen samples;
///  * the geometric mean, for averaging cycle counts across cells;
///  * self time: a span's duration minus the union of its children's
///    intervals, correct when children nest or overlap.
///
//===----------------------------------------------------------------------===//

#ifndef VPO_PERFBENCH_STATS_H
#define VPO_PERFBENCH_STATS_H

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of \p V (mean of the two middle values for an even count).
/// 0 for an empty sample.
double median(std::vector<double> V);

/// The three cut points of `statistics.quantiles(V, n=4)`
/// (method="exclusive"). Needs at least two samples; fewer yield the one
/// value (or 0) three times.
struct Quartiles {
  double Q1 = 0, Q2 = 0, Q3 = 0;
};
Quartiles quartiles(std::vector<double> V);

/// A latency tail under the ten-beyond rule.
struct Tail {
  double Percentile = 0; ///< e.g. 99 for p99; 0 when no rung qualifies
  double Value = 0;      ///< the sample at that percentile (nearest rank)
  size_t Samples = 0;    ///< sample count the percentile was taken over
  size_t Beyond = 0;     ///< samples strictly above the percentile's rank
};

/// The highest of p99.9, p99, p95, p90, p75 and p50 whose nearest-rank
/// position leaves at least \p MinBeyond samples above it. With fewer
/// than 2 * MinBeyond samples no rung qualifies and the maximum is
/// returned with Percentile = 100 and Beyond = 0, so a caller can see the
/// tail is not trustworthy.
Tail tail(std::vector<double> V, size_t MinBeyond = 10);

/// exp(mean(log x)). Non-positive values are not allowed (returns 0).
double geomean(const std::vector<double> &V);

/// Length of the union of [Begin, End) intervals clipped to
/// [Lo, Hi). Empty and inverted intervals contribute nothing.
double unionLength(std::vector<std::pair<double, double>> Iv, double Lo,
                   double Hi);

/// Self time of a span [Begin, End) whose children cover \p Children:
/// the duration minus the part of it any child covers, counted once.
double selfTime(double Begin, double End,
                const std::vector<std::pair<double, double>> &Children);

} // namespace perfbench

#endif // VPO_PERFBENCH_STATS_H
