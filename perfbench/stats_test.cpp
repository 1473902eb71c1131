//===- perfbench/stats_test.cpp - Tests for the benchmark's statistics ----===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks Stats.h against hand-computed values: the tail rule, median and
/// quartiles (matching Python's statistics module), the geometric mean,
/// and self time with nested and overlapping children. Run with
/// `python3 perfbench/run.py --self-test`; exits nonzero on any failure.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

int Failures = 0;

void expectNear(double Got, double Want, const char *What) {
  if (std::fabs(Got - Want) > 1e-9 * (1 + std::fabs(Want))) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", What, Got, Want);
    ++Failures;
  }
}

std::vector<double> iota(int N) {
  std::vector<double> V;
  for (int I = 1; I <= N; ++I)
    V.push_back(I);
  return V;
}

void testMedianAndQuartiles() {
  expectNear(median({}), 0, "median of nothing");
  expectNear(median({3, 1, 2}), 2, "odd median");
  expectNear(median({4, 1, 3, 2}), 2.5, "even median");
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  Quartiles Q = quartiles(iota(10));
  expectNear(Q.Q1, 2.75, "quartiles(1..10).q1");
  expectNear(Q.Q2, 5.5, "quartiles(1..10).q2");
  expectNear(Q.Q3, 8.25, "quartiles(1..10).q3");
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  Q = quartiles({3, 1, 2});
  expectNear(Q.Q1, 1.0, "quartiles(1..3).q1");
  expectNear(Q.Q3, 3.0, "quartiles(1..3).q3");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  Q = quartiles({2, 1});
  expectNear(Q.Q1, 0.75, "quartiles(1,2).q1");
  expectNear(Q.Q2, 1.5, "quartiles(1,2).q2");
  expectNear(Q.Q3, 2.25, "quartiles(1,2).q3");
  // statistics.quantiles([0.5, 7, 1, 9, 3, 2.5], n=4) == [0.875, 2.75, 7.5]
  Q = quartiles({0.5, 7, 1, 9, 3, 2.5});
  expectNear(Q.Q1, 0.875, "quartiles(6).q1");
  expectNear(Q.Q2, 2.75, "quartiles(6).q2");
  expectNear(Q.Q3, 7.5, "quartiles(6).q3");
}

void testTail() {
  // 1000 samples: p99.9 leaves 1 beyond, p99 leaves 10 -> p99 = 990.
  Tail T = tail(iota(1000));
  expectNear(T.Percentile, 99, "tail(1000) percentile");
  expectNear(T.Value, 990, "tail(1000) value");
  expectNear(double(T.Beyond), 10, "tail(1000) beyond");
  expectNear(double(T.Samples), 1000, "tail(1000) samples");
  // 999 samples: p99 rank 990 leaves 9 -> falls to p95 (rank 950).
  T = tail(iota(999));
  expectNear(T.Percentile, 95, "tail(999) percentile");
  expectNear(T.Value, 950, "tail(999) value");
  // 100 samples: p90 rank 90 leaves 10.
  T = tail(iota(100));
  expectNear(T.Percentile, 90, "tail(100) percentile");
  expectNear(T.Value, 90, "tail(100) value");
  // 20 samples: only p50 (rank 10, 10 beyond) qualifies.
  T = tail(iota(20));
  expectNear(T.Percentile, 50, "tail(20) percentile");
  expectNear(T.Value, 10, "tail(20) value");
  // 19 samples: nothing qualifies; the maximum, flagged as p100.
  T = tail(iota(19));
  expectNear(T.Percentile, 100, "tail(19) percentile");
  expectNear(T.Value, 19, "tail(19) value");
  expectNear(double(T.Beyond), 0, "tail(19) beyond");
  // Order does not matter.
  std::vector<double> R = iota(100);
  std::vector<double> Rev(R.rbegin(), R.rend());
  expectNear(tail(Rev).Value, 90, "tail of reversed input");
}

void testGeomean() {
  expectNear(geomean({2, 8}), 4, "geomean(2,8)");
  expectNear(geomean({1, 10, 100}), 10, "geomean(1,10,100)");
  expectNear(geomean({5}), 5, "geomean(5)");
  expectNear(geomean({}), 0, "geomean of nothing");
  expectNear(geomean({3, 0}), 0, "geomean with a zero");
}

void testSelfTime() {
  // No children: the whole span.
  expectNear(selfTime(0, 10, {}), 10, "self, no children");
  // Disjoint children.
  expectNear(selfTime(0, 10, {{1, 3}, {5, 6}}), 7, "self, disjoint");
  // Nested: a child inside another child counts once.
  expectNear(selfTime(0, 10, {{1, 6}, {2, 4}}), 5, "self, nested");
  // Overlapping children: union [2, 7).
  expectNear(selfTime(0, 10, {{2, 5}, {4, 7}}), 5, "self, overlapping");
  // Children sticking out of the parent are clipped.
  expectNear(selfTime(2, 8, {{0, 3}, {7, 12}}), 4, "self, clipped");
  // A child covering everything leaves nothing.
  expectNear(selfTime(0, 10, {{0, 10}, {3, 4}}), 0, "self, covered");
  // Touching intervals merge without a gap.
  expectNear(selfTime(0, 10, {{1, 2}, {2, 3}}), 8, "self, touching");
  // Empty and inverted children contribute nothing.
  expectNear(selfTime(0, 10, {{4, 4}, {6, 5}}), 10, "self, degenerate");
  expectNear(unionLength({{1, 4}, {2, 3}, {8, 9}}, 0, 100), 4, "union");
}

} // namespace

int main() {
  testMedianAndQuartiles();
  testTail();
  testGeomean();
  testSelfTime();
  if (Failures) {
    std::printf("%d failure(s)\n", Failures);
    return 1;
  }
  std::printf("stats: all checks passed\n");
  return 0;
}
