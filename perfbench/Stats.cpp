//===- perfbench/Stats.cpp - Summary statistics for the benchmark ---------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> V) {
  Quartiles Q;
  if (V.empty())
    return Q;
  std::sort(V.begin(), V.end());
  const long N = long(V.size());
  if (N == 1) {
    Q.Q1 = Q.Q2 = Q.Q3 = V[0];
    return Q;
  }
  // statistics.quantiles, method="exclusive": m = n + 1; for i in 1..3,
  // j = i*m // 4 clamped to [1, n-1], delta = i*m - j*4, and the cut is
  // (data[j-1] * (4 - delta) + data[j] * delta) / 4.
  double Cuts[3];
  const long M = N + 1;
  for (long I = 1; I <= 3; ++I) {
    long J = I * M / 4;
    J = std::clamp(J, 1L, N - 1);
    long Delta = I * M - J * 4;
    Cuts[I - 1] =
        (V[J - 1] * double(4 - Delta) + V[J] * double(Delta)) / 4.0;
  }
  Q.Q1 = Cuts[0];
  Q.Q2 = Cuts[1];
  Q.Q3 = Cuts[2];
  return Q;
}

Tail tail(std::vector<double> V, size_t MinBeyond) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  static const double Rungs[] = {99.9, 99, 95, 90, 75, 50};
  const size_t N = V.size();
  for (double P : Rungs) {
    // Nearest rank: the smallest rank r with r >= P% of N.
    size_t Rank = size_t(std::ceil(P / 100.0 * double(N) - 1e-9));
    Rank = std::clamp<size_t>(Rank, 1, N);
    size_t Beyond = N - Rank;
    if (Beyond >= MinBeyond) {
      T.Percentile = P;
      T.Value = V[Rank - 1];
      T.Beyond = Beyond;
      return T;
    }
  }
  T.Percentile = 100;
  T.Value = V.back();
  T.Beyond = 0;
  return T;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double Sum = 0;
  for (double X : V) {
    if (!(X > 0))
      return 0;
    Sum += std::log(X);
  }
  return std::exp(Sum / double(V.size()));
}

double unionLength(std::vector<std::pair<double, double>> Iv, double Lo,
                   double Hi) {
  for (auto &I : Iv) {
    I.first = std::max(I.first, Lo);
    I.second = std::min(I.second, Hi);
  }
  Iv.erase(std::remove_if(Iv.begin(), Iv.end(),
                          [](const std::pair<double, double> &I) {
                            return !(I.second > I.first);
                          }),
           Iv.end());
  std::sort(Iv.begin(), Iv.end());
  double Total = 0, CurB = 0, CurE = 0;
  bool Open = false;
  for (const auto &[B, E] : Iv) {
    if (Open && B <= CurE) {
      CurE = std::max(CurE, E);
      continue;
    }
    if (Open)
      Total += CurE - CurB;
    CurB = B;
    CurE = E;
    Open = true;
  }
  if (Open)
    Total += CurE - CurB;
  return Total;
}

double selfTime(double Begin, double End,
                const std::vector<std::pair<double, double>> &Children) {
  if (!(End > Begin))
    return 0;
  return (End - Begin) - unionLength(Children, Begin, End);
}

} // namespace perfbench
