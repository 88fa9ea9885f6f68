//===- bounds/CohenPetrankBounds.cpp - PLDI 2013 main results ------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "bounds/CohenPetrankBounds.h"

#include "bounds/BenderskyPetrankBounds.h"
#include "bounds/RobsonBounds.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pcb;

unsigned pcb::cohenPetrankMaxSigma(double C) {
  // 2^sigma <= 3c/4, sigma >= 1. A non-finite c admits no sigma.
  double Limit = 0.75 * C;
  if (!std::isfinite(Limit) || Limit < 2.0)
    return 0;
  return unsigned(std::floor(std::log2(Limit)));
}

/// The partial sum sum_{i=1..Sigma} i / (2^i - 1) from Lemma 4.5's bound
/// on the first-stage allocation volume s1.
static double stageOneSeries(unsigned Sigma) {
  double Sum = 0.0;
  for (unsigned I = 1; I <= Sigma; ++I)
    Sum += double(I) / (std::pow(2.0, double(I)) - 1.0);
  return Sum;
}

double pcb::cohenPetrankLowerWasteFactorForSigma(const BoundParams &P,
                                                 unsigned Sigma) {
  assert(P.valid() && "invalid bound parameters");
  assert(Sigma >= 1 && Sigma <= cohenPetrankMaxSigma(P.C) &&
         "sigma outside Theorem 1's admissible range");
  double TwoSigma = std::pow(2.0, double(Sigma));
  double A = 0.75 - TwoSigma / P.C;
  double L =
      (double(P.logN()) - 2.0 * double(Sigma) - 1.0) / (double(Sigma) + 1.0);
  double S1 = double(Sigma) + 1.0 - 0.5 * stageOneSeries(Sigma);
  double Numerator = (double(Sigma) + 2.0) / 2.0 - (TwoSigma / P.C) * S1 +
                     A * L - 2.0 * double(P.N) / double(P.M);
  double Denominator = 1.0 + A * L / TwoSigma;
  // The denominator is 1 + 2^{-sigma} * A * L; A >= 0 by admissibility and
  // L > -1, so it stays positive for every admissible sigma.
  assert(Denominator > 0.0 && "degenerate Theorem 1 denominator");
  return Numerator / Denominator;
}

unsigned pcb::cohenPetrankOptimalSigma(const BoundParams &P) {
  unsigned MaxSigma = cohenPetrankMaxSigma(P.C);
  unsigned Best = 0;
  double BestH = -1.0;
  for (unsigned Sigma = 1; Sigma <= MaxSigma; ++Sigma) {
    double H = cohenPetrankLowerWasteFactorForSigma(P, Sigma);
    if (H > BestH) {
      BestH = H;
      Best = Sigma;
    }
  }
  return Best;
}

double pcb::cohenPetrankLowerWasteFactor(const BoundParams &P) {
  unsigned Sigma = cohenPetrankOptimalSigma(P);
  if (Sigma == 0)
    return 1.0;
  return std::max(1.0, cohenPetrankLowerWasteFactorForSigma(P, Sigma));
}

double pcb::cohenPetrankLowerHeapWords(const BoundParams &P) {
  return cohenPetrankLowerWasteFactor(P) * double(P.M);
}

std::vector<double> pcb::cohenPetrankUpperSequence(const BoundParams &P) {
  assert(P.valid() && "invalid bound parameters");
  unsigned LogN = P.logN();
  std::vector<double> A;
  A.reserve(LogN + 1);
  A.push_back(1.0);
  // a_i = (1 - 1/c) * max_{j<i} 2^{j-i} a_j. Track max_j 2^j a_j so each
  // step is O(1).
  double MaxScaled = 1.0; // max over j of 2^j * a_j
  for (unsigned I = 1; I <= LogN; ++I) {
    double Ai = (1.0 - 1.0 / P.C) * MaxScaled / std::pow(2.0, double(I));
    A.push_back(Ai);
    MaxScaled = std::max(MaxScaled, Ai * std::pow(2.0, double(I)));
  }
  return A;
}

double pcb::cohenPetrankUpperHeapWords(const BoundParams &P) {
  assert(P.C > 0.5 * double(P.logN()) &&
         "Theorem 2 requires c > log2(n)/2");
  std::vector<double> A = cohenPetrankUpperSequence(P);
  double Floor = 1.0 / (4.0 - 2.0 / P.C);
  double Sum = 0.0;
  for (double Ai : A)
    Sum += std::max(Ai, Floor);
  return 2.0 * double(P.M) * Sum + 2.0 * double(P.N) * double(P.logN());
}

double pcb::cohenPetrankUpperWasteFactor(const BoundParams &P) {
  return cohenPetrankUpperHeapWords(P) / double(P.M);
}

double pcb::priorBestUpperWasteFactor(const BoundParams &P) {
  return std::min(benderskyPetrankUpperWasteFactor(P),
                  robsonGeneralWasteFactor(P));
}

double pcb::newBestUpperWasteFactor(const BoundParams &P) {
  double Prior = priorBestUpperWasteFactor(P);
  if (P.C <= 0.5 * double(P.logN()))
    return Prior;
  return std::min(Prior, cohenPetrankUpperWasteFactor(P));
}

double pcb::cohenPetrankAllocationFactor(const BoundParams &P,
                                         unsigned Sigma) {
  double H = cohenPetrankLowerWasteFactorForSigma(P, Sigma);
  return (1.0 - H / std::pow(2.0, double(Sigma))) / (double(Sigma) + 1.0);
}
