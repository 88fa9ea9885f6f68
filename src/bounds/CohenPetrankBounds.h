//===- bounds/CohenPetrankBounds.h - PLDI 2013 main results -----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's two theorems.
///
/// Theorem 1 (lower bound). For every c-partial memory manager A and every
/// M > n > 1 there is a program PF in P2(M, n) with HS(A, PF) >= M * h,
/// where, for any integer sigma with 1 <= sigma <= log2(3c/4),
///
///     A  = 3/4 - 2^sigma / c
///     L  = (log2(n) - 2*sigma - 1) / (sigma + 1)
///     S1 = sigma + 1 - (1/2) * sum_{i=1..sigma} i / (2^i - 1)
///
///     h(sigma) = [ (sigma+2)/2 - (2^sigma/c) * S1 + A*L - 2n/M ]
///                / [ 1 + 2^{-sigma} * A * L ]
///
/// and h is the maximum of h(sigma) over admissible sigma. The density
/// parameter of the adversary is 2^{-sigma}; the constraint
/// 2^sigma <= 3c/4 keeps chunk evacuation unprofitable for the manager.
/// h(sigma) follows from the paper's own algebra (Lemmas 4.5 and 4.6
/// combined with the budget identity q1 + q2 <= (s1 + s2)/c) solved for h
/// at equality. Validated against the values the paper states in prose:
/// h = 2 at c = 10, ~3.15 at c = 50, ~3.5 at c = 100 for M = 2^28,
/// n = 2^20.
///
/// Theorem 2 (upper bound). For c > log2(n)/2 there is a c-partial manager
/// AC with, for every program in P(M, n),
///
///     HS(AC, P) <= 2M * sum_{i=0..log2(n)} max(a_i, 1/(4 - 2/c))
///                  + 2n * log2(n)
///
/// where a_0 = 1 and a_i = (1 - 1/c) * max_{j<i} 2^{j-i} * a_j. The
/// conference text's rendering of this recursion is partially corrupted;
/// this is our documented best-effort reconstruction (see DESIGN.md §3)
/// and EXPERIMENTS.md reports how its curve compares with the paper's
/// qualitative description of Figure 3.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_BOUNDS_COHENPETRANKBOUNDS_H
#define PCBOUND_BOUNDS_COHENPETRANKBOUNDS_H

#include "bounds/Params.h"

#include <vector>

namespace pcb {

/// Largest admissible density exponent: floor(log2(3c/4)). Returns 0 when
/// even sigma = 1 is inadmissible (c < 8/3) or c is not finite.
unsigned cohenPetrankMaxSigma(double C);

/// The value h(sigma) of Theorem 1 for a specific density exponent.
/// \p Sigma must satisfy 1 <= Sigma <= cohenPetrankMaxSigma(P.C).
double cohenPetrankLowerWasteFactorForSigma(const BoundParams &P,
                                            unsigned Sigma);

/// The sigma maximizing h(sigma); 0 when no sigma is admissible.
unsigned cohenPetrankOptimalSigma(const BoundParams &P);

/// Theorem 1's waste factor h = max over sigma of h(sigma), clamped below
/// at the trivial 1.0 (a heap of size M is always necessary).
double cohenPetrankLowerWasteFactor(const BoundParams &P);

/// Theorem 1's bound in heap words: M * h.
double cohenPetrankLowerHeapWords(const BoundParams &P);

/// The sequence a_0 .. a_{log2 n} of Theorem 2's recursion.
std::vector<double> cohenPetrankUpperSequence(const BoundParams &P);

/// Theorem 2's upper bound in heap words. Requires C > log2(n)/2.
double cohenPetrankUpperHeapWords(const BoundParams &P);

/// Theorem 2's bound as a waste factor (heap words / M).
double cohenPetrankUpperWasteFactor(const BoundParams &P);

/// The best upper bound known before this paper:
/// min((c+1) * M, 2 * Robson) as a waste factor.
double priorBestUpperWasteFactor(const BoundParams &P);

/// The best upper bound including Theorem 2, as a waste factor.
double newBestUpperWasteFactor(const BoundParams &P);

/// The per-step allocation budget factor x used by the PF adversary's
/// second stage (Algorithm 1): x = (1 - 2^{-sigma} * h) / (sigma + 1).
double cohenPetrankAllocationFactor(const BoundParams &P, unsigned Sigma);

} // namespace pcb

#endif // PCBOUND_BOUNDS_COHENPETRANKBOUNDS_H
