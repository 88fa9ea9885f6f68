//===- bounds/Params.h - Common bound parameters ----------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three parameters every bound in the paper is expressed in:
///   M — the maximum number of words the program may hold live at once;
///   n — the maximum object size (equivalently the ratio between the
///       largest and smallest allocatable object, the smallest being one
///       word);
///   c — the compaction quota: a c-partial memory manager may move at most
///       a 1/c fraction of all space allocated so far.
///
/// All sizes are in abstract heap words. The paper's realistic setting is
/// M = 256MB and n = 1MB, i.e. M = 2^28 and n = 2^20 words.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_BOUNDS_PARAMS_H
#define PCBOUND_BOUNDS_PARAMS_H

#include "support/MathUtils.h"

#include <cmath>
#include <cstdint>

namespace pcb {

/// Parameters (M, n, c) of a bound instance.
struct BoundParams {
  /// Maximum simultaneously-live space, in words.
  uint64_t M = pow2(28);
  /// Maximum object size, in words. Must be a power of two >= 2.
  uint64_t N = pow2(20);
  /// Compaction quota denominator; the manager may move at most
  /// (total allocated)/C words. C > 1.
  double C = 100.0;

  /// log2(n), the number of doubling steps available to an adversary.
  unsigned logN() const { return log2Exact(N); }

  /// Returns true if the parameters are in the domain all formulas accept.
  bool valid() const {
    return M >= N && N >= 2 && isPowerOfTwo(N) && isPowerOfTwo(M) &&
           std::isfinite(C) && C > 1.0;
  }
};

} // namespace pcb

#endif // PCBOUND_BOUNDS_PARAMS_H
