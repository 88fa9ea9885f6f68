//===- tests/exact_test.cpp - Unit tests for src/exact --------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// The solver is the repo's ground truth, so it is tested three ways:
// hand-checkable micro-cases whose game values can be verified on paper,
// the full sandwich sweep of the certification grid, and a replay of the
// extracted witness through the real Heap + CompactionLedger, cross-
// checking the solver's bitboard states against the heap's at every step.
//
//===----------------------------------------------------------------------===//

#include "exact/Certifier.h"
#include "exact/ExactGame.h"
#include "exact/MinimaxSolver.h"
#include "exact/WitnessTrace.h"

#include "driver/Auditors.h"
#include "driver/TraceIO.h"
#include "heap/Heap.h"
#include "mm/CompactionLedger.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>

using namespace pcb;

namespace {

ExactParams cell(uint64_t M, uint64_t N, uint64_t C) {
  ExactParams P;
  P.M = M;
  P.N = N;
  P.C = C;
  return P;
}

// --- Layout primitives --------------------------------------------------

TEST(ArenaLayout, PlaceAndRemove) {
  ArenaLayout L;
  L = layoutPlace(L, 2, 1); // [1, 3)
  L = layoutPlace(L, 1, 4); // [4, 5)
  EXPECT_EQ(L.Occ, 0b10110u);
  EXPECT_EQ(L.Starts, 0b10010u);
  EXPECT_EQ(layoutLiveWords(L), 3u);
  EXPECT_FALSE(layoutFits(L, 8, 2, 2)); // overlaps [1, 3)
  EXPECT_TRUE(layoutFits(L, 8, 1, 3));
  EXPECT_TRUE(layoutFits(L, 8, 2, 5));
  EXPECT_FALSE(layoutFits(L, 8, 2, 7)); // past the arena end
  L = layoutRemove(L, 2, 1);
  EXPECT_EQ(L.Occ, 0b10000u);
  EXPECT_EQ(L.Starts, 0b10000u);
}

TEST(ArenaLayout, ObjectSizeSplitsAdjacentObjects) {
  // Two size-2 objects back to back: the start bit at 2 must terminate
  // the first object's extent even though occupancy is contiguous.
  ArenaLayout L;
  L = layoutPlace(L, 2, 0);
  L = layoutPlace(L, 2, 2);
  EXPECT_EQ(layoutObjectSize(L, 8, 0), 2u);
  EXPECT_EQ(layoutObjectSize(L, 8, 2), 2u);

  std::map<unsigned, unsigned> Objects;
  forEachLayoutObject(L, 8, [&](unsigned Start, unsigned Size) {
    Objects[Start] = Size;
  });
  EXPECT_EQ(Objects, (std::map<unsigned, unsigned>{{0, 2}, {2, 2}}));
}

TEST(ArenaLayout, MirrorAndCanonical) {
  // One size-2 object at [0, 2) of a 5-cell arena mirrors to [3, 5).
  ArenaLayout L = layoutPlace({}, 2, 0);
  ArenaLayout Mir = mirrorLayout(L, 5);
  EXPECT_EQ(Mir.Occ, 0b11000u);
  EXPECT_EQ(Mir.Starts, 0b01000u);
  // Mirror is an involution, and both orientations share one canonical
  // representative.
  EXPECT_EQ(mirrorLayout(Mir, 5), L);
  EXPECT_EQ(canonicalLayout(L, 5), canonicalLayout(Mir, 5));
}

// --- Hand-checkable game values -----------------------------------------

TEST(ExactSolver, UnitObjectsNeedExactlyM) {
  // With n = 1 there is no fragmentation: any manager keeps every
  // placement inside [0, M), and M live words are trivially forced.
  for (uint64_t M : {1, 2, 4, 5})
    for (uint64_t C : {0, 1, 4}) {
      ExactResult R = solveExact(cell(M, 1, C));
      ASSERT_TRUE(R.Solved) << "M=" << M << " c=" << C;
      EXPECT_EQ(R.ExactWords, M) << "M=" << M << " c=" << C;
    }
}

TEST(ExactSolver, SmallestFragmentingCell) {
  // M = 2, n = 2, non-moving: the adversary would need a hole under a
  // live word to force 3 cells, but with only one unit object live it
  // can free nothing useful — 2 cells suffice. Verifiable by hand: the
  // manager plays "place at the lowest free address".
  ExactResult R = solveExact(cell(2, 2, 0));
  ASSERT_TRUE(R.Solved);
  EXPECT_EQ(R.ExactWords, 2u);
}

TEST(ExactSolver, ClassicCheckerboardForcing) {
  // M = 4, n = 2, non-moving. Robson's classic play: allocate four unit
  // objects at [0, 4), free those at addresses 1 and 3, then request a
  // size-2 object — no aligned-free pair exists below address 4, so the
  // manager is forced to 5 cells. Conversely 5 cells always suffice
  // (Robson's formula: 4 * (1/2 + 1) - 2 + 1 = 5).
  ExactResult R = solveExact(cell(4, 2, 0));
  ASSERT_TRUE(R.Solved);
  EXPECT_EQ(R.ExactWords, 5u);
}

TEST(ExactSolver, NonPowerOfTwoLiveBounds) {
  // The solver does not need the closed forms' power-of-two M. Probed
  // values, stable under the determinism contract: M = 3 can hold one
  // checkerboard hole (4 cells), M = 6 two of them (8 cells).
  ExactResult R3 = solveExact(cell(3, 2, 0));
  ASSERT_TRUE(R3.Solved);
  EXPECT_EQ(R3.ExactWords, 4u);
  ExactResult R6 = solveExact(cell(6, 2, 0));
  ASSERT_TRUE(R6.Solved);
  EXPECT_EQ(R6.ExactWords, 8u);
}

TEST(ExactSolver, CompactionShrinksTheForcedHeap) {
  // At M = 8, n = 2 the non-moving value is Robson's 11; a 1-partial
  // manager (move a word per allocated word) holds the adversary to the
  // trivial 8.
  ExactResult Free = solveExact(cell(8, 2, 1));
  ExactResult None = solveExact(cell(8, 2, 0));
  ASSERT_TRUE(Free.Solved && None.Solved);
  EXPECT_EQ(Free.ExactWords, 8u);
  EXPECT_EQ(None.ExactWords, 11u);
}

// --- Certification ------------------------------------------------------

TEST(Certifier, RobsonEqualityAtInfinity) {
  // The paper's Section 3 claim, checked against ground truth: at
  // c = infinity the exact game value *equals* Robson's matching formula
  // M (log n / 2 + 1) - n + 1 on every power-of-two cell.
  for (auto [M, N] : std::vector<std::pair<uint64_t, uint64_t>>{
           {2, 2}, {4, 2}, {8, 2}, {4, 4}, {8, 4}}) {
    ExactParams P = cell(M, N, 0);
    ExactCertificate Cert = certifyCell(P, solveExact(P));
    ASSERT_TRUE(Cert.Result.Solved) << Cert.describe();
    EXPECT_TRUE(Cert.RobsonMatch) << Cert.describe();
    EXPECT_DOUBLE_EQ(double(Cert.Result.ExactWords), P.robsonWords())
        << Cert.describe();
    EXPECT_TRUE(Cert.ok()) << Cert.describe();
  }
}

TEST(Certifier, FullSandwichSweep) {
  // Every cell of the default certification grid: Theorem 1 forced <=
  // exact <= best upper bound, Robson equality at c = infinity.
  for (uint64_t M : {2, 4, 8})
    for (uint64_t N : {2, 4})
      for (uint64_t C : {1, 2, 4, 0}) {
        if (N > M)
          continue;
        ExactParams P = cell(M, N, C);
        ExactCertificate Cert = certifyCell(P, solveExact(P));
        EXPECT_TRUE(Cert.ok()) << Cert.describe();
      }
}

TEST(Certifier, StrictSeparation) {
  // At M = 4, n = 2, c = 4 the ground truth (5) falls strictly between
  // Theorem 1 (4) and Theorem 2 (15): the acceptance criterion that the
  // paper's bounds are not tight at small parameters.
  ExactParams P = cell(4, 2, 4);
  ExactCertificate Cert = certifyCell(P, solveExact(P));
  ASSERT_TRUE(Cert.ok()) << Cert.describe();
  EXPECT_TRUE(Cert.Strict) << Cert.describe();
  EXPECT_LT(Cert.LowerWords, double(Cert.Result.ExactWords));
  EXPECT_LT(double(Cert.Result.ExactWords), Cert.Theorem2Words);
}

TEST(Certifier, MonotoneInQuota) {
  // A larger quota denominator means less compaction, so the forced heap
  // can only grow; c = infinity dominates all finite c.
  for (auto [M, N] : std::vector<std::pair<uint64_t, uint64_t>>{
           {8, 2}, {8, 4}}) {
    uint64_t Last = 0;
    for (uint64_t C : {1, 2, 4, 0}) {
      ExactResult R = solveExact(cell(M, N, C));
      ASSERT_TRUE(R.Solved);
      EXPECT_GE(R.ExactWords, Last) << "M=" << M << " n=" << N << " c=" << C;
      Last = R.ExactWords;
    }
    // ... and compaction genuinely helps at these cells.
    EXPECT_GT(Last, solveExact(cell(M, N, 1)).ExactWords);
  }
}

TEST(Certifier, UnsolvedCellNeverCertifies) {
  ExactParams P = cell(8, 4, 4);
  P.NodeLimit = 100; // far below the ~265k reachable states
  ExactResult R = solveExact(P);
  EXPECT_FALSE(R.Solved);
  EXPECT_TRUE(R.Aborted);
  ExactCertificate Cert = certifyCell(P, R);
  EXPECT_FALSE(Cert.ok());
}

TEST(ExactSolver, BudgetCapDoesNotBindOnTheGrid) {
  // The banked budget is capped (a manager-weakening approximation that
  // keeps upper certificates sound); on the certification grid the cap
  // must not bind — doubling it cannot change any value.
  for (auto [M, N] : std::vector<std::pair<uint64_t, uint64_t>>{
           {4, 2}, {8, 2}}) {
    ExactParams P = cell(M, N, 4);
    ExactParams Doubled = P;
    Doubled.BudgetCap = 2 * P.budgetCap();
    EXPECT_EQ(solveExact(P).ExactWords, solveExact(Doubled).ExactWords)
        << "M=" << M << " n=" << N;
  }
}

TEST(ExactSolver, DeterministicResolve) {
  ExactResult A = solveExact(cell(4, 2, 2));
  ExactResult B = solveExact(cell(4, 2, 2));
  ASSERT_TRUE(A.Solved && B.Solved);
  EXPECT_EQ(A.ExactWords, B.ExactWords);
  ASSERT_EQ(A.Witness.size(), B.Witness.size());
  for (size_t I = 0; I != A.Witness.size(); ++I) {
    EXPECT_EQ(A.Witness[I].Op, B.Witness[I].Op);
    EXPECT_EQ(A.Witness[I].Size, B.Witness[I].Size);
    EXPECT_EQ(A.Witness[I].Addr, B.Witness[I].Addr);
    EXPECT_EQ(A.Witness[I].To, B.Witness[I].To);
  }
}

// --- Witness replay through the real heap -------------------------------

/// Two-word shadow bitboard: wide enough to exercise the heap's span
/// extraction (occupancyWords/objectStartWords with Count > 1) rather
/// than the single-word convenience masks.
struct ShadowBoard {
  std::array<uint64_t, 2> W{};

  void setRange(unsigned Pos, unsigned Size) {
    for (unsigned B = Pos; B != Pos + Size; ++B)
      W[B / 64] |= uint64_t(1) << (B % 64);
  }
  void clearRange(unsigned Pos, unsigned Size) {
    for (unsigned B = Pos; B != Pos + Size; ++B)
      W[B / 64] &= ~(uint64_t(1) << (B % 64));
  }
};

/// Replays \p Witness into a fresh Heap, cross-checking the heap's
/// occupancy/start bitboards (the canonicalization hooks) against a
/// mirror maintained from the arena ops, and the c-partial ledger after
/// every move. Leaves the final heap stats in \p Out (gtest ASSERTs force
/// a void return type).
void replayWitness(const ExactParams &P,
                   const std::vector<WitnessOp> &Witness, HeapStats &Out) {
  Heap H;
  // Ledger convention clash (see ExactParams): its C <= 0 means
  // *unlimited*, so the solver's C = 0 (non-moving) maps to a quota no
  // witness can legally draw on.
  CompactionLedger Ledger(H, P.C == 0 ? 1e18 : double(P.C));
  std::map<unsigned, ObjectId> ByAddr;
  ShadowBoard Occ, Starts;

  for (const WitnessOp &Op : Witness) {
    switch (Op.Op) {
    case WitnessOp::Kind::Alloc: {
      ByAddr[Op.Addr] = H.place(Op.Addr, Op.Size);
      Occ.setRange(Op.Addr, Op.Size);
      Starts.setRange(Op.Addr, 1);
      break;
    }
    case WitnessOp::Kind::Free: {
      auto It = ByAddr.find(Op.Addr);
      ASSERT_NE(It, ByAddr.end()) << "free of an unknown address";
      EXPECT_EQ(H.object(It->second).Size, Op.Size);
      H.free(It->second);
      Occ.clearRange(Op.Addr, Op.Size);
      Starts.clearRange(Op.Addr, 1);
      ByAddr.erase(It);
      break;
    }
    case WitnessOp::Kind::Move: {
      auto It = ByAddr.find(Op.Addr);
      ASSERT_NE(It, ByAddr.end()) << "move of an unknown address";
      ObjectId Id = It->second;
      EXPECT_TRUE(Ledger.canMove(Op.Size))
          << "witness move exceeds the c-partial budget";
      H.move(Id, Op.To);
      Occ.clearRange(Op.Addr, Op.Size);
      Starts.clearRange(Op.Addr, 1);
      Occ.setRange(Op.To, Op.Size);
      Starts.setRange(Op.To, 1);
      ByAddr.erase(It);
      ByAddr[Op.To] = Id;
      break;
    }
    }
    EXPECT_TRUE(H.checkConsistency());
    std::array<uint64_t, 2> GotOcc{}, GotStarts{};
    H.occupancyWords(0, GotOcc.size(), GotOcc.data());
    H.objectStartWords(0, GotStarts.size(), GotStarts.data());
    EXPECT_EQ(GotOcc, Occ.W);
    EXPECT_EQ(GotStarts, Starts.W);
    EXPECT_LE(H.stats().LiveWords, P.M) << "witness breached the live bound";
    EXPECT_TRUE(Ledger.holds());
  }
  Out = H.stats();
}

TEST(Witness, ForcesTheExactFootprintThroughARealHeap) {
  for (auto [M, N, C] : std::vector<std::tuple<uint64_t, uint64_t, uint64_t>>{
           {4, 2, 0}, {8, 2, 0}, {4, 2, 4}, {8, 2, 4}, {8, 4, 2}}) {
    ExactParams P = cell(M, N, C);
    ExactResult R = solveExact(P);
    ASSERT_TRUE(R.Solved);
    ASSERT_FALSE(R.Witness.empty());
    HeapStats Stats;
    {
      SCOPED_TRACE("M=" + std::to_string(M) + " n=" + std::to_string(N) +
                   " c=" + std::to_string(C));
      replayWitness(P, R.Witness, Stats);
    }
    // The witness's point: the play ends having touched at least
    // ExactWords cells even against the optimally-resisting manager.
    EXPECT_GE(Stats.HighWaterMark, R.ExactWords);
  }
}

TEST(Witness, NonMovingWitnessNeverMoves) {
  ExactResult R = solveExact(cell(8, 2, 0));
  ASSERT_TRUE(R.Solved);
  for (const WitnessOp &Op : R.Witness)
    EXPECT_NE(Op.Op, WitnessOp::Kind::Move);
}

TEST(Witness, EventLogRoundTripsThroughTraceIO) {
  ExactResult R = solveExact(cell(8, 2, 4));
  ASSERT_TRUE(R.Solved);
  EventLog Log = witnessToEventLog(R.Witness);

  AuditReport Audit = auditEvents(Log.events());
  EXPECT_TRUE(Audit.Consistent);
  EXPECT_GE(Audit.HighWaterMark, R.ExactWords);

  std::stringstream SS;
  writeEventLog(SS, Log);
  EventLog Back;
  std::string Error;
  ASSERT_TRUE(readEventLog(SS, Back, &Error)) << Error;
  ASSERT_EQ(Back.size(), Log.size());
  EXPECT_TRUE(checkSchedule(Back.toSchedule()).has_value());
}

} // namespace
