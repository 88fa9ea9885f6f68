//===- tests/index_equiv_test.cpp - Flat index vs reference oracle -------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Property test: the flat FreeSpaceIndex and the preserved node-based
// ReferenceFreeSpaceIndex are driven through identical random
// reserve/release streams, and every placement and aggregate query is
// compared after every operation. Any semantic drift in the rewrite —
// a tie-break, a boundary, a stale summary — shows up as a mismatch with
// the op number and seed in the failure message.
//
//===----------------------------------------------------------------------===//

#include "heap/FreeSpaceIndex.h"
#include "obs/Profiler.h"
#include "support/Random.h"
#include "testsupport/ReferenceFreeSpaceIndex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace pcb;

/// Compares every query the managers use, plus the aggregates the
/// telemetry samples, on both indexes.
void expectQueriesMatch(const FreeSpaceIndex &Fast,
                        const ReferenceFreeSpaceIndex &Ref, uint64_t Size,
                        Addr From, uint64_t Align, Addr Limit, int Op) {
  SCOPED_TRACE(::testing::Message()
               << "op " << Op << " size " << Size << " from " << From
               << " align " << Align << " limit " << Limit);
  EXPECT_EQ(Fast.firstFit(Size), Ref.firstFit(Size));
  EXPECT_EQ(Fast.firstFitFrom(From, Size), Ref.firstFitFrom(From, Size));
  EXPECT_EQ(Fast.bestFit(Size), Ref.bestFit(Size));
  EXPECT_EQ(Fast.firstFitAligned(Size, Align),
            Ref.firstFitAligned(Size, Align));
  EXPECT_EQ(Fast.firstFitBelow(Size, Limit), Ref.firstFitBelow(Size, Limit));
  EXPECT_EQ(Fast.worstFitBelow(Size, Limit), Ref.worstFitBelow(Size, Limit));
  EXPECT_EQ(Fast.isFree(From, Size), Ref.isFree(From, Size));
  EXPECT_EQ(Fast.numBlocks(), Ref.numBlocks());
  EXPECT_EQ(Fast.numBlocksBelow(Limit), Ref.numBlocksBelow(Limit));
  EXPECT_EQ(Fast.largestBlockBelow(Limit), Ref.largestBlockBelow(Limit));
  EXPECT_EQ(Fast.freeWordsBelow(Limit), Ref.freeWordsBelow(Limit));
}

/// Full structural comparison: both indexes hold exactly the same blocks
/// in the same order.
void expectBlocksMatch(const FreeSpaceIndex &Fast,
                       const ReferenceFreeSpaceIndex &Ref, int Op) {
  SCOPED_TRACE(::testing::Message() << "op " << Op);
  auto FIt = Fast.begin();
  for (const auto &[Start, End] : Ref) {
    ASSERT_NE(FIt, Fast.end());
    EXPECT_EQ((*FIt).first, Start);
    EXPECT_EQ((*FIt).second, End);
    ++FIt;
  }
  EXPECT_EQ(FIt, Fast.end());
}

class IndexEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexEquivalence, RandomOpsMatchReference) {
  const uint64_t Seed = GetParam();
  Rng R(Seed);
  FreeSpaceIndex Fast;
  ReferenceFreeSpaceIndex Ref;
  // Ranges currently reserved in both indexes, eligible for release.
  std::vector<std::pair<Addr, uint64_t>> Reserved;
  constexpr Addr Region = Addr(1) << 20;
  constexpr int NumOps = 10000;

  for (int Op = 0; Op != NumOps; ++Op) {
    if (Reserved.empty() || R.nextBool(0.55)) {
      // Reserve at a placement chosen by one of the real policies'
      // queries, so the streams hit the same block shapes the managers
      // produce (splits at both ends, exact fills, aligned holes).
      uint64_t Size = (uint64_t(1) << R.nextBelow(10)) + R.nextBelow(16);
      Addr A = InvalidAddr;
      switch (R.nextBelow(4)) {
      case 0:
        A = Ref.firstFit(Size);
        break;
      case 1:
        A = Ref.bestFit(Size);
        break;
      case 2:
        A = Ref.firstFitFrom(R.nextBelow(Region), Size);
        break;
      case 3:
        A = Ref.firstFitAligned(Size, uint64_t(1) << R.nextBelow(8));
        break;
      }
      ASSERT_TRUE(Ref.isFree(A, Size));
      Fast.reserve(A, Size);
      Ref.reserve(A, Size);
      Reserved.emplace_back(A, Size);
    } else {
      size_t I = R.nextBelow(Reserved.size());
      auto [A, Size] = Reserved[I];
      Fast.release(A, Size);
      Ref.release(A, Size);
      Reserved[I] = Reserved.back();
      Reserved.pop_back();
    }

    uint64_t QSize = uint64_t(1) << R.nextBelow(14);
    QSize += R.nextBelow(QSize);
    Addr From = R.nextBelow(Region + Region / 4);
    uint64_t Align = uint64_t(1) << R.nextBelow(10);
    Addr Limit = 1 + R.nextBelow(Region);
    expectQueriesMatch(Fast, Ref, QSize, From, Align, Limit, Op);
    if (HasFailure())
      FAIL() << "first divergence at op " << Op << " (seed " << Seed << ")";
    if (Op % 256 == 0)
      expectBlocksMatch(Fast, Ref, Op);
  }
  expectBlocksMatch(Fast, Ref, NumOps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Checkerboard stress: thousands of single-word gaps force the flat index
// through leaf splits on the way up and cross-leaf coalescing on the way
// down, with the reference checked at every step of the teardown.
TEST(IndexEquivalenceStress, CheckerboardSplitsAndCoalesces) {
  FreeSpaceIndex Fast;
  ReferenceFreeSpaceIndex Ref;
  constexpr int N = 4096;
  for (Addr A = 0; A != 2 * N; A += 2) {
    Fast.reserve(A, 1);
    Ref.reserve(A, 1);
  }
  expectBlocksMatch(Fast, Ref, 0);
  // Free the even words in a scrambled but deterministic order so
  // coalescing happens left, right, both, and across leaf boundaries.
  Rng R(99);
  std::vector<Addr> Order;
  for (Addr A = 0; A != 2 * N; A += 2)
    Order.push_back(A);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  int Op = 0;
  for (Addr A : Order) {
    Fast.release(A, 1);
    Ref.release(A, 1);
    EXPECT_EQ(Fast.numBlocks(), Ref.numBlocks());
    EXPECT_EQ(Fast.firstFit(2), Ref.firstFit(2));
    EXPECT_EQ(Fast.largestBlockBelow(2 * N), Ref.largestBlockBelow(2 * N));
    if (++Op % 512 == 0)
      expectBlocksMatch(Fast, Ref, Op);
  }
  expectBlocksMatch(Fast, Ref, Op);
  EXPECT_EQ(Fast.numBlocks(), 1u);
}

// Mask extraction at word boundaries: occupancy spans read back from the
// packed board must agree with per-bit queries for every alignment of
// the read window — including reads straddling the bit-63 -> bit-64 seam,
// whole used and whole free words, widths that are not multiples of 64,
// and windows reaching past the committed prefix (zero-extended).
TEST(IndexEquivalenceStress, MaskExtractionAtWordBoundaries) {
  FreeSpaceIndex Fast;
  const std::vector<std::pair<Addr, uint64_t>> Ranges = {
      {62, 4},    // straddles the word 0 -> word 1 seam
      {128, 64},  // exactly word 2, a full used word
      {193, 63},  // odd start, ends flush at a word boundary
      {257, 130}, // crosses two boundaries with an odd width
  };
  for (auto [S, Sz] : Ranges)
    Fast.reserve(S, Sz);

  auto CheckWindow = [&](Addr Start) {
    std::array<uint64_t, 8> Out{};
    Fast.occupancyWords(Start, Out.size(), Out.data());
    for (unsigned B = 0; B != unsigned(Out.size()) * 64; ++B) {
      uint64_t Got = (Out[B / 64] >> (B % 64)) & 1;
      uint64_t Want = Fast.isFree(Start + B, 1) ? 0 : 1;
      ASSERT_EQ(Got, Want) << "window at " << Start << ", bit " << B;
    }
  };
  for (Addr Start : {Addr(0), Addr(1), Addr(62), Addr(63), Addr(64),
                     Addr(127), Addr(128), Addr(200), Addr(384)})
    CheckWindow(Start);

  // Releasing the seam-straddling and full-word ranges must clear the
  // same windows bit-for-bit.
  Fast.release(62, 4);
  Fast.release(128, 64);
  for (Addr Start : {Addr(0), Addr(62), Addr(63), Addr(64), Addr(127)})
    CheckWindow(Start);
}

/// PF's step-0 frontier shape: a dense prefix of one-word first-fit
/// objects filling three and a half 4096-bit supers, then a fixed
/// pseudo-random mix of holes punched at word seams (bits 63/64) and
/// super edges, one-word refills, and 2^i first-fit / first-fit-from
/// fills. Placements are the reference's answers; the fast index's
/// answers to the same placement queries are compared on the way.
/// \p AfterOp(Op) runs after every mutation.
template <typename AfterT>
void runFrontierScript(FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref,
                       AfterT AfterOp) {
  constexpr uint64_t SuperBits = 4096;
  constexpr uint64_t FillWords = 3 * SuperBits + SuperBits / 2;
  std::map<Addr, uint64_t> Reserved; // start -> size
  Addr HighWater = 0;
  int Op = 0;
  auto Place = [&](Addr A, uint64_t Size) {
    Fast.reserve(A, Size);
    Ref.reserve(A, Size);
    Reserved[A] = Size;
    HighWater = std::max<Addr>(HighWater, A + Size);
    AfterOp(Op++);
  };
  // Releases the object covering \p A, if any.
  auto ReleaseAt = [&](Addr A) {
    auto It = Reserved.upper_bound(A);
    if (It == Reserved.begin())
      return;
    --It;
    auto [S, Size] = *It;
    if (A >= S + Size)
      return;
    Fast.release(S, Size);
    Ref.release(S, Size);
    Reserved.erase(It);
    AfterOp(Op++);
  };
  auto FirstFit = [&](uint64_t Size) {
    Addr A = Ref.firstFit(Size);
    EXPECT_EQ(Fast.firstFit(Size), A) << "firstFit(" << Size << ")";
    return A;
  };

  for (uint64_t I = 0; I != FillWords; ++I)
    Place(FirstFit(1), 1);

  Rng R(17);
  for (int K = 0; K != 3000; ++K) {
    switch (R.nextBelow(8)) {
    case 0:
    case 1: { // a seam in the prefix: bit 63 or bit 64 of a word pair
      Addr W = R.nextBelow(FillWords / 64 - 1);
      ReleaseAt(W * 64 + 63 + R.nextBelow(2));
      break;
    }
    case 2: { // a super edge: the last bit of one super or the first of
              // the next
      Addr J = 1 + R.nextBelow(3);
      ReleaseAt(J * SuperBits - R.nextBelow(2));
      break;
    }
    case 3: // anywhere below the high-water mark
      ReleaseAt(R.nextBelow(HighWater));
      break;
    case 4: // a one-word refill
      Place(FirstFit(1), 1);
      break;
    case 5:
    case 6: { // a 2^i fill, packed above the high-water mark once the
              // holes run out
      uint64_t Size = uint64_t(1) << R.nextBelow(8);
      Place(FirstFit(Size), Size);
      break;
    }
    case 7: {
      uint64_t Size = uint64_t(1) << R.nextBelow(8);
      Addr From = R.nextBelow(HighWater + 64);
      Addr A = Ref.firstFitFrom(From, Size);
      EXPECT_EQ(Fast.firstFitFrom(From, Size), A)
          << "firstFitFrom(" << From << ", " << Size << ")";
      Place(A, Size);
      break;
    }
    }
  }
}

// The dense allocation frontier: every fit query lands in (or runs
// through) supers whose words are mostly saturated, so the first-fit
// scan's skip over full words, and the digest upkeep behind it, are
// exercised at word seams and super edges after every mutation.
TEST(IndexEquivalenceStress, DenseFrontierFill) {
  FreeSpaceIndex Fast;
  ReferenceFreeSpaceIndex Ref;
  Rng Q(29);
  runFrontierScript(Fast, Ref, [&](int Op) {
    uint64_t QSize = 1 + Q.nextBelow(Q.nextBool(0.5) ? 4 : 200);
    Addr From = Q.nextBelow(5 * 4096);
    uint64_t Align = uint64_t(1) << Q.nextBelow(8);
    Addr Limit = 1 + Q.nextBelow(5 * 4096);
    expectQueriesMatch(Fast, Ref, QSize, From, Align, Limit, Op);
    std::string Why;
    EXPECT_TRUE(Fast.checkDigests(&Why)) << "op " << Op << ": " << Why;
    if (Op % 512 == 0)
      expectBlocksMatch(Fast, Ref, Op);
  });
  expectBlocksMatch(Fast, Ref, -1);
}

// The fit-probe counter is a gated work metric: the frontier script's
// placement queries must probe exactly as many boundary-class blocks as
// the word-by-word first-fit sweep did. A run of saturated words cuts at
// most one carried run, so skipping it adds at most one probe.
TEST(IndexEquivalenceStress, FrontierFitProbesPinned) {
  FreeSpaceIndex Fast;
  ReferenceFreeSpaceIndex Ref;
  Profiler P;
  {
    ProfilerScope Scope(P);
    runFrontierScript(Fast, Ref, [](int) {});
  }
  EXPECT_EQ(P.counter(Profiler::CtrFitProbes), 10720u);
}

} // namespace
