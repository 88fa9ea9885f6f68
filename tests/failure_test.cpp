//===- tests/failure_test.cpp - Failure injection / death tests ----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// The model's contracts are enforced by assertions that stay enabled in
// every build type; these tests inject violations and verify the process
// dies with the intended diagnostic rather than corrupting state.
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "adversary/SyntheticWorkloads.h"
#include "driver/Execution.h"
#include "heap/FreeSpaceIndex.h"
#include "heap/Heap.h"
#include "mm/SequentialFitManagers.h"
#include "trace/TraceRun.h"

#include <gtest/gtest.h>

using namespace pcb;

namespace {

TEST(FailureInjection, DoubleFreeDies) {
  EXPECT_DEATH(
      {
        Heap H;
        ObjectId A = H.place(0, 4);
        H.free(A);
        H.free(A);
      },
      "freeing a dead or unknown object");
}

TEST(FailureInjection, OverlappingPlacementDies) {
  EXPECT_DEATH(
      {
        Heap H;
        H.place(0, 8);
        H.place(4, 8);
      },
      "reserve target");
}

TEST(FailureInjection, MoveOntoLiveObjectDies) {
  EXPECT_DEATH(
      {
        Heap H;
        ObjectId A = H.place(0, 4);
        H.place(8, 4);
        H.move(A, 8);
      },
      "reserve target");
}

TEST(FailureInjection, MoveOfDeadObjectDies) {
  EXPECT_DEATH(
      {
        Heap H;
        ObjectId A = H.place(0, 4);
        H.free(A);
        H.move(A, 8);
      },
      "moving a dead or unknown object");
}

TEST(FailureInjection, ZeroSizeAllocationDies) {
  EXPECT_DEATH(
      {
        Heap H;
        FirstFitManager MM(H, 10.0);
        MM.allocate(0);
      },
      "zero");
}

/// A program that ignores its live bound.
class GreedyProgram : public Program {
public:
  bool step(MutatorContext &Ctx) override {
    for (;;)
      Ctx.allocate(1024);
  }
  std::string name() const override { return "greedy"; }
};

/// A program that never finishes (but stays within its live bound).
class EndlessProgram : public Program {
public:
  bool step(MutatorContext &Ctx) override {
    ObjectId Id = Ctx.allocate(1);
    Ctx.free(Id);
    return true;
  }
  std::string name() const override { return "endless"; }
};

TEST(FailureInjection, RunawayProgramHitsStepLimit) {
  EXPECT_DEATH(
      {
        Heap H;
        FirstFitManager MM(H, 10.0);
        EndlessProgram P;
        Execution::Options Opts;
        Opts.MaxSteps = 16;
        Execution E(MM, P, 1024, Opts);
        E.run();
      },
      "step limit");
}

TEST(FailureInjection, ProgramExceedingLiveBoundDies) {
  EXPECT_DEATH(
      {
        Heap H;
        FirstFitManager MM(H, 10.0);
        GreedyProgram P;
        Execution E(MM, P, /*M=*/4096);
        E.run();
      },
      "live bound");
}

void runTrace(std::vector<MallocOp> Trace) {
  Heap H;
  FirstFitManager MM(H, 10.0);
  StreamingTraceProgram P(std::move(Trace));
  Execution E(MM, P, 1024);
  E.run();
}

TEST(FailureInjection, TraceFreeingUnknownAllocationDies) {
  std::vector<MallocOp> Trace = {MallocOp::alloc(0, 4),
                                 MallocOp::release(7, 4)};
  EXPECT_DEATH(runTrace(Trace), "frees an id that is not live");
}

TEST(FailureInjection, TraceDoubleFreeDies) {
  std::vector<MallocOp> Trace = {MallocOp::alloc(0, 4),
                                 MallocOp::release(0, 4),
                                 MallocOp::release(0, 4)};
  EXPECT_DEATH(runTrace(Trace), "frees an id that is not live");
}

// A program that moves an object through the heap directly, bypassing
// the manager's budget gate — the execution driver's ledger invariant
// must catch the breach after the step.
class RogueMoverProgram : public Program {
public:
  explicit RogueMoverProgram(Heap &H) : H(H) {}
  bool step(MutatorContext &Ctx) override {
    if (StepsDone++ == 0) {
      Moved = Ctx.allocate(8);
      return true;
    }
    // 16 words allocated so far; with c = 1000 the budget is
    // floor(16/1000) = 0 words, so this move is over budget.
    Ctx.allocate(8);
    H.move(Moved, 64);
    return false;
  }
  std::string name() const override { return "rogue-mover"; }

private:
  Heap &H;
  ObjectId Moved = InvalidObjectId;
  int StepsDone = 0;
};

TEST(FailureInjection, OverBudgetMoveDies) {
  EXPECT_DEATH(
      {
        Heap H;
        FirstFitManager MM(H, /*C=*/1000.0);
        RogueMoverProgram P(H);
        Execution E(MM, P, /*M=*/1024);
        E.run();
      },
      "exceeded its compaction budget");
}

TEST(FailureInjection, FreeIndexDoubleReserveDies) {
  EXPECT_DEATH(
      {
        FreeSpaceIndex FSI;
        FSI.reserve(0, 8);
        FSI.reserve(4, 8);
      },
      "reserve target is not free");
}

TEST(FailureInjection, FreeIndexDoubleReleaseDies) {
  EXPECT_DEATH(
      {
        FreeSpaceIndex FSI;
        FSI.reserve(0, 16);
        FSI.release(0, 8);
        FSI.release(0, 8);
      },
      "releasing a range that is partly free");
}

TEST(FailureInjection, FreeIndexReleaseOverlappingSuccessorDies) {
  EXPECT_DEATH(
      {
        FreeSpaceIndex FSI;
        FSI.reserve(0, 16);
        FSI.release(8, 8);
        // [8, 16) is free again; releasing [4, 12) overlaps it.
        FSI.release(4, 8);
      },
      "releasing a range that is partly free");
}

// The address space is [0, AddrLimit): an object may end exactly at the
// limit, and the very next word over must die. The boundary block is the
// infinite tail, so this also pins the index's handling of a reserve
// that consumes the tail's last addressable words.
TEST(FailureInjection, PlacementEndingAtAddrLimitLivesOnePastDies) {
  {
    Heap H;
    ObjectId A = H.place(AddrLimit - 8, 8); // ends exactly at the limit
    EXPECT_EQ(H.object(A).Address, AddrLimit - 8);
    EXPECT_FALSE(H.isFree(AddrLimit - 8, 8));
    H.free(A); // and the tail coalesces back to one block
    EXPECT_EQ(H.freeSpace().numBlocks(), 1u);
  }
  EXPECT_DEATH(
      {
        Heap H;
        H.place(AddrLimit - 4, 8);
      },
      "placement beyond the address space");
}

TEST(FailureInjection, InadmissibleSigmaOverrideDies) {
  EXPECT_DEATH(
      {
        CohenPetrankProgram::Options Opts;
        Opts.SigmaOverride = 40; // far beyond log2(3c/4)
        CohenPetrankProgram PF(1 << 14, 1 << 8, 20.0, Opts);
      },
      "inadmissible");
}

} // namespace
