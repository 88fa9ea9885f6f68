//===- tests/adversary_test.cpp - Unit tests for src/adversary -----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "adversary/PatternWorkloads.h"
#include "adversary/ProgramFactory.h"
#include "adversary/RobsonProgram.h"
#include "adversary/SyntheticWorkloads.h"
#include "adversary/WorkloadSpec.h"
#include "bounds/CohenPetrankBounds.h"
#include "bounds/RobsonBounds.h"
#include "driver/Execution.h"
#include "mm/BumpCompactor.h"
#include "mm/EvacuatingCompactor.h"
#include "mm/ManagerFactory.h"
#include "mm/SegregatedFitManager.h"
#include "mm/SequentialFitManagers.h"
#include "trace/TraceRun.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

using namespace pcb;

namespace {

// --- Robson adversary -----------------------------------------------------

TEST(Robson, ForcesExactBoundOnFirstFit) {
  // Against a non-moving manager, PR forces exactly
  // M (log n / 2 + 1) - n + 1 — Robson's matching bound. Our simulation
  // reproduces it to the word for first fit.
  const uint64_t M = pow2(12);
  const unsigned LogN = 6;
  Heap H;
  FirstFitManager MM(H, 1e18);
  RobsonProgram PR(M, LogN);
  Execution E(MM, PR, M);
  ExecutionResult R = E.run();
  BoundParams P{M, pow2(LogN), 10.0};
  EXPECT_EQ(double(R.HeapSize), robsonHeapWords(P));
}

struct RobsonCase {
  const char *Policy;
  unsigned LogM;
  unsigned LogN;
};

class RobsonVersusManagers : public ::testing::TestWithParam<RobsonCase> {};

TEST_P(RobsonVersusManagers, LowerBoundHolds) {
  RobsonCase Case = GetParam();
  const uint64_t M = pow2(Case.LogM);
  Heap H;
  auto MM = createManager(Case.Policy, H, 1e18);
  ASSERT_NE(MM, nullptr);
  RobsonProgram PR(M, Case.LogN);
  Execution E(*MM, PR, M);
  ExecutionResult R = E.run();
  BoundParams P{M, pow2(Case.LogN), 10.0};
  EXPECT_GE(double(R.HeapSize) + 1e-9, robsonHeapWords(P))
      << Case.Policy << " beat Robson's bound";
  // Sanity: the program observed its own contract.
  EXPECT_LE(R.PeakLiveWords, M);
}

INSTANTIATE_TEST_SUITE_P(
    NonMovingManagers, RobsonVersusManagers,
    ::testing::Values(RobsonCase{"first-fit", 10, 5},
                      RobsonCase{"best-fit", 10, 5},
                      RobsonCase{"next-fit", 10, 5},
                      RobsonCase{"buddy", 10, 5},
                      RobsonCase{"segregated-fit", 10, 5},
                      RobsonCase{"aligned-fit", 10, 5},
                      RobsonCase{"worst-fit", 10, 5},
                      RobsonCase{"first-fit", 13, 7},
                      RobsonCase{"best-fit", 13, 7}),
    [](const ::testing::TestParamInfo<RobsonCase> &Info) {
      std::string Name = Info.param.Policy;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + "_m" + std::to_string(Info.param.LogM) + "_n" +
             std::to_string(Info.param.LogN);
    });

TEST(Robson, OccupierCountMeetsClaim49) {
  // Claim 4.9: after step i at least M (i + 2) / 2^(i+1) objects are
  // f_i-occupying.
  const uint64_t M = pow2(10);
  const unsigned LogN = 6;
  Heap H;
  FirstFitManager MM(H, 1e18);
  RobsonProgram PR(M, LogN);
  Execution E(MM, PR, M);
  unsigned Step = 0;
  bool More = true;
  while (More) {
    More = E.runStep();
    EXPECT_GE(double(PR.occupierCount()) + 1e-9,
              robsonOccupierLowerBound(M, Step))
        << "after step " << Step;
    ++Step;
  }
}

TEST(Robson, GhostsAppearUnderCompaction) {
  // Against a compacting manager, moved objects become ghosts and the
  // live-or-ghost accounting keeps the program within M.
  const uint64_t M = pow2(10);
  Heap H;
  EvacuatingCompactor::Options Opts;
  Opts.DensityThreshold = 0.9;
  Opts.MinEvacuationSize = 2;
  EvacuatingCompactor MM(H, 3.0, Opts);
  RobsonProgram PR(M, 5);
  Execution E(MM, PR, M);
  ExecutionResult R = E.run();
  EXPECT_GT(R.MovedWords, 0u) << "test needs an actually-compacting run";
  EXPECT_LE(R.PeakLiveWords, M);
  BoundParams P{M, pow2(5), 3.0};
  // With compaction the manager may beat the non-moving bound, but never
  // the c-partial lower bound.
  EXPECT_GE(R.wasteFactor(M) + 1e-9, cohenPetrankLowerWasteFactor(P));
}

// --- Cohen-Petrank adversary ----------------------------------------------

TEST(CohenPetrank, ParametersDerivedFromTheory) {
  const uint64_t M = pow2(16);
  const uint64_t N = pow2(9);
  CohenPetrankProgram PF(M, N, 50.0);
  BoundParams P{M, N, 50.0};
  EXPECT_GE(PF.sigma(), 1u);
  EXPECT_LE(PF.sigma(), cohenPetrankMaxSigma(50.0));
  EXPECT_LE(2 * PF.sigma(), log2Exact(N) - 2);
  EXPECT_GT(PF.allocationFactor(), 0.0);
  EXPECT_NEAR(PF.targetWasteFactor(),
              cohenPetrankLowerWasteFactorForSigma(P, PF.sigma()), 1e-12);
}

TEST(CohenPetrank, SigmaOverrideRespected) {
  CohenPetrankProgram::Options Opts;
  Opts.SigmaOverride = 1;
  CohenPetrankProgram PF(pow2(16), pow2(9), 50.0, Opts);
  EXPECT_EQ(PF.sigma(), 1u);
}

struct PfCase {
  const char *Policy;
  double C;
};

class PfVersusManagers : public ::testing::TestWithParam<PfCase> {};

TEST_P(PfVersusManagers, TheoremOneHolds) {
  PfCase Case = GetParam();
  const uint64_t M = pow2(14);
  const uint64_t N = pow2(8);
  Heap H;
  auto MM = createManager(Case.Policy, H, Case.C);
  ASSERT_NE(MM, nullptr);
  CohenPetrankProgram PF(M, N, Case.C);
  Execution E(*MM, PF, M);
  ExecutionResult R = E.run();
  // Theorem 1: HS(A, PF) >= M * h for every c-partial manager A.
  EXPECT_GE(R.wasteFactor(M) + 1e-9, PF.targetWasteFactor())
      << Case.Policy << " beat the lower bound at c=" << Case.C;
  EXPECT_LE(R.PeakLiveWords, M);
}

INSTANTIATE_TEST_SUITE_P(
    CPartialManagers, PfVersusManagers,
    ::testing::Values(PfCase{"first-fit", 10}, PfCase{"first-fit", 50},
                      PfCase{"evacuating", 10}, PfCase{"evacuating", 50},
                      PfCase{"evacuating", 100}, PfCase{"sliding", 10},
                      PfCase{"sliding", 50}, PfCase{"hybrid", 50},
                      PfCase{"best-fit", 100}, PfCase{"buddy", 50},
                      PfCase{"segregated-fit", 10},
                      PfCase{"paged-space", 20},
                      PfCase{"paged-space", 100}),
    [](const ::testing::TestParamInfo<PfCase> &Info) {
      std::string Name = Info.param.Policy;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + "_c" + std::to_string(int(Info.param.C));
    });

TEST(CohenPetrank, PotentialFunctionNeverDecreases) {
  // Claim 4.16 property 1: no event decreases u(t). Sampled after every
  // driver step of the stage-two execution.
  const uint64_t M = pow2(14);
  const uint64_t N = pow2(8);
  Heap H;
  EvacuatingCompactor MM(H, 20.0);
  CohenPetrankProgram PF(M, N, 20.0);
  Execution E(MM, PF, M);
  double LastU = 0.0;
  bool SawStageTwo = false;
  E.addStepObserver([&](const Execution &) {
    if (!PF.inStageTwo())
      return;
    double U = PF.potential();
    if (SawStageTwo) {
      EXPECT_GE(U + 1e-6, LastU)
          << "potential decreased at step " << PF.currentStep();
    }
    LastU = U;
    SawStageTwo = true;
  });
  E.run();
  EXPECT_TRUE(SawStageTwo);
}

TEST(CohenPetrank, PotentialIsALowerBoundOnHeapSize) {
  // u(t) underpins Theorem 1 by never exceeding the heap size in use.
  const uint64_t M = pow2(14);
  const uint64_t N = pow2(8);
  Heap H;
  FirstFitManager MM(H, 30.0);
  CohenPetrankProgram PF(M, N, 30.0);
  Execution E(MM, PF, M);
  E.addStepObserver([&](const Execution &Ex) {
    EXPECT_LE(PF.potential(), double(Ex.heap().stats().HighWaterMark) + 1e-6);
  });
  E.run();
}

TEST(CohenPetrank, AssociationInvariantsHold) {
  // Claim 4.15, checked after every step against both a moving and a
  // non-moving manager.
  for (const char *Policy : {"first-fit", "evacuating", "sliding"}) {
    const uint64_t M = pow2(13);
    const uint64_t N = pow2(8);
    Heap H;
    auto MM = createManager(Policy, H, 15.0);
    CohenPetrankProgram PF(M, N, 15.0);
    Execution E(*MM, PF, M);
    E.addStepObserver([&](const Execution &) {
      ASSERT_TRUE(PF.checkAssociationInvariants()) << Policy;
      ASSERT_TRUE(PF.checkDensityInvariant()) << Policy;
    });
    E.run();
  }
}

TEST(CohenPetrank, DensityAblationFreesMore) {
  // Without density maintenance the adversary de-allocates more but the
  // manager can recycle chunks; the footprint it forces must not exceed
  // the faithful adversary's on an evacuating manager.
  const uint64_t M = pow2(14);
  const uint64_t N = pow2(8);
  const double C = 20.0;

  auto RunWith = [&](bool MaintainDensity) {
    Heap H;
    EvacuatingCompactor MM(H, C);
    CohenPetrankProgram::Options Opts;
    Opts.MaintainDensity = MaintainDensity;
    CohenPetrankProgram PF(M, N, C, Opts);
    Execution E(MM, PF, M);
    return E.run().HeapSize;
  };
  EXPECT_GE(RunWith(true), RunWith(false));
}

TEST(CohenPetrank, StageStructureAndAllocationSizes) {
  // White box: stage one allocates sizes 1..2^sigma over steps
  // 0..sigma, null steps do nothing, and stage-two step i allocates
  // floor(x*M/2^(i+2)) objects of size 2^(i+2).
  const uint64_t M = pow2(14);
  const uint64_t N = pow2(8);
  Heap H;
  FirstFitManager MM(H, 40.0);
  CohenPetrankProgram PF(M, N, 40.0);
  Execution E(MM, PF, M);
  unsigned Sigma = PF.sigma();
  unsigned LogN = log2Exact(N);
  double X = PF.allocationFactor();

  uint64_t PrevAllocs = 0;
  uint64_t PrevWords = 0;
  unsigned Step = 0;
  bool More = true;
  while (More) {
    More = E.runStep();
    uint64_t Allocs = H.stats().NumAllocations - PrevAllocs;
    uint64_t Words = H.stats().TotalAllocatedWords - PrevWords;
    PrevAllocs = H.stats().NumAllocations;
    PrevWords = H.stats().TotalAllocatedWords;

    if (Step == 0) {
      EXPECT_EQ(Allocs, M) << "step 0 fills M unit objects";
    } else if (Step <= Sigma) {
      if (Allocs != 0) {
        EXPECT_EQ(Words / Allocs, pow2(Step))
            << "stage-one step " << Step << " allocates 2^step objects";
      }
    } else if (Step <= 2 * Sigma - 1) {
      EXPECT_EQ(Allocs, 0u) << "null step " << Step << " must not allocate";
    } else if (Step <= LogN - 2) {
      uint64_t Size = pow2(Step + 2);
      uint64_t Planned = uint64_t(X * double(M)) / Size;
      EXPECT_LE(Allocs, Planned) << "stage-two step " << Step;
      if (Allocs != 0) {
        EXPECT_EQ(Words / Allocs, Size) << "stage-two step " << Step;
      }
    }
    ++Step;
  }
  EXPECT_EQ(Step, LogN - 1) << "steps 0..log(n)-2 were executed";
}

TEST(CohenPetrank, LiveNeverExceedsBoundWithGhosts) {
  // The ghost accounting must keep real live words within M even while
  // the manager compacts aggressively during stage one.
  const uint64_t M = pow2(13);
  const uint64_t N = pow2(8);
  Heap H;
  EvacuatingCompactor::Options MOpts;
  MOpts.DensityThreshold = 0.9;
  MOpts.MinEvacuationSize = 2;
  EvacuatingCompactor MM(H, 5.0, MOpts);
  CohenPetrankProgram PF(M, N, 5.0);
  Execution E(MM, PF, M);
  ExecutionResult R = E.run();
  EXPECT_LE(R.PeakLiveWords, M);
  EXPECT_GT(R.MovedWords, 0u) << "test needs actual compaction";
}

TEST(CohenPetrank, TrackedChunksShrinkAcrossMerges) {
  // Partition coarsening halves the index space; the chunk map must
  // never grow across a merge.
  const uint64_t M = pow2(13);
  const uint64_t N = pow2(8);
  Heap H;
  FirstFitManager MM(H, 20.0);
  CohenPetrankProgram PF(M, N, 20.0);
  Execution E(MM, PF, M);
  uint64_t PrevChunks = UINT64_MAX;
  E.addStepObserver([&](const Execution &) {
    if (!PF.inStageTwo())
      return;
    uint64_t Now = PF.numTrackedChunks();
    if (PrevChunks != UINT64_MAX) {
      // New chunks appear only through allocation (3 per object).
      EXPECT_LE(Now, PrevChunks + 3 * (uint64_t(PF.allocationFactor() *
                                                double(M))));
    }
    PrevChunks = Now;
  });
  E.run();
}

TEST(ProgramFactory, CreatesEveryProgram) {
  for (const std::string &Name : allProgramNames()) {
    auto P = createProgram(Name, pow2(12), 6, 20.0);
    ASSERT_NE(P, nullptr) << Name;
    EXPECT_FALSE(P->name().empty());
  }
  EXPECT_EQ(createProgram("no-such-program", pow2(12), 6, 20.0), nullptr);
  // The three name lists partition the full registry.
  EXPECT_EQ(adversarialProgramNames().size() + ordinaryProgramNames().size() +
                updateProgramNames().size(),
            allProgramNames().size());
}

TEST(ProgramFactory, UnknownProgramFailsWithTheFullProgramList) {
  // Same contract as createManagerChecked: an unknown name fails with a
  // message naming every valid program, never a silent default.
  std::string Error;
  EXPECT_EQ(createProgramChecked("no-such-program", pow2(12), 6, 20.0,
                                 &Error),
            nullptr);
  EXPECT_NE(Error.find("unknown program 'no-such-program'"),
            std::string::npos)
      << Error;
  for (const std::string &Name : allProgramNames())
    EXPECT_NE(Error.find(Name), std::string::npos)
        << "error message omits valid program '" << Name << "': " << Error;
  // Success leaves the error untouched.
  Error.clear();
  EXPECT_NE(createProgramChecked("robson", pow2(12), 6, 20.0, &Error),
            nullptr);
  EXPECT_TRUE(Error.empty()) << Error;
}

// Parameters outside the paper's constructions fail through the Error
// out-parameter instead of reaching the constructors' asserts.
std::string checkedError(const std::string &Name, uint64_t M, unsigned LogN,
                         double C) {
  std::string Error;
  EXPECT_EQ(createProgramChecked(Name, M, LogN, C, &Error), nullptr) << Name;
  return Error;
}

TEST(ProgramFactory, CohenPetrankRejectsLogNBelowFour) {
  for (const char *Name : {"cohen-petrank", "pf"})
    EXPECT_NE(checkedError(Name, pow2(14), 3, 50.0).find("logn >= 4"),
              std::string::npos)
        << Name;
}

TEST(ProgramFactory, EveryProgramRejectsMBelowTheLargestObject) {
  std::vector<std::string> Names = allProgramNames();
  Names.push_back("pf");
  for (const std::string &Name : Names)
    for (unsigned LogN : {8u, 64u})
      EXPECT_NE(checkedError(Name, pow2(6), LogN, 50.0).find("M >= 2^logn"),
                std::string::npos)
          << Name << " logn=" << LogN;
  // An unknown name is reported as such, whatever its parameters.
  EXPECT_NE(checkedError("no-such-program", pow2(6), 8, 50.0)
                .find("unknown program"),
            std::string::npos);
}

TEST(ProgramFactory, CohenPetrankRejectsQuotasWithNoAdmissibleSigma) {
  // sigma = 1 needs 2 <= 3c/4, i.e. c >= 8/3.
  for (double C : {0.0, 1.0, 2.6, std::nan(""), HUGE_VAL})
    EXPECT_NE(checkedError("pf", pow2(14), 8, C).find("admissible density"),
              std::string::npos)
        << C;
  std::string Error;
  EXPECT_NE(createProgramChecked("pf", pow2(14), 8, 3.0, &Error),
            nullptr)
      << Error;
}

TEST(ProgramFactory, EveryProgramRunsAgainstFirstFit) {
  const uint64_t M = pow2(11);
  for (const std::string &Name : allProgramNames()) {
    Heap H;
    FirstFitManager MM(H, 20.0);
    auto P = createProgram(Name, M, 5, 20.0);
    ASSERT_NE(P, nullptr) << Name;
    Execution E(MM, *P, M);
    ExecutionResult R = E.run();
    EXPECT_LE(R.PeakLiveWords, M) << Name;
    EXPECT_TRUE(H.checkConsistency()) << Name;
  }
}

// --- The (c+1)M collector: both bounds at once ------------------------------

TEST(BumpCompactor, SandwichAgainstPF) {
  // Against the strongest adversary, the POPL 2011 collector must sit
  // between Theorem 1's lower bound and its own (c+1)M guarantee
  // (plus one object of period overshoot).
  const uint64_t M = pow2(12);
  const uint64_t N = pow2(7);
  for (double C : {3.0, 5.0, 10.0}) {
    Heap H;
    BumpCompactor MM(H, C, M);
    CohenPetrankProgram PF(M, N, C);
    Execution E(MM, PF, M);
    ExecutionResult R = E.run();
    EXPECT_GE(R.wasteFactor(M) + 1e-9, PF.targetWasteFactor()) << "c=" << C;
    EXPECT_LE(R.HeapSize, MM.footprintGuarantee() + N) << "c=" << C;
    EXPECT_TRUE(MM.ledger().holds()) << "c=" << C;
  }
}

TEST(BumpCompactor, CompactsPeriodicallyUnderChurn) {
  // Enough allocation volume funds repeated full compactions; the
  // footprint stays within the (c+1)M guarantee throughout.
  const uint64_t M = pow2(11);
  Heap H;
  BumpCompactor MM(H, 3.0, M);
  RandomChurnProgram::Options Opts;
  Opts.Steps = 60;
  Opts.MaxLogSize = 5;
  RandomChurnProgram P(M, Opts);
  Execution E(MM, P, M);
  ExecutionResult R = E.run();
  EXPECT_GT(MM.numCompactions(), 2u);
  EXPECT_LE(R.HeapSize, MM.footprintGuarantee() + pow2(5));
  EXPECT_TRUE(MM.ledger().holds());
}

TEST(BumpCompactor, GuaranteeHoldsAgainstRobson) {
  const uint64_t M = pow2(12);
  const unsigned LogN = 6;
  Heap H;
  BumpCompactor MM(H, 4.0, M);
  RobsonProgram PR(M, LogN);
  Execution E(MM, PR, M);
  ExecutionResult R = E.run();
  EXPECT_LE(R.HeapSize, MM.footprintGuarantee() + pow2(LogN));
  EXPECT_TRUE(MM.ledger().holds());
}

TEST(BumpCompactor, BeatsRobsonBoundWhenCIsSmall) {
  // The whole point of partial compaction: with enough budget the
  // (c+1)M collector needs less than any non-moving manager must pay.
  const uint64_t M = pow2(12);
  const unsigned LogN = 6;
  BoundParams P{M, pow2(LogN), 3.0};
  Heap H;
  BumpCompactor MM(H, 3.0, M);
  RobsonProgram PR(M, LogN);
  Execution E(MM, PR, M);
  ExecutionResult R = E.run();
  EXPECT_LT(double(R.HeapSize), robsonHeapWords(P));
}

// --- Synthetic workloads ---------------------------------------------------

TEST(RandomChurn, StaysWithinBoundsAndTerminates) {
  const uint64_t M = pow2(14);
  Heap H;
  FirstFitManager MM(H, 10.0);
  RandomChurnProgram::Options Opts;
  Opts.Steps = 40;
  RandomChurnProgram P(M, Opts);
  Execution E(MM, P, M);
  ExecutionResult R = E.run();
  EXPECT_EQ(R.Steps, 40u);
  EXPECT_LE(R.PeakLiveWords, M);
  EXPECT_GT(R.NumAllocations, 0u);
}

TEST(RandomChurn, DeterministicGivenSeed) {
  auto RunOnce = [] {
    Heap H;
    BestFitManager MM(H, 10.0);
    RandomChurnProgram::Options Opts;
    Opts.Steps = 20;
    Opts.Seed = 77;
    RandomChurnProgram P(pow2(12), Opts);
    Execution E(MM, P, pow2(12));
    return E.run().HeapSize;
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

TEST(RandomChurn, FragmentsFarLessThanAdversary) {
  // The conclusion's contrast: ordinary churn wastes much less than the
  // worst case the theorems describe.
  const uint64_t M = pow2(14);
  Heap H;
  FirstFitManager MM(H, 10.0);
  RandomChurnProgram::Options Opts;
  Opts.Steps = 60;
  Opts.MaxLogSize = 7;
  RandomChurnProgram P(M, Opts);
  Execution E(MM, P, M);
  ExecutionResult R = E.run();
  BoundParams BP{M, pow2(7), 10.0};
  EXPECT_LT(R.wasteFactor(M), robsonWasteFactor(BP) / 2.0);
}

TEST(MarkovPhase, RunsAllPhases) {
  const uint64_t M = pow2(13);
  Heap H;
  SegregatedFitManager MM(H, 10.0);
  MarkovPhaseProgram::Options Opts;
  Opts.Phases = 5;
  Opts.StepsPerPhase = 4;
  Opts.MaxLogSize = 6;
  MarkovPhaseProgram P(M, Opts);
  Execution E(MM, P, M);
  ExecutionResult R = E.run();
  EXPECT_EQ(R.Steps, 20u);
  EXPECT_LE(R.PeakLiveWords, M);
}

TEST(PatternWorkloads, StackStaysTightUnderFirstFit) {
  // LIFO lifetimes are every allocator's best case: the footprint should
  // sit essentially at the peak live volume.
  const uint64_t M = pow2(13);
  Heap H;
  FirstFitManager MM(H, 10.0);
  StackProgram::Options Opts;
  Opts.Steps = 50;
  Opts.MaxLogSize = 6;
  StackProgram P(M, Opts);
  Execution E(MM, P, M);
  ExecutionResult R = E.run();
  EXPECT_LE(R.PeakLiveWords, M);
  EXPECT_LE(double(R.HeapSize), 1.1 * double(R.PeakLiveWords));
}

TEST(PatternWorkloads, QueueSlidesWithoutBlowup) {
  const uint64_t M = pow2(13);
  Heap H;
  BestFitManager MM(H, 10.0);
  QueueProgram::Options Opts;
  Opts.Steps = 60;
  Opts.MaxLogSize = 6;
  QueueProgram P(M, Opts);
  Execution E(MM, P, M);
  ExecutionResult R = E.run();
  EXPECT_LE(R.PeakLiveWords, M);
  // FIFO recycling keeps the footprint well under Robson territory.
  BoundParams BP{M, pow2(6), 10.0};
  EXPECT_LT(R.wasteFactor(M), robsonWasteFactor(BP) / 2.0);
}

TEST(PatternWorkloads, SawtoothPinsFragmentTheHeap) {
  // Pinned survivors across waves must cost *some* footprint over the
  // live peak, but far less than the adversarial worst case.
  const uint64_t M = pow2(13);
  Heap H;
  FirstFitManager MM(H, 10.0);
  SawtoothProgram::Options Opts;
  Opts.Waves = 10;
  Opts.MaxLogSize = 6;
  SawtoothProgram P(M, Opts);
  Execution E(MM, P, M);
  ExecutionResult R = E.run();
  EXPECT_LE(R.PeakLiveWords, M);
  EXPECT_GE(R.HeapSize, R.PeakLiveWords);
  BoundParams BP{M, pow2(6), 10.0};
  EXPECT_LT(R.wasteFactor(M), robsonWasteFactor(BP));
}

TEST(PatternWorkloads, AllPatternsRunUnderAllManagers) {
  const uint64_t M = pow2(11);
  for (const std::string &Policy : allManagerPolicies()) {
    for (int Which = 0; Which != 3; ++Which) {
      Heap H;
      auto MM = createManager(Policy, H, 10.0, /*LiveBound=*/M);
      ASSERT_NE(MM, nullptr) << Policy;
      std::unique_ptr<Program> P;
      if (Which == 0) {
        StackProgram::Options O;
        O.Steps = 12;
        O.MaxLogSize = 5;
        P = std::make_unique<StackProgram>(M, O);
      } else if (Which == 1) {
        QueueProgram::Options O;
        O.Steps = 12;
        O.MaxLogSize = 5;
        P = std::make_unique<QueueProgram>(M, O);
      } else {
        SawtoothProgram::Options O;
        O.Waves = 6;
        O.MaxLogSize = 5;
        P = std::make_unique<SawtoothProgram>(M, O);
      }
      Execution E(*MM, *P, M);
      ExecutionResult R = E.run();
      EXPECT_LE(R.PeakLiveWords, M) << Policy << " pattern " << Which;
      EXPECT_TRUE(H.checkConsistency()) << Policy << " pattern " << Which;
    }
  }
}

TEST(Adversaries, FullyDeterministic) {
  // Both adversaries are RNG-free: two identical executions produce
  // identical footprints and move counts.
  auto RunRobson = [] {
    Heap H;
    auto MM = createManager("evacuating", H, 5.0);
    RobsonProgram PR(pow2(11), 5);
    Execution E(*MM, PR, pow2(11));
    ExecutionResult R = E.run();
    return std::make_pair(R.HeapSize, R.MovedWords);
  };
  EXPECT_EQ(RunRobson(), RunRobson());

  auto RunPf = [] {
    Heap H;
    auto MM = createManager("evacuating", H, 20.0);
    CohenPetrankProgram PF(pow2(12), pow2(7), 20.0);
    Execution E(*MM, PF, pow2(12));
    ExecutionResult R = E.run();
    return std::make_pair(R.HeapSize, R.MovedWords);
  };
  EXPECT_EQ(RunPf(), RunPf());
}

// --- Workload specs -----------------------------------------------------

TEST(WorkloadSpec, ParsesFullSyntax) {
  std::istringstream IS("# comment\n"
                        "seed 42\n"
                        "\n"
                        "phase steps=10 occupancy=0.8 free=0.5 minlog=1 "
                        "maxlog=6\n"
                        "phase maxlog=3\n");
  WorkloadSpec Spec;
  std::string Error;
  ASSERT_TRUE(parseWorkloadSpec(IS, Spec, Error)) << Error;
  EXPECT_EQ(Spec.Seed, 42u);
  ASSERT_EQ(Spec.Phases.size(), 2u);
  EXPECT_EQ(Spec.Phases[0].Steps, 10u);
  EXPECT_DOUBLE_EQ(Spec.Phases[0].TargetOccupancy, 0.8);
  EXPECT_DOUBLE_EQ(Spec.Phases[0].FreeProbability, 0.5);
  EXPECT_EQ(Spec.Phases[0].MinLogSize, 1u);
  EXPECT_EQ(Spec.Phases[0].MaxLogSize, 6u);
  // Defaults on the second phase.
  EXPECT_EQ(Spec.Phases[1].Steps, 8u);
  EXPECT_EQ(Spec.Phases[1].MaxLogSize, 3u);
}

TEST(WorkloadSpec, RejectsMalformedInput) {
  for (const char *Bad :
       {"bogus 1\n", "phase steps=zero\n", "phase vol=3\n", "seed\n",
        "phase minlog=5 maxlog=2\n", "phase occupancy=1.5\n", ""}) {
    std::istringstream IS(Bad);
    WorkloadSpec Spec;
    std::string Error;
    EXPECT_FALSE(parseWorkloadSpec(IS, Spec, Error)) << '"' << Bad << '"';
    EXPECT_FALSE(Error.empty()) << '"' << Bad << '"';
  }
}

TEST(WorkloadSpec, RunsPhasesInOrderAndDeterministically) {
  WorkloadSpec Spec;
  Spec.Seed = 5;
  Spec.Phases.push_back(PhaseSpec{3, 0.9, 0.3, 0, 4});
  Spec.Phases.push_back(PhaseSpec{2, 0.2, 0.9, 2, 5});
  ASSERT_TRUE(Spec.valid());

  auto RunOnce = [&] {
    Heap H;
    FirstFitManager MM(H, 10.0);
    SpecProgram P(pow2(12), Spec);
    Execution E(MM, P, pow2(12));
    ExecutionResult R = E.run();
    EXPECT_EQ(R.Steps, 5u);
    EXPECT_LE(R.PeakLiveWords, pow2(12));
    return R.HeapSize;
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

TEST(WorkloadSpec, PhaseOccupancyIsHonoured) {
  WorkloadSpec Spec;
  Spec.Phases.push_back(PhaseSpec{4, 0.5, 0.0, 0, 3});
  const uint64_t M = pow2(12);
  Heap H;
  FirstFitManager MM(H, 10.0);
  SpecProgram P(M, Spec);
  Execution E(MM, P, M);
  E.addStepObserver([&](const Execution &Ex) {
    // Refill stops at the phase target (within one object of slack).
    EXPECT_LE(Ex.heap().stats().LiveWords, uint64_t(0.5 * double(M)) + 8);
  });
  E.run();
}

TEST(TraceReplay, ExactSequence) {
  Heap H;
  FirstFitManager MM(H, 10.0);
  StreamingTraceProgram P({
      MallocOp::alloc(0, 8),
      MallocOp::alloc(1, 4),
      MallocOp::release(0, 8),
      MallocOp::alloc(2, 2),
  });
  Execution E(MM, P, 1024);
  ExecutionResult R = E.run();
  EXPECT_EQ(R.NumAllocations, 3u);
  EXPECT_EQ(R.NumFrees, 1u);
  // A fresh heap numbers its objects in allocation order.
  EXPECT_FALSE(H.isLive(0));
  EXPECT_TRUE(H.isLive(1));
  // The 2-word object reuses the freed 8-word hole under first fit.
  EXPECT_EQ(H.object(2).Address, 0u);
}

} // namespace
