//===- tests/realloc_test.cpp - The reallocation workbench gauntlet ------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Three layers of confidence in the reallocation family (src/realloc/,
// DESIGN.md §17):
//
//   1. Hand-computed micro-schedules: exact overhead ratios, backfill
//      and repack decisions, and trigger boundaries on boards small
//      enough to verify on paper.
//   2. Randomized gauntlets: thousands of insert/delete ops per seed,
//      with each algorithm's worst-prefix overhead held to its paper
//      bound.
//   3. One budget: the family is c-partial with c = 1/bound, so a
//      backfill cascade is stopped at the budget however deep it nests,
//      moves that bypass the budget's gate (at the endpoint or on an
//      earlier prefix) ARE caught by the named fuzzer invariants, and
//      the committed worst-overhead reproducer keeps reproducing.
//
//===----------------------------------------------------------------------===//

#include "adversary/ProgramFactory.h"
#include "driver/Execution.h"
#include "driver/TraceIO.h"
#include "fuzz/InvariantOracle.h"
#include "mm/ManagerFactory.h"
#include "realloc/CostObliviousAllocator.h"
#include "realloc/NeverMoveAllocator.h"
#include "realloc/ReallocManager.h"
#include "realloc/TightSpanAllocator.h"
#include "realloc/UpdateProgram.h"
#include "trace/TraceRun.h"
#include "support/MathUtils.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace pcb;

namespace {

// --- CostObliviousAllocator (realloc-bucket) -------------------------------

TEST(CostOblivious, BackfillsHighestClassMateIntoHole) {
  Heap H;
  CostObliviousAllocator MM(H);
  ObjectId A = MM.allocate(8);
  ObjectId B = MM.allocate(8);
  ObjectId C = MM.allocate(8);
  ASSERT_EQ(H.object(A).Address, 0u);
  ASSERT_EQ(H.object(C).Address, 16u);
  MM.free(A);
  // The highest-addressed 8-word class-mate (C) slid into A's hole.
  EXPECT_EQ(MM.backfills(), 1u);
  EXPECT_EQ(H.object(C).Address, 0u);
  EXPECT_EQ(H.object(B).Address, 8u);
  // Exact accounting: 8 words moved against 24 allocated.
  const CompactionLedger *RL = MM.reallocationLedger();
  ASSERT_NE(RL, nullptr);
  EXPECT_EQ(H.stats().MovedWords, 8u);
  EXPECT_EQ(H.stats().TotalAllocatedWords, 24u);
  EXPECT_DOUBLE_EQ(RL->maxPrefixRatio(), 8.0 / 24.0);
  EXPECT_TRUE(RL->holds());
}

TEST(CostOblivious, NoBackfillWhenHoleIsAboveAllClassMates) {
  Heap H;
  CostObliviousAllocator MM(H);
  MM.allocate(8);
  MM.allocate(8);
  ObjectId C = MM.allocate(8);
  MM.free(C); // the hole is the highest range: nothing above to slide down
  EXPECT_EQ(MM.backfills(), 0u);
  EXPECT_EQ(H.stats().MovedWords, 0u);
}

TEST(CostOblivious, SizeClassesAreIsolated) {
  Heap H;
  CostObliviousAllocator MM(H);
  ObjectId A8 = MM.allocate(8);  // @0
  ObjectId B4 = MM.allocate(4);  // @8
  ObjectId C8 = MM.allocate(8);  // @12
  ObjectId D4 = MM.allocate(4);  // @20
  MM.free(A8);
  // Only the 8-word class reacts: C8 backfills, the 4-word objects stay.
  EXPECT_EQ(H.object(C8).Address, 0u);
  EXPECT_EQ(H.object(B4).Address, 8u);
  EXPECT_EQ(H.object(D4).Address, 20u);
  EXPECT_EQ(MM.backfills(), 1u);
}

TEST(CostOblivious, BackfillMovesAreStrictlyDownward) {
  Heap H;
  CostObliviousAllocator MM(H);
  Rng R(7);
  std::vector<ObjectId> Live;
  for (int Op = 0; Op != 600; ++Op) {
    if (Live.empty() || R.nextBool(0.6)) {
      Live.push_back(MM.allocate(uint64_t(1) << R.nextBelow(5)));
    } else {
      size_t I = R.nextBelow(Live.size());
      // Snapshot every survivor's address: a free may only ever slide
      // objects down, never up.
      std::vector<Addr> Before;
      for (ObjectId Id : Live)
        Before.push_back(H.object(Id).Address);
      ObjectId Victim = Live[I];
      MM.free(Victim);
      Live.erase(Live.begin() + I);
      Before.erase(Before.begin() + I);
      for (size_t J = 0; J != Live.size(); ++J)
        EXPECT_LE(H.object(Live[J]).Address, Before[J]);
    }
  }
  EXPECT_GT(MM.backfills(), 0u);
  EXPECT_TRUE(MM.reallocationLedger()->holds());
}

// --- TightSpanAllocator (realloc-jin) --------------------------------------

TEST(TightSpan, TriggerBoundaryIsExact) {
  Heap H;
  TightSpanAllocator MM(H);
  ObjectId A = MM.allocate(4);
  ObjectId B = MM.allocate(4);
  ObjectId C = MM.allocate(4);
  (void)C;
  EXPECT_EQ(MM.spanTop(), 12u);
  MM.free(A); // dead 4, live 8: 2*4 <= 8, exactly at the trigger — no pass
  EXPECT_EQ(MM.rebuilds(), 0u);
  EXPECT_EQ(MM.spanTop(), 12u);
  MM.free(B); // dead 8, live 4: 2*8 > 4 — repack fires
  EXPECT_EQ(MM.rebuilds(), 1u);
  EXPECT_EQ(H.object(C).Address, 0u);
  EXPECT_EQ(MM.spanTop(), 4u);
}

TEST(TightSpan, RebuildPacksDensePrefixAndChargesExactly) {
  Heap H;
  TightSpanAllocator MM(H);
  ObjectId A = MM.allocate(4); // @0
  ObjectId B = MM.allocate(4); // @4
  ObjectId C = MM.allocate(4); // @8
  ObjectId D = MM.allocate(4); // @12
  MM.free(B); // dead 4, live 12: no trigger
  MM.free(D); // dead 8, live 8: trigger — C slides 8 -> 4
  EXPECT_EQ(MM.rebuilds(), 1u);
  EXPECT_EQ(H.object(A).Address, 0u);
  EXPECT_EQ(H.object(C).Address, 4u);
  // A complete pass leaves the span exactly as tight as the live size.
  EXPECT_EQ(MM.spanTop(), H.stats().LiveWords);
  EXPECT_EQ(H.stats().MovedWords, 4u);
  EXPECT_EQ(H.stats().TotalAllocatedWords, 16u);
  EXPECT_DOUBLE_EQ(MM.reallocationLedger()->maxPrefixRatio(), 0.25);
}

TEST(TightSpan, EmptyHeapResetsSpan) {
  Heap H;
  TightSpanAllocator MM(H);
  ObjectId A = MM.allocate(16);
  EXPECT_EQ(MM.spanTop(), 16u);
  MM.free(A);
  EXPECT_EQ(MM.spanTop(), 0u);
  EXPECT_EQ(MM.rebuilds(), 0u); // nothing to repack: the span collapses free
}

TEST(TightSpan, SpendGateDenialDegradesGracefully) {
  Heap H;
  TightSpanAllocator MM(H);
  MM.setSpendGate([] { return false; });
  ObjectId A = MM.allocate(4);
  ObjectId B = MM.allocate(4);
  MM.allocate(4);
  MM.free(A);
  MM.free(B); // the trigger fires, but the gate denies the first move
  // Denial degrades to fewer moves, not a violated bound or a livelock.
  EXPECT_EQ(H.stats().MovedWords, 0u);
  EXPECT_TRUE(MM.reallocationLedger()->holds());
  EXPECT_EQ(MM.spanTop(), 12u); // an incomplete pass must not tighten
}

// --- Randomized gauntlets --------------------------------------------------

// 8 seeds x 10k insert/delete ops against each movement scheme: the
// worst-prefix overhead (which covers EVERY prefix, by construction of
// maxPrefixRatio) stays within the paper bound.
template <typename ManagerT>
void runRandomChurn(double Bound) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Heap H;
    ManagerT MM(H);
    Rng R(Seed);
    std::vector<ObjectId> Live;
    uint64_t LiveWords = 0;
    for (int Op = 0; Op != 10000; ++Op) {
      if (Live.empty() || (LiveWords < 4096 && R.nextBool(0.55))) {
        uint64_t Size = uint64_t(1) << R.nextBelow(7);
        Live.push_back(MM.allocate(Size));
        LiveWords += Size;
      } else {
        size_t I = R.nextBelow(Live.size());
        LiveWords -= H.object(Live[I]).Size;
        MM.free(Live[I]);
        Live[I] = Live.back();
        Live.pop_back();
      }
    }
    const CompactionLedger *RL = MM.reallocationLedger();
    ASSERT_NE(RL, nullptr);
    EXPECT_TRUE(RL->holds()) << "seed " << Seed;
    EXPECT_LE(RL->maxPrefixRatio(), Bound) << "seed " << Seed;
    EXPECT_GT(H.stats().MovedWords, 0u) << "seed " << Seed
                                        << ": the gauntlet never moved";
  }
}

TEST(Gauntlet, CostObliviousHoldsBoundOnEveryPrefix) {
  runRandomChurn<CostObliviousAllocator>(1.0);
}

TEST(Gauntlet, TightSpanHoldsBoundOnEveryPrefix) {
  runRandomChurn<TightSpanAllocator>(2.0);
}

TEST(Gauntlet, NeverMoveIsZeroOverhead) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Heap H;
    NeverMoveAllocator MM(H);
    Rng R(Seed);
    std::vector<ObjectId> Live;
    for (int Op = 0; Op != 2000; ++Op) {
      if (Live.empty() || R.nextBool(0.55)) {
        Live.push_back(MM.allocate(uint64_t(1) << R.nextBelow(6)));
      } else {
        size_t I = R.nextBelow(Live.size());
        MM.free(Live[I]);
        Live[I] = Live.back();
        Live.pop_back();
      }
    }
    EXPECT_EQ(H.stats().MovedWords, 0u);
    EXPECT_EQ(MM.overheadBound(), 0.0);
    EXPECT_EQ(MM.ledger().budgetWords(), 0u); // c = +infinity
    EXPECT_EQ(MM.reallocationLedger()->maxPrefixRatio(), 0.0);
  }
}

// PF frees every moved object, driving backfill cascades (bucket) and
// mid-pass re-triggering (jin): the bound must survive the compaction
// family's strongest adversary, and the cascades must terminate.
TEST(Gauntlet, PFCascadesTerminateWithinBound) {
  struct Case {
    const char *Policy;
    double Bound;
  } Cases[] = {{"realloc-bucket", 1.0}, {"realloc-jin", 2.0}};
  for (const Case &K : Cases) {
    Heap H;
    uint64_t M = pow2(10);
    auto MM = createManager(K.Policy, H, 50.0, M);
    ASSERT_NE(MM, nullptr);
    auto Prog = createProgram("cohen-petrank", M, 4, 50.0);
    ASSERT_NE(Prog, nullptr);
    Execution E(*MM, *Prog, M);
    E.run();
    const CompactionLedger *RL = MM->reallocationLedger();
    ASSERT_NE(RL, nullptr) << K.Policy;
    EXPECT_TRUE(RL->holds()) << K.Policy;
    EXPECT_LE(RL->maxPrefixRatio(), K.Bound) << K.Policy;
  }
}

// --- Factory registration --------------------------------------------------

TEST(Factory, ReallocFamilyRegistered) {
  EXPECT_EQ(reallocManagerPolicies(),
            (std::vector<std::string>{"realloc-never", "realloc-bucket",
                                      "realloc-jin"}));
  for (const std::string &Policy : reallocManagerPolicies()) {
    Heap H;
    auto MM = createManager(Policy, H, 50.0);
    ASSERT_NE(MM, nullptr) << Policy;
    EXPECT_EQ(MM->name(), Policy);
    EXPECT_NE(MM->reallocationLedger(), nullptr) << Policy;
    EXPECT_TRUE(isReallocPolicy(Policy));
  }
  EXPECT_FALSE(isReallocPolicy("first-fit"));
  EXPECT_FALSE(isReallocPolicy("sliding"));
  // The two families partition the registry.
  EXPECT_EQ(allManagerPolicies().size(),
            compactionFamilyPolicies().size() +
                reallocManagerPolicies().size());
  // The zero-overhead envelope is also a non-moving manager (Robson's
  // bounds apply to it).
  std::vector<std::string> NonMoving = nonMovingManagerPolicies();
  EXPECT_NE(std::find(NonMoving.begin(), NonMoving.end(), "realloc-never"),
            NonMoving.end());
}

TEST(Factory, OverheadBoundsPerFamily) {
  Heap H1, H2, H3, H4, H5;
  EXPECT_EQ(createManager("realloc-never", H1, 50.0)->overheadBound(), 0.0);
  EXPECT_EQ(createManager("realloc-bucket", H2, 50.0)->overheadBound(), 1.0);
  EXPECT_EQ(createManager("realloc-jin", H3, 50.0)->overheadBound(), 2.0);
  // c-partial managers declare 1/c; unlimited baselines declare nothing.
  EXPECT_DOUBLE_EQ(createManager("sliding", H4, 50.0)->overheadBound(),
                   1.0 / 50.0);
  EXPECT_TRUE(std::isinf(
      createManager("sliding-unlimited", H5, 50.0)->overheadBound()));
}

// --- One budget --------------------------------------------------------

namespace one_budget {

// realloc-bucket's backfill at a bound of 1/2, written recursively: every
// free slides the highest object above the hole down into it (all objects
// here have one size, so each is a perfect fit).
class HalfBoundBackfill : public ReallocManager {
public:
  explicit HalfBoundBackfill(Heap &H) : ReallocManager(H, 0.5) {}
  std::string name() const override { return "half-bound-backfill"; }

protected:
  Addr placeFor(uint64_t Size) override {
    return heap().freeSpace().firstFit(Size);
  }
  void onPlaced(ObjectId Id) override { Live[heap().object(Id).Address] = Id; }
  void onFreeing(ObjectId Id) override {
    Live.erase(heap().object(Id).Address);
  }
  void onFreed(ObjectId, Addr From, uint64_t) override {
    if (!Live.empty() && std::prev(Live.end())->first > From)
      tryMoveObject(std::prev(Live.end())->second, From);
  }

private:
  std::map<Addr, ObjectId> Live;
};

// Moves behind the budget's gate: heap().move directly, not tryMoveObject.
class RogueMoveManager : public ReallocManager {
public:
  explicit RogueMoveManager(Heap &H) : ReallocManager(H, 1.0) {}
  std::string name() const override { return "rogue-move"; }
  void rogueMove(ObjectId Id, Addr To) { heap().move(Id, To); }

protected:
  Addr placeFor(uint64_t Size) override {
    return heap().freeSpace().firstFit(Size);
  }
};

bool sawCheck(const std::vector<Violation> &Out, const std::string &Check) {
  for (const Violation &V : Out)
    if (V.Check == Check)
      return true;
  return false;
}

} // namespace one_budget

// A program that frees every moved object (PF's reaction) nests each
// backfill inside the previous one. The budget reads the heap's counters,
// so every nested move is checked against the outer moves too: c = 2
// funds floor(128 / 2) = 64 words, eight 8-word backfills, and the ninth
// is denied. (A ledger charged only after the reaction returned let all
// fifteen through: 120 words against 128 allocated.)
TEST(OneBudget, NestedBackfillCascadeStopsAtTheBudget) {
  Heap H;
  one_budget::HalfBoundBackfill MM(H);
  MM.setMoveCallback([](ObjectId, Addr, Addr) { return true; });
  ObjectId First = MM.allocate(8);
  for (int I = 1; I != 16; ++I)
    MM.allocate(8);
  ASSERT_EQ(H.stats().TotalAllocatedWords, 128u);
  MM.free(First);
  EXPECT_EQ(H.stats().MovedWords, 64u);
  EXPECT_EQ(H.stats().LiveWords, 56u);
  EXPECT_DOUBLE_EQ(MM.reallocationLedger()->maxPrefixRatio(), 0.5);
  EXPECT_TRUE(MM.reallocationLedger()->holds());
}

// A move past the budget that bypasses tryMoveObject is convicted at the
// endpoint by the ledger over the heap's statistics, and on its prefix by
// the independent event-log audit.
TEST(OracleRegression, MoveBypassingTheGateFailsBothBudgetChecks) {
  Heap H;
  EventLog Log;
  H.setEventCallback([&](const HeapEvent &E) { Log.record(E); });
  one_budget::RogueMoveManager MM(H);
  ObjectId A = MM.allocate(8);
  ObjectId B = MM.allocate(8);
  MM.free(A);
  MM.rogueMove(B, 0);
  MM.rogueMove(B, 16);
  MM.rogueMove(B, 0); // 24 words moved against 16 allocated at c = 1
  InvariantOracle Oracle(H, MM, Log);
  std::vector<Violation> Out;
  EXPECT_GT(Oracle.checkDeep(1, Out), 0u);
  EXPECT_TRUE(one_budget::sawCheck(Out, "budget-endpoint"));
  EXPECT_TRUE(one_budget::sawCheck(Out, "budget-history"));
}

// A breach on an earlier prefix stays convicted after fresh allocation
// volume makes the endpoint look innocent.
TEST(OracleRegression, BreachedPrefixFailsBudgetHistory) {
  Heap H;
  EventLog Log;
  H.setEventCallback([&](const HeapEvent &E) { Log.record(E); });
  one_budget::RogueMoveManager MM(H);
  ObjectId A = MM.allocate(8);
  MM.rogueMove(A, 8);
  MM.rogueMove(A, 0); // 16 words moved against 8 allocated
  MM.allocate(992);
  ASSERT_TRUE(MM.ledger().holds()); // 16 <= 1000: the endpoint is fine
  InvariantOracle Oracle(H, MM, Log);
  std::vector<Violation> Out;
  EXPECT_GT(Oracle.checkDeep(1, Out), 0u);
  EXPECT_FALSE(one_budget::sawCheck(Out, "budget-endpoint"));
  EXPECT_TRUE(one_budget::sawCheck(Out, "budget-history"));
}

// --- UpdateProgram ---------------------------------------------------------

TEST(UpdateProgram, FactoryRoundTripsEveryShape) {
  for (const std::string &Name : updateProgramNames()) {
    auto Prog = createProgram(Name, pow2(12), 6, 50.0);
    ASSERT_NE(Prog, nullptr) << Name;
    EXPECT_EQ(Prog->name(), Name);
  }
  EXPECT_EQ(updateProgramNames().size(), 5u);
}

TEST(UpdateProgram, UpdateModelDoesNotFreeOnMove) {
  // The update model charges the algorithm for moves; the adversary only
  // chooses the update sequence. A PF-style reactive free would change
  // the problem, so the notification must decline.
  UpdateProgram::Options O;
  UpdateProgram P(pow2(12), O);
  EXPECT_FALSE(P.onObjectMoved(0, 0, 64));
}

TEST(UpdateProgram, DeterministicAcrossRuns) {
  auto runOnce = [] {
    Heap H;
    auto MM = createManager("realloc-jin", H, 50.0);
    auto Prog = createProgram("update-mix", pow2(12), 6, 50.0);
    Execution E(*MM, *Prog, pow2(12));
    return E.run();
  };
  ExecutionResult A = runOnce();
  ExecutionResult B = runOnce();
  EXPECT_EQ(A.HeapSize, B.HeapSize);
  EXPECT_EQ(A.TotalAllocatedWords, B.TotalAllocatedWords);
  EXPECT_EQ(A.MovedWords, B.MovedWords);
  EXPECT_EQ(A.NumAllocations, B.NumAllocations);
  EXPECT_EQ(A.NumFrees, B.NumFrees);
  EXPECT_EQ(A.Steps, B.Steps);
}

TEST(UpdateProgram, FillDrainIsASawtooth) {
  Heap H;
  uint64_t M = pow2(12);
  NeverMoveAllocator MM(H);
  auto Prog = createProgram("update-fill-drain", M, 8, 50.0);
  ASSERT_NE(Prog, nullptr);
  Execution E(MM, *Prog, M);
  uint64_t Target = uint64_t(double(M) * 0.85);
  bool ReachedTarget = false, DrainedAfter = false;
  E.addStepObserver([&](const Execution &Ex) {
    uint64_t Live = Ex.heap().stats().LiveWords;
    ReachedTarget |= Live >= Target;
    DrainedAfter |= ReachedTarget && Live == 0;
  });
  ExecutionResult Res = E.run();
  EXPECT_TRUE(ReachedTarget); // filled to the occupancy target...
  EXPECT_TRUE(DrainedAfter);  // ...then drained all the way down
  EXPECT_EQ(Res.Steps, 96u);
}

TEST(UpdateProgram, AlternatingStaircaseFragmentsNonMovers) {
  Heap H;
  uint64_t M = pow2(12);
  NeverMoveAllocator MM(H);
  auto Prog = createProgram("update-alternating", M, 8, 50.0);
  Execution E(MM, *Prog, M);
  ExecutionResult Res = E.run();
  // Each round frees the lowest object and demands one word more than
  // the hole holds: without movement the footprint must creep past the
  // peak live volume.
  EXPECT_GT(Res.HeapSize, Res.PeakLiveWords);
  EXPECT_GT(Res.TotalAllocatedWords, Res.NumAllocations); // growing sizes
}

TEST(UpdateProgram, CombChurnsEverySizeClass) {
  Heap H;
  uint64_t M = pow2(12);
  CostObliviousAllocator MM(H);
  auto Prog = createProgram("update-comb", M, 6, 50.0);
  EventLog Log;
  H.setEventCallback([&](const HeapEvent &E) { Log.record(E); });
  Execution E(MM, *Prog, M);
  E.run();
  // The comb doubles its tooth size each phase: the trace must contain
  // allocations in several distinct size classes.
  std::set<uint64_t> Sizes;
  for (const HeapEvent &Ev : Log.events())
    if (Ev.Event == HeapEvent::Kind::Alloc)
      Sizes.insert(Ev.Size);
  EXPECT_GE(Sizes.size(), 4u);
  EXPECT_TRUE(MM.reallocationLedger()->holds());
}

// --- Golden worst-overhead reproducer --------------------------------------

struct WorstOverhead {
  std::string Program;
  double MaxPrefix = 0.0;
  EventLog Log;
};

// Runs every update shape through the Jin-style repacker and returns the
// shape with the worst prefix overhead ratio, with its recorded trace.
WorstOverhead findWorstOverhead() {
  WorstOverhead Worst;
  uint64_t M = pow2(11);
  for (const std::string &Name : updateProgramNames()) {
    Heap H;
    TightSpanAllocator MM(H);
    EventLog Log;
    Execution::Options EO;
    EO.Log = &Log;
    auto Prog = createProgram(Name, M, 6, 50.0);
    Execution E(MM, *Prog, M, EO);
    E.run();
    double Prefix = MM.reallocationLedger()->maxPrefixRatio();
    if (Prefix > Worst.MaxPrefix) {
      Worst.Program = Name;
      Worst.MaxPrefix = Prefix;
      Worst.Log = std::move(Log);
    }
  }
  return Worst;
}

TEST(GoldenWorstOverhead, SomeShapeApproachesTheBound) {
  WorstOverhead Worst = findWorstOverhead();
  // The adversary family earns its keep: at least one shape drives the
  // repacker past half of its amortization headroom...
  EXPECT_GE(Worst.MaxPrefix, 1.0) << Worst.Program;
  // ...but the enforced bound is never crossed.
  EXPECT_LE(Worst.MaxPrefix, 2.0 + 1e-9) << Worst.Program;

  // Regenerate the committed golden reproducer with:
  //   PCB_REGEN_GOLDEN=<repo>/tests/golden ./realloc_test
  if (const char *Dir = std::getenv("PCB_REGEN_GOLDEN")) {
    std::ofstream OS(std::string(Dir) + "/worst-overhead-jin.trace");
    ASSERT_TRUE(OS.good());
    OS << "# worst-overhead reproducer: " << Worst.Program
       << " through realloc-jin, worst prefix ratio " << Worst.MaxPrefix
       << "\n";
    writeEventLog(OS, Worst.Log);
  }
}

// The committed reproducer: replaying its update sequence through a
// fresh Jin-style repacker must keep producing a near-bound worst
// prefix, forever — the adversary's sting is part of the contract.
TEST(GoldenWorstOverhead, CommittedReproducerStillStings) {
  std::ifstream IS(std::string(PCB_TEST_DATA_DIR) +
                   "/worst-overhead-jin.trace");
  ASSERT_TRUE(IS.good()) << "missing golden worst-overhead reproducer";
  EventLog Log;
  std::string Error;
  ASSERT_TRUE(readEventLog(IS, Log, &Error)) << Error;
  std::vector<MallocOp> Schedule = Log.toSchedule();
  ASSERT_FALSE(Schedule.empty());
  uint64_t M = checkSchedule(Schedule).value();

  Heap H;
  TightSpanAllocator MM(H);
  StreamingTraceProgram P(std::move(Schedule));
  Execution E(MM, P, M);
  E.run();
  const CompactionLedger *RL = MM.reallocationLedger();
  EXPECT_GE(RL->maxPrefixRatio(), 1.0)
      << "the committed trace no longer stresses the repacker";
  EXPECT_LE(RL->maxPrefixRatio(), 2.0);
  EXPECT_TRUE(RL->holds());
}

} // namespace
