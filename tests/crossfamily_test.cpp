//===- tests/crossfamily_test.cpp - Compaction x reallocation cross-stress ===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// E16's experimental question, pinned as tests: the two problem families
// share one heap substrate, so each family's adversaries must run
// cleanly through the other family's managers — PF and the comb through
// the reallocation algorithms, the insert/delete update adversaries
// through every compaction policy — with the footprint and overhead
// invariants holding in both directions.
//
//===----------------------------------------------------------------------===//

#include "adversary/ProgramFactory.h"
#include "driver/Execution.h"
#include "fuzz/DifferentialHarness.h"
#include "fuzz/InvariantOracle.h"
#include "fuzz/WorkloadFuzzer.h"
#include "mm/ManagerFactory.h"
#include "support/MathUtils.h"
#include "trace/TraceRun.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

using namespace pcb;

namespace {

// Records \p ProgName (run through a never-moving manager, so the trace
// is placement-independent) as a replayable schedule.
FuzzSchedule recordUpdateSchedule(const std::string &ProgName, uint64_t M) {
  Heap H;
  auto MM = createManager("realloc-never", H, 50.0, M);
  auto Prog = createProgram(ProgName, M, 6, 50.0);
  EXPECT_NE(Prog, nullptr) << ProgName;
  EventLog Log;
  Execution::Options EO;
  EO.Log = &Log;
  Execution E(*MM, *Prog, M, EO);
  E.run();
  return FuzzSchedule{0, ProgName, Log.toSchedule()};
}

// --- Compaction-family adversaries through reallocation managers -----------

// PF frees every moved object; run it through each reallocation
// algorithm with the full per-step oracle attached — every cheap and
// deep invariant, including budget-endpoint and budget-history at the
// family's c = 1/bound, after every step.
TEST(CrossFamily, PFThroughReallocAlgorithmsWithPerStepOracle) {
  for (const std::string &Policy : reallocManagerPolicies()) {
    Heap H;
    uint64_t M = pow2(11);
    auto MM = createManager(Policy, H, 50.0, M);
    ASSERT_NE(MM, nullptr) << Policy;
    auto Prog = createProgram("cohen-petrank", M, 5, 50.0);
    ASSERT_NE(Prog, nullptr);
    EventLog Log;
    Execution::Options EO;
    EO.Log = &Log;
    Execution E(*MM, *Prog, M, EO);
    InvariantOracle::Options OO;
    OO.DeepCheckEvery = 16;
    InvariantOracle Oracle(H, *MM, Log, OO);
    std::vector<Violation> Out;
    E.addStepObserver([&](const Execution &Ex) {
      Oracle.checkStep(Ex.stepsRun(), Out);
    });
    E.run();
    Oracle.checkDeep(E.stepsRun(), Out);
    EXPECT_TRUE(Out.empty()) << Policy << ": " << Out.front().describe();
  }
}

// The comb workload (the paper's fragmentation archetype, as a fuzz
// pattern) through the reallocation trio plus first-fit, differentially
// — with the realloc replay-determinism check engaged.
TEST(CrossFamily, CombScheduleThroughReallocPolicies) {
  DifferentialHarness::Options HO;
  HO.Policies = {"first-fit", "realloc-never", "realloc-bucket",
                 "realloc-jin"};
  HO.ReplayCheckPolicy = "realloc-bucket";
  HO.DeepCheckEvery = 32;
  DifferentialHarness Harness(HO);
  WorkloadFuzzer::Options FO;
  FO.Seed = 0xc0b;
  FO.NumOps = 1024;
  FO.LiveBound = pow2(12);
  FO.MaxLogSize = 7;
  FO.P = WorkloadFuzzer::Pattern::Comb;
  DifferentialReport Report = Harness.run(WorkloadFuzzer(FO).generate());
  EXPECT_TRUE(Report.clean()) << Report.summary();
  ASSERT_EQ(Report.Runs.size(), 4u);
}

// PF is tuned to starve c-partial budgets; aimed at the bucketed
// scheme it drives the overhead ratio close to the scheme's bound of 1
// (every PF free funds exactly one backfill of the same size) — the
// cross-stress E16 reports.
TEST(CrossFamily, PFStressesBucketNearItsBound) {
  Heap H;
  uint64_t M = pow2(12);
  auto MM = createManager("realloc-bucket", H, 50.0, M);
  auto Prog = createProgram("cohen-petrank", M, 6, 50.0);
  Execution E(*MM, *Prog, M);
  E.run();
  const CompactionLedger *RL = MM->reallocationLedger();
  ASSERT_NE(RL, nullptr);
  EXPECT_GE(RL->maxPrefixRatio(), 0.8);
  EXPECT_LE(RL->maxPrefixRatio(), 1.0);
  EXPECT_TRUE(RL->holds());
}

// --- Update adversaries through the compaction family ----------------------

// Every update shape's trace through EVERY factory policy — all fifteen
// compaction managers and the three reallocation algorithms — under the
// differential harness's full oracle and cross-policy agreement checks.
TEST(CrossFamily, UpdateTracesThroughEveryPolicy) {
  DifferentialHarness Harness; // default options: the whole registry
  ASSERT_EQ(Harness.options().Policies.size(), allManagerPolicies().size());
  for (const std::string &ProgName : updateProgramNames()) {
    FuzzSchedule S = recordUpdateSchedule(ProgName, pow2(11));
    ASSERT_FALSE(S.Ops.empty()) << ProgName;
    DifferentialReport Report = Harness.run(S);
    EXPECT_TRUE(Report.clean()) << ProgName << ":\n" << Report.summary();
  }
}

// Both directions of the invariant pair, recomputed from the raw run
// statistics: footprint dominates peak-live for every policy, and moved
// words stay within 1/c of allocation volume for every budgeted manager
// — the reallocation family included, at c = 1/bound of its scheme.
TEST(CrossFamily, FootprintAndOverheadInvariantsBothDirections) {
  DifferentialHarness Harness;
  DifferentialReport Report =
      Harness.run(recordUpdateSchedule("update-mix", pow2(11)));
  ASSERT_TRUE(Report.clean()) << Report.summary();
  std::map<std::string, double> ReallocQuotas = {
      {"realloc-never", std::numeric_limits<double>::infinity()},
      {"realloc-bucket", 1.0},
      {"realloc-jin", 0.5}};
  for (const PolicyRunResult &R : Report.Runs) {
    EXPECT_GE(R.Stats.HighWaterMark, R.Stats.PeakLiveWords) << R.Policy;
    auto It = ReallocQuotas.find(R.Policy);
    if (It != ReallocQuotas.end()) {
      EXPECT_EQ(R.QuotaC, It->second) << R.Policy;
    }
    if (R.QuotaC > 0.0) {
      EXPECT_LE(double(R.Stats.MovedWords),
                double(R.Stats.TotalAllocatedWords) / R.QuotaC + 1e-9)
          << R.Policy;
    }
  }
}

// The other half of E16's question: do insert/delete adversaries
// separate the managers? The comb shape must — it leaves same-size
// holes no doubled tooth fits, so footprint depends on whether (and
// how) a policy moves: the never-move envelope pays the most, the
// backfilling and repacking schemes reclaim the gaps, and an unlimited
// compactor beats a first-fit non-mover.
TEST(CrossFamily, UpdateAdversarySeparatesManagers) {
  FuzzSchedule S = recordUpdateSchedule("update-comb", pow2(11));
  uint64_t M = checkSchedule(S.Ops).value();
  std::map<std::string, uint64_t> Footprints;
  for (const std::string Policy :
       {"first-fit", "sliding-unlimited", "realloc-never", "realloc-bucket",
        "realloc-jin"}) {
    Heap H;
    auto MM = createManager(Policy, H, 50.0, M);
    ASSERT_NE(MM, nullptr) << Policy;
    StreamingTraceProgram P(S.Ops);
    Execution E(*MM, P, M);
    Footprints[Policy] = E.run().HeapSize;
  }
  std::set<uint64_t> Distinct;
  for (const auto &Entry : Footprints)
    Distinct.insert(Entry.second);
  EXPECT_GE(Distinct.size(), 2u)
      << "the comb no longer separates any policies";
  // Movement must pay for itself: both reallocation movers beat the
  // never-move envelope on the comb, and unlimited sliding compaction
  // beats plain first-fit.
  EXPECT_LT(Footprints["realloc-bucket"], Footprints["realloc-never"]);
  EXPECT_LT(Footprints["realloc-jin"], Footprints["realloc-never"]);
  EXPECT_LE(Footprints["sliding-unlimited"], Footprints["first-fit"]);
}

// The default fuzz surface covers both families: a schedule run through
// the default harness executes against every realloc policy too, so
// `pcbound fuzz` (any family) keeps regressing the reallocation code.
TEST(CrossFamily, DefaultHarnessCoversBothFamilies) {
  DifferentialHarness Harness;
  const std::vector<std::string> &Policies = Harness.options().Policies;
  for (const std::string &Policy : reallocManagerPolicies())
    EXPECT_NE(std::find(Policies.begin(), Policies.end(), Policy),
              Policies.end())
        << Policy;
  for (const std::string &Policy : compactionFamilyPolicies())
    EXPECT_NE(std::find(Policies.begin(), Policies.end(), Policy),
              Policies.end())
        << Policy;
}

} // namespace
