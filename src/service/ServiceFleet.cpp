//===- service/ServiceFleet.cpp - Multi-arena service fleet ---------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "service/ServiceFleet.h"

#include "heap/Metrics.h"
#include "runner/Runner.h"

#include <algorithm>

using namespace pcb;

ServiceFleet::ServiceFleet(const FleetOptions &Opts) : Opts(Opts) {
  Shards.reserve(Opts.NumArenas);
  for (unsigned A = 0; A != Opts.NumArenas; ++A) {
    // Round-robin striping: arena A serves global ids A + k * NumArenas,
    // i.e. NumSessions / NumArenas sessions plus one for the first
    // NumSessions % NumArenas arenas.
    uint64_t Count = Opts.NumSessions / Opts.NumArenas +
                     (A < Opts.NumSessions % Opts.NumArenas ? 1 : 0);
    ArenaShard::EventTap Tap;
    if (Opts.ArenaTap) {
      auto Fleet = Opts.ArenaTap;
      Tap = [Fleet, A](HeapEvent &E) { return Fleet(A, E); };
    }
    Shards.push_back(std::make_unique<ArenaShard>(
        A, Count, /*FirstGlobalId=*/A, /*GlobalStride=*/Opts.NumArenas,
        Opts.Shard, std::move(Tap)));
  }
}

void ServiceFleet::run() {
  // One cell per shard, drained in one call; no cells-done progress line,
  // since callers print their own wall summary.
  Runner R(RunnerOptions{Opts.Threads, /*Progress=*/0, Opts.Prof});
  R.forEachCell(Shards.size(), [this](uint64_t A) {
    Shards[size_t(A)]->runSlice(UINT64_MAX);
  });
  UsedThreads = std::min(R.threads(), std::max(1u, unsigned(Shards.size())));
  WallSecs = R.wallSeconds();
}

FleetReport ServiceFleet::report() const {
  FleetReport R;
  R.NumArenas = unsigned(Shards.size());
  R.NumSessions = Opts.NumSessions;
  R.Policy = Opts.Shard.Policy;
  R.C = Opts.Shard.C;
  R.BatchSize = Opts.Shard.BatchSize;
  R.MaxResident = Opts.Shard.MaxResident;
  R.SessionOps = Opts.Shard.Session.TargetOps;
  R.Seed = Opts.Shard.Session.FleetSeed;
  R.ArenaRowLimit = Opts.ArenaRowLimit;

  std::vector<double> Frags, Utils, Footprints;
  Frags.reserve(Shards.size());
  Utils.reserve(Shards.size());
  Footprints.reserve(Shards.size());

  for (const std::unique_ptr<ArenaShard> &SP : Shards) {
    const ArenaShard &S = *SP;
    ArenaSummary A;
    A.ArenaId = S.arenaId();
    A.Sessions = S.sessionsRetired();
    A.Flushes = S.flushes();
    A.OpsApplied = S.opsApplied();
    A.Stats = S.heap().stats();
    A.Frag = measureFragmentation(S.heap());
    A.PeakFragmentation = S.peakFragmentation();
    A.MeanUtilization = S.meanUtilization();
    const CompactionLedger &L = S.manager().ledger();
    A.BudgetAllowedWords = L.isUnlimited() ? 0 : L.budgetWords();
    A.BudgetBurn = A.BudgetAllowedWords != 0
                       ? double(A.Stats.MovedWords) /
                             double(A.BudgetAllowedWords)
                       : 0.0;
    A.NumViolations = S.violations().size();
    R.Arenas.push_back(A);

    R.TotalFootprintWords += A.Stats.HighWaterMark;
    R.TotalLiveWords += A.Stats.LiveWords;
    R.TotalAllocatedWords += A.Stats.TotalAllocatedWords;
    R.TotalMovedWords += A.Stats.MovedWords;
    R.TotalAllocations += A.Stats.NumAllocations;
    R.TotalFrees += A.Stats.NumFrees;
    R.TotalMoves += A.Stats.NumMoves;
    R.TotalSessions += A.Sessions;
    R.TotalFlushes += A.Flushes;
    R.TotalOpsApplied += A.OpsApplied;
    R.BudgetAllowedWords += A.BudgetAllowedWords;

    Frags.push_back(A.PeakFragmentation);
    Utils.push_back(A.MeanUtilization);
    Footprints.push_back(double(A.Stats.HighWaterMark));

    for (const Violation &V : S.violations())
      R.Violations.push_back(FleetViolation{S.arenaId(), V});
  }

  R.P50Fragmentation = percentileNearestRank(Frags, 0.50);
  R.P99Fragmentation = percentileNearestRank(Frags, 0.99);
  R.P99FootprintWords = uint64_t(percentileNearestRank(Footprints, 0.99));
  if (!Utils.empty()) {
    double Sum = 0.0;
    for (double U : Utils)
      Sum += U;
    R.MeanUtilization = Sum / double(Utils.size());
  }
  R.BudgetBurn = R.BudgetAllowedWords != 0
                     ? double(R.TotalMovedWords) / double(R.BudgetAllowedWords)
                     : 0.0;

  // Epoch-aligned fleet timeline: epoch k sums every arena's point at
  // min(k, last). Arenas sample on the same retired-sessions cadence, so
  // epochs line up; a shorter arena contributes its drained endpoint to
  // later epochs.
  size_t Epochs = 0;
  for (const std::unique_ptr<ArenaShard> &SP : Shards)
    Epochs = std::max(Epochs, SP->timeline().size());
  for (size_t K = 0; K != Epochs; ++K) {
    TimelinePoint P;
    for (const std::unique_ptr<ArenaShard> &SP : Shards) {
      const std::vector<TimelinePoint> &Pts = SP->timeline().points();
      if (Pts.empty())
        continue;
      const TimelinePoint &Q = Pts[std::min(K, Pts.size() - 1)];
      P.Step += Q.Step;
      P.FootprintWords += Q.FootprintWords;
      P.LiveWords += Q.LiveWords;
      P.FreeWords += Q.FreeWords;
      P.FreeBlocks += Q.FreeBlocks;
      P.LargestFreeBlock = std::max(P.LargestFreeBlock, Q.LargestFreeBlock);
      P.AllocatedWords += Q.AllocatedWords;
      P.MovedWords += Q.MovedWords;
      P.BudgetWords += Q.BudgetWords;
    }
    P.Utilization = P.FootprintWords != 0
                        ? double(P.LiveWords) / double(P.FootprintWords)
                        : 0.0;
    P.ExternalFragmentation =
        P.FreeWords != 0
            ? 1.0 - double(P.LargestFreeBlock) / double(P.FreeWords)
            : 0.0;
    R.FleetTimeline.addPoint(P);
  }

  return R;
}
