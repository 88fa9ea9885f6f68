//===- adversary/SyntheticWorkloads.cpp - Non-adversarial programs -------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "adversary/SyntheticWorkloads.h"

#include "support/MathUtils.h"

#include <string>

using namespace pcb;

bool RandomChurnProgram::step(MutatorContext &Ctx) {
  if (StepsDone >= Opts.Steps)
    return false;

  // Death phase: each live object dies independently.
  std::vector<ObjectId> Kept;
  Kept.reserve(Mine.size());
  for (ObjectId Id : Mine) {
    if (!Ctx.heap().isLive(Id))
      continue;
    if (Rand.nextBool(Opts.FreeProbability)) {
      Ctx.free(Id);
      continue;
    }
    Kept.push_back(Id);
  }
  Mine = std::move(Kept);

  // Refill phase: allocate random power-of-two sizes up to the target.
  uint64_t Target = uint64_t(Opts.TargetOccupancy * double(M));
  while (Ctx.heap().stats().LiveWords < Target) {
    uint64_t Size = pow2(unsigned(Rand.nextBelow(Opts.MaxLogSize + 1)));
    if (Ctx.headroom() < Size)
      break;
    Mine.push_back(Ctx.allocate(Size));
  }

  ++StepsDone;
  return StepsDone < Opts.Steps;
}

bool MarkovPhaseProgram::step(MutatorContext &Ctx) {
  uint64_t TotalSteps = Opts.Phases * Opts.StepsPerPhase;
  if (StepsDone >= TotalSteps)
    return false;

  bool PhaseChange =
      StepsDone != 0 && StepsDone % Opts.StepsPerPhase == 0;
  if (PhaseChange) {
    // Most of the previous phase's objects die; survivors pin their
    // pages, recreating the drifting-class fragmentation pattern.
    std::vector<ObjectId> Kept;
    Kept.reserve(Mine.size());
    for (ObjectId Id : Mine) {
      if (!Ctx.heap().isLive(Id))
        continue;
      if (Rand.nextBool(1.0 - Opts.SurvivorFraction)) {
        Ctx.free(Id);
        continue;
      }
      Kept.push_back(Id);
    }
    Mine = std::move(Kept);
  }

  // The phase's preferred class wanders over [MinLogSize, MaxLogSize].
  uint64_t Phase = StepsDone / Opts.StepsPerPhase;
  unsigned Span = Opts.MaxLogSize - Opts.MinLogSize + 1;
  unsigned Preferred = Opts.MinLogSize + unsigned(Phase % Span);

  uint64_t Target = uint64_t(Opts.TargetOccupancy * double(M));
  while (Ctx.heap().stats().LiveWords < Target) {
    // 3/4 of allocations use the preferred class, the rest are uniform.
    unsigned Log = Rand.nextBool(0.75)
                       ? Preferred
                       : Opts.MinLogSize +
                             unsigned(Rand.nextBelow(Span));
    uint64_t Size = pow2(Log);
    if (Ctx.headroom() < Size)
      break;
    Mine.push_back(Ctx.allocate(Size));
  }

  ++StepsDone;
  return StepsDone < TotalSteps;
}
