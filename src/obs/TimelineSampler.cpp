//===- obs/TimelineSampler.cpp - Strided heap-state sampling --------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "obs/TimelineSampler.h"

#include "driver/Execution.h"
#include "obs/Profiler.h"

#include <cassert>

using namespace pcb;

void TimelineSampler::attach(Execution &E) {
  assert(Opts.MaxPoints >= 2 && "point budget too small to thin");
  E.addStepObserver([this](const Execution &Ex) { sample(Ex); });
}

void TimelineSampler::sample(const Execution &E) {
  // Steps count from 1 after the first completed step.
  if ((E.stepsRun() - 1) % Stride != 0)
    return;
  record(E);
}

void TimelineSampler::finish(const Execution &E) {
  if (E.stepsRun() != LastRecordedStep)
    record(E);
}

void TimelineSampler::record(const Execution &E) {
  TimelinePoint P = pointFrom(E.stepsRun(), E.heap(), E.manager().ledger());
  TL.addPoint(P);
  LastRecordedStep = P.Step;
  Profiler::bump(Profiler::CtrTimelineSamples);

  if (TL.size() >= Opts.MaxPoints) {
    TL.thinHalf();
    Stride *= 2;
  }
}
