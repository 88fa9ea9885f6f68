//===- service/SessionWorkload.cpp - Lightweight mutator sessions --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "service/SessionWorkload.h"

#include "support/Random.h"

using namespace pcb;

uint64_t pcb::sessionSeed(uint64_t FleetSeed, uint64_t GlobalId) {
  return splitSeed(FleetSeed, GlobalId);
}

WorkloadFuzzer::Pattern pcb::sessionPattern(uint64_t GlobalId) {
  // Only the direct patterns: the recorded ones (Churn/Phase) replay a
  // whole synthetic program per generation, far too heavy to run once
  // per session in a million-session fleet.
  static const WorkloadFuzzer::Pattern Direct[] = {
      WorkloadFuzzer::Pattern::Uniform,   WorkloadFuzzer::Pattern::Bimodal,
      WorkloadFuzzer::Pattern::StackLifo, WorkloadFuzzer::Pattern::QueueFifo,
      WorkloadFuzzer::Pattern::Comb,
  };
  return Direct[GlobalId % (sizeof(Direct) / sizeof(Direct[0]))];
}

namespace {

/// Teardown: free every allocation the schedule left live, in
/// allocation order. Retired sessions hold no memory.
void appendTeardown(std::vector<MallocOp> &Ops) {
  // Size of each allocation while it is live, 0 once freed.
  std::vector<uint64_t> LiveSize;
  for (const MallocOp &Op : Ops) {
    if (Op.isAlloc())
      LiveSize.push_back(Op.Size);
    else
      LiveSize[size_t(Op.Id)] = 0;
  }
  for (size_t A = 0; A != LiveSize.size(); ++A)
    if (LiveSize[A] != 0)
      Ops.push_back(MallocOp::release(A, LiveSize[A]));
}

} // namespace

std::vector<MallocOp> pcb::generateSessionTrace(const SessionParams &P,
                                                uint64_t GlobalId) {
  if (P.Trace) {
    // One trace = one session class: every session replays the recorded
    // schedule (plus teardown), and differs only in where the fleet's
    // striping, batching and residency interleave it with its
    // neighbours.
    std::vector<MallocOp> Ops = *P.Trace;
    appendTeardown(Ops);
    return Ops;
  }

  WorkloadFuzzer::Options FO;
  FO.Seed = sessionSeed(P.FleetSeed, GlobalId);
  FO.NumOps = P.TargetOps == 0 ? 1 : P.TargetOps;
  FO.LiveBound = P.LiveBound;
  FO.MaxLogSize = P.MaxLogSize;
  FO.P = sessionPattern(GlobalId);
  std::vector<MallocOp> Ops = WorkloadFuzzer(FO).generate().Ops;
  appendTeardown(Ops);
  return Ops;
}
