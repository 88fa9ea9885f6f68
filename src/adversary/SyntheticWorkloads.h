//===- adversary/SyntheticWorkloads.h - Non-adversarial programs -*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ordinary (non-adversarial) workloads. The paper's bounds are
/// worst-case; these programs provide the contrast the conclusion draws:
/// "the lower bounds ... do not rule out achieving a better behavior on a
/// suite of benchmarks". RandomChurnProgram models steady-state churn
/// with uniformly random power-of-two sizes; MarkovPhaseProgram models
/// phased behaviour where the popular size class drifts over time (the
/// classic cause of size-class fragmentation).
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_ADVERSARY_SYNTHETICWORKLOADS_H
#define PCBOUND_ADVERSARY_SYNTHETICWORKLOADS_H

#include "adversary/Program.h"
#include "support/Random.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pcb {

/// Steady-state churn: every step frees a random subset and refills up to
/// a target occupancy with random power-of-two sizes.
class RandomChurnProgram : public Program {
public:
  struct Options {
    uint64_t Steps = 64;
    /// Target live fraction of M after each step's refill.
    double TargetOccupancy = 0.9;
    /// Probability an existing object is freed in a step.
    double FreeProbability = 0.3;
    /// Largest object: 2^MaxLogSize words.
    unsigned MaxLogSize = 8;
    uint64_t Seed = 1;
  };

  RandomChurnProgram(uint64_t M, const Options &O)
      : M(M), Opts(O), Rand(O.Seed) {}

  bool step(MutatorContext &Ctx) override;
  std::string name() const override { return "random-churn"; }

private:
  uint64_t M;
  Options Opts;
  Rng Rand;
  uint64_t StepsDone = 0;
  std::vector<ObjectId> Mine;
};

/// Phased allocation: each phase prefers one size class; on a phase
/// change most old objects die, a few survive — drifting class
/// popularity that defeats naive segregated allocators.
class MarkovPhaseProgram : public Program {
public:
  struct Options {
    uint64_t Phases = 12;
    uint64_t StepsPerPhase = 8;
    double SurvivorFraction = 0.1;
    double TargetOccupancy = 0.85;
    unsigned MinLogSize = 0;
    unsigned MaxLogSize = 10;
    uint64_t Seed = 2;
  };

  MarkovPhaseProgram(uint64_t M, const Options &O)
      : M(M), Opts(O), Rand(O.Seed) {}

  bool step(MutatorContext &Ctx) override;
  std::string name() const override { return "markov-phase"; }

private:
  uint64_t M;
  Options Opts;
  Rng Rand;
  uint64_t StepsDone = 0;
  std::vector<ObjectId> Mine;
};

} // namespace pcb

#endif // PCBOUND_ADVERSARY_SYNTHETICWORKLOADS_H
