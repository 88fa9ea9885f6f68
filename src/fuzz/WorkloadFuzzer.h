//===- fuzz/WorkloadFuzzer.h - Random schedule generation -------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates seeded random allocate/free schedules for differential
/// fuzzing. A schedule is an ordinal-form MallocOp vector
/// (adversary/Schedule.h), and any subset of it stays well-formed once
/// the frees of dropped allocations are dropped too and the rest are
/// renumbered. That closure property is what makes delta-debugging
/// minimization straightforward.
///
/// Patterns cover the size and lifetime distributions that historically
/// break allocators: uniform churn with arbitrary (non-power-of-two)
/// sizes, bimodal small/large mixes, LIFO and FIFO lifetimes, a
/// fragmentation-adversarial comb (free every other small object, then
/// demand large ones), and schedules recorded from the SyntheticWorkloads
/// programs (RandomChurnProgram, MarkovPhaseProgram) so the fuzzer also
/// replays realistic phased behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_FUZZ_WORKLOADFUZZER_H
#define PCBOUND_FUZZ_WORKLOADFUZZER_H

#include "adversary/Schedule.h"
#include "support/Random.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pcb {

/// A generated schedule plus the parameters it was generated under.
struct FuzzSchedule {
  uint64_t Seed = 0;
  std::string Pattern;
  /// In ordinal form.
  std::vector<MallocOp> Ops;

  size_t size() const { return Ops.size(); }

  /// A copy of the operations. The library reads Ops directly; this
  /// spelling stays because the frozen end-to-end benchmark package
  /// (perfbench/) calls it.
  std::vector<MallocOp> materialize() const { return Ops; }

  /// The sub-schedule selected by \p Keep: frees of dropped allocations
  /// are dropped too, and the kept allocations are renumbered densely.
  FuzzSchedule subset(const std::vector<bool> &Keep) const;
};

/// Seeded random schedule generator.
class WorkloadFuzzer {
public:
  enum class Pattern : uint8_t {
    Uniform,   ///< arbitrary sizes, memoryless frees
    Bimodal,   ///< many small objects, occasional huge ones
    StackLifo, ///< ramps allocated then freed newest-first
    QueueFifo, ///< sliding window freed oldest-first
    Comb,      ///< free every other small object, then demand large ones
    Churn,     ///< recorded RandomChurnProgram behaviour
    Phase,     ///< recorded MarkovPhaseProgram behaviour
    Mixed,     ///< random segments of the direct patterns above
    Trace,     ///< seeded windows of a recorded malloc trace
  };

  struct Options {
    uint64_t Seed = 1;
    /// Target schedule length (recorded patterns approximate it).
    uint64_t NumOps = 512;
    /// Cap on simultaneous live words the schedule may reach.
    uint64_t LiveBound = uint64_t(1) << 12;
    /// Largest object: 2^MaxLogSize words.
    unsigned MaxLogSize = 8;
    Pattern P = Pattern::Mixed;
    /// Pattern::Trace's source (required for it): a recorded trace in
    /// ordinal form, shared so a corpus-sized trace is not copied per
    /// iteration. Each seed selects a different
    /// contiguous window of roughly NumOps operations; subset() closure
    /// keeps every window well-formed, and windows enter ddmin shrinking
    /// like any generated schedule.
    std::shared_ptr<const std::vector<MallocOp>> TraceOps;
  };

  explicit WorkloadFuzzer(const Options &O) : Opts(O) {}

  /// Generates the schedule determined by the options (pure function of
  /// them; calling twice yields the same schedule).
  FuzzSchedule generate() const;

  /// Every self-contained pattern, in a fixed order (used by `pcbound
  /// fuzz` to cycle patterns across iterations). Excludes Pattern::Trace,
  /// which needs an external trace to draw from.
  static const std::vector<Pattern> &allPatterns();
  static std::string patternName(Pattern P);

private:
  Options Opts;
};

} // namespace pcb

#endif // PCBOUND_FUZZ_WORKLOADFUZZER_H
