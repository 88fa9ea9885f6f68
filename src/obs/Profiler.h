//===- obs/Profiler.h - Section timers and counters -------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling half of the observability layer: named section timers
/// (ScopedTimer) and event counters aggregated into a Profiler. The hot
/// paths — Heap place/free/move, FreeSpaceIndex reserve/release, every
/// manager's compaction routine, Execution::runStep — are permanently
/// instrumented, but the instrumentation is a null sink unless a Profiler
/// is installed on the current thread (ProfilerScope): disabled, a
/// ScopedTimer is one thread_local load and a branch, no clock reads.
/// `bench_pf_sim overhead-check=1` asserts that this stays true.
///
/// Everything the instrumentation sites need is defined inline in this
/// header, so instrumented libraries (pcb_heap, pcb_mm, pcb_driver,
/// pcb_runner) do not link against pcb_obs; only report rendering lives
/// in Profiler.cpp.
///
/// Section times are inclusive: fsi.reserve nests inside heap.place,
/// which nests inside exec.step, so the report's percentages are "time
/// spent under this label", not a partition of the wall clock.
///
/// \par Thread compatibility
/// The installed-profiler pointer is thread_local, so distinct threads
/// profile independently and the library-wide thread-compatibility
/// contract (no shared mutable state between instances) is preserved. A
/// Profiler instance itself must not be written from two threads; the
/// Runner gives every worker a private Profiler and merges them.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_OBS_PROFILER_H
#define PCBOUND_OBS_PROFILER_H

#include <chrono>
#include <cstdint>
#include <iosfwd>

namespace pcb {

/// Aggregated section timings and counters for one thread of execution.
class Profiler {
public:
  /// The permanently instrumented sections.
  enum Section : unsigned {
    SecHeapPlace,   ///< Heap::place
    SecHeapFree,    ///< Heap::free
    SecHeapMove,    ///< Heap::move
    SecFreeReserve, ///< FreeSpaceIndex::reserve
    SecFreeRelease, ///< FreeSpaceIndex::release
    SecCompaction,   ///< a manager's compaction routine
    SecMeshProbe,    ///< MeshingCompactor's word-AND disjointness probes
    SecChunkTrigger, ///< ChunkedManager's per-chunk trigger processing
    SecRealloc,      ///< a reallocation manager's backfill/repack routine
    SecStep,         ///< Execution::runStep (program + manager + checks)
    SecServeFlush,   ///< ArenaShard::flush (one applied request batch)
    SecTraceRead,    ///< TraceReader::next (parse + validate one op)
    NumSections
  };

  /// Counters without a duration.
  enum Counter : unsigned {
    CtrFitProbes,         ///< boundary-class blocks probed by fit searches
    CtrCompactionPasses,  ///< compaction routine invocations
    CtrMeshProbes,        ///< chunk pairs probed for occupancy disjointness
    CtrMeshMerges,        ///< chunk pairs merged by the meshing compactor
    CtrChunkEvacuations,  ///< chunks evacuated by the chunked manager
    CtrReallocPasses,     ///< reallocation backfill/repack invocations
    CtrTimelineSamples,   ///< points recorded by a TimelineSampler
    CtrServeFlushes,      ///< request batches applied by fleet shards
    CtrServeSessions,     ///< sessions retired by fleet shards
    CtrTraceOps,          ///< malloc-trace operations streamed
    CtrControllerDenials, ///< moves denied by a budget controller's gate
    NumCounters
  };

  struct SectionStats {
    uint64_t Calls = 0;
    uint64_t Nanos = 0;
  };

  static const char *sectionName(Section S);
  static const char *counterName(Counter C);

  /// The profiler installed on the current thread, or nullptr.
  static Profiler *current() { return Current; }

  void add(Section S, uint64_t Nanos) {
    ++Sections[S].Calls;
    Sections[S].Nanos += Nanos;
  }

  /// Bumps \p C on the current thread's profiler, if one is installed.
  static void bump(Counter C, uint64_t N = 1) {
    if (Profiler *P = Current)
      P->Counters[C] += N;
  }

  const SectionStats &section(Section S) const { return Sections[S]; }
  uint64_t counter(Counter C) const { return Counters[C]; }

  /// True when nothing has been recorded.
  bool empty() const {
    for (unsigned S = 0; S != NumSections; ++S)
      if (Sections[S].Calls != 0)
        return false;
    for (unsigned C = 0; C != NumCounters; ++C)
      if (Counters[C] != 0)
        return false;
    return true;
  }

  void reset() {
    for (unsigned S = 0; S != NumSections; ++S)
      Sections[S] = SectionStats();
    for (unsigned C = 0; C != NumCounters; ++C)
      Counters[C] = 0;
  }

  /// Adds \p Other's sections and counters into this profiler (used by
  /// the Runner to fold per-worker profilers into one report).
  void merge(const Profiler &Other) {
    for (unsigned S = 0; S != NumSections; ++S) {
      Sections[S].Calls += Other.Sections[S].Calls;
      Sections[S].Nanos += Other.Sections[S].Nanos;
    }
    for (unsigned C = 0; C != NumCounters; ++C)
      Counters[C] += Other.Counters[C];
  }

  /// Renders the per-phase timing report as an aligned table: calls,
  /// total milliseconds, nanoseconds per call, and percent of \p
  /// WallSeconds (pass the enclosing run's wall clock). Sections with no
  /// calls are omitted; counters follow as comment lines.
  void printReport(std::ostream &OS, double WallSeconds) const;

  /// Renders the sections with calls as one JSON array of {section,
  /// calls, total_ms, ns_per_call} objects: the per_phase field of the
  /// benches' bench-json= baselines.
  void printPhasesJson(std::ostream &OS) const;

private:
  friend class ProfilerScope;
  static inline thread_local Profiler *Current = nullptr;

  SectionStats Sections[NumSections];
  uint64_t Counters[NumCounters] = {};
};

/// RAII installation of a profiler on the current thread. Nesting
/// restores the previously installed profiler on exit.
class ProfilerScope {
public:
  explicit ProfilerScope(Profiler &P) : Saved(Profiler::Current) {
    Profiler::Current = &P;
  }
  /// Pointer overload: null leaves the current installation untouched,
  /// so callers can profile conditionally without duplicating the scope.
  explicit ProfilerScope(Profiler *P) : Saved(Profiler::Current) {
    if (P)
      Profiler::Current = P;
  }
  ~ProfilerScope() { Profiler::Current = Saved; }
  ProfilerScope(const ProfilerScope &) = delete;
  ProfilerScope &operator=(const ProfilerScope &) = delete;

private:
  Profiler *Saved;
};

/// Times one section for the lifetime of the object. When no profiler is
/// installed this is the null-sink fast path: one thread_local load, one
/// branch, no clock read.
class ScopedTimer {
public:
  explicit ScopedTimer(Profiler::Section S) : P(Profiler::current()), Sec(S) {
    if (P)
      Start = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (!P)
      return;
    auto End = std::chrono::steady_clock::now();
    P->add(Sec, uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             End - Start)
                             .count()));
  }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  Profiler *P;
  Profiler::Section Sec;
  std::chrono::steady_clock::time_point Start;
};

} // namespace pcb

#endif // PCBOUND_OBS_PROFILER_H
