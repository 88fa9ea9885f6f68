//===- bench/bench_substrate.cpp - E8: simulator micro-benchmarks --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// google-benchmark microbenchmarks of the simulation substrate itself:
// free-space index queries, heap place/free cycles, each manager policy
// under churn, and whole adversary pipelines at small scale. These guard
// the asymptotics the larger experiment benches rely on.
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "adversary/RobsonProgram.h"
#include "driver/Execution.h"
#include "heap/FreeSpaceIndex.h"
#include "mm/ManagerFactory.h"
#include "mm/SequentialFitManagers.h"
#include "runner/ExperimentGrid.h"
#include "runner/Runner.h"
#include "support/MathUtils.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <array>

using namespace pcb;

namespace {

/// Pre-fragments a free index with Holes holes of HoleSize words.
void fragment(FreeSpaceIndex &F, uint64_t Holes, uint64_t HoleSize) {
  F.reserve(0, Holes * HoleSize * 2);
  for (uint64_t K = 0; K != Holes; ++K)
    F.release(K * HoleSize * 2, HoleSize);
}

void BM_FreeIndexFirstFit(benchmark::State &State) {
  FreeSpaceIndex F;
  fragment(F, uint64_t(State.range(0)), 4);
  for (auto _ : State) {
    benchmark::DoNotOptimize(F.firstFit(4));
    benchmark::DoNotOptimize(F.firstFit(8));
  }
}
BENCHMARK(BM_FreeIndexFirstFit)->Arg(1024)->Arg(65536);

void BM_FreeIndexBestFit(benchmark::State &State) {
  FreeSpaceIndex F;
  fragment(F, uint64_t(State.range(0)), 4);
  for (auto _ : State) {
    benchmark::DoNotOptimize(F.bestFit(4));
    benchmark::DoNotOptimize(F.bestFit(8));
  }
}
BENCHMARK(BM_FreeIndexBestFit)->Arg(1024)->Arg(65536);

void BM_FreeIndexReserveRelease(benchmark::State &State) {
  FreeSpaceIndex F;
  fragment(F, 4096, 8);
  Rng R(5);
  for (auto _ : State) {
    Addr A = R.nextBelow(4096) * 16;
    F.reserve(A, 8);
    F.release(A, 8);
  }
}
BENCHMARK(BM_FreeIndexReserveRelease);

// PF's step-0 shape: one-word first-fit placements packed into a growing
// dense prefix, so every query lands in the dirty super at the allocation
// frontier behind up to 63 saturated words. The prefix is released every
// four supers (one release, amortized over 16K placements) to keep the
// walk over the supers below it short.
void BM_FreeIndexFillFrontier(benchmark::State &State) {
  constexpr uint64_t ResetWords = 4 * 4096;
  FreeSpaceIndex F;
  uint64_t Placed = 0;
  for (auto _ : State) {
    if (Placed == ResetWords) {
      F.release(0, Placed);
      Placed = 0;
    }
    // No DoNotOptimize(A): reserve() already consumes A, and under ASan
    // (gcc 12, benchmark 1.7.1) that barrier corrupted A.
    Addr A = F.firstFit(1);
    F.reserve(A, 1);
    ++Placed;
  }
}
BENCHMARK(BM_FreeIndexFillFrontier);

// --- Bitboard kernels -------------------------------------------------------
// The packed-occupancy primitives the placement queries are built from:
// span extraction (with and without the cross-word shift path), the
// popcount aggregate, and first fit over a checkerboarded board whose
// digests are all dirty (every query pays a word-level sweep).

void BM_BitmapOccupancyWords(benchmark::State &State) {
  FreeSpaceIndex F;
  fragment(F, 4096, 8);
  const Addr Start = Addr(State.range(0)); // 0 = aligned, else shifted
  std::array<uint64_t, 64> Out;
  for (auto _ : State) {
    F.occupancyWords(Start, Out.size(), Out.data());
    benchmark::DoNotOptimize(Out);
  }
}
BENCHMARK(BM_BitmapOccupancyWords)->Arg(0)->Arg(13);

void BM_BitmapFreeWordsIn(benchmark::State &State) {
  FreeSpaceIndex F;
  fragment(F, 4096, 8);
  Addr At = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(F.freeWordsIn(At, At + 1024));
    At = (At + 1024) % (4096 * 16);
  }
}
BENCHMARK(BM_BitmapFreeWordsIn);

void BM_BitmapFirstFitDirty(benchmark::State &State) {
  FreeSpaceIndex F;
  fragment(F, 4096, 8);
  // Alternately splitting and restoring one hole per iteration keeps the
  // touched super permanently dirty: the measured loop is the digest
  // re-derivation plus the in-word run scan, not a digest cache hit.
  Rng R(7);
  for (auto _ : State) {
    Addr A = R.nextBelow(4096) * 16;
    F.reserve(A + 3, 2);
    benchmark::DoNotOptimize(F.firstFit(8));
    F.release(A + 3, 2);
  }
}
BENCHMARK(BM_BitmapFirstFitDirty);

void BM_HeapPlaceFree(benchmark::State &State) {
  Heap H;
  for (auto _ : State) {
    ObjectId Id = H.place(H.freeSpace().firstFit(16), 16);
    H.free(Id);
  }
}
BENCHMARK(BM_HeapPlaceFree);

void BM_ManagerChurn(benchmark::State &State, const char *Policy) {
  Heap H;
  auto MM = createManager(Policy, H, 20.0);
  Rng R(7);
  std::vector<ObjectId> Live;
  for (auto _ : State) {
    if (Live.size() < 512 || R.nextBool(0.5)) {
      Live.push_back(MM->allocate(uint64_t(1) << R.nextBelow(6)));
    } else {
      size_t Pick = size_t(R.nextBelow(Live.size()));
      MM->free(Live[Pick]);
      Live[Pick] = Live.back();
      Live.pop_back();
    }
  }
}
BENCHMARK_CAPTURE(BM_ManagerChurn, first_fit, "first-fit");
BENCHMARK_CAPTURE(BM_ManagerChurn, best_fit, "best-fit");
BENCHMARK_CAPTURE(BM_ManagerChurn, buddy, "buddy");
BENCHMARK_CAPTURE(BM_ManagerChurn, segregated, "segregated-fit");
BENCHMARK_CAPTURE(BM_ManagerChurn, evacuating, "evacuating");
BENCHMARK_CAPTURE(BM_ManagerChurn, hybrid, "hybrid");
BENCHMARK_CAPTURE(BM_ManagerChurn, sliding, "sliding");

void BM_RobsonPipeline(benchmark::State &State) {
  const uint64_t M = pow2(unsigned(State.range(0)));
  for (auto _ : State) {
    Heap H;
    FirstFitManager MM(H, 1e18);
    RobsonProgram PR(M, unsigned(State.range(1)));
    Execution E(MM, PR, M);
    benchmark::DoNotOptimize(E.run().HeapSize);
  }
}
BENCHMARK(BM_RobsonPipeline)
    ->Args({10, 5})
    ->Args({12, 6})
    ->Unit(benchmark::kMillisecond);

void BM_CohenPetrankPipeline(benchmark::State &State) {
  const uint64_t M = pow2(unsigned(State.range(0)));
  const uint64_t N = pow2(unsigned(State.range(1)));
  for (auto _ : State) {
    Heap H;
    auto MM = createManager("evacuating", H, 50.0);
    CohenPetrankProgram PF(M, N, 50.0);
    Execution E(*MM, PF, M);
    benchmark::DoNotOptimize(E.run().HeapSize);
  }
}
BENCHMARK(BM_CohenPetrankPipeline)
    ->Args({12, 7})
    ->Args({14, 8})
    ->Unit(benchmark::kMillisecond);

/// Dispatch overhead of the experiment runner itself: a grid of cheap
/// simulation cells, at 1 worker (serial fallback) and at a small pool.
/// Guards the fan-out cost the table benches now pay per cell.
void BM_RunnerGridSweep(benchmark::State &State) {
  RunnerOptions RO;
  RO.Threads = unsigned(State.range(0));
  RO.Progress = 0;
  Runner R(RO);
  for (auto _ : State) {
    ExperimentGrid Grid;
    Grid.addRangeAxis("logm", 9, 9 + uint64_t(State.range(1)) - 1);
    std::vector<uint64_t> Sizes = R.map<uint64_t>(
        Grid, [](const GridCell &Cell) {
          const uint64_t M = pow2(unsigned(Cell.num("logm")));
          Heap H;
          FirstFitManager MM(H, 1e18);
          RobsonProgram PR(M, 4);
          Execution E(MM, PR, M);
          return E.run().HeapSize;
        });
    benchmark::DoNotOptimize(Sizes.data());
  }
}
BENCHMARK(BM_RunnerGridSweep)
    ->Args({1, 8})
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
