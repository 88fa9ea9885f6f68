//===- perfbench/main.cpp - The benchmark driver -------------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Usage: pcbbench --workload NAME --seed N --seconds S --trace 0|1
//                 --threads 1 [--size full|tiny] [--plant-abort]
//
// One process, one thread, a closed loop. Before every pass the driver
// pins itself to the least loaded CPU and times a round of set-ups (the
// last one builds the cells the pass runs). The number of passes over
// every cell is fixed by the workload and --seconds (see plannedPasses),
// never by how fast they run, so every build is measured with the same
// estimator; --seconds is otherwise only a time limit. Each cell runs in
// a forked child holding a pristine copy of its state, so a crash fails
// one cell and the rest still run. Throughput and block latency come from
// each block's least-disturbed pass (see CellBest). With --trace 1
// untraced and traced passes alternate: the untraced ones give the
// baseline for obs.tracing_overhead_frac, the traced ones the per-layer
// numbers.
//
// Prints one JSON document: per-cell outcomes and rows for every pass,
// plus the metrics of the chosen mode. perfbench/run.py checks the rows
// and formats the result; run the benchmark through it.
//
//===----------------------------------------------------------------------===//

#include "Cells.h"

#include "obs/Profiler.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pcb;
using namespace pcbbench;

namespace {

// Set-up is timed in rounds: one before the first pass, one before each
// later pass. A round repeats the set-up the workload's fixed number of
// times and keeps its fastest repetition (a set-up can take microseconds,
// well inside one burst of a neighbour's load); setup_s is the median
// over the rounds, so it samples the whole run rather than one moment of
// it.
constexpr unsigned MinPasses = 2;
/// Passes stop early only when a run overruns its --seconds this many
/// times over; the report then shows fewer passes than planned.
constexpr double OverrunFactor = 1.5;
constexpr rlim_t PinnedStack = rlim_t(8) << 20;

//===-- CPU choice ----------------------------------------------------------===//

/// A fixed slice of integer and cache-resident memory work, timed.
uint64_t calibrationNanos() {
  std::vector<uint64_t> Buf(1 << 15, 1);
  uint64_t X = 0x9e3779b97f4a7c15ULL;
  auto Start = Clock::now();
  for (unsigned I = 0; I != 1u << 20; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    Buf[(X >> 40) & (Buf.size() - 1)] += X;
  }
  uint64_t Ns = nanosSince(Start);
  asm volatile("" : : "r"(Buf.data()), "r"(X) : "memory");
  return Ns;
}

/// Pins the process, and so every cell it forks, to the CPU in \p Allowed
/// that runs the calibration slice fastest (median of five tries). On a
/// shared machine one CPU can run a third slower than the others for tens
/// of seconds at a time, and an unpinned process also loses its caches
/// whenever it migrates; the choice is made again before every pass.
/// Returns the CPU, or -1 when the affinity calls fail.
int pinToFastestCpu(const cpu_set_t &Allowed) {
  int Best = -1;
  uint64_t BestNs = UINT64_MAX;
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu) {
    if (!CPU_ISSET(Cpu, &Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    if (::sched_setaffinity(0, sizeof(One), &One) != 0)
      continue;
    std::vector<uint64_t> Tries;
    for (unsigned T = 0; T != 5; ++T)
      Tries.push_back(calibrationNanos());
    std::sort(Tries.begin(), Tries.end());
    if (Tries[2] < BestNs) {
      BestNs = Tries[2];
      Best = Cpu;
    }
  }
  cpu_set_t Pin = Allowed;
  if (Best >= 0) {
    CPU_ZERO(&Pin);
    CPU_SET(Best, &Pin);
  }
  ::sched_setaffinity(0, sizeof(Pin), &Pin);
  return Best;
}

//===-- Child -> parent transport ----------------------------------------===//

void writeAll(int Fd, const void *Data, size_t Len) {
  const char *P = static_cast<const char *>(Data);
  while (Len != 0) {
    ssize_t N = ::write(Fd, P, Len);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      _exit(4);
    P += N;
    Len -= size_t(N);
  }
}

template <typename T> void putVec(int Fd, const std::vector<T> &V) {
  uint64_t N = V.size();
  writeAll(Fd, &N, sizeof(N));
  writeAll(Fd, V.data(), N * sizeof(T));
}

void putStr(int Fd, const std::string &S) {
  putVec(Fd, std::vector<char>(S.begin(), S.end()));
}

void sendRecord(int Fd, const CellRecord &R) {
  putStr(Fd, R.Status);
  putStr(Fd, R.Detail);
  putStr(Fd, R.Row);
  writeAll(Fd, R.Stats, sizeof(R.Stats));
  writeAll(Fd, R.Self, sizeof(R.Self));
  putVec(Fd, R.Profile);
  putVec(Fd, R.BlockNs);
  putVec(Fd, R.AllocNs);
  putVec(Fd, R.FreeNs);
}

class RecordReader {
public:
  explicit RecordReader(const std::string &Buf) : Buf(Buf) {}

  bool get(void *Out, size_t Len) {
    if (Buf.size() - Pos < Len)
      return false;
    std::memcpy(Out, Buf.data() + Pos, Len);
    Pos += Len;
    return true;
  }
  template <typename T> bool getVec(std::vector<T> &V) {
    uint64_t N = 0;
    if (!get(&N, sizeof(N)) || N > (Buf.size() - Pos) / sizeof(T))
      return false;
    V.resize(size_t(N));
    return get(V.data(), size_t(N) * sizeof(T));
  }
  bool getStr(std::string &S) {
    std::vector<char> V;
    if (!getVec(V))
      return false;
    S.assign(V.begin(), V.end());
    return true;
  }
  bool record(CellRecord &R) {
    return getStr(R.Status) && getStr(R.Detail) && getStr(R.Row) &&
           get(R.Stats, sizeof(R.Stats)) && get(R.Self, sizeof(R.Self)) &&
           getVec(R.Profile) && getVec(R.BlockNs) && getVec(R.AllocNs) &&
           getVec(R.FreeNs) && Pos == Buf.size();
  }

private:
  const std::string &Buf;
  size_t Pos = 0;
};

std::string signalName(int Sig) {
  switch (Sig) {
  case SIGSEGV: return "SIGSEGV";
  case SIGABRT: return "SIGABRT";
  case SIGBUS: return "SIGBUS";
  case SIGFPE: return "SIGFPE";
  case SIGILL: return "SIGILL";
  case SIGKILL: return "SIGKILL";
  default: return "signal " + std::to_string(Sig);
  }
}

/// The calling process's resident set, in KiB.
uint64_t residentKb() {
  unsigned long long Pages = 0, Resident = 0;
  if (FILE *F = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(F, "%llu %llu", &Pages, &Resident) != 2)
      Resident = 0;
    std::fclose(F);
  }
  return uint64_t(Resident) * uint64_t(::sysconf(_SC_PAGESIZE)) / 1024;
}

/// Runs \p Cell in a forked child. Returns false (with Out.Status naming
/// the signal or exit code) when the child did not deliver a record.
bool runIsolated(CellState &Cell, bool Traced, CellRecord &Out) {
  std::fflush(nullptr);
  int Fds[2];
  if (::pipe(Fds) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  pid_t Pid = ::fork();
  if (Pid < 0)
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (Pid == 0) {
    ::close(Fds[0]);
    CellRecord R;
    uint64_t RssAtFork = residentKb();
    try {
      Cell.run(Traced, R);
    } catch (const std::exception &Ex) {
      R.Status = "exception";
      R.Detail = Ex.what();
    }
    rusage Usage{};
    ::getrusage(RUSAGE_SELF, &Usage);
    uint64_t PeakKb = uint64_t(Usage.ru_maxrss);
    R.Stats[StPeakRssKb] = PeakKb > RssAtFork ? PeakKb - RssAtFork : 0;
    sendRecord(Fds[1], R);
    ::close(Fds[1]);
    _exit(0);
  }
  ::close(Fds[1]);
  std::string Buf;
  char Chunk[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fds[0], Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Buf.append(Chunk, size_t(N));
  }
  ::close(Fds[0]);
  int WStatus = 0;
  while (::waitpid(Pid, &WStatus, 0) < 0 && errno == EINTR)
    ;
  if (WIFSIGNALED(WStatus)) {
    Out.Status = "signal";
    Out.Detail = signalName(WTERMSIG(WStatus));
    return false;
  }
  if (!WIFEXITED(WStatus) || WEXITSTATUS(WStatus) != 0) {
    Out.Status = "exit";
    Out.Detail = "exit code " + std::to_string(WEXITSTATUS(WStatus));
    return false;
  }
  if (!RecordReader(Buf).record(Out)) {
    Out = CellRecord();
    Out.Status = "exit";
    Out.Detail = "truncated record";
    return false;
  }
  return true;
}

//===-- Passes -------------------------------------------------------------===//

struct Outcome {
  std::string Status, Detail, Row;
  bool Traced = false;
  uint64_t RunNs = 0, Events = 0;
};

/// Nearest-rank percentile, in nanoseconds (0 with no samples). Reorders
/// \p V.
double percentile(std::vector<uint32_t> &V, double Q) {
  if (V.empty())
    return 0.0;
  size_t Rank = size_t(std::ceil(Q * double(V.size())));
  size_t Index = Rank == 0 ? 0 : Rank - 1;
  std::nth_element(V.begin(), V.begin() + Index, V.end());
  return double(V[Index]);
}

/// One pass over every cell, summed over the cells that succeeded.
struct Pass {
  uint64_t Stats[NumStats] = {};
  int64_t Self[NumLayers] = {};
  std::vector<uint64_t> Profile;
  double AllocP50 = 0, AllocP99 = 0, FreeP50 = 0, FreeP99 = 0; ///< ns
  uint64_t BudgetMoved = 0; ///< moved words of cells with a finite budget

  double wallSeconds() const { return double(Stats[StRunNs]) * 1e-9; }
};

/// A cell's least-disturbed untraced timings. The cells are deterministic,
/// so every pass repeats the same work block for block; on a shared
/// machine interference only adds time, and the minimum over the run's
/// fixed number of passes of each block is the steadiest estimate of the
/// time the block's work takes.
struct CellBest {
  uint64_t RunNs = UINT64_MAX; ///< UINT64_MAX until a run succeeds
  uint64_t Events = 0;
  std::vector<uint32_t> BlockNs;
  uint64_t PeakRssKb = 0;

  void add(const CellRecord &R) {
    RunNs = std::min(RunNs, R.Stats[StRunNs]);
    Events = R.Stats[StEvents];
    PeakRssKb = std::max(PeakRssKb, R.Stats[StPeakRssKb]);
    if (BlockNs.size() < R.BlockNs.size())
      BlockNs.resize(R.BlockNs.size(), UINT32_MAX);
    for (size_t K = 0; K != R.BlockNs.size(); ++K)
      BlockNs[K] = std::min(BlockNs[K], R.BlockNs[K]);
  }
  bool ran() const { return RunNs != UINT64_MAX; }
};

Pass runPass(std::vector<std::unique_ptr<CellState>> &Cells, bool Traced,
             std::vector<std::vector<Outcome>> &Outcomes,
             std::vector<CellBest> &Best) {
  Pass P;
  std::vector<uint32_t> AllocNs, FreeNs;
  for (size_t I = 0; I != Cells.size(); ++I) {
    CellRecord R;
    bool Delivered = runIsolated(*Cells[I], Traced, R);
    Outcomes[I].push_back({R.Status, R.Detail, R.Row, Traced,
                           R.Stats[StRunNs], R.Stats[StEvents]});
    if (!Delivered || R.Status != "ok")
      continue;
    if (!Traced)
      Best[I].add(R);
    for (unsigned S = 0; S != NumStats; ++S)
      P.Stats[S] = S == StHighWater ? std::max(P.Stats[S], R.Stats[S])
                                    : P.Stats[S] + R.Stats[S];
    for (unsigned L = 0; L != NumLayers; ++L)
      P.Self[L] += R.Self[L];
    if (P.Profile.size() < R.Profile.size())
      P.Profile.resize(R.Profile.size());
    for (size_t K = 0; K != R.Profile.size(); ++K)
      P.Profile[K] += R.Profile[K];
    AllocNs.insert(AllocNs.end(), R.AllocNs.begin(), R.AllocNs.end());
    FreeNs.insert(FreeNs.end(), R.FreeNs.begin(), R.FreeNs.end());
    if (R.Stats[StBudgetWords] != 0)
      P.BudgetMoved += R.Stats[StMovedWords];
  }
  P.AllocP50 = percentile(AllocNs, 0.50);
  P.AllocP99 = percentile(AllocNs, 0.99);
  P.FreeP50 = percentile(FreeNs, 0.50);
  P.FreeP99 = percentile(FreeNs, 0.99);
  return P;
}

//===-- Statistics ----------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

uint64_t section(const Pass &P, Profiler::Section S, bool Calls) {
  size_t K = 2 * size_t(S) + (Calls ? 0 : 1);
  return K < P.Profile.size() ? P.Profile[K] : 0;
}

uint64_t counter(const Pass &P, Profiler::Counter C) {
  size_t K = 2 * size_t(Profiler::NumSections) + size_t(C);
  return K < P.Profile.size() ? P.Profile[K] : 0;
}

//===-- Output --------------------------------------------------------------===//

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\') {
      Out += '\\';
      Out += Ch;
    } else if (static_cast<unsigned char>(Ch) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
      Out += Buf;
    } else {
      Out += Ch;
    }
  }
  return Out + "\"";
}

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

class Metrics {
public:
  void add(const std::string &Name, double Value, const char *Unit) {
    Items.push_back("    " + jsonStr(Name) + ": {\"value\": " +
                    jsonNum(Value) + ", \"unit\": " + jsonStr(Unit) + "}");
  }
  std::string json() const {
    std::string Out = "{\n";
    for (size_t I = 0; I != Items.size(); ++I)
      Out += Items[I] + (I + 1 != Items.size() ? ",\n" : "\n");
    return Out + "  }";
  }

private:
  std::vector<std::string> Items;
};

/// Every distinct block of every cell that ran, at its least-disturbed
/// time.
std::vector<uint32_t> bestBlocks(const std::vector<CellBest> &Best) {
  std::vector<uint32_t> All;
  for (const CellBest &B : Best)
    All.insert(All.end(), B.BlockNs.begin(), B.BlockNs.end());
  return All;
}

void endToEnd(const std::vector<CellBest> &Best,
              const std::vector<double> &SetupS, Metrics &Out) {
  uint64_t Events = 0, BlockNs = 0, PeakKb = 0;
  for (const CellBest &B : Best) {
    if (!B.ran())
      continue;
    Events += B.Events;
    for (uint32_t Ns : B.BlockNs)
      BlockNs += Ns;
    PeakKb = std::max(PeakKb, B.PeakRssKb);
  }
  std::vector<uint32_t> Blocks = bestBlocks(Best);
  Out.add("setup_s", median(SetupS), "s");
  Out.add("events_per_s",
          BlockNs ? double(Events) / (double(BlockNs) * 1e-9) : 0.0, "1/s");
  Out.add("block_p50_us", percentile(Blocks, 0.50) * 1e-3, "us");
  // The tail is read at the 99.5th percentile, which leaves about 800 or
  // more blocks beyond it on every workload. The 99th falls where pf-grid's
  // block times jump from ~18 us to ~29 us (its compaction blocks begin),
  // and there it spread three times as widely from run to run.
  Out.add("block_p995_us", percentile(Blocks, 0.995) * 1e-3, "us");
  Out.add("peak_rss_mb", double(PeakKb) / 1024.0, "MB");
}

void perLayer(const std::vector<Pass> &Untraced,
              const std::vector<Pass> &Traced,
              const std::vector<CellBest> &Best, Metrics &Out) {
  // Every per-layer number comes from one traced pass — the least
  // disturbed, as for the end-to-end numbers — so the partition below
  // adds up exactly.
  auto ByWall = [](const Pass &A, const Pass &B) {
    return A.Stats[StRunNs] < B.Stats[StRunNs];
  };
  const Pass &P = *std::min_element(Traced.begin(), Traced.end(), ByWall);
  auto Secs = [](double Ns) { return Ns * 1e-9; };
  auto Sec = [&](Profiler::Section S) {
    return Secs(double(section(P, S, /*Calls=*/false)));
  };
  auto Calls = [&](Profiler::Section S) {
    return double(section(P, S, /*Calls=*/true));
  };
  auto Ctr = [&](Profiler::Counter C) { return double(counter(P, C)); };
  auto Self = [&](Layer L) { return Secs(double(P.Self[L])); };

  double Wall = P.wallSeconds();
  Out.add("wall_traced_s", Wall, "s");
  Out.add("driver.self_s", Self(LyDriver), "s");
  Out.add("adversary.self_s", Self(LyAdversary), "s");
  Out.add("trace.read_s", Self(LyTrace), "s");
  Out.add("mm.self_s", Self(LyMm), "s");
  Out.add("heap.self_s", Self(LyHeap), "s");
  Out.add("service.self_s", Self(LyService), "s");
  Out.add("unattributed_s", Self(LyUnattributed), "s");
  Out.add("unattributed_frac",
          Wall > 0.0 ? Self(LyUnattributed) / Wall : 0.0, "frac");

  Out.add("adversary.on_moved_s", Secs(double(P.Stats[StOnMovedNs])), "s");
  Out.add("mm.alloc_calls", double(P.Stats[StAllocCalls]), "count");
  Out.add("mm.alloc_s", Secs(double(P.Stats[StAllocNs])), "s");
  Out.add("mm.alloc_p50_ns", P.AllocP50, "ns");
  Out.add("mm.alloc_p99_ns", P.AllocP99, "ns");
  Out.add("mm.free_calls", double(P.Stats[StFreeCalls]), "count");
  Out.add("mm.free_s", Secs(double(P.Stats[StFreeNs])), "s");
  Out.add("mm.free_p50_ns", P.FreeP50, "ns");
  Out.add("mm.free_p99_ns", P.FreeP99, "ns");
  Out.add("mm.fit_probes", Ctr(Profiler::CtrFitProbes), "count");
  Out.add("mm.compact_calls", Calls(Profiler::SecCompaction), "count");
  Out.add("mm.compact_s", Sec(Profiler::SecCompaction), "s");
  Out.add("mm.moved_words", double(P.Stats[StMovedWords]), "words");
  Out.add("mm.budget_used_frac",
          P.Stats[StBudgetWords] != 0
              ? double(P.BudgetMoved) / double(P.Stats[StBudgetWords])
              : 0.0,
          "frac");

  Out.add("heap.events", double(P.Stats[StEvents]), "count");
  Out.add("heap.place_s", Sec(Profiler::SecHeapPlace), "s");
  Out.add("heap.free_s", Sec(Profiler::SecHeapFree), "s");
  Out.add("heap.move_s", Sec(Profiler::SecHeapMove), "s");
  Out.add("heap.fsi_reserve_s", Sec(Profiler::SecFreeReserve), "s");
  Out.add("heap.fsi_release_s", Sec(Profiler::SecFreeRelease), "s");
  Out.add("heap.high_water_words", double(P.Stats[StHighWater]), "words");

  Out.add("realloc.s", Sec(Profiler::SecRealloc), "s");
  Out.add("realloc.passes", Ctr(Profiler::CtrReallocPasses), "count");
  Out.add("realloc.backfills", double(P.Stats[StBackfills]), "count");

  Out.add("service.flush_calls", Ctr(Profiler::CtrServeFlushes), "count");
  Out.add("service.flush_s", Sec(Profiler::SecServeFlush), "s");
  Out.add("service.ops_applied", double(P.Stats[StOpsApplied]), "count");

  Out.add("trace.read_calls", Calls(Profiler::SecTraceRead), "count");
  Out.add("trace.parse_only_s", Secs(double(P.Stats[StParseNs])), "s");
  Out.add("trace.controller_denials", Ctr(Profiler::CtrControllerDenials),
          "count");

  uint64_t CellMax = 0;
  for (const CellBest &B : Best)
    if (B.ran())
      CellMax = std::max(CellMax, B.RunNs);
  Out.add("runner.cell_max_s", Secs(double(CellMax)), "s");
  double Base = std::min_element(Untraced.begin(), Untraced.end(), ByWall)
                    ->wallSeconds();
  Out.add("obs.tracing_overhead_frac", Base > 0.0 ? Wall / Base - 1.0 : 0.0,
          "frac");
}

/// The deterministic counters every traced pass must repeat exactly.
std::vector<uint64_t> exactCounters(const Pass &P) {
  return {P.Stats[StEvents],        counter(P, Profiler::CtrFitProbes),
          P.Stats[StMovedWords],    counter(P, Profiler::CtrServeFlushes),
          counter(P, Profiler::CtrReallocPasses), P.Stats[StAllocCalls],
          P.Stats[StFreeCalls]};
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  unsigned Threads = 1;
  Size S = Size::Full;
  bool PlantAbort = false;
};

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "pcbbench: " << Why
            << "\nusage: pcbbench --workload NAME --seed N --seconds S"
               " --trace 0|1 --threads 1 [--size full|tiny]"
               " [--plant-abort]\n";
  std::exit(2);
}

uint64_t parseUInt(const std::string &Flag, const std::string &Text) {
  if (Text.empty() || Text.find_first_not_of("0123456789") != std::string::npos ||
      Text.size() > 18)
    usage("bad value '" + Text + "' for " + Flag);
  return std::stoull(Text);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--plant-abort") {
      A.PlantAbort = true;
      continue;
    }
    if (I + 1 == Argc)
      usage("missing value for " + Flag);
    std::string V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = parseUInt(Flag, V);
    else if (Flag == "--seconds")
      A.Seconds = double(parseUInt(Flag, V));
    else if (Flag == "--trace")
      A.Trace = parseUInt(Flag, V) != 0;
    else if (Flag == "--threads")
      A.Threads = unsigned(parseUInt(Flag, V));
    else if (Flag == "--size" && (V == "full" || V == "tiny"))
      A.S = V == "tiny" ? Size::Tiny : Size::Full;
    else
      usage("unknown option " + Flag + " " + V);
  }
  if (A.Workload.empty())
    usage("--workload is required");
  return A;
}

/// The fixed number of untraced passes a run makes (with --trace 1, of
/// untraced + traced pairs): enough to fill --seconds at the workload's
/// nominal pass time, at least MinPasses untraced passes; tiny runs make
/// the minimum.
unsigned plannedPasses(const WorkloadInfo &W, const Args &A) {
  if (A.S == Size::Tiny)
    return A.Trace ? 1 : MinPasses;
  // Tracing about doubles a pass, so a pair costs about three passes.
  double Seconds = A.Trace ? A.Seconds / 3.0 : A.Seconds;
  double Passes = std::round(Seconds / W.PassSeconds);
  return A.Trace ? unsigned(std::max(1.0, Passes))
                 : unsigned(std::max(double(MinPasses), Passes));
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  // The recorded configuration: one thread, and the 8 MiB main-thread
  // stack that Linux gives a process by default (the expected failure
  // of realloc-moves depends on it).
  if (A.Threads != 1)
    usage("the benchmark is recorded at --threads 1; refusing " +
          std::to_string(A.Threads));
  rlimit Stack{};
  if (::getrlimit(RLIMIT_STACK, &Stack) != 0 || Stack.rlim_cur != PinnedStack)
    usage("the stack limit must be 8 MiB (perfbench/run.py sets it)");

  // Crashing cells are expected (realloc-moves has one); leave no cores.
  rlimit NoCore{0, 0};
  ::setrlimit(RLIMIT_CORE, &NoCore);
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  bool CanPin = ::sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0;
  std::vector<int> Cpus;

  auto Info = std::find_if(
      workloads().begin(), workloads().end(),
      [&](const WorkloadInfo &W) { return W.Name == A.Workload; });
  if (Info == workloads().end())
    usage("unknown workload '" + A.Workload + "'");
  unsigned Planned = plannedPasses(*Info, A);
  std::vector<std::unique_ptr<CellState>> Cells;
  std::vector<double> SetupS;
  uint64_t Setups = 0;
  // Every round rebuilds the cells from scratch; the passes run the last
  // build, which is identical to every other.
  auto SetUpRound = [&] {
    double Fastest = INFINITY;
    for (unsigned N = 0; N != Info->SetupsPerRound; ++N) {
      Cells.clear();
      auto Start = Clock::now();
      buildWorkload(A.Workload, A.Seed, A.S, Cells);
      Fastest = std::min(Fastest, double(nanosSince(Start)) * 1e-9);
      ++Setups;
    }
    SetupS.push_back(Fastest);
    if (A.PlantAbort)
      Cells.push_back(plantedAbortCell());
  };

  std::vector<std::vector<Outcome>> Outcomes;
  std::vector<Pass> Untraced, Traced;
  std::vector<CellBest> Best;
  Clock::time_point RunStart;
  try {
    Cpus.push_back(CanPin ? pinToFastestCpu(Allowed) : -1);
    SetUpRound();
    Outcomes.resize(Cells.size());
    Best.resize(Cells.size());
    RunStart = Clock::now();
    for (unsigned P = 0; P != Planned; ++P) {
      if (P != 0) {
        if (double(nanosSince(RunStart)) * 1e-9 > OverrunFactor * A.Seconds)
          break;
        Cpus.push_back(CanPin ? pinToFastestCpu(Allowed) : -1);
        SetUpRound();
      }
      Untraced.push_back(runPass(Cells, /*Traced=*/false, Outcomes, Best));
      if (A.Trace)
        Traced.push_back(runPass(Cells, /*Traced=*/true, Outcomes, Best));
    }
  } catch (const std::exception &Ex) {
    std::cerr << "pcbbench: " << Ex.what() << "\n";
    return 1;
  }

  Metrics M;
  if (A.Trace)
    perLayer(Untraced, Traced, Best, M);
  else
    endToEnd(Best, SetupS, M);
  bool CountersStable = true;
  for (const Pass &P : Traced)
    CountersStable &= exactCounters(P) == exactCounters(Traced.front());

  std::ostringstream OS;
  OS << "{\n  \"workload\": " << jsonStr(A.Workload)
     << ",\n  \"seed\": " << A.Seed
     << ",\n  \"size\": " << jsonStr(A.S == Size::Tiny ? "tiny" : "full")
     << ",\n  \"build_type\": " << jsonStr(PCBBENCH_BUILD_TYPE)
     << ",\n  \"threads\": " << A.Threads
     << ",\n  \"cpus\": [";
  for (size_t I = 0; I != Cpus.size(); ++I)
    OS << (I ? ", " : "") << Cpus[I];
  OS << "]"
     << ",\n  \"planned_passes\": " << Planned
     << ",\n  \"passes\": " << Untraced.size()
     << ",\n  \"traced_passes\": " << Traced.size()
     << ",\n  \"block_samples\": " << bestBlocks(Best).size()
     << ",\n  \"setups\": " << Setups
     << ",\n  \"exact_counters_stable\": "
     << (CountersStable ? "true" : "false") << ",\n  \"cells\": [\n";
  for (size_t I = 0; I != Cells.size(); ++I) {
    OS << "    {\"name\": " << jsonStr(Cells[I]->Name) << ", \"seed_free\": "
       << (Cells[I]->SeedFree ? "true" : "false") << ", \"runs\": [";
    for (size_t K = 0; K != Outcomes[I].size(); ++K) {
      const Outcome &O = Outcomes[I][K];
      OS << (K ? ", " : "") << "{\"status\": " << jsonStr(O.Status)
         << ", \"detail\": " << jsonStr(O.Detail)
         << ", \"row\": " << jsonStr(O.Row)
         << ", \"traced\": " << (O.Traced ? "true" : "false")
         << ", \"seconds\": " << jsonNum(double(O.RunNs) * 1e-9)
         << ", \"events\": " << O.Events << "}";
    }
    OS << "]}" << (I + 1 != Cells.size() ? ",\n" : "\n");
  }
  OS << "  ],\n  \"metrics\": " << M.json() << "\n}\n";
  std::cout << OS.str();
  return 0;
}
