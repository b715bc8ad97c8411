//===- perfbench/src/Bench.h - Shared benchmark state -----------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the run options, the in-memory span
/// recorder of the traced run, the work counters read from the library's
/// stats structs, and the result a run reports.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// opaque-synth's input family: its width and number of entries, as the
/// header of inputs/opaque_synth.tsv records them.
inline constexpr unsigned OpaqueWidth = 8;
inline constexpr unsigned OpaqueCount = 60;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string InputDir; ///< directory holding the workload input files
  uint64_t StartNs = 0; ///< steady-clock time main() was entered
  std::string TraceOut; ///< where the traced run writes its spans
};

/// Spans of the traced run, kept in memory and written out when the run
/// ends. Inert (one branch per scope) when tracing is off.
class Tracer {
public:
  struct Span {
    const char *Name;
    uint64_t StartNs, EndNs;
    int Parent; ///< index of the enclosing span, -1 at top level
    int Tag;    ///< input class of an mba.simplify span, backend of a check
    bool Setup; ///< recorded during set-up rather than a timed round
  };

  class Scope {
  public:
    Scope(Tracer *T, int Index) : T(T), Index(Index) {}
    ~Scope() {
      if (T)
        T->close(Index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int Index;
  };

  bool On = false;
  bool InSetup = true;
  std::vector<Span> Spans;

  Scope scope(const char *Name, int Tag = -1) {
    if (!On)
      return Scope(nullptr, -1);
    Spans.push_back({Name, nowNs(), 0, Current, Tag, InSetup});
    Current = (int)Spans.size() - 1;
    return Scope(this, Current);
  }

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  void close(int Index) {
    Spans[Index].EndNs = nowNs();
    Current = Spans[Index].Parent;
  }
  int Current = -1;
};

/// Work counters read from the library's stats structs and from the
/// benchmark's own rebuild of AIG queries. Summed separately over set-up
/// and over the timed rounds; reports show set-up plus one average round.
enum Counter : unsigned {
  LookupHits, LookupMisses, LinearRuns, PolyRuns, NonPolyRuns,
  ProveCalls, ProveDecided, ProveSeconds, ENodes, RuleMatches,
  Timeouts,
  AndNodes, StrashHits, CnfVars, CnfClauses,
  Conflicts, Decisions, Propagations,
  SynthCalls, SynthMatched, SynthInstalled, VerifySeconds,
  NumCounters
};

struct Counters {
  double V[NumCounters] = {};

  double &operator[](Counter C) { return V[C]; }
  double operator[](Counter C) const { return V[C]; }
  void addPerRound(const Counters &O, double Rounds) {
    for (unsigned I = 0; I != NumCounters; ++I)
      V[I] += O.V[I] / Rounds;
  }
};

/// Outcome of one run of a workload. Every round repeats the same
/// operations, so each operation's time is its fastest over the rounds:
/// other tenants of the host slow whole seconds of a run, and the fastest
/// repeat is the one they left alone (see README.md).
struct RunResult {
  bool Correct = true;
  std::vector<std::string> Errors; ///< first few check failures
  uint64_t Attempted = 0, Failed = 0;
  std::vector<double> OpMs; ///< per operation of a round, fastest repeat
  double RoundSeconds = 0;  ///< op time of the fastest round
  unsigned Rounds = 0;
  double SetupSeconds = 0;
  double OutNodes = 0; ///< DAG nodes handed to the solvers per round
  double OutAlternation = 0;
  Counters Setup, Timed;

  void fail(const std::string &Why) {
    Correct = false;
    if (Errors.size() < 8)
      Errors.push_back(Why);
  }

  /// Records operation \p K of the current round.
  void recordOp(size_t K, double Ms) {
    if (K == OpMs.size())
      OpMs.push_back(Ms);
    else
      OpMs[K] = std::min(OpMs[K], Ms);
    ThisRound += Ms / 1e3;
    ++Attempted;
  }
  void endRound() {
    RoundSeconds = Rounds == 0 ? ThisRound : std::min(RoundSeconds, ThisRound);
    ThisRound = 0;
  }

private:
  double ThisRound = 0;
};

RunResult runPaperPipeline(const Options &O, Tracer &T);
RunResult runTable6Blast(const Options &O, Tracer &T);
RunResult runOpaqueSynth(const Options &O, Tracer &T);

/// Feeds every output check a corrupted answer and confirms each one
/// fails; prints one line per check and returns the number that did not.
int runSelfTest(const Options &O);

/// Regenerates the opaque-synth input file from its recorded seed.
int emitOpaqueInputs(uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
