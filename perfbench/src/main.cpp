//===- perfbench/src/main.cpp - Pipeline benchmark driver -----------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Runs one workload serially in this process and prints, as the last line
/// of standard output, one JSON object: whether every checked output was
/// right, the operations attempted and failed, and the metrics. Untraced
/// runs report the end-to-end metrics; traced runs (--trace 1) record spans
/// around each call into the library and report the per-layer metrics.
/// Normally started through run.py, which builds this binary first:
///
///   python3 perfbench/run.py --workload paper-pipeline --seed 1
///       --seconds 10 --trace 0
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

using namespace perfbench;

bool Tracer::write(const std::string &Path) const {
  // A full paper-pipeline trace holds millions of spans; the file keeps the
  // first ones (set-up and the first rounds), the metrics use them all.
  constexpr size_t MaxWritten = 200000;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "{\"traceEvents\":[\n");
  size_t N = std::min(Spans.size(), MaxWritten);
  for (size_t I = 0; I != N; ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"tag\":%d,\"setup\":%s}}%s\n",
                 S.Name, (double)(S.StartNs - Base) / 1e3,
                 (double)(S.EndNs - S.StartNs) / 1e3, I, S.Parent, S.Tag,
                 S.Setup ? "true" : "false", I + 1 == N ? "" : ",");
  }
  std::fprintf(F, "],\"otherData\":{\"spans\":%zu,\"written\":%zu}}\n",
               Spans.size(), N);
  return std::fclose(F) == 0;
}

namespace {

/// Linear-interpolated percentile of \p V (sorted in place).
double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * (double)(V.size() - 1);
  size_t Lo = (size_t)Rank;
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - (double)Lo);
}

/// The tail percentile of each workload: the highest of its usual
/// percentiles with at least ten operations beyond it in one round (see
/// README.md for the sample counts).
double tailPercentile(const std::string &Workload) {
  if (Workload == "paper-pipeline")
    return 90;
  return Workload == "table6-blast" ? 95 : 75;
}

struct Metric {
  std::string Name, Unit;
  double Value;
};

void printResult(const RunResult &R, const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false", (unsigned long long)R.Attempted,
              (unsigned long long)R.Failed);
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Peak resident set of this process or of any round it ran in a child.
double peakRssMb() {
  struct rusage Self, Children;
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  // ru_maxrss is in KiB on Linux.
  return (double)std::max(Self.ru_maxrss, Children.ru_maxrss) / 1024.0;
}

std::vector<Metric> endToEnd(const Options &O, RunResult &R) {
  std::vector<double> Ops = R.OpMs;
  double P50 = percentile(Ops, 50);
  double Tail = percentile(Ops, tailPercentile(O.Workload));
  return {{"setup_s", "s", R.SetupSeconds},
          {"ops_per_s", "1/s", (double)R.OpMs.size() / R.RoundSeconds},
          {"op_p50_ms", "ms", P50},
          {"op_tail_ms", "ms", Tail},
          {"out_nodes", "nodes", R.OutNodes},
          {"peak_rss_mb", "MB", peakRssMb()}};
}

/// Per-layer metrics: span times from the traced run plus the work
/// counters. Set-up work counts once; timed work is divided by the number
/// of rounds, so every figure reads "set-up plus one round".
std::vector<Metric> perLayer(const RunResult &R, const Tracer &T) {
  const double Rounds = std::max(1u, R.Rounds);
  std::vector<double> ChildNs(T.Spans.size(), 0);
  for (const Tracer::Span &S : T.Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += (double)(S.EndNs - S.StartNs);

  struct Agg {
    double SetupSeconds = 0, TimedSeconds = 0;
    uint64_t SetupCalls = 0, TimedCalls = 0;
    std::vector<double> Each; ///< per-call seconds
  };
  std::map<std::string, Agg> By;
  for (size_t I = 0; I != T.Spans.size(); ++I) {
    const Tracer::Span &S = T.Spans[I];
    double Dur = (double)(S.EndNs - S.StartNs) / 1e9;
    std::string Name = S.Name;
    // simplify reports self time (synth.call spans nest inside it).
    double V = Name == "mba.simplify" ? Dur - ChildNs[I] / 1e9 : Dur;
    auto Add = [&](const std::string &Key) {
      Agg &A = By[Key];
      (S.Setup ? A.SetupSeconds : A.TimedSeconds) += V;
      ++(S.Setup ? A.SetupCalls : A.TimedCalls);
      A.Each.push_back(V);
    };
    Add(Name);
    if (S.Tag >= 0)
      Add(Name + "#" + std::to_string(S.Tag));
  }
  auto Sec = [&](const std::string &K) {
    return By[K].SetupSeconds + By[K].TimedSeconds / Rounds;
  };
  auto Calls = [&](const std::string &K) {
    return (double)By[K].SetupCalls + (double)By[K].TimedCalls / Rounds;
  };
  auto Pct = [&](const std::string &K, double P, double Scale) {
    return percentile(By[K].Each, P) * Scale;
  };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };

  Counters C = R.Setup;
  C.addPerRound(R.Timed, Rounds);
  double Lookups = C[LookupHits] + C[LookupMisses];

  std::vector<Metric> M = {
      {"setup.load_s", "s", Sec("setup.load")},
      {"ast.parse_s", "s", Sec("ast.parse")},
      {"ast.parse_calls", "count", Calls("ast.parse")},
      {"mba.classify_s", "s", Sec("mba.classify")},
      {"mba.simplify_s", "s", Sec("mba.simplify")},
      {"mba.simplify_p50_us", "us", Pct("mba.simplify", 50, 1e6)},
      {"mba.simplify_p95_us", "us", Pct("mba.simplify", 95, 1e6)},
      {"mba.simplify_linear_s", "s", Sec("mba.simplify#0")},
      {"mba.simplify_poly_s", "s", Sec("mba.simplify#1")},
      {"mba.simplify_nonpoly_s", "s", Sec("mba.simplify#2")},
      {"mba.simplify_calls", "count", Calls("mba.simplify")},
      {"mba.linear_runs", "count", C[LinearRuns]},
      {"mba.poly_runs", "count", C[PolyRuns]},
      {"mba.nonpoly_runs", "count", C[NonPolyRuns]},
      {"mba.lookup_hit_ratio", "ratio", Ratio(C[LookupHits], Lookups)},
      {"mba.lookup_queries", "count", Lookups},
      {"mba.out_alternation", "count", R.OutAlternation},
      {"analysis.prove_s", "s", C[ProveSeconds]},
      {"analysis.prove_calls", "count", C[ProveCalls]},
      {"analysis.decided_ratio", "ratio", Ratio(C[ProveDecided], C[ProveCalls])},
      {"analysis.enodes", "count", C[ENodes]},
      {"analysis.rule_matches", "count", C[RuleMatches]},
      {"solvers.check_s", "s", Sec("solvers.check")},
      {"solvers.check_p50_ms", "ms", Pct("solvers.check", 50, 1e3)},
      {"solvers.check_p95_ms", "ms", Pct("solvers.check", 95, 1e3)},
  };
  for (int B = 0; B != NumBackends; ++B)
    M.push_back({std::string("solvers.") + BackendMetricNames[B] + ".check_s",
                 "s", Sec("solvers.check#" + std::to_string(B))});
  std::vector<Metric> Rest = {
      {"solvers.timeouts", "count", C[Timeouts]},
      {"aig.encode_s", "s", Sec("aig.encode")},
      {"aig.and_nodes", "count", C[AndNodes]},
      {"aig.strash_hits", "count", C[StrashHits]},
      {"aig.cnf_vars", "count", C[CnfVars]},
      {"aig.cnf_clauses", "count", C[CnfClauses]},
      {"sat.search_s", "s", Sec("sat.search")},
      {"sat.conflicts", "count", C[Conflicts]},
      {"sat.decisions", "count", C[Decisions]},
      {"sat.propagations", "count", C[Propagations]},
      {"synth.call_s", "s", Sec("synth.call")},
      {"synth.verify_s", "s", C[VerifySeconds]},
      {"synth.calls", "count", C[SynthCalls]},
      {"synth.matched", "count", C[SynthMatched]},
      {"synth.installed", "count", C[SynthInstalled]},
      // Installs include memo hits, which skip matching, so the base is
      // every synthesize() call.
      {"synth.install_ratio", "ratio",
       Ratio(C[SynthInstalled], C[SynthCalls])},
  };
  M.insert(M.end(), Rest.begin(), Rest.end());
  return M;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper-pipeline|table6-blast|opaque-synth"
               " --seed N --seconds S --trace 0|1 --input-dir DIR"
               " [--trace-out FILE]\n"
               "       %s --selftest --input-dir DIR\n"
               "       %s --emit-opaque --seed=S\n",
               Argv0, Argv0, Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.StartNs = nowNs();
  bool SelfTest = false, EmitOpaque = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Flag) -> const char * {
      size_t N = std::strlen(Flag);
      if (A.compare(0, N, Flag) != 0)
        return nullptr;
      if (A.size() > N && A[N] == '=')
        return Argv[I] + N + 1;
      if (A.size() == N && I + 1 < Argc)
        return Argv[++I];
      return nullptr;
    };
    if (A == "--selftest")
      SelfTest = true;
    else if (A == "--emit-opaque")
      EmitOpaque = true;
    else if (const char *V = Value("--workload"))
      O.Workload = V;
    else if (const char *V = Value("--seed"))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (const char *V = Value("--seconds"))
      O.Seconds = std::strtod(V, nullptr);
    else if (const char *V = Value("--trace"))
      O.Trace = std::strcmp(V, "0") != 0;
    else if (const char *V = Value("--input-dir"))
      O.InputDir = V;
    else if (const char *V = Value("--trace-out"))
      O.TraceOut = V;
    else
      return usage(Argv[0]);
  }

  try {
    if (EmitOpaque)
      return emitOpaqueInputs(O.Seed);
    if (O.InputDir.empty())
      return usage(Argv[0]);
    if (SelfTest)
      return runSelfTest(O) == 0 ? 0 : 1;

    Tracer T;
    T.On = O.Trace;
    RunResult R;
    if (O.Workload == "paper-pipeline")
      R = runPaperPipeline(O, T);
    else if (O.Workload == "table6-blast")
      R = runTable6Blast(O, T);
    else if (O.Workload == "opaque-synth")
      R = runOpaqueSynth(O, T);
    else
      return usage(Argv[0]);

    for (const std::string &E : R.Errors)
      std::fprintf(stderr, "perfbench: check failed: %s\n", E.c_str());
    std::vector<Metric> E2E = endToEnd(O, R);
    std::fprintf(stderr,
                 "perfbench: %s seed %llu trace %d: %u round(s), %llu ops, "
                 "%llu failed, fastest round %.3f s in ops",
                 O.Workload.c_str(), (unsigned long long)O.Seed, (int)O.Trace,
                 R.Rounds, (unsigned long long)R.Attempted,
                 (unsigned long long)R.Failed, R.RoundSeconds);
    for (const Metric &M : E2E)
      std::fprintf(stderr, ", %s %.6g", M.Name.c_str(), M.Value);
    std::fprintf(stderr, "\n");
    if (!O.Trace) {
      printResult(R, E2E);
      return 0;
    }
    if (!O.TraceOut.empty() && !T.write(O.TraceOut)) {
      std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                   O.TraceOut.c_str());
      return 1;
    }
    printResult(R, perLayer(R, T));
    return 0;
  } catch (const std::exception &Ex) {
    std::fprintf(stderr, "perfbench: error: %s\n", Ex.what());
    return 1;
  }
}
