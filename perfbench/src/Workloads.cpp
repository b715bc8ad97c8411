//===- perfbench/src/Workloads.cpp - The three benchmark workloads --------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// One operation is one equivalence query, including the simplification of
/// its two sides where the workload simplifies. Every round runs the same
/// operations on fresh library state (Context, MBASolver, checkers), so
/// rounds repeat the same work and a run's failed share never depends on
/// how many rounds fit in its time. opaque-synth repeats its round in child
/// processes (the synthesizer's memo outlives its state). Output checks run
/// outside the timed operations and use only the reference evaluator (RefEval.h),
/// verdicts known by construction, and agreement between backends.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "RefEval.h"

#include "aig/Aig.h"
#include "aig/AigBlaster.h"
#include "aig/ExprAig.h"
#include "ast/Context.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "mba/Classify.h"
#include "mba/Metrics.h"
#include "mba/Simplifier.h"
#include "sat/Solver.h"
#include "solvers/EquivalenceChecker.h"
#include "synth/Synthesizer.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace perfbench {

using namespace mba;

namespace {

constexpr unsigned PaperWidth = 64;
constexpr const char *PaperCorpusFile = "paper_corpus.tsv";
constexpr const char *OpaqueFile = "opaque_synth.tsv";

/// paper-pipeline queries every identity, and the mutant of every
/// MutantEvery-th. With one mutant query per identity, the cheap identity
/// queries and the dear mutant queries split the operations in half and
/// the median fell in the gap between the two (see README.md).
constexpr unsigned MutantEvery = 4;
/// The mutants' wrong constants depend on the identity alone: the CDCL
/// search a mutant costs swings with the constant (measured: one round's
/// SAT conflicts 2222 with one set of constants, 4697 with another).
constexpr uint64_t MutantSeed = 20210620;
/// opaque-synth runs the first OpaqueFixed entries (the table_synth
/// reference set) and every later entry but the excluded ones.
constexpr unsigned OpaqueFixed = 12;
/// Entries (1-based) left out: processing each of them meets at least
/// one 5 s synth verification timeout, so they fail, or pass only after
/// 5-20 s, depending on the machine. The kept failing entry 9 shows the
/// same fault (see README.md).
constexpr unsigned OpaqueExcluded[] = {18, 30, 33, 39, 45, 48, 60};

/// Per-query budgets. paper-pipeline and opaque-synth use the budgets
/// `mba_cli explain` and bench/table_synth are run with; table6-blast
/// uses the paper's Table 6 budget.
constexpr double PaperBudget = 5.0;
constexpr double Table6Budget = 1.0;
constexpr double OpaqueBudget = 0.5;

/// Random points per reference comparison, on top of all corners.
constexpr unsigned RefPoints = 24;

struct Identity {
  std::string Category;
  std::string GroundText, ObfText;
  RefExpr Ground, Obf;
};

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read input file '" + Path + "'");
  std::vector<std::string> Lines;
  for (std::string L; std::getline(In, L);)
    if (!L.empty() && L[0] != '#')
      Lines.push_back(L);
  return Lines;
}

RefExpr refOrThrow(const std::string &Text, const std::string &Where) {
  RefExpr E;
  std::string Err;
  if (!refParse(Text, E, Err))
    throw std::runtime_error(Where + ": " + Err);
  return E;
}

/// Reads `category<TAB>ground<TAB>obfuscated` lines (corpus_tool format)
/// or `ground<TAB>target` lines (opaque-synth format, category "opaque").
std::vector<Identity> loadIdentities(const Options &O, const char *File,
                                     Tracer &T) {
  auto Span = T.scope("setup.load");
  std::string Path = O.InputDir + "/" + File;
  std::vector<Identity> Out;
  for (const std::string &Line : readLines(Path)) {
    std::vector<std::string> F;
    for (size_t Start = 0;;) {
      size_t Tab = Line.find('\t', Start);
      F.push_back(Line.substr(Start, Tab - Start));
      if (Tab == std::string::npos)
        break;
      Start = Tab + 1;
    }
    if (F.size() == 2)
      F.insert(F.begin(), "opaque");
    if (F.size() != 3)
      throw std::runtime_error(Path + ": malformed line '" + Line + "'");
    std::string Where = Path + " line " + std::to_string(Out.size() + 1);
    Out.push_back({F[0], F[1], F[2], refOrThrow(F[1], Where),
                   refOrThrow(F[2], Where)});
  }
  if (Out.empty())
    throw std::runtime_error(Path + ": no identities");
  return Out;
}

template <typename V> void shuffle(V &Items, Rng &R) {
  for (size_t I = Items.size(); I > 1; --I)
    std::swap(Items[I - 1], Items[R.below(I)]);
}

/// The obfuscated side of \p Id plus a constant: wrong at every point, yet
/// stage 0 cannot refute it, so the query reaches AIG/SAT.
std::string mutantText(const Identity &Id, Rng &R) {
  return "(" + Id.ObfText + ")+" + std::to_string(1 + R.below(99));
}

/// Runs the library's one-time lazy set-up (the prover's rule table, the
/// synthesizer's term banks and basis table) so no timed operation pays
/// it. The synthesizer memoizes x*x process-wide; no workload input has
/// that meaning.
void warmUp(unsigned Width, bool WithSynth) {
  Context Ctx(Width);
  MBASolver Solver(Ctx);
  const Expr *E = Solver.simplify(parseOrDie(Ctx, "(x&~y)+y"));
  makeStagedChecker(Ctx, makeAigChecker(true))
      ->check(Ctx, E, parseOrDie(Ctx, "x|y"), 1.0);
  if (WithSynth)
    synth::Synthesizer(Ctx).synthesize(parseOrDie(Ctx, "x*x"));
}

double setupDone(const Options &O, Tracer &T) {
  T.InSetup = false;
  return (double)(nowNs() - O.StartNs) / 1e9;
}

/// Checks, outside set-up time, that every input line is an identity.
void checkInputs(const std::vector<Identity> &Ids,
                 const std::vector<size_t> &Used, unsigned Width,
                 uint64_t Seed, RunResult &R) {
  for (size_t I : Used) {
    std::string E = checkInputIdentity(Ids[I].Obf, Ids[I].Ground, Width,
                                       RefPoints, Seed + I);
    if (!E.empty())
      R.fail("input " + std::to_string(I + 1) + ": " + E);
  }
}

const Expr *parseTimed(Context &Ctx, const std::string &Text, Tracer &T) {
  auto Span = T.scope("ast.parse");
  ParseResult P = parseExpr(Ctx, Text);
  if (!P.ok())
    throw std::runtime_error("library parser rejected '" + Text +
                             "': " + P.Error);
  return P.E;
}

const Expr *simplifyTimed(Context &Ctx, MBASolver &S, const Expr *E,
                          Tracer &T) {
  MBAKind K;
  {
    auto Span = T.scope("mba.classify");
    K = classifyMBA(Ctx, E);
  }
  auto Span = T.scope("mba.simplify", (int)K);
  return S.simplify(E);
}

void addSimplifyStats(Counters &C, const SimplifyStats &S) {
  C[LookupHits] += (double)S.CacheHits;
  C[LookupMisses] += (double)S.CacheMisses;
  C[LinearRuns] += S.LinearRuns;
  C[PolyRuns] += S.PolyRuns;
  C[NonPolyRuns] += S.NonPolyRuns;
}

void addStageZeroStats(Counters &C, const StageZeroStats &Z) {
  C[ProveCalls] += (double)Z.queries();
  C[ProveDecided] += (double)Z.discharged();
  C[ProveSeconds] += Z.StaticSeconds;
  C[ENodes] += (double)Z.Saturation.ENodes;
  C[RuleMatches] += (double)Z.Saturation.Matches;
}

/// The point a rebuilt query's SAT model (or, when the AIG folds the
/// disequality to true, any point) assigns to the variables of A and B.
/// Input bits outside the root's cone were never encoded and read as 0.
Witness modelPoint(const Context &Ctx, const Expr *A, const Expr *B,
                   const aig::Aig &G, aig::AigLit Root,
                   aig::ExprAig &Translator, aig::CnfEmitter &Emitter,
                   const sat::SatSolver &Solver, bool HasModel) {
  std::vector<bool> InCone(G.numNodes(), false);
  for (std::vector<uint32_t> Work = {Root.node()}; HasModel && !Work.empty();) {
    uint32_t N = Work.back();
    Work.pop_back();
    if (InCone[N])
      continue;
    InCone[N] = true;
    if (G.isAnd(N)) {
      Work.push_back(G.fanin0(N).node());
      Work.push_back(G.fanin1(N).node());
    }
  }
  Witness At;
  std::vector<const Expr *> Vars = collectVariables(A);
  for (const Expr *V : collectVariables(B))
    if (std::find(Vars.begin(), Vars.end(), V) == Vars.end())
      Vars.push_back(V);
  for (const Expr *V : Vars) {
    uint64_t Value = 0;
    const aig::AigBlaster::Word &Bits = Translator.inputWord(V);
    for (unsigned I = 0; I != Ctx.width(); ++I) {
      if (!InCone[Bits[I].node()])
        continue;
      // Already encoded, so emit() only looks its literal up.
      sat::Lit L = Emitter.emit(Bits[I]);
      if (Solver.modelValue(L.var()) != L.negated())
        Value |= uint64_t(1) << I;
    }
    At.push_back({V->varName(), Value});
  }
  return At;
}

/// Decides A == B a second time from the aig and sat APIs, on a fresh
/// graph and solver, so encode and search are timed apart. Traced runs
/// only; the caller compares the verdict with the backend's. On
/// NotEquivalent, \p Model receives the point the solver found.
Verdict rebuildAigQuery(const Context &Ctx, const Expr *A, const Expr *B,
                        double Budget, Counters &C, Tracer &T,
                        Witness *Model = nullptr) {
  auto Span = T.scope("rebuild");
  aig::Aig G;
  aig::AigBlaster Blaster(G, Ctx.width());
  aig::ExprAig Translator(Blaster);
  sat::SatSolver Solver;
  aig::CnfEmitter Emitter(G, Solver);
  aig::AigLit Root;
  {
    auto Enc = T.scope("aig.encode");
    Root = Blaster.disequalLit(Translator.blast(A), Translator.blast(B));
    if (Root != aig::Aig::falseLit() && Root != aig::Aig::trueLit())
      Solver.addClause({Emitter.emit(Root)});
  }
  C[AndNodes] += (double)G.stats().AndNodes;
  C[StrashHits] += (double)G.stats().StrashHits;
  if (Root == aig::Aig::falseLit())
    return Verdict::Equivalent;
  if (Root == aig::Aig::trueLit()) {
    if (Model)
      *Model = modelPoint(Ctx, A, B, G, Root, Translator, Emitter, Solver,
                          false);
    return Verdict::NotEquivalent;
  }
  C[CnfVars] += Solver.numVars();
  C[CnfClauses] += (double)Solver.stats().ClausesAdded;
  sat::Budget Limits;
  Limits.MaxSeconds = Budget;
  sat::SatResult SR;
  {
    auto Search = T.scope("sat.search");
    SR = Solver.solve(Limits);
  }
  C[Conflicts] += (double)Solver.stats().Conflicts;
  C[Decisions] += (double)Solver.stats().Decisions;
  C[Propagations] += (double)Solver.stats().Propagations;
  if (SR == sat::SatResult::Sat && Model)
    *Model =
        modelPoint(Ctx, A, B, G, Root, Translator, Emitter, Solver, true);
  return SR == sat::SatResult::Unsat ? Verdict::Equivalent
         : SR == sat::SatResult::Sat ? Verdict::NotEquivalent
                                     : Verdict::Timeout;
}

void compareRebuilt(Verdict Backend, Verdict Rebuilt, RunResult &R,
                    const std::string &What) {
  std::string E = checkRebuiltVerdict(Backend, Rebuilt);
  if (!E.empty())
    R.fail(What + ": " + E);
}

/// Checks a simplified output against the expression it must equal.
void checkSimplified(const Context &Ctx, const Expr *Out, const RefExpr &Truth,
                     uint64_t Seed, RunResult &R, const std::string &What) {
  std::string E = checkOutput(printExpr(Ctx, Out), Truth, Ctx.width(),
                              RefPoints, Seed);
  if (!E.empty())
    R.fail(What + ": " + E);
}

struct OutputTotals {
  double Nodes = 0, Alternation = 0;
  void add(const Expr *E) {
    Nodes += (double)countDagNodes(E);
    Alternation += (double)mbaAlternation(E);
  }
};

bool keepGoing(const Options &O, uint64_t StartNs, unsigned Rounds) {
  return Rounds == 0 || (double)(nowNs() - StartNs) / 1e9 < O.Seconds;
}

std::unique_ptr<EquivalenceChecker>
takeChecker(std::vector<std::unique_ptr<EquivalenceChecker>> &All,
            const std::string &Name) {
  for (auto &C : All)
    if (C && C->name() == Name)
      return std::move(C);
  throw std::runtime_error("makeAllCheckers() has no backend '" + Name + "'");
}

} // namespace

//===----------------------------------------------------------------------===//
// paper-pipeline
//===----------------------------------------------------------------------===//

RunResult runPaperPipeline(const Options &O, Tracer &T) {
  RunResult R;
  std::vector<Identity> Ids = loadIdentities(O, PaperCorpusFile, T);
  // The queries, in file order: every identity, each MutantEvery-th one
  // followed by its mutant. The seed picks only the check points: query
  // costs spread over two orders of magnitude, and seeded mutant sets or
  // constants moved ops_per_s by more than its bound (see README.md).
  struct Mutant {
    std::string Text;
    RefExpr Ref;
  };
  std::vector<Mutant> Mutants(Ids.size());
  std::vector<size_t> All;
  std::vector<std::pair<size_t, bool>> Queries;
  for (size_t I = 0; I != Ids.size(); ++I) {
    All.push_back(I);
    Queries.push_back({I, false});
    if (I % MutantEvery != 0)
      continue;
    Queries.push_back({I, true});
    Rng MR(MutantSeed * 0x100000001B3ULL + I);
    std::string Text = mutantText(Ids[I], MR);
    std::string What = "mutant of identity " + std::to_string(I + 1);
    RefExpr M = refOrThrow(Text, What);
    if (refCompare(M, Ids[I].Ground, PaperWidth, RefPoints, I).Equal)
      throw std::runtime_error(What + " equals its ground truth");
    Mutants[I] = {std::move(Text), std::move(M)};
  }
  warmUp(PaperWidth, false);
  R.SetupSeconds = setupDone(O, T);
  checkInputs(Ids, All, PaperWidth, O.Seed, R);

  for (uint64_t Start = nowNs(); keepGoing(O, Start, R.Rounds); ++R.Rounds) {
    Context Ctx(PaperWidth);
    MBASolver Solver(Ctx);
    StageZeroStats Stage0;
    auto Checker = makeStagedChecker(Ctx, makeAigChecker(true), &Stage0);
    OutputTotals Totals;
    for (size_t K = 0; K != Queries.size(); ++K) {
      auto [I, IsMutant] = Queries[K];
      const std::string &LhsText = IsMutant ? Mutants[I].Text : Ids[I].ObfText;
      size_t FallBefore = Stage0.Fallthrough;
      uint64_t T0 = nowNs();
      const Expr *SL, *SR;
      CheckResult CR;
      {
        auto Span = T.scope("op");
        const Expr *L = parseTimed(Ctx, LhsText, T);
        const Expr *Rh = parseTimed(Ctx, Ids[I].GroundText, T);
        SL = simplifyTimed(Ctx, Solver, L, T);
        SR = simplifyTimed(Ctx, Solver, Rh, T);
        auto Check = T.scope("solvers.check", BackendAig);
        CR = Checker->check(Ctx, SL, SR, PaperBudget);
      }
      R.recordOp(K, (double)(nowNs() - T0) / 1e6);
      if (R.Rounds == 0) {
        Totals.add(SL);
        Totals.add(SR);
      }
      std::string What = (IsMutant ? "mutant of identity " : "identity ") +
                         std::to_string(I + 1);
      if (CR.Outcome == Verdict::Timeout) {
        ++R.Failed;
        R.Timed[Timeouts] += 1;
      } else if (std::string E = IsMutant ? checkMutantVerdict(CR.Outcome)
                                          : checkIdentityVerdict(CR.Outcome);
                 !E.empty()) {
        R.fail(What + ": " + E);
      }
      uint64_t CheckSeed = O.Seed ^ (I * 2 + IsMutant);
      checkSimplified(Ctx, SL, IsMutant ? Mutants[I].Ref : Ids[I].Obf,
                      CheckSeed, R, What + " lhs");
      checkSimplified(Ctx, SR, Ids[I].Ground, CheckSeed, R, What + " rhs");
      if (T.On && Stage0.Fallthrough != FallBefore) {
        Witness Model;
        Verdict Rebuilt =
            rebuildAigQuery(Ctx, SL, SR, PaperBudget, R.Timed, T, &Model);
        compareRebuilt(CR.Outcome, Rebuilt, R, What);
        if (IsMutant && Rebuilt == Verdict::NotEquivalent)
          if (std::string E = checkMutantModel(Mutants[I].Ref, Ids[I].Ground,
                                               PaperWidth, Model);
              !E.empty())
            R.fail(What + ": " + E);
      }
    }
    R.endRound();
    addSimplifyStats(R.Timed, Solver.stats());
    addStageZeroStats(R.Timed, Stage0);
    if (R.Rounds == 0) {
      R.OutNodes = Totals.Nodes;
      R.OutAlternation = Totals.Alternation;
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// table6-blast
//===----------------------------------------------------------------------===//

RunResult runTable6Blast(const Options &O, Tracer &T) {
  RunResult R;
  std::vector<Identity> Ids = loadIdentities(O, PaperCorpusFile, T);
  // Every identity, in a seeded order (the order BlastBV+AIG's shared graph
  // sees them in). A seeded draw of 40 of the 50 per category moved
  // ops_per_s over 64-101 across ten seeds.
  std::vector<size_t> Order(Ids.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  Rng Draw(O.Seed);
  shuffle(Order, Draw);

  // The paper's preprocessing, done once: Table 6 feeds simplified
  // identities to the solvers, so simplification is set-up here.
  Context Ctx(PaperWidth);
  MBASolver Solver(Ctx);
  std::vector<std::pair<const Expr *, const Expr *>> Simplified(Ids.size());
  for (size_t I : Order) {
    const Expr *L = parseTimed(Ctx, Ids[I].ObfText, T);
    const Expr *Rh = parseTimed(Ctx, Ids[I].GroundText, T);
    Simplified[I] = {simplifyTimed(Ctx, Solver, L, T),
                     simplifyTimed(Ctx, Solver, Rh, T)};
  }
  R.SetupSeconds = setupDone(O, T);
  addSimplifyStats(R.Setup, Solver.stats());
  checkInputs(Ids, Order, PaperWidth, O.Seed, R);
  OutputTotals Totals;
  for (size_t I : Order) {
    auto [SL, SR] = Simplified[I];
    Totals.add(SL);
    Totals.add(SR);
    checkSimplified(Ctx, SL, Ids[I].Obf, O.Seed ^ I, R,
                    "identity " + std::to_string(I + 1) + " lhs");
    checkSimplified(Ctx, SR, Ids[I].Ground, O.Seed ^ I, R,
                    "identity " + std::to_string(I + 1) + " rhs");
  }
  R.OutNodes = Totals.Nodes;
  R.OutAlternation = Totals.Alternation;

  for (uint64_t Start = nowNs(); keepGoing(O, Start, R.Rounds); ++R.Rounds) {
    // Fresh backends every round: BlastBV+AIG keeps its graph and learnt
    // clauses across queries, so reusing it would make later rounds
    // cheaper than the first.
    auto All = makeAllCheckers(/*IncrementalAig=*/true);
    std::unique_ptr<EquivalenceChecker> Backends[NumBackends];
    for (int B = 0; B != NumBackends; ++B)
      Backends[B] = takeChecker(All, BackendNames[B]);
    size_t K = 0;
    for (size_t I : Order) {
      auto [SL, SR] = Simplified[I];
      Verdict Got[NumBackends];
      for (int B = 0; B != NumBackends; ++B) {
        uint64_t T0 = nowNs();
        CheckResult CR;
        {
          auto Span = T.scope("op");
          auto Check = T.scope("solvers.check", B);
          CR = Backends[B]->check(Ctx, SL, SR, Table6Budget);
        }
        R.recordOp(K++, (double)(nowNs() - T0) / 1e6);
        Got[B] = CR.Outcome;
        std::string What = std::string(BackendNames[B]) + " on identity " +
                           std::to_string(I + 1);
        if (CR.Outcome == Verdict::Timeout) {
          ++R.Failed;
          R.Timed[Timeouts] += 1;
        } else if (std::string E = checkIdentityVerdict(CR.Outcome);
                   !E.empty()) {
          R.fail(What + ": " + E);
        }
        if (T.On && B == BackendAig)
          compareRebuilt(CR.Outcome,
                         rebuildAigQuery(Ctx, SL, SR, Table6Budget, R.Timed,
                                         T),
                         R, What);
      }
      if (std::string E = checkAgreement(Got); !E.empty())
        R.fail("identity " + std::to_string(I + 1) + ": " + E);
    }
    R.endRound();
  }
  return R;
}

//===----------------------------------------------------------------------===//
// opaque-synth
//===----------------------------------------------------------------------===//

namespace {

/// One opaque-synth round on fresh library state, added to \p R.
void opaqueRound(const Options &O, Tracer &T, const std::vector<Identity> &Ids,
                 const std::vector<size_t> &Order, RunResult &R) {
  Context Ctx(OpaqueWidth);
  synth::Synthesizer Synth(Ctx);
  SimplifyOptions SO;
  auto Hook = Synth.fallbackHook();
  SO.SynthFallback = [&T, Hook](Context &C, const Expr *E) {
    auto Span = T.scope("synth.call");
    return Hook(C, E);
  };
  MBASolver Solver(Ctx, SO);
  StageZeroStats Stage0;
  auto Checker = makeStagedChecker(Ctx, makeAigChecker(true), &Stage0);
  std::vector<std::pair<const Expr *, const Expr *>> Parsed;
  for (size_t I : Order)
    Parsed.push_back({parseTimed(Ctx, Ids[I].ObfText, T),
                      parseTimed(Ctx, Ids[I].GroundText, T)});
  OutputTotals Totals;
  for (size_t K = 0; K != Order.size(); ++K) {
    size_t I = Order[K];
    size_t FallBefore = Stage0.Fallthrough;
    uint64_t T0 = nowNs();
    const Expr *SL, *SR;
    CheckResult CR;
    {
      auto Span = T.scope("op");
      SL = simplifyTimed(Ctx, Solver, Parsed[K].first, T);
      SR = simplifyTimed(Ctx, Solver, Parsed[K].second, T);
      auto Check = T.scope("solvers.check", BackendAig);
      CR = Checker->check(Ctx, SL, SR, OpaqueBudget);
    }
    double Ms = (double)(nowNs() - T0) / 1e6;
    R.recordOp(K, Ms);
    Totals.add(SL);
    Totals.add(SR);
    std::string What = "entry " + std::to_string(I + 1);
    if (CR.Outcome == Verdict::Timeout) {
      ++R.Failed;
      R.Timed[Timeouts] += 1;
      std::fprintf(stderr, "perfbench: %s timed out (%.3f s)\n",
                   What.c_str(), Ms / 1e3);
    } else if (std::string E = checkIdentityVerdict(CR.Outcome);
               !E.empty()) {
      R.fail(What + ": " + E);
    }
    checkSimplified(Ctx, SL, Ids[I].Ground, O.Seed ^ I, R, What + " target");
    checkSimplified(Ctx, SR, Ids[I].Ground, O.Seed ^ I, R, What + " ground");
    if (T.On && Stage0.Fallthrough != FallBefore)
      compareRebuilt(CR.Outcome,
                     rebuildAigQuery(Ctx, SL, SR, OpaqueBudget, R.Timed, T),
                     R, What);
  }
  addSimplifyStats(R.Timed, Solver.stats());
  addStageZeroStats(R.Timed, Stage0);
  const synth::SynthStats &SS = Synth.stats();
  R.Timed[SynthCalls] += (double)SS.Queries;
  R.Timed[SynthMatched] += (double)SS.Matched;
  R.Timed[SynthInstalled] += (double)SS.Installed;
  R.Timed[VerifySeconds] += SS.VerifySeconds;
  R.OutNodes = Totals.Nodes;
  R.OutAlternation = Totals.Alternation;
}

/// Runs opaqueRound in a child process and merges its outcome into \p R:
/// the synthesizer's recipe memo is process-wide and cannot be cleared, so
/// only a fresh process repeats the first round's work.
void forkedOpaqueRound(const Options &O, const std::vector<Identity> &Ids,
                       const std::vector<size_t> &Order, RunResult &R) {
  int Fd[2];
  if (pipe(Fd) != 0)
    throw std::runtime_error("pipe() failed");
  std::fflush(nullptr);
  pid_t Child = fork();
  if (Child < 0)
    throw std::runtime_error("fork() failed");
  if (Child == 0) {
    close(Fd[0]);
    std::FILE *Out = fdopen(Fd[1], "w");
    int Status = 1;
    if (Out) {
      try {
        Tracer Off;
        RunResult Sub;
        opaqueRound(O, Off, Ids, Order, Sub);
        for (double Ms : Sub.OpMs)
          std::fprintf(Out, "op %.17g\n", Ms);
        std::fprintf(Out, "failed %llu\nout %.17g %.17g\n",
                     (unsigned long long)Sub.Failed, Sub.OutNodes,
                     Sub.OutAlternation);
        for (const std::string &E : Sub.Errors)
          std::fprintf(Out, "error %s\n", E.c_str());
        Status = std::fclose(Out) == 0 ? 0 : 1;
      } catch (const std::exception &Ex) {
        std::fprintf(stderr, "perfbench: error: %s\n", Ex.what());
      }
    }
    _exit(Status);
  }
  close(Fd[1]);
  std::FILE *In = fdopen(Fd[0], "r");
  size_t K = 0;
  bool Done = false;
  char Line[4096];
  while (In && std::fgets(Line, sizeof Line, In)) {
    std::string L(Line);
    if (!L.empty() && L.back() == '\n')
      L.pop_back();
    if (L.rfind("op ", 0) == 0) {
      R.recordOp(K++, std::strtod(L.c_str() + 3, nullptr));
    } else if (L.rfind("failed ", 0) == 0) {
      R.Failed += std::strtoull(L.c_str() + 7, nullptr, 10);
    } else if (L.rfind("out ", 0) == 0) {
      char *End;
      R.OutNodes = std::strtod(L.c_str() + 4, &End);
      R.OutAlternation = std::strtod(End, nullptr);
      Done = true;
    } else if (L.rfind("error ", 0) == 0) {
      R.fail(L.substr(6));
    }
  }
  if (In)
    std::fclose(In);
  else
    close(Fd[0]);
  int Status = 0;
  if (waitpid(Child, &Status, 0) != Child || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0 || !Done || K != Order.size())
    throw std::runtime_error("opaque-synth round process failed");
  R.endRound();
}

} // namespace

RunResult runOpaqueSynth(const Options &O, Tracer &T) {
  RunResult R;
  std::vector<Identity> Ids = loadIdentities(O, OpaqueFile, T);
  if (Ids.size() <= OpaqueFixed + std::size(OpaqueExcluded))
    throw std::runtime_error("opaque-synth input holds too few entries");
  // File order and no seeded draw: the synthesizer's recipe memo is shared
  // by the whole process, so an entry's cost, and with a timeout its
  // outcome, can depend on the entries before it; and a few entries cost
  // 100x the rest, so a draw moved the percentiles. The seed picks the
  // check points only.
  std::vector<size_t> Order;
  for (size_t I = 0; I != Ids.size(); ++I)
    if (I < OpaqueFixed ||
        std::find(std::begin(OpaqueExcluded), std::end(OpaqueExcluded),
                  I + 1) == std::end(OpaqueExcluded))
      Order.push_back(I);
  warmUp(OpaqueWidth, true);
  R.SetupSeconds = setupDone(O, T);
  checkInputs(Ids, Order, OpaqueWidth, O.Seed, R);

  // Traced runs do one round here, so its spans are recorded. Untraced
  // runs repeat the round in child processes until the time is up: the
  // synthesizer's recipe memo is process-wide and cannot be cleared, so a
  // second round in this process would be cheaper work than the first.
  if (T.On) {
    opaqueRound(O, T, Ids, Order, R);
    R.endRound();
    R.Rounds = 1;
    return R;
  }
  for (uint64_t Start = nowNs(); keepGoing(O, Start, R.Rounds); ++R.Rounds)
    forkedOpaqueRound(O, Ids, Order, R);
  return R;
}

} // namespace perfbench
