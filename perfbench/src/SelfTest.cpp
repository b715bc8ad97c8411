//===- perfbench/src/SelfTest.cpp - The benchmark's test of its checks ----===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Shows that every output check rejects a corrupted answer and accepts
/// the real one. Run with `python3 perfbench/run.py --selftest`.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "RefEval.h"

#include "ast/Context.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "mba/Simplifier.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

using namespace mba;

namespace {

RefExpr refOf(const std::string &Text) {
  RefExpr E;
  std::string Err;
  if (!refParse(Text, E, Err))
    throw std::runtime_error("self-test expression '" + Text + "': " + Err);
  return E;
}

struct Tally {
  int Failures = 0;

  /// A check must accept the real answer and reject the corrupted one.
  void expect(const char *Check, const std::string &OnGood,
              const std::string &OnCorrupt) {
    bool Ok = OnGood.empty() && !OnCorrupt.empty();
    std::printf("%s %-22s good: %s | corrupted: %s\n", Ok ? "PASS" : "FAIL",
                Check, OnGood.empty() ? "accepted" : OnGood.c_str(),
                OnCorrupt.empty() ? "ACCEPTED" : OnCorrupt.c_str());
    Failures += !Ok;
  }
};

/// The first corpus line of \p Category: {ground, obfuscated}.
std::pair<std::string, std::string> corpusLine(const Options &O,
                                               const std::string &Category) {
  std::ifstream In(O.InputDir + "/paper_corpus.tsv");
  for (std::string L; std::getline(In, L);) {
    size_t A = L.find('\t'), B = L.find('\t', A + 1);
    if (A != std::string::npos && B != std::string::npos &&
        L.substr(0, A) == Category)
      return {L.substr(A + 1, B - A - 1), L.substr(B + 1)};
  }
  throw std::runtime_error("paper corpus has no '" + Category + "' line");
}

} // namespace

int runSelfTest(const Options &O) {
  Tally T;
  const unsigned W = 64;

  for (const char *Cat : {"linear", "poly", "non-poly"}) {
    auto [GroundText, ObfText] = corpusLine(O, Cat);
    RefExpr Ground = refOf(GroundText), Obf = refOf(ObfText);
    std::string Tag = std::string("input/") + Cat;
    T.expect(Tag.c_str(), checkInputIdentity(Obf, Ground, W, 24, 1),
             checkInputIdentity(refOf("(" + ObfText + ")+1"), Ground, W, 24, 1));

    // The library's real answer, then two corruptions of it: an offset,
    // and one seeded local change the reference evaluator can tell apart.
    Context Ctx(W);
    MBASolver Solver(Ctx);
    std::string Out = printExpr(Ctx, Solver.simplify(parseOrDie(Ctx, ObfText)));
    Tag = std::string("output/") + Cat;
    T.expect(Tag.c_str(), checkOutput(Out, Obf, W, 24, 2),
             checkOutput("(" + Out + ")+1", Obf, W, 24, 2));
    Rng R(7);
    RefExpr Mut;
    do
      Mut = refMutate(refOf(Out), R);
    while (refCompare(Mut, Obf, W, 64, 3).Equal);
    Tag += "-mutated";
    T.expect(Tag.c_str(), checkOutput(Out, Obf, W, 24, 2),
             checkOutput(refPrint(Mut, W), Obf, W, 24, 2));
    if (std::string(Cat) == "linear" &&
        !refCompare(refOf(Out), Obf, W, 0, 0).Proof) {
      std::printf("FAIL linear outputs are not decided by corners\n");
      ++T.Failures;
    }
  }

  // A corruption that vanishes on every corner: x*y is 0 or 1 there, so
  // (x*y & 2) is 0 and only the random points can see it.
  T.expect("output/off-corner", checkOutput("x*y+y", refOf("x*y+y"), W, 24, 4),
           checkOutput("x*y+y+4611686018427387904*(x*y&2)", refOf("x*y+y"), W,
                       24, 4));

  T.expect("verdict/identity", checkIdentityVerdict(Verdict::Equivalent),
           checkIdentityVerdict(Verdict::NotEquivalent));

  T.expect("verdict/mutant", checkMutantVerdict(Verdict::NotEquivalent),
           checkMutantVerdict(Verdict::Equivalent));
  // x&y and x|y differ where exactly one of x and y has a bit set.
  RefExpr Mutant = refOf("x&y"), Ground = refOf("x|y");
  T.expect("model/mutant",
           checkMutantModel(Mutant, Ground, W, {{"x", 1}, {"y", 0}}),
           checkMutantModel(Mutant, Ground, W, {{"x", 5}, {"y", 5}}));

  Verdict Same[NumBackends] = {Verdict::Equivalent, Verdict::Equivalent,
                               Verdict::Equivalent};
  Verdict Split[NumBackends] = {Verdict::Equivalent, Verdict::NotEquivalent,
                                Verdict::Equivalent};
  T.expect("backends/agree", checkAgreement(Same), checkAgreement(Split));
  T.expect("rebuild/verdict",
           checkRebuiltVerdict(Verdict::Equivalent, Verdict::Equivalent),
           checkRebuiltVerdict(Verdict::Equivalent, Verdict::NotEquivalent));

  // opaque-synth: a synthesized output that is off by one bit at width 8.
  std::ifstream In(O.InputDir + "/opaque_synth.tsv");
  std::string Line;
  while (std::getline(In, Line) && (Line.empty() || Line[0] == '#'))
    ;
  std::string OpaqueGround = Line.substr(0, Line.find('\t'));
  std::string OpaqueTarget = Line.substr(Line.find('\t') + 1);
  T.expect("output/opaque",
           checkOutput(OpaqueGround, refOf(OpaqueTarget), 8, 24, 6),
           checkOutput("(" + OpaqueGround + ")^1", refOf(OpaqueTarget), 8, 24,
                       6));

  std::printf("%s: %d check(s) failed to reject a corrupted answer\n",
              T.Failures ? "FAILED" : "ok", T.Failures);
  return T.Failures;
}

} // namespace perfbench
