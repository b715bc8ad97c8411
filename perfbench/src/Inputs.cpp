//===- perfbench/src/Inputs.cpp - Opaque-synth input generator ------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Writes the opaque-synth input file. The family is bench/table_synth's:
/// a bank-shaped ground truth (a constant, a*f+c, or a1*f1+a2*f2+c over up
/// to three variables) hidden under non-polynomial rewrites plus one
/// opaque-zero carry fact. The generation sequence is table_synth's, so
/// the first 12 entries at seed 20210620 are the entries of
/// `table_synth --per-category=12 --width=8`. The benchmark reads the
/// checked-in file, so later changes to src/gen cannot change what it
/// measures.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ast/Context.h"
#include "ast/Printer.h"
#include "gen/Obfuscator.h"
#include "poly/PolyExpr.h"
#include "support/RNG.h"
#include "synth/Basis3.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

using namespace mba;

int emitOpaqueInputs(uint64_t Seed) {
  Context Ctx(OpaqueWidth);
  Obfuscator Obf(Ctx, Seed ^ 0xB057ED);
  RNG Rng(Seed);
  const Expr *AllVars[3] = {Ctx.getVar("x"), Ctx.getVar("y"),
                            Ctx.getVar("z")};
  std::printf("# opaque-synth inputs: width=%u seed=%" PRIu64
              " count=%u (ground<TAB>target)\n",
              OpaqueWidth, Seed, OpaqueCount);
  std::printf("# regenerate: python3 perfbench/run.py --emit-opaque "
              "--seed=%" PRIu64 "\n",
              Seed);
  for (unsigned Case = 0; Case != OpaqueCount; ++Case) {
    unsigned T = 1 + (unsigned)Rng.below(3);
    std::span<const Expr *const> Vars{AllVars, T};
    uint32_t Full = (1u << (1u << T)) - 1;
    auto RandTruth = [&] { return 1 + (uint32_t)Rng.below(Full - 1); };
    auto RandCoeff = [&]() -> uint64_t { return 2 + Rng.below(9); };
    const Expr *Ground;
    switch (Case % 3) {
    case 0:
      Ground = Ctx.getConst(Rng.next() & Ctx.mask());
      break;
    case 1:
      Ground = buildLinearCombination(
          Ctx, {{RandCoeff(), synth::bitwiseFromTruth(Ctx, Vars, RandTruth())}},
          Rng.next() & Ctx.mask());
      break;
    default: {
      uint32_t T1 = RandTruth(), T2 = RandTruth();
      while (T2 == T1)
        T2 = RandTruth();
      Ground = buildLinearCombination(
          Ctx,
          {{RandCoeff(), synth::bitwiseFromTruth(Ctx, Vars, T1)},
           {RandCoeff(), synth::bitwiseFromTruth(Ctx, Vars, T2)}},
          Rng.next() & Ctx.mask());
      break;
    }
    }
    const Expr *Target = Obf.obfuscateNonPoly(Ground, Vars, 2);
    Target = Obf.obfuscateOpaque(Target, Vars, 1);
    std::printf("%s\t%s\n", printExpr(Ctx, Ground).c_str(),
                printExpr(Ctx, Target).c_str());
  }
  return 0;
}

} // namespace perfbench
