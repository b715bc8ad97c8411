//===- perfbench/src/Checks.cpp - Output checks of the benchmark ----------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

namespace perfbench {

using mba::Verdict;

namespace {

std::string describe(const Witness &At) {
  std::string S;
  for (const auto &[Name, Value] : At)
    S += (S.empty() ? "" : ", ") + Name + "=" + std::to_string(Value);
  return "{" + S + "}";
}

} // namespace

std::string checkInputIdentity(const RefExpr &Obfuscated, const RefExpr &Ground,
                               unsigned Width, unsigned Points, uint64_t Seed) {
  RefCompare C = refCompare(Obfuscated, Ground, Width, Points, Seed);
  return C.Equal ? "" : "not an identity at " + describe(C.At);
}

std::string checkOutput(const std::string &OutputText, const RefExpr &Truth,
                        unsigned Width, unsigned Points, uint64_t Seed) {
  RefExpr Out;
  std::string Err;
  if (!refParse(OutputText, Out, Err))
    return "output '" + OutputText + "' does not parse: " + Err;
  RefCompare C = refCompare(Out, Truth, Width, Points, Seed);
  if (!C.Equal)
    return "output '" + OutputText + "' differs from its input at " +
           describe(C.At);
  return "";
}

std::string checkIdentityVerdict(Verdict V) {
  return V == Verdict::Equivalent
             ? ""
             : std::string("identity answered ") + mba::verdictName(V);
}

std::string checkMutantVerdict(Verdict V) {
  return V == Verdict::NotEquivalent
             ? ""
             : std::string("mutant answered ") + mba::verdictName(V);
}

std::string checkMutantModel(const RefExpr &Mutant, const RefExpr &Ground,
                             unsigned Width, const Witness &Model) {
  return refDiffersAt(Mutant, Ground, Width, Model)
             ? ""
             : "the solver's model " + describe(Model) + " is no witness";
}

std::string checkAgreement(const Verdict (&Got)[NumBackends]) {
  for (int B = 1; B != NumBackends; ++B)
    if (Got[B] != Got[0])
      return std::string(BackendNames[0]) + " answered " +
             mba::verdictName(Got[0]) + " but " + BackendNames[B] +
             " answered " + mba::verdictName(Got[B]);
  return "";
}

std::string checkRebuiltVerdict(Verdict Backend, Verdict Rebuilt) {
  if (Backend == Verdict::Timeout || Rebuilt == Verdict::Timeout ||
      Backend == Rebuilt)
    return "";
  return std::string("backend answered ") + mba::verdictName(Backend) +
         " but the query rebuilt from aig+sat answered " +
         mba::verdictName(Rebuilt);
}

} // namespace perfbench
