//===- perfbench/src/Checks.h - Output checks of the benchmark --*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every check a workload applies to the program's answers. Each returns
/// an empty string when the answer is right and a reason otherwise; the
/// self-test (SelfTest.cpp) feeds each one a corrupted answer.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "RefEval.h"

#include "solvers/EquivalenceChecker.h"

#include <string>

namespace perfbench {

/// The in-tree bit-blasting backends table6-blast decides with, by the
/// names makeAllCheckers() gives them, and their metric names.
inline constexpr int NumBackends = 3;
inline constexpr const char *BackendNames[NumBackends] = {
    "BlastBV", "BlastBV+RW", "BlastBV+AIG"};
inline constexpr const char *BackendMetricNames[NumBackends] = {
    "blastbv", "blastbv-rw", "blastbv-aig"};
inline constexpr int BackendAig = 2;

/// An input line must be an identity on every corner and sampled point.
std::string checkInputIdentity(const RefExpr &Obfuscated, const RefExpr &Ground,
                               unsigned Width, unsigned Points, uint64_t Seed);

/// A simplified output, printed by the library, must equal \p Truth on
/// every corner and sampled point (a proof when both are linear MBA).
std::string checkOutput(const std::string &OutputText, const RefExpr &Truth,
                        unsigned Width, unsigned Points, uint64_t Seed);

/// An identity's verdict must be Equivalent.
std::string checkIdentityVerdict(mba::Verdict V);

/// A mutant's verdict must be NotEquivalent.
std::string checkMutantVerdict(mba::Verdict V);

/// The model a SAT solver gave for a mutant query must be a point where
/// the mutant and its ground truth differ.
std::string checkMutantModel(const RefExpr &Mutant, const RefExpr &Ground,
                             unsigned Width, const Witness &Model);

/// The backends' verdicts on one query must agree.
std::string checkAgreement(const mba::Verdict (&Got)[NumBackends]);

/// A query rebuilt from the aig and sat APIs must reach the backend's
/// verdict whenever both decide it.
std::string checkRebuiltVerdict(mba::Verdict Backend, mba::Verdict Rebuilt);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
