//===- perfbench/src/RefEval.h - Reference parser and evaluator -*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's independent oracle. It parses the library's surface
/// syntax (`| ^ & + - * ~`, unary minus, decimal or 0x constants,
/// identifiers, parentheses; C precedence as in ast/Printer.cpp) into its
/// own tree and evaluates it modulo 2^w. Nothing here includes a library
/// header, so a fault in src/ast cannot hide itself from the checks.
///
/// Equivalence is tested on every corner point {0, -1}^t plus seeded random
/// points. When both expressions are linear MBA the corners alone decide
/// equivalence (Theorem 1 of the paper), so the test is then a proof.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFEVAL_H
#define PERFBENCH_REFEVAL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's only random source, so inputs depend on
/// nothing but the seed.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t State;
};

/// One expression tree in post order: every operand index is smaller than
/// the index of the node using it, and the root is the last node.
struct RefExpr {
  enum Op : uint8_t { Var, Const, Not, Neg, Add, Sub, Mul, And, Or, Xor };
  struct Node {
    Op K = Const;
    uint64_t Value = 0; ///< constant value, or index into Vars
    int A = -1, B = -1; ///< operand node indices
  };
  std::vector<Node> Nodes;
  std::vector<std::string> Vars; ///< variable names, first-use order

  bool empty() const { return Nodes.empty(); }
};

/// Parses \p Text; returns false with a message in \p Error on bad input.
bool refParse(std::string_view Text, RefExpr &Out, std::string &Error);

/// Prints \p E in the library's surface syntax (minimal parentheses,
/// constants signed at \p Width).
std::string refPrint(const RefExpr &E, unsigned Width);

/// Value of \p E with variable i bound to Values[i], modulo 2^Width.
uint64_t refEval(const RefExpr &E, const uint64_t *Values, unsigned Width);

/// True when \p E is a linear MBA expression: integer combinations of
/// bitwise functions of variables, where a bitwise function holds no
/// constant and `~` may also wrap a linear term (~e == -e-1).
bool refIsLinear(const RefExpr &E);

/// A point: one value per variable name.
using Witness = std::vector<std::pair<std::string, uint64_t>>;

/// Result of comparing two expressions.
struct RefCompare {
  bool Equal = true;  ///< agreed on every point tried
  bool Proof = false; ///< Equal and both linear: corners decide (Theorem 1)
  Witness At;         ///< a point where they differ, when !Equal
};

/// Compares \p A and \p B on all 2^t corners of their joint variables
/// (t <= 16) and on \p RandomPoints points drawn from \p Seed.
RefCompare refCompare(const RefExpr &A, const RefExpr &B, unsigned Width,
                      unsigned RandomPoints, uint64_t Seed);

/// True when A and B differ at \p Witness (names not bound read as 0).
bool refDiffersAt(const RefExpr &A, const RefExpr &B, unsigned Width,
                  const Witness &At);

/// Applies one seeded local change to \p E: swaps a bitwise or additive
/// operator, toggles a `~`, or nudges a constant. The result may happen
/// to be equivalent to \p E; callers confirm with refCompare.
RefExpr refMutate(const RefExpr &E, Rng &R);

} // namespace perfbench

#endif // PERFBENCH_REFEVAL_H
