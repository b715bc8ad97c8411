//===- perfbench/src/RefEval.cpp - Reference parser and evaluator ---------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "RefEval.h"

#include <algorithm>
#include <cctype>

namespace perfbench {

namespace {

uint64_t maskOf(unsigned Width) {
  return Width >= 64 ? ~0ULL : (1ULL << Width) - 1;
}

class Parser {
public:
  Parser(std::string_view Text, RefExpr &Out) : Text(Text), Out(Out) {}

  bool run(std::string &Error) {
    int Root = parseOr();
    skipSpace();
    if (Root < 0 || Pos != Text.size()) {
      if (!Err.empty())
        Error = Err;
      else if (Pos < Text.size())
        Error = "unexpected '" + std::string(1, Text[Pos]) + "'";
      else
        Error = "unexpected end of input";
      Error += " at offset " + std::to_string(Pos);
      return false;
    }
    return true;
  }

private:
  void skipSpace() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t'))
      ++Pos;
  }
  bool eat(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  int add(RefExpr::Op K, int A, int B = -1, uint64_t Value = 0) {
    Out.Nodes.push_back({K, Value, A, B});
    return (int)Out.Nodes.size() - 1;
  }
  // One precedence level of left-associative binary operators.
  template <typename Next>
  int level(Next Sub, char C1, RefExpr::Op K1, char C2 = 0,
            RefExpr::Op K2 = RefExpr::Const) {
    int L = (this->*Sub)();
    while (L >= 0) {
      RefExpr::Op K;
      if (eat(C1))
        K = K1;
      else if (C2 && eat(C2))
        K = K2;
      else
        break;
      int R = (this->*Sub)();
      if (R < 0)
        return -1;
      L = add(K, L, R);
    }
    return L;
  }
  int parseOr() { return level(&Parser::parseXor, '|', RefExpr::Or); }
  int parseXor() { return level(&Parser::parseAnd, '^', RefExpr::Xor); }
  int parseAnd() { return level(&Parser::parseSum, '&', RefExpr::And); }
  int parseSum() {
    return level(&Parser::parseMul, '+', RefExpr::Add, '-', RefExpr::Sub);
  }
  int parseMul() { return level(&Parser::parseUnary, '*', RefExpr::Mul); }
  int parseUnary() {
    if (eat('~')) {
      int A = parseUnary();
      return A < 0 ? -1 : add(RefExpr::Not, A);
    }
    if (eat('-')) {
      int A = parseUnary();
      return A < 0 ? -1 : add(RefExpr::Neg, A);
    }
    return parseAtom();
  }
  int parseAtom() {
    if (eat('(')) {
      int E = parseOr();
      if (E < 0)
        return -1;
      if (!eat(')')) {
        Err = "expected ')'";
        return -1;
      }
      return E;
    }
    skipSpace();
    if (Pos >= Text.size()) {
      Err = "unexpected end of input";
      return -1;
    }
    char C = Text[Pos];
    if (C >= '0' && C <= '9') {
      uint64_t V = 0;
      if (C == '0' && Pos + 1 < Text.size() &&
          (Text[Pos + 1] == 'x' || Text[Pos + 1] == 'X')) {
        Pos += 2;
        size_t Start = Pos;
        for (; Pos < Text.size() && std::isxdigit((unsigned char)Text[Pos]);
             ++Pos) {
          char D = Text[Pos];
          V = V * 16 + (uint64_t)(D <= '9'   ? D - '0'
                                  : D <= 'F' ? D - 'A' + 10
                                             : D - 'a' + 10);
        }
        if (Pos == Start) {
          Err = "empty hex constant";
          return -1;
        }
      } else {
        for (; Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9'; ++Pos)
          V = V * 10 + (uint64_t)(Text[Pos] - '0');
      }
      return add(RefExpr::Const, -1, -1, V);
    }
    if (std::isalpha((unsigned char)C) || C == '_') {
      size_t Start = Pos;
      while (Pos < Text.size() &&
             (std::isalnum((unsigned char)Text[Pos]) || Text[Pos] == '_'))
        ++Pos;
      std::string Name(Text.substr(Start, Pos - Start));
      auto It = std::find(Out.Vars.begin(), Out.Vars.end(), Name);
      uint64_t Index = (uint64_t)(It - Out.Vars.begin());
      if (It == Out.Vars.end())
        Out.Vars.push_back(Name);
      return add(RefExpr::Var, -1, -1, Index);
    }
    return -1;
  }

  std::string_view Text;
  RefExpr &Out;
  size_t Pos = 0;
  std::string Err;
};

int precedence(RefExpr::Op K) {
  switch (K) {
  case RefExpr::Or:
    return 1;
  case RefExpr::Xor:
    return 2;
  case RefExpr::And:
    return 3;
  case RefExpr::Add:
  case RefExpr::Sub:
    return 4;
  case RefExpr::Mul:
    return 5;
  case RefExpr::Not:
  case RefExpr::Neg:
    return 6;
  default:
    return 7;
  }
}

const char *opText(RefExpr::Op K) {
  switch (K) {
  case RefExpr::Or:
    return "|";
  case RefExpr::Xor:
    return "^";
  case RefExpr::And:
    return "&";
  case RefExpr::Add:
    return "+";
  case RefExpr::Sub:
    return "-";
  case RefExpr::Mul:
    return "*";
  case RefExpr::Not:
    return "~";
  case RefExpr::Neg:
    return "-";
  default:
    return "";
  }
}

void print(const RefExpr &E, int N, int ParentPrec, bool RightOfSub,
           unsigned Width, std::string &Out) {
  const RefExpr::Node &Nd = E.Nodes[N];
  int Prec = precedence(Nd.K);
  bool Parens = Prec < ParentPrec || (Prec == ParentPrec && RightOfSub);
  if (Parens)
    Out += '(';
  switch (Nd.K) {
  case RefExpr::Var:
    Out += E.Vars[Nd.Value];
    break;
  case RefExpr::Const: {
    uint64_t V = Nd.Value & maskOf(Width);
    if (Width <= 64 && V >> (Width - 1)) // negative at this width
      Out += "-" + std::to_string((~V + 1) & maskOf(Width));
    else
      Out += std::to_string(V);
    break;
  }
  case RefExpr::Not:
  case RefExpr::Neg:
    Out += opText(Nd.K);
    print(E, Nd.A, Prec, false, Width, Out);
    break;
  default:
    print(E, Nd.A, Prec, false, Width, Out);
    Out += opText(Nd.K);
    print(E, Nd.B, Prec, Nd.K == RefExpr::Sub, Width, Out);
    break;
  }
  if (Parens)
    Out += ')';
}

uint64_t evalInto(const RefExpr &E, const uint64_t *Values, uint64_t Mask,
                  std::vector<uint64_t> &V) {
  V.resize(E.Nodes.size());
  for (size_t I = 0; I != E.Nodes.size(); ++I) {
    const RefExpr::Node &N = E.Nodes[I];
    uint64_t R = 0;
    switch (N.K) {
    case RefExpr::Var:
      R = Values[N.Value];
      break;
    case RefExpr::Const:
      R = N.Value;
      break;
    case RefExpr::Not:
      R = ~V[N.A];
      break;
    case RefExpr::Neg:
      R = 0 - V[N.A];
      break;
    case RefExpr::Add:
      R = V[N.A] + V[N.B];
      break;
    case RefExpr::Sub:
      R = V[N.A] - V[N.B];
      break;
    case RefExpr::Mul:
      R = V[N.A] * V[N.B];
      break;
    case RefExpr::And:
      R = V[N.A] & V[N.B];
      break;
    case RefExpr::Or:
      R = V[N.A] | V[N.B];
      break;
    case RefExpr::Xor:
      R = V[N.A] ^ V[N.B];
      break;
    }
    V[I] = R & Mask;
  }
  return V.empty() ? 0 : V.back();
}

/// Joint variable numbering of two expressions.
struct Joint {
  std::vector<std::string> Names;
  std::vector<unsigned> MapA, MapB;

  Joint(const RefExpr &A, const RefExpr &B) {
    auto Slot = [&](const std::string &N) {
      auto It = std::find(Names.begin(), Names.end(), N);
      if (It != Names.end())
        return (unsigned)(It - Names.begin());
      Names.push_back(N);
      return (unsigned)Names.size() - 1;
    };
    for (const std::string &N : A.Vars)
      MapA.push_back(Slot(N));
    for (const std::string &N : B.Vars)
      MapB.push_back(Slot(N));
  }
};

int copyMutated(const RefExpr &E, int N, int Target, int Action,
                RefExpr &Out) {
  const RefExpr::Node &Nd = E.Nodes[N];
  int A = Nd.A >= 0 ? copyMutated(E, Nd.A, Target, Action, Out) : -1;
  int B = Nd.B >= 0 ? copyMutated(E, Nd.B, Target, Action, Out) : -1;
  RefExpr::Node Copy{Nd.K, Nd.Value, A, B};
  if (N == Target) {
    switch (Nd.K) {
    case RefExpr::And:
    case RefExpr::Or:
    case RefExpr::Xor: {
      static const RefExpr::Op Ring[] = {RefExpr::And, RefExpr::Or,
                                         RefExpr::Xor};
      int At = Nd.K == RefExpr::And ? 0 : Nd.K == RefExpr::Or ? 1 : 2;
      Copy.K = Ring[(At + 1 + Action % 2) % 3];
      break;
    }
    case RefExpr::Add:
      Copy.K = RefExpr::Sub;
      break;
    case RefExpr::Sub:
      Copy.K = RefExpr::Add;
      break;
    case RefExpr::Const:
      Copy.Value = Nd.Value + 1 + (uint64_t)(Action % 3);
      break;
    case RefExpr::Not:
      return A; // drop the complement
    default: {
      // Var, Neg, Mul: complement the subtree.
      Out.Nodes.push_back(Copy);
      int Inner = (int)Out.Nodes.size() - 1;
      Out.Nodes.push_back({RefExpr::Not, 0, Inner, -1});
      return (int)Out.Nodes.size() - 1;
    }
    }
  }
  Out.Nodes.push_back(Copy);
  return (int)Out.Nodes.size() - 1;
}

} // namespace

bool refParse(std::string_view Text, RefExpr &Out, std::string &Error) {
  Out = RefExpr();
  Parser P(Text, Out);
  return P.run(Error);
}

std::string refPrint(const RefExpr &E, unsigned Width) {
  std::string Out;
  if (!E.empty())
    print(E, (int)E.Nodes.size() - 1, 0, false, Width, Out);
  return Out;
}

uint64_t refEval(const RefExpr &E, const uint64_t *Values, unsigned Width) {
  thread_local std::vector<uint64_t> Scratch;
  return evalInto(E, Values, maskOf(Width), Scratch);
}

bool refIsLinear(const RefExpr &E) {
  // K: constant-only, B: bitwise over variables, L: linear, N: other.
  enum Class : uint8_t { K, B, L, N };
  std::vector<Class> C(E.Nodes.size(), N);
  for (size_t I = 0; I != E.Nodes.size(); ++I) {
    const RefExpr::Node &Nd = E.Nodes[I];
    Class A = Nd.A >= 0 ? C[Nd.A] : K, Bc = Nd.B >= 0 ? C[Nd.B] : K;
    auto Lin = [](Class X) { return X != N; };
    switch (Nd.K) {
    case RefExpr::Var:
      C[I] = B;
      break;
    case RefExpr::Const:
      C[I] = K;
      break;
    case RefExpr::Not:
      C[I] = A; // ~e == -e-1 keeps every class
      break;
    case RefExpr::Neg:
      C[I] = A == K ? K : A == N ? N : L;
      break;
    case RefExpr::And:
    case RefExpr::Or:
    case RefExpr::Xor:
      C[I] = A == K && Bc == K ? K : A == B && Bc == B ? B : N;
      break;
    case RefExpr::Add:
    case RefExpr::Sub:
      C[I] = A == K && Bc == K ? K : Lin(A) && Lin(Bc) ? L : N;
      break;
    case RefExpr::Mul:
      C[I] = A == K && Bc == K               ? K
             : (A == K && Lin(Bc)) || (Bc == K && Lin(A)) ? L
                                                          : N;
      break;
    }
  }
  return !C.empty() && C.back() != N;
}

RefCompare refCompare(const RefExpr &A, const RefExpr &B, unsigned Width,
                      unsigned RandomPoints, uint64_t Seed) {
  RefCompare Out;
  const uint64_t Mask = maskOf(Width);
  Joint J(A, B);
  const unsigned T = (unsigned)J.Names.size();
  std::vector<uint64_t> Point(T), VA(A.Vars.size()), VB(B.Vars.size());
  std::vector<uint64_t> Scratch;
  auto Try = [&]() {
    for (size_t I = 0; I != VA.size(); ++I)
      VA[I] = Point[J.MapA[I]];
    for (size_t I = 0; I != VB.size(); ++I)
      VB[I] = Point[J.MapB[I]];
    if (evalInto(A, VA.data(), Mask, Scratch) ==
        evalInto(B, VB.data(), Mask, Scratch))
      return true;
    Out.Equal = false;
    for (unsigned I = 0; I != T; ++I)
      Out.At.push_back({J.Names[I], Point[I]});
    return false;
  };
  if (T <= 16) {
    for (uint64_t Corner = 0; Corner != (1ULL << T); ++Corner) {
      for (unsigned I = 0; I != T; ++I)
        Point[I] = (Corner >> I) & 1 ? Mask : 0;
      if (!Try())
        return Out;
    }
  }
  Rng R(Seed);
  for (unsigned P = 0; P != RandomPoints; ++P) {
    for (unsigned I = 0; I != T; ++I)
      Point[I] = R.next() & Mask;
    if (!Try())
      return Out;
  }
  Out.Proof = T <= 16 && refIsLinear(A) && refIsLinear(B);
  return Out;
}

bool refDiffersAt(const RefExpr &A, const RefExpr &B, unsigned Width,
                  const Witness &At) {
  auto Bind = [&](const RefExpr &E) {
    std::vector<uint64_t> V(E.Vars.size(), 0);
    for (size_t I = 0; I != E.Vars.size(); ++I)
      for (const auto &[Name, Value] : At)
        if (Name == E.Vars[I])
          V[I] = Value;
    return V;
  };
  std::vector<uint64_t> VA = Bind(A), VB = Bind(B);
  return refEval(A, VA.data(), Width) != refEval(B, VB.data(), Width);
}

RefExpr refMutate(const RefExpr &E, Rng &R) {
  RefExpr Out;
  Out.Vars = E.Vars;
  int Target = (int)R.below(E.Nodes.size());
  int Action = (int)R.below(6);
  copyMutated(E, (int)E.Nodes.size() - 1, Target, Action, Out);
  return Out;
}

} // namespace perfbench
