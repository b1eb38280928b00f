#ifndef LIPSTICK_PROVENANCE_SEMIRING_H_
#define LIPSTICK_PROVENANCE_SEMIRING_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "provenance/graph.h"
#include "provenance/snapshot.h"
#include "provenance/view.h"

namespace lipstick {

/// ----------------------------------------------------------------------
/// Provenance polynomials N[X] (Green, Karvounarakis, Tannen, PODS'07).
///
/// The graph is Lipstick's primary representation; this polynomial layer
/// implements the underlying formal semantics and is used by unit and
/// property tests to validate the graph construction (evaluating a node's
/// subgraph under a token assignment must agree with evaluating its
/// polynomial).
/// ----------------------------------------------------------------------

/// A monomial: product of tokens with exponents, e.g. x^2·y.
class Monomial {
 public:
  Monomial() = default;
  static Monomial Var(const std::string& token);

  Monomial Times(const Monomial& other) const;
  const std::map<std::string, uint32_t>& vars() const { return vars_; }
  bool operator<(const Monomial& other) const { return vars_ < other.vars_; }
  bool operator==(const Monomial& other) const { return vars_ == other.vars_; }
  std::string ToString() const;

 private:
  std::map<std::string, uint32_t> vars_;
};

/// A polynomial with natural-number coefficients: formal sum of monomials.
class Polynomial {
 public:
  Polynomial() = default;

  static Polynomial Zero() { return Polynomial(); }
  static Polynomial One();
  static Polynomial Var(const std::string& token);

  Polynomial Plus(const Polynomial& other) const;
  Polynomial Times(const Polynomial& other) const;

  bool IsZero() const { return terms_.empty(); }
  bool operator==(const Polynomial& other) const {
    return terms_ == other.terms_;
  }

  const std::map<Monomial, uint64_t>& terms() const { return terms_; }

  /// Evaluates in N under `assignment` (absent tokens default to 1).
  uint64_t Eval(const std::map<std::string, uint64_t>& assignment) const;

  /// Canonical rendering, e.g. "2*x*y^2 + z".
  std::string ToString() const;

 private:
  std::map<Monomial, uint64_t> terms_;
};

/// ----------------------------------------------------------------------
/// Graph evaluation in arbitrary commutative semirings with δ.
/// ----------------------------------------------------------------------

/// Counting semiring (N, +, ·, 0, 1) with δ(n) = [n > 0]: the reference
/// semantics for bag multiplicity and for deletion propagation (a node
/// survives the deletion of token t iff its value with t := 0 is nonzero).
/// + and · saturate at UINT64_MAX instead of wrapping: a count past it
/// reads UINT64_MAX, and since N has no zero divisors a value is still 0
/// exactly when the Boolean semiring derives false, however deep the graph.
struct CountingSemiring {
  using ValueType = uint64_t;
  static ValueType Zero() { return 0; }
  static ValueType One() { return 1; }
  static ValueType Plus(ValueType a, ValueType b) {
    return a > UINT64_MAX - b ? UINT64_MAX : a + b;
  }
  static ValueType Times(ValueType a, ValueType b) {
    return a != 0 && b > UINT64_MAX / a ? UINT64_MAX : a * b;
  }
  static ValueType Delta(ValueType a) { return a > 0 ? 1 : 0; }
};

/// Boolean ("set/possibility") semiring: tracks mere existence.
struct BooleanSemiring {
  using ValueType = bool;
  static ValueType Zero() { return false; }
  static ValueType One() { return true; }
  static ValueType Plus(ValueType a, ValueType b) { return a || b; }
  static ValueType Times(ValueType a, ValueType b) { return a && b; }
  static ValueType Delta(ValueType a) { return a; }
};

/// Trust semiring ([0,1], max, min, 0, 1): the trust in a derived tuple is
/// the best alternative derivation, each worth its least-trusted joint
/// input. One of the semiring applications the paper cites as motivation
/// for building workflow provenance on the [17] foundations.
struct TrustSemiring {
  using ValueType = double;
  static ValueType Zero() { return 0.0; }
  static ValueType One() { return 1.0; }
  static ValueType Plus(ValueType a, ValueType b) { return a > b ? a : b; }
  static ValueType Times(ValueType a, ValueType b) { return a < b ? a : b; }
  static ValueType Delta(ValueType a) { return a; }
};

/// Access-control ("security") semiring: clearance levels ordered
/// public < confidential < secret < top-secret < never. Joint use requires
/// the most restrictive input (max); alternatives admit the least
/// restrictive derivation (min). Evaluating an output node yields the
/// clearance required to see it.
struct SecuritySemiring {
  enum Level : int {
    kPublic = 0,
    kConfidential = 1,
    kSecret = 2,
    kTopSecret = 3,
    kNever = 4,
  };
  using ValueType = Level;
  static ValueType Zero() { return kNever; }
  static ValueType One() { return kPublic; }
  static ValueType Plus(ValueType a, ValueType b) { return a < b ? a : b; }
  static ValueType Times(ValueType a, ValueType b) { return a > b ? a : b; }
  static ValueType Delta(ValueType a) { return a; }
};

/// Why-provenance semiring: sets of contributing token sets ("witnesses").
struct WhySemiring {
  using ValueType = std::set<std::set<std::string>>;
  static ValueType Zero() { return {}; }
  static ValueType One() { return {{}}; }
  static ValueType Plus(ValueType a, const ValueType& b) {
    a.insert(b.begin(), b.end());
    return a;
  }
  static ValueType Times(const ValueType& a, const ValueType& b) {
    ValueType out;
    for (const auto& wa : a) {
      for (const auto& wb : b) {
        std::set<std::string> w = wa;
        w.insert(wb.begin(), wb.end());
        out.insert(std::move(w));
      }
    }
    return out;
  }
  static ValueType Delta(ValueType a) { return a; }
};

/// Evaluates the provenance of `node` in semiring S under a token
/// assignment keyed by token *node id* (tokens absent from the map get
/// S::One()). Structural rules:
///   token             -> assignment (or One)
///   +, δ-args, agg, blackbox, zoomed-module -> Plus over parents
///     (δ additionally applies S::Delta to the sum)
///   ·, ⊗              -> Times over parents
///   const value       -> One
///   module invocation -> One (invocations are never data-dependent)
/// These match Definition 4.2's deletion semantics: a node survives iff its
/// counting value is nonzero after zeroing the deleted token.
template <typename S>
class GraphEvaluator {
 public:
  using V = typename S::ValueType;

  /// Evaluation reads parent edges only, so a parent-only snapshot of an
  /// unsealed graph works.
  explicit GraphEvaluator(const GraphSnapshot& snap,
                          std::unordered_map<NodeId, V> token_assignment = {})
      : snap_(snap), assignment_(std::move(token_assignment)) {}

  V Eval(NodeId id) {
    auto it = memo_.find(id);
    if (it != memo_.end()) return it->second;
    NodeView n = snap_.node(id);
    std::span<const NodeId> parents = snap_.ParentsOf(id);
    V result = S::Zero();
    switch (n.label()) {
      case NodeLabel::kToken: {
        auto a = assignment_.find(id);
        result = a == assignment_.end() ? S::One() : a->second;
        break;
      }
      case NodeLabel::kModuleInvocation:
      case NodeLabel::kConstValue:
        result = S::One();
        break;
      case NodeLabel::kTimes:
      case NodeLabel::kTensor: {
        result = S::One();
        for (NodeId p : parents) {
          if (snap_.Contains(p)) result = S::Times(result, Eval(p));
        }
        break;
      }
      case NodeLabel::kPlus:
      case NodeLabel::kAggregate:
      case NodeLabel::kBlackBox:
      case NodeLabel::kZoomedModule: {
        for (NodeId p : parents) {
          if (snap_.Contains(p)) result = S::Plus(result, Eval(p));
        }
        break;
      }
      case NodeLabel::kDelta: {
        for (NodeId p : parents) {
          if (snap_.Contains(p)) result = S::Plus(result, Eval(p));
        }
        result = S::Delta(result);
        break;
      }
    }
    memo_.emplace(id, result);
    return result;
  }

 private:
  GraphSnapshot snap_;
  std::unordered_map<NodeId, V> assignment_;
  std::unordered_map<NodeId, V> memo_;
};

/// Renders the provenance expression rooted at `node` as a string, e.g.
/// "delta(x1 + x2) * m0", or "0" for a node that is not visible. For human
/// consumption and golden tests; `max_depth` truncates deep derivations
/// with "...". Follows parent edges only, so parent-only snapshots of
/// unsealed graphs work too.
std::string ProvExpressionString(const GraphView& view, NodeId node,
                                 int max_depth = 32);
/// ProvExpressionString over the snapshot's identity view.
std::string ProvExpressionString(const GraphSnapshot& snap, NodeId node,
                                 int max_depth = 32);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_SEMIRING_H_
