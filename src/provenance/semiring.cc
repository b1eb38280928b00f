#include "provenance/semiring.h"

#include "common/str_util.h"

namespace lipstick {

Monomial Monomial::Var(const std::string& token) {
  Monomial m;
  m.vars_[token] = 1;
  return m;
}

Monomial Monomial::Times(const Monomial& other) const {
  Monomial out = *this;
  for (const auto& [tok, exp] : other.vars_) out.vars_[tok] += exp;
  return out;
}

std::string Monomial::ToString() const {
  if (vars_.empty()) return "1";
  std::vector<std::string> parts;
  for (const auto& [tok, exp] : vars_) {
    parts.push_back(exp == 1 ? tok : StrCat(tok, "^", exp));
  }
  return Join(parts, "*");
}

Polynomial Polynomial::One() {
  Polynomial p;
  p.terms_[Monomial()] = 1;
  return p;
}

Polynomial Polynomial::Var(const std::string& token) {
  Polynomial p;
  p.terms_[Monomial::Var(token)] = 1;
  return p;
}

Polynomial Polynomial::Plus(const Polynomial& other) const {
  Polynomial out = *this;
  for (const auto& [m, c] : other.terms_) out.terms_[m] += c;
  return out;
}

Polynomial Polynomial::Times(const Polynomial& other) const {
  Polynomial out;
  for (const auto& [ma, ca] : terms_) {
    for (const auto& [mb, cb] : other.terms_) {
      out.terms_[ma.Times(mb)] += ca * cb;
    }
  }
  return out;
}

uint64_t Polynomial::Eval(
    const std::map<std::string, uint64_t>& assignment) const {
  uint64_t total = 0;
  for (const auto& [m, c] : terms_) {
    uint64_t term = c;
    for (const auto& [tok, exp] : m.vars()) {
      auto it = assignment.find(tok);
      uint64_t v = it == assignment.end() ? 1 : it->second;
      for (uint32_t e = 0; e < exp; ++e) term *= v;
    }
    total += term;
  }
  return total;
}

std::string Polynomial::ToString() const {
  if (terms_.empty()) return "0";
  std::vector<std::string> parts;
  for (const auto& [m, c] : terms_) {
    if (c == 1) {
      parts.push_back(m.ToString());
    } else if (m.vars().empty()) {
      parts.push_back(StrCat(c));
    } else {
      parts.push_back(StrCat(c, "*", m.ToString()));
    }
  }
  return Join(parts, " + ");
}

namespace {

/// Appends the expression of `id` to `out` in one pass: every level
/// writes straight into the result, so nothing is built and copied per
/// subexpression.
void AppendExpr(const GraphView& view, NodeId id, int depth,
                std::string* out) {
  if (depth <= 0) {
    out->append("...");
    return;
  }
  auto parents = [&](const char* sep) {
    bool first = true;
    for (NodeId p : view.ParentsOf(id)) {
      if (!view.VisibleOrSynthetic(p)) continue;
      if (!first) out->append(sep);
      first = false;
      AppendExpr(view, p, depth - 1, out);
    }
  };
  auto module = [&](const char* open, std::string_view name) {
    out->append(open);
    out->append(name);
    out->append(">(");
    parents(", ");
    out->push_back(')');
  };
  if (view.IsSynthetic(id)) {
    module("M<", view.synthetic_nodes()[view.SyntheticIndex(id)].module);
    return;
  }
  NodeView n = view.snapshot().node(id);
  switch (n.label()) {
    case NodeLabel::kToken:
      out->append(n.payload().empty() ? std::string_view("x?") : n.payload());
      return;
    case NodeLabel::kPlus:
      out->push_back('(');
      parents(" + ");
      out->push_back(')');
      return;
    case NodeLabel::kTimes:
      out->push_back('(');
      parents(" * ");
      out->push_back(')');
      return;
    case NodeLabel::kDelta:
      out->append("delta(");
      parents(" + ");
      out->push_back(')');
      return;
    case NodeLabel::kTensor:
      out->push_back('(');
      parents(" (x) ");
      out->push_back(')');
      return;
    case NodeLabel::kAggregate:
      out->append(n.payload());
      out->push_back('[');
      parents(", ");
      out->push_back(']');
      return;
    case NodeLabel::kConstValue:
      out->append(n.value().ToString());
      return;
    case NodeLabel::kBlackBox:
      out->append(n.payload());
      out->push_back('(');
      parents(", ");
      out->push_back(')');
      return;
    case NodeLabel::kModuleInvocation:
      out->append("m<");
      out->append(n.payload());
      out->push_back('>');
      return;
    case NodeLabel::kZoomedModule:
      module("M<", n.payload());
      return;
  }
  out->push_back('?');
}

}  // namespace

std::string ProvExpressionString(const GraphView& view, NodeId node,
                                 int max_depth) {
  if (!view.VisibleOrSynthetic(node)) return "0";
  std::string out;
  AppendExpr(view, node, max_depth, &out);
  return out;
}

std::string ProvExpressionString(const GraphSnapshot& snap, NodeId node,
                                 int max_depth) {
  return ProvExpressionString(GraphView::MakeIdentity(snap), node, max_depth);
}

}  // namespace lipstick
