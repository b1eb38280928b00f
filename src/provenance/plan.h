#ifndef LIPSTICK_PROVENANCE_PLAN_H_
#define LIPSTICK_PROVENANCE_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "provenance/graph.h"

namespace lipstick {

/// ----------------------------------------------------------------------
/// Relational-style plan IR over the provenance read path.
///
/// Every read query — the legacy one-shot operators (stats, find, expr,
/// depends, subgraph, zoomout) as well as the `|`-pipeline form
/// ("zoomout m1,m2 | subgraph 42 | stats") — parses into a Plan: a linear
/// chain of zero or more *view operators* (ZoomOut, Subgraph, Restrict,
/// DeleteProp), optionally closed by one *terminal* (Stats, Find,
/// SemiringEval/Expr, Depends). A chain ending in a view operator renders
/// that operator's summary line, matching the legacy output byte for byte.
///
/// Plans canonicalize to a stable string (Plan::Canonical) used as the
/// service cache key, so syntactically different but equivalent requests
/// ("zoomout b a" vs "zoomout a b") share one cache entry.
/// ----------------------------------------------------------------------

enum class PlanOpKind : uint8_t {
  kZoomOut,     // collapse modules (Definition 4.1)          [view]
  kSubgraph,    // restrict to a reachability neighborhood    [view]
  kRestrict,    // keep nodes matching a predicate            [view]
  kDeleteProp,  // deletion propagation from seeds (Def 4.2)  [view]
  kStats,       // graph summary statistics                   [terminal]
  kFind,        // enumerate nodes matching a predicate       [terminal]
  kExpr,        // semiring expression of one node            [terminal]
  kDepends,     // deletion-propagation dependency query      [terminal]
};

/// Subgraph traversal direction: the legacy query is kBoth (ancestors +
/// descendants + co-parents of descendants); kUp / kDown restrict to the
/// ancestor / descendant side.
enum class SubgraphDir : uint8_t { kBoth, kUp, kDown };

/// One conjunct of a node predicate (the `find`/`restrict` flag language).
struct PatternAtom {
  enum class Kind : uint8_t { kLabel, kRole, kPayload };
  Kind kind = Kind::kLabel;
  NodeLabel label = NodeLabel::kToken;
  NodeRole role = NodeRole::kIntermediate;
  std::string payload;  // substring match

  bool Matches(NodeLabel l, NodeRole r, std::string_view p) const;
  std::string Canonical() const;
};

/// Conjunction of atoms over (label, role, payload); empty matches all.
/// Atoms are kept sorted by canonical rendering — conjunction commutes, so
/// "--label token --payload x" and "--payload x --label token" canonicalize
/// (and cache) identically.
struct PlanPattern {
  std::vector<PatternAtom> atoms;

  bool Matches(NodeLabel l, NodeRole r, std::string_view payload) const;
  bool empty() const { return atoms.empty(); }
  std::string Canonical() const;
  void Normalize();  // sorts atoms into canonical order
};

struct PlanOp {
  PlanOpKind kind = PlanOpKind::kStats;

  // kZoomOut: module names, sorted, duplicates preserved (the legacy
  // summary reports the requested count; execution collapses the set).
  std::vector<std::string> modules;
  // kSubgraph roots / kDeleteProp seeds, sorted and deduplicated.
  std::vector<NodeId> nodes;
  SubgraphDir dir = SubgraphDir::kBoth;  // kSubgraph only
  PlanPattern pattern;                   // kFind / kRestrict
  NodeId target = kInvalidNode;          // kExpr node / kDepends target
  NodeId source = kInvalidNode;          // kDepends source

  bool IsViewOp() const {
    return kind == PlanOpKind::kZoomOut || kind == PlanOpKind::kSubgraph ||
           kind == PlanOpKind::kRestrict || kind == PlanOpKind::kDeleteProp;
  }
  std::string Canonical() const;
};

struct Plan {
  std::vector<PlanOp> ops;

  /// Leading view operators (all ops except an optional trailing terminal).
  size_t NumViewOps() const {
    return ops.empty() ? 0
                       : ops.size() - (ops.back().IsViewOp() ? 0 : 1);
  }
  bool HasTerminal() const {
    return !ops.empty() && !ops.back().IsViewOp();
  }
  /// Stable canonical rendering, e.g. "zoomout(a,b)|subgraph(42)|stats".
  std::string Canonical() const;
};

/// Parses the wire/CLI request (operation plus argument tokens) into a
/// Plan. Accepts the legacy single-op syntax with its exact error strings
/// ("unknown query operation '...'", "bad node id '...'", ...) and the
/// pipeline form, where stages are separated by '|' tokens (a '|' may be
/// glued to its neighbors: "zoomout a|stats" splits like "zoomout a | stats").
/// Argument tokens containing whitespace (e.g. a quoted --payload value)
/// are never re-split.
Result<Plan> ParsePlan(const std::string& op,
                       const std::vector<std::string>& args);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_PLAN_H_
