#include "provenance/plan.h"

#include <algorithm>
#include <cstdlib>

#include "common/str_util.h"

namespace lipstick {

namespace {

/// Parses a decimal node id ("bad node id '...'" on garbage).
Result<NodeId> ParsePlanNodeId(const std::string& s) {
  char* end = nullptr;
  NodeId id = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument(StrCat("bad node id '", s, "'"));
  }
  return id;
}

/// Splits one token at '|' boundaries, emitting the pieces and a bare "|"
/// separator token for each pipe, so "a|b" tokenizes like "a | b".
void SplitPipes(const std::string& token, std::vector<std::string>* out) {
  size_t start = 0;
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '|') continue;
    if (i > start) out->push_back(token.substr(start, i - start));
    out->push_back("|");
    start = i + 1;
  }
  if (start < token.size()) out->push_back(token.substr(start));
  if (token.empty()) out->push_back(token);
}

/// Whitespace-splits `s` (the op field may carry a whole pipeline).
void SplitWhitespace(const std::string& s, std::vector<std::string>* out) {
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    size_t start = i;
    while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
    if (i > start) out->push_back(s.substr(start, i - start));
  }
}

/// Comma-splits a roots/modules operand; empty pieces are preserved so
/// "4,,5" surfaces as a "bad node id ''" / empty-module error downstream.
std::vector<std::string> SplitCommaList(const std::string& s) {
  return Split(s, ',');
}

/// Builds the pattern for `find` / `restrict` from a flag token list,
/// mirroring the historical flag parser exactly: flags are consumed in
/// (flag, value) pairs and a trailing flag with no value is ignored.
Result<PlanPattern> ParsePatternFlags(const std::vector<std::string>& rest) {
  PlanPattern pattern;
  for (size_t i = 0; i + 1 < rest.size(); i += 2) {
    const std::string& flag = rest[i];
    const std::string& value = rest[i + 1];
    PatternAtom atom;
    if (flag == "--payload") {
      atom.kind = PatternAtom::Kind::kPayload;
      atom.payload = value;
    } else if (flag == "--label") {
      bool matched = false;
      for (int l = 0; l <= static_cast<int>(NodeLabel::kZoomedModule); ++l) {
        if (value == NodeLabelToString(static_cast<NodeLabel>(l))) {
          atom.kind = PatternAtom::Kind::kLabel;
          atom.label = static_cast<NodeLabel>(l);
          matched = true;
        }
      }
      if (!matched) {
        return Status::InvalidArgument(StrCat("unknown label '", value, "'"));
      }
    } else if (flag == "--role") {
      bool matched = false;
      for (int r = 0; r <= static_cast<int>(NodeRole::kZoom); ++r) {
        if (value == NodeRoleToString(static_cast<NodeRole>(r))) {
          atom.kind = PatternAtom::Kind::kRole;
          atom.role = static_cast<NodeRole>(r);
          matched = true;
        }
      }
      if (!matched) {
        return Status::InvalidArgument(StrCat("unknown role '", value, "'"));
      }
    } else {
      return Status::InvalidArgument(StrCat("unknown find flag '", flag, "'"));
    }
    pattern.atoms.push_back(std::move(atom));
  }
  pattern.Normalize();
  return pattern;
}

Result<std::vector<NodeId>> ParseNodeList(const std::string& operand) {
  std::vector<NodeId> ids;
  for (const std::string& piece : SplitCommaList(operand)) {
    Result<NodeId> id = ParsePlanNodeId(piece);
    if (!id.ok()) return id.status();
    ids.push_back(*id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

bool ParseSubgraphDir(const std::string& word, SubgraphDir* dir) {
  if (word == "both") {
    *dir = SubgraphDir::kBoth;
  } else if (word == "up") {
    *dir = SubgraphDir::kUp;
  } else if (word == "down") {
    *dir = SubgraphDir::kDown;
  } else {
    return false;
  }
  return true;
}

const char* SubgraphDirName(SubgraphDir dir) {
  switch (dir) {
    case SubgraphDir::kBoth:
      return "both";
    case SubgraphDir::kUp:
      return "up";
    case SubgraphDir::kDown:
      return "down";
  }
  return "?";
}

/// Parses one pipeline stage (op name + operand tokens) into a PlanOp.
/// Unknown operations report the historical error string.
Result<PlanOp> ParseStage(const std::vector<std::string>& stage) {
  const std::string& op = stage[0];
  std::vector<std::string> rest(stage.begin() + 1, stage.end());
  PlanOp out;
  if (op == "stats") {
    out.kind = PlanOpKind::kStats;
    return out;
  }
  if (op == "find" || op == "restrict") {
    out.kind = op == "find" ? PlanOpKind::kFind : PlanOpKind::kRestrict;
    Result<PlanPattern> pattern = ParsePatternFlags(rest);
    if (!pattern.ok()) return pattern.status();
    out.pattern = std::move(*pattern);
    return out;
  }
  if (op == "expr") {
    if (rest.size() != 1) {
      return Status::InvalidArgument("expr needs one node id");
    }
    Result<NodeId> id = ParsePlanNodeId(rest[0]);
    if (!id.ok()) return id.status();
    out.kind = PlanOpKind::kExpr;
    out.target = *id;
    return out;
  }
  if (op == "depends") {
    if (rest.size() != 2) {
      return Status::InvalidArgument("depends needs <target-id> <source-id>");
    }
    Result<NodeId> target = ParsePlanNodeId(rest[0]);
    Result<NodeId> source = ParsePlanNodeId(rest[1]);
    if (!target.ok() || !source.ok()) {
      return Status::InvalidArgument("bad node ids");
    }
    out.kind = PlanOpKind::kDepends;
    out.target = *target;
    out.source = *source;
    return out;
  }
  if (op == "subgraph") {
    // One comma-joined roots operand, optionally followed by a direction
    // keyword (up / down / both).
    out.kind = PlanOpKind::kSubgraph;
    if (rest.size() == 2 && ParseSubgraphDir(rest[1], &out.dir)) {
      rest.pop_back();
    }
    if (rest.size() != 1) {
      return Status::InvalidArgument("subgraph needs one node id");
    }
    Result<std::vector<NodeId>> roots = ParseNodeList(rest[0]);
    if (!roots.ok()) return roots.status();
    out.nodes = std::move(*roots);
    return out;
  }
  if (op == "zoomout") {
    if (rest.empty()) {
      return Status::InvalidArgument("zoomout needs at least one module");
    }
    out.kind = PlanOpKind::kZoomOut;
    for (const std::string& operand : rest) {
      for (std::string& module : SplitCommaList(operand)) {
        if (module.empty()) {
          return Status::InvalidArgument("zoomout needs at least one module");
        }
        out.modules.push_back(std::move(module));
      }
    }
    std::sort(out.modules.begin(), out.modules.end());
    return out;
  }
  if (op == "delete") {
    if (rest.size() != 1) {
      return Status::InvalidArgument("delete needs one node id list");
    }
    Result<std::vector<NodeId>> seeds = ParseNodeList(rest[0]);
    if (!seeds.ok()) return seeds.status();
    if (seeds->empty()) {
      return Status::InvalidArgument("delete needs one node id list");
    }
    out.kind = PlanOpKind::kDeleteProp;
    out.nodes = std::move(*seeds);
    return out;
  }
  return Status::InvalidArgument(StrCat("unknown query operation '", op, "'"));
}

}  // namespace

bool PatternAtom::Matches(NodeLabel l, NodeRole r, std::string_view p) const {
  switch (kind) {
    case Kind::kLabel:
      return l == label;
    case Kind::kRole:
      return r == role;
    case Kind::kPayload:
      return p.find(payload) != std::string_view::npos;
  }
  return false;
}

std::string PatternAtom::Canonical() const {
  switch (kind) {
    case Kind::kLabel:
      return StrCat("label=", NodeLabelToString(label));
    case Kind::kRole:
      return StrCat("role=", NodeRoleToString(role));
    case Kind::kPayload:
      return StrCat("payload=", payload);
  }
  return "?";
}

bool PlanPattern::Matches(NodeLabel l, NodeRole r,
                          std::string_view payload) const {
  for (const PatternAtom& atom : atoms) {
    if (!atom.Matches(l, r, payload)) return false;
  }
  return true;
}

std::string PlanPattern::Canonical() const {
  std::vector<std::string> parts;
  parts.reserve(atoms.size());
  for (const PatternAtom& atom : atoms) parts.push_back(atom.Canonical());
  return Join(parts, ",");
}

void PlanPattern::Normalize() {
  std::sort(atoms.begin(), atoms.end(),
            [](const PatternAtom& a, const PatternAtom& b) {
              return a.Canonical() < b.Canonical();
            });
}

std::string PlanOp::Canonical() const {
  switch (kind) {
    case PlanOpKind::kZoomOut:
      return StrCat("zoomout(", Join(modules, ","), ")");
    case PlanOpKind::kSubgraph: {
      std::vector<std::string> parts;
      parts.reserve(nodes.size());
      for (NodeId id : nodes) parts.push_back(StrCat(id));
      std::string roots = Join(parts, ",");
      if (dir == SubgraphDir::kBoth) {
        return StrCat("subgraph(", roots, ")");
      }
      return StrCat("subgraph(", roots, ";", SubgraphDirName(dir), ")");
    }
    case PlanOpKind::kRestrict:
      return StrCat("restrict(", pattern.Canonical(), ")");
    case PlanOpKind::kDeleteProp: {
      std::vector<std::string> parts;
      parts.reserve(nodes.size());
      for (NodeId id : nodes) parts.push_back(StrCat(id));
      return StrCat("delete(", Join(parts, ","), ")");
    }
    case PlanOpKind::kStats:
      return "stats";
    case PlanOpKind::kFind:
      return StrCat("find(", pattern.Canonical(), ")");
    case PlanOpKind::kExpr:
      return StrCat("expr(", target, ")");
    case PlanOpKind::kDepends:
      return StrCat("depends(", target, ",", source, ")");
  }
  return "?";
}

std::string Plan::Canonical() const {
  std::vector<std::string> parts;
  parts.reserve(ops.size());
  for (const PlanOp& op : ops) parts.push_back(op.Canonical());
  return Join(parts, "|");
}

Result<Plan> ParsePlan(const std::string& op,
                       const std::vector<std::string>& args) {
  // Token stream: the op field whitespace-split (a pipeline may arrive as
  // one string), then the argument tokens verbatim; '|' splits everywhere.
  std::vector<std::string> raw;
  SplitWhitespace(op, &raw);
  raw.insert(raw.end(), args.begin(), args.end());
  std::vector<std::string> tokens;
  for (const std::string& t : raw) SplitPipes(t, &tokens);

  std::vector<std::vector<std::string>> stages(1);
  for (std::string& t : tokens) {
    if (t == "|") {
      stages.emplace_back();
    } else {
      stages.back().push_back(std::move(t));
    }
  }
  if (stages.size() == 1 && stages[0].empty()) {
    return Status::InvalidArgument("unknown query operation ''");
  }
  Plan plan;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (stages[i].empty()) {
      return Status::InvalidArgument("empty pipeline stage");
    }
    Result<PlanOp> stage_op = ParseStage(stages[i]);
    if (!stage_op.ok()) return stage_op.status();
    if (!stage_op->IsViewOp() && i + 1 != stages.size()) {
      return Status::InvalidArgument(
          StrCat("terminal operation '", stages[i][0],
                 "' must be last in pipeline"));
    }
    plan.ops.push_back(std::move(*stage_op));
  }
  return plan;
}

}  // namespace lipstick
