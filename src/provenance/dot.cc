#include "provenance/dot.h"

#include <fstream>
#include <map>
#include <ostream>
#include <vector>

#include "common/str_util.h"

namespace lipstick {

namespace {

/// Escapes straight into the stream: only '"' and '\\' need a backslash in
/// DOT labels; multibyte UTF-8 label glyphs (· δ ⊗) pass through untouched.
void EscapeTo(std::ostream& os, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

/// What the renderer needs to know about a node, whether it is an
/// underlying column record or a view's synthetic zoom node. Payloads are
/// resolved with bounds checking, so ids from a corrupt file degrade to
/// empty labels.
struct NodeFacts {
  NodeLabel label = NodeLabel::kToken;
  NodeRole role = NodeRole::kIntermediate;
  bool is_value_node = false;
  uint32_t invocation = kNoInvocation;
  std::string_view payload;
  const Value* value = &NullValue();
};

NodeFacts FactsOf(const GraphSnapshot& snap, NodeId id) {
  NodeView n = snap.node(id);
  NodeFacts f;
  f.label = n.label();
  f.role = n.role();
  f.is_value_node = n.is_value_node();
  f.invocation = n.invocation();
  f.payload = snap.strings().GetChecked(n.payload_id());
  f.value = &n.value();
  return f;
}

NodeFacts FactsOf(const GraphView::SyntheticNode& z) {
  NodeFacts f;
  f.label = NodeLabel::kZoomedModule;
  f.role = NodeRole::kZoom;
  f.invocation = z.invocation;
  f.payload = z.module;
  return f;
}

void EmitLabelText(std::ostream& os, const NodeFacts& f) {
  const char* role = nullptr;
  switch (f.role) {
    case NodeRole::kModuleInput:
      role = "i";
      break;
    case NodeRole::kModuleOutput:
      role = "o";
      break;
    case NodeRole::kModuleState:
      role = "s";
      break;
    case NodeRole::kWorkflowInput:
      role = "I";
      break;
    default:
      break;
  }
  if (role != nullptr) os << role << ": ";
  switch (f.label) {
    case NodeLabel::kToken:
      if (f.payload.empty()) {
        os << 'x';
      } else {
        EscapeTo(os, f.payload);
      }
      break;
    case NodeLabel::kPlus:
      os << '+';
      break;
    case NodeLabel::kTimes:
      os << "\xC2\xB7";  // ·
      break;
    case NodeLabel::kDelta:
      os << "\xCE\xB4";  // δ
      break;
    case NodeLabel::kTensor:
      os << "\xE2\x8A\x97";  // ⊗
      break;
    case NodeLabel::kAggregate:
      EscapeTo(os, f.payload);
      os << '=';
      EscapeTo(os, f.value->ToString());
      break;
    case NodeLabel::kConstValue:
      EscapeTo(os, f.value->ToString());
      break;
    case NodeLabel::kBlackBox:
      EscapeTo(os, f.payload);
      break;
    case NodeLabel::kModuleInvocation:
      os << "m<";
      EscapeTo(os, f.payload);
      os << '>';
      break;
    case NodeLabel::kZoomedModule:
      os << "M<";
      EscapeTo(os, f.payload);
      os << '>';
      break;
  }
}

const char* NodeStyle(const NodeFacts& f) {
  if (f.label == NodeLabel::kModuleInvocation) {
    return "shape=house,style=filled,fillcolor=lightsteelblue";
  }
  if (f.label == NodeLabel::kZoomedModule) {
    return "shape=component,style=filled,fillcolor=lightgoldenrod";
  }
  if (f.is_value_node) return "shape=box,style=filled,fillcolor=white";
  switch (f.role) {
    case NodeRole::kWorkflowInput:
      return "shape=circle,style=filled,fillcolor=palegreen";
    case NodeRole::kModuleInput:
    case NodeRole::kModuleOutput:
      return "shape=circle,style=filled,fillcolor=lightyellow";
    case NodeRole::kModuleState:
    case NodeRole::kStateBase:
      return "shape=circle,style=filled,fillcolor=mistyrose";
    default:
      return "shape=circle";
  }
}

}  // namespace

/// The renderer. Rendering a view is byte-identical to materializing it
/// first, because a view's iteration order *is* the materialized graph's
/// ForEachNode order.
Status WriteDot(const GraphView& view, std::ostream& os) {
  const GraphSnapshot& snap = view.snapshot();
  auto facts = [&](NodeId id) {
    return view.IsSynthetic(id)
               ? FactsOf(view.synthetic_nodes()[view.SyntheticIndex(id)])
               : FactsOf(snap, id);
  };

  os << "digraph provenance {\n  rankdir=BT;\n  node [fontsize=10];\n";

  // Cluster nodes per invocation (the shaded boxes of Figure 2(c)).
  std::map<uint32_t, std::vector<NodeId>> by_invocation;
  std::vector<NodeId> unclustered;
  const std::vector<InvocationInfo>& invocations = snap.invocations();
  view.ForEachVisibleNode([&](NodeId id, const GraphView::SyntheticNode*) {
    uint32_t inv = facts(id).invocation;
    if (inv != kNoInvocation && inv < invocations.size()) {
      by_invocation[inv].push_back(id);
    } else {
      unclustered.push_back(id);
    }
  });

  auto emit_node = [&](NodeId id) {
    NodeFacts f = facts(id);
    os << "    n" << id << " [label=\"";
    EmitLabelText(os, f);
    os << "\"," << NodeStyle(f) << "];\n";
  };

  for (const auto& [inv, ids] : by_invocation) {
    const InvocationInfo& info = invocations[inv];
    os << "  subgraph cluster_inv" << inv << " {\n    label=\"";
    EscapeTo(os, snap.strings().GetChecked(info.instance_name));
    os << " (exec " << info.execution << ")\";\n    style=dashed;\n";
    for (NodeId id : ids) emit_node(id);
    os << "  }\n";
  }
  os << "  subgraph top {\n";
  for (NodeId id : unclustered) emit_node(id);
  os << "  }\n";

  view.ForEachVisibleNode([&](NodeId id, const GraphView::SyntheticNode*) {
    for (NodeId p : view.ParentsOf(id)) {
      if (!view.VisibleOrSynthetic(p)) continue;
      os << "  n" << p << " -> n" << id << ";\n";
    }
  });
  os << "}\n";
  if (!os.good()) return Status::IOError("DOT write failed");
  return Status::OK();
}

Status WriteDotToFile(const GraphView& view, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError(StrCat("cannot open ", path, " for writing"));
  }
  return WriteDot(view, out);
}

}  // namespace lipstick
