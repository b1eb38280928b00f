#include "provenance/opm.h"

#include <ostream>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace lipstick {

namespace {

/// Streams the XML-escaped form of `s` straight into `os` — no per-field
/// temporary strings on the export path.
void XmlEscapeTo(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '<':
        os << "&lt;";
        break;
      case '>':
        os << "&gt;";
        break;
      case '&':
        os << "&amp;";
        break;
      case '"':
        os << "&quot;";
        break;
      default:
        os << c;
    }
  }
}

}  // namespace

Status WriteOpmXml(const GraphSnapshot& snap, std::ostream& os) {
  // Names resolve through the bounds-checked pool accessor, so ids from a
  // corrupt .pg file degrade to empty values instead of crashing.
  const StringPool& strings = snap.strings();
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<opmGraph xmlns=\"http://openprovenance.org/model/v1.1.a\">\n";

  // Processes: one per module invocation.
  os << "  <processes>\n";
  for (uint32_t i = 0; i < snap.invocations().size(); ++i) {
    const InvocationInfo& inv = snap.invocations()[i];
    if (inv.aborted()) continue;  // failed attempt, provenance discarded
    os << "    <process id=\"p" << i << "\"><value>";
    XmlEscapeTo(os, strings.GetChecked(inv.instance_name));
    os << " (";
    XmlEscapeTo(os, strings.GetChecked(inv.module_name));
    os << ", execution " << inv.execution << ")</value></process>\n";
  }
  os << "  </processes>\n";

  // Artifacts: module input and output tuples.
  os << "  <artifacts>\n";
  std::unordered_set<NodeId> artifacts;
  for (const InvocationInfo& inv : snap.invocations()) {
    for (NodeId id : inv.input_nodes) {
      if (snap.Contains(id)) artifacts.insert(id);
    }
    for (NodeId id : inv.output_nodes) {
      if (snap.Contains(id)) artifacts.insert(id);
    }
  }
  snap.ForEachNode([&](NodeId id) {
    if (!artifacts.count(id)) return;
    os << "    <artifact id=\"a" << id << "\"><value>";
    XmlEscapeTo(os, NodeRoleToString(snap.node(id).role()));
    os << " tuple</value></artifact>\n";
  });
  os << "  </artifacts>\n";

  // Dependencies.
  os << "  <causalDependencies>\n";
  // used / wasGeneratedBy.
  for (uint32_t i = 0; i < snap.invocations().size(); ++i) {
    const InvocationInfo& inv = snap.invocations()[i];
    for (NodeId in : inv.input_nodes) {
      if (!snap.Contains(in)) continue;
      os << "    <used><effect ref=\"p" << i << "\"/><cause ref=\"a" << in
         << "\"/></used>\n";
    }
    for (NodeId out : inv.output_nodes) {
      if (!snap.Contains(out)) continue;
      os << "    <wasGeneratedBy><effect ref=\"a" << out
         << "\"/><cause ref=\"p" << i << "\"/></wasGeneratedBy>\n";
    }
  }
  // wasDerivedFrom: an input artifact derives from the output artifact it
  // was copied from (the o-node is a parent of the i-node, possibly via
  // nothing else — in the coarse view they are directly adjacent).
  snap.ForEachNode([&](NodeId id) {
    if (!artifacts.count(id)) return;
    if (snap.node(id).role() != NodeRole::kModuleInput) return;
    for (NodeId p : snap.ParentsOf(id)) {
      if (snap.Contains(p) &&
          snap.node(p).role() == NodeRole::kModuleOutput) {
        os << "    <wasDerivedFrom><effect ref=\"a" << id
           << "\"/><cause ref=\"a" << p << "\"/></wasDerivedFrom>\n";
      }
    }
  });
  // wasTriggeredBy: invocation B triggered by invocation A if B consumed
  // an artifact generated by A.
  std::unordered_map<NodeId, uint32_t> generated_by;
  for (uint32_t i = 0; i < snap.invocations().size(); ++i) {
    for (NodeId out : snap.invocations()[i].output_nodes) {
      generated_by[out] = i;
    }
  }
  std::set<std::pair<uint32_t, uint32_t>> triggered;
  for (uint32_t i = 0; i < snap.invocations().size(); ++i) {
    for (NodeId in : snap.invocations()[i].input_nodes) {
      if (!snap.Contains(in)) continue;
      for (NodeId p : snap.ParentsOf(in)) {
        auto it = generated_by.find(p);
        if (it != generated_by.end()) triggered.insert({i, it->second});
      }
    }
  }
  for (const auto& [effect, cause] : triggered) {
    os << "    <wasTriggeredBy><effect ref=\"p" << effect
       << "\"/><cause ref=\"p" << cause << "\"/></wasTriggeredBy>\n";
  }
  os << "  </causalDependencies>\n</opmGraph>\n";
  if (!os.good()) return Status::IOError("OPM write failed");
  return Status::OK();
}

}  // namespace lipstick
