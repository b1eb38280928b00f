#include "provenance/provio.h"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/str_util.h"

namespace lipstick {

namespace {

/// Hard ceilings on self-described counts, so truncated or garbage input
/// cannot drive huge up-front allocations. NodeIds carry a 16-bit shard
/// field, so more than 65535 shards cannot round-trip anyway; the string
/// reserve is a hint only (the loop reads exactly what the file holds).
constexpr size_t kMaxShards = 65535;
constexpr size_t kMaxStringReserve = 1u << 20;

// Percent-encodes whitespace, '%', and non-printable bytes so every record
// stays on one whitespace-delimited line.
std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c <= ' ' || c == '%' || c >= 127) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out.empty() ? "%00" : out;  // empty strings encode as NUL marker
}

Result<std::string> Unescape(const std::string& s) {
  if (s == "%00") return std::string();
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%') {
      if (i + 2 >= s.size()) return Status::ParseError("truncated escape");
      int hi = std::isxdigit(static_cast<unsigned char>(s[i + 1]))
                   ? std::stoi(s.substr(i + 1, 2), nullptr, 16)
                   : -1;
      if (hi < 0) return Status::ParseError("bad escape");
      out += static_cast<char>(hi);
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

std::string EncodeValue(const Value& v) {
  if (v.is_null()) return "N";
  if (v.is_bool()) return v.bool_value() ? "B1" : "B0";
  if (v.is_int()) return StrCat("I", v.int_value());
  if (v.is_double()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "D%.17g", v.double_value());
    return buf;
  }
  if (v.is_string()) return StrCat("S", Escape(v.string_value()));
  return "N";  // nested values are not stored in graph v-nodes
}

Result<Value> DecodeValue(const std::string& s) {
  if (s.empty()) return Status::ParseError("empty value");
  switch (s[0]) {
    case 'N':
      return Value::Null();
    case 'B':
      return Value::Bool(s == "B1");
    case 'I':
      return Value::Int(std::strtoll(s.c_str() + 1, nullptr, 10));
    case 'D':
      return Value::Double(std::strtod(s.c_str() + 1, nullptr));
    case 'S': {
      LIPSTICK_ASSIGN_OR_RETURN(std::string str, Unescape(s.substr(1)));
      return Value::String(std::move(str));
    }
    default:
      return Status::ParseError(StrCat("bad value encoding: ", s));
  }
}

std::string EncodeIdList(std::span<const NodeId> ids) {
  if (ids.empty()) return "-";
  std::vector<std::string> parts;
  parts.reserve(ids.size());
  for (NodeId id : ids) parts.push_back(StrCat(id));
  return Join(parts, ",");
}

Result<std::vector<NodeId>> DecodeIdList(const std::string& s) {
  std::vector<NodeId> out;
  if (s == "-") return out;
  for (const std::string& part : Split(s, ',')) {
    if (part.empty()) return Status::ParseError("empty id in list");
    char* end = nullptr;
    errno = 0;
    NodeId id = std::strtoull(part.c_str(), &end, 10);
    if (end != part.c_str() + part.size() || errno == ERANGE) {
      return Status::ParseError(StrCat("bad id in list: '", part, "'"));
    }
    out.push_back(id);
  }
  return out;
}

/// Referential-integrity post-pass shared by both loaders: every parent
/// edge and invocation structural reference must name a node the file
/// actually defined, and alive nodes may only cite surviving invocation
/// records (dead nodes legitimately outlive their rolled-back records).
/// Catches truncated or hand-edited files whose records parse fine
/// individually but dangle collectively.
Status CheckLoadedRefs(const ProvenanceGraph& graph) {
  Status bad;
  graph.ForEachNode([&](NodeId id) {
    if (!bad.ok()) return;
    for (NodeId parent : graph.ParentsOf(id)) {
      if (!graph.InGraph(parent)) {
        bad = Status::ParseError(
            StrCat("node ", id, " references undefined parent ", parent));
        return;
      }
    }
    NodeView n = graph.node(id);
    if (n.alive() && n.invocation() != kNoInvocation &&
        n.invocation() >= graph.invocations().size()) {
      bad = Status::ParseError(
          StrCat("alive node ", id, " references undefined invocation ",
                 n.invocation()));
    }
  });
  LIPSTICK_RETURN_IF_ERROR(bad);
  for (size_t i = 0; i < graph.invocations().size(); ++i) {
    const InvocationInfo& inv = graph.invocations()[i];
    if (inv.m_node != kInvalidNode && !graph.InGraph(inv.m_node)) {
      return Status::ParseError(
          StrCat("invocation ", i, " references undefined m-node ",
                 inv.m_node));
    }
    for (const std::vector<NodeId>* nodes :
         {&inv.input_nodes, &inv.output_nodes, &inv.state_nodes}) {
      for (NodeId id : *nodes) {
        if (!graph.InGraph(id)) {
          return Status::ParseError(
              StrCat("invocation ", i, " references undefined node ", id));
        }
      }
    }
  }
  return Status::OK();
}

// Maps string indices of the file's strings table to the loading graph's
// pool. Index 0 is the implicit empty string.
struct StringTable {
  std::vector<StrId> ids{kEmptyStr};

  Result<StrId> Resolve(uint32_t file_idx) const {
    if (file_idx >= ids.size()) {
      return Status::ParseError(StrCat("string index out of range: ",
                                       file_idx));
    }
    return ids[file_idx];
  }
};

}  // namespace

Status SaveGraph(const ProvenanceGraph& graph, std::ostream& os) {
  // v2: payloads and invocation names are written once, in a strings table
  // up front; node and invocation records reference table indices. The
  // graph's interner ids are already dense, so the table is the pool in id
  // order and every StrId is its own table index.
  os << "LIPSTICKGRAPH v2\n";
  size_t num_shards = 1;
  graph.ForEachNode([&](NodeId id) {
    num_shards = std::max<size_t>(num_shards, NodeShard(id) + 1);
  });
  os << "shards " << num_shards << "\n";
  const StringPool& pool = graph.strings();
  os << "strings " << (pool.size() - 1) << "\n";
  for (StrId i = 1; i < pool.size(); ++i) {
    os << "s " << Escape(pool.Get(i)) << "\n";
  }
  graph.ForEachNode([&](NodeId id) {
    NodeView n = graph.node(id);
    os << "n " << id << ' ' << static_cast<int>(n.label()) << ' '
       << static_cast<int>(n.role()) << ' ' << (n.is_value_node() ? 1 : 0)
       << ' ' << (n.alive() ? 1 : 0) << ' ' << n.invocation() << ' '
       << EncodeIdList(n.parents()) << ' ' << n.payload_id() << ' '
       << EncodeValue(n.value()) << "\n";
  });
  for (const InvocationInfo& inv : graph.invocations()) {
    os << "v " << inv.module_name << ' ' << inv.instance_name << ' '
       << inv.execution << ' ' << inv.m_node << ' '
       << EncodeIdList(inv.input_nodes) << ' '
       << EncodeIdList(inv.output_nodes) << ' '
       << EncodeIdList(inv.state_nodes) << "\n";
  }
  os << "end\n";
  if (!os.good()) return Status::IOError("write failed");
  return Status::OK();
}

Status SaveGraphToFile(const ProvenanceGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError(StrCat("cannot open ", path, " for writing"));
  }
  return SaveGraph(graph, out);
}

namespace {

Result<ProvenanceGraph> LoadGraphV2(std::istream& is) {
  std::string tag;
  size_t num_shards = 0;
  if (!(is >> tag >> num_shards) || tag != "shards" || num_shards == 0 ||
      num_shards > kMaxShards) {
    return Status::ParseError("bad shard count");
  }
  size_t num_strings = 0;
  if (!(is >> tag >> num_strings) || tag != "strings") {
    return Status::ParseError("bad strings count");
  }

  ProvenanceGraph graph;
  StringTable strings;
  strings.ids.reserve(std::min(num_strings, kMaxStringReserve) + 1);
  for (size_t i = 0; i < num_strings; ++i) {
    std::string raw;
    if (!(is >> tag >> raw) || tag != "s") {
      return Status::ParseError("bad string record");
    }
    LIPSTICK_ASSIGN_OR_RETURN(std::string str, Unescape(raw));
    strings.ids.push_back(graph.InternString(str));
  }

  std::vector<ShardWriter> writers;
  writers.push_back(graph.writer());
  for (size_t s = 1; s < num_shards; ++s) writers.push_back(graph.AddShard());

  while (is >> tag) {
    if (tag == "end") break;
    if (tag == "n") {
      NodeId id;
      int label, role, vflag, alive;
      uint32_t invocation, payload_idx;
      std::string parents_s, value_s;
      if (!(is >> id >> label >> role >> vflag >> alive >> invocation >>
            parents_s >> payload_idx >> value_s)) {
        return Status::ParseError("bad node record");
      }
      if (label < 0 || label > static_cast<int>(NodeLabel::kZoomedModule) ||
          role < 0 || role > static_cast<int>(NodeRole::kZoom)) {
        return Status::ParseError(
            StrCat("node ", id, " has out-of-range label/role"));
      }
      NodeRecord rec;
      rec.label = static_cast<NodeLabel>(label);
      rec.role = static_cast<NodeRole>(role);
      rec.is_value_node = vflag != 0;
      rec.alive = alive != 0;
      rec.invocation = invocation;
      LIPSTICK_ASSIGN_OR_RETURN(rec.parents, DecodeIdList(parents_s));
      LIPSTICK_ASSIGN_OR_RETURN(StrId payload, strings.Resolve(payload_idx));
      rec.payload = std::string(graph.str(payload));
      LIPSTICK_ASSIGN_OR_RETURN(rec.value, DecodeValue(value_s));
      uint32_t shard = NodeShard(id);
      if (shard >= writers.size()) {
        return Status::ParseError("node references unknown shard");
      }
      // Nodes must arrive in id order within each shard.
      NodeId got = writers[shard].Restore(rec);
      if (got != id) {
        return Status::ParseError(
            StrCat("node id mismatch: expected ", id, " got ", got));
      }
    } else if (tag == "v") {
      uint32_t module_idx, instance_idx, execution;
      NodeId m_node;
      std::string in_s, out_s, state_s;
      if (!(is >> module_idx >> instance_idx >> execution >> m_node >> in_s >>
            out_s >> state_s)) {
        return Status::ParseError("bad invocation record");
      }
      InvocationInfo info;
      LIPSTICK_ASSIGN_OR_RETURN(info.module_name,
                                strings.Resolve(module_idx));
      LIPSTICK_ASSIGN_OR_RETURN(info.instance_name,
                                strings.Resolve(instance_idx));
      info.execution = execution;
      info.m_node = m_node;
      LIPSTICK_ASSIGN_OR_RETURN(info.input_nodes, DecodeIdList(in_s));
      LIPSTICK_ASSIGN_OR_RETURN(info.output_nodes, DecodeIdList(out_s));
      LIPSTICK_ASSIGN_OR_RETURN(info.state_nodes, DecodeIdList(state_s));
      graph.RestoreInvocation(std::move(info));
    } else {
      return Status::ParseError(StrCat("unknown record tag: ", tag));
    }
  }
  if (tag != "end") {
    return Status::ParseError("truncated graph file: missing end marker");
  }
  LIPSTICK_RETURN_IF_ERROR(CheckLoadedRefs(graph));
  return graph;
}

}  // namespace

Result<ProvenanceGraph> LoadGraph(std::istream& is) {
  std::string header;
  if (!std::getline(is, header)) {
    return Status::ParseError("bad graph file header");
  }
  if (header == "LIPSTICKGRAPH v2") return LoadGraphV2(is);
  return Status::ParseError("bad graph file header");
}

Result<ProvenanceGraph> LoadGraphFromFile(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Status::IOError(
        StrCat(path, " is a directory, not a provenance graph file"));
  }
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError(StrCat("cannot open ", path));
  }
  return LoadGraph(in);
}

}  // namespace lipstick
