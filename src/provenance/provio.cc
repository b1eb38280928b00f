#include "provenance/provio.h"

#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>

#include "common/str_util.h"
#include "provenance/wal.h"

namespace lipstick {

namespace {

/// Referential-integrity post-pass of the loader: every parent edge and
/// invocation structural reference must name a node the file actually
/// defined, and alive nodes may only cite surviving invocation records
/// (dead nodes legitimately outlive their rolled-back records). Catches
/// hand-edited files whose records replay fine individually but dangle
/// collectively.
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

/// Replays a graph file into `graph`: one segment under the graph magic
/// whose last frame is the extent record.
Status Replay(std::istream& is, ProvenanceGraph* graph) {
  walfmt::SegmentScanner scanner(is, walfmt::kGraphMagic);
  LIPSTICK_RETURN_IF_ERROR(scanner.header_status());
  if (scanner.sequence() != 0) {
    return Status::ParseError(
        StrCat("header sequence ", scanner.sequence(), ", expected 0"));
  }
  walfmt::Record rec{};  // its payload lives until the next Next()
  bool closed = false;   // the last frame read was the extent record
  walfmt::SavepointExtent extent;
  while (scanner.Next(&rec)) {
    LIPSTICK_RETURN_IF_ERROR(walfmt::ApplyRecord(graph, rec));
    closed = rec.type == walfmt::RecordType::kSavepoint;
    if (closed) {
      LIPSTICK_ASSIGN_OR_RETURN(extent, walfmt::ParseSavepoint(rec));
    }
  }
  if (!scanner.torn_reason().empty()) {
    return Status::ParseError(StrCat("torn at byte ", scanner.valid_prefix(),
                                     " (", scanner.torn_reason(), ")"));
  }
  if (!closed) {
    return Status::ParseError("truncated: missing the closing extent record");
  }
  LIPSTICK_RETURN_IF_ERROR(walfmt::VerifyExtent(*graph, extent));
  return CheckLoadedRefs(*graph);
}

}  // namespace

Status SaveGraph(const ProvenanceGraph& graph, std::ostream& os) {
  // Frames are encoded into `buf` and handed to `os` a chunk at a time.
  constexpr size_t kChunkBytes = 64 * 1024;
  std::string buf;
  auto drain = [&](size_t at_least) {
    if (buf.size() < at_least) return;
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  };
  walfmt::EncodeHeader(&buf, walfmt::kGraphMagic, 0);
  // Interner ids are dense, so replaying the pool in id order reproduces
  // every StrId the records below name.
  const StringPool& pool = graph.strings();
  for (StrId next = 1; next < pool.size();) {
    next = walfmt::EncodeStrings(&buf, pool, next);
    drain(kChunkBytes);
  }
  graph.ForEachNode([&](NodeId id) {
    NodeView n = graph.node(id);
    uint8_t flags = (n.alive() ? internal::kAliveFlag : 0) |
                    (n.is_value_node() ? internal::kValueNodeFlag : 0);
    walfmt::EncodeNodeAppend(&buf, id, n.label(), n.role(), flags,
                             n.invocation(), n.payload_id(), n.parents());
    // The codec keeps scalars only; a nested value reads back as none.
    const Value& v = n.value();
    if (!v.is_null() && !v.is_bag() && !v.is_tuple()) {
      walfmt::EncodeNodeValue(&buf, id, v);
    }
    drain(kChunkBytes);
  });
  const std::vector<InvocationInfo>& invocations = graph.invocations();
  for (uint32_t i = 0; i < invocations.size(); ++i) {
    const InvocationInfo& inv = invocations[i];
    walfmt::EncodeBeginInvocation(&buf, i, inv);
    int kind = 0;
    for (const std::vector<NodeId>* nodes :
         {&inv.input_nodes, &inv.output_nodes, &inv.state_nodes}) {
      for (std::span<const NodeId> rest(*nodes); !rest.empty();) {
        rest = rest.subspan(walfmt::EncodeInvocationNodes(&buf, i, kind, rest));
        drain(kChunkBytes);
      }
      ++kind;
    }
    drain(kChunkBytes);
  }
  // The extent covers shards 0..k, k the highest shard holding a node.
  // Not TakeSavepoint(): checkpoints save under the log's mutex, and the
  // invocations lock it takes must never be acquired after that one.
  ProvenanceGraph::Savepoint extent;
  extent.invocation_count = invocations.size();
  for (uint32_t s = 0; s < graph.num_shards(); ++s) {
    extent.shard_sizes.push_back(graph.ShardSize(s));
  }
  while (extent.shard_sizes.size() > 1 && extent.shard_sizes.back() == 0) {
    extent.shard_sizes.pop_back();
  }
  walfmt::EncodeSavepoint(&buf, /*execution=*/0, extent);
  drain(0);
  if (!os.good()) return Status::IOError("write failed");
  return Status::OK();
}

Status SaveGraphToFile(const ProvenanceGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    return Status::IOError(StrCat("cannot open ", path, " for writing"));
  }
  LIPSTICK_RETURN_IF_ERROR(SaveGraph(graph, out));
  // The stream's last buffer reaches the file only at close.
  out.close();
  if (out.fail()) return Status::IOError(StrCat("cannot write ", path));
  return Status::OK();
}

Result<ProvenanceGraph> LoadGraph(std::istream& is) {
  ProvenanceGraph graph;
  Status st = Replay(is, &graph);
  if (!st.ok()) {
    return Status::ParseError(StrCat("graph file: ", st.message()));
  }
  graph.ShrinkToFit();
  return graph;
}

Result<ProvenanceGraph> LoadGraphFromFile(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Status::IOError(
        StrCat(path, " is a directory, not a provenance graph file"));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError(StrCat("cannot open ", path));
  }
  return LoadGraph(in);
}

}  // namespace lipstick
