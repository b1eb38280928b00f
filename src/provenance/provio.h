#ifndef LIPSTICK_PROVENANCE_PROVIO_H_
#define LIPSTICK_PROVENANCE_PROVIO_H_

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "provenance/graph.h"

namespace lipstick {

/// Serialization of provenance graphs. This implements the paper's
/// Lipstick architecture split: the Provenance Tracker writes
/// provenance-annotated output to the file system, and the Query Processor
/// later reads it back and builds the in-memory graph (Section 5.1).
///
/// Format: a graph file (`*.pg`, and the WAL's `ckpt-<seq>.pg`) is one
/// segment in the WAL's binary format (wal.h, `walfmt`) under its own
/// magic `LIPSTICKPG02`, sequence 0: the string pool in id order, packed
/// into kStrings records, one kNodeAppend (plus a kNodeValue for a scalar
/// value) per node in (shard, index) order, one kBeginInvocation plus its
/// input, output and state lists (packed kInvocationNodes records) per
/// invocation, and a closing kSavepoint holding the graph's extent.
/// Loading replays the records through the WAL's replayer, so node ids,
/// interner ids, shard structure and invocation metadata are preserved
/// exactly: Save(Load(Save(g))) == Save(g).

/// Writes `graph` to `os`. Only scalar values in v-nodes are supported.
Status SaveGraph(const ProvenanceGraph& graph, std::ostream& os);
/// Writes `graph` to the file at `path`. Fails if any byte, including
/// the last buffered ones flushed at close, cannot be written.
Status SaveGraphToFile(const ProvenanceGraph& graph, const std::string& path);

/// Reads a graph previously written by SaveGraph (open files in binary
/// mode), a bounded window at a time rather than the whole file at once.
/// The whole file must check out: a bad header, a torn or missing tail, an
/// extent that disagrees with the records, or a reference to an undefined
/// node, string or invocation is a kParseError. The result is
/// unsealed; call Seal() before querying (benchmarks measure exactly this
/// read + build + seal cost, cf. Figure 6). It holds no spare capacity
/// (ProvenanceGraph::ShrinkToFit).
Result<ProvenanceGraph> LoadGraph(std::istream& is);
Result<ProvenanceGraph> LoadGraphFromFile(const std::string& path);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_PROVIO_H_
