#ifndef LIPSTICK_PROVENANCE_DOT_H_
#define LIPSTICK_PROVENANCE_DOT_H_

#include <iosfwd>
#include <string>
#include <unordered_set>

#include "common/status.h"
#include "provenance/graph.h"
#include "provenance/snapshot.h"
#include "provenance/view.h"

namespace lipstick {

/// Options for Graphviz rendering of provenance graphs, in the visual
/// vocabulary of the paper's Figure 2: circles for p-nodes, boxes for
/// v-nodes, house shapes for module invocations, and per-invocation
/// clusters standing in for the shaded module regions.
struct DotOptions {
  /// Restrict the output to these nodes (empty = whole alive graph).
  std::unordered_set<NodeId> subset;
  /// Group nodes of each invocation into a cluster.
  bool cluster_by_invocation = true;
  /// Include node ids in labels (useful when debugging).
  bool show_ids = false;
};

/// Writes a view in Graphviz DOT format. Labels are streamed straight to
/// `os` (no per-document string is built) with bounds-checked payload
/// resolution, so a corrupt .pg file renders as empty labels instead of
/// crashing. A lazy view renders without materializing: byte-identical to
/// WriteDot(view.Materialize()) on the same options.
Status WriteDot(const GraphView& view, std::ostream& os,
                const DotOptions& options = {});
/// The whole graph, through the identity view of a parent-only snapshot
/// (works unsealed).
Status WriteDot(const ProvenanceGraph& graph, std::ostream& os,
                const DotOptions& options = {});
Status WriteDotToFile(const ProvenanceGraph& graph, const std::string& path,
                      const DotOptions& options = {});
Status WriteDotToFile(const GraphView& view, const std::string& path,
                      const DotOptions& options = {});

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_DOT_H_
