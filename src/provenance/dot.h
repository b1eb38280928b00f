#ifndef LIPSTICK_PROVENANCE_DOT_H_
#define LIPSTICK_PROVENANCE_DOT_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "provenance/view.h"

namespace lipstick {

/// Writes a view in Graphviz DOT format, in the visual vocabulary of the
/// paper's Figure 2: circles for p-nodes, boxes for v-nodes, house shapes
/// for module invocations, and per-invocation clusters standing in for the
/// shaded module regions. Labels are streamed straight to `os` (no
/// per-document string is built) with bounds-checked payload resolution,
/// so a corrupt .pg file renders as empty labels instead of crashing. A
/// lazy view renders without materializing: byte-identical to rendering
/// the identity view of view.Materialize(). To render part of a graph,
/// render a subgraph or restrict view of it.
Status WriteDot(const GraphView& view, std::ostream& os);
Status WriteDotToFile(const GraphView& view, const std::string& path);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_DOT_H_
