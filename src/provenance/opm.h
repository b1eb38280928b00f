#ifndef LIPSTICK_PROVENANCE_OPM_H_
#define LIPSTICK_PROVENANCE_OPM_H_

#include <iosfwd>

#include "common/status.h"
#include "provenance/snapshot.h"

namespace lipstick {

/// Exports the coarse-grained view of a provenance graph as an Open
/// Provenance Model (OPM [23]) XML document — the interchange format the
/// standard workflow-provenance systems the paper compares against use.
///
/// The mapping follows the OPM core vocabulary:
///   module invocation ("m" node)  -> <process>
///   module input tuple ("i" node) -> <artifact> + <used>
///   module output tuple ("o" node)-> <artifact> + <wasGeneratedBy>
///   edge o -> i across modules    -> <wasDerivedFrom>
///   invocation ordering by shared artifacts -> <wasTriggeredBy>
///
/// Fine-grained internals (operator nodes, state, aggregation structure)
/// have no OPM counterpart and are omitted — which is precisely the
/// information loss the paper's model repairs; exporting makes the
/// difference inspectable.
/// Reads parent edges only, so a parent-only snapshot of an unsealed
/// graph (GraphSnapshot::CaptureForParents) exports too.
Status WriteOpmXml(const GraphSnapshot& snap, std::ostream& os);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_OPM_H_
