#include "provenance/deletion.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "provenance/query.h"
#include "provenance/view.h"

namespace lipstick {

Result<std::unordered_set<NodeId>> ComputeDeletionSet(
    const GraphSnapshot& snap, const std::vector<NodeId>& seeds) {
  LIPSTICK_ASSIGN_OR_RETURN(
      std::vector<NodeId> order,
      GraphView::MakeIdentity(snap).DeletionOrder(seeds));
  return std::unordered_set<NodeId>(order.begin(), order.end());
}

Result<size_t> PropagateDeletion(ProvenanceGraph* graph, NodeId seed) {
  obs::ObsSpan span("query", "delete");
  static const obs::MetricId kDeleteUs =
      obs::MetricsRegistry::Global().RegisterHistogram("query.delete_us");
  obs::ScopedHistTimer obs_timer(kDeleteUs);

  LIPSTICK_RETURN_IF_ERROR(RequireSealed(*graph, "deletion propagation"));
  LIPSTICK_ASSIGN_OR_RETURN(GraphSnapshot snap,
                            GraphSnapshot::Capture(*graph));
  LIPSTICK_ASSIGN_OR_RETURN(
      std::vector<NodeId> dead,
      GraphView::MakeIdentity(snap).DeletionOrder({&seed, 1}));
  for (NodeId id : dead) graph->SetAlive(id, false);
  graph->Seal();
  span.Arg("deleted_nodes", static_cast<uint64_t>(dead.size()));
  return dead.size();
}

Result<bool> DependsOn(const GraphSnapshot& snap, NodeId target,
                       NodeId source) {
  return DependsOnSet(snap, target, {source});
}

}  // namespace lipstick
